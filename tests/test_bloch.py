import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscrim import (
    ConvergenceError,
    DensityOperator,
    HermitianOperator,
    dual_grid_oracle,
    from_bloch,
    random_ensemble,
    shifted_ball_dual,
    solve_qubit,
    to_bloch,
    trace_norm,
)
from qdiscrim import bloch
from qdiscrim.families import (
    REGULAR_TETRAHEDRON,
    inscribed_tetrahedron,
    isosceles_triple,
    orthogonal_pairs,
)

from conftest import (
    NOT_REAL,
    convex_weights_for_center,
    random_rotation_3d,
    reference_min_enclosing_ball,
)


def brute_force_meb_radius(points, resolution=2e-3):
    """Independent oracle: minimize max distance over a refined grid."""
    pts = np.asarray(points)
    center = pts.mean(axis=0)
    span = max(1e-6, float(np.max(np.linalg.norm(pts - center, axis=1))))
    best = None
    step = span
    while step > resolution / 2:
        offsets = np.arange(-2 * step, 2 * step + step / 4, step / 2)
        grid = np.stack(np.meshgrid(offsets, offsets, offsets, indexing="ij"), axis=-1)
        candidates = center + grid.reshape(-1, 3)
        dists = np.linalg.norm(candidates[:, None, :] - pts[None, :, :], axis=2)
        radii = dists.max(axis=1)
        idx = int(np.argmin(radii))
        center = candidates[idx]
        best = float(radii[idx])
        step /= 2
    return best


def assert_basis_witnesses_center(result, points):
    """The dual's basis multipliers are barycentric coordinates of its center."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    lam = result.multipliers
    assert 1 <= len(result.basis) <= 4 and len(lam) == len(result.basis)
    assert len(set(result.basis)) == len(result.basis)
    assert set(result.basis) <= set(result.active)
    assert np.min(lam) >= 0.0 and abs(lam.sum() - 1.0) <= 1e-12
    assert np.linalg.norm(lam @ pts[list(result.basis)] - result.center) <= 1e-12


@pytest.fixture
def basis_checked(monkeypatch):
    """Check the basis and multipliers of every shifted_ball_dual result a test sees."""

    def checked(points, shifts, *args, **kwargs):
        result = bloch.shifted_ball_dual(points, shifts, *args, **kwargs)
        assert_basis_witnesses_center(result, points)
        return result

    monkeypatch.setitem(globals(), "shifted_ball_dual", checked)


def equal_shift_ball(points):
    """Center, radius and active set of the smallest ball enclosing the points,
    as the shifted-ball dual with every shift 1/n: radius = value - 1/n."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    result = shifted_ball_dual(pts, np.full(n, 1.0 / n))
    return result.center, result.value - 1.0 / n, result.active


BALL_KINDS = ["random", "coplanar", "collinear", "on-sphere", "cocircular", "near-duplicate", "family"]


def ball_instance(kind, rng):
    """Points inside the unit ball of the given geometry."""
    n = int(rng.integers(1, 61))
    if kind == "family":
        family = [
            lambda: isosceles_triple(rng.uniform(0.05, math.pi), rng.uniform(0, 2 * math.pi)),
            lambda: orthogonal_pairs(rng.uniform(0.05, math.pi / 2 - 0.05)),
            lambda: inscribed_tetrahedron(rng.uniform(0.05, 1.0)),
        ][int(rng.integers(3))]()
        return bloch._bloch_vectors(family.matrices) / family.size
    pts = rng.standard_normal((n, 3))
    if kind == "coplanar":
        pts[:, 2] = 0.0
        pts = pts @ random_rotation_3d(rng)
    elif kind == "collinear":
        pts = np.outer(rng.standard_normal(n), rng.standard_normal(3)) + rng.standard_normal(3)
    elif kind in ("on-sphere", "cocircular"):
        if kind == "cocircular":
            pts[:, 2] = 0.0
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts = pts @ random_rotation_3d(rng)
    elif kind == "near-duplicate":
        twins = pts[rng.integers(n, size=n)]
        pts = np.vstack([pts, twins + 1e-12 * rng.standard_normal((n, 3))])
        pts = pts[rng.permutation(len(pts))]
    pts /= 1.5 * max(1.0, float(np.max(np.linalg.norm(pts, axis=1))))
    return pts


def reference_shifted_ball(points, shifts):
    """Reference: the optimum of every subset of size <= 4, best objective wins.

    This exhaustive C(N, <=4) sweep over the closed-form subset optima is
    what shifted_ball_dual ran before basis improvement replaced it.
    """
    pts = np.asarray(points, dtype=float)
    s = np.asarray(shifts, dtype=float)
    candidates = [
        k
        for size in range(1, min(4, len(pts)) + 1)
        for subset in combinations(range(len(pts)), size)
        for k, _ in bloch._basis_candidates(pts, s, subset)
    ]
    cand = np.asarray(candidates)
    objective = np.max(s[None, :] + np.linalg.norm(cand[:, None, :] - pts[None, :, :], axis=2), axis=1)
    best = int(np.argmin(objective))
    return cand[best], float(objective[best])


def reference_convex_weights(points, center, tol=1e-9):
    """Reference: first subset of size <= 4 in lexicographic order whose
    non-negative least-squares weights reproduce the target within tol."""
    pts = np.asarray([np.asarray(p, dtype=float).reshape(3) for p in points])
    target = np.asarray(center, dtype=float).reshape(3)
    n = len(pts)
    rhs = np.append(target, 1.0)
    for size in range(1, min(4, n) + 1):
        for subset in combinations(range(n), size):
            a = np.vstack([pts[list(subset)].T, np.ones((1, size))])
            sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
            if np.min(sol) < -1e-9 or float(np.linalg.norm(a @ sol - rhs)) > tol:
                continue
            weights = np.zeros(n)
            weights[list(subset)] = np.clip(sol, 0.0, None)
            return weights / weights.sum()
    raise ValueError("target point is not in the convex hull of the given points")


def least_value_improve_basis(pts, shifts, basis, violator):
    """Reference step: every subset holding the violator is solved, smallest
    first, and the candidate of least value over the members wins.

    This is the rule _improve_basis ran before it stopped at the first
    candidate that certifies itself, and the one it falls back on.
    """
    members = list(basis) + [violator]
    rows = dict(zip(members, pts[members].tolist()))
    member_shifts = dict(zip(members, shifts[members].tolist()))
    best = None
    for size in range(min(len(basis), 3) + 1):
        for rest in combinations(basis, size):
            subset = (violator,) + rest
            for k, lam in bloch._basis_candidates(rows, member_shifts, subset):
                value = max(member_shifts[m] + math.dist(rows[m], k) for m in members)
                if best is None or value < best[3]:
                    best = (subset, lam, k, value)
    return best


def shifted_instance(n, pure, seed):
    e = random_ensemble(2, n, pure=pure, seed=seed)
    return [e.priors[x] * to_bloch(s) for x, s in enumerate(e.states)], e.priors


def hull_instance(kind, rng):
    """A point set of the given geometry and a target near or inside it."""
    n = int(rng.integers(1, 9))
    pts = rng.standard_normal((n, 3))
    if kind == "coplanar":
        pts[:, 2] = 0.0
    elif kind == "collinear":
        pts = np.outer(rng.standard_normal(n), rng.standard_normal(3))
    elif kind == "near-duplicate":
        pts = np.vstack([pts, pts[int(rng.integers(n))] + 1e-12 * rng.standard_normal(3)])
    if rng.uniform() < 0.5:
        target = rng.dirichlet(np.ones(len(pts)) * 0.3) @ pts
    else:
        target = 0.3 * rng.standard_normal(3)
    if kind == "coplanar":
        target[2] = 0.0
    return pts, target


class TestBlochConversion:
    def test_basis_state_points_up(self):
        rho = DensityOperator(HermitianOperator(np.diag([1.0, 0.0])))
        assert np.allclose(to_bloch(rho), [0, 0, 1])

    def test_maximally_mixed_is_origin(self):
        rho = DensityOperator(HermitianOperator(np.eye(2) / 2))
        assert np.allclose(to_bloch(rho), [0, 0, 0])

    def test_round_trip(self, rng):
        for _ in range(100):
            v = rng.uniform(-1, 1, 3)
            v *= rng.uniform(0, 1) / max(1.0, np.linalg.norm(v))
            rho = from_bloch(v)
            back = from_bloch(to_bloch(rho))
            assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-12

    def test_from_bloch_known_states(self):
        assert np.allclose(from_bloch([0, 0, 0]).matrix, np.eye(2) / 2)
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert np.allclose(from_bloch([1, 0, 0]).matrix, plus)
        assert np.allclose(from_bloch([0, 0, 1]).matrix, np.diag([1.0, 0.0]))

    def test_purity_iff_unit_norm(self, rng):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        pure = from_bloch(direction)
        assert trace_norm(pure) == pytest.approx(1.0, abs=1e-12)
        eigs = np.linalg.eigvalsh(pure.matrix)
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)

    def test_from_bloch_rejects_long_vector(self):
        with pytest.raises(ValueError, match="norm"):
            from_bloch([1.1, 0, 0])

    @pytest.mark.parametrize("v", [[0, 0, 0, 0], [0, 0], []])
    def test_from_bloch_names_a_vector_of_another_length(self, v):
        with pytest.raises(ValueError) as info:
            from_bloch(v)
        assert str(info.value) == f"Bloch vector must have 3 components, got {len(v)}"

    @pytest.mark.parametrize(
        "v", [np.array([0.9j, 0, 0]), ["1", 0, 0], [[0, 0], [1]], None, [True, False, False]]
    )
    def test_from_bloch_names_a_vector_that_is_not_real(self, v):
        with pytest.raises(ValueError, match=f"^Bloch vector {NOT_REAL}$"):
            from_bloch(v)

    def test_to_bloch_rejects_other_dimensions(self):
        rho = DensityOperator(HermitianOperator(np.eye(3) / 3))
        with pytest.raises(ValueError, match="qubit"):
            to_bloch(rho)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        x=st.floats(-1, 1), y=st.floats(-1, 1), z=st.floats(-1, 1),
        scale=st.floats(0, 1),
    )
    def test_round_trip_property(self, x, y, z, scale):
        v = np.array([x, y, z])
        norm = np.linalg.norm(v)
        if norm > 0:
            v *= scale / max(1.0, norm)
        assert np.max(np.abs(to_bloch(from_bloch(v)) - v)) <= 1e-12


@pytest.mark.usefixtures("basis_checked")
class TestMinEnclosingBall:
    """The minimum enclosing ball as the equal-shift case of shifted_ball_dual."""

    def test_single_point(self):
        center, radius, active = equal_shift_ball([np.array([0.2, -0.1, 0.5])])
        assert radius == 0.0
        assert np.allclose(center, [0.2, -0.1, 0.5])
        assert active == (0,)

    def test_two_points(self):
        center, radius, active = equal_shift_ball([np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])])
        assert radius == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(center, 0.0, atol=1e-12)
        assert active == (0, 1)

    def test_isosceles_triple(self):
        theta = math.pi / 3
        pts = [
            np.array([math.sin(a), 0.0, math.cos(a)]) / 3
            for a in (theta, 0.0, -theta)
        ]
        _, radius, active = equal_shift_ball(pts)
        assert radius == pytest.approx(math.sin(theta) / 3, abs=1e-12)
        assert active == (0, 2)

    def test_scaled_tetrahedron(self):
        pts = [v / 4 for v in REGULAR_TETRAHEDRON]
        center, radius, _ = equal_shift_ball(pts)
        assert np.allclose(center, 0.0, atol=1e-12)
        assert radius == pytest.approx(0.25, abs=1e-12)
        oracle = brute_force_meb_radius(pts)
        assert abs(radius - oracle) <= 4e-3

    def test_matches_brute_force_on_random_sets(self, rng):
        for n in (2, 3, 4, 5, 6):
            pts = [rng.uniform(-1, 1, 3) for _ in range(n)]
            _, radius, _ = equal_shift_ball(pts)
            oracle = brute_force_meb_radius(pts, resolution=1e-3)
            assert radius <= oracle + 1e-9
            assert abs(radius - oracle) <= 3e-3

    def test_containment_and_support_invariants(self, rng):
        for trial in range(20):
            n = int(rng.integers(1, 9))
            pts = [rng.uniform(-1, 1, 3) for _ in range(n)]
            center, radius, active = equal_shift_ball(pts)
            dists = [float(np.linalg.norm(p - center)) for p in pts]
            assert max(dists) <= radius + 1e-9
            assert active
            for idx in active:
                assert abs(dists[idx] - radius) <= 1e-9 * (1 + radius)
            # center is witnessed inside the support hull
            weights = convex_weights_for_center([pts[i] for i in active], center)
            mix = sum(w * pts[i] for w, i in zip(weights, active))
            assert np.linalg.norm(mix - center) <= 1e-9

    def test_rigid_motion_invariance(self, rng):
        pts = [rng.uniform(-1, 1, 3) for _ in range(5)]
        base_center, base_radius, _ = equal_shift_ball(pts)
        for _ in range(10):
            rot = random_rotation_3d(rng)
            shift = rng.uniform(-2, 2, 3)
            moved = [rot @ p + shift for p in pts]
            center, radius, _ = equal_shift_ball(moved)
            assert abs(radius - base_radius) <= 1e-9
            assert np.linalg.norm(center - (rot @ base_center + shift)) <= 1e-9

    def test_duplicates_are_harmless(self):
        p = np.array([0.3, 0.0, 0.1])
        q = np.array([-0.3, 0.0, 0.1])
        _, radius, active = equal_shift_ball([p, p + 1e-13, q, q])
        assert radius == pytest.approx(0.3, abs=1e-12)
        assert active == (0, 1, 2, 3)

    @pytest.mark.parametrize("kind", BALL_KINDS)
    def test_matches_reference_recursion(self, kind):
        # near-duplicate balls can be about 1e-12 across, below the rounding
        # of value - 1/n relative to the radius: their radius is held absolutely
        rng = np.random.default_rng([53, len(kind)])
        for trial in range(150):
            pts = ball_instance(kind, rng)
            center, radius, support = reference_min_enclosing_ball(pts, seed=trial)
            got_center, got_radius, active = equal_shift_ball(pts)
            scale = 1.0 if kind == "near-duplicate" else radius
            assert abs(got_radius - radius) <= 1e-12 * scale
            assert np.linalg.norm(got_center - center) <= 1e-12
            assert set(support) <= set(active)

    def test_collinear_points(self):
        pts = [np.array([x, 0.0, 0.0]) for x in (-0.5, -0.1, 0.2, 0.7)]
        center, radius, _ = equal_shift_ball(pts)
        assert radius == pytest.approx(0.6, abs=1e-12)
        assert np.allclose(center, [0.1, 0, 0], atol=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            shifted_ball_dual([], [])


class TestConvexWeights:
    def test_antipodal_midpoint(self):
        w = convex_weights_for_center([np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])], np.zeros(3))
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_symmetric_triple(self):
        # solving the 3x3 linear system; symmetry forces equal weights
        pts = [
            np.array([math.cos(a), math.sin(a), 0.0])
            for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
        ]
        w = convex_weights_for_center(pts, np.zeros(3))
        assert np.allclose(w, [1 / 3] * 3, atol=1e-9)

    def test_single_point(self):
        p = np.array([0.4, 0.1, -0.2])
        assert np.allclose(convex_weights_for_center([p], p), [1.0])

    def test_infeasible_target_raises(self):
        pts = [np.array([1.0, 0, 0]), np.array([0.9, 0.1, 0])]
        with pytest.raises(ValueError, match="convex hull"):
            convex_weights_for_center(pts, np.zeros(3))

    @pytest.mark.parametrize("kind", ["random", "coplanar", "collinear", "near-duplicate"])
    def test_hull_membership_matches_reference(self, kind):
        rng = np.random.default_rng([41, len(kind)])
        inside = 0
        for _ in range(300):
            pts, target = hull_instance(kind, rng)
            try:
                reference_convex_weights(list(pts), target)
                expected = True
            except ValueError:
                expected = False
            try:
                weights = convex_weights_for_center(list(pts), target)
            except ValueError:
                assert not expected
                continue
            assert expected
            inside += 1
            assert np.count_nonzero(weights) <= 4
            assert np.min(weights) >= 0.0 and abs(weights.sum() - 1.0) <= 1e-12
            assert np.linalg.norm(weights @ pts - target) <= 1e-9
        assert inside >= 100

    def test_sphere_sets_use_at_most_four_points(self, rng):
        for n in (8, 39, 200):
            units = rng.standard_normal((n, 3))
            units /= np.linalg.norm(units, axis=1, keepdims=True)
            weights = convex_weights_for_center(list(units), np.zeros(3))
            assert 1 <= np.count_nonzero(weights) <= 4
            assert np.linalg.norm(weights @ units) <= 1e-12

    def test_simplex_barycentre_in_seven_dimensions(self, rng):
        # eight affinely independent vertices: the corral must grow past four
        vertices = rng.standard_normal((8, 7))
        barycentre = vertices.mean(axis=0)
        weights = convex_weights_for_center(vertices, barycentre)
        assert np.max(np.abs(weights - 1 / 8)) <= 1e-12
        assert np.linalg.norm(weights @ vertices - barycentre) <= 1e-12
        outside = vertices[0] + (vertices[0] - barycentre)
        with pytest.raises(ValueError, match="convex hull"):
            convex_weights_for_center(vertices, outside)


@pytest.mark.usefixtures("basis_checked")
class TestShiftedBallDual:
    @pytest.mark.parametrize("points", [[[0, 0]], [0, 0, 0, 0, 0, 0], 0.0])
    def test_names_points_without_three_coordinates(self, points):
        with pytest.raises(ValueError) as info:
            shifted_ball_dual(points, [1.0])
        shape = np.shape(points)
        assert str(info.value) == f"points must have 3 coordinates each, got shape {shape}"

    @pytest.mark.parametrize(
        "points, shifts, what",
        [([[0, 0, 1.0], [0, 1.0]], [0.5, 0.5], "points"), ([[0, 0, 1.0]], ["1"], "shifts")],
    )
    def test_names_arguments_that_are_not_real(self, points, shifts, what):
        with pytest.raises(ValueError, match=f"^{what} {NOT_REAL}$"):
            shifted_ball_dual(points, shifts)

    def test_single_point_is_certain(self):
        v = np.array([0.3, -0.2, 0.4])
        result = shifted_ball_dual([v], [1.0])
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(result.center, v, atol=1e-9)
        assert result.active == (0,)

    def test_uniform_shifts_reduce_to_enclosing_ball(self, rng):
        for trial in range(100):
            n = int(rng.integers(1, 7))
            pts = [rng.uniform(-1, 1, 3) / n for _ in range(n)]
            _, radius, _ = reference_min_enclosing_ball(pts)
            result = shifted_ball_dual(pts, [1.0 / n] * n)
            assert abs(result.value - (1.0 / n + radius)) <= 1e-7

    def test_two_point_value_matches_trace_norm_formula(self, rng):
        for trial in range(100):
            q1 = rng.uniform(0.05, 0.95)
            q2 = 1.0 - q1
            a, b = rng.uniform(-1, 1, (2, 3))
            for v in (a, b):
                v /= max(1.0, np.linalg.norm(v))
            delta = q1 * from_bloch(a).matrix - q2 * from_bloch(b).matrix
            expected = 0.5 * (1.0 + trace_norm(HermitianOperator(delta)))
            result = shifted_ball_dual([q1 * a, q2 * b], [q1, q2])
            assert abs(result.value - expected) <= 1e-9

    def test_value_dominates_largest_shift(self, rng):
        for trial in range(50):
            n = int(rng.integers(2, 7))
            shifts = rng.dirichlet(np.ones(n))
            pts = [shifts[i] * rng.uniform(-1, 1, 3) for i in range(n)]
            result = shifted_ball_dual(pts, shifts)
            assert result.value >= float(np.max(shifts)) - 1e-9
            gaps = [s + np.linalg.norm(result.center - p) for s, p in zip(shifts, pts)]
            assert result.value >= max(gaps) - 1e-8
            assert result.active

    def test_dominant_shift_keeps_the_one_point_basis(self):
        # 0.8 - 0.1 >= |k - p_x| for k = p_0: no ball is violated at the start
        pts = [np.zeros(3), np.array([0.1, 0, 0]), np.array([0, -0.05, 0.05])]
        result = shifted_ball_dual(pts, [0.8, 0.1, 0.1])
        assert result.steps == 0 and result.value == 0.8
        assert result.basis == (0,) and np.array_equal(result.multipliers, [1.0])

    def test_collinear_and_coplanar_bases(self, rng):
        for trial in range(60):
            n = int(rng.integers(2, 12))
            shifts = rng.dirichlet(np.ones(n))
            if trial % 2:
                pts = np.outer(rng.uniform(-1, 1, n), rng.standard_normal(3))
            else:
                pts = rng.uniform(-1, 1, (n, 3))
                pts[:, 2] = 0.0
                pts = pts @ random_rotation_3d(rng)
            pts *= shifts[:, None] / np.maximum(1.0, np.linalg.norm(pts, axis=1, keepdims=True))
            result = shifted_ball_dual(pts, shifts)
            # an optimum in a line (plane) needs at most two (three) balls
            assert len(result.basis) <= (2 if trial % 2 else 3)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            shifted_ball_dual([np.zeros(3)], [0.5, 0.5])
        with pytest.raises(ValueError, match="positive"):
            shifted_ball_dual([np.zeros(3), np.ones(3)], [1.0, 0.0])
        with pytest.raises(ValueError, match="sum to 1"):
            shifted_ball_dual([np.zeros(3), np.ones(3)], [0.5, 0.4])
        with pytest.raises(ValueError, match="finite"):
            shifted_ball_dual([np.array([np.nan, 0, 0]), np.ones(3)], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            shifted_ball_dual([np.array([np.inf, 0, 0])], [1.0])
        with pytest.raises(ValueError, match="finite"):
            from_bloch([np.nan, 0, 0])


class TestBasisImprovement:
    def test_matches_enumeration(self):
        for seed in range(200):
            n = 1 + seed % 8
            pts, shifts = shifted_instance(n, pure=(seed % 2 == 0), seed=5000 + seed)
            center, value = reference_shifted_ball(pts, shifts)
            result = shifted_ball_dual(pts, shifts)
            assert abs(result.value - value) <= 1e-12
            assert np.linalg.norm(result.center - center) <= 1e-9

    @pytest.mark.parametrize("n", [40, 200])
    def test_each_step_solves_at_most_fifteen_subsets(self, n, monkeypatch):
        # Only subsets holding the violator can be bases of the enlarged
        # set: at most 1 + 4 + 6 + 4 of basis plus violator's 31 subsets.
        calls = {"candidates": 0, "steps": 0}
        candidates, improve = bloch._basis_candidates, bloch._improve_basis

        def counted_candidates(*args):
            calls["candidates"] += 1
            return candidates(*args)

        def counted_improve(*args):
            calls["steps"] += 1
            return improve(*args)

        monkeypatch.setattr(bloch, "_basis_candidates", counted_candidates)
        monkeypatch.setattr(bloch, "_improve_basis", counted_improve)
        solved = steps = 0
        for seed in range(3):
            for pure in (True, False):
                calls.update(candidates=0, steps=0)
                pts, shifts = shifted_instance(n, pure, seed=900 + seed)
                reported = shifted_ball_dual(pts, shifts).steps
                uniform = [p / (n * s) for p, s in zip(pts, shifts)]
                reported += shifted_ball_dual(uniform, np.full(n, 1.0 / n)).steps
                assert calls["steps"] == reported
                assert 0 < calls["steps"] and calls["candidates"] <= 15 * calls["steps"]
                solved, steps = solved + calls["candidates"], steps + calls["steps"]
        # a step stops at the first subset that certifies itself, largest
        # first: the optimum is most often the first subset tried
        assert solved <= 2 * steps, (solved, steps)

    @pytest.mark.parametrize("kind", BALL_KINDS)
    def test_first_certified_subset_is_the_least_value_one(self, kind, monkeypatch):
        rng = np.random.default_rng([59, BALL_KINDS.index(kind)])
        for _ in range(60):
            vectors = ball_instance(kind, rng)
            priors = rng.dirichlet(np.ones(len(vectors)))
            pts = priors[:, None] * vectors
            got = shifted_ball_dual(pts, priors)
            with monkeypatch.context() as patch:
                patch.setattr(bloch, "_improve_basis", least_value_improve_basis)
                want = shifted_ball_dual(pts, priors)
            assert abs(got.value - want.value) <= 1e-15 * want.value
            assert got.basis == want.basis
            assert_basis_witnesses_center(got, pts)

    def test_falls_back_to_least_value_when_no_candidate_certifies_itself(self, monkeypatch):
        # Nudge the first candidate of the third step by 1e-9: it no longer
        # certifies itself, and neither does any other subset, whose optima
        # some member exceeds. The fallback then takes the nudged candidate,
        # of least value; later steps start from it and still reach the optimum.
        n = 40
        pts, shifts = shifted_instance(n, False, seed=0)
        pts, shifts = [p / (n * s) for p, s in zip(pts, shifts)], np.full(n, 1.0 / n)
        want = shifted_ball_dual(pts, shifts)
        candidates, improve = bloch._basis_candidates, bloch._improve_basis
        seen = {"step": 0, "solved": 0, "nudged": None, "sizes": [], "returned": None}

        def nudged_candidates(rows, member_shifts, subset):
            found = candidates(rows, member_shifts, subset)
            if seen["step"] == 3:
                seen["solved"] += 1
                if seen["nudged"] is None and found:
                    (x, y, z), lam = found[0]
                    seen["nudged"] = (x + 1e-9, y, z)
                    found = [(seen["nudged"], lam)] + found[1:]
            return found

        def recorded_improve(pts, shifts, basis, violator):
            seen["step"] += 1
            seen["sizes"].append(len(basis))
            step = improve(pts, shifts, basis, violator)
            if seen["step"] == 3:
                seen["returned"] = step[2]
            return step

        monkeypatch.setattr(bloch, "_basis_candidates", nudged_candidates)
        monkeypatch.setattr(bloch, "_improve_basis", recorded_improve)
        got = shifted_ball_dual(pts, shifts)
        # all eight subsets of a three-ball basis plus the violator were solved
        assert seen["sizes"][2] == 3 and seen["solved"] == 8
        assert seen["returned"] == seen["nudged"]
        assert got.steps >= 4
        assert abs(got.value - want.value) <= 1e-15 * want.value and got.basis == want.basis
        assert_basis_witnesses_center(got, pts)

    def test_grid_oracle_bounds_value(self):
        resolution = 1e-3
        for n in (10, 20, 40):
            for pure in (True, False):
                e = random_ensemble(2, n, pure=pure, seed=n + pure)
                pts = [e.priors[x] * to_bloch(s) for x, s in enumerate(e.states)]
                value = shifted_ball_dual(pts, e.priors).value
                oracle = dual_grid_oracle(e, resolution)
                assert value - 1e-12 <= oracle <= value + math.sqrt(3) * resolution
                assert solve_qubit(e).p_guess == pytest.approx(value, abs=1e-12)

    def test_max_iter_caps_improvement_steps(self, monkeypatch):
        e = random_ensemble(2, 40, pure=False, seed=3)
        pts, shifts = [to_bloch(s) / 40 for s in e.states], np.full(40, 1 / 40)
        needed = 0
        while True:
            try:
                with monkeypatch.context() as patch:
                    patch.setattr(bloch, "_MAX_STEPS", needed)
                    shifted_ball_dual(pts, shifts)
                break
            except ConvergenceError as exc:
                assert f"{needed} steps" in str(exc)
                needed += 1
        assert 2 <= needed <= 40
        assert shifted_ball_dual(pts, shifts).steps == needed
