import dataclasses
import importlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from qdiscrim import (
    ComplementarySet,
    ConvergenceError,
    DensityOperator,
    HermitianOperator,
    InfeasibleDualError,
    UnsupportedInstanceError,
    WeightedEnsemble,
    complementary_states,
    equivalence_check,
    from_bloch,
    helstrom_two_state,
    random_ensemble,
    reconstruct_povm,
    solve,
    solve_qubit,
    trace_norm,
    verify_kkt,
)
from qdiscrim import bloch, factory, operators
from qdiscrim.bloch import _bloch_vectors, _operators
from qdiscrim.certify import ANALYTIC_TOL
from qdiscrim.families import (
    REGULAR_TETRAHEDRON,
    inscribed_tetrahedron,
    isosceles_triple,
    orthogonal_pairs,
    trine,
)
from qdiscrim.operators import _hermitian_stack, _wrap

from conftest import (
    NOT_REAL,
    assert_basis_povm_matches_kernel_search,
    compose_rotations_unitary,
    convex_weights_for_center,
    reference_min_enclosing_ball,
)
from test_qubit_geometry import KINDS as HARD_KINDS
from test_qubit_geometry import hard_instance

solve_module = importlib.import_module("qdiscrim.solve")  # the package exports solve()

ZERO = from_bloch([0, 0, 1])
ONE = from_bloch([0, 0, -1])
PLUS = from_bloch([1, 0, 0])


def planar_pure(angle):
    return from_bloch([math.sin(angle), 0.0, math.cos(angle)])


def assert_solution_contract(ensemble, solution, tol=1e-8):
    assert solution.p_guess == pytest.approx(solution.symmetry_op.trace(), abs=1e-10)
    total = sum(m.matrix for m in solution.povm)
    assert np.max(np.abs(total - np.eye(ensemble.dim))) <= 1e-9
    q_max = float(np.max(ensemble.priors))
    assert q_max - 1e-9 <= solution.p_guess <= 1 + 1e-9
    weights = solution.complementary.weights
    assert np.max(np.abs(weights - (solution.p_guess - ensemble.priors))) <= 1e-9
    cert = verify_kkt(ensemble, solution.symmetry_op, solution.povm, tol)
    assert cert.passed, cert.residuals()


class TestWeightedEnsemble:
    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            WeightedEnsemble([0.5, 0.4], [ZERO, PLUS])
        with pytest.raises(ValueError, match="positive"):
            WeightedEnsemble([1.0, 0.0], [ZERO, PLUS])
        with pytest.raises(ValueError, match="dimension"):
            WeightedEnsemble(
                [0.5, 0.5],
                [ZERO, DensityOperator(HermitianOperator(np.eye(3) / 3))],
            )
        with pytest.raises(ValueError, match="non-empty"):
            WeightedEnsemble([], [])

    @pytest.mark.parametrize("priors", [[math.nan, 1.0], [0.5, math.nan]])
    def test_rejects_nan_priors(self, priors):
        with pytest.raises(ValueError, match="strictly positive"):
            WeightedEnsemble(priors, [ZERO, PLUS])

    @pytest.mark.parametrize(
        "priors", [["0.25", "0.75"], [0.5, 0.5j], [[0.5], [0.25, 0.25]], None, [True, False]]
    )
    def test_rejects_priors_that_are_not_real_numbers(self, priors):
        with pytest.raises(ValueError, match=f"^priors {NOT_REAL}$"):
            WeightedEnsemble(priors, [ZERO, PLUS])


class TestComplementarySetConstructor:
    """ComplementarySet validates its arguments as WeightedEnsemble does."""

    @pytest.mark.parametrize(
        "weights, states, message",
        [
            ([0.5, "x"], [PLUS, None], "weights is not a rectangular array of real numbers"),
            ([0.5, math.nan], [PLUS, None], "finite"),
            ([0.5, 0.5, 0.5], [PLUS, None], "expected 2 weights, got 3"),
            ([0.5, 0.5], [3 * np.eye(2), None], "trace 1"),
            ([0.5], [np.array([[0.5, 0.2], [0.0, 0.5]])], "not Hermitian"),
            ([0.5, 0.5], [PLUS, np.eye(3) / 3], "states must share one dimension"),
            ([0.5, 0.5j], [PLUS, None], f"weights {NOT_REAL}"),
            ([[0.5], [0.5, 0.1]], [PLUS, None], f"weights {NOT_REAL}"),
        ],
    )
    def test_rejects_defective_arguments(self, weights, states, message):
        with pytest.raises(ValueError, match=message):
            ComplementarySet(weights, states)

    def test_weights_are_a_read_only_float_copy(self):
        weights = [1, 0.25]
        comp = ComplementarySet(weights, [np.eye(2) / 2, None])
        assert comp.weights.dtype == float and not comp.weights.flags.writeable
        assert comp.weights.tolist() == [1.0, 0.25]
        weights[0] = 7
        assert comp.weights[0] == 1.0
        assert isinstance(comp.states[0], DensityOperator) and comp.states[1] is None
        assert comp.present.tolist() == [True, False] and not comp.present.flags.writeable

    def test_states_are_taken_as_validated(self):
        comp = ComplementarySet([0.5, 0.5], [PLUS, ZERO])
        assert [s.matrix is t.matrix for s, t in zip(comp.states, (PLUS, ZERO))] == [True, True]


class TestSolutionConstructor:
    def test_holds_a_raw_symmetry_operator_as_an_operator(self):
        e = trine()
        sol = solve(e)
        built = solve_module.DiscriminationSolution(e, sol.symmetry_op.matrix.copy(), sol.povm)
        assert type(built.symmetry_op) is HermitianOperator
        assert np.array_equal(built.symmetry_op.matrix, sol.symmetry_op.matrix)
        assert not built.symmetry_op.matrix.flags.writeable

    def test_rejects_parts_of_another_dimension_or_size(self):
        qubit_pair = solve(random_ensemble(2, 2, pure=False, seed=1))
        e = qubit_pair.ensemble
        build = solve_module.DiscriminationSolution
        with pytest.raises(ValueError) as info:
            build(e, np.eye(3) / 2, qubit_pair.povm)
        assert str(info.value) == "operator dimension does not match the ensemble"
        with pytest.raises(ValueError) as info:
            build(e, np.eye(2) / 2, [np.eye(3), np.zeros((3, 3))])
        assert str(info.value) == "POVM element shape (3, 3) does not match dimension 2"
        with pytest.raises(ValueError) as info:
            build(e, np.eye(2) / 2, [np.eye(2)])
        assert str(info.value) == "expected 2 POVM elements, got 1"

    def test_rejects_a_non_hermitian_symmetry_operator(self):
        e = trine()
        sol = solve(e)
        with pytest.raises(ValueError, match="not Hermitian"):
            solve_module.DiscriminationSolution(e, np.array([[1.0, 0.3], [0.0, 1.0]]), sol.povm)

    def test_replacing_the_operator_replaces_the_value(self):
        sol = solve(trine())
        lowered = HermitianOperator(sol.symmetry_op.matrix - 0.05 * np.eye(2))
        replaced = dataclasses.replace(sol, symmetry_op=lowered)
        assert replaced.p_guess == lowered.trace() == pytest.approx(sol.p_guess - 0.1)
        assert replaced.support == sol.support
        # the lowered K is not dual feasible, so it has no complementary states
        with pytest.raises(InfeasibleDualError):
            replaced.complementary

    @pytest.mark.parametrize("shape", [(3, 1), (4, 2), (2, 3), (2, 5)])
    def test_a_hand_built_solution_reads_what_the_solver_stores(self, shape):
        e = random_ensemble(*shape, pure=False, seed=7)
        sol = solve(e)
        built = solve_module.DiscriminationSolution(e, sol.symmetry_op, sol.povm_matrices.copy())
        assert built.support == sol.support and built.p_guess == sol.p_guess
        reference = complementary_states(sol.symmetry_op, e)
        for name in ("weights", "present", "matrices"):
            assert np.array_equal(getattr(built.complementary, name), getattr(reference, name))

    @pytest.mark.parametrize("shape", [(3, 1), (4, 2), (2, 3)])
    def test_a_solver_hands_over_the_set_it_built(self, shape, monkeypatch):
        handed = []

        def spy(ensemble, sym, comp, matrices):
            handed.append(comp)
            return assemble(ensemble, sym, comp, matrices)

        assemble = solve_module._assemble
        monkeypatch.setattr(solve_module, "_assemble", spy)
        sol = solve(random_ensemble(*shape, pure=False, seed=7))
        assert sol.complementary is handed[0]


class TestHelstromTwoState:
    def test_orthogonal_pure_states_are_distinguishable(self):
        e = WeightedEnsemble([0.5, 0.5], [ZERO, ONE])
        sol = helstrom_two_state(e)
        assert sol.p_guess == pytest.approx(1.0, abs=1e-12)
        assert_solution_contract(e, sol)

    def test_identical_states_give_prior_maximum(self):
        for q in (0.5, 0.7, 0.99):
            e = WeightedEnsemble([q, 1 - q], [PLUS, PLUS])
            sol = helstrom_two_state(e)
            assert sol.p_guess == pytest.approx(max(q, 1 - q), abs=1e-12)
            assert_solution_contract(e, sol)

    def test_basis_versus_plus(self):
        # eigenvalues of the half-difference are +-sqrt(2)/4
        e = WeightedEnsemble([0.5, 0.5], [ZERO, PLUS])
        sol = helstrom_two_state(e)
        assert sol.p_guess == pytest.approx(0.5 + math.sqrt(2) / 4, abs=1e-12)

    def test_matches_trace_norm_formula_any_dimension(self, rng):
        for dim in (2, 3, 4):
            for seed in range(10):
                e = random_ensemble(dim, 2, pure=(seed % 2 == 0), seed=100 * dim + seed)
                sol = helstrom_two_state(e)
                delta = e.priors[0] * e.states[0].matrix - e.priors[1] * e.states[1].matrix
                expected = 0.5 * (1.0 + trace_norm(HermitianOperator(delta)))
                assert sol.p_guess == pytest.approx(expected, abs=1e-10)
                assert_solution_contract(e, sol)

    def test_povm_is_orthogonal_projector_pair(self):
        e = WeightedEnsemble([0.4, 0.6], [ZERO, PLUS])
        sol = helstrom_two_state(e)
        m1, m2 = (m.matrix for m in sol.povm)
        assert np.max(np.abs(m1 @ m1 - m1)) <= 1e-12
        assert np.max(np.abs(m2 @ m2 - m2)) <= 1e-12
        assert np.max(np.abs(m1 @ m2)) <= 1e-12

    def test_complementary_states_are_orthogonal_pure(self):
        e = WeightedEnsemble([0.4, 0.6], [ZERO, PLUS])
        sol = helstrom_two_state(e)
        s1, s2 = (s.matrix for s in sol.complementary.states)
        assert abs(np.trace(s1 @ s2).real) <= 1e-12
        assert trace_norm(HermitianOperator(s1)) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(s1)[0] == pytest.approx(0.0, abs=1e-10)

    def test_weight_sign_convention(self, rng):
        # r_x = p_guess - q_x, so the larger prior carries the smaller weight
        for seed in range(20):
            e = random_ensemble(2, 2, pure=False, seed=800 + seed)
            sol = helstrom_two_state(e)
            r = sol.complementary.weights
            assert np.max(np.abs(r - (sol.p_guess - e.priors))) <= 1e-12
            if e.priors[0] > e.priors[1]:
                assert r[0] < r[1] + 1e-12

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError, match="two-state"):
            helstrom_two_state(trine())


class TestSolveQubitEqualPriors:
    def test_isosceles_family(self):
        theta0 = 0.3
        for theta in (0.2, 0.7, math.pi / 3, 1.4):
            e = isosceles_triple(theta, base_angle=theta0)
            sol = solve_qubit(e)
            assert sol.p_guess == pytest.approx((1 + math.sin(theta)) / 3, abs=1e-12)
            assert np.max(np.abs(sol.povm[1].matrix)) == 0.0
            assert sol.support == (0, 2)
            assert_solution_contract(e, sol)
            # measured elements project onto the states at angles theta0 +- pi/2
            m1_expected = planar_pure(theta0 + math.pi / 2).matrix
            m3_expected = planar_pure(theta0 - math.pi / 2).matrix
            assert np.max(np.abs(sol.povm[0].matrix - m1_expected)) <= 1e-9
            assert np.max(np.abs(sol.povm[2].matrix - m3_expected)) <= 1e-9

    def test_isosceles_saturates_past_right_angle(self):
        for theta in (math.pi / 2, 2.0, 2.8, math.pi):
            sol = solve_qubit(isosceles_triple(theta, base_angle=0.9))
            assert sol.p_guess == pytest.approx(2 / 3, abs=1e-12)

    def test_trine(self):
        e = trine(base_angle=0.4)
        sol = solve_qubit(e)
        assert sol.p_guess == pytest.approx(2 / 3, abs=1e-12)
        assert_solution_contract(e, sol)

    def test_orthogonal_pairs_share_symmetry_operator(self, rng):
        for theta in rng.uniform(0.05, math.pi / 2 - 0.05, 10):
            e = orthogonal_pairs(theta, base_angle=float(rng.uniform(0, math.pi)))
            sol = solve_qubit(e)
            assert sol.p_guess == pytest.approx(0.5, abs=1e-12)
            assert np.max(np.abs(sol.symmetry_op.matrix - np.eye(2) / 4)) <= 1e-9

    def test_tetrahedron_purity_scaling(self):
        for purity in (0.3, 0.6, 1.0):
            e = inscribed_tetrahedron(purity)
            sol = solve_qubit(e)
            assert sol.p_guess == pytest.approx(0.25 + purity / 4, abs=1e-12)
            assert_solution_contract(e, sol)

    def test_tetrahedron_names_directions_that_are_not_real(self):
        with pytest.raises(ValueError, match=f"^directions {NOT_REAL}$"):
            inscribed_tetrahedron(0.5, [[0, 0, 1.0], [0, 1.0]])

    def test_shrunken_sphere_family(self, rng):
        # equal-purity directions whose hull contains the origin: value 1/N + f/N
        n, purity = 5, 0.8
        while True:
            dirs = rng.standard_normal((n, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            try:
                convex_weights_for_center(list(dirs), np.zeros(3))
                break
            except ValueError:
                continue
        e = WeightedEnsemble([1 / n] * n, [from_bloch(purity * d) for d in dirs])
        sol = solve_qubit(e)
        assert sol.p_guess == pytest.approx(1 / n + purity / n, abs=1e-9)

    def test_identical_states_fall_back_to_single_outcome(self):
        e = WeightedEnsemble([1 / 3] * 3, [PLUS, PLUS, PLUS])
        sol = solve_qubit(e)
        assert sol.p_guess == pytest.approx(1 / 3, abs=1e-12)
        assert len(sol.support) == 1
        assert_solution_contract(e, sol)

    def test_rejects_bad_inputs(self):
        e3 = random_ensemble(3, 3, pure=True, seed=5)
        with pytest.raises(UnsupportedInstanceError):
            solve_qubit(e3)


class TestSolveQubit:
    def test_matches_helstrom_on_random_pairs(self):
        for seed in range(100):
            e = random_ensemble(2, 2, pure=(seed % 3 == 0), seed=seed)
            a = helstrom_two_state(e)
            b = solve_qubit(e)
            assert abs(a.p_guess - b.p_guess) <= 1e-7

    def test_matches_geometric_on_uniform_priors(self):
        for seed in range(40):
            n = 2 + seed % 5
            e = random_ensemble(2, n, pure=(seed % 2 == 0), seed=1000 + seed)
            uniform = WeightedEnsemble([1.0 / n] * n, e.states)
            sol = solve_qubit(uniform)
            points = _bloch_vectors(uniform.matrices) / n
            _, radius, _ = reference_min_enclosing_ball(points)
            assert sol.p_guess == pytest.approx(1.0 / n + radius, abs=1e-12)

    def test_extreme_priors_approach_certainty(self, rng):
        eps = 1e-3
        for seed in range(10):
            e2 = random_ensemble(2, 2, pure=True, seed=2000 + seed)
            e = WeightedEnsemble([1 - eps, eps], e2.states)
            sol = solve_qubit(e)
            delta = (1 - eps) * e.states[0].matrix - eps * e.states[1].matrix
            expected = 0.5 * (1.0 + trace_norm(HermitianOperator(delta)))
            assert sol.p_guess == pytest.approx(expected, abs=1e-9)
            assert sol.p_guess >= 1 - eps - 1e-12

    def test_single_state(self):
        e = WeightedEnsemble([1.0], [PLUS])
        sol = solve_qubit(e)
        assert sol.p_guess == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(sol.povm[0].matrix - np.eye(2))) <= 1e-12

    def test_random_instances_certify(self):
        from qdiscrim import is_psd

        for seed in range(40):
            n = 2 + seed % 5
            e = random_ensemble(2, n, pure=(seed % 2 == 1), seed=3000 + seed)
            sol = solve_qubit(e)
            assert_solution_contract(e, sol, tol=1e-8)
            for x in range(n):
                gap = sol.symmetry_op.matrix - e.priors[x] * e.states[x].matrix
                assert is_psd(HermitianOperator(gap), 1e-8)

    def test_unitary_covariance(self, rng):
        for seed in range(10):
            e = random_ensemble(2, 4, pure=False, seed=4000 + seed)
            u = compose_rotations_unitary(2, rng)
            rotated = WeightedEnsemble(
                e.priors,
                [
                    DensityOperator(HermitianOperator(u @ s.matrix @ u.conj().T))
                    for s in e.states
                ],
            )
            a = solve_qubit(e)
            b = solve_qubit(rotated)
            assert abs(a.p_guess - b.p_guess) <= 1e-9
            conjugated = u @ a.symmetry_op.matrix @ u.conj().T
            assert np.max(np.abs(b.symmetry_op.matrix - conjugated)) <= 1e-6

    def test_orthogonal_states_reach_one(self):
        e = WeightedEnsemble([0.3, 0.7], [ZERO, ONE])
        assert solve_qubit(e).p_guess == pytest.approx(1.0, abs=1e-9)

    def test_non_orthogonal_states_stay_below_one(self):
        for seed in range(10):
            e = random_ensemble(2, 2, pure=True, seed=5000 + seed)
            overlap = abs(np.trace(e.states[0].matrix @ e.states[1].matrix).real)
            if overlap < 1e-3:
                continue
            assert solve_qubit(e).p_guess < 1.0 - 1e-6

    def test_rejects_higher_dimensions(self):
        with pytest.raises(UnsupportedInstanceError):
            solve_qubit(random_ensemble(3, 4, pure=True, seed=9))


class TestComplementaryStates:
    def test_from_identity_operator_orthobasis(self):
        # sigma_x spreads uniformly over the other basis states
        d = 3
        eye = np.eye(d, dtype=complex)
        states = [DensityOperator(HermitianOperator(np.outer(eye[:, x], eye[:, x]))) for x in range(d)]
        e = WeightedEnsemble([1 / d] * d, states)
        comp = complementary_states(HermitianOperator(eye / d), e)
        for x in range(d):
            expected = (eye - np.outer(eye[:, x], eye[:, x])) / (d - 1)
            assert np.max(np.abs(comp.states[x].matrix - expected)) <= 1e-12
            assert comp.weights[x] == pytest.approx(1 - 1 / d, abs=1e-12)

    def test_weights_track_priors_on_solver_output(self):
        for seed in range(20):
            e = random_ensemble(2, 3, pure=True, seed=500 + seed)
            sol = solve_qubit(e)
            comp = complementary_states(sol.symmetry_op, e)
            assert np.max(np.abs(comp.weights - (sol.p_guess - e.priors))) <= 1e-9

    def test_infeasible_operator_rejected(self):
        e = WeightedEnsemble([0.5, 0.5], [ZERO, PLUS])
        # q1 rho1 alone cannot dominate q2 rho2
        with pytest.raises(InfeasibleDualError):
            complementary_states(HermitianOperator(0.5 * ZERO.matrix), e)

    @pytest.mark.parametrize("push", [1e-8, 4e-8])
    def test_qubit_closed_form_checks_the_absolute_gap_bound(self, push):
        # pushing the dual center by `push` away from a basis point makes that
        # gap's smallest eigenvalue (r_x - |k - p_x|)/2 about -push/2; the
        # closed form rejects it below -DUAL_FEASIBILITY_TOL (1e-8) and
        # otherwise clips sigma_x back onto the Bloch ball
        e = random_ensemble(2, 5, pure=True, seed=11)
        points = e.priors[:, None] * _bloch_vectors(e.matrices)
        dual = bloch.shifted_ball_dual(points, e.priors)
        offset = dual.center - points[dual.basis[0]]
        center = dual.center + push * offset / np.linalg.norm(offset)
        args = (dual.value, center, points, e.priors)
        if push > 2 * solve_module.DUAL_FEASIBILITY_TOL:
            with pytest.raises(InfeasibleDualError, match="has eigenvalue -2.0"):
                solve_module._qubit_complementary(*args)
        else:
            _, _, units = solve_module._qubit_complementary(*args)
            assert np.max(np.linalg.norm(units, axis=1)) <= 1 + 1e-15

    def test_operator_of_another_dimension_rejected(self):
        with pytest.raises(ValueError) as info:
            complementary_states(np.eye(3) / 3, trine())
        assert str(info.value) == "operator dimension does not match the ensemble"

    def test_gap_noise_scaled_by_a_small_weight_rejected(self):
        # the gap's smallest eigenvalue -5e-9 passes DUAL_FEASIBILITY_TOL (1e-8),
        # but sigma = gap / r with r = 1e-3 has eigenvalue -5e-6, beyond
        # COMPLEMENTARY_NOISE_TOL (1e-6)
        e = WeightedEnsemble([1.0], [ZERO])
        k = np.diag([1.0 - 5e-9, 1e-3 + 5e-9])
        with pytest.raises(InfeasibleDualError) as info:
            complementary_states(k, e)
        assert str(info.value) == "operator has negative eigenvalue -5.000e-06"

    def test_degenerate_weight_marked_absent(self):
        e = WeightedEnsemble([1.0], [ZERO])
        comp = complementary_states(HermitianOperator(ZERO.matrix), e)
        assert comp.states[0] is None
        assert comp.weights[0] == pytest.approx(0.0, abs=1e-12)


def _lengths(vectors: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the rows, bit for bit as np.linalg.norm of each row.

    np.linalg.norm(..., axis=1) sums the squares in another order and can
    differ in the last bit, which moves the POVM that Wolfe's algorithm
    picks among the many optimal ones of a fully supported ensemble.
    """
    return np.sqrt(np.matmul(vectors[..., None, :], vectors[..., :, None])[..., 0, 0])


def reference_bloch_povm(ensemble, complementary):
    """The former qubit-only reconstruction: Wolfe in R^3 on the Bloch directions.

    States whose complementary Bloch vector has length at least 1 - 1e-7
    receive weights on their antipodal pure states.
    """
    identity = np.eye(2, dtype=complex)
    povm = np.zeros((ensemble.size, 2, 2), dtype=complex)
    degenerate = [x for x in range(ensemble.size) if complementary.states[x] is None]
    if degenerate:
        povm[degenerate[0]] = identity
        return list(_wrap(_hermitian_stack(povm)))
    directions = _bloch_vectors(np.stack([sigma.matrix for sigma in complementary.states]))
    lengths = _lengths(directions)
    support = np.flatnonzero(lengths >= 1.0 - 1e-7)
    units = directions[support] / lengths[support, None]
    weights = convex_weights_for_center(units, np.zeros(3))
    povm[support] = (2.0 * weights)[:, None, None] * _operators(1.0, -units)
    return list(_wrap(_hermitian_stack(povm)))


def primal_value(ensemble, povm):
    return sum(
        ensemble.priors[x] * np.trace(povm[x].matrix @ ensemble.states[x].matrix).real
        for x in range(ensemble.size)
    )


class TestReconstructPovm:
    def test_rejects_a_set_of_another_size(self):
        five = solve(random_ensemble(2, 5, pure=False, seed=1))
        with pytest.raises(ValueError, match="expected 3 complementary states, got 5"):
            reconstruct_povm(trine(), five.complementary)

    def test_rejects_a_set_of_another_dimension_before_the_search(self):
        qutrits = factory.identity_class_example(3).complementary
        with pytest.raises(ValueError) as info:
            reconstruct_povm(trine(), qutrits)
        assert str(info.value) == "operator dimension does not match the ensemble"

    def test_two_state_matches_helstrom_projectors(self):
        e = WeightedEnsemble([0.35, 0.65], [ZERO, PLUS])
        sol = helstrom_two_state(e)
        rebuilt = reconstruct_povm(e, sol.complementary)
        for ours, reference in zip(rebuilt, sol.povm):
            assert np.max(np.abs(ours.matrix - reference.matrix)) <= 1e-8

    def test_completeness_on_random_instances(self):
        for seed in range(25):
            e = random_ensemble(2, 2 + seed % 4, pure=(seed % 2 == 0), seed=700 + seed)
            sol = solve_qubit(e)
            rebuilt = reconstruct_povm(e, sol.complementary)
            total = sum(m.matrix for m in rebuilt)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-9
            for m, sigma, weight in zip(
                rebuilt, sol.complementary.states, sol.complementary.weights
            ):
                if sigma is not None and weight > 1e-12:
                    assert abs(np.trace(m.matrix @ sigma.matrix).real) <= 1e-9

    def test_certifies_helstrom_solutions_beyond_qubits(self):
        # full-rank pairs: the two kernels are the signed eigenspaces of the
        # weighted difference, so the search rebuilds the Helstrom projectors
        for d in (3, 8, 64):
            e = random_ensemble(d, 2, pure=False, seed=11 + d)
            sol = helstrom_two_state(e)
            rebuilt = reconstruct_povm(e, sol.complementary)
            cert = verify_kkt(e, sol.symmetry_op, rebuilt, tol=1e-8)
            assert cert.passed, (d, cert.residuals())

    def test_matches_bloch_reference(self):
        ensembles = [trine(), inscribed_tetrahedron(0.7), isosceles_triple(0.6)]
        for seed in range(40):
            n = 3 + seed % 12
            e = random_ensemble(2, n, pure=(seed % 3 == 0), seed=1200 + seed)
            ensembles.append(e if seed % 2 else WeightedEnsemble([1 / n] * n, e.states))
        for e in ensembles:
            sol = solve(e)
            for povm in (
                reconstruct_povm(e, sol.complementary),
                reference_bloch_povm(e, sol.complementary),
            ):
                cert = verify_kkt(e, sol.symmetry_op, povm, tol=1e-8)
                assert cert.passed, cert.residuals()
                assert primal_value(e, povm) == pytest.approx(sol.p_guess, abs=1e-12)

    @pytest.mark.parametrize("phase", [1.0, 1j])
    def test_pairwise_candidates_reach_off_diagonal_elements(self, phase):
        # sigma_0 = |2><2| has kernel span(|0>, |1>), found as that basis; the
        # kernels |2> +- u of sigma_1 and sigma_2 force M_0 = |v><v| with
        # v = (|0> + phase |1>)/sqrt2 orthogonal to u, which no eigenvector of
        # the first kernel's basis is: the eigenvector oracle must reach it
        eye = np.eye(3, dtype=complex)
        v = (eye[0] + phase * eye[1]) / math.sqrt(2)
        u = (eye[0] - phase * eye[1]) / math.sqrt(2)
        kernels = [(eye[2] + u) / math.sqrt(2), (eye[2] - u) / math.sqrt(2)]
        states = [DensityOperator(HermitianOperator(np.diag([0.0, 0.0, 1.0])))] + [
            DensityOperator(HermitianOperator((eye - np.outer(f, f.conj())) / 2)) for f in kernels
        ]
        comp = ComplementarySet(np.full(3, 0.5), states)
        mixed = DensityOperator(HermitianOperator(eye / 3))
        e = WeightedEnsemble([1 / 3] * 3, [mixed] * 3)
        rebuilt = reconstruct_povm(e, comp)
        for m, target in zip(rebuilt, [v] + kernels):
            assert np.max(np.abs(m.matrix - np.outer(target, target.conj()))) <= 1e-12

    def test_absent_complementary_state_takes_the_identity(self):
        e = WeightedEnsemble([0.5, 0.5], [PLUS, PLUS])
        sym = HermitianOperator(0.5 * PLUS.matrix)
        comp = complementary_states(sym, e)
        assert comp.states == (None, None)
        rebuilt = reconstruct_povm(e, comp)
        assert np.array_equal(rebuilt[0].matrix, np.eye(2))
        assert np.array_equal(rebuilt[1].matrix, np.zeros((2, 2)))

    def test_no_kernel_is_infeasible(self):
        e = trine()
        sym = HermitianOperator(np.eye(2) / 2)
        with pytest.raises(InfeasibleDualError, match="no complementary state has a kernel"):
            reconstruct_povm(e, complementary_states(sym, e))

    def test_kernels_that_miss_the_identity_are_infeasible(self):
        # only the first complementary state is pure: one projector cannot sum to I
        e = WeightedEnsemble([0.5, 0.5], [ZERO, PLUS])
        sym = HermitianOperator(np.diag([0.5, 0.6]))
        comp = complementary_states(sym, e)
        assert np.count_nonzero(comp.spectra.eigenvalues <= 1e-9) == 1
        with pytest.raises(InfeasibleDualError, match="do not resolve the identity"):
            reconstruct_povm(e, comp)

    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_certifies_pure_pairs(self, d):
        # both kernels hold the (d - 2)-dimensional null space of
        # q1 rho1 - q2 rho2, each in the basis LAPACK returns for it; the
        # eigenvector oracle reaches every vector of a kernel, not only a basis
        for seed in range(10):
            e = random_ensemble(d, 2, pure=True, seed=seed)
            sol = helstrom_two_state(e)
            rebuilt = reconstruct_povm(e, sol.complementary)
            cert = verify_kkt(e, sol.symmetry_op, rebuilt, tol=ANALYTIC_TOL)
            assert cert.passed, (d, seed, cert.residuals())

    def test_full_rank_pair_at_d64_keeps_only_its_corral(self):
        # about d atoms of d * d real coordinates, not a stack of candidates
        e = random_ensemble(64, 2, pure=False, seed=75)
        sol = helstrom_two_state(e)
        tracemalloc.start()
        try:
            rebuilt = reconstruct_povm(e, sol.complementary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 50e6
        assert verify_kkt(e, sol.symmetry_op, rebuilt, tol=ANALYTIC_TOL).passed

    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_kernels_in_a_common_hyperplane_are_separated(self, d, monkeypatch):
        # every kernel is a d/2-dimensional subspace of the complement of |d-1>,
        # so every sum of kernel projectors misses <d-1|I|d-1> = 1: the search
        # must stop on a separating hyperplane, long before its cycle cap
        rng = np.random.default_rng(d)
        states = []
        for _ in range(3):
            g = rng.standard_normal((d - 1, d - 1)) + 1j * rng.standard_normal((d - 1, d - 1))
            support = np.linalg.qr(g)[0][:, : d // 2 - 1]
            m = np.zeros((d, d), dtype=complex)
            m[:-1, :-1] = support @ support.conj().T
            m[-1, -1] = 1.0
            states.append(DensityOperator(HermitianOperator(m / np.trace(m).real)))
        comp = ComplementarySet(np.full(3, 0.5), states)
        assert np.array_equal(
            np.count_nonzero(comp.spectra.eigenvalues <= 1e-9, axis=1), [d // 2] * 3
        )
        mixed = DensityOperator(HermitianOperator(np.eye(d) / d))
        e = WeightedEnsemble([1 / 3] * 3, [mixed] * 3)

        cycles = []
        real_search = solve_module._min_norm_point

        def counted(oracle, *args):
            def counting(x):
                cycles.append(x)
                return oracle(x)

            return real_search(counting, *args)

        monkeypatch.setattr(solve_module, "_min_norm_point", counted)
        with pytest.raises(InfeasibleDualError, match="do not resolve the identity") as info:
            reconstruct_povm(e, comp)
        margin = re.search(r"separates the target from the convex hull by (\S+)$", str(info.value))
        assert margin is not None and float(margin.group(1)) > 0.0
        assert len(cycles) < d * d < bloch._WOLFE_MAX_CYCLES

    def test_cycle_cap_is_named(self, monkeypatch):
        # a pure pair in d = 8 needs seven major cycles
        monkeypatch.setattr(bloch, "_WOLFE_MAX_CYCLES", 3)
        e = random_ensemble(8, 2, pure=True, seed=0)
        with pytest.raises(InfeasibleDualError, match="within 3 major cycles"):
            reconstruct_povm(e, helstrom_two_state(e).complementary)

    def test_kernels_come_from_the_gap_spectra(self):
        # the handed-over spectra match a fresh decomposition of each state
        for seed in range(10):
            e = random_ensemble(2 + seed % 4, 2, pure=(seed % 2 == 0), seed=1300 + seed)
            sol = helstrom_two_state(e)
            handed = sol.complementary.spectra
            built = ComplementarySet(sol.complementary.weights, sol.complementary.states).spectra
            assert np.max(np.abs(handed.eigenvalues - built.eigenvalues)) <= 1e-12
            assert np.max(np.abs(handed.reconstruct() - built.reconstruct())) <= 1e-12


class TestBasisPovm:
    """solve_qubit's POVM from the dual basis, against the kernel search on the same K."""

    @pytest.mark.parametrize("pure", [True, False])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_random_ensembles_match_kernel_search(self, pure, uniform):
        for seed in range(12):
            n = 3 + (seed * 11) % 58
            e = random_ensemble(2, n, pure=pure, seed=6000 + seed)
            if uniform:
                e = WeightedEnsemble(np.full(n, 1.0 / n), e.states)
            assert_basis_povm_matches_kernel_search(e)

    def test_families_match_kernel_search(self, rng):
        for angle in rng.uniform(0.05, math.pi, 6):
            assert_basis_povm_matches_kernel_search(isosceles_triple(angle, base_angle=0.3))
            assert_basis_povm_matches_kernel_search(orthogonal_pairs(angle / 2, base_angle=0.7))
        for purity in (0.2, 0.7, 1.0):
            sol = assert_basis_povm_matches_kernel_search(inscribed_tetrahedron(purity))
            assert len(sol.support) == 4
        assert assert_basis_povm_matches_kernel_search(trine()).support == (0, 1, 2)

    def test_dominant_prior_takes_the_identity(self):
        # q_0 - q_x >= |q_0 v_0 - q_x v_x| for every x: naming state 0 is optimal
        e = WeightedEnsemble([0.8, 0.1, 0.1], [from_bloch([0, 0, 0]), ZERO, planar_pure(0.3)])
        sol = assert_basis_povm_matches_kernel_search(e)
        assert sol.p_guess == pytest.approx(0.8, abs=1e-12)
        assert np.array_equal(sol.povm[0].matrix, np.eye(2))
        assert sol.support == (0,)

    @pytest.mark.parametrize("eps", [1e-11, 1e-10, 1e-9, 1e-8])
    def test_near_duplicate_equal_prior_states_certify(self, eps):
        # the kernel search raised on 42 of the 45 ensembles at eps >= 1e-10:
        # the complementary states' kernels are resolved to about 1e-16 / eps
        # only; at 1e-11, r_x is about 1e-11 and the eigensolver's noise on
        # sigma_x rejected 6 of 15 as infeasible
        self._assert_certify(eps, dirichlet=False)

    @pytest.mark.parametrize("eps", [1e-8, 1e-6])
    def test_near_duplicate_dirichlet_prior_states_certify(self, eps):
        # at 1e-6 the dominant state's r_x is about 1e-12: the eigensolver's
        # sigma_x failed 4 of 15, and the final bases have multipliers like
        # (1e-11, 1), whose lambda |k - p_x| weights sum to about 1e-12
        self._assert_certify(eps, dirichlet=True)

    @staticmethod
    def _assert_certify(eps, dirichlet):
        for n in (3, 5, 8):
            for seed in range(5):
                e = near_duplicate_ensemble(n, eps, seed, dirichlet)
                sol = solve(e)
                cert = verify_kkt(e, sol.symmetry_op, sol.povm, tol=1e-8)
                assert cert.passed, (n, seed, cert.residuals())

    def test_two_member_basis_takes_the_projective_pair(self):
        # a pure pair and a state inside their segment's ball: the basis is
        # the pair, and the POVM the projectors along its edge
        e = WeightedEnsemble([0.4, 0.4, 0.2], [ZERO, ONE, from_bloch([0.1, 0.0, 0.0])])
        sol = solve(e)
        assert sol.support == (0, 1)
        assert np.array_equal(sol.povm_matrices[0], np.diag([1.0, 0.0]).astype(complex))
        assert np.array_equal(sol.povm_matrices[1], np.diag([0.0, 1.0]).astype(complex))
        assert np.array_equal(sol.povm_matrices[2], np.zeros((2, 2)))

    def test_solve_needs_no_hull_search(self, monkeypatch):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise ValueError("a hyperplane separates the target from the convex hull by 1")

        for module in (bloch, solve_module):
            monkeypatch.setattr(module, "_min_norm_point", refuse)
        for seed in range(10):
            e = random_ensemble(2, 3 + seed, pure=(seed % 2 == 0), seed=6100 + seed)
            sol = solve(e)
            assert verify_kkt(e, sol.symmetry_op, sol.povm, tol=1e-8).passed
        assert calls == []
        # a K given from outside still goes through the kernel search
        assert factory._certify(e, sol.symmetry_op) == (False, None)
        assert len(calls) == 1


def moved_ensembles(ensemble, solution, rng, draws):
    """Ensembles sharing the solution's K: priors moved, states rebuilt from K.

    Each draw moves the priors by a zero-sum step whose largest entry is
    0.2 of the smallest prior times 10^-u, u uniform in [0, 6], and sets
    rho'_x = (K - (t - q'_x) sigma_x) / q'_x with t = trace K, so that
    K = q'_x rho'_x + r'_x sigma_x again. Only draws with every rho'_x
    positive semidefinite and every r'_x = t - q'_x non-negative are
    yielded; the small steps keep some of them for full-rank states whose
    smallest eigenvalue is small. The division is by the numerator's
    trace, which is q'_x up to rounding that a small q'_x would magnify
    past the trace check of a density operator.
    """
    k = solution.symmetry_op.matrix
    t = solution.symmetry_op.trace()
    sigmas = solution.complementary.matrices
    q = ensemble.priors
    for _ in range(draws):
        step = rng.standard_normal(len(q))
        step -= step.mean()
        step *= 0.2 * q.min() * 10.0 ** -rng.uniform(0.0, 6.0) / np.max(np.abs(step))
        moved = q + step
        rhos = k - (t - moved)[:, None, None] * sigmas
        rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
        if np.all(moved <= t) and np.linalg.eigvalsh(rhos).min() >= 0.0:
            yield WeightedEnsemble(moved, rhos)


class TestEquivalenceClasses:
    """Ensembles of one symmetry operator K share their optimum, on each exact path.

    The paper's classes: K determines P_guess = trace K, and an optimal POVM
    of one member is optimal for all. Moving the priors of a solved ensemble
    with every complementary state present, and rebuilding its states from
    K, must give the same K and P_guess from solve, keep the old POVM
    certified, and let the kernel search certify on the moved ensemble.
    """

    @staticmethod
    def _assert_class(ensemble, rng, draws, searches):
        sol = solve(ensemble)
        if not sol.complementary.present.all():
            return 0
        kept = 0
        for moved in moved_ensembles(ensemble, sol, rng, draws):
            again = solve(moved)
            assert np.max(np.abs(again.symmetry_op.matrix - sol.symmetry_op.matrix)) <= 1e-12
            assert abs(again.p_guess - sol.p_guess) <= 1e-12
            assert verify_kkt(moved, sol.symmetry_op, sol.povm, ANALYTIC_TOL).passed
            if kept < searches:
                rebuilt = reconstruct_povm(moved, again.complementary)
                assert verify_kkt(moved, again.symmetry_op, rebuilt, ANALYTIC_TOL).passed
            kept += 1
        return kept

    def test_qubit_ensembles(self):
        # pure states have no room to move: rho'_x subtracts sigma_x whenever q'_x < q_x
        rng = np.random.default_rng(16)
        kept = [
            self._assert_class(random_ensemble(2, n, pure=False, seed=1600 + 10 * n + s), rng, 12, 12)
            for n in range(3, 9)
            for s in range(4)
        ]
        assert sum(kept) >= 50, kept

    def test_helstrom_pairs(self):
        rng = np.random.default_rng(17)
        kept = [
            self._assert_class(random_ensemble(d, 2, pure=False, seed=1700 + 10 * d + s), rng, 12, 12)
            for d in range(3, 9)
            for s in range(3)
        ]
        assert sum(kept) >= 30, kept

    def test_helstrom_pair_at_d64(self):
        rng = np.random.default_rng(18)
        assert self._assert_class(random_ensemble(64, 2, pure=False, seed=1864), rng, 8, 1) >= 1

    @staticmethod
    def _assert_rotated_class(ensemble, rng, draws):
        """The ensemble and its moved ensembles, each in a random basis, share
        the spectrum of K and P_guess. Returns the number of moves kept."""
        sol = solve(ensemble)
        if not sol.complementary.present.all():
            return 0
        moves = list(moved_ensembles(ensemble, sol, rng, draws))
        for moved in [ensemble, *moves]:
            u = compose_rotations_unitary(ensemble.dim, rng)
            again = solve(WeightedEnsemble(moved.priors, u @ moved.matrices @ u.conj().T))
            assert equivalence_check(again.symmetry_op, sol.symmetry_op, tol=1e-12)
            assert abs(again.p_guess - sol.p_guess) <= 1e-12
        return len(moves)

    def test_moves_across_a_unitary_change_of_basis(self):
        rng = np.random.default_rng(19)
        kept = [
            self._assert_rotated_class(random_ensemble(d, n, pure=False, seed=seed), rng, 8)
            for d, n in [(2, 3), (2, 4), (2, 6), (2, 8), (3, 2), (4, 2), (8, 2)]
            for seed in (1900 + 10 * d + n, 2000 + 10 * d + n)
        ]
        assert sum(kept) >= 50, kept

    @pytest.mark.parametrize("kind", HARD_KINDS)
    def test_hard_qubit_geometries_across_a_unitary_change_of_basis(self, kind):
        # odd trials replace the drawn priors by uniform ones: near-duplicate,
        # coplanar and the rest then start on the equal-prior ball. Pure
        # states on the sphere have no room to move, only to be rotated.
        rng = np.random.default_rng([20, HARD_KINDS.index(kind)])
        kept = []
        for trial in range(12):
            vectors, priors = hard_instance(kind, int(rng.integers(3, 9)), rng)
            if trial % 2:
                priors = np.full(len(vectors), 1.0 / len(vectors))
            ensemble = WeightedEnsemble(priors, [from_bloch(v) for v in vectors])
            kept.append(self._assert_rotated_class(ensemble, rng, 6))
        assert sum(kept) >= (0 if kind == "sphere" else 12), kept


class TestTrustedQubitStacks:
    """The qubit solver wraps the stacks it builds in closed form unchecked;
    _assemble still rejects a POVM that is not one."""

    def test_solver_checks_no_stack_it_built(self, monkeypatch):
        ensembles = [
            random_ensemble(2, 9, pure=False, seed=21),
            random_ensemble(2, 39, pure=True, seed=22),
            WeightedEnsemble([0.9, 0.05, 0.05], [ZERO, ONE, PLUS]),  # r_x = 0: the identity
            WeightedEnsemble([0.4, 0.4, 0.2], [ZERO, ONE, from_bloch([0.1, 0.0, 0.0])]),
        ]
        pair = random_ensemble(4, 2, pure=False, seed=23)
        checked, built = [], []
        real_check, real_init = operators._hermitian_stack, HermitianOperator.__init__

        def counting_check(matrices, field=None):
            checked.append(np.shape(matrices))
            return real_check(matrices, field)

        def counting_init(self, matrix):
            built.append(np.shape(matrix))
            real_init(self, matrix)

        for module in (operators, solve_module):
            monkeypatch.setattr(module, "_hermitian_stack", counting_check)
        monkeypatch.setattr(HermitianOperator, "__init__", counting_init)
        for e in ensembles:
            sol = solve(e)
            assert sol.symmetry_op.matrix.flags.writeable is False
            assert sol.povm_matrices.flags.writeable is False
            assert sol.complementary.matrices.flags.writeable is False
        assert checked == [] and built == []
        # the two-state solver builds K and its POVM by products, and checks both
        helstrom_two_state(pair)
        assert checked == [(4, 4), (2, 4, 4)] and built == [(4, 4)]

    @pytest.mark.parametrize(
        "defect, error, message",
        [
            ("nan", ConvergenceError, "non-finite"),
            ("not-psd", InfeasibleDualError, "not positive semidefinite"),
            ("incomplete", InfeasibleDualError, "does not sum to the identity"),
        ],
    )
    def test_assemble_rejects_a_bad_basis_povm(self, monkeypatch, defect, error, message):
        e = random_ensemble(2, 5, pure=True, seed=11)

        def bad_povm(result, points, present):
            scales, vectors = np.zeros(len(points)), np.zeros((len(points), 3))
            if defect == "nan":
                scales[:] = 2.0 / len(points)
                vectors[0, 0] = np.nan
            elif defect == "not-psd":
                scales[:2] = 1.0
                vectors[:2, 2] = [1.5, -1.5]  # (I +- 1.5 Z)/2 sum to I
            else:
                scales[0] = 1.0
            return scales, vectors

        monkeypatch.setattr(solve_module, "_basis_povm", bad_povm)
        with pytest.raises(error, match=message):
            solve_qubit(e)


def near_duplicate_ensemble(n, eps, seed, dirichlet=False):
    """n pure states at unit(v + eps g_i), g_i standard normal.

    Priors are uniform, or with dirichlet drawn from the flat Dirichlet
    distribution after the states, from the same generator.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3)
    vectors = v / np.linalg.norm(v) + eps * rng.standard_normal((n, 3))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    priors = rng.dirichlet(np.ones(n)) if dirichlet else np.full(n, 1.0 / n)
    return WeightedEnsemble(priors, [from_bloch(u) for u in vectors])


class TestSolveDispatch:
    def test_routes(self):
        assert solve(WeightedEnsemble([0.5, 0.5], [ZERO, PLUS])).p_guess == pytest.approx(
            0.5 + math.sqrt(2) / 4, abs=1e-12
        )
        assert solve(trine()).p_guess == pytest.approx(2 / 3, abs=1e-12)
        skew = WeightedEnsemble([0.5, 0.25, 0.25], [ZERO, ONE, PLUS])
        assert solve(skew).p_guess >= 0.5
        with pytest.raises(UnsupportedInstanceError, match="certify"):
            solve(random_ensemble(3, 3, pure=True, seed=2))

    def test_single_state_any_dimension_is_certain(self):
        for dim in (2, 3, 5):
            e = random_ensemble(dim, 1, pure=False, seed=dim)
            sol = solve(e)
            assert sol.p_guess == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(sol.symmetry_op.matrix - e.states[0].matrix)) <= 1e-12
            assert np.max(np.abs(sol.povm[0].matrix - np.eye(dim))) == 0.0
            assert_solution_contract(e, sol)

    def test_dimension_one_names_the_likeliest_state(self):
        one = DensityOperator(HermitianOperator(np.ones((1, 1))))
        for priors, winner in (([0.2, 0.5, 0.3], 1), ([0.4, 0.4, 0.2], 0), ([0.3, 0.7], 1)):
            e = WeightedEnsemble(priors, [one] * len(priors))
            sol = solve(e)
            assert sol.p_guess == pytest.approx(max(priors), abs=1e-15)
            assert sol.symmetry_op.matrix[0, 0] == pytest.approx(max(priors), abs=1e-15)
            assert sol.support == (winner,)
            assert_solution_contract(e, sol)

    def test_tetrahedron_directions_storage(self):
        assert REGULAR_TETRAHEDRON.shape == (4, 3)
        assert np.allclose(np.linalg.norm(REGULAR_TETRAHEDRON, axis=1), 1.0)
        assert np.allclose(REGULAR_TETRAHEDRON.sum(axis=0), 0.0)

    def test_primal_dual_consistency(self):
        for seed in range(20):
            e = random_ensemble(2, 2 + seed % 5, pure=(seed % 2 == 0), seed=600 + seed)
            sol = solve(e)
            primal = sum(
                e.priors[x] * np.trace(sol.povm[x].matrix @ e.states[x].matrix).real
                for x in range(e.size)
            )
            assert abs(primal - sol.symmetry_op.trace()) <= 1e-8

    def test_symmetry_operator_equals_averaged_measured_states(self):
        # at the optimum the dual operator coincides with sum_x q_x rho_x M_x,
        # which ties the measurement to the operator beyond the trace identity
        for seed in range(15):
            n = 2 + seed % 5
            e = random_ensemble(2, n, pure=(seed % 2 == 0), seed=900 + seed)
            sol = solve(e)
            measured = sum(
                e.priors[x] * e.states[x].matrix @ sol.povm[x].matrix for x in range(n)
            )
            measured = (measured + measured.conj().T) / 2
            assert np.max(np.abs(measured - sol.symmetry_op.matrix)) <= 1e-8
