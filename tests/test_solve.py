import math

import numpy as np
import pytest

from qdiscrim import (
    ComplementarySet,
    DensityOperator,
    HermitianOperator,
    InfeasibleDualError,
    UnsupportedInstanceError,
    WeightedEnsemble,
    complementary_states,
    from_bloch,
    helstrom_two_state,
    random_ensemble,
    reconstruct_povm,
    solve,
    solve_qubit,
    solve_qubit_equal_priors,
    trace_norm,
    verify_kkt,
)
from qdiscrim.bloch import _bloch_vectors, _operators, convex_weights_for_center
from qdiscrim.families import (
    REGULAR_TETRAHEDRON,
    inscribed_tetrahedron,
    isosceles_triple,
    orthogonal_pairs,
    trine,
)
from qdiscrim.operators import _hermitian_operators

from conftest import compose_rotations_unitary, reference_min_enclosing_ball

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
            sol = solve_qubit_equal_priors(e)
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
            sol = solve_qubit_equal_priors(isosceles_triple(theta, base_angle=0.9))
            assert sol.p_guess == pytest.approx(2 / 3, abs=1e-12)

    def test_trine(self):
        e = trine(base_angle=0.4)
        sol = solve_qubit_equal_priors(e)
        assert sol.p_guess == pytest.approx(2 / 3, abs=1e-12)
        assert_solution_contract(e, sol)

    def test_orthogonal_pairs_share_symmetry_operator(self, rng):
        for theta in rng.uniform(0.05, math.pi / 2 - 0.05, 10):
            e = orthogonal_pairs(theta, base_angle=float(rng.uniform(0, math.pi)))
            sol = solve_qubit_equal_priors(e)
            assert sol.p_guess == pytest.approx(0.5, abs=1e-12)
            assert np.max(np.abs(sol.symmetry_op.matrix - np.eye(2) / 4)) <= 1e-9

    def test_tetrahedron_purity_scaling(self):
        for purity in (0.3, 0.6, 1.0):
            e = inscribed_tetrahedron(purity)
            sol = solve_qubit_equal_priors(e)
            assert sol.p_guess == pytest.approx(0.25 + purity / 4, abs=1e-12)
            assert_solution_contract(e, sol)

    def test_shrunken_sphere_family(self, rng):
        # equal-purity directions whose hull contains the origin: value 1/N + f/N
        n, purity = 5, 0.8
        while True:
            dirs = rng.standard_normal((n, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            try:
                from qdiscrim import convex_weights_for_center

                convex_weights_for_center(list(dirs), np.zeros(3))
                break
            except ValueError:
                continue
        e = WeightedEnsemble([1 / n] * n, [from_bloch(purity * d) for d in dirs])
        sol = solve_qubit_equal_priors(e)
        assert sol.p_guess == pytest.approx(1 / n + purity / n, abs=1e-9)

    def test_identical_states_fall_back_to_single_outcome(self):
        e = WeightedEnsemble([1 / 3] * 3, [PLUS, PLUS, PLUS])
        sol = solve_qubit_equal_priors(e)
        assert sol.p_guess == pytest.approx(1 / 3, abs=1e-12)
        assert len(sol.support) == 1
        assert_solution_contract(e, sol)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="uniform"):
            solve_qubit_equal_priors(
                WeightedEnsemble([0.6, 0.2, 0.2], [ZERO, ONE, PLUS])
            )
        e3 = random_ensemble(3, 3, pure=True, seed=5)
        with pytest.raises(UnsupportedInstanceError):
            solve_qubit_equal_priors(e3)


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
            a = solve_qubit_equal_priors(uniform)
            b = solve_qubit(uniform)
            assert abs(a.p_guess - b.p_guess) <= 1e-7
            assert np.max(np.abs(a.symmetry_op.matrix - b.symmetry_op.matrix)) <= 1e-6
            points = _bloch_vectors(uniform.matrices) / n
            _, radius, _ = reference_min_enclosing_ball(points)
            assert a.p_guess == pytest.approx(1.0 / n + radius, abs=1e-12)

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
        return list(_hermitian_operators(povm))
    directions = _bloch_vectors(np.stack([sigma.matrix for sigma in complementary.states]))
    lengths = _lengths(directions)
    support = np.flatnonzero(lengths >= 1.0 - 1e-7)
    units = directions[support] / lengths[support, None]
    weights = convex_weights_for_center(units, np.zeros(3))
    povm[support] = (2.0 * weights)[:, None, None] * _operators(1.0, -units)
    return list(_hermitian_operators(povm))


def primal_value(ensemble, povm):
    return sum(
        ensemble.priors[x] * np.trace(povm[x].matrix @ ensemble.states[x].matrix).real
        for x in range(ensemble.size)
    )


class TestReconstructPovm:
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
        # v = (|0> + phase |1>)/sqrt2 orthogonal to u, which only a pairwise
        # candidate of the first kernel can supply
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

    def test_kernels_come_from_the_gap_spectra(self):
        # the handed-over spectra match a fresh decomposition of each state
        for seed in range(10):
            e = random_ensemble(2 + seed % 4, 2, pure=(seed % 2 == 0), seed=1300 + seed)
            sol = helstrom_two_state(e)
            handed = sol.complementary.spectra
            built = ComplementarySet(sol.complementary.weights, sol.complementary.states).spectra
            assert np.max(np.abs(handed.eigenvalues - built.eigenvalues)) <= 1e-12
            assert np.max(np.abs(handed.reconstruct() - built.reconstruct())) <= 1e-12


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
