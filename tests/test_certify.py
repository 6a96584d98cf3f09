import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscrim import (
    ComplementarySet,
    ConvergenceError,
    DensityOperator,
    KktCertificate,
    DiscriminationError,
    DiscriminationSolution,
    HermitianOperator,
    WeightedEnsemble,
    conditional_table_from_povm,
    dual_grid_oracle,
    equivalence_check,
    from_bloch,
    helstrom_two_state,
    is_psd,
    probability_forms,
    random_ensemble,
    reconstruct_povm,
    solve,
    solve_qubit,
    verify_kkt,
    verify_legacy_conditions,
)
from qdiscrim.certify import _certificate_from
from qdiscrim.factory import identity_class_example
from qdiscrim.families import orthogonal_pairs, trine
from qdiscrim.operators import _eigvalsh, trace_norm
from qdiscrim.serialize import certificate_to_json
from qdiscrim.solve import DEGENERATE_WEIGHT_TOL, complementary_states

from conftest import compose_rotations_unitary

IDENTITY2 = np.eye(2, dtype=complex)


def random_solved(seed):
    n = 2 + seed % 5
    e = random_ensemble(2, n, pure=(seed % 2 == 0), seed=seed)
    return e, solve_qubit(e)


class TestVerifyKkt:
    def test_solver_outputs_pass(self):
        for seed in range(30):
            n = 2 + seed % 5
            e = random_ensemble(2, n, pure=(seed % 3 == 0), seed=seed)
            uniform = WeightedEnsemble([1.0 / n] * n, e.states)
            sol = solve_qubit(uniform)
            cert = verify_kkt(uniform, sol.symmetry_op, sol.povm, tol=1e-8)
            assert cert.passed, cert.residuals()

    def test_shifted_identity_fails_dual_feasibility(self):
        e, sol = random_solved(3)
        shifted = HermitianOperator(sol.symmetry_op.matrix - 1e-3 * IDENTITY2)
        cert = verify_kkt(e, shifted, sol.povm, tol=1e-6)
        assert not cert.passed
        assert cert.dual_feasibility == pytest.approx(1e-3, abs=1e-6)

    def test_uninformative_povm_fails_orthogonality(self):
        e = trine()
        sol = solve_qubit(e)
        lazy = [HermitianOperator(IDENTITY2 / 3)] * 3
        cert = verify_kkt(e, sol.symmetry_op, lazy, tol=1e-8)
        assert not cert.passed
        assert cert.orthogonality > 0.1
        primal = sum(
            e.priors[x] * np.trace(lazy[x].matrix @ e.states[x].matrix).real
            for x in range(3)
        )
        assert primal == pytest.approx(1 / 3, abs=1e-12)

    def test_overflowing_products_raise_without_warning(self):
        # finite entries with the finite spectrum +-1e308, whose products overflow:
        # under the suite's error::RuntimeWarning filter a numpy warning would raise
        e = trine()
        huge = np.stack([np.diag([1e308, -1e308])] * 3).astype(complex)
        with pytest.raises(ConvergenceError, match="overflow"):
            verify_kkt(e, solve_qubit(e).symmetry_op, huge)
        with pytest.raises(ConvergenceError, match="overflow"):
            verify_legacy_conditions(e, huge)
        # the legacy form's own K, sum_x q_x rho_x M_x symmetrized, overflows
        same = WeightedEnsemble([0.5, 0.5], [from_bloch([0, 0, 1])] * 2)
        with pytest.raises(ConvergenceError, match="non-finite"):
            verify_legacy_conditions(same, 1.5 * huge[:2])

    def test_dimension_mismatch_rejected(self):
        e = random_ensemble(2, 2, pure=True, seed=1)
        with pytest.raises(ValueError, match="dimension"):
            verify_kkt(e, HermitianOperator(np.eye(3)), [HermitianOperator(np.eye(3))] * 2)
        sol = helstrom_two_state(e)
        with pytest.raises(ValueError, match="POVM"):
            verify_kkt(e, sol.symmetry_op, [sol.povm[0]])

    def test_povm_of_another_dimension_rejected(self):
        e = trine()
        sol = solve(e)
        with pytest.raises(ValueError) as info:
            verify_kkt(e, sol.symmetry_op, [np.eye(3) / 3] * 3)
        assert str(info.value) == "POVM element shape (3, 3) does not match dimension 2"

    def test_verdict_monotone_in_tolerance(self):
        e, sol = random_solved(7)
        loose = verify_kkt(e, sol.symmetry_op, sol.povm, tol=1e-6)
        tight = verify_kkt(e, sol.symmetry_op, sol.povm, tol=1e-14)
        assert loose.passed
        if tight.passed:
            assert loose.passed
        worst = loose.max_residual()
        assert verify_kkt(e, sol.symmetry_op, sol.povm, tol=worst).passed
        assert not verify_kkt(e, sol.symmetry_op, sol.povm, tol=worst / 10).passed

    def test_weak_duality_of_feasible_operators(self, rng):
        for seed in range(15):
            e, sol = random_solved(100 + seed)
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            bump = 0.05 * (g @ g.conj().T)
            feasible = HermitianOperator(sol.symmetry_op.matrix + bump)
            oracle_value = dual_grid_oracle(e, 5e-3)
            assert feasible.trace() >= oracle_value - np.sqrt(3) * 5e-3 - 1e-9
            assert feasible.trace() >= sol.p_guess - 1e-9


class TestVerifyLegacyConditions:
    def test_helstrom_povm_passes(self):
        for seed in range(10):
            e = random_ensemble(2, 2, pure=False, seed=200 + seed)
            sol = helstrom_two_state(e)
            cert = verify_legacy_conditions(e, sol.povm, tol=1e-8)
            assert cert.passed, cert.residuals()

    def test_swapped_povm_fails(self):
        for seed in range(10):
            e = random_ensemble(2, 2, pure=False, seed=300 + seed)
            sol = helstrom_two_state(e)
            cert = verify_legacy_conditions(e, [sol.povm[1], sol.povm[0]], tol=1e-8)
            assert not cert.passed
            assert cert.legacy_operator > 1e-3

    def test_single_state_trivially_passes(self):
        e = WeightedEnsemble([1.0], [from_bloch([0.3, 0.1, 0.2])])
        cert = verify_legacy_conditions(e, [HermitianOperator(IDENTITY2)], tol=1e-10)
        assert cert.passed

    def test_agrees_with_kkt_verdicts(self):
        # optimality conditions are equivalent: verdicts match on optimal
        # candidates and on perturbed ones
        for seed in range(20):
            e, sol = random_solved(400 + seed)
            a = verify_kkt(e, sol.symmetry_op, sol.povm, tol=1e-9)
            b = verify_legacy_conditions(e, sol.povm, tol=1e-8)
            assert a.passed and b.passed
            permuted = list(sol.povm[1:]) + [sol.povm[0]]
            a_bad = verify_kkt(e, sol.symmetry_op, permuted, tol=1e-6)
            b_bad = verify_legacy_conditions(e, permuted, tol=1e-6)
            assert a_bad.passed == b_bad.passed == False  # noqa: E712


class TestProbabilityForms:
    def test_forms_agree_on_solved_instances(self):
        for seed in range(25):
            e, sol = random_solved(500 + seed)
            forms = probability_forms(sol)
            assert forms.spread() <= 1e-8
            assert forms.dual == pytest.approx(sol.p_guess, abs=1e-12)

    def test_uniform_prior_weights_collapse_to_one_parameter(self):
        e = trine()
        sol = solve_qubit(e)
        weights = sol.p_guess - e.priors
        assert np.max(np.abs(weights - weights[0])) <= 1e-12
        forms = probability_forms(sol)
        assert forms.average_weight == pytest.approx(1 / 3 + float(weights[0]), abs=1e-12)

    def test_steering_probabilities_scale_with_priors(self):
        e, sol = random_solved(42)
        forms = probability_forms(sol)
        assert np.max(np.abs(forms.steering_probs * forms.dual - e.priors)) <= 1e-9
        assert forms.steering == pytest.approx(forms.dual, abs=1e-12)


def _identity_class_ensemble():
    out = identity_class_example(4)
    return out.ensemble, out.povm


def _orthogonal_qubits():
    povm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    return WeightedEnsemble([0.5, 0.5], [from_bloch([0, 0, 1]), from_bloch([0, 0, -1])]), povm


class TestNonHermitianSymmetryOperator:
    """A raw K that is not Hermitian certifies nothing: every reader of K rejects it."""

    @staticmethod
    def _skewed(dim, entry, shift):
        k = np.eye(dim) / dim
        k[entry] += shift
        return k

    @pytest.mark.parametrize(
        "case, entry, shift",
        [(_identity_class_ensemble, (0, 3), 0.5), (_orthogonal_qubits, (0, 1), 0.3)],
    )
    def test_verify_kkt_rejects_it(self, case, entry, shift):
        ensemble, povm = case()
        k = self._skewed(ensemble.dim, entry, shift)
        # the Hermitian operator of the same lower triangle certifies
        assert verify_kkt(ensemble, np.tril(k) + np.tril(k, -1).T, povm).passed
        with pytest.raises(ValueError, match="not Hermitian"):
            verify_kkt(ensemble, k, povm)

    def test_equivalence_check_and_complementary_states_reject_it(self):
        ensemble, _ = _identity_class_ensemble()
        k = self._skewed(4, (0, 3), 0.5)
        with pytest.raises(ValueError, match="not Hermitian"):
            equivalence_check(k, np.eye(4) / 4)
        with pytest.raises(ValueError, match="not Hermitian"):
            equivalence_check(np.eye(4) / 4, k)
        with pytest.raises(ValueError, match="not Hermitian"):
            complementary_states(k, ensemble)


def reference_legacy_pairwise(ensemble, povm):
    """The former loop over every pair x < y, zero elements included."""
    weighted = ensemble.priors[:, None, None] * ensemble.matrices
    stack = np.stack([m.matrix for m in povm])
    products = (
        stack[x] @ (weighted[x] - weighted[x + 1 :]) @ stack[x + 1 :] for x in range(ensemble.size)
    )
    return max(float(np.max(np.abs(p), initial=0.0)) for p in products)


def reference_legacy_operator(ensemble, povm):
    """The former K of verify_legacy_conditions: a Python sum over the states."""
    k = sum(
        ensemble.priors[x] * ensemble.states[x].matrix @ povm[x].matrix
        for x in range(ensemble.size)
    )
    return (k + k.conj().T) / 2.0


def stacked_cases():
    """Solved qubit ensembles (general and equal priors, pure spheres) and dense pairs."""
    cases = [random_solved(seed) for seed in range(600, 640)]
    for n in (13, 39):
        e = random_ensemble(2, n, pure=True, seed=n)
        uniform = WeightedEnsemble([1.0 / n] * n, e.states)
        cases.append((uniform, solve(uniform)))
    for d in (4, 16):
        e = random_ensemble(d, 2, pure=False, seed=d)
        cases.append((e, solve(e)))
    return cases


class TestStackedCertificate:
    """The certificate's stacked forms against the loops they replace."""

    def test_legacy_pairwise_matches_all_pairs_loop(self):
        for e, sol in stacked_cases():
            cert = verify_kkt(e, sol.symmetry_op, sol.povm)
            assert cert.legacy_pairwise == reference_legacy_pairwise(e, sol.povm)

    def test_large_ensemble_pairs_only_its_support(self):
        e = random_ensemble(2, 1000, pure=False, seed=1)
        sol = solve(e)
        assert len(sol.support) <= 4
        cert = verify_kkt(e, sol.symmetry_op, sol.povm)
        assert cert.passed
        assert cert.legacy_pairwise == reference_legacy_pairwise(e, sol.povm)

    def test_tiny_nonzero_entries_are_paired(self, rng):
        # only exact zeros leave the pairing: elements of size 1e-200 stay in
        e = random_ensemble(2, 12, pure=False, seed=4)
        sol = solve(e)
        assert len(sol.support) < e.size
        tiny = [HermitianOperator(1e-200 * np.diag(rng.uniform(0.5, 1.0, 2))) for _ in sol.povm]
        padded = [m if x in sol.support else tiny[x] for x, m in enumerate(sol.povm)]
        cert = verify_kkt(e, sol.symmetry_op, padded)
        assert cert.legacy_pairwise == reference_legacy_pairwise(e, padded)
        alone = [HermitianOperator(IDENTITY2)] + tiny[1:]
        cert = verify_kkt(e, sol.symmetry_op, alone)
        assert cert.legacy_pairwise == reference_legacy_pairwise(e, alone) > 0.0

    def test_legacy_conditions_match_summed_operator(self):
        for e, sol in stacked_cases():
            stacked = verify_legacy_conditions(e, sol.povm).residuals()
            summed = verify_kkt(e, reference_legacy_operator(e, sol.povm), sol.povm).residuals()
            for name, value in stacked.items():
                assert abs(value - summed[name]) <= 1e-15, name

    def test_probability_forms_match_loops(self):
        cases = stacked_cases()
        # a lowered operator leaves negative gaps, where the trace norm counts |lambda|
        for e, sol in cases[:10]:
            lowered = sol.symmetry_op.matrix - 0.05 * np.eye(e.dim)
            cases.append((e, dataclasses.replace(sol, symmetry_op=HermitianOperator(lowered))))
        for e, sol in cases:
            forms = probability_forms(sol)
            k = sol.symmetry_op.matrix
            primal = sum(
                e.priors[x] * np.trace(sol.povm[x].matrix @ e.states[x].matrix).real
                for x in range(e.size)
            )
            distance = 1.0 / e.size + sum(
                trace_norm(k - e.priors[x] * e.states[x].matrix) for x in range(e.size)
            ) / e.size
            assert abs(forms.primal - primal) <= 1e-15
            assert abs(forms.average_distance - distance) <= 1e-15


def reference_residuals(ensemble, k, povm):
    """The certificate's residuals, each spectrum from its own _eigvalsh call."""
    q = ensemble.priors
    weighted = q[:, None, None] * ensemble.matrices
    gaps = k - weighted
    weights = float(np.trace(k).real) - q
    live = weights > DEGENERATE_WEIGHT_TOL
    sigma = gaps[live] / weights[live, None, None]
    averaged = (weighted @ povm).sum(axis=0)
    averaged = (averaged + averaged.conj().T) / 2.0
    nonzero = np.any(povm != 0, axis=(1, 2))
    elements, states = povm[nonzero], weighted[nonzero]

    def peak(values):
        return float(np.max(np.abs(values), initial=0.0))

    def negativity(stack):
        return max(0.0, float(np.max(-_eigvalsh(stack)[:, -1])))

    overlaps = np.trace(povm[live] @ sigma, axis1=1, axis2=2).real
    pairs = (
        peak(elements[x] @ (states[x] - states[x + 1 :]) @ elements[x + 1 :])
        for x in range(len(elements))
    )
    return {
        "symmetry": max(peak(gaps[live] - weights[live, None, None] * sigma), peak(gaps[~live])),
        "dual_feasibility": negativity(gaps),
        "orthogonality": peak(weights[live] * overlaps),
        "completeness": peak(povm.sum(axis=0) - np.eye(ensemble.dim)),
        "povm_positivity": negativity(povm),
        "legacy_pairwise": max(pairs, default=0.0),
        "legacy_operator": negativity(averaged - weighted),
    }


class TestOneStackedSpectrum:
    """The certificate takes its three spectra from one stacked call, bit for bit."""

    @pytest.mark.parametrize(
        "ensemble",
        [random_ensemble(2, n, pure=False, seed=n) for n in (3, 12, 39)]
        + [random_ensemble(d, 2, pure=d % 2 == 0, seed=d) for d in (3, 8, 16)],
        ids=lambda e: f"d{e.dim}-n{e.size}",
    )
    def test_residuals_match_three_separate_calls(self, ensemble, rng):
        sol = solve(ensemble)
        k, povm = sol.symmetry_op.matrix, sol.povm_matrices
        legacy = (ensemble.priors[:, None, None] * ensemble.matrices @ povm).sum(axis=0)
        bump = rng.standard_normal((ensemble.dim, ensemble.dim))
        # the optimum, the legacy form's own K, and a failing candidate with
        # nonzero residuals everywhere
        candidates = [
            (k, povm),
            ((legacy + legacy.conj().T) / 2.0, povm),
            (k - 1e-3 * (bump + bump.T), np.roll(povm, 1, axis=0)),
        ]
        for k, povm in candidates:
            residuals = _certificate_from(ensemble, k, povm, 1e-8).residuals()
            reference = reference_residuals(ensemble, k, povm)
            assert {name: v.hex() for name, v in residuals.items()} == {
                name: v.hex() for name, v in reference.items()
            }


# (dimension, count) of the ensembles the solvers cover
_SOLVABLE = [(2, n) for n in range(1, 6)] + [(d, n) for d in (3, 4) for n in (1, 2)]
_NUMPY_WORDS = (
    "broadcast", "remapped shapes", "cannot reshape", "setting an array element",
    "malformed string",
)


def _solved(shape, seed):
    ensemble = random_ensemble(*shape, pure=seed % 2 == 0, seed=seed)
    return ensemble, solve(ensemble)


def _misfit_readers(data):
    """Calls of every public reader of a measurement or a solution on a misfit of the ensemble.

    The misfit is a solution of an ensemble of another count or dimension,
    or the ensemble's own solution with one NaN or infinite entry, one
    entry that is a string, or one matrix whose last row is cut short.
    """
    shape = data.draw(st.sampled_from([s for s in _SOLVABLE if s[1] > 1]), label="shape")
    seed = data.draw(st.integers(0, 10**4), label="seed")
    e, sol = _solved(shape, seed)
    defect = data.draw(
        st.sampled_from(["other", "nan", "inf", "-inf", "string", "ragged"]), label="defect"
    )
    if defect == "other":
        other_shape = data.draw(st.sampled_from([s for s in _SOLVABLE if s != shape]))
        _, other = _solved(other_shape, seed + 1)
        povm = other.povm_matrices
        # K has no count: it is a misfit only in another dimension
        sym = other.symmetry_op if other.symmetry_op.dim != e.dim else None

        def complementary():
            return other.complementary
    else:

        def spoiled(matrix, index):
            """A copy of matrix with the defect at one entry, or its last row cut short."""
            rows = matrix.tolist()
            if defect == "ragged":
                rows[-1].pop()
                return rows
            i, j = index
            rows[i][j] = "x" if defect == "string" else float(defect)
            return rows if defect == "string" else np.array(rows)

        def entry(matrix):
            return tuple(data.draw(st.integers(0, n - 1)) for n in matrix.shape)

        povm = list(sol.povm_matrices)
        element = data.draw(st.integers(0, len(povm) - 1))
        povm[element] = spoiled(povm[element], entry(povm[element]))
        sym = spoiled(sol.symmetry_op.matrix, entry(sol.symmetry_op.matrix))
        states = [None if s is None else s.matrix for s in sol.complementary.states]
        present = [x for x, s in enumerate(states) if s is not None]
        weights = np.array(sol.complementary.weights)
        if present:
            states[present[0]] = spoiled(states[present[0]], (0, 0))
        else:
            weights[0] = math.nan

        def complementary():
            return ComplementarySet(weights, states)

    def solution():
        return DiscriminationSolution(e, sol.symmetry_op, povm)

    readers = {
        "verify_kkt": lambda: verify_kkt(e, sol.symmetry_op, povm),
        "verify_legacy_conditions": lambda: verify_legacy_conditions(e, povm),
        "conditional_table_from_povm": lambda: conditional_table_from_povm(e, povm),
        "probability_forms": lambda: probability_forms(solution()),
        "reconstruct_povm": lambda: reconstruct_povm(e, complementary()),
        "DiscriminationSolution(povm)": solution,
    }
    if sym is not None:
        readers["DiscriminationSolution(K)"] = lambda: DiscriminationSolution(
            e, sym, sol.povm_matrices)
    return readers


class TestMeasurementIntake:
    """One intake rule: every reader of a measurement or a solution rejects one
    that does not fit the ensemble, in the package's own words."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_misfits_raise_package_errors(self, data):
        for name, call in _misfit_readers(data).items():
            with pytest.raises((ValueError, DiscriminationError)) as info:
                call()
            message = str(info.value)
            assert not any(word in message for word in _NUMPY_WORDS), (name, message)


class TestEquivalenceCheck:
    def test_orthogonal_pair_families_share_a_class(self):
        a = solve_qubit(orthogonal_pairs(0.4, base_angle=0.1))
        b = solve_qubit(orthogonal_pairs(1.2, base_angle=2.0))
        assert equivalence_check(a.symmetry_op, b.symmetry_op, tol=1e-9)

    def test_rotated_ensemble_is_equivalent(self, rng):
        e, sol = random_solved(77)
        u = compose_rotations_unitary(2, rng)
        rotated = WeightedEnsemble(
            e.priors,
            [DensityOperator(HermitianOperator(u @ s.matrix @ u.conj().T)) for s in e.states],
        )
        sol_rot = solve_qubit(rotated)
        assert equivalence_check(sol.symmetry_op, sol_rot.symmetry_op, tol=1e-8)

    def test_distinct_spectra_are_inequivalent(self):
        trine_sol = solve_qubit(trine())
        pair = WeightedEnsemble(
            [0.5, 0.5], [from_bloch([0, 0, 1]), from_bloch([0, 0, -1])]
        )
        pair_sol = helstrom_two_state(pair)
        assert not equivalence_check(trine_sol.symmetry_op, pair_sol.symmetry_op, tol=1e-6)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            equivalence_check(HermitianOperator(np.eye(2)), HermitianOperator(np.eye(3)))


class TestToleranceRule:
    """A tolerance must be finite and non-negative, or the checker raises ValueError."""

    MESSAGE = "tolerance must be finite and non-negative"

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300, True])
    def test_checkers_reject_bad_tolerances(self, tol):
        e = trine()
        sol = solve(e)
        with pytest.raises(ValueError, match=self.MESSAGE):
            verify_kkt(e, sol.symmetry_op, sol.povm, tol)
        with pytest.raises(ValueError, match=self.MESSAGE):
            verify_legacy_conditions(e, sol.povm, tol)
        with pytest.raises(ValueError, match=self.MESSAGE):
            equivalence_check(sol.symmetry_op, sol.symmetry_op, tol)

    def test_zero_is_a_tolerance(self):
        e = trine()
        sol = solve(e)
        cert = verify_kkt(e, sol.symmetry_op, sol.povm, 0.0)
        assert cert.tolerance == 0.0 and cert.passed == (cert.max_residual() == 0.0)
        assert verify_legacy_conditions(e, sol.povm, 0.0).tolerance == 0.0
        assert equivalence_check(sol.symmetry_op, sol.symmetry_op, 0.0)

    @pytest.mark.parametrize(
        "tol",
        [np.array([1e-8]), np.array(1e-8), np.array([[1e-8]]), np.zeros(0), [1e-8], "1e-8",
         None, 1e-8j],
        ids=["array-1", "array-0d", "array-1x1", "array-empty", "list", "str", "none", "complex"],
    )
    def test_a_tolerance_that_is_not_a_real_number_raises(self, tol):
        e = trine()
        sol = solve(e)
        checks = [
            lambda: verify_kkt(e, sol.symmetry_op, sol.povm, tol),
            lambda: verify_legacy_conditions(e, sol.povm, tol),
            lambda: is_psd(sol.symmetry_op, tol),
            lambda: equivalence_check(sol.symmetry_op, sol.symmetry_op, tol),
        ]
        for check in checks:
            with pytest.raises(ValueError, match=f"^{self.MESSAGE}, got .*, not a real number$"):
                check()

    @pytest.mark.parametrize("tol", [1e-8, np.float64(1e-8), 0], ids=["float", "float64", "int"])
    def test_a_real_tolerance_is_kept_as_a_float(self, tol):
        e = trine()
        sol = solve(e)
        for cert in (verify_kkt(e, sol.symmetry_op, sol.povm, tol),
                     verify_legacy_conditions(e, sol.povm, tol)):
            assert type(cert.tolerance) is float and cert.tolerance == tol
            assert cert.passed == (cert.max_residual() <= tol)
        assert is_psd(sol.symmetry_op, tol) is True
        assert equivalence_check(sol.symmetry_op, sol.symmetry_op, tol) is True

    def test_an_int_beyond_the_float_range_is_an_infinite_tolerance(self):
        with pytest.raises(ValueError, match=f"^{self.MESSAGE}, got inf$"):
            is_psd(np.eye(2), 10**400)


def _hermitian_nudge(matrices, scale, rng):
    """matrices plus a Hermitian perturbation whose largest entry is scale."""
    h = rng.standard_normal(matrices.shape) + 1j * rng.standard_normal(matrices.shape)
    h = (h + h.conj().swapaxes(-1, -2)) / 2
    return matrices + scale * h / abs(h).max()


class TestReadOffFields:
    """A certificate's verdict and the steering form are read off the stored numbers."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_passed_is_every_residual_within_the_tolerance(self, data):
        shape = data.draw(st.sampled_from(_SOLVABLE), label="shape")
        seed = data.draw(st.integers(0, 10**4), label="seed")
        e, sol = _solved(shape, seed)
        k, povm = sol.symmetry_op.matrix, sol.povm_matrices
        scale = data.draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-5, 1e-3]), label="perturbation")
        if scale:
            rng = np.random.default_rng(seed)
            k, povm = _hermitian_nudge(k, scale, rng), _hermitian_nudge(povm, scale, rng)
        cert = verify_kkt(e, k, povm)
        name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cert)]), label="field")
        value = data.draw(st.sampled_from([math.nan, 0.0, 1e-8]) | st.floats(0.0, 1e-2),
                          label="value")
        cert = dataclasses.replace(cert, **{name: value})
        residuals = list(cert.residuals().values())
        within = not any(map(math.isnan, residuals + [cert.tolerance])) and (
            max(residuals) <= cert.tolerance
        )
        assert cert.passed is within
        assert certificate_to_json(cert)["verdict"] == ("pass" if within else "fail")

    def test_a_stored_verdict_cannot_contradict_the_residuals(self):
        e = trine()
        sol = solve(e)
        exact = dataclasses.replace(verify_kkt(e, sol.symmetry_op, sol.povm), tolerance=0.0)
        assert exact.max_residual() > 0.0
        zeros = dict.fromkeys(exact.residuals(), 0.0)
        broken = KktCertificate(**{**zeros, "symmetry": 1.0}, tolerance=1e-8)
        for cert in (broken, exact):
            assert cert.passed is False
            assert certificate_to_json(cert)["verdict"] == "fail"

    @given(p=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_steering_is_the_reciprocal_of_the_summed_probabilities(self, p):
        forms = dataclasses.replace(probability_forms(solve(trine())), steering_probs=np.array(p))
        assert forms.steering == 1.0 / float(np.sum(np.array(p)))
        values = forms.values()
        assert list(values) == ["primal", "dual", "average_weight", "average_distance", "steering"]
        assert values["steering"] == forms.steering

    def test_derived_fields_are_not_stored(self):
        forms = probability_forms(solve(trine()))
        assert "passed" not in {f.name for f in dataclasses.fields(KktCertificate)}
        assert "steering" not in {f.name for f in dataclasses.fields(forms)}
        zeros = dict.fromkeys([f.name for f in dataclasses.fields(KktCertificate)], 0.0)
        with pytest.raises(TypeError, match="passed"):
            KktCertificate(**zeros, passed=True)
        with pytest.raises(TypeError, match="steering"):
            dataclasses.replace(forms, steering=1.0)
