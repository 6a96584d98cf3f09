import dataclasses
import importlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscrim import (
    ConvergenceError,
    DensityOperator,
    HermitianOperator,
    PureBipartiteState,
    hermitian_eigen,
    is_psd,
    partial_trace,
    purify,
    trace_norm,
)
from qdiscrim import operators, random_ensemble, verify_kkt
from qdiscrim.operators import (
    _eigh,
    _eigvalsh,
    _fix_phases,
    _hermitian_stack,
    negative_part,
    nonnegative_eigenprojector,
)
from qdiscrim.serialize import ensemble_from_json, ensemble_to_json, solution_to_json
from qdiscrim.solve import DiscriminationSolution, solve

from conftest import compose_rotations_unitary, random_hermitian

solve_module = importlib.import_module("qdiscrim.solve")  # the package exports solve()

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestHermitianOperator:
    def test_symmetrizes_small_asymmetry(self):
        m = np.array([[1.0, 0.5 + 1e-13j], [0.5, 2.0]], dtype=complex)
        op = HermitianOperator(m)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) == 0.0

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator(np.array([[np.nan, 0], [0, 1]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_oversized_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            HermitianOperator(np.eye(65))

    def test_matrix_is_immutable(self):
        op = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestDensityOperator:
    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(HermitianOperator(np.eye(2)))

    def test_rejects_negative_operator(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator(HermitianOperator(np.diag([1.5, -0.5])))

    def test_accepts_valid_state(self):
        rho = DensityOperator(HermitianOperator(np.eye(2) / 2))
        assert rho.dim == 2


class TestHermitianEigen:
    def test_identity_spectrum(self):
        decomp = hermitian_eigen(HermitianOperator(np.eye(2)))
        assert np.allclose(decomp.eigenvalues, [1.0, 1.0])

    def test_pauli_x_spectrum(self):
        decomp = hermitian_eigen(HermitianOperator(PAULI_X))
        assert np.allclose(decomp.eigenvalues, [1.0, -1.0])

    def test_random_reconstruction(self, rng):
        for _ in range(50):
            h = random_hermitian(4, rng)
            decomp = hermitian_eigen(HermitianOperator(h))
            scale = 1.0 + float(np.max(np.abs(h)))
            assert np.max(np.abs(decomp.reconstruct() - h)) <= 1e-10 * scale
            gram = decomp.eigenvectors.conj().T @ decomp.eigenvectors
            assert np.max(np.abs(gram - np.eye(4))) <= 1e-10

    def test_descending_order(self, rng):
        decomp = hermitian_eigen(HermitianOperator(random_hermitian(5, rng)))
        assert np.all(np.diff(decomp.eigenvalues) <= 0)

    def test_deterministic(self, rng):
        h = random_hermitian(4, rng)
        a = hermitian_eigen(HermitianOperator(h))
        b = hermitian_eigen(HermitianOperator(h))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_phase_convention(self, rng):
        decomp = hermitian_eigen(HermitianOperator(random_hermitian(4, rng)))
        for j in range(4):
            col = decomp.eigenvectors[:, j]
            pivot = col[np.abs(col) > 1e-8][0]
            assert abs(pivot.imag) <= 1e-12
            assert pivot.real > 0

    def test_spectrum_unitarily_covariant(self, rng):
        for _ in range(20):
            h = random_hermitian(4, rng)
            u = compose_rotations_unitary(4, rng)
            rotated = u @ h @ u.conj().T
            a = hermitian_eigen(HermitianOperator(h)).eigenvalues
            b = hermitian_eigen(HermitianOperator(rotated)).eigenvalues
            assert np.max(np.abs(a - b)) <= 1e-9

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 5))
    def test_reconstruction_property(self, seed, dim):
        h = random_hermitian(dim, np.random.default_rng(seed))
        decomp = hermitian_eigen(HermitianOperator(h))
        scale = 1.0 + float(np.max(np.abs(h)))
        assert np.max(np.abs(decomp.reconstruct() - h)) <= 1e-10 * scale


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(HermitianOperator(np.eye(2))) == pytest.approx(2.0)

    def test_signature_matrix(self):
        assert trace_norm(HermitianOperator(np.diag([1.0, -1.0]))) == pytest.approx(2.0)

    def test_qubit_difference_is_bloch_distance(self, rng):
        # eigenvalues of a traceless 2x2 Hermitian matrix are +-|a - b|/2
        from qdiscrim import from_bloch

        for _ in range(25):
            a = rng.uniform(-1, 1, 3)
            b = rng.uniform(-1, 1, 3)
            for v in (a, b):
                v *= rng.uniform(0, 1) / max(1.0, np.linalg.norm(v))
            diff = from_bloch(a).matrix - from_bloch(b).matrix
            assert trace_norm(HermitianOperator(diff)) == pytest.approx(
                float(np.linalg.norm(a - b)), abs=1e-12
            )
            # Frobenius and trace distance keep a fixed sqrt(2) ratio on qubits
            assert float(np.linalg.norm(diff)) * math.sqrt(2) == pytest.approx(
                trace_norm(HermitianOperator(diff)), abs=1e-12
            )

    def test_dominates_trace_with_equality_iff_definite(self, rng):
        for _ in range(20):
            h = random_hermitian(4, rng)
            op = HermitianOperator(h)
            assert trace_norm(op) >= abs(op.trace()) - 1e-12
            definite = is_psd(h, 1e-10) or is_psd(-h, 1e-10)
            if definite:
                assert trace_norm(op) == pytest.approx(abs(op.trace()), abs=1e-10)
            else:
                assert trace_norm(op) > abs(op.trace()) + 1e-10

        g = random_hermitian(4, rng)
        psd = g @ g.conj().T
        assert trace_norm(HermitianOperator(psd)) == pytest.approx(
            float(np.trace(psd).real), abs=1e-10
        )


class TestIsPsd:
    def test_identity(self):
        assert is_psd(HermitianOperator(np.eye(3)), 1e-9)

    def test_slightly_negative(self):
        assert not is_psd(HermitianOperator(np.diag([1.0, -1e-6])), 1e-9)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            is_psd(HermitianOperator(np.eye(2)), -1.0)


class TestEigenParts:
    def test_negative_part_and_projector(self, rng):
        h = random_hermitian(4, rng)
        neg = negative_part(h)
        proj = nonnegative_eigenprojector(h)
        assert is_psd(HermitianOperator(neg), 1e-12)
        # h + h_minus equals the non-negative part, annihilated by I - proj
        plus = h + neg
        assert np.max(np.abs((np.eye(4) - proj) @ plus)) <= 1e-12


class TestPurification:
    def test_maximally_mixed_purifies_to_bell(self):
        rho = DensityOperator(HermitianOperator(np.eye(2) / 2))
        psi = purify(rho)
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert np.max(np.abs(psi.amplitudes - bell)) <= 1e-12

    def test_pure_state_purifies_to_product(self):
        rho = DensityOperator(HermitianOperator(np.diag([1.0, 0.0])))
        psi = purify(rho)
        product = np.zeros(4, dtype=complex)
        product[0] = 1.0
        assert np.max(np.abs(psi.amplitudes - product)) <= 1e-12

    def test_round_trip_random_mixed(self, rng):
        for dim in (2, 3, 5):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = g @ g.conj().T
            rho = DensityOperator(HermitianOperator(rho / np.trace(rho).real))
            back = partial_trace(purify(rho), "A")
            assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-10


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        bell = PureBipartiteState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        for side in ("A", "B"):
            reduced = partial_trace(bell, side)
            assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) <= 1e-12

    def test_product_state(self, rng):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b /= np.linalg.norm(b)
        state = PureBipartiteState(2, 2, np.kron(a, b))
        reduced = partial_trace(state, "A")
        assert np.max(np.abs(reduced.matrix - np.outer(b, b.conj()))) <= 1e-12

    def test_output_is_state(self, rng):
        amp = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        amp /= np.linalg.norm(amp)
        state = PureBipartiteState(3, 4, amp)
        for side, dim in (("A", 4), ("B", 3)):
            reduced = partial_trace(state, side)
            assert reduced.dim == dim
            assert abs(reduced.trace() - 1.0) <= 1e-10
            assert is_psd(reduced, 1e-10)

    def test_rejects_unknown_subsystem(self):
        bell = PureBipartiteState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        with pytest.raises(ValueError):
            partial_trace(bell, "C")

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError, match="unit norm"):
            PureBipartiteState(2, 2, np.array([1, 0, 0, 1]))


class TestConvergenceGuard:
    def test_linalg_error_becomes_convergence_error(self, monkeypatch):
        # LAPACK failure is unreachable for well-formed small inputs; the
        # contract is that it surfaces as ConvergenceError, not a wrong answer
        def failing_eigh(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(ConvergenceError, match="did not converge"):
            hermitian_eigen(HermitianOperator(np.eye(2)))

    def test_non_finite_output_becomes_convergence_error(self, monkeypatch):
        def nan_eigh(matrix):
            return np.array([np.nan, 1.0]), np.eye(2, dtype=complex)

        monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
        with pytest.raises(ConvergenceError, match="non-finite"):
            hermitian_eigen(HermitianOperator(np.eye(2)))


def _fix_phases_by_column(v):
    """Column-by-column reference for the vectorized phase convention."""
    out = v.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col) > 1e-8))
        pivot = col[idx]
        if abs(pivot) > 0:
            out[:, j] = col * (np.conj(pivot) / abs(pivot))
    return out


class TestEigensolverContract:
    def test_identity_keeps_basis_order(self):
        decomp = hermitian_eigen(HermitianOperator(np.eye(3)))
        assert np.array_equal(decomp.eigenvalues, np.ones(3))
        assert np.array_equal(decomp.eigenvectors, np.eye(3))

    def test_tied_eigenvalues_keep_lapack_order(self):
        # a stable descending sort keeps the order LAPACK returns equal
        # eigenvalues in; reversing the ascending output would swap them
        m = np.diag([1.0, 1.0, 0.0]).astype(complex)
        decomp = hermitian_eigen(HermitianOperator(m))
        assert np.array_equal(decomp.eigenvalues, [1.0, 1.0, 0.0])
        _, lapack_vectors = np.linalg.eigh(m)
        expected = _fix_phases_by_column(lapack_vectors[:, [1, 2, 0]])
        assert np.array_equal(decomp.eigenvectors, expected)

    @pytest.mark.parametrize("dim", [2, 8, 64])
    def test_agrees_with_numpy_eigvalsh(self, dim, rng):
        g = rng.standard_normal((dim, 1)) + 1j * rng.standard_normal((dim, 1))
        rank_one = g @ g.conj().T
        degenerate = np.diag(np.repeat([2.0, -1.0], [dim // 2, dim - dim // 2]))
        u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
        for h in (random_hermitian(dim, rng), rank_one, u @ degenerate @ u.conj().T):
            values = hermitian_eigen(HermitianOperator(h)).eigenvalues
            expected = np.sort(np.linalg.eigvalsh(h))[::-1]
            scale = 1.0 + float(np.max(np.abs(h)))
            assert np.max(np.abs(values - expected)) <= 1e-12 * dim * scale

    def test_stack_matches_matrix_by_matrix(self, rng):
        # a stack is decomposed matrix by matrix: same order, same phases, same bits
        dim = 6
        g = rng.standard_normal((dim, 1)) + 1j * rng.standard_normal((dim, 1))
        mats = [random_hermitian(dim, rng) for _ in range(4)]
        mats += [g @ g.conj().T, np.diag([1.0, 1.0, 0.0, 0.0, 2.0, 2.0]), np.zeros((dim, dim))]
        stack = np.stack(mats).reshape(7, 1, dim, dim)
        values, vectors = _eigh(stack)
        assert values.shape == (7, 1, dim) and vectors.shape == (7, 1, dim, dim)
        for i, m in enumerate(mats):
            one_values, one_vectors = _eigh(m)
            assert np.array_equal(values[i, 0], one_values)
            assert np.array_equal(vectors[i, 0], one_vectors)
            # the values-only driver is stacked bit for bit too, and agrees
            # with eigh to rounding: the two LAPACK drivers differ in the last bits
            assert np.array_equal(_eigvalsh(stack)[i, 0], _eigvalsh(m))
            scale = 1.0 + float(np.max(np.abs(m)))
            assert np.max(np.abs(_eigvalsh(m) - one_values)) <= 1e-12 * scale

    def test_stack_validation_names_the_defective_matrix(self):
        stack = np.stack([np.eye(2), np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(ValueError, match=r"^rows\[2\]: matrix is not Hermitian"):
            _hermitian_stack(stack, field="rows[{}]")
        stack[1, 0, 0] = np.inf
        with pytest.raises(ValueError, match=r"^rows\[1\]: matrix entries must be finite"):
            _hermitian_stack(stack, field="rows[{}]")
        with pytest.raises(ValueError, match="square matrix"):
            HermitianOperator(np.stack([np.eye(2)]))

    def test_vectorized_phases_match_column_reference(self, rng):
        # numpy's array abs may round the pivot modulus differently from the
        # scalar abs in the last bit, so agreement is to a few ulps
        ulps = 4 * np.finfo(float).eps
        for dim in (1, 2, 5, 16):
            v = np.linalg.qr(
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            )[0]
            v[0, 0] = 0.0  # first pivot falls through to the next component
            assert np.max(np.abs(_fix_phases(v) - _fix_phases_by_column(v))) <= ulps
        zero_column = np.zeros((3, 3), dtype=complex)
        zero_column[:, 1] = [0.0, 1j, 0.0]
        assert np.array_equal(_fix_phases(zero_column), _fix_phases_by_column(zero_column))


_UNIT = st.floats(-1.0, 1.0, allow_nan=False)
_SCALE = st.integers(-300, 300).map(lambda k: 10.0**k)


@st.composite
def _hermitian_2x2(draw):
    """A 2 x 2 Hermitian matrix: general (each entry at its own scale), diagonal,
    a multiple of the identity or rank one, with entries from 1e-300 to 1e300."""
    kind = draw(st.sampled_from(["general", "diagonal", "scalar", "rank-one"]))
    if kind == "rank-one":
        g = np.array([complex(draw(_UNIT), draw(_UNIT)) for _ in range(2)])
        return np.outer(g, g.conj()) * draw(_SCALE)
    a, d = draw(_UNIT) * draw(_SCALE), draw(_UNIT) * draw(_SCALE)
    b = complex(draw(_UNIT), draw(_UNIT)) * draw(_SCALE)
    if kind == "scalar":
        d, b = a, 0.0
    elif kind == "diagonal":
        b = 0.0
    return np.array([[a, np.conj(b)], [b, d]], dtype=complex)


def _within_exact_spectrum(m, values, tol: Fraction) -> bool:
    """Whether values lie within tol of the exact eigenvalues mean +- sqrt(disc) of
    the 2 x 2 matrix m (read from its lower triangle), in rational arithmetic."""
    a, d, b = Fraction(m[0, 0].real), Fraction(m[1, 1].real), m[1, 0]
    mean = (a + d) / 2
    disc = ((a - d) / 2) ** 2 + Fraction(b.real) ** 2 + Fraction(b.imag) ** 2
    for sign, value in zip((1, -1), values.tolist()):
        root = sign * (Fraction(value) - mean)  # sqrt(disc), up to the error
        low, high = root - tol, root + tol
        if high < 0 or high * high < disc or (low > 0 and low * low > disc):
            return False
    return True


class TestClosedFormEigenvalues:
    """2 x 2 spectra come from mean +- radius instead of LAPACK."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(matrices=st.lists(_hermitian_2x2(), min_size=1, max_size=6))
    def test_matches_numpy_eigvalsh(self, matrices):
        stack = np.stack(matrices)
        values = _eigvalsh(stack)
        expected = np.linalg.eigvalsh(stack)[:, ::-1]
        assert values.shape == expected.shape
        assert np.all(values[:, 0] >= values[:, 1])
        scale = 1.0 + np.max(np.abs(stack), axis=(1, 2))
        for m, pair, s in zip(stack, values, scale.tolist()):
            assert _within_exact_spectrum(m, pair, Fraction(1e-15) * Fraction(s))
        # LAPACK's own error reaches some 6.5 eps * max|m| on these matrices
        # (against 80-digit arithmetic), beyond 1e-15 * max|m|
        assert np.all(np.abs(values - expected) <= 1e-14 * scale[:, None])

    def test_single_matrix_is_a_stack_of_one(self):
        m = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0.7]])
        assert np.array_equal(_eigvalsh(m), _eigvalsh(m[None])[0])
        assert _eigvalsh(m).shape == (2,)

    def test_non_finite_raises_convergence_error(self):
        with pytest.raises(ConvergenceError, match="non-finite"):
            _eigvalsh(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        # entries near the float maximum: the spectrum itself overflows
        huge = np.array([[1e308, -1e308], [-1e308, 1e308]], dtype=complex)
        with pytest.raises(ConvergenceError, match="non-finite"):
            _eigvalsh(huge[None])

    def test_calls_no_lapack_on_qubits(self, monkeypatch):
        def forbidden(matrix):
            raise AssertionError("LAPACK called on a 2 x 2 stack")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        assert is_psd(np.eye(2)) and trace_norm(np.diag([0.5, -0.25])) == 0.75
        assert DensityOperator(np.eye(2) / 2).dim == 2


class TestDecompositionCounts:
    """Counts matrices decomposed (the product of the leading dimensions of
    each argument) and LAPACK calls, stage by stage, separately for
    numpy.linalg.eigh and the values-only numpy.linalg.eigvalsh."""

    @staticmethod
    def _stages(monkeypatch, doc):
        shapes = {"eigh": [], "eigvalsh": []}

        def counting(name):
            real = getattr(np.linalg, name)

            def driver(matrix):
                shapes[name].append(np.shape(matrix))
                return real(matrix)

            monkeypatch.setattr(np.linalg, name, driver)

        def stage(fn, *args):
            for seen in shapes.values():
                seen.clear()
            result = fn(*args)
            counts = {
                name: (sum(math.prod(s[:-2]) for s in seen), len(seen))
                for name, seen in shapes.items()
            }
            return result, counts

        counting("eigh")
        counting("eigvalsh")
        ensemble, parse = stage(ensemble_from_json, doc)
        solution, solve_counts = stage(solve, ensemble)
        cert, verify = stage(verify_kkt, ensemble, solution.symmetry_op, solution.povm)
        assert cert.passed
        return parse, solve_counts, verify

    def test_two_state_parse_solve_verify(self, monkeypatch):
        doc = json.loads(json.dumps(ensemble_to_json(random_ensemble(8, 2, pure=False, seed=3))))
        parse, solve_counts, verify = self._stages(monkeypatch, doc)
        assert parse == {"eigh": (2, 1), "eigvalsh": (0, 0)}  # one per state
        # the solve diagonalizes q1 rho1 - q2 rho2 alone, and checks the
        # two POVM elements' eigenvalues
        assert solve_counts == {"eigh": (1, 1), "eigvalsh": (2, 1)}
        # verify_kkt recomputes every spectrum it checks, independently of the
        # solver: two gaps, two POVM elements, two legacy operator conditions
        assert verify == {"eigh": (0, 0), "eigvalsh": (6, 3)}

    @pytest.mark.parametrize("equal_priors", [False, True])
    def test_qubit_stacks_one_lapack_call_per_layer(self, monkeypatch, equal_priors):
        n = 39
        doc = ensemble_to_json(random_ensemble(2, n, pure=False, seed=39))
        if equal_priors:
            doc["priors"] = [1.0 / n] * n
        parse, solve_counts, verify = self._stages(monkeypatch, json.loads(json.dumps(doc)))
        # every qubit spectrum has a closed form: the parse reads each state's
        # Bloch vector, the solve's complementary states come from the dual,
        # and the POVM check and the certificate's three spectra are 2 x 2
        # eigenvalues, so a qubit request reaches no LAPACK driver at all
        nothing = {"eigh": (0, 0), "eigvalsh": (0, 0)}
        assert parse == solve_counts == verify == nothing


class TestStackedTuples:
    """Ensembles, complementary sets and solutions store stacks; their tuples are built lazily."""

    def test_request_path_builds_no_per_state_wrapper(self, monkeypatch):
        n = 1000
        doc = json.loads(json.dumps(ensemble_to_json(random_ensemble(2, n, pure=False, seed=5))))
        wrapped, built = [], []
        real_wrap = operators._wrap_hermitian

        def counting_wrap(stack):
            wrapped.append(len(stack))
            return real_wrap(stack)

        def counting_init(cls):
            real_init = cls.__init__

            def init(self, *args, **kwargs):
                built.append(cls.__name__)
                real_init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)

        for module in (operators, solve_module):
            monkeypatch.setattr(module, "_wrap_hermitian", counting_wrap)
        counting_init(HermitianOperator)
        counting_init(DensityOperator)
        ensemble = ensemble_from_json(doc)
        sol = solve(ensemble)
        out = solution_to_json(sol)
        assert len(out["povm"]) == len(out["complementary"]) == n
        assert wrapped == []
        assert built == ["HermitianOperator"]  # the symmetry operator

        # the povm tuple is wrapped from the stack once, on first access
        assert verify_kkt(ensemble, sol.symmetry_op, sol.povm).passed
        assert wrapped == [n]
        assert sol.povm is sol.povm and wrapped == [n]
        assert built == ["HermitianOperator"]
        assert "states" not in vars(ensemble) and "states" not in vars(sol.complementary)

    def test_tuples_from_stacks_are_tuples_of_their_matrices(self):
        e = random_ensemble(2, 6, pure=False, seed=1)
        parsed = ensemble_from_json(json.loads(json.dumps(ensemble_to_json(e))))
        sol = solve(parsed)
        comp = sol.complementary
        assert isinstance(parsed.states, tuple) and isinstance(sol.povm, tuple)
        assert isinstance(comp.states, tuple) and len(comp.states) == 6
        assert all(isinstance(s, DensityOperator) for s in parsed.states)
        assert len(parsed.states + (parsed.states[0],)) == 7
        assert np.array_equal(np.stack([s.matrix for s in parsed.states]), parsed.matrices)
        assert np.array_equal(np.stack([m.matrix for m in sol.povm]), sol.povm_matrices)
        assert [s is None for s in comp.states] == list(~comp.present)
        live = [s.matrix for s in comp.states if s is not None]
        assert np.array_equal(np.stack(live), comp.matrices)

    def test_solution_constructor_takes_operators(self):
        sol = solve(random_ensemble(2, 4, pure=True, seed=2))
        built = DiscriminationSolution(
            sol.p_guess, sol.symmetry_op, sol.complementary, list(sol.povm_matrices), sol.support
        )
        assert all(isinstance(m, HermitianOperator) for m in built.povm)
        assert np.array_equal(built.povm_matrices, sol.povm_matrices)
        lowered = dataclasses.replace(sol, p_guess=0.5)
        assert lowered.povm == sol.povm
        assert np.array_equal(lowered.povm_matrices, sol.povm_matrices)
        with pytest.raises(ValueError, match="not Hermitian"):
            DiscriminationSolution(
                sol.p_guess, sol.symmetry_op, sol.complementary, [PAULI_X * 1j] * 4, sol.support
            )
