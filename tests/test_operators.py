import dataclasses
import importlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qdiscrim import (
    ConvergenceError,
    DensityOperator,
    HermitianOperator,
    PureBipartiteState,
    SteeringMeasurement,
    generate_from_symmetry_operator,
    hermitian_eigen,
    is_psd,
    partial_trace,
    purify,
    trace_norm,
)
from qdiscrim import certify, operators, random_ensemble, verify_kkt
from qdiscrim.bloch import PAULI_X as BLOCH_X
from qdiscrim.bloch import to_bloch
from qdiscrim.bloch import PAULI_Y, PAULI_Z, _bloch_vectors, _operators
from qdiscrim.operators import (
    _eigh,
    _eigvalsh,
    _fix_phases,
    _hermitian_stack,
    _matrix_stack,
    _negative_part_and_projector,
    _row_norms,
    _symmetrized,
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

    def test_operator_argument_shares_its_matrix(self, monkeypatch):
        x = HermitianOperator(np.array([[1.0, 0.5j], [-0.5j, 2.0]]))
        rho = DensityOperator(np.eye(2) / 2)
        monkeypatch.setattr(operators, "_hermitian_stack", _no_check)
        assert HermitianOperator(x).matrix is x.matrix
        # a state is an operator: the Hermitian operator of it shares it too
        assert type(HermitianOperator(rho)) is HermitianOperator
        assert HermitianOperator(rho).matrix is rho.matrix


def _no_check(*args, **kwargs):
    raise AssertionError("an operator argument ran a check")


class TestDensityOperator:
    def test_state_argument_runs_no_check(self, monkeypatch):
        rho = DensityOperator(np.diag([0.75, 0.25]))
        for name in ("_hermitian_stack", "_eigvalsh"):
            monkeypatch.setattr(operators, name, _no_check)
        assert DensityOperator(rho).matrix is rho.matrix

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(HermitianOperator(np.eye(2)))

    def test_rejects_negative_operator(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator(HermitianOperator(np.diag([1.5, -0.5])))

    def test_accepts_valid_state(self):
        rho = DensityOperator(HermitianOperator(np.eye(2) / 2))
        assert rho.dim == 2

    def test_a_state_is_a_hermitian_operator(self):
        assert issubclass(DensityOperator, HermitianOperator)
        rho = DensityOperator(np.diag([0.75, 0.25]))
        assert isinstance(rho, HermitianOperator)
        assert rho.dim == 2 and rho.trace() == 1.0
        assert np.array_equal(rho.matrix, np.diag([0.75, 0.25]))
        assert not hasattr(rho, "op")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.matrix = np.eye(2) / 2

    def test_hermitian_argument_is_taken_as_validated(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = g @ g.conj().T
        m = m / np.trace(m).real
        op = HermitianOperator(m)
        assert DensityOperator(op).matrix is op.matrix
        # an array runs the Hermitian check itself, to the same bits
        assert np.array_equal(DensityOperator(m).matrix, op.matrix)
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityOperator(np.array([[0.5, 0.1], [0.0, 0.5]]))


class TestRawMatrixIntake:
    """Functions that take one operator validate a raw matrix as HermitianOperator does."""

    DEFECTS = [
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "finite"),
        (np.ones((2, 3)), "square"),
        (np.ones(2), "square"),
        (np.array([[0.5, 0.3], [0.0, 0.5]]), "not Hermitian"),
    ]

    @pytest.mark.parametrize("function", [is_psd, trace_norm, hermitian_eigen, to_bloch])
    @pytest.mark.parametrize("matrix, message", DEFECTS)
    def test_rejects_a_defective_raw_matrix(self, function, matrix, message):
        with pytest.raises(ValueError, match=message):
            function(matrix)


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -math.inf, True, np.True_])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            is_psd(np.eye(2), tol)


class TestEigenParts:
    def test_negative_part_and_projector(self, rng):
        h = random_hermitian(4, rng)
        neg, proj = _negative_part_and_projector(*_eigh(h))
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
        # a raw state is read as DensityOperator reads it
        assert np.array_equal(purify(np.eye(2) / 2).amplitudes, psi.amplitudes)
        with pytest.raises(ValueError, match="trace 1"):
            purify(np.eye(2))

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

    @pytest.mark.parametrize(
        "dims, amplitudes, message",
        [
            ((0, 2), [], "subsystem dimensions must be positive"),
            ((2, 0), [], "subsystem dimensions must be positive"),
            ((2, 2), [1.0, 0.0, 0.0], "expected 4 amplitudes, got 3"),
            ((2, 1), [math.nan, 1.0], "amplitudes must be finite"),
            ((1, 2), [1.0, complex(0.0, math.inf)], "amplitudes must be finite"),
            # int() would truncate 1.5 to a 1 x 2 state holding 3 amplitudes
            ((1.5, 2), [1.0, 0.0, 0.0], "dim_a must be an integer, got 1.5"),
            ((2, True), [1.0, 0.0], "dim_b must be an integer, got True"),
            ((2, 1), [1.0, "x"], "amplitudes is not a rectangular array of numbers"),
            ((2, 1), [[1.0], [0.0, 0.0]], "amplitudes is not a rectangular array of numbers"),
        ],
    )
    def test_rejects_malformed_input(self, dims, amplitudes, message):
        with pytest.raises(ValueError) as info:
            PureBipartiteState(*dims, amplitudes)
        assert str(info.value) == message


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
            if dim > 1:  # in dimension one this would leave a zero column
                v[0, 0] = 0.0  # first pivot falls through to the next component
            assert np.max(np.abs(_fix_phases(v) - _fix_phases_by_column(v))) <= ulps

    def test_matches_stable_argsort_reference_bit_for_bit(self, rng):
        # without equal eigenvalues the stable descending sort is a reversal
        # and the phases need no mask; with them the sort keeps LAPACK's order
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        projector = u @ np.diag([1.0, 1.0, 0.0, 0.0]) @ u.conj().T
        stacks = [
            np.eye(3)[None],
            np.diag([1.0, 1.0, 0.0])[None],
            np.zeros((2, 3, 3)),
            np.stack([projector, np.eye(4) - projector]),
            np.stack([random_hermitian(5, rng) for _ in range(7)]),
            np.stack([random_hermitian(2, rng) for _ in range(9)]),
            random_hermitian(64, rng)[None],
            np.array([[[0.5]], [[-2.0]]]),
            np.stack([random_hermitian(3, rng), np.eye(3), random_hermitian(3, rng)]),
        ]
        for stack in stacks:
            values, vectors = _eigh(stack)
            expected_values, expected_vectors = _eigh_reference(stack)
            assert _same_bits(values, expected_values)
            assert _same_bits(vectors, expected_vectors)

    def test_distinct_eigenvalues_take_no_sort(self, rng, monkeypatch):
        stack = np.stack([random_hermitian(6, rng) for _ in range(5)])
        expected = _eigh_reference(stack)

        def forbidden(*args, **kwargs):
            raise AssertionError("sorted a spectrum without ties")

        monkeypatch.setattr(np, "argsort", forbidden)
        values, vectors = _eigh(stack)
        assert _same_bits(values, expected[0]) and _same_bits(vectors, expected[1])

    def test_unit_columns_take_the_unmasked_phases(self, rng):
        for dim in (1, 2, 5, 16):
            m = np.stack([random_hermitian(dim, rng) for _ in range(3)])
            vectors = np.linalg.eigh(m)[1]
            if dim > 1:  # in dimension one this would leave a zero column
                vectors[0, 0, 0] = 0.0  # a first pivot below 1e-8 falls through
            assert _same_bits(_fix_phases(vectors), _masked_phases(vectors))


def _same_bits(a, b) -> bool:
    """Equal shapes and equal bits, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _masked_phases(v):
    """The phase convention with a masked assignment for every stack."""
    mags = np.abs(v)
    rows = np.argmax(mags > 1e-8, axis=-2)[..., None, :]
    pivots = np.take_along_axis(v, rows, axis=-2)
    sizes = np.take_along_axis(mags, rows, axis=-2)
    phases = np.ones_like(pivots)
    nonzero = sizes > 0
    phases[nonzero] = np.conj(pivots[nonzero]) / sizes[nonzero]
    return v * phases


def _eigh_reference(matrix):
    """Descending order by a stable argsort and the masked phases, for every stack."""
    values, vectors = np.linalg.eigh(np.asarray(matrix, dtype=complex))
    order = np.argsort(-values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[..., None, :], axis=-1)
    return values, _masked_phases(vectors)


def _pauli_sum(t, vectors):
    """(t I + v . sigma)/2 as the complex Pauli sum that _operators reproduces."""
    t = np.asarray(t, dtype=float)[..., None, None]
    x, y, z = np.moveaxis(np.asarray(vectors, dtype=float)[..., None, None], -3, 0)
    return 0.5 * (t * np.eye(2, dtype=complex) + x * BLOCH_X + y * PAULI_Y + z * PAULI_Z)


class TestTrustedQubitOperators:
    """The qubit solver wraps _operators' stacks unchecked: they must be the
    Pauli sum bit for bit and exactly Hermitian."""

    COMPONENTS = (0.0, -0.0, 1.0, -1.0, 0.3, -0.3, 1e-300, -1e-300, 5e-324)
    TRACES = (0.0, -0.0, 0.7, 1.0)

    def _grid(self):
        return np.array(list(itertools.product(self.COMPONENTS, repeat=3)))

    def test_matches_the_pauli_sum_bit_for_bit(self, rng):
        grid = self._grid()
        for t in self.TRACES:
            assert _same_bits(_operators(t, grid), _pauli_sum(t, grid)), t
            ts = np.full(len(grid), t)
            assert _same_bits(_operators(ts, grid), _pauli_sum(ts, grid)), t
        scale = 10.0 ** rng.integers(-300, 300, (500, 4))
        t, v = rng.standard_normal(500) * scale[:, 0], rng.standard_normal((500, 3)) * scale[:, 1:]
        assert _same_bits(_operators(t, v), _pauli_sum(t, v))
        # one matrix, and broadcasting between t and the vectors
        assert _same_bits(_operators(0.7, [0.1, -0.0, 0.3]), _pauli_sum(0.7, [0.1, -0.0, 0.3]))
        t, v = rng.random((2, 3)), rng.standard_normal((2, 1, 3))
        assert _same_bits(_operators(t, v), _pauli_sum(t, v))
        assert _operators(t, v).shape == (2, 3, 2, 2)

    def test_exactly_hermitian(self):
        grid = self._grid()
        for t in self.TRACES:
            m = _operators(t, grid)
            assert np.array_equal(m, m.conj().swapaxes(-1, -2)), t
        # for t > 0 (K, the complementary states and the POVM elements of the
        # qubit solver) and for the zero element, the symmetrization of a
        # Hermitian check would not change one bit; halving a subnormal can
        # round to zeros of opposite signs, which it would make +0
        normal = grid[~np.any(np.abs(grid) == 5e-324, axis=1)]
        for t, v in [(0.7, normal), (1.0, normal), (0.0, np.zeros(3))]:
            m = _operators(t, v)
            assert _same_bits(_symmetrized(m), m), t


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


# Signed zeros, subnormals, values near the float maximum, infinities and NaN.
_SPECIAL = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1e300, -1e300, math.inf, -math.inf, math.nan]
)
_ENTRY = st.one_of(_SPECIAL, st.floats())


def _hex(a) -> tuple:
    """The shape and the .hex() of every element: bit for bit, signed zeros included."""
    a = np.asarray(a)
    return a.shape, [float(v).hex() for v in a.ravel().tolist()]


def _bloch_vectors_reference(matrices):
    """_bloch_vectors in its former np.stack form."""
    m01, m10 = matrices[..., 0, 1], matrices[..., 1, 0]
    return np.stack(
        [
            m01.real + m10.real,
            m10.imag - m01.imag,
            matrices[..., 0, 0].real - matrices[..., 1, 1].real,
        ],
        axis=-1,
    )


def _eigvalsh_2x2_reference(matrix):
    """The 2 x 2 branch of _eigvalsh in its former np.stack form."""
    m = np.asarray(matrix)
    a = m[..., 0, 0].real / 2.0
    d = m[..., 1, 1].real / 2.0
    mean = a + d
    radius = np.hypot(a - d, np.abs(m[..., 1, 0]))
    return np.stack((mean + radius, mean - radius), axis=-1)


# a single matrix, a stack of N and an empty stack
_QUBIT_SHAPES = st.one_of(st.just((2, 2)), st.integers(0, 6).map(lambda n: (n, 2, 2)))


class TestReplacedWrappersBitForBit:
    """The request path calls the ufuncs and ndarray methods that numpy's
    Python-level wrappers dispatch to; each replacement computes their bits."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=arrays(float, array_shapes(min_dims=1, max_dims=3, min_side=0), elements=_ENTRY))
    def test_row_norms_match_linalg_norm(self, x):
        with np.errstate(all="ignore"):
            assert _hex(_row_norms(x)) == _hex(np.linalg.norm(x, axis=-1))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(matrices=_QUBIT_SHAPES.flatmap(
        lambda shape: arrays(complex, shape, elements=st.builds(complex, _ENTRY, _ENTRY))
    ))
    def test_bloch_vectors_match_the_stacked_form(self, matrices):
        with np.errstate(all="ignore"):
            assert _hex(_bloch_vectors(matrices)) == _hex(_bloch_vectors_reference(matrices))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(shape=_QUBIT_SHAPES, data=st.data())
    def test_closed_form_eigenvalues_match_the_stacked_form(self, shape, data):
        # finite spectra only: a non-finite one raises ConvergenceError
        entry = st.one_of(_SPECIAL.filter(math.isfinite), st.floats(-1e300, 1e300))
        if len(shape) == 2:
            matrices = data.draw(_hermitian_2x2())
        else:
            matrices = np.zeros(shape, dtype=complex)
            for m in matrices:
                m[0, 0], m[1, 1] = data.draw(entry), data.draw(entry)
                m[1, 0] = complex(data.draw(entry), data.draw(entry))
                m[0, 1] = m[1, 0].conjugate()
        with np.errstate(all="ignore"):
            expected = _eigvalsh_2x2_reference(matrices)
        if not np.isfinite(expected).all():
            with pytest.raises(ConvergenceError):
                _eigvalsh(matrices)
            return
        assert _hex(_eigvalsh(matrices)) == _hex(expected)


class TestDecompositionCounts:
    """Counts matrices decomposed (the product of the leading dimensions of
    each argument) and LAPACK calls, stage by stage, separately for
    numpy.linalg.eigh and the values-only numpy.linalg.eigvalsh."""

    @staticmethod
    def _counter(monkeypatch):
        """Count both drivers: returns stage(fn, *args) -> (result, counts), and
        the matrices each driver was given in the last stage, by driver name."""
        seen = {"eigh": [], "eigvalsh": []}

        def counting(name):
            real = getattr(np.linalg, name)

            def driver(matrix):
                seen[name].append(np.array(matrix))
                return real(matrix)

            monkeypatch.setattr(np.linalg, name, driver)

        def stage(fn, *args):
            for recorded in seen.values():
                recorded.clear()
            result = fn(*args)
            counts = {
                name: (sum(math.prod(m.shape[:-2]) for m in recorded), len(recorded))
                for name, recorded in seen.items()
            }
            return result, counts

        counting("eigh")
        counting("eigvalsh")
        return stage, seen

    @classmethod
    def _stages(cls, monkeypatch, doc):
        stage, _ = cls._counter(monkeypatch)
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
        # solver, in one stacked call: two POVM elements, two gaps, two legacy
        # operator conditions
        assert verify == {"eigh": (0, 0), "eigvalsh": (6, 1)}

    @pytest.mark.parametrize("equal_priors", [False, True])
    def test_qubit_stacks_one_lapack_call_per_layer(self, monkeypatch, equal_priors):
        n = 39
        doc = ensemble_to_json(random_ensemble(2, n, pure=False, seed=39))
        if equal_priors:
            doc["priors"] = [1.0 / n] * n
        parse, solve_counts, verify = self._stages(monkeypatch, json.loads(json.dumps(doc)))
        # every qubit spectrum has a closed form: the parse reads each state's
        # Bloch vector, the solve's complementary states come from the dual,
        # and the POVM check and the certificate's one stacked spectrum are
        # 2 x 2 eigenvalues, so a qubit request reaches no LAPACK driver at all
        nothing = {"eigh": (0, 0), "eigvalsh": (0, 0)}
        assert parse == solve_counts == verify == nothing

    def test_steering_generate_decomposes_k_twice(self, monkeypatch):
        # one spectrum checks K's positivity and purify takes the other; the
        # normalized K is built from data already checked, not checked again
        rng = np.random.default_rng(8)
        k = random_ensemble(8, 1, pure=False, seed=8).matrices[0] * 0.7
        vectors = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        measurements = [SteeringMeasurement(np.outer(v, v.conj())) for v in vectors]
        stage, seen = self._counter(monkeypatch)
        stage(generate_from_symmetry_operator, k, measurements)
        normalized = k / np.trace(k).real
        of_k = [
            name for name, recorded in seen.items() for m in recorded
            if m.shape == k.shape and (np.allclose(m, k) or np.allclose(m, normalized))
        ]
        assert sorted(of_k) == ["eigh", "eigvalsh"]


class TestStackedTuples:
    """Ensembles, complementary sets and solutions store stacks; their tuples are built lazily."""

    def test_request_path_builds_no_per_state_wrapper(self, monkeypatch):
        n = 1000
        doc = json.loads(json.dumps(ensemble_to_json(random_ensemble(2, n, pure=False, seed=5))))
        wrapped, built = [], []
        real_wrap = operators._wrap

        def counting_wrap(stack, cls=HermitianOperator):
            if cls is HermitianOperator:
                wrapped.append(len(stack))
            return real_wrap(stack, cls)

        def counting_init(cls):
            real_init = cls.__init__

            def init(self, *args, **kwargs):
                built.append(cls.__name__)
                real_init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)

        for module in (operators, solve_module):
            monkeypatch.setattr(module, "_wrap", counting_wrap)
        counting_init(HermitianOperator)
        counting_init(DensityOperator)
        ensemble = ensemble_from_json(doc)
        sol = solve(ensemble)
        out = solution_to_json(sol)
        assert len(out["povm"]) == len(out["complementary"]) == n
        assert wrapped == []
        assert built == []  # K too is built in closed form and wrapped unchecked

        # the povm tuple is wrapped from the stack once, on first access
        assert verify_kkt(ensemble, sol.symmetry_op, sol.povm).passed
        assert wrapped == [n]
        assert sol.povm is sol.povm and wrapped == [n]
        assert built == []
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

    def test_wrapped_tuples_keep_their_stack(self):
        e = random_ensemble(2, 12, pure=False, seed=3)
        sol = solve(e)
        assert isinstance(sol.povm, tuple) and len(sol.povm) == 12
        # verify_kkt reads the POVM stack back instead of stacking 12 wrappers
        assert certify._povm_stack(e, sol.povm) is sol.povm_matrices
        assert type(sol.povm + (sol.povm[0],)) is tuple and type(sol.povm[1:]) is tuple
        # a plain tuple of the same operators is stacked anew, to equal values
        restacked = _matrix_stack(tuple(sol.povm))
        assert restacked is not sol.povm_matrices
        assert np.array_equal(restacked, sol.povm_matrices)

    def test_parsed_states_hand_back_the_ensemble_stack(self):
        e = random_ensemble(3, 4, pure=False, seed=4)
        for doc in (ensemble_to_json(e), ensemble_to_json(random_ensemble(2, 5, True, seed=4))):
            parsed = ensemble_from_json(json.loads(json.dumps(doc)))
            assert all(isinstance(s, DensityOperator) for s in parsed.states)
            assert _matrix_stack(parsed.states) is parsed.matrices
            assert all(np.shares_memory(s.matrix, parsed.matrices) for s in parsed.states)

    def test_reconstructed_povm_is_a_tuple_that_keeps_its_stack(self):
        e = random_ensemble(3, 2, pure=False, seed=6)
        sol = solve(e)
        povm = solve_module.reconstruct_povm(e, sol.complementary)
        assert isinstance(povm, tuple) and len(povm) == 2
        assert all(type(m) is HermitianOperator for m in povm)
        # the stack is handed back, not stacked anew from the operators
        stack = _matrix_stack(povm)
        assert _matrix_stack(povm) is stack and not stack.flags.writeable
        assert np.array_equal(stack, np.stack([m.matrix for m in povm]))
        assert verify_kkt(e, sol.symmetry_op, povm).passed

    def test_solution_constructor_takes_operators(self):
        sol = solve(random_ensemble(2, 4, pure=True, seed=2))
        built = DiscriminationSolution(sol.ensemble, sol.symmetry_op, list(sol.povm))
        assert all(isinstance(m, HermitianOperator) for m in built.povm)
        assert np.array_equal(built.povm_matrices, sol.povm_matrices)
        lowered = dataclasses.replace(sol, symmetry_op=np.eye(2) / 2)
        assert np.array_equal(lowered.povm_matrices, sol.povm_matrices)
        with pytest.raises(ValueError, match=r"^povm\[0\]: matrix is not Hermitian"):
            DiscriminationSolution(sol.ensemble, sol.symmetry_op, [PAULI_X * 1j] * 4)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_ensemble(2, 3, pure=False, seed=7),
            lambda: solve(random_ensemble(2, 3, pure=False, seed=7)).complementary,
            lambda: solve(random_ensemble(2, 3, pure=False, seed=7)),
        ],
        ids=["WeightedEnsemble", "ComplementarySet", "DiscriminationSolution"],
    )
    def test_a_missing_attribute_names_its_class_and_builds_nothing(self, build):
        obj = build()
        before = dict(vars(obj))
        assert not hasattr(obj, "nope")
        with pytest.raises(AttributeError) as info:
            obj.nope
        name = type(obj).__name__
        assert str(info.value) == f"'{name}' object has no attribute 'nope'"
        assert vars(obj).keys() == before.keys()

    def test_spectra_of_a_set_without_present_states_are_empty_stacks(self):
        comp = solve_module.ComplementarySet([0.0, 0.5], [None, None])
        spectra = comp.spectra
        assert comp.matrices.shape == (0, 0, 0)
        assert spectra.eigenvalues.shape == (0, 0)
        assert spectra.eigenvectors.shape == (0, 0, 0)
        assert spectra.eigenvectors.dtype == complex
        assert not spectra.eigenvalues.flags.writeable
        assert not spectra.eigenvectors.flags.writeable
