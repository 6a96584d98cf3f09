"""Complex Hermitian linear algebra for small dense matrices.

Everything downstream (Bloch geometry, solvers, certificates, generators)
is built on the types and operations here: validated Hermitian and density
operators, a LAPACK eigensolver with a deterministic order and phase
convention, trace norm, positivity tests, purification and partial trace.

Matrices are stored as immutable ``numpy`` arrays of ``complex128``.
Dimensions in scope are small (<= 64). Each operator should be
diagonalized once: the helpers that need several spectral quantities of
one matrix take them from a single decomposition. Validation, the
eigensolver and the rebuild of states from a spectrum take stacks
(..., d, d), so per-state work over an ensemble is one LAPACK call per
layer; a single matrix is a stack of one. The eigenvalues of 2 x 2
matrices (_eigvalsh) have a closed form that calls no LAPACK, so with the
closed-form qubit parse (serialize) a qubit request makes no LAPACK call.
Collections of operators are stored as such stacks (_matrix_stack builds
one); their wrapper tuples are built from the stack on first access
(_wrap_hermitian, _wrap_density).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-10
MAX_DIM = 64


def _as_matrix(operator) -> np.ndarray:
    """Raw complex matrix of an operator, accepting wrappers or arrays."""
    if isinstance(operator, (HermitianOperator, DensityOperator)):
        return operator.matrix
    return np.asarray(operator, dtype=complex)


def _matrix_stack(ops, what: str = "matrices") -> np.ndarray:
    """Operators or matrices as one stack (N, d, d); an ndarray passes through unchanged.

    An empty sequence gives (0, 0, 0); differing shapes raise "<what> must share one dimension".
    """
    if isinstance(ops, np.ndarray):
        return ops
    matrices = [_as_matrix(m) for m in ops]
    if len({m.shape for m in matrices}) > 1:
        dims = sorted({n for m in matrices for n in m.shape})
        raise ValueError(f"{what} must share one dimension, got {dims}")
    return np.stack(matrices) if matrices else np.zeros((0, 0, 0), dtype=complex)


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


def _frozen_real(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=float)
    out.setflags(write=False)
    return out


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """Frozen H/2 + H†/2 of a stack; halving first keeps huge entries finite."""
    out = m / 2.0 + m.conj().swapaxes(-1, -2) / 2.0
    out.setflags(write=False)
    return out


def _hermitian_stack(matrices, field: str | None = None) -> np.ndarray:
    """Validate a stack (..., d, d) of Hermitian matrices and symmetrize it.

    Every matrix must be square of dimension 1..MAX_DIM, finite, and
    Hermitian to 1e-12 in max norm. The first defective matrix raises
    ValueError; with a field such as "states[{}]" the message is prefixed
    by the field formatted with that matrix's index in the stack.
    """
    m = np.asarray(matrices, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    d = m.shape[-1]
    if not (1 <= d <= MAX_DIM):
        raise ValueError(f"dimension {d} outside supported range 1..{MAX_DIM}")

    def reject(index: int, message: str) -> ValueError:
        return ValueError(message if field is None else f"{field.format(index)}: {message}")

    flat = m.reshape(-1, d, d)
    finite = np.isfinite(flat.real).all(axis=(1, 2)) & np.isfinite(flat.imag).all(axis=(1, 2))
    if not finite.all():
        raise reject(int(np.argmin(finite)), "matrix entries must be finite")
    asym = np.max(np.abs(flat - flat.conj().swapaxes(1, 2)), axis=(1, 2))
    if np.any(asym > HERMITICITY_TOL):
        i = int(np.argmax(asym > HERMITICITY_TOL))
        raise reject(i, f"matrix is not Hermitian: asymmetry {asym[i]:.3e} > {HERMITICITY_TOL}")
    return _symmetrized(m)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dim x dim complex matrix equal to its conjugate transpose.

    The constructor symmetrizes H/2 + H†/2 when the asymmetry is below
    1e-12 in max norm and rejects anything worse, so silent drift away
    from Hermiticity cannot accumulate. Halving before the sum keeps
    entries near the float maximum finite.
    """

    matrix: np.ndarray

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", _hermitian_stack(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A quantum state: Hermitian, positive semidefinite, unit trace."""

    op: HermitianOperator

    def __init__(self, op) -> None:
        if not isinstance(op, HermitianOperator):
            op = HermitianOperator(op)
        tr = op.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density operator must have trace 1, got {tr!r}")
        smallest = float(_eigvalsh(op.matrix)[-1])
        if smallest < -PSD_TOL:
            raise ValueError(f"density operator has negative eigenvalue {smallest:.3e}")
        object.__setattr__(self, "op", op)

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dim(self) -> int:
        return self.op.dim


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) and orthonormal eigenvector columns.

    Either of one matrix or, matrix by matrix, of a stack (..., d, d).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class PureBipartiteState:
    """A unit vector on a dimA x dimB product space, A-major ordering."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __init__(self, dim_a: int, dim_b: int, amplitudes) -> None:
        if dim_a < 1 or dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amp.size != dim_a * dim_b:
            raise ValueError(f"expected {dim_a * dim_b} amplitudes, got {amp.size}")
        if not np.all(np.isfinite(amp.real)) or not np.all(np.isfinite(amp.imag)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes must have unit norm, got {norm!r}")
        object.__setattr__(self, "dim_a", int(dim_a))
        object.__setattr__(self, "dim_b", int(dim_b))
        object.__setattr__(self, "amplitudes", _frozen(amp))


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each column real positive.

    Works on stacks (..., d, d) of eigenvector columns, matrix by matrix.
    """
    mags = np.abs(v)
    rows = np.argmax(mags > 1e-8, axis=-2)[..., None, :]
    pivots = np.take_along_axis(v, rows, axis=-2)
    sizes = np.take_along_axis(mags, rows, axis=-2)
    phases = np.ones_like(pivots)
    nonzero = sizes > 0
    phases[nonzero] = np.conj(pivots[nonzero]) / sizes[nonzero]
    return v * phases


def _lapack(driver, matrix) -> tuple[np.ndarray, ...]:
    """A ``numpy.linalg`` Hermitian driver's outputs (values ascending), as a tuple.

    LAPACK failures and non-finite outputs raise ConvergenceError.
    """
    try:
        out = driver(np.asarray(matrix, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    out = tuple(out) if isinstance(out, tuple) else (out,)
    if not all(np.all(np.isfinite(part)) for part in out):
        raise ConvergenceError("eigendecomposition returned non-finite values")
    return out


def _eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK diagonalization of a Hermitian matrix or stack (..., d, d).

    A stack is one ``numpy.linalg.eigh`` call. Returns eigenvalues sorted
    descending and the matching eigenvector columns, per matrix, with a
    deterministic phase convention. Equal eigenvalues keep the order
    LAPACK returns them in (a stable sort, not a reversal of the
    ascending output). Raises ConvergenceError when LAPACK fails or
    returns non-finite values, which signals pathological input.
    """
    values, vectors = _lapack(np.linalg.eigh, matrix)
    order = np.argsort(-values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[..., None, :], axis=-1)
    return values, _fix_phases(vectors)


def _eigvalsh(matrix) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix or stack, descending.

    Checks that read only a spectrum use it. A 2 x 2 matrix [[a, b*], [b, d]]
    (read from its lower triangle, as LAPACK reads it) has the closed form
    mean +- radius with mean = a/2 + d/2 and radius = hypot(a/2 - d/2, |b|);
    halving first keeps entries near the float maximum finite, and a
    non-finite result raises ConvergenceError as _lapack does. Any other
    dimension is one call to LAPACK's values-only driver
    (``numpy.linalg.eigvalsh``), which skips the eigenvectors. Either may
    differ from _eigh's values in the last bits.
    """
    m = np.asarray(matrix)
    if m.shape[-2:] != (2, 2):
        return _lapack(np.linalg.eigvalsh, m)[0][..., ::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        a = m[..., 0, 0].real / 2.0
        d = m[..., 1, 1].real / 2.0
        mean = a + d
        radius = np.hypot(a - d, np.abs(m[..., 1, 0]))
        values = np.stack((mean + radius, mean - radius), axis=-1)
    if not np.isfinite(values).all():
        raise ConvergenceError("eigendecomposition returned non-finite values")
    return values


def hermitian_eigen(operator) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian operator.

    Deterministic for a fixed input: eigenvalues come out descending and
    each eigenvector's first non-negligible component is real positive.
    """
    values, vectors = _eigh(_as_matrix(operator))
    return SpectralDecomposition(_frozen_real(values), _frozen(vectors))


def trace_norm(operator) -> float:
    """Sum of absolute eigenvalues; equals trace(H) for PSD H."""
    return float(np.sum(np.abs(_eigvalsh(_as_matrix(operator)))))


def is_psd(operator, tol: float = PSD_TOL) -> bool:
    """True when the smallest eigenvalue is at least -tol."""
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    return float(_eigvalsh(_as_matrix(operator))[-1]) >= -tol


def _negative_part_and_projector(values, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Negative part and non-negative eigenprojector of a matrix, from its _eigh spectrum."""
    neg = np.minimum(values, 0.0)
    keep = vectors[:, values >= 0.0]
    return (vectors * (-neg)) @ vectors.conj().T, keep @ keep.conj().T


def negative_part(operator) -> np.ndarray:
    """PSD matrix built from the negative eigenspace: sum of -lambda v v†."""
    return _negative_part_and_projector(*_eigh(_as_matrix(operator)))[0]


def nonnegative_eigenprojector(operator) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with lambda >= 0."""
    return _negative_part_and_projector(*_eigh(_as_matrix(operator)))[1]


def _wrap_hermitian(stack: np.ndarray) -> tuple[HermitianOperator, ...]:
    """Wrap each matrix of a frozen, already symmetrized stack, unchecked."""
    ops = []
    for m in stack:
        op = object.__new__(HermitianOperator)
        object.__setattr__(op, "matrix", m)
        ops.append(op)
    return tuple(ops)


def _hermitian_operators(matrices) -> tuple[HermitianOperator, ...]:
    """HermitianOperators for a stack (N, d, d), validated in one pass."""
    return _wrap_hermitian(_hermitian_stack(matrices))


def _wrap_density(stack: np.ndarray) -> tuple[DensityOperator, ...]:
    """Wrap each matrix of a frozen stack already built as states, unchecked."""
    states = []
    for op in _wrap_hermitian(stack):
        rho = object.__new__(DensityOperator)
        object.__setattr__(rho, "op", op)
        states.append(rho)
    return tuple(states)


def _state_stack(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Frozen states (N, d, d) rebuilt from known spectra: values (N, d), vectors (N, d, d).

    Callers reject eigenvalues below their own noise floor first; the
    rest of the negative noise is clipped to zero and each rebuilt matrix
    normalized to unit trace. That makes every state Hermitian, unit
    trace and PSD by construction, so the stack is wrapped as states
    (_wrap_density) without being validated or diagonalized again.
    """
    clipped = np.maximum(values, 0.0)
    rebuilt = (vectors * clipped[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
    rebuilt = rebuilt / np.trace(rebuilt, axis1=-2, axis2=-1).real[..., None, None]
    return _symmetrized(rebuilt)


def purify(rho: DensityOperator) -> PureBipartiteState:
    """Pure state on A tensor B whose partial trace over A recovers rho.

    Built in the eigenbasis with amplitudes sqrt(lambda_i) and zero
    phases: psi = sum_i sqrt(lambda_i) |i>_A |v_i>_B.
    """
    values, vectors = _eigh(rho.matrix)
    d = rho.dim
    weights = np.sqrt(np.maximum(values, 0.0))
    amp = np.zeros((d, d), dtype=complex)
    for i in range(d):
        amp[i, :] = weights[i] * vectors[:, i]
    amp = amp.reshape(-1)
    amp = amp / np.linalg.norm(amp)
    return PureBipartiteState(d, d, amp)


def partial_trace(state: PureBipartiteState, subsystem: str) -> HermitianOperator:
    """Reduced operator of a pure bipartite state, tracing out A or B."""
    psi = state.amplitudes.reshape(state.dim_a, state.dim_b)
    if subsystem == "A":
        reduced = psi.T @ psi.conj()
    elif subsystem == "B":
        reduced = psi @ psi.conj().T
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return HermitianOperator(reduced)
