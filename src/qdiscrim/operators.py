"""Complex Hermitian linear algebra for small dense matrices.

Everything downstream (Bloch geometry, solvers, certificates, generators)
is built on the types and operations here: validated Hermitian operators
(a state is one), a LAPACK eigensolver with a deterministic order and phase
convention, trace norm, positivity tests, purification and partial trace.

Matrices are stored as read-only ``numpy`` arrays of ``complex128``: one
setter, _store, sets every stored field and freezes its arrays in place,
also in a copy or an unpickled instance (_Frozen); module-level arrays are
frozen where they are defined (_constant).
Dimensions in scope are small (<= 64). Each operator should be
diagonalized once: the helpers that need several spectral quantities of
one matrix take them from a single decomposition. Validation, the
eigensolver and the rebuild of states from a spectrum take stacks
(..., d, d), so per-state work over an ensemble is one LAPACK call per
layer; a single matrix is a stack of one. The eigenvalues of 2 x 2
matrices (_eigvalsh) have a closed form that calls no LAPACK, so with the
closed-form qubit parse (serialize) a qubit request makes no LAPACK call.
Per-request code calls ufuncs and ndarray methods, not numpy's
Python-level wrappers (np.linalg.norm, np.stack, np.moveaxis, np.max,
np.sum, np.trace, np.flatnonzero, ...), which cost more than the
arithmetic on qubit-sized arrays; each replacement is the call the
wrapper dispatches to, on the same operands, and computes the same bits
(_row_norms for np.linalg.norm along an axis, writes with out= into one
np.empty for np.stack).
Collections of operators are stored as such stacks (_matrix_stack builds
one); their tuples of operators or states are built from the stack on
first access (_wrap, which freezes the stack), and every such tuple keeps its stack, which
_matrix_stack hands back without stacking it again.

Input is validated where it enters the package, by one rule per kind:
- object (_expect): an ensemble, a solution, a table, ...; TypeError;
- count (_count): a dimension, a size; a seed (_seed) is one that is not negative;
- real scalar (_real_scalar): a tolerance, a resolution, a target value;
- real array (_real_array): vectors, weights, a JSON matrix's re and im;
- probability vector (_priors): priors and shifts, summing to 1;
- bounded entries: where a rule bounds every entry (a unit or Bloch
  vector, amplitudes, POVM weights), an entry beyond it is rejected
  before the norm or sum, which so cannot overflow;
- Hermitian stack (_hermitian_stack): an operator in a public constructor
  or function (_as_matrix) or the JSON parse; an instance of the class
  being built is taken as it is;
- measurement (solve._povm_stack): POVM elements, with no Hermitian
  check: the certificate's residuals judge them.
What the package builds from data it knows is valid is built unchecked by
_trusted (a stack's tuple by _wrap); the checks that can fail on it
still run (solve._assemble). _store and _wrap freeze only arrays that
the package built or copied, never an array a caller passed in.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-10
MAX_DIM = 64


def _as_matrix(operator) -> np.ndarray:
    """The matrix of an operator; a raw matrix is validated as HermitianOperator validates it."""
    if isinstance(operator, HermitianOperator):
        return operator.matrix
    return HermitianOperator(operator).matrix


def _complex_array(value, what: str = "matrix") -> np.ndarray:
    """value as a complex array; ragged rows or an entry that is not a number raise ValueError."""
    try:
        return np.asarray(value, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} is not a rectangular array of numbers") from None


def _real_array(value, what: str) -> np.ndarray:
    """value as a new float array; ragged rows or an entry not an int or float raise ValueError."""
    try:
        out = np.array(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out.dtype.kind not in "iuf":
        raise ValueError(f"{what} is not a rectangular array of real numbers")
    return out.astype(float, copy=False)


def _priors(values, size: int, what: str) -> np.ndarray:
    """size probabilities as a new float array: positive, at most 1, summing to 1 within 1e-10."""
    q = _real_array(values, what).reshape(-1)
    if len(q) != size or size == 0:
        raise ValueError(f"{what} and states must be non-empty and of equal length")
    if not ((q > 0) & (q <= 1.0 + 1e-10)).all():  # NaN and inf too; so the sum cannot overflow
        raise ValueError(f"{what} must be strictly positive and at most 1")
    if abs(float(q.sum()) - 1.0) > 1e-10:
        raise ValueError(f"{what} must sum to 1, got {float(q.sum())!r}")
    return q


def _count(value, name: str) -> int:
    """An integer argument as an int; a bool or any other type raises ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _seed(value) -> int:
    """A seed of numpy's generator as an int: a count (_count) that is not negative."""
    seed = _count(value, "seed")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return seed


def _expect(value, cls) -> None:
    """Raise TypeError naming cls unless value is one: the check of a package-object argument."""
    if not isinstance(value, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(value).__name__}")


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of a real array, np.linalg.norm's bits."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _matrix_stack(ops, what: str = "matrices") -> np.ndarray:
    """Operators or matrices as one stack (N, d, d); an ndarray passes through unchanged.

    So does the stack that a tuple from _wrap wraps. Raw matrices are read
    unchecked but for _complex_array. An empty sequence gives (0, 0, 0);
    differing shapes raise "<what> must share one dimension".
    """
    if isinstance(ops, np.ndarray):
        return ops
    if isinstance(ops, _StackTuple):
        return ops.stack
    raw = [m.matrix if isinstance(m, HermitianOperator) else m for m in ops]
    matrices = [_complex_array(m, f"{what}[{i}]") for i, m in enumerate(raw)]
    if len({m.shape for m in matrices}) > 1:
        dims = sorted({n for m in matrices for n in m.shape})
        raise ValueError(f"{what} must share one dimension, got {dims}")
    return np.stack(matrices) if matrices else np.zeros((0, 0, 0), dtype=complex)


def _store(obj, **fields):
    """The one setter of obj's fields; it freezes every ndarray in place, so pass only our own."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _constant(array: np.ndarray) -> np.ndarray:
    """A module-level array, frozen where it is defined."""
    array.setflags(write=False)
    return array


def _lazy_field(obj, name: str, field: str, build):
    """The one __getattr__ of a lazy field: build() stored through _store; other names raise."""
    if name != field:
        raise AttributeError(f"{type(obj).__name__!r} object has no attribute {name!r}")
    value = build()
    _store(obj, **{field: value})
    return value


class _Frozen:
    """Base of every type that stores arrays: copies and unpickled ones set them by _store."""

    def __setstate__(self, state: dict) -> None:
        _store(self, **state)


def _trusted(cls, **fields):
    """The one builder of what the package knows is valid: cls with these fields, unchecked."""
    return _store(object.__new__(cls), **fields)


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
    finite = np.isfinite(flat).all(axis=(1, 2))
    if not finite.all():
        raise reject(int(np.argmin(finite)), "matrix entries must be finite")
    asym = abs(flat - flat.conj().swapaxes(1, 2)).max(axis=(1, 2))
    if (asym > HERMITICITY_TOL).any():
        i = int(np.argmax(asym > HERMITICITY_TOL))
        raise reject(i, f"matrix is not Hermitian: asymmetry {asym[i]:.3e} > {HERMITICITY_TOL}")
    return _symmetrized(m)


@dataclass(frozen=True, eq=False)
class HermitianOperator(_Frozen):
    """A dim x dim complex matrix equal to its conjugate transpose.

    The constructor symmetrizes H/2 + H†/2 when the asymmetry is below
    1e-12 in max norm and rejects anything worse, so silent drift away
    from Hermiticity cannot accumulate. Halving before the sum keeps
    entries near the float maximum finite. A HermitianOperator argument
    is taken as validated: the new operator shares its matrix.
    """

    matrix: np.ndarray

    def __init__(self, matrix) -> None:
        if isinstance(matrix, HermitianOperator):
            _store(self, matrix=matrix.matrix)
            return
        m = _complex_array(matrix)
        if m.ndim != 2:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        _store(self, matrix=_hermitian_stack(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(self.matrix.trace().real)


@dataclass(frozen=True, eq=False)
class DensityOperator(HermitianOperator):
    """A quantum state: a Hermitian operator that is positive semidefinite with unit trace.

    A HermitianOperator argument is taken as validated Hermitian and a
    DensityOperator argument as a validated state, which runs no check.
    """

    def __init__(self, matrix) -> None:
        super().__init__(matrix)
        if isinstance(matrix, DensityOperator):
            return
        with np.errstate(over="ignore"):  # a state's entries are at most 1: inf is rejected below
            tr = self.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density operator must have trace 1, got {tr!r}")
        smallest = float(_eigvalsh(self.matrix)[-1])
        if smallest < -PSD_TOL:
            raise ValueError(f"density operator has negative eigenvalue {smallest:.3e}")


@dataclass(frozen=True, eq=False)
class SpectralDecomposition(_Frozen):
    """Eigenvalues (descending) and orthonormal eigenvector columns.

    Either of one matrix or, matrix by matrix, of a stack (..., d, d).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class PureBipartiteState(_Frozen):
    """A unit vector on a dimA x dimB product space, A-major ordering."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __init__(self, dim_a: int, dim_b: int, amplitudes) -> None:
        dim_a, dim_b = _count(dim_a, "dim_a"), _count(dim_b, "dim_b")
        if dim_a < 1 or dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")
        if dim_a > MAX_DIM or dim_b > MAX_DIM:  # each partial trace is a HermitianOperator
            raise ValueError(f"subsystem dimensions must be at most {MAX_DIM}")
        amp = np.array(_complex_array(amplitudes, "amplitudes")).reshape(-1)
        if amp.size != dim_a * dim_b:
            raise ValueError(f"expected {dim_a * dim_b} amplitudes, got {amp.size}")
        if not np.all(np.isfinite(amp.real)) or not np.all(np.isfinite(amp.imag)):
            raise ValueError("amplitudes must be finite")
        if (abs(amp) > 1 + NORM_TOL).any():  # so the norm cannot overflow
            raise ValueError("amplitudes must have unit norm")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes must have unit norm, got {norm!r}")
        _store(self, dim_a=dim_a, dim_b=dim_b, amplitudes=amp)


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each column real positive.

    Works on stacks (..., d, d) of unit eigenvector columns, matrix by
    matrix. A unit column in d <= MAX_DIM has a component of at least
    1/8, far above the 1e-8 threshold, so every column has a pivot.
    """
    mags = np.abs(v)
    rows = np.argmax(mags > 1e-8, axis=-2)[..., None, :]
    pivots = np.take_along_axis(v, rows, axis=-2)
    sizes = np.take_along_axis(mags, rows, axis=-2)
    return v * (np.conj(pivots) / sizes)


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
    ascending output). Without equal eigenvalues that sort is the
    reversal, taken as reversed views. Raises ConvergenceError when LAPACK
    fails or returns non-finite values, which signals pathological input.
    """
    values, vectors = _lapack(np.linalg.eigh, matrix)
    if (values[..., 1:] > values[..., :-1]).all():
        values, vectors = values[..., ::-1], vectors[..., ::-1]
    else:
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
        values = np.empty(mean.shape + (2,))
        np.add(mean, radius, out=values[..., 0])
        np.subtract(mean, radius, out=values[..., 1])
    if not np.isfinite(values).all():
        raise ConvergenceError("eigendecomposition returned non-finite values")
    return values


def hermitian_eigen(operator) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian operator.

    Deterministic for a fixed input: eigenvalues come out descending and
    each eigenvector's first non-negligible component is real positive.
    """
    values, vectors = _eigh(_as_matrix(operator))
    return _trusted(SpectralDecomposition, eigenvalues=values, eigenvectors=vectors)


def trace_norm(operator) -> float:
    """Sum of absolute eigenvalues; equals trace(H) for PSD H."""
    return float(np.sum(np.abs(_eigvalsh(_as_matrix(operator)))))


def _real_scalar(value, stem: str, low: float = -math.inf) -> float:
    """A finite real number, at least low, as a float; else ValueError starting with stem.

    A bool, an array or an int beyond the float range is rejected too.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{stem}, got {value!r}, not a real number")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not (value >= low and math.isfinite(value)):
        raise ValueError(f"{stem}, got {value!r}")
    return value


def _check_tolerance(tol) -> float:
    """A tolerance as a float: a real number (_real_scalar), non-negative."""
    return _real_scalar(tol, "tolerance must be finite and non-negative", 0.0)


def is_psd(operator, tol: float = PSD_TOL) -> bool:
    """True when the smallest eigenvalue is at least -tol."""
    tol = _check_tolerance(tol)
    return float(_eigvalsh(_as_matrix(operator))[-1]) >= -tol


def _negative_part_and_projector(values, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Negative part and non-negative eigenprojector of a matrix, from its _eigh spectrum."""
    neg = np.minimum(values, 0.0)
    keep = vectors[:, values >= 0.0]
    return (vectors * (-neg)) @ vectors.conj().T, keep @ keep.conj().T


class _StackTuple(tuple, _Frozen):
    """A tuple of the operators (or states) of a stack's matrices that keeps the stack.

    It is a tuple in every other respect; concatenation and slicing give
    plain tuples.
    """

    stack: np.ndarray


def _wrap(stack: np.ndarray, cls=HermitianOperator) -> tuple[HermitianOperator, ...]:
    """Freeze a stack of valid cls matrices and wrap each matrix, unchecked, keeping the stack."""
    stack.setflags(write=False)
    ops = []
    for m in stack:  # _store inlined: its keyword form costs more per element
        op = object.__new__(cls)
        object.__setattr__(op, "matrix", m)
        ops.append(op)
    ops = _StackTuple(ops)
    ops.stack = stack
    return ops


def _state_stack(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Frozen states (N, d, d) rebuilt from known spectra: values (N, d), vectors (N, d, d).

    Callers reject eigenvalues below their own noise floor first; the
    rest of the negative noise is clipped to zero and each rebuilt matrix
    normalized to unit trace. That makes every state Hermitian, unit
    trace and PSD by construction, so the stack is wrapped as states
    (_wrap with DensityOperator) without being validated or diagonalized again.
    """
    clipped = np.maximum(values, 0.0)
    rebuilt = (vectors * clipped[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
    rebuilt = rebuilt / np.trace(rebuilt, axis1=-2, axis2=-1).real[..., None, None]
    return _symmetrized(rebuilt)


def purify(rho) -> PureBipartiteState:
    """Pure state on A tensor B whose partial trace over A recovers the state rho.

    Built in the eigenbasis with amplitudes sqrt(lambda_i) and zero
    phases: psi = sum_i sqrt(lambda_i) |i>_A |v_i>_B.
    """
    rho = DensityOperator(rho)
    values, vectors = _eigh(rho.matrix)
    amp = (vectors * np.sqrt(np.maximum(values, 0.0))).T.reshape(-1)
    amp = amp / np.linalg.norm(amp)
    return PureBipartiteState(rho.dim, rho.dim, amp)


def partial_trace(state: PureBipartiteState, subsystem: str) -> HermitianOperator:
    """Reduced operator of a pure bipartite state, tracing out A or B."""
    _expect(state, PureBipartiteState)
    psi = state.amplitudes.reshape(state.dim_a, state.dim_b)
    if subsystem == "A":
        reduced = psi.T @ psi.conj()
    elif subsystem == "B":
        reduced = psi @ psi.conj().T
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return HermitianOperator(reduced)
