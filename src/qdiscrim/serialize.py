"""JSON schemas shared by the CLI, files on disk, and tests.

Matrices travel as {"dim": n, "re": [[...]], "im": [[...]]}, row-major
with decimal floating point entries. Bloch vectors are plain [x, y, z]
triples. Parsing errors carry the offending field in their message so the
CLI can emit a usable diagnostic. Every array of matrices (an ensemble's
states, a candidate solution's POVM) is parsed as one stack (N, d, d) by
one parser (_matrices_from_json) and written from a stack by one writer
(_stack_to_json); a single matrix is a stack of one.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .bloch import _bloch_vectors, _operators
from .certify import KktCertificate
from .factory import FactoryOutput
from .operators import (
    MAX_DIM,
    _as_matrix,
    _eigh,
    _hermitian_stack,
    _matrix_stack,
    _state_stack,
)
from .solve import DiscriminationSolution, WeightedEnsemble


def round_floats(value, digits: int = 9):
    """Recursively round floats to a fixed number of significant digits.

    Every float v becomes float(format(v, f".{digits}g")), tuples become
    lists. At 1..15 digits the matrices (lists of equal-length list rows
    of plain floats, rows wider than two) are gathered by row width and
    rounded as arrays by _round_significant, which gives exactly those
    values; the rows are rebuilt with one tolist per width. Everything
    else is rounded float by float.
    """
    spec = f".{digits}g"
    gather = type(digits) is int and 1 <= digits <= _EXACT_DIGITS
    # row width -> (the gathered matrices' rows, their placeholder matrices)
    gathered: dict[int, tuple[list, list]] = {}

    def walk(value):
        # lists first: most calls are on matrices and their rows
        if isinstance(value, (list, tuple)):
            # 2x2 blocks (qubit documents) cost less float by float than the
            # kernel's fixed cost, so only wider rows are gathered
            if (
                value
                and type(value[0]) is list
                and len(value[0]) > 2
                and gather
                and type(value) is list
                and _is_matrix(value)
            ):
                rows, targets = gathered.setdefault(len(value[0]), ([], []))
                rows.extend(value)
                targets.append([None] * len(value))
                return targets[-1]
            # a matrix row is a flat list of floats: one comprehension, no recursion
            return [float(format(v, spec)) if isinstance(v, float) else walk(v) for v in value]
        if isinstance(value, float):
            return float(format(value, spec))
        if isinstance(value, dict):
            return {k: walk(v) for k, v in value.items()}
        return value

    out = walk(value)
    del walk  # walk refers to itself: free it, and the rows it gathered, without the cyclic GC
    for rows, targets in gathered.values():
        rounded = _round_significant(np.array(rows, dtype=float), digits).tolist()
        start = 0
        for target in targets:
            target[:] = rounded[start : start + len(target)]
            start += len(target)
    return out


def _is_matrix(value: list) -> bool:
    """Whether a list with a non-empty list first row is rows of that length, all floats."""
    return (
        set(map(type, value)) == {list}
        and len(set(map(len, value))) == 1
        and set(map(type, chain.from_iterable(value))) == {float}
    )


# The kernel's exact range: m < 10**15 < 2**53 is an exact integer, 10**s an
# exact double for 0 <= s <= 22, and no scaled value nears overflow or underflow.
_EXACT_DIGITS = 15
_POWERS_OF_TEN = 10.0 ** np.arange(23)
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _product_error(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The exact a * b - p for p = fl(a * b) (Dekker, Numer. Math. 18, 1971)."""
    ta, tb = _SPLIT * a, _SPLIT * b
    a_hi, b_hi = ta - (ta - a), tb - (tb - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _round_significant(x: np.ndarray, digits: int) -> np.ndarray:
    """float(format(v, f".{digits}g")) for every element of x, 1 <= digits <= 15.

    With e = floor(log10 |v|) and s = digits - 1 - e, that decimal is
    m / 10**s for m = |v| * 10**s rounded half to even, and dividing m by
    the exact power 10**s rounds correctly, as parsing the decimal does.
    The product is rounded once, so rint can miss the exact rounding only
    when the product lands on a half, which Dekker's exact product error
    settles. A product outside (10**(digits-1), 10**digits) means log10
    missed the exponent. Such misses, s outside 0..22, |v| < 1e-14,
    |v| >= 1e9, inf and nan are formatted one by one; zeros stay as they are.
    """
    magnitude = np.abs(x)
    regular = (magnitude >= 1e-14) & (magnitude < 1e9)
    magnitude[~regular] = 1.0
    shift = digits - 1 - np.floor(np.log10(magnitude))
    regular &= (shift >= 0) & (shift <= 22)
    scale = _POWERS_OF_TEN[np.where(regular, shift, 0).astype(np.intp)]
    del shift
    scaled = magnitude * scale
    regular &= (scaled > 10.0 ** (digits - 1)) & (scaled < 10.0**digits)
    m = np.rint(scaled)
    ties = regular & (scaled - np.floor(scaled) == 0.5)
    if ties.any():
        half = scaled[ties]
        error = _product_error(magnitude[ties], scale[ties], half)
        m[ties] = np.where(error > 0, half + 0.5, np.where(error < 0, half - 0.5, m[ties]))
    del scaled, magnitude
    out = np.where(regular, np.copysign(m / scale, x), x)
    del m, scale
    odd = ~regular & (x != 0.0)
    if odd.any():
        spec = f".{digits}g"
        out[odd] = [float(format(v, spec)) for v in x[odd].tolist()]
    return out


def matrix_to_json(matrix) -> dict:
    return _stack_to_json(_as_matrix(matrix)[None])[0]


def matrix_from_json(obj, field: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"{field}: expected an object with dim/re/im")
    for key in ("dim", "re", "im"):
        if key not in obj:
            raise ValueError(f"{field}: missing key {key!r}")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
        raise ValueError(f"{field}.dim: expected an integer in 1..{MAX_DIM}, got {dim!r}")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{field}: entries must be numbers ({exc})") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(f"{field}: re/im must be {dim}x{dim}, got {re.shape} and {im.shape}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError(f"{field}: matrix entries must be finite")
    return re + 1j * im


def _matrices_from_json(items: list, field: str, owner: str) -> np.ndarray:
    """The Hermitian stack (N, d, d) of a JSON array of {"dim", "re", "im"} objects.

    One np.asarray converts all re and one all im, and _hermitian_stack
    checks the stack at once, naming a bad matrix field[i]. Other defects,
    non-finite entries too (1j * inf warns), send the items one by one through
    matrix_from_json, which names the first; mixed dimensions raise "<owner>:
    <field> must share one dimension". An empty array stays unchecked.
    """
    dim = items[0].get("dim") if items and isinstance(items[0], dict) else None
    stack = None
    if type(dim) is int and 1 <= dim <= MAX_DIM and all(
        isinstance(m, dict) and "re" in m and "im" in m and type(m.get("dim")) is int
        and m["dim"] == dim for m in items
    ):
        try:
            re = np.asarray([m["re"] for m in items], dtype=float)
            im = np.asarray([m["im"] for m in items], dtype=float)
        except (TypeError, ValueError, OverflowError):
            re = im = np.zeros(0)
        if re.shape == im.shape == (len(items), dim, dim) and np.isfinite([re, im]).all():
            stack = re + 1j * im
    if stack is None:
        parsed = [matrix_from_json(m, field=f"{field}[{i}]") for i, m in enumerate(items)]
        stack = _matrix_stack(parsed, f"{owner}: {field}")
    return _hermitian_stack(stack, field=f"{field}[{{}}]") if len(stack) else stack


def _stack_to_json(stack: np.ndarray) -> list[dict]:
    """matrix_to_json of each matrix of a stack (N, d, d), with one tolist per part."""
    dim = stack.shape[-1]
    return [
        {"dim": dim, "re": re, "im": im}
        for re, im in zip(stack.real.tolist(), stack.imag.tolist())
    ]


def bloch_to_json(v) -> list[float]:
    return [float(x) for x in np.asarray(v, dtype=float).reshape(3)]


def ensemble_to_json(ensemble: WeightedEnsemble) -> dict:
    return {
        "priors": ensemble.priors.tolist(),
        "states": _stack_to_json(ensemble.matrices),
    }


def ensemble_from_json(obj) -> WeightedEnsemble:
    """Parse an ensemble document into a validated WeightedEnsemble.

    Files written at 9 significant digits come back with priors and state
    traces off by up to ~1e-9, so defects below 1e-8 are renormalized away
    on parse; anything worse fails with a field diagnostic.
    """
    if not isinstance(obj, dict):
        raise ValueError("ensemble: expected an object with priors/states")
    if "priors" not in obj or "states" not in obj:
        raise ValueError("ensemble: missing key 'priors' or 'states'")
    priors = obj["priors"]
    states_json = obj["states"]
    if not isinstance(priors, list) or not isinstance(states_json, list):
        raise ValueError("ensemble: priors and states must be arrays")

    for i, p in enumerate(priors):
        if isinstance(p, list):
            raise ValueError("priors: expected a flat array of numbers")
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise ValueError(f"priors: entries must be numbers (priors[{i}] is {p!r})")
    try:
        q = np.asarray(priors, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"priors: entries must be numbers ({exc})") from exc
    if not np.all(np.isfinite(q)):
        i = int(np.argmin(np.isfinite(q)))
        raise ValueError(f"priors: entries must be finite (priors[{i}] is {priors[i]!r})")
    total = float(np.sum(q))
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"priors: must sum to 1, got {total!r}")
    q = q / total

    matrices = _matrices_from_json(states_json, "states", "ensemble")
    states = _states_from_rounded(matrices) if len(matrices) else matrices
    try:
        return WeightedEnsemble._from_matrices(q, states)
    except ValueError as exc:
        raise ValueError(f"ensemble: {exc}") from exc


def _states_from_rounded(h: np.ndarray) -> np.ndarray:
    """The frozen state stack of parsed Hermitian matrices, absorbing rounding up to 1e-8.

    Each matrix is normalized to unit trace. Qubits are rebuilt from their
    Bloch vectors in closed form (_qubit_states), so parsing a qubit
    ensemble calls no LAPACK; larger states are diagonalized as one stack
    and rebuilt from their spectra (_state_stack). An eigenvalue below
    -1e-8 (or a trace off 1 by more than 1e-8) names its state as states[i].
    """
    traces = np.trace(h, axis1=1, axis2=2).real
    off = np.flatnonzero(np.abs(traces - 1.0) > 1e-8)
    if off.size:
        i = int(off[0])
        raise ValueError(f"states[{i}]: state trace must be 1, got {float(traces[i])!r}")
    # entries near the float maximum can overflow here; the spectrum rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        rho = h / traces[:, None, None]
        if rho.shape[-1] == 2:
            return _qubit_states(rho)
    values, vectors = _eigh(rho)
    _reject_negative(values[:, -1])
    return _state_stack(values, vectors)


def _qubit_states(rho: np.ndarray) -> np.ndarray:
    """The frozen states of unit-trace qubit matrices I/2 + h . sigma, with no eigensolver.

    Their eigenvalues are 1/2 +- |h|. The state (I + h/max(|h|, 1/2) . sigma)/2
    is that spectrum clipped at zero and renormalized, as _state_stack
    rebuilds it. h is read from halved entries, whose sums stay finite on
    entries near the float maximum.
    """
    half_bloch = _bloch_vectors(rho / 2.0)
    norms = np.hypot(np.hypot(half_bloch[:, 0], half_bloch[:, 1]), half_bloch[:, 2])
    _reject_negative(0.5 - norms)
    states = _operators(1.0, half_bloch / np.maximum(norms, 0.5)[:, None])
    states.setflags(write=False)
    return states


def _reject_negative(smallest: np.ndarray) -> None:
    """Name the first state whose smallest eigenvalue is below -1e-8 (or NaN)."""
    negative = np.flatnonzero(~(smallest >= -1e-8))
    if negative.size:
        i = int(negative[0])
        raise ValueError(f"states[{i}]: state has negative eigenvalue {smallest[i]:.3e}")


def solution_to_json(solution: DiscriminationSolution) -> dict:
    comp = solution.complementary
    sigmas = iter(_stack_to_json(comp.matrices))
    complementary = [
        {"r": r, "sigma": next(sigmas) if present else None}
        for r, present in zip(comp.weights.tolist(), comp.present.tolist())
    ]
    return {
        "p_guess": float(solution.p_guess),
        "K": matrix_to_json(solution.symmetry_op),
        "complementary": complementary,
        "povm": _stack_to_json(solution.povm_matrices),
        "support": [int(x) for x in solution.support],
    }


def certificate_to_json(cert: KktCertificate) -> dict:
    return {
        "residuals": {k: float(v) for k, v in cert.residuals().items()},
        "tolerance": float(cert.tolerance),
        "verdict": cert.verdict,
    }


def factory_output_to_json(output: FactoryOutput) -> dict:
    doc = ensemble_to_json(output.ensemble)
    doc["steering_probs"] = [float(p) for p in output.steering_probs]
    doc["certified"] = bool(output.certified)
    doc["K"] = matrix_to_json(output.symmetry_op)
    if output.povm is not None:
        doc["povm"] = _stack_to_json(_matrix_stack(output.povm))
    return doc
