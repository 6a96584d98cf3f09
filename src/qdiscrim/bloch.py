"""Qubit Bloch-vector conversion and computational geometry in R^3.

A qubit state is rho(v) = (I + v . sigma)/2 with sigma the standard Pauli
triple and |0> the +Z eigenstate. Dual optimization of qubit discrimination
is the "shifted" enclosing ball: minimize over k the piecewise-smooth
convex function f(k) = max_x (q_x + |k - q_x v_x|), the smallest ball
enclosing the balls B(q_x v_x, q_x). Equal priors are equal shifts, and
then the optimum is the minimum enclosing ball of the points v_x / N, with
t = 1/N plus its radius.

The problem is LP-type of combinatorial dimension four (Matousek, Sharir
and Welzl, Algorithmica 16, 1996; Fischer and Gaertner, IJCGA 14, 2004),
the ball of points being its equal-radius case. One exact algorithm
solves it for every prior: basis improvement, re-solving a basis of at
most four balls with the most violated ball in closed form. Each step
stops at the first subset optimum, largest subsets first, that certifies
itself: its members' levels agree within a relative 1e-13 and no other
member's level exceeds them by more, so no center is lower by more than
that (_improve_basis); only if none does, the least of all subset optima
wins. The final basis and its barycentric multipliers witness the
optimum, and they give the qubit POVM in closed form (solve.solve_qubit).
Where no basis is known, convex weights come from Wolfe's minimum-norm
point (_min_norm_point), which works in any dimension and on any atom
set given by a linear-minimization oracle. It is private and has one
caller: the POVM search for a given K (solve.reconstruct_povm) runs it
on the infinite set of rank-one projectors on the kernels, in the real
coordinates of d x d operators, with a smallest eigenvector as the
oracle. It stops on a separating hyperplane, and after a fixed number of
major cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConvergenceError
from .operators import (
    DensityOperator, _as_matrix, _constant, _Frozen, _priors, _real_array, _row_norms, _trusted
)

PAULI_X = _constant(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _constant(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _constant(np.array([[1, 0], [0, -1]], dtype=complex))
_IDENTITY = _constant(np.eye(2, dtype=complex))

BLOCH_NORM_TOL = 1e-10
_WOLFE_RTOL = 1e-14  # Wolfe's stop: target reached, or no point measurably beyond
_LEVEL_RTOL = 1e-13  # shifted-ball levels this close to the optimum count as attaining it
_WOLFE_MAX_CYCLES = 10_000  # oracle calls; Caratheodory needs <= d^2 atoms, 4,096 at MAX_DIM
_MAX_STEPS = 100_000  # basis-improvement steps of shifted_ball_dual


def _bloch_vectors(matrices: np.ndarray) -> np.ndarray:
    """Bloch vectors (..., 3) of a stack of qubit operators (..., 2, 2).

    Each tr(M sigma_i) is read off the entries; the sums are the ones the
    traces of the Pauli products reduce to, bit for bit, written in place.
    """
    m01, m10 = matrices[..., 0, 1], matrices[..., 1, 0]
    out = np.empty(matrices.shape[:-2] + (3,))
    np.add(m01.real, m10.real, out=out[..., 0])
    np.subtract(m10.imag, m01.imag, out=out[..., 1])
    np.subtract(matrices[..., 0, 0].real, matrices[..., 1, 1].real, out=out[..., 2])
    return out


def to_bloch(rho) -> np.ndarray:
    """Bloch vector (x, y, z) of a single-qubit density operator."""
    m = _as_matrix(rho)
    if m.shape != (2, 2):
        raise ValueError(f"expected a qubit operator, got dimension {m.shape[0]}")
    return _bloch_vectors(m)


def _operators(t, vectors) -> np.ndarray:
    """Stack of (t I + v . sigma)/2 for t (...) and vectors (..., 3); inverts _bloch_vectors.

    The Pauli sum 0.5 * (t I + x X + y Y + z Z), broadcast over t and v.
    Each product with an entry of a Pauli matrix is exact, so the result
    is exactly Hermitian for finite input, and callers wrap it unchecked.
    """
    t = np.asarray(t, dtype=float)[..., None, None]
    v = np.asarray(vectors, dtype=float)
    x, y, z = v[..., 0, None, None], v[..., 1, None, None], v[..., 2, None, None]
    return 0.5 * (t * _IDENTITY + x * PAULI_X + y * PAULI_Y + z * PAULI_Z)


def from_bloch(v) -> DensityOperator:
    """Density operator (I + v . sigma)/2, built unchecked, for a Bloch vector with |v| <= 1."""
    v = _real_array(v, "Bloch vector").reshape(-1)
    if len(v) != 3:
        raise ValueError(f"Bloch vector must have 3 components, got {len(v)}")
    if not np.all(np.isfinite(v)):
        raise ValueError("Bloch vector must be finite")
    if (abs(v) > 1 + BLOCH_NORM_TOL).any():  # so the norm cannot overflow
        raise ValueError("Bloch vector norm exceeds 1")
    norm = float(np.linalg.norm(v))
    if norm > 1 + BLOCH_NORM_TOL:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    return _trusted(DensityOperator, matrix=_operators(1.0, v))


@dataclass(frozen=True, eq=False)
class ShiftedBallResult(_Frozen):
    """Minimizer of max_x (shift_x + |k - point_x|) over k in R^3.

    value is the optimal objective; active lists the indices attaining it
    within tolerance; steps counts the basis-improvement steps. basis
    holds the at most four indices whose optimum this is, and multipliers
    their barycentric coordinates lambda >= 0, summing to one, with
    center = sum_j lambda_j point_{basis_j}: the weights lambda_j
    |center - point_j| witness the optimum (zero is in the convex hull of
    the active directions), so they give an optimal measurement. A start
    that no ball violates keeps the one-point basis, lambda = (1,).
    """

    center: np.ndarray
    value: float
    active: tuple[int, ...]
    steps: int
    basis: tuple[int, ...]
    multipliers: np.ndarray


def _min_norm_point(oracle, start, scale: float, tol: float) -> tuple[list, np.ndarray]:
    """Wolfe's minimum-norm point (Math. Programming 11, 1976) over atoms given by an oracle.

    Atoms are vectors relative to the target, which is thus the origin.
    oracle(x) returns (key, atom) for an atom minimizing <atom, x>; start
    is a first (key, atom), and keys are hashable. The corral is one
    array, an atom per row, that each major cycle grows by the oracle's
    atom; its minor cycles keep x, its nearest point to the origin, a
    convex combination of affinely independent atoms, and drop rows and
    keys by one mask. It stops on the origin (|x| at most
    _WOLFE_RTOL times scale, the largest atom length), or when no atom
    lies measurably beyond x. Returns the corral's keys and convex
    weights, whose point lies within tol of the target.

    Raises ValueError, with the margin, when the target is farther than tol
    from the convex hull. The search stops as soon as an atom of least
    <a, x> has <a, x> > tol |x|: the hyperplane normal to x then separates
    the target from every atom by more than tol. That cannot happen when
    the target is in the hull, where the least <a, x> is at most zero.
    Raises ConvergenceError after _WOLFE_MAX_CYCLES major cycles: Wolfe
    terminates over finitely many atoms, not always over infinitely many.
    """
    keys, corral = [start[0]], start[1][None, :]
    lam = np.ones(1)
    x = start[1]
    for _ in range(_WOLFE_MAX_CYCLES):
        size = float(np.linalg.norm(x))
        if size <= _WOLFE_RTOL * scale:
            break
        key, atom = oracle(x)
        inner = float(atom @ x)
        if inner > tol * size:
            raise ValueError(
                f"a hyperplane separates the target from the convex hull by {inner / size:.3e}"
            )
        if key in keys or float(x @ x) - inner <= _WOLFE_RTOL * scale * size:
            break
        keys.append(key)
        corral = np.vstack([corral, atom])
        lam = np.append(lam, 0.0)
        while True:
            beta = np.linalg.lstsq((corral[1:] - corral[0]).T, -corral[0], rcond=None)[0]
            alpha = np.concatenate(([1.0 - beta.sum()], beta))
            if np.min(alpha) > 0.0:
                lam = alpha
                break
            out = np.flatnonzero(alpha <= 0.0)
            ratios = lam[out] / np.maximum(lam[out] - alpha[out], 1e-300)  # 0 if both are 0
            first = int(np.argmin(ratios))
            lam = lam + ratios[first] * (alpha - lam)
            lam[out[first]] = 0.0
            kept = lam > 0.0
            keys, corral, lam = [k for k, keep in zip(keys, kept) if keep], corral[kept], lam[kept]
        # The exact minimizer is orthogonal to the edges: drop rounding along them.
        nearest = lam @ corral
        edges = (corral[1:] - corral[0]).T
        nearest = nearest - edges @ np.linalg.lstsq(edges, nearest, rcond=None)[0]
        if float(nearest @ nearest) >= float(x @ x):
            break
        x = nearest
    else:
        raise ConvergenceError(f"no minimum-norm point within {_WOLFE_MAX_CYCLES} major cycles")

    lam = lam / lam.sum()
    distance = float(np.linalg.norm(lam @ corral))
    if distance > tol:
        raise ValueError(f"the target lies {distance:.3e} from the convex hull")
    return keys, lam


def _solve_quadratic(a: float, b: float, c: float) -> list[float]:
    if abs(a) < 1e-14:
        return [] if abs(b) < 1e-14 else [-c / b]
    disc = b * b - 4 * a * c
    if disc < -1e-18:
        return []
    disc = max(disc, 0.0)
    root = math.sqrt(disc)
    return [(-b - root) / (2 * a), (-b + root) / (2 * a)]


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _combination(coeff, vectors) -> tuple[float, float, float]:
    """sum_j coeff_j vectors_j of 3-vectors."""
    x = y = z = 0.0
    for c, (u, v, w) in zip(coeff, vectors):
        x, y, z = x + c * u, y + c * v, z + c * w
    return x, y, z


def _cramer(gram, rhs) -> tuple[float, list[list[float]]]:
    """Determinant of a symmetric 2 x 2 or 3 x 3 Gram matrix and, by
    Cramer's rule, its solutions times that determinant for each right side."""
    if len(gram) == 2:
        (a, b), (_, c) = gram
        return a * c - b * b, [[c * r0 - b * r1, a * r1 - b * r0] for r0, r1 in rhs]
    (a, b, c), (_, d, e), (_, _, f) = gram
    c11, c12, c13 = d * f - e * e, c * e - b * f, b * e - c * d
    c22, c23, c33 = a * f - c * c, b * c - a * e, a * d - b * b
    return a * c11 + b * c12 + c * c13, [
        [
            c11 * r0 + c12 * r1 + c13 * r2,
            c12 * r0 + c22 * r1 + c23 * r2,
            c13 * r0 + c23 * r1 + c33 * r2,
        ]
        for r0, r1, r2 in rhs
    ]


def _basis_candidates(pts, shifts, subset) -> list[tuple[tuple[float, float, float], list[float]]]:
    """Optimum over a subset if every subset constraint is active there,
    as pairs of a center and its multipliers over the subset.

    The optimal center lies in the affine hull of the active points, so
    restricting to that hull loses nothing. Differences of squared
    constraint equations are linear in the center for a fixed value t,
    yielding center(t) affine in t; the remaining norm equation is then a
    quadratic in t. A root is the optimum iff its center lies in the
    subset's convex hull: the multipliers, its barycentric coordinates
    over the subset in order, are non-negative (to -1e-9, then clipped to
    zero) and sum to one. pts and shifts are indexed by the subset's
    members, with rows of three coordinates; the arithmetic on these at
    most four 3-vectors runs on Python floats, the Gram system by
    Cramer's rule.
    """
    idx = list(subset)
    (bx, by, bz), s0 = pts[idx[0]], shifts[idx[0]]

    if len(idx) == 1:
        return [((bx, by, bz), [1.0])]

    edges = [(x - bx, y - by, z - bz) for x, y, z in (pts[i] for i in idx[1:])]

    if len(idx) == 2:
        ex, ey, ez = edges[0]
        d = math.hypot(ex, ey, ez)
        if d < 1e-14:
            return []
        tau = 0.5 * (d + shifts[idx[1]] - s0)
        if tau < 0.0 or tau > d:
            return []
        f = tau / d
        return [((bx + f * ex, by + f * ey, bz + f * ez), [1.0 - f, f])]

    diffs = [shifts[i] - s0 for i in idx[1:]]
    gram = [[_dot(e, f) for f in edges] for e in edges]
    half_a = [0.5 * (gram[j][j] - diffs[j] * (shifts[i] + s0)) for j, i in enumerate(idx[1:])]

    det, (scaled_a, scaled_b) = _cramer(gram, [half_a, diffs])
    if abs(det) <= 1e-24 * max(math.prod(gram[j][j] for j in range(len(edges))), 1e-300):
        return []
    coeff_a = [c / det for c in scaled_a]
    coeff_b = [c / det for c in scaled_b]
    w_a, w_b = _combination(coeff_a, edges), _combination(coeff_b, edges)

    # |w_a + t w_b|^2 = (t - s0)^2
    qa = _dot(w_b, w_b) - 1.0
    qb = 2.0 * _dot(w_a, w_b) + 2.0 * s0
    qc = _dot(w_a, w_a) - s0 * s0
    out = []
    s_max = max(shifts[i] for i in idx)
    for t in _solve_quadratic(qa, qb, qc):
        if t < s_max - 1e-12:
            continue
        coeff = [a + t * b for a, b in zip(coeff_a, coeff_b)]
        if min(coeff) < -1e-9 or sum(coeff) > 1.0 + 1e-9:
            continue
        k = (bx + w_a[0] + t * w_b[0], by + w_a[1] + t * w_b[1], bz + w_a[2] + t * w_b[2])
        if all(abs(math.dist(k, pts[i]) - (t - shifts[i])) <= 1e-7 for i in idx):
            lam = [max(c, 0.0) for c in [1.0 - sum(coeff)] + coeff]
            total = sum(lam)
            out.append((k, [c / total for c in lam]))
    return out


def _improve_basis(pts, shifts, basis: tuple[int, ...], violator: int):
    """Optimum over basis plus violator: (basis, multipliers, center, value).

    The violator raises the optimum, so only subsets holding it (at most
    15) can be bases. They are solved from largest to smallest, each size
    in combinations order, which drops the oldest members first (a basis
    lists its last violator first). The first candidate that certifies
    itself is returned: each subset member's level s_x + |k - p_x| lies
    within a relative _LEVEL_RTOL of the violator's level t, and no
    member's level exceeds t (1 + _LEVEL_RTOL). Its non-negative
    multipliers then put 0 in the convex hull of the active gradients
    (k - p_x)/|k - p_x|, so by convexity every center k' has
    max over the members of s_x + |k' - p_x| >= t (1 - _LEVEL_RTOL), up to
    rounding: the candidate is the members' optimum. Only when no
    candidate certifies itself does the candidate of least value over the
    members win, ties going to the smaller subset, then to the earlier
    one. Only the members become rows of Python floats.
    """
    members = list(basis) + [violator]
    rows = dict(zip(members, pts[members].tolist()))
    member_shifts = dict(zip(members, shifts[members].tolist()))
    solved = []  # (value, size, order, root, candidate) of those that did not certify themselves
    for size in range(min(len(basis), 3), -1, -1):
        for order, rest in enumerate(combinations(basis, size)):
            subset = (violator,) + rest
            for root, (k, lam) in enumerate(_basis_candidates(rows, member_shifts, subset)):
                levels = {m: member_shifts[m] + math.dist(rows[m], k) for m in members}
                t, value = levels[violator], max(levels.values())
                if value <= t * (1.0 + _LEVEL_RTOL) and all(
                    abs(levels[m] - t) <= _LEVEL_RTOL * t for m in subset
                ):
                    return subset, lam, k, value
                solved.append((value, size, order, root, (subset, lam, k, value)))
    return min(solved, key=lambda c: c[:4])[4]  # the one-ball subset always has a candidate


def shifted_ball_dual(points, shifts) -> ShiftedBallResult:
    """Minimize max_x (shift_x + |k - point_x|) exactly, by basis improvement.

    Starting from the ball with the largest shift, each step re-solves the
    basis with the most violated ball; the value rises strictly, so no
    basis repeats. With no violation beyond a relative 1e-13 the basis
    optimum is global. _MAX_STEPS caps the improvement steps. With every
    shift 1/N this is the smallest ball enclosing the points: its center
    is center and its radius value - 1/N. The checked points and shifts go
    to _shifted_ball, which solve.solve_qubit calls on its ensemble's.
    """
    pts = _real_array(points, "points")
    if pts.shape[-1:] != (3,):
        raise ValueError(f"points must have 3 coordinates each, got shape {pts.shape}")
    pts = pts.reshape(-1, 3)
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return _shifted_ball(pts, _priors(shifts, len(pts), "shifts"))


def _shifted_ball(pts: np.ndarray, s: np.ndarray) -> ShiftedBallResult:
    """shifted_ball_dual's basis improvement, on points (N, 3) and shifts (N,) it checked."""
    basis, multipliers = (int(s.argmax()),), [1.0]
    k, t, steps = pts[basis[0]], float(s[basis[0]]), 0
    while True:
        gaps = s + _row_norms(pts - k)
        violator = int(gaps.argmax())
        if gaps[violator] <= t * (1.0 + _LEVEL_RTOL):
            break
        if steps == _MAX_STEPS:
            raise ConvergenceError(f"basis improvement did not settle in {_MAX_STEPS} steps")
        steps += 1
        basis, multipliers, k, value = _improve_basis(pts, s, basis, violator)
        if value <= t:
            break  # the rise fell below rounding: k is optimal to working precision
        t = value

    gaps = s + _row_norms(pts - k)
    t = float(gaps.max())
    active = tuple(int(i) for i in (gaps >= t - 1e-7 * (1.0 + t)).nonzero()[0])
    return _trusted(ShiftedBallResult, center=np.array(k, dtype=float), value=t, active=active,
                    steps=steps, basis=basis, multipliers=np.array(multipliers, dtype=float))
