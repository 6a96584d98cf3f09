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
most four balls with the most violated ball in closed form.
Convex weights witnessing an optimum come from Wolfe's minimum-norm point,
which works in any dimension: it finds the weights of the POVM search,
for every d, in the real coordinates of d x d operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConvergenceError
from .operators import DensityOperator, HermitianOperator, _as_matrix

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

BLOCH_NORM_TOL = 1e-10
_WOLFE_RTOL = 1e-14  # Wolfe's stop: target reached, or no point measurably beyond


def _bloch_vectors(matrices: np.ndarray) -> np.ndarray:
    """Bloch vectors (..., 3) of a stack of qubit operators (..., 2, 2).

    Each tr(M sigma_i) is read off the entries; the sums are the ones the
    traces of the Pauli products reduce to, bit for bit.
    """
    m01, m10 = matrices[..., 0, 1], matrices[..., 1, 0]
    return np.stack(
        [
            m01.real + m10.real,
            m10.imag - m01.imag,
            matrices[..., 0, 0].real - matrices[..., 1, 1].real,
        ],
        axis=-1,
    )


def to_bloch(rho) -> np.ndarray:
    """Bloch vector (x, y, z) of a single-qubit density operator."""
    m = _as_matrix(rho)
    if m.shape != (2, 2):
        raise ValueError(f"expected a qubit operator, got dimension {m.shape[0]}")
    return _bloch_vectors(m)


def _operators(t, vectors) -> np.ndarray:
    """Stack of (t I + v . sigma)/2 for t (...) and vectors (..., 3); inverts _bloch_vectors."""
    t = np.asarray(t, dtype=float)[..., None, None]
    x, y, z = np.moveaxis(np.asarray(vectors, dtype=float)[..., None, None], -3, 0)
    return 0.5 * (t * np.eye(2, dtype=complex) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z)


def from_bloch(v) -> DensityOperator:
    """Density operator (I + v . sigma)/2 for a Bloch vector with |v| <= 1."""
    v = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError("Bloch vector must be finite")
    norm = float(np.linalg.norm(v))
    if norm > 1 + BLOCH_NORM_TOL:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    return DensityOperator(HermitianOperator(_operators(1.0, v)))


@dataclass(frozen=True, eq=False)
class ShiftedBallResult:
    """Minimizer of max_x (shift_x + |k - point_x|) over k in R^3.

    value is the optimal objective; active lists the indices attaining it
    within tolerance; steps counts the basis-improvement steps.
    """

    center: np.ndarray
    value: float
    active: tuple[int, ...]
    steps: int


def convex_weights_for_center(points, center, tol: float = 1e-9) -> np.ndarray:
    """Convex weights over points reproducing a target inside their hull.

    Wolfe's minimum-norm-point algorithm (Math. Programming 11, 1976) on
    the points shifted by the target finds the hull point nearest the
    target as a convex combination of a corral of at most n+1 affinely
    independent points in R^n; it is accepted when its residual is below
    tol. points is an (m, n) array of any n, and the target an n-vector.
    Raising here signals a point set that does not actually contain the
    target, e.g. a support set that is not a true enclosing-ball support.
    """
    pts = np.asarray(points, dtype=float)
    target = np.asarray(center, dtype=float)
    shifted = pts - target
    lengths = np.linalg.norm(shifted, axis=1)
    scale = float(np.max(lengths))
    corral = [int(np.argmin(lengths))]
    lam = np.ones(1)
    x = shifted[corral[0]]
    while True:
        j = int(np.argmin(shifted @ x))
        size = float(np.linalg.norm(x))
        gain = float(x @ x - shifted[j] @ x)
        if j in corral or size <= _WOLFE_RTOL * scale or gain <= _WOLFE_RTOL * scale * size:
            break
        corral.append(j)
        lam = np.append(lam, 0.0)
        while True:
            p = shifted[corral]
            beta = np.linalg.lstsq((p[1:] - p[0]).T, -p[0], rcond=None)[0]
            alpha = np.concatenate(([1.0 - beta.sum()], beta))
            if np.min(alpha) > 0.0:
                lam = alpha
                break
            out = np.flatnonzero(alpha <= 0.0)
            ratios = lam[out] / np.maximum(lam[out] - alpha[out], 1e-300)  # 0 if both are 0
            first = int(np.argmin(ratios))
            lam = lam + ratios[first] * (alpha - lam)
            lam[out[first]] = 0.0
            corral = [c for c, w in zip(corral, lam) if w > 0.0]
            lam = lam[lam > 0.0]
        # The exact minimizer is orthogonal to the edges: drop rounding along them.
        nearest = lam @ shifted[corral]
        edges = (shifted[corral[1:]] - shifted[corral[0]]).T
        nearest = nearest - edges @ np.linalg.lstsq(edges, nearest, rcond=None)[0]
        if float(nearest @ nearest) >= float(x @ x):
            break
        x = nearest

    weights = np.zeros(len(pts))
    weights[corral] = lam / lam.sum()
    if np.min(weights) < -1e-9 or float(np.linalg.norm(weights @ pts - target)) > tol:
        raise ValueError("target point is not in the convex hull of the given points")
    return weights


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


def _basis_candidates(pts, shifts, subset) -> list[tuple[float, float, float]]:
    """Optimum over a subset if every subset constraint is active there.

    The optimal center lies in the affine hull of the active points, so
    restricting to that hull loses nothing. Differences of squared
    constraint equations are linear in the center for a fixed value t,
    yielding center(t) affine in t; the remaining norm equation is then a
    quadratic in t. A root is the optimum iff its center lies in the
    subset's convex hull (non-negative multipliers). pts and shifts are
    indexed by the subset's members, with rows of three coordinates; the
    arithmetic on these at most four 3-vectors runs on Python floats, the
    Gram system by Cramer's rule.
    """
    idx = list(subset)
    (bx, by, bz), s0 = pts[idx[0]], shifts[idx[0]]

    if len(idx) == 1:
        return [(bx, by, bz)]

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
        return [(bx + f * ex, by + f * ey, bz + f * ez)]

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
            out.append(k)
    return out


def _improve_basis(pts, shifts, basis: tuple[int, ...], violator: int):
    """Optimum over basis plus violator and a basis attaining it.

    The violator raises the optimum, so only subsets holding it (at most
    15) can be bases. A subset optimum feasible for all members is their
    optimum: the candidate of least value over the members wins. Only the
    members become rows of Python floats.
    """
    members = list(basis) + [violator]
    rows = dict(zip(members, pts[members].tolist()))
    member_shifts = dict(zip(members, shifts[members].tolist()))
    best = None
    for size in range(min(len(basis), 3) + 1):
        for rest in combinations(basis, size):
            subset = (violator,) + rest
            for k in _basis_candidates(rows, member_shifts, subset):
                value = max(member_shifts[m] + math.dist(rows[m], k) for m in members)
                if best is None or value < best[2]:
                    best = (subset, k, value)
    return best


def shifted_ball_dual(points, shifts, max_iter: int = 100_000) -> ShiftedBallResult:
    """Minimize max_x (shift_x + |k - point_x|) exactly, by basis improvement.

    Starting from the ball with the largest shift, each step re-solves the
    basis with the most violated ball; the value rises strictly, so no
    basis repeats. With no violation beyond a relative 1e-13 the basis
    optimum is global. max_iter caps the improvement steps. With every
    shift 1/N this is the smallest ball enclosing the points: its center
    is center and its radius value - 1/N.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    s = np.asarray(shifts, dtype=float).reshape(-1)
    if len(pts) != len(s):
        raise ValueError("points and shifts must have equal length")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(s))):
        raise ValueError("points and shifts must be finite")
    if np.any(s <= 0):
        raise ValueError("shifts must be positive")
    if abs(float(np.sum(s)) - 1.0) > 1e-10:
        raise ValueError("shifts must sum to 1")

    basis = (int(np.argmax(s)),)
    k, t, steps = pts[basis[0]], float(s[basis[0]]), 0
    while True:
        gaps = s + np.linalg.norm(pts - k, axis=1)
        violator = int(np.argmax(gaps))
        if gaps[violator] <= t * (1.0 + 1e-13):
            break
        if steps == max_iter:
            raise ConvergenceError(f"basis improvement did not settle in {max_iter} steps")
        steps += 1
        basis, k, value = _improve_basis(pts, s, basis, violator)
        if value <= t:
            break  # the rise fell below rounding: k is optimal to working precision
        t = value

    gaps = s + np.linalg.norm(pts - k, axis=1)
    t = float(np.max(gaps))
    active = tuple(int(i) for i in np.flatnonzero(gaps >= t - 1e-7 * (1.0 + t)))
    k = np.array(k, dtype=float)
    k.setflags(write=False)
    return ShiftedBallResult(center=k, value=t, active=active, steps=steps)
