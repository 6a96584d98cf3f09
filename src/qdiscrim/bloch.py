"""Qubit Bloch-vector conversion and computational geometry in R^3.

A qubit state is rho(v) = (I + v . sigma)/2 with sigma the standard Pauli
triple and |0> the +Z eigenstate. Dual optimization of qubit discrimination
reduces to ball problems over scaled Bloch points:

* equal priors: the minimum enclosing ball of the points v_x / N,
* general priors: minimize over k the piecewise-smooth convex function
  f(k) = max_x (q_x + |k - q_x v_x|), the "shifted" enclosing ball.

Both are solved exactly here. The minimum enclosing ball uses Welzl's
randomized move-to-front recursion with exact basis solves for one to four
support points. The shifted problem, the smallest ball enclosing the balls
B(q_x v_x, q_x), is LP-type of combinatorial dimension four (Matousek,
Sharir and Welzl, Algorithmica 16, 1996) but not Welzl-solvable (Fischer
and Gaertner, IJCGA 14, 2004); basis improvement solves it, re-solving a
basis of at most four balls with the most violated ball in closed form.
Convex weights witnessing an optimum come from Wolfe's minimum-norm point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConvergenceError
from .operators import DensityOperator, HermitianOperator, _as_matrix

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

BLOCH_NORM_TOL = 1e-10
SUPPORT_TOL = 1e-9
_DEDUP_TOL = 1e-12
_CONTAIN_EPS = 1 + 1e-14
_WOLFE_RTOL = 1e-14  # Wolfe's stop: target reached, or no point measurably beyond


def to_bloch(rho) -> np.ndarray:
    """Bloch vector (x, y, z) of a single-qubit density operator."""
    m = _as_matrix(rho)
    if m.shape != (2, 2):
        raise ValueError(f"expected a qubit operator, got dimension {m.shape[0]}")
    return np.array(
        [
            np.trace(m @ PAULI_X).real,
            np.trace(m @ PAULI_Y).real,
            np.trace(m @ PAULI_Z).real,
        ]
    )


def from_bloch(v) -> DensityOperator:
    """Density operator (I + v . sigma)/2 for a Bloch vector with |v| <= 1."""
    v = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError("Bloch vector must be finite")
    norm = float(np.linalg.norm(v))
    if norm > 1 + BLOCH_NORM_TOL:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    m = 0.5 * (np.eye(2, dtype=complex) + v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)
    return DensityOperator(HermitianOperator(m))


@dataclass(frozen=True, eq=False)
class BallResult:
    """Smallest ball enclosing a point set.

    support holds the indices of input points on the boundary (within a
    1e-9 relative tolerance); the center always lies in their convex
    hull, which convex_weights_for_center can witness. seed records the
    shuffle seed for reproducibility.
    """

    center: np.ndarray
    radius: float
    support: tuple[int, ...]
    seed: int


@dataclass(frozen=True, eq=False)
class ShiftedBallResult:
    """Minimizer of max_x (shift_x + |k - point_x|) over k in R^3.

    value is the optimal objective; active lists the indices attaining it
    within tolerance.
    """

    center: np.ndarray
    value: float
    active: tuple[int, ...]


def _ball_contains(center, radius_sq, p) -> bool:
    d = p - center
    return float(d @ d) <= radius_sq * _CONTAIN_EPS + 1e-30


def _circumcenter_3(a, b, c):
    """Center of the circle through three points, in their plane."""
    ab = b - a
    ac = c - a
    g11 = float(ab @ ab)
    g22 = float(ac @ ac)
    g12 = float(ab @ ac)
    det = g11 * g22 - g12 * g12
    if det <= 1e-28 * max(g11 * g22, 1e-300):
        return None
    alpha = (0.5 * g11 * g22 - 0.5 * g22 * g12) / det
    beta = (0.5 * g11 * g22 - 0.5 * g11 * g12) / det
    return a + alpha * ab + beta * ac


def _circumcenter_4(a, b, c, d):
    """Center of the sphere through four points."""
    m = 2.0 * np.array([b - a, c - a, d - a])
    rhs = np.array([b @ b - a @ a, c @ c - a @ a, d @ d - a @ a])
    det = float(np.linalg.det(m))
    scale = max(float(np.max(np.abs(m))) ** 3, 1e-300)
    if abs(det) <= 1e-12 * scale:
        return None
    return np.linalg.solve(m, rhs)


def _ball_of_basis(basis):
    """Smallest ball enclosing at most four points, by subset enumeration."""
    if not basis:
        return None
    best = None
    n = len(basis)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            pts = [basis[i] for i in subset]
            if size == 1:
                center = pts[0]
            elif size == 2:
                center = 0.5 * (pts[0] + pts[1])
            elif size == 3:
                center = _circumcenter_3(*pts)
            else:
                center = _circumcenter_4(*pts)
            if center is None:
                continue
            radius_sq = max(float((p - center) @ (p - center)) for p in pts)
            if all(_ball_contains(center, radius_sq, basis[i]) for i in range(n)):
                if best is None or radius_sq < best[1]:
                    best = (center, radius_sq)
    return best


def _welzl(points: list, count: int, boundary: list):
    """Welzl recursion over the first count points with a fixed boundary set."""
    ball = _ball_of_basis(boundary)
    if len(boundary) == 4:
        return ball
    i = 0
    while i < count:
        p = points[i]
        if ball is None or not _ball_contains(ball[0], ball[1], p):
            ball = _welzl(points, i, boundary + [p])
            points.pop(i)
            points.insert(0, p)
        i += 1
    return ball


def min_enclosing_ball(points, seed: int = 0) -> BallResult:
    """Exact smallest enclosing ball of points in R^3.

    Duplicates within 1e-12 are collapsed before the randomized recursion;
    support membership is evaluated on the original list afterwards.
    """
    pts = [np.asarray(p, dtype=float).reshape(3) for p in points]
    if not pts:
        raise ValueError("at least one point is required")
    if not all(np.all(np.isfinite(p)) for p in pts):
        raise ValueError("points must be finite")

    unique: list[np.ndarray] = []
    for p in pts:
        if all(float(np.linalg.norm(p - u)) > _DEDUP_TOL for u in unique):
            unique.append(p)

    shuffled = list(unique)
    random.Random(seed).shuffle(shuffled)
    ball = _welzl(shuffled, len(shuffled), [])
    center = ball[0]
    radius = math.sqrt(max(ball[1], 0.0))

    tol = SUPPORT_TOL * (1.0 + radius)
    support = tuple(
        i for i, p in enumerate(pts) if abs(float(np.linalg.norm(p - center)) - radius) <= tol
    )
    center = center.copy()
    center.setflags(write=False)
    return BallResult(center=center, radius=radius, support=support, seed=seed)


def convex_weights_for_center(points, center, tol: float = 1e-9) -> np.ndarray:
    """Convex weights over points reproducing a target inside their hull.

    Wolfe's minimum-norm-point algorithm (Math. Programming 11, 1976) on
    the points shifted by the target finds the hull point nearest the
    target as a convex combination of a corral of at most four affinely
    independent points; it is accepted when its residual is below tol.
    Raising here signals a point set that does not actually contain the
    target, e.g. a support set that is not a true enclosing-ball support.
    """
    pts = np.asarray([np.asarray(p, dtype=float).reshape(3) for p in points])
    target = np.asarray(center, dtype=float).reshape(3)
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


def _basis_candidates(pts, shifts, subset) -> list[np.ndarray]:
    """Optimum over a subset if every subset constraint is active there.

    The optimal center lies in the affine hull of the active points, so
    restricting to that hull loses nothing. Differences of squared
    constraint equations are linear in the center for a fixed value t,
    yielding center(t) affine in t; the remaining norm equation is then a
    quadratic in t. A root is the optimum iff its center lies in the
    subset's convex hull (non-negative multipliers).
    """
    idx = list(subset)
    base = pts[idx[0]]
    s0 = shifts[idx[0]]

    if len(idx) == 1:
        return [base]

    if len(idx) == 2:
        delta = pts[idx[1]] - base
        d = float(np.linalg.norm(delta))
        if d < 1e-14:
            return []
        tau = 0.5 * (d + shifts[idx[1]] - s0)
        if tau < 0.0 or tau > d:
            return []
        return [base + (tau / d) * delta]

    edges = np.array([pts[i] - base for i in idx[1:]])
    diffs = np.array([shifts[i] - s0 for i in idx[1:]])
    lengths_sq = np.sum(edges * edges, axis=1)
    a_vec = lengths_sq - diffs * (np.array([shifts[i] for i in idx[1:]]) + s0)
    b_vec = 2.0 * diffs

    gram = edges @ edges.T
    if abs(float(np.linalg.det(gram))) <= 1e-24 * max(float(np.prod(lengths_sq)), 1e-300):
        return []
    coeff_a, coeff_b = np.linalg.solve(gram, 0.5 * np.array([a_vec, b_vec]).T).T
    w_a, w_b = coeff_a @ edges, coeff_b @ edges

    # |w_a + t w_b|^2 = (t - s0)^2
    qa = float(w_b @ w_b) - 1.0
    qb = 2.0 * float(w_a @ w_b) + 2.0 * s0
    qc = float(w_a @ w_a) - s0 * s0
    out = []
    s_max = max(shifts[i] for i in idx)
    for t in _solve_quadratic(qa, qb, qc):
        if t < s_max - 1e-12:
            continue
        coeff = coeff_a + t * coeff_b
        if np.min(coeff) < -1e-9 or float(np.sum(coeff)) > 1.0 + 1e-9:
            continue
        k = base + w_a + t * w_b
        if all(abs(float(np.linalg.norm(k - pts[i])) - (t - shifts[i])) <= 1e-7 for i in idx):
            out.append(k)
    return out


def _improve_basis(pts, shifts, basis: tuple[int, ...], violator: int):
    """Optimum over basis plus violator and a basis attaining it.

    The violator raises the optimum, so only subsets holding it (at most
    15) can be bases. A subset optimum feasible for all members is their
    optimum: the candidate of least value over the members wins.
    """
    members = list(basis) + [violator]
    best = None
    for size in range(min(len(basis), 3) + 1):
        for rest in combinations(basis, size):
            subset = (violator,) + rest
            for k in _basis_candidates(pts, shifts, subset):
                value = float(np.max(shifts[members] + np.linalg.norm(pts[members] - k, axis=1)))
                if best is None or value < best[2]:
                    best = (subset, k, value)
    return best


def shifted_ball_dual(points, shifts, max_iter: int = 100_000) -> ShiftedBallResult:
    """Minimize max_x (shift_x + |k - point_x|) exactly, by basis improvement.

    Starting from the ball with the largest shift, each step re-solves the
    basis with the most violated ball; the value rises strictly, so no
    basis repeats. With no violation beyond a relative 1e-13 the basis
    optimum is global. max_iter caps the improvement steps.
    """
    pts = np.asarray([np.asarray(p, dtype=float).reshape(3) for p in points])
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
    k, t = pts[basis[0]], float(s[basis[0]])
    for step in range(max_iter + 1):
        gaps = s + np.linalg.norm(pts - k, axis=1)
        violator = int(np.argmax(gaps))
        if gaps[violator] <= t * (1.0 + 1e-13):
            break
        if step == max_iter:
            raise ConvergenceError(f"basis improvement did not settle in {max_iter} steps")
        basis, k, value = _improve_basis(pts, s, basis, violator)
        if value <= t:
            break  # the rise fell below rounding: k is optimal to working precision
        t = value

    gaps = s + np.linalg.norm(pts - k, axis=1)
    t = float(np.max(gaps))
    active = tuple(int(i) for i in np.flatnonzero(gaps >= t - 1e-7 * (1.0 + t)))
    k = k.copy()
    k.setflags(write=False)
    return ShiftedBallResult(center=k, value=t, active=active)
