import math
import random
from itertools import combinations

import numpy as np
import pytest

from qdiscrim import HermitianOperator, SteeringMeasurement, convex_weights_for_center
from qdiscrim.operators import hermitian_eigen


def compose_rotations_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random unitary built from composed two-level plane rotations."""
    u = np.eye(dim, dtype=complex)
    for _ in range(2):
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                theta = rng.uniform(0, 2 * np.pi)
                phi = rng.uniform(0, 2 * np.pi)
                g = np.eye(dim, dtype=complex)
                g[p, p] = np.cos(theta)
                g[q, q] = np.cos(theta)
                g[p, q] = -np.exp(1j * phi) * np.sin(theta)
                g[q, p] = np.exp(-1j * phi) * np.sin(theta)
                u = u @ g
    return u


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_rotation_3d(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def steering_measurement_for_state(symmetry_op, rho, fire_prob) -> SteeringMeasurement:
    """Invert the steering map: the A-side measurement whose first outcome
    prepares rho with the given probability on the B side."""
    total = symmetry_op.trace()
    normalized = symmetry_op.matrix / total
    decomp = hermitian_eigen(HermitianOperator(normalized))
    d_half = np.diag(1.0 / np.sqrt(np.maximum(decomp.eigenvalues, 1e-300)))
    v = decomp.eigenvectors
    target = fire_prob * rho.matrix
    m_t = d_half @ v.conj().T @ target @ v @ d_half
    return SteeringMeasurement(HermitianOperator(m_t.T))


def random_class_element_params(rng: np.random.Generator):
    """Admissible inputs for the direct qubit ensemble constructor."""
    while True:
        m = int(rng.integers(2, 5))
        units = rng.standard_normal((m, 3))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        try:
            weights = convex_weights_for_center(list(units), np.zeros(3))
        except ValueError:
            continue
        a = 2.0 * weights
        if float(np.linalg.norm(sum(w * u for w, u in zip(a, units)))) > 5e-10:
            continue
        q = 1.0 + 0.3 * rng.uniform(-1, 1, m)
        q /= q.sum()
        headroom = 2 * float(np.min(q)) - float(np.max(q))
        if headroom < 0.05:
            continue
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        center = float(rng.uniform(0, 0.25 * headroom)) * direction
        slack = 2 * float(np.min(q)) - float(np.linalg.norm(center)) - float(np.max(q))
        value = float(np.max(q)) + float(rng.uniform(0.2, 0.9)) * slack
        return value, center, list(units), a, q


def _ball_contains(center, radius_sq, p) -> bool:
    d = p - center
    return float(d @ d) <= radius_sq * (1 + 1e-14) + 1e-30


def _circumcenter_3(a, b, c):
    """Center of the circle through three points, in their plane."""
    ab, ac = b - a, c - a
    g11, g22, g12 = float(ab @ ab), float(ac @ ac), float(ab @ ac)
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
    if abs(det) <= 1e-12 * max(float(np.max(np.abs(m))) ** 3, 1e-300):
        return None
    return np.linalg.solve(m, rhs)


def _circumball(points):
    """(center, radius_sq) of the ball with at most four points on its sphere,
    centred in their affine hull; None for a collinear triple or a coplanar
    quadruple."""
    n = len(points)
    if n == 1:
        center = points[0]
    elif n == 2:
        center = 0.5 * (points[0] + points[1])
    elif n == 3:
        center = _circumcenter_3(*points)
    else:
        center = _circumcenter_4(*points)
    if center is None:
        return None
    return center, max(float((p - center) @ (p - center)) for p in points)


def _ball_of_basis(basis):
    """Smallest ball enclosing at most four points, by subset enumeration."""
    best = None
    for size in range(1, len(basis) + 1):
        for subset in combinations(basis, size):
            ball = _circumball(list(subset))
            if ball is not None and all(_ball_contains(*ball, p) for p in basis):
                if best is None or ball[1] < best[1]:
                    best = ball
    return best


def _welzl(points, count, boundary):
    """Welzl's move-to-front recursion over the first count points with a
    fixed boundary set; a degenerate boundary falls back to the smallest
    ball enclosing it."""
    ball = (_circumball(boundary) or _ball_of_basis(boundary)) if boundary else None
    if len(boundary) == 4:
        return ball
    i = 0
    while i < count:
        p = points[i]
        if ball is None or not _ball_contains(*ball, p):
            ball = _welzl(points, i, boundary + [p])
            points.pop(i)
            points.insert(0, p)
        i += 1
    return ball


def reference_min_enclosing_ball(points, seed=0):
    """Center, radius and support (within 1e-9 (1 + radius)) of the smallest
    ball enclosing the points, by Welzl's recursion (LNCS 555, 1991) on the
    points shuffled with the seed, duplicates included."""
    pts = [np.asarray(p, dtype=float).reshape(3) for p in points]
    order = pts.copy()
    random.Random(seed).shuffle(order)
    center, radius_sq = _welzl(order, len(order), [])
    radius = math.sqrt(max(radius_sq, 0.0))
    lengths = [float(np.linalg.norm(p - center)) for p in pts]
    support = tuple(i for i, r in enumerate(lengths) if abs(r - radius) <= 1e-9 * (1.0 + radius))
    return center, radius, support


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
