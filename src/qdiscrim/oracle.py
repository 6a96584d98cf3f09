"""Independent ground truth for validating the solvers.

The grid oracle minimizes the qubit dual objective by brute force over
the three-dimensional ball parameter, with no shared code paths with the
solvers. Random-instance generation and the probability-theoretic
guessing identities live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import _bloch_vectors
from .operators import DensityOperator, HermitianOperator, _matrix_stack
from .solve import WeightedEnsemble

_COARSE_STEP = 0.05
_MIN_PRIOR = 1e-6


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """Table of outcome probabilities P(x|y), columns indexed by the prepared state."""

    probabilities: np.ndarray

    def __init__(self, probabilities) -> None:
        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"expected a square table, got shape {p.shape}")
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValueError("table entries must lie in [0, 1]")
        sums = np.sum(p, axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-10):
            raise ValueError("table columns must sum to 1")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @property
    def size(self) -> int:
        return self.probabilities.shape[0]


@dataclass(frozen=True, eq=False)
class TableGuessing:
    """Two evaluations of the guessing probability from a conditional table.

    from_diagonal is the direct average of correct-guess probabilities.
    from_uniform_distance rewrites it through per-column distances from
    the uniform distribution; the two coincide exactly when every column
    is diagonally dominant (correct guess at least 1/N, each wrong guess
    at most 1/N), which premise_ok records.
    """

    from_diagonal: float
    from_uniform_distance: float
    premise_ok: bool


def conditional_table_from_povm(ensemble: WeightedEnsemble, povm) -> ConditionalTable:
    """Born-rule table P(x|y) = tr[M_x rho_y] for a measurement."""
    table = np.einsum("xij,yji->xy", _matrix_stack(povm), ensemble.matrices).real
    return ConditionalTable(np.clip(table, 0.0, 1.0))


_COARSE_GRID: np.ndarray | None = None


def _grid_points(lows, highs, step) -> np.ndarray:
    axes = [np.arange(lows[i], highs[i] + step / 2, step) for i in range(3)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def _grid_minimum(pts, shifts, grid):
    values = None
    for p, shift in zip(pts, shifts):
        diff = grid - p
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff)) + shift
        values = dist if values is None else np.maximum(values, dist)
    best = int(np.argmin(values))
    return grid[best], float(values[best])


def dual_grid_oracle(ensemble: WeightedEnsemble, resolution: float) -> float:
    """Brute-force qubit dual value by grid search over the ball parameter.

    Starts from a coarse 0.05 grid on [-1, 1]^3 (41^3 points) and
    repeatedly refines a window of 21^3 points around the running argmin,
    the step shrinking fivefold per level, until it reaches the requested
    resolution; so no level is larger than the coarse grid, however fine
    the resolution. Every evaluation is the true objective, so the result
    upper-bounds the optimum; the objective is 1-Lipschitz in the grid
    point, bounding the overshoot by sqrt(3) times the resolution. The
    resolution must be finite and positive.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and positive, got {resolution!r}")
    if ensemble.dim != 2:
        raise ValueError("the grid oracle covers qubit ensembles only")
    q = ensemble.priors
    pts = q[:, None] * _bloch_vectors(ensemble.matrices)

    global _COARSE_GRID
    if _COARSE_GRID is None:
        _COARSE_GRID = _grid_points(np.full(3, -1.0), np.full(3, 1.0), _COARSE_STEP)
    step = _COARSE_STEP
    best_k, best_f = _grid_minimum(pts, q, _COARSE_GRID)
    while step > resolution:
        next_step = max(resolution, step / 5)
        window = 2 * step
        k, f = _grid_minimum(pts, q, _grid_points(best_k - window, best_k + window, next_step))
        if f < best_f:
            best_k, best_f = k, f
        step = next_step
    return best_f


def random_ensemble(dim: int, size: int, pure: bool, seed: int) -> WeightedEnsemble:
    """Seeded random ensemble with flat-simplex priors.

    Pure states are normalized complex Gaussian vectors; mixed states come
    from G G† with complex Gaussian G. Priors are the spacings of sorted
    uniform draws, resampled while any prior is below 1e-6. The output is
    bit-identical for a fixed seed, which is recorded on the ensemble.
    """
    if dim < 2 or size < 1:
        raise ValueError("need dim >= 2 and at least one state")
    rng = np.random.default_rng(seed)

    while True:
        cuts = np.sort(rng.uniform(0.0, 1.0, size - 1))
        priors = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        if np.min(priors) >= _MIN_PRIOR:
            break

    states = []
    for _ in range(size):
        if pure:
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            rho = np.outer(vec, vec.conj())
        else:
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
        states.append(DensityOperator(HermitianOperator((rho + rho.conj().T) / 2)))
    return WeightedEnsemble(priors, states, seed=seed)


def distance_from_uniform(distribution) -> float:
    """Half the total variation between a distribution and the uniform one."""
    p = np.asarray(distribution, dtype=float).reshape(-1)
    if np.any(p < -1e-12):
        raise ValueError("probabilities must be non-negative")
    if abs(float(np.sum(p)) - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1")
    return 0.5 * float(np.sum(np.abs(p - 1.0 / len(p))))


def guessing_from_table(priors, table: ConditionalTable) -> TableGuessing:
    """Guessing probability of a conditional table, two ways.

    The diagonal form averages q_y P(y|y). The distance form evaluates
    1/N plus the prior-weighted distances of the columns from uniform,
    which reproduces the diagonal form whenever the diagonal-dominance
    premise holds; premise violations are flagged, not raised.
    """
    q = np.asarray(priors, dtype=float).reshape(-1)
    p = table.probabilities
    n = table.size
    if len(q) != n:
        raise ValueError("priors length does not match the table")

    diag = float(np.sum(q * np.diag(p)))
    column_distances = 0.5 * np.sum(np.abs(p - 1.0 / n), axis=0)
    from_distance = 1.0 / n + float(np.sum(q * column_distances))

    off_diag = p - np.diag(np.diag(p))
    premise_ok = bool(
        np.all(np.diag(p) >= 1.0 / n - 1e-12) and np.all(off_diag <= 1.0 / n + 1e-12)
    )
    return TableGuessing(
        from_diagonal=diag, from_uniform_distance=from_distance, premise_ok=premise_ok
    )
