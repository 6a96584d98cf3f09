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
from .operators import (
    MAX_DIM, DensityOperator, _count, _expect, _Frozen, _priors, _real_array, _real_scalar, _seed,
    _store, _trusted,
)
from .solve import WeightedEnsemble, _povm_stack

_COARSE_STEP = 0.05
_MIN_PRIOR = 1e-6
_PRIOR_DRAWS = 1000


@dataclass(frozen=True, eq=False)
class ConditionalTable(_Frozen):
    """Table of outcome probabilities P(x|y), columns indexed by the prepared state."""

    probabilities: np.ndarray

    def __init__(self, probabilities) -> None:
        p = _real_array(probabilities, "table")
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"expected a square table, got shape {p.shape}")
        if not np.all((p >= -1e-12) & (p <= 1 + 1e-12)):  # NaN too
            raise ValueError("table entries must lie in [0, 1]")
        sums = np.sum(p, axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-10):
            raise ValueError("table columns must sum to 1")
        _store(self, probabilities=p)

    @property
    def size(self) -> int:
        return self.probabilities.shape[0]


@dataclass(frozen=True, eq=False)
class TableGuessing(_Frozen):
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
    """Born-rule table P(x|y) = tr[M_x rho_y] of a measurement that passes solve._povm_stack."""
    _expect(ensemble, WeightedEnsemble)
    table = np.einsum("xij,yji->xy", _povm_stack(ensemble, povm), ensemble.matrices).real
    return ConditionalTable(np.clip(table, 0.0, 1.0))


def _grid_points(lows, highs, step) -> np.ndarray:
    axes = [np.arange(lows[i], highs[i] + step / 2, step) for i in range(3)]
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, 3)


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

    One loop of windows: the first is the cube [-1, 1]^3 at the coarse
    step 0.05 (41^3 points), each next one 21^3 points around the running
    argmin, the step shrinking fivefold per window until it reaches the
    requested resolution; so no window is larger than the cube's, however
    fine the resolution, and no grid is kept between calls. Every
    evaluation is the true objective, so the result upper-bounds the
    optimum; the objective is 1-Lipschitz in the grid point, so the cube's
    grid bounds the overshoot by sqrt(3) * 0.05. The later windows can miss
    the minimizer: they lower the value, with no bound of their own. The
    resolution must be finite and at least 1e-15, below which a window's
    points are no longer distinct floats.
    """
    _expect(ensemble, WeightedEnsemble)
    # positive: at least the least positive float
    resolution = _real_scalar(resolution, "resolution must be finite and positive", math.ulp(0.0))
    if resolution < 1e-15:
        raise ValueError(f"resolution {resolution!r} is below the floor 1e-15")
    if ensemble.dim != 2:
        raise ValueError("the grid oracle covers qubit ensembles only")
    q = ensemble.priors
    pts = q[:, None] * _bloch_vectors(ensemble.matrices)

    best_k, best_f = np.zeros(3), math.inf
    half_width, step = 1.0, _COARSE_STEP  # the first window is the cube [-1, 1]^3
    while True:
        k, f = _grid_minimum(pts, q, _grid_points(best_k - half_width, best_k + half_width, step))
        if f < best_f:
            best_k, best_f = k, f
        if step <= resolution:
            return best_f
        half_width, step = 2 * step, max(resolution, step / 5)


def random_ensemble(dim: int, size: int, pure: bool, seed: int) -> WeightedEnsemble:
    """Seeded random ensemble with flat-simplex priors.

    Pure states are normalized complex Gaussian vectors; mixed states come
    from G G† / tr with complex Gaussian G, both PSD of unit trace by
    construction and so built unchecked. Priors are the spacings of sorted
    uniform draws, resampled while any prior is below 1e-6, at most 1,000
    times. All spacings clear 1e-6 with probability about
    exp(-size^2 * 1e-6), so that bound is reached from a few thousand
    states on; the priors are then the last spacings p mapped to
    1e-6 + (1 - size * 1e-6) p, which sum to one and are all at least 1e-6.
    More than 10^6 states cannot all have that prior and raise ValueError.
    The output is bit-identical for a fixed seed, which is recorded on the
    ensemble.
    """
    dim, size, seed = _count(dim, "dim"), _count(size, "size"), _seed(seed)
    if not 2 <= dim <= MAX_DIM or size < 1:
        raise ValueError(f"need 2 <= dim <= {MAX_DIM} and at least one state")
    if size > round(1 / _MIN_PRIOR):
        raise ValueError(f"at most {round(1 / _MIN_PRIOR)} states have priors of at least 1e-6")
    rng = np.random.default_rng(seed)

    for _ in range(_PRIOR_DRAWS):
        cuts = np.sort(rng.uniform(0.0, 1.0, size - 1))
        priors = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        if np.min(priors) >= _MIN_PRIOR:
            break
    else:
        priors = _MIN_PRIOR + (1.0 - size * _MIN_PRIOR) * priors

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
        states.append(_trusted(DensityOperator, matrix=(rho + rho.conj().T) / 2))
    return WeightedEnsemble(priors, states, seed=seed)


def distance_from_uniform(distribution) -> float:
    """Half the total variation between a distribution and the uniform one."""
    p = _real_array(distribution, "distribution").reshape(-1)
    if not np.all(p >= -1e-12):  # NaN too
        raise ValueError("probabilities must be non-negative")
    if (p > 1 + 1e-9).any() or abs(float(np.sum(p)) - 1.0) > 1e-9:  # no sum overflows
        raise ValueError("probabilities must sum to 1")
    return 0.5 * float(np.sum(np.abs(p - 1.0 / len(p))))


def guessing_from_table(priors, table: ConditionalTable) -> TableGuessing:
    """Guessing probability of a conditional table, two ways, for priors that pass _priors.

    The diagonal form averages q_y P(y|y). The distance form evaluates
    1/N plus the prior-weighted distances of the columns from uniform,
    which reproduces the diagonal form whenever the diagonal-dominance
    premise holds; premise violations are flagged, not raised.
    """
    _expect(table, ConditionalTable)
    q = _priors(priors, table.size, "priors")
    p = table.probabilities
    n = table.size

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
