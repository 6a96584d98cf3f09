"""Minimum-error discrimination solvers.

Produces complete solutions: guessing probability, the unique symmetry
operator of the dual problem, complementary states, an optimal POVM and
its support. Closed forms cover a single state or dimension one, two
states in any dimension and arbitrary qubit ensembles (exact
enclosing-ball reduction for equal priors, exact shifted-ball dual for
general priors). Ensembles of three or more states in dimension three or
higher have no known solver and are rejected; the certificate module can
still check externally supplied candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    convex_weights_for_center,
    min_enclosing_ball,
    shifted_ball_dual,
    to_bloch,
)
from .errors import InfeasibleDualError, UnsupportedInstanceError
from .operators import (
    DensityOperator,
    HermitianOperator,
    _as_matrix,
    _density_from_spectrum,
    _eigh,
    _negative_part_and_projector,
)

DEGENERATE_WEIGHT_TOL = 1e-12
SUPPORT_FRACTION_TOL = 1e-7
DUAL_FEASIBILITY_TOL = 1e-8
COMPLETENESS_TOL = 1e-9
UNIFORM_PRIOR_TOL = 1e-10
COMPLEMENTARY_NOISE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class WeightedEnsemble:
    """Prior probabilities q_x and density operators rho_x of common dimension."""

    priors: np.ndarray
    states: tuple[DensityOperator, ...]
    seed: int | None = None

    def __init__(self, priors, states, seed: int | None = None) -> None:
        q = np.asarray(priors, dtype=float).reshape(-1)
        states = tuple(
            s if isinstance(s, DensityOperator) else DensityOperator(s) for s in states
        )
        if len(q) != len(states) or len(states) == 0:
            raise ValueError("priors and states must be non-empty and of equal length")
        if np.any(q <= 0):
            raise ValueError("priors must be strictly positive")
        if abs(float(np.sum(q)) - 1.0) > 1e-10:
            raise ValueError(f"priors must sum to 1, got {float(np.sum(q))!r}")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise ValueError(f"states must share one dimension, got {sorted(dims)}")
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "priors", q)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "seed", seed)

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


@dataclass(frozen=True, eq=False)
class ComplementarySet:
    """Weights r_x and states sigma_x with K = q_x rho_x + r_x sigma_x.

    A state is None exactly when its weight is numerically zero, meaning
    the ensemble member is identified with certainty and its complementary
    state is undefined.
    """

    weights: np.ndarray
    states: tuple[DensityOperator | None, ...]


@dataclass(frozen=True, eq=False)
class DiscriminationSolution:
    """A solved instance: value, dual optimum, complementary states, POVM."""

    p_guess: float
    symmetry_op: HermitianOperator
    complementary: ComplementarySet
    povm: tuple[HermitianOperator, ...]
    support: tuple[int, ...]


def complementary_states(
    symmetry_op,
    ensemble: WeightedEnsemble,
    feasibility_tol: float = DUAL_FEASIBILITY_TOL,
) -> ComplementarySet:
    """Recover weights and complementary states from a dual-feasible operator.

    Each weight is trace(K) - q_x and each state is (K - q_x rho_x)
    normalized by its weight. Operators violating K >= q_x rho_x beyond
    feasibility_tol are rejected. Weights at or below 1e-12 flag a state
    identified with certainty; its complementary state is returned absent.
    Each gap is diagonalized once: sigma_x shares its eigenvectors, with
    eigenvalues scaled by 1 / r_x.
    """
    k = _as_matrix(symmetry_op)
    if k.shape[0] != ensemble.dim:
        raise ValueError("operator dimension does not match the ensemble")
    total = float(np.trace(k).real)
    weights = total - ensemble.priors
    states: list[DensityOperator | None] = []
    for x, rho in enumerate(ensemble.states):
        values, vectors = _eigh(k - ensemble.priors[x] * rho.matrix)
        smallest = float(values[-1])
        if smallest < -feasibility_tol:
            raise InfeasibleDualError(
                f"K - q_x rho_x has eigenvalue {smallest:.3e} for state {x}"
            )
        if weights[x] <= DEGENERATE_WEIGHT_TOL:
            states.append(None)
            continue
        scaled = values / weights[x]
        if scaled[-1] < -COMPLEMENTARY_NOISE_TOL:
            raise InfeasibleDualError(f"operator has negative eigenvalue {scaled[-1]:.3e}")
        states.append(_density_from_spectrum(scaled, vectors))
    weights = np.maximum(weights, 0.0)
    weights.setflags(write=False)
    return ComplementarySet(weights=weights, states=tuple(states))


def _zero(dim: int) -> np.ndarray:
    return np.zeros((dim, dim), dtype=complex)


def reconstruct_povm(
    ensemble: WeightedEnsemble,
    symmetry_op,
    complementary: ComplementarySet,
) -> list[HermitianOperator]:
    """Optimal qubit POVM from the symmetry operator's complementary states.

    Support states (pure complementary state) receive rank-one elements
    proportional to the state antipodal to sigma_x, weighted so the POVM
    sums to the identity; all other states receive the explicit zero
    matrix (null measurement). The weights come from convex coefficients
    expressing the origin inside the hull of the support directions,
    found by Wolfe's minimum-norm-point algorithm on at most four of them.
    """
    if ensemble.dim != 2:
        raise UnsupportedInstanceError("POVM reconstruction applies to qubit ensembles only")
    n = ensemble.size
    identity = np.eye(2, dtype=complex)

    degenerate = [x for x in range(n) if complementary.states[x] is None]
    if degenerate:
        povm = [_zero(2)] * n
        povm[degenerate[0]] = identity
        return [HermitianOperator(m) for m in povm]

    directions = [to_bloch(sigma) for sigma in complementary.states]
    support = [x for x in range(n) if np.linalg.norm(directions[x]) >= 1.0 - SUPPORT_FRACTION_TOL]
    if not support:
        raise InfeasibleDualError("no support states: candidate operator cannot be optimal")

    units = [directions[x] / np.linalg.norm(directions[x]) for x in support]
    weights = convex_weights_for_center(units, np.zeros(3))

    povm = [_zero(2)] * n
    for w, x, u in zip(weights, support, units):
        scale = 2.0 * w
        povm[x] = scale * 0.5 * (identity - (u[0] * PAULI_X + u[1] * PAULI_Y + u[2] * PAULI_Z))

    total = sum(povm)
    if float(np.max(np.abs(total - identity))) > COMPLETENESS_TOL:
        raise InfeasibleDualError("reconstructed POVM does not resolve the identity")
    return [HermitianOperator(m) for m in povm]


def _assemble(
    ensemble: WeightedEnsemble,
    sym: HermitianOperator,
    comp: ComplementarySet,
    povm: list[HermitianOperator],
) -> DiscriminationSolution:
    """Combine solver outputs into a validated solution."""
    p_guess = sym.trace()

    total = sum(m.matrix for m in povm)
    if float(np.max(np.abs(total - np.eye(ensemble.dim)))) > COMPLETENESS_TOL:
        raise InfeasibleDualError("POVM does not sum to the identity")
    for m in povm:
        if float(_eigh(m.matrix)[0][-1]) < -1e-10:
            raise InfeasibleDualError("POVM element is not positive semidefinite")
    q_max = float(np.max(ensemble.priors))
    if not (q_max - 1e-9 <= p_guess <= 1.0 + 1e-9):
        raise InfeasibleDualError(f"guessing probability {p_guess} outside [max q_x, 1]")

    support = tuple(
        x for x, m in enumerate(povm) if float(np.max(np.abs(m.matrix))) > DEGENERATE_WEIGHT_TOL
    )
    return DiscriminationSolution(
        p_guess=p_guess,
        symmetry_op=sym,
        complementary=comp,
        povm=tuple(povm),
        support=support,
    )


def _trivial_solution(ensemble: WeightedEnsemble) -> DiscriminationSolution:
    """Closed form when one state or dimension one leaves nothing to tell apart.

    Naming the most likely state is optimal: P = max q_x, with K = q_m rho_m
    for the first argmax m (K = rho for a single state, K = [max q_x] in
    dimension one) and the identity as its POVM element.
    """
    m = int(np.argmax(ensemble.priors))
    sym = HermitianOperator(ensemble.priors[m] * ensemble.states[m].matrix)
    povm = [_zero(ensemble.dim)] * ensemble.size
    povm[m] = np.eye(ensemble.dim, dtype=complex)
    return _assemble(
        ensemble, sym, complementary_states(sym, ensemble), [HermitianOperator(p) for p in povm]
    )


def helstrom_two_state(ensemble: WeightedEnsemble) -> DiscriminationSolution:
    """Closed-form optimum for two states of any common dimension.

    The value is (1 + ||q1 rho1 - q2 rho2||_1) / 2; the first POVM element
    projects onto the non-negative eigenspace of the weighted difference
    and the symmetry operator is q1 rho1 plus the difference's negative
    part.
    """
    if ensemble.size != 2:
        raise ValueError(f"two-state solver got {ensemble.size} states")
    q1, q2 = ensemble.priors
    rho1, rho2 = (s.matrix for s in ensemble.states)
    delta = q1 * rho1 - q2 * rho2

    negative, m1 = _negative_part_and_projector(delta)
    m2 = np.eye(ensemble.dim, dtype=complex) - m1
    sym = HermitianOperator(q1 * rho1 + negative)
    return _assemble(
        ensemble,
        sym,
        complementary_states(sym, ensemble),
        [HermitianOperator(m1), HermitianOperator(m2)],
    )


def _qubit_symmetry_matrix(value: float, center: np.ndarray) -> np.ndarray:
    return 0.5 * (
        value * np.eye(2, dtype=complex)
        + center[0] * PAULI_X
        + center[1] * PAULI_Y
        + center[2] * PAULI_Z
    )


def _solve_qubit_from_ball(
    ensemble: WeightedEnsemble, value: float, center: np.ndarray
) -> DiscriminationSolution:
    sym = HermitianOperator(_qubit_symmetry_matrix(value, center))
    comp = complementary_states(sym, ensemble)
    povm = reconstruct_povm(ensemble, sym, comp)
    return _assemble(ensemble, sym, comp, povm)


def solve_qubit_equal_priors(ensemble: WeightedEnsemble) -> DiscriminationSolution:
    """Exact solution for any qubit ensemble with uniform priors.

    Dual feasibility of K = (t I + k . sigma)/2 says t - 1/N must bound
    the distance from k to every scaled Bloch point v_x / N, so the
    optimum is the minimum enclosing ball of those points: t is 1/N plus
    its radius and k is its center.
    """
    if ensemble.dim != 2:
        raise UnsupportedInstanceError("geometric solver applies to qubit ensembles only")
    n = ensemble.size
    if float(np.max(np.abs(ensemble.priors - 1.0 / n))) > UNIFORM_PRIOR_TOL:
        raise ValueError("geometric solver requires uniform priors")

    points = [to_bloch(s) / n for s in ensemble.states]
    ball = min_enclosing_ball(points)
    return _solve_qubit_from_ball(ensemble, 1.0 / n + ball.radius, ball.center)


def solve_qubit(ensemble: WeightedEnsemble) -> DiscriminationSolution:
    """Exact solution for any qubit ensemble with arbitrary priors.

    Solves the shifted-ball dual min_k max_x (q_x + |k - q_x v_x|) and
    rebuilds complementary states and POVM from its optimum.
    """
    if ensemble.dim != 2:
        raise UnsupportedInstanceError("qubit solver applies to qubit ensembles only")
    points = [ensemble.priors[x] * to_bloch(s) for x, s in enumerate(ensemble.states)]
    result = shifted_ball_dual(points, ensemble.priors)
    return _solve_qubit_from_ball(ensemble, result.value, result.center)


def solve(ensemble: WeightedEnsemble) -> DiscriminationSolution:
    """Dispatch to the strongest applicable solver.

    A single state or dimension one is trivial; two states of any
    dimension use the closed form; qubit ensembles use the geometric
    solver for uniform priors and the shifted-ball dual otherwise.
    Anything else is unsupported.
    """
    if ensemble.size == 1 or ensemble.dim == 1:
        return _trivial_solution(ensemble)
    if ensemble.size == 2:
        return helstrom_two_state(ensemble)
    if ensemble.dim == 2:
        n = ensemble.size
        if float(np.max(np.abs(ensemble.priors - 1.0 / n))) <= UNIFORM_PRIOR_TOL:
            return solve_qubit_equal_priors(ensemble)
        return solve_qubit(ensemble)
    raise UnsupportedInstanceError(
        "no solver for three or more states beyond qubits; "
        "use qdiscrim.certify to check candidate solutions"
    )
