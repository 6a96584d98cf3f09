"""Minimum-error discrimination solvers.

Produces complete solutions: guessing probability, the unique symmetry
operator of the dual problem, complementary states, an optimal POVM and
its support. Closed forms cover a single state or dimension one, two
states in any dimension and arbitrary qubit ensembles, through one exact
shifted-ball dual for every prior (equal priors are equal shifts, and
the dual is then the paper's minimum enclosing ball). Given the symmetry
operator, one search in any dimension finds an optimal POVM on the
kernels of the complementary states (reconstruct_povm); the qubit
solvers and the generators both use it. Ensembles of three or more
states in dimension three or higher have no known solver and are
rejected; the certificate module can still check externally supplied
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bloch import (
    _bloch_vectors,
    _operators,
    convex_weights_for_center,
    shifted_ball_dual,
)
from .errors import InfeasibleDualError, UnsupportedInstanceError
from .operators import (
    DensityOperator,
    HermitianOperator,
    SpectralDecomposition,
    _as_matrix,
    _density_from_spectrum,
    _eigh,
    _eigvalsh,
    _hermitian_operators,
    _negative_part_and_projector,
)

DEGENERATE_WEIGHT_TOL = 1e-12
KERNEL_TOL = 1e-9
DUAL_FEASIBILITY_TOL = 1e-8
COMPLETENESS_TOL = 1e-9
UNIFORM_PRIOR_TOL = 1e-10
COMPLEMENTARY_NOISE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class WeightedEnsemble:
    """Prior probabilities q_x and density operators rho_x of common dimension.

    matrices is the read-only stack (N, d, d) of the state matrices, built
    once, for the per-state work of the solvers and the certificate.
    """

    priors: np.ndarray
    states: tuple[DensityOperator, ...]
    seed: int | None = None
    matrices: np.ndarray = field(init=False, repr=False)

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
        matrices = np.stack([s.matrix for s in states])
        matrices.setflags(write=False)
        object.__setattr__(self, "priors", q)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "matrices", matrices)

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
    state is undefined. spectra stacks the eigenvalues (L, d), descending,
    and eigenvector columns (L, d, d) of the L present states in order,
    for the POVM search: complementary_states hands over the spectra of
    the gaps it diagonalized, and a set built from its states derives them
    in one stacked call.
    """

    weights: np.ndarray
    states: tuple[DensityOperator | None, ...]
    spectra: SpectralDecomposition = field(init=False, repr=False)

    def __init__(self, weights, states) -> None:
        states = tuple(states)
        present = [s.matrix for s in states if s is not None]
        empty = (np.zeros((0, 0)), np.zeros((0, 0, 0), dtype=complex))
        self._fill(weights, states, *(_eigh(np.stack(present)) if present else empty))

    def _fill(self, weights, states, values, vectors) -> None:
        values.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "spectra", SpectralDecomposition(values, vectors))

    @classmethod
    def _from_spectra(cls, weights, states, values, vectors) -> ComplementarySet:
        """A set whose states' spectra are already known, decomposed no further."""
        out = object.__new__(cls)
        out._fill(weights, states, values, vectors)
        return out


@dataclass(frozen=True, eq=False)
class DiscriminationSolution:
    """A solved instance: value, dual optimum, complementary states, POVM."""

    p_guess: float
    symmetry_op: HermitianOperator
    complementary: ComplementarySet
    povm: tuple[HermitianOperator, ...]
    support: tuple[int, ...]


def complementary_states(symmetry_op, ensemble: WeightedEnsemble) -> ComplementarySet:
    """Recover weights and complementary states from a dual-feasible operator.

    Each weight is trace(K) - q_x and each state is (K - q_x rho_x)
    normalized by its weight. Operators violating K >= q_x rho_x beyond
    DUAL_FEASIBILITY_TOL are rejected. Weights at or below 1e-12 flag a state
    identified with certainty; its complementary state is returned absent.
    All gaps are diagonalized in one stacked call: sigma_x shares its
    gap's eigenvectors, with eigenvalues scaled by 1 / r_x.
    """
    k = _as_matrix(symmetry_op)
    if k.shape[0] != ensemble.dim:
        raise ValueError("operator dimension does not match the ensemble")
    total = float(np.trace(k).real)
    weights = total - ensemble.priors
    values, vectors = _eigh(k - ensemble.priors[:, None, None] * ensemble.matrices)
    live = weights > DEGENERATE_WEIGHT_TOL
    scaled = values[live] / weights[live, None]
    defect = values[:, -1] < -DUAL_FEASIBILITY_TOL
    defect[live] |= scaled[:, -1] < -COMPLEMENTARY_NOISE_TOL
    if defect.any():
        x = int(np.argmax(defect))
        if values[x, -1] < -DUAL_FEASIBILITY_TOL:
            raise InfeasibleDualError(
                f"K - q_x rho_x has eigenvalue {values[x, -1]:.3e} for state {x}"
            )
        smallest = values[x, -1] / weights[x]
        raise InfeasibleDualError(f"operator has negative eigenvalue {smallest:.3e}")
    vectors = vectors[live]
    rebuilt = iter(_density_from_spectrum(scaled, vectors))
    states = tuple(next(rebuilt) if keep else None for keep in live)
    weights = np.maximum(weights, 0.0)
    weights.setflags(write=False)
    return ComplementarySet._from_spectra(weights, states, scaled, vectors)


def reconstruct_povm(
    ensemble: WeightedEnsemble, complementary: ComplementarySet
) -> list[HermitianOperator]:
    """Optimal POVM for K from the kernels of its complementary states, any d.

    Orthogonality r_x tr[M_x sigma_x] = 0 puts each element M_x in the
    kernel of sigma_x (eigenvalues at most KERNEL_TOL). A state with no
    complementary state has r_x = 0, so K = q_x rho_x: it attains trace(K)
    alone and takes the identity. Otherwise the candidates are the
    rank-one projectors onto each kernel's eigenvectors and, in kernels of
    dimension two or more, onto the normalized pairwise sums v_i + v_j and
    v_i + i v_j, which reach the off-diagonal part of the kernel block.
    Every candidate has trace one, so sum_j w_j m_j = I with w >= 0 says
    exactly that I/d is the convex combination with weights w_j / d: hull
    membership, solved by Wolfe's minimum-norm point
    (convex_weights_for_center) on the rows Re + Im of the candidates and
    of I/d: that map takes Hermitian matrices isometrically into R^(d*d),
    since their symmetric and antisymmetric parts are orthogonal. Each
    element sums the weighted candidates of its state. The kernels come
    from the spectra the set holds, so nothing is diagonalized here, and
    the ensemble gives the dimension. Raises InfeasibleDualError when no
    kernel is non-trivial or the candidates cannot resolve the identity.
    """
    n, d = ensemble.size, ensemble.dim
    povm = np.zeros((n, d, d), dtype=complex)
    absent = [x for x, sigma in enumerate(complementary.states) if sigma is None]
    if absent:
        povm[absent[0]] = np.eye(d)
        return list(_hermitian_operators(povm))

    rows = complementary.spectra.eigenvectors.swapaxes(1, 2)  # row j: eigenvector j
    kernel = complementary.spectra.eigenvalues <= KERNEL_TOL
    single_owner, single = np.nonzero(kernel)
    index = np.arange(d)
    pair_owner, first, second = np.nonzero(
        kernel[:, :, None] & kernel[:, None, :] & (index[:, None] < index)
    )
    a, b = rows[pair_owner, first], rows[pair_owner, second]
    sums = np.stack([a + b, a + 1j * b], axis=1).reshape(-1, d)
    owners = np.concatenate([single_owner, np.repeat(pair_owner, 2)])
    if owners.size == 0:
        raise InfeasibleDualError("no complementary state has a kernel: K cannot be optimal")
    vectors = np.concatenate(
        [rows[single_owner, single], sums / np.linalg.norm(sums, axis=1, keepdims=True)]
    )
    projectors = np.einsum("ni,nj->nij", vectors, vectors.conj())

    flat = (projectors.real + projectors.imag).reshape(owners.size, -1)
    try:
        weights = d * convex_weights_for_center(flat, np.eye(d).reshape(-1) / d)
    except ValueError as exc:
        raise InfeasibleDualError("kernel projectors do not resolve the identity") from exc
    np.add.at(povm, owners, weights[:, None, None] * projectors)
    return list(_hermitian_operators(povm))


def _assemble(
    ensemble: WeightedEnsemble,
    sym: HermitianOperator,
    comp: ComplementarySet,
    povm: list[HermitianOperator],
) -> DiscriminationSolution:
    """Combine solver outputs into a validated solution."""
    p_guess = sym.trace()

    matrices = np.stack([m.matrix for m in povm])
    if float(np.max(np.abs(matrices.sum(axis=0) - np.eye(ensemble.dim)))) > COMPLETENESS_TOL:
        raise InfeasibleDualError("POVM does not sum to the identity")
    if np.any(_eigvalsh(matrices)[:, -1] < -1e-10):
        raise InfeasibleDualError("POVM element is not positive semidefinite")
    q_max = float(np.max(ensemble.priors))
    if not (q_max - 1e-9 <= p_guess <= 1.0 + 1e-9):
        raise InfeasibleDualError(f"guessing probability {p_guess} outside [max q_x, 1]")

    peaks = np.max(np.abs(matrices), axis=(1, 2))
    support = tuple(int(x) for x in np.flatnonzero(peaks > DEGENERATE_WEIGHT_TOL))
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
    povm = np.zeros((ensemble.size, ensemble.dim, ensemble.dim), dtype=complex)
    povm[m] = np.eye(ensemble.dim)
    return _assemble(
        ensemble, sym, complementary_states(sym, ensemble), list(_hermitian_operators(povm))
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


def solve_qubit_equal_priors(ensemble: WeightedEnsemble) -> DiscriminationSolution:
    """Exact solution for any qubit ensemble with uniform priors.

    Dual feasibility of K = (t I + k . sigma)/2 says t - 1/N must bound
    the distance from k to every scaled Bloch point v_x / N, so the
    optimum is the minimum enclosing ball of those points: t is 1/N plus
    its radius and k is its center. That ball is the shifted-ball dual
    with every shift 1/N, which solve_qubit solves.
    """
    if ensemble.dim != 2:
        raise UnsupportedInstanceError("geometric solver applies to qubit ensembles only")
    n = ensemble.size
    if float(np.max(np.abs(ensemble.priors - 1.0 / n))) > UNIFORM_PRIOR_TOL:
        raise ValueError("geometric solver requires uniform priors")
    return solve_qubit(ensemble)


def solve_qubit(ensemble: WeightedEnsemble) -> DiscriminationSolution:
    """Exact solution for any qubit ensemble with arbitrary priors.

    Solves the shifted-ball dual min_k max_x (q_x + |k - q_x v_x|) and
    rebuilds complementary states and POVM from its optimum
    K = (t I + k . sigma)/2.
    """
    if ensemble.dim != 2:
        raise UnsupportedInstanceError("qubit solver applies to qubit ensembles only")
    points = ensemble.priors[:, None] * _bloch_vectors(ensemble.matrices)
    result = shifted_ball_dual(points, ensemble.priors)
    sym = HermitianOperator(_operators(result.value, result.center))
    comp = complementary_states(sym, ensemble)
    return _assemble(ensemble, sym, comp, reconstruct_povm(ensemble, comp))


def solve(ensemble: WeightedEnsemble) -> DiscriminationSolution:
    """Dispatch to the strongest applicable solver.

    A single state or dimension one is trivial; two states of any
    dimension use the closed form; qubit ensembles of any priors use the
    shifted-ball dual. Anything else is unsupported.
    """
    if ensemble.size == 1 or ensemble.dim == 1:
        return _trivial_solution(ensemble)
    if ensemble.size == 2:
        return helstrom_two_state(ensemble)
    if ensemble.dim == 2:
        return solve_qubit(ensemble)
    raise UnsupportedInstanceError(
        "no solver for three or more states beyond qubits; "
        "use qdiscrim.certify to check candidate solutions"
    )
