"""Minimum-error discrimination solvers.

A solution is its ensemble, the unique symmetry operator K of the dual
problem and an optimal POVM; its value (trace K), support and
complementary states are read off them. Closed forms cover a single
state or dimension one, two states in any dimension and arbitrary qubit
ensembles, through one exact shifted-ball dual for every prior in
solve_qubit (equal priors are equal shifts, and the dual is the paper's
minimum enclosing ball); solve_qubit calls the dual's core
(bloch._shifted_ball), since its ensemble's priors and states were
checked where they entered. On qubits the dual's center and value give the
complementary states in closed form and its basis gives the POVM, so a
qubit solve diagonalizes no gap. Two states read everything, the
complementary states too, off the one spectrum of q1 rho1 - q2 rho2,
whose negative and positive parts are the gaps K - q_x rho_x. Otherwise
complementary_states diagonalizes the gaps in one stacked call. Given
only a symmetry operator, one exact search in any dimension finds an
optimal POVM on the kernels of the complementary states
(reconstruct_povm): Wolfe's minimum-norm point over the rank-one
projectors on the kernels, whose oracle is a smallest eigenvector,
either builds the POVM or separates I/d from every measurement on the
kernels. The generators use it. Ensembles of three or more states in
dimension three or higher have no known solver and are rejected; the
certificate module can still check externally supplied candidates.

Ensembles, complementary sets and solutions store their operators as
read-only stacks (N, d, d), which every layer reads; operators._store
sets every field and freezes each array it stores. Their states and
povm tuples stay: one built from a stack wraps them on first access
(operators._lazy_field), in one pass, into a tuple that keeps the stack.
A state is a HermitianOperator.

The input is validated where it enters (the constructors, the functions
that take an operator, the parse), by the intake rules of operators and
one rule for every measurement the package reads, _povm_stack. The qubit
solver builds K, the complementary states and the POVM as closed-form
operators (t I + v . sigma)/2, exactly Hermitian; the two-state and
trivial solvers pass K and the POVM, matrix products, through the
Hermitian check. operators._trusted builds their sets and solutions, and
the parsed ensemble. Every check that can fail on a built solution
(completeness, positivity of the POVM, the bounds of the value) runs in
_assemble on every path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bloch import (
    ShiftedBallResult,
    _bloch_vectors,
    _min_norm_point,
    _operators,
    _shifted_ball,
)
from .errors import ConvergenceError, InfeasibleDualError, UnsupportedInstanceError
from .operators import (
    DensityOperator,
    HermitianOperator,
    SpectralDecomposition,
    _as_matrix,
    _eigh,
    _eigvalsh,
    _expect,
    _Frozen,
    _hermitian_stack,
    _lazy_field,
    _matrix_stack,
    _negative_part_and_projector,
    _priors,
    _real_array,
    _row_norms,
    _state_stack,
    _store,
    _trusted,
    _wrap,
)

DEGENERATE_WEIGHT_TOL = 1e-12
KERNEL_TOL = 1e-9
DUAL_FEASIBILITY_TOL = 1e-8
COMPLETENESS_TOL = 1e-9
COMPLEMENTARY_NOISE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class WeightedEnsemble(_Frozen):
    """Prior probabilities q_x and density operators rho_x of common dimension.

    matrices is the read-only stack (N, d, d) of the state matrices, which
    the solvers, the certificate and the serializer read. An ensemble
    built from a stack (ensemble_from_json) wraps its states tuple from
    that stack on first access.
    """

    priors: np.ndarray
    states: tuple[DensityOperator, ...]
    seed: int | None = None
    matrices: np.ndarray = field(init=False, repr=False)

    def __init__(self, priors, states, seed: int | None = None) -> None:
        states = tuple(
            s if isinstance(s, DensityOperator) else DensityOperator(s) for s in states
        )
        q = _priors(priors, len(states), "priors")
        _store(self, priors=q, states=states, seed=seed,
               matrices=_matrix_stack(states, "states"))

    def __getattr__(self, name: str):
        return _lazy_field(self, name, "states", lambda: _wrap(self.matrices, DensityOperator))

    @property
    def size(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]


def _povm_stack(ensemble: WeightedEnsemble, povm) -> np.ndarray:
    """The one intake rule of a measurement: its elements as one stack (N, d, d) for the ensemble.

    A stack is taken as is and a sequence stacked once (_matrix_stack). A
    count or a shape other than the ensemble's, or a non-finite entry,
    raises ValueError before any product; the readers judge the rest.
    """
    n, d = ensemble.size, ensemble.dim
    stack = _matrix_stack(povm, "POVM elements")
    if len(stack) != n:
        raise ValueError(f"expected {n} POVM elements, got {len(stack)}")
    if stack.shape[1:] != (d, d):
        raise ValueError(f"POVM element shape {stack.shape[1:]} does not match dimension {d}")
    if not np.isfinite(stack).all():
        raise ValueError("POVM element entries must be finite")
    return stack


@dataclass(frozen=True, eq=False)
class ComplementarySet(_Frozen):
    """Weights r_x and states sigma_x with K = q_x rho_x + r_x sigma_x.

    A state is None exactly when its weight is numerically zero, meaning
    the ensemble member is identified with certainty and its complementary
    state is undefined. present marks the states that are not None, and
    matrices stacks those L states (L, d, d) in order. A set built from
    a stack (complementary_states, the qubit solver) wraps its states
    tuple on first access. spectra stacks the eigenvalues (L, d),
    descending, and eigenvector columns (L, d, d) of the present states,
    for the POVM search: complementary_states hands over the spectra of
    the gaps it diagonalized, and any other set decomposes its states in
    one stacked call on first access. Its constructor validates as
    WeightedEnsemble does (DensityOperator states, finite float weights).
    """

    weights: np.ndarray
    states: tuple[DensityOperator | None, ...]
    present: np.ndarray = field(init=False, repr=False)
    matrices: np.ndarray = field(init=False, repr=False)

    def __init__(self, weights, states) -> None:
        states = tuple(None if s is None else DensityOperator(s) for s in states)
        w = _real_array(weights, "weights").reshape(-1)
        if len(w) != len(states):
            raise ValueError(f"expected {len(states)} weights, got {len(w)}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        _store(self, weights=w, states=states,
               present=np.array([s is not None for s in states], dtype=bool),
               matrices=_matrix_stack([s for s in states if s is not None], "states"))

    def __getattr__(self, name: str):
        return _lazy_field(self, name, "states", self._wrap_states)

    def _wrap_states(self) -> tuple[DensityOperator | None, ...]:
        wrapped = iter(_wrap(self.matrices, DensityOperator))
        return tuple(next(wrapped) if keep else None for keep in self.present)

    @cached_property
    def spectra(self) -> SpectralDecomposition:
        if len(self.matrices):
            values, vectors = _eigh(self.matrices)
        else:
            values, vectors = np.zeros((0, 0)), np.zeros((0, 0, 0), dtype=complex)
        return _trusted(SpectralDecomposition, eigenvalues=values, eigenvectors=vectors)


@dataclass(frozen=True, eq=False)
class DiscriminationSolution(_Frozen):
    """A solved instance: the ensemble, the dual optimum K and an optimal POVM.

    p_guess is trace K; support lists the elements with an entry above
    DEGENERATE_WEIGHT_TOL; complementary is complementary_states(K, ensemble),
    handed over by the solvers, and raises on first access for an infeasible K.
    povm_matrices is the read-only POVM stack (N, d, d), wrapped as povm on
    first access. K and the POVM enter through _povm_stack and _hermitian_stack.
    """

    ensemble: WeightedEnsemble
    symmetry_op: HermitianOperator
    povm: tuple[HermitianOperator, ...]
    povm_matrices: np.ndarray = field(init=False, repr=False)

    def __init__(self, ensemble, symmetry_op, povm) -> None:
        _expect(ensemble, WeightedEnsemble)
        sym = HermitianOperator(symmetry_op)
        if sym.dim != ensemble.dim:
            raise ValueError("operator dimension does not match the ensemble")
        matrices = _hermitian_stack(_povm_stack(ensemble, povm), field="povm[{}]")
        _store(self, ensemble=ensemble, symmetry_op=sym, povm_matrices=matrices)

    def __getattr__(self, name: str):
        return _lazy_field(self, name, "povm", lambda: _wrap(self.povm_matrices))

    @property
    def p_guess(self) -> float:
        return self.symmetry_op.trace()

    @cached_property
    def support(self) -> tuple[int, ...]:
        peaks = abs(self.povm_matrices).max(axis=(1, 2))
        return tuple(int(x) for x in (peaks > DEGENERATE_WEIGHT_TOL).nonzero()[0])

    @cached_property
    def complementary(self) -> ComplementarySet:
        return complementary_states(self.symmetry_op, self.ensemble)


def complementary_states(symmetry_op, ensemble: WeightedEnsemble) -> ComplementarySet:
    """Recover weights and complementary states from a dual-feasible operator.

    Each weight is trace(K) - q_x and each state is (K - q_x rho_x)
    normalized by its weight. Operators violating K >= q_x rho_x beyond
    DUAL_FEASIBILITY_TOL are rejected. Weights at or below 1e-12 flag a state
    identified with certainty; its complementary state is returned absent.
    All gaps are diagonalized in one stacked call: sigma_x shares its
    gap's eigenvectors, with eigenvalues scaled by 1 / r_x.
    """
    _expect(ensemble, WeightedEnsemble)
    k = _as_matrix(symmetry_op)
    if k.shape[0] != ensemble.dim:
        raise ValueError("operator dimension does not match the ensemble")
    total = float(k.trace().real)
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
    return _trusted(ComplementarySet, weights=np.maximum(weights, 0.0), present=live,
                    matrices=_state_stack(scaled, vectors),
                    spectra=_trusted(SpectralDecomposition, eigenvalues=scaled,
                                     eigenvectors=vectors))


def reconstruct_povm(
    ensemble: WeightedEnsemble, complementary: ComplementarySet
) -> tuple[HermitianOperator, ...]:
    """Optimal POVM for K from the kernels of its complementary states, any d.

    Orthogonality r_x tr[M_x sigma_x] = 0 puts each element M_x in the
    kernel of sigma_x (eigenvalues at most KERNEL_TOL), spanned by the
    columns of V_x. A state with no complementary state has r_x = 0, so
    K = q_x rho_x: it attains trace(K) alone and takes the identity.
    Otherwise the POVMs on the kernels are exactly d times the convex hull
    of the rank-one projectors V_x a a† V_x† (unit a), all of trace one,
    so one exists iff I/d lies in that hull. Wolfe's minimum-norm point
    (bloch._min_norm_point) decides it, in the real coordinates Re + Im of
    d x d operators: that map takes Hermitian matrices isometrically into
    R^(d*d), since their symmetric and antisymmetric parts are orthogonal.
    Its oracle at the current point G returns the projector minimizing
    tr[P G]: the smallest eigenvector of V_x† G V_x over all x (Jaggi, ICML
    2013), found by one stacked eigensolver call per kernel dimension
    above one; a one-dimensional kernel's vector is its only atom. Each
    element sums d times the weighted atoms of its state. The kernels come
    from the spectra the set holds, and the ensemble gives the dimension.
    The elements come back as a tuple that keeps their checked stack.

    A set with a state count or dimension other than the ensemble's raises
    ValueError before the search.
    Raises InfeasibleDualError when no kernel is non-trivial, or when the
    projectors do not resolve the identity. The search stops as soon as a
    hyperplane separates I/d from every atom by more than 1e-9, so from
    1/d times the sum of every measurement on the kernels, and the message
    gives that margin. It gives up with the same error, naming the cap,
    after bloch._WOLFE_MAX_CYCLES major cycles.
    """
    _expect(ensemble, WeightedEnsemble)
    _expect(complementary, ComplementarySet)
    n, d = ensemble.size, ensemble.dim
    if len(complementary.present) != n:
        raise ValueError(f"expected {n} complementary states, got {len(complementary.present)}")
    if len(complementary.matrices) and complementary.matrices.shape[1:] != (d, d):
        raise ValueError("operator dimension does not match the ensemble")
    povm = np.zeros((n, d, d), dtype=complex)
    if not complementary.present.all():
        povm[np.argmin(complementary.present)] = np.eye(d)
        return _wrap(_hermitian_stack(povm))

    values, vectors = complementary.spectra.eigenvalues, complementary.spectra.eigenvectors
    dims = np.count_nonzero(values <= KERNEL_TOL, axis=1)  # kernels trail the descending spectra
    if not dims.any():
        raise InfeasibleDualError("no complementary state has a kernel: K cannot be optimal")
    groups = []  # the states of each kernel dimension k, and their kernel bases (m, d, k)
    for k in sorted(set(dims.tolist()) - {0}):
        owners = np.flatnonzero(dims == k)
        groups.append((owners, vectors[owners, :, d - k :]))
    target = np.eye(d).reshape(-1) / d
    found = []  # (state, unit vector) of each atom the oracle returned

    def atom(owner, vector):
        found.append((owner, vector))
        projector = np.outer(vector, vector.conj())
        return len(found) - 1, (projector.real + projector.imag).reshape(-1) - target

    def smallest_eigenvector(x):
        g = x.reshape(d, d)
        g = 0.5 * ((g + g.T) + 1j * (g - g.T))  # the Hermitian matrix with coordinates x
        best = None
        for owners, bases in groups:
            blocks = bases.conj().swapaxes(1, 2) @ g @ bases
            if blocks.shape[-1] == 1:
                lowest, units = blocks[:, 0, 0].real, bases[:, :, 0]
            else:
                block_values, block_vectors = _eigh(blocks)
                lowest, units = block_values[:, -1], (bases @ block_vectors[:, :, -1:])[:, :, 0]
            i = int(np.argmin(lowest))
            if best is None or lowest[i] < best[0]:
                best = (lowest[i], owners[i], units[i])
        return atom(best[1], best[2])

    first = int(np.argmax(dims > 0))
    try:
        corral, lam = _min_norm_point(
            smallest_eigenvector,
            atom(first, vectors[first, :, -1]),
            (1.0 - 1.0 / d) ** 0.5,  # |P - I/d| for every rank-one projector P
            1e-9,
        )
    except (ValueError, ConvergenceError) as exc:
        raise InfeasibleDualError(f"kernel projectors do not resolve the identity: {exc}") from exc
    for key, weight in zip(corral, lam):
        owner, vector = found[key]
        povm[owner] += (d * weight) * np.outer(vector, vector.conj())
    return _wrap(_hermitian_stack(povm))


def _assemble(
    ensemble: WeightedEnsemble,
    sym: HermitianOperator,
    comp: ComplementarySet,
    matrices: np.ndarray,
) -> DiscriminationSolution:
    """Combine solver outputs into a validated solution.

    matrices is the POVM as a frozen Hermitian stack (N, d, d): checked by
    _hermitian_stack, or Hermitian by construction. The POVM must sum to
    the identity and be positive semidefinite (the eigenvalue check also
    raises ConvergenceError on non-finite entries), and trace K must lie
    in [max q_x, 1]. comp, which the solver built from sym, is handed over.
    """
    p_guess = sym.trace()

    if float(abs(matrices.sum(axis=0) - np.eye(ensemble.dim)).max()) > COMPLETENESS_TOL:
        raise InfeasibleDualError("POVM does not sum to the identity")
    if (_eigvalsh(matrices)[:, -1] < -1e-10).any():
        raise InfeasibleDualError("POVM element is not positive semidefinite")
    q_max = float(ensemble.priors.max())
    if not (q_max - 1e-9 <= p_guess <= 1.0 + 1e-9):
        raise InfeasibleDualError(f"guessing probability {p_guess} outside [max q_x, 1]")

    return _trusted(DiscriminationSolution, ensemble=ensemble, symmetry_op=sym,
                    complementary=comp, povm_matrices=matrices)


def _trivial_solution(ensemble: WeightedEnsemble) -> DiscriminationSolution:
    """Closed form when one state or dimension one leaves nothing to tell apart.

    Naming the most likely state is optimal: P = max q_x, with K = q_m rho_m
    for the first argmax m (K = rho for a single state, K = [max q_x] in
    dimension one) and the identity as its POVM element.
    """
    m = int(np.argmax(ensemble.priors))
    sym = HermitianOperator(ensemble.priors[m] * ensemble.matrices[m])
    povm = np.zeros((ensemble.size, ensemble.dim, ensemble.dim), dtype=complex)
    povm[m] = np.eye(ensemble.dim)
    comp = complementary_states(sym, ensemble)
    return _assemble(ensemble, sym, comp, _hermitian_stack(povm))


def helstrom_two_state(ensemble: WeightedEnsemble) -> DiscriminationSolution:
    """Closed-form optimum for two states of any common dimension, from one diagonalization.

    The value is (1 + ||q1 rho1 - q2 rho2||_1) / 2; the first POVM element
    projects onto the non-negative eigenspace of the weighted difference
    Delta = V diag(lambda) V† and the symmetry operator is q1 rho1 plus
    Delta's negative part. The gaps K - q1 rho1 and K - q2 rho2 are
    Delta's negative and positive parts, so the complementary states are
    sigma_1 = V max(-lambda, 0) V† / r_1 and sigma_2 = V max(lambda, 0) V† / r_2
    with the weights and absent states of complementary_states on the
    same K: nothing is diagonalized but Delta.
    """
    _expect(ensemble, WeightedEnsemble)
    if ensemble.size != 2:
        raise ValueError(f"two-state solver got {ensemble.size} states")
    q1, q2 = ensemble.priors
    rho1, rho2 = ensemble.matrices
    values, vectors = _eigh(q1 * rho1 - q2 * rho2)

    negative, m1 = _negative_part_and_projector(values, vectors)
    m2 = np.eye(ensemble.dim, dtype=complex) - m1
    sym = HermitianOperator(q1 * rho1 + negative)
    weights = sym.trace() - ensemble.priors
    live = weights > DEGENERATE_WEIGHT_TOL
    gaps = np.stack([-values, values])[live]
    states = _state_stack(gaps, np.broadcast_to(vectors, (2, *vectors.shape))[live])
    comp = _trusted(ComplementarySet, weights=np.maximum(weights, 0.0), present=live,
                    matrices=states)
    return _assemble(ensemble, sym, comp, _hermitian_stack(np.stack([m1, m2])))


def solve_qubit(ensemble: WeightedEnsemble) -> DiscriminationSolution:
    """Exact solution for any qubit ensemble with arbitrary priors, with no eigensolver.

    Solves the shifted-ball dual min_k max_x (q_x + |k - p_x|), with
    p_x = q_x v_x; its optimum K = (t I + k . sigma)/2 gives the
    complementary states and the POVM in closed form
    (_qubit_complementary, _basis_povm). K is built first, since the
    complementary weights read its trace; the complementary states and
    the POVM are then built as one stack of operators (t I + v . sigma)/2
    from their coefficients. Both are exactly Hermitian, so neither is
    checked as Hermitian again. With uniform priors every shift is 1/N,
    and the dual is the minimum enclosing ball of the points v_x / N: t is
    1/N plus its radius and k is its center.
    """
    _expect(ensemble, WeightedEnsemble)
    if ensemble.dim != 2:
        raise UnsupportedInstanceError("qubit solver applies to qubit ensembles only")
    points = ensemble.priors[:, None] * _bloch_vectors(ensemble.matrices)
    result = _shifted_ball(points, ensemble.priors)
    sym = _trusted(HermitianOperator, matrix=_operators(result.value, result.center))
    weights, live, units = _qubit_complementary(
        sym.trace(), result.center, points, ensemble.priors
    )
    scales, vectors = _basis_povm(result, points, live)
    n_live = len(units)
    stack = _operators(
        np.concatenate([np.ones(n_live), scales]), np.concatenate([units, vectors])
    )
    stack.setflags(write=False)
    comp = _trusted(ComplementarySet, weights=weights, present=live, matrices=stack[:n_live])
    return _assemble(ensemble, sym, comp, stack[n_live:])


def _qubit_complementary(
    total, center, points, priors
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complementary weights and states of K = (t I + k . sigma)/2, in closed form.

    With total = trace(K) = t, the gap K - q_x rho_x is
    ((t - q_x) I + (k - p_x) . sigma)/2, so r_x = t - q_x, its smallest
    eigenvalue is (r_x - |k - p_x|)/2, rejected below
    -DUAL_FEASIBILITY_TOL, and sigma_x = (I + u_x . sigma)/2 with
    u_x = (k - p_x)/r_x, clipped to |u_x| <= 1 against rounding. The
    weights and the absent states (r_x <= DEGENERATE_WEIGHT_TOL) are those
    of complementary_states on the same K. Only the absolute
    DUAL_FEASIBILITY_TOL bound applies, the one verify_kkt checks: the
    relative COMPLEMENTARY_NOISE_TOL bound of complementary_states guards
    against eigensolver noise divided by a small r_x, and a closed form
    has none. Returns the weights (N,) and present-state mask, and the
    Bloch vectors u_x (L, 3) of the present states.
    """
    weights = total - priors
    offsets = center - points
    lengths = _row_norms(offsets)
    smallest = (weights - lengths) / 2.0
    infeasible = smallest < -DUAL_FEASIBILITY_TOL
    if infeasible.any():
        x = int(np.argmax(infeasible))
        raise InfeasibleDualError(
            f"K - q_x rho_x has eigenvalue {smallest[x]:.3e} for state {x}"
        )
    live = weights > DEGENERATE_WEIGHT_TOL
    units = offsets[live] / np.maximum(weights[live], lengths[live])[:, None]
    return np.maximum(weights, 0.0), live, units


def _basis_povm(
    result: ShiftedBallResult, points: np.ndarray, present: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """An optimal qubit POVM read off the dual's basis, as its coefficients.

    Returns t (N,) and v (N, 3) with M_x = (t_x I + v_x . sigma)/2.
    A state with no complementary state (r_x = 0) attains trace(K) alone
    and takes the identity. Otherwise only the effective basis counts,
    the members with multiplier lambda_x > 0, and k = sum_x lambda_x p_x
    over it:
    - one member takes the identity;
    - two members a, b take the projective pair (I -+ e . sigma)/2 along
      the unit edge e from p_a to p_b, the directions of their pure
      complementary states, with no division by |k - p_x|;
    - three or four members: sum_x lambda_x (k - p_x) = 0 says the weights
      w_x proportional to lambda_x |k - p_x|, summing to two, balance the
      directions u_x, and M_x = w_x (I - u_x . sigma)/2.
    k - p_x is taken in the dual's edge coordinates, the offset
    sum_j lambda_j e_j minus e_x with e_x = p_x - p_b for the first member
    b, so that near-duplicate points keep their small differences. Every
    other element has t = 0 and v = 0, an exact zero.
    """
    scales = np.zeros(len(points))
    vectors = np.zeros((len(points), 3))
    if not present.all():
        scales[present.argmin()] = 2.0
        return scales, vectors
    effective = result.multipliers > 0.0
    basis, lam = np.asarray(result.basis)[effective], result.multipliers[effective]
    if len(basis) == 1:
        scales[basis[0]] = 2.0
        return scales, vectors
    edges = points[basis] - points[basis[0]]
    if len(basis) == 2:
        length = math.sqrt(edges[1].dot(edges[1]))  # np.linalg.norm's form for a vector
        if not length > 0.0:
            raise InfeasibleDualError("the dual basis balances no measurement directions")
        unit = edges[1] / length
        scales[basis] = 1.0
        vectors[basis[0]], vectors[basis[1]] = -unit, unit
        return scales, vectors
    offsets = lam @ edges - edges  # k - p_x for each basis member
    weights = lam * _row_norms(offsets)
    total = float(weights.sum())
    if not total > 0.0:
        raise InfeasibleDualError("the dual basis balances no measurement directions")
    scale = 2.0 / total
    scales[basis] = scale * weights
    vectors[basis] = -scale * lam[:, None] * offsets
    return scales, vectors


def solve(ensemble: WeightedEnsemble) -> DiscriminationSolution:
    """Dispatch to the strongest applicable solver.

    A single state or dimension one is trivial; two states of any
    dimension use the closed form; qubit ensembles of any priors use the
    shifted-ball dual. Anything else is unsupported.
    """
    _expect(ensemble, WeightedEnsemble)
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
