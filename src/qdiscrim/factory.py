"""Construction of ensembles from a prescribed symmetry operator.

Running direction: normalize the operator, purify it, and steer the B
side of the purification with two-outcome measurements on A. Each
measurement splits the normalized operator as p_x rho_x + (1 - p_x)
sigma_x, which is exactly the decomposition an optimal discrimination of
the resulting ensemble must produce. Whether the ensemble actually
attains trace(K) as its guessing probability depends on an optimal POVM
existing for that decomposition, so every output carries the POVM that an
explicit search (solve.reconstruct_povm on the kernels of the
complementary states) found and certified, or None, and its certified
flag is read off it instead of being an unchecked claim.
K is decomposed twice, for its positivity and by purify, and every
measurement (a raw matrix is validated as a SteeringMeasurement) is
steered by one product over the stacked outcomes.

The direct qubit constructor chooses the POVM data first and builds the
ensemble around it, so its outputs are optimal by construction: closed-form
stacks (t I + v . sigma)/2, built unchecked as the qubit solver builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BLOCH_NORM_TOL, _operators
from .certify import ANALYTIC_TOL, verify_kkt
from .errors import InfeasibleDualError
from .operators import (
    MAX_DIM,
    PSD_TOL,
    DensityOperator,
    HermitianOperator,
    _count,
    _eigvalsh,
    _Frozen,
    _priors,
    _real_array,
    _real_scalar,
    _store,
    _symmetrized,
    _trusted,
    _wrap,
    purify,
)
from .solve import (
    ComplementarySet,
    WeightedEnsemble,
    complementary_states,
    reconstruct_povm,
)

_FIRES_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SteeringMeasurement(_Frozen):
    """A two-outcome measurement on the purifying system; M1 = I - M0 is implied."""

    first_outcome: HermitianOperator

    def __init__(self, first_outcome) -> None:
        op = HermitianOperator(first_outcome)
        values = _eigvalsh(op.matrix)
        if values[-1] < -PSD_TOL or values[0] > 1 + PSD_TOL:
            raise ValueError("steering outcome must satisfy 0 <= M0 <= I")
        _store(self, first_outcome=op)

    @property
    def second_outcome(self) -> np.ndarray:
        return np.eye(self.first_outcome.dim, dtype=complex) - self.first_outcome.matrix


@dataclass(frozen=True, eq=False)
class FactoryOutput(_Frozen):
    """A generated ensemble with its complementary data and, when certified, its optimal POVM."""

    ensemble: WeightedEnsemble
    complementary: ComplementarySet
    steering_probs: np.ndarray
    symmetry_op: HermitianOperator
    povm: tuple[HermitianOperator, ...] | None

    @property
    def certified(self) -> bool:
        return self.povm is not None


def _certify(ensemble: WeightedEnsemble, symmetry_op: HermitianOperator):
    """Search for an optimal POVM; return it if it certifies, else None.

    Dual infeasibility of the prescribed operator for the generated
    ensemble, or a kernel search that finds no measurement, is a
    certification failure, not an error: it is how an inconsistent
    steering decomposition manifests.
    """
    try:
        comp = complementary_states(symmetry_op, ensemble)
        povm = reconstruct_povm(ensemble, comp)
    except (ValueError, InfeasibleDualError):
        return None
    return povm if verify_kkt(ensemble, symmetry_op, povm, ANALYTIC_TOL).passed else None


def generate_from_symmetry_operator(
    symmetry_op, measurements: list[SteeringMeasurement]
) -> FactoryOutput:
    """Steer an ensemble out of a PSD operator with 0 < trace <= 1.

    Each measurement contributes one ensemble member: rho_x is the B-side
    state tr_A[(M0 (x) I) |psi><psi|] / p_x conditioned on the first
    outcome firing (probability p_x) and sigma_x the complement, so
    K / trace(K) = p_x rho_x + (1 - p_x) sigma_x holds by construction.
    Priors are the normalized firing probabilities, q_x = p_x / sum_y p_y,
    which is p_x trace(K) only when sum_y p_y trace(K) = 1. The certificate
    decides whether trace(K) is the optimum: povm is the optimal POVM found
    for this decomposition, or None. K / trace(K) must be PSD to PSD_TOL,
    as a state is.
    """
    sym = HermitianOperator(symmetry_op)
    smallest = _eigvalsh(sym.matrix)[-1]
    with np.errstate(over="ignore"):  # K's entries are at most its trace: inf is rejected below
        total = sym.trace()
    if not (_FIRES_TOL < total <= 1 + 1e-10):
        raise ValueError(f"symmetry operator trace must be in (0, 1], got {total!r}")
    if smallest / total < -PSD_TOL:
        raise ValueError("symmetry operator must be positive semidefinite")
    steering = [m if isinstance(m, SteeringMeasurement) else SteeringMeasurement(m)
                for m in measurements]
    if not steering:
        raise ValueError("at least one steering measurement is required")
    if any(m.first_outcome.dim != sym.dim for m in steering):
        raise ValueError("steering measurement dimension does not match the operator")

    normalized = _trusted(DensityOperator, matrix=_symmetrized(sym.matrix / total))
    psi = purify(normalized).amplitudes.reshape(sym.dim, sym.dim)
    first = np.stack([m.first_outcome.matrix for m in steering])
    steered = psi.T @ first.swapaxes(1, 2) @ psi.conj()
    fires = np.trace(steered, axis1=1, axis2=2).real
    if np.any(fires <= _FIRES_TOL):
        raise ValueError("steering measurement never fires; state undefined")
    live = 1 - fires > _FIRES_TOL
    second = np.eye(sym.dim, dtype=complex) - first[live]
    rest = iter(psi.T @ second.swapaxes(1, 2) @ psi.conj() / (1 - fires[live])[:, None, None])

    ensemble = WeightedEnsemble(fires / float(np.sum(fires)), steered / fires[:, None, None])
    comp = ComplementarySet((1.0 - fires) * total, [next(rest) if keep else None for keep in live])
    return _trusted(FactoryOutput, ensemble=ensemble, complementary=comp, steering_probs=fires,
                    symmetry_op=sym, povm=_certify(ensemble, sym))


def generate_qubit_class_element(
    value: float, center, directions, povm_weights, priors
) -> FactoryOutput:
    """Build a qubit ensemble whose optimum is fixed in advance.

    The caller picks the target value t, the ball center k, unit
    directions u_x (an (n, 3) array) of the pure complementary states,
    POVM weights a_x with sum a_x = 2 and sum a_x u_x = 0, and priors q_x.
    The states are then forced by rho_x = (K - r_x sigma_x) / q_x with
    r_x = t - q_x, and the POVM a_x (I - u_x . sigma)/2 satisfies every
    optimality condition by construction, so the output certifies at
    1e-9. Every check rejects NaN too, so each output stack is a finite
    closed form, exactly Hermitian, and its states pass by the norm checks.
    """
    value = _real_scalar(value, "target value must be finite")
    center = _real_array(center, "center").reshape(-1)
    if len(center) != 3:
        raise ValueError(f"center must have 3 components, got {len(center)}")
    units = _real_array(directions, "directions")
    if units.shape[1:] != (3,):
        raise ValueError(f"directions must be an (n, 3) array, got shape {units.shape}")
    a = _real_array(povm_weights, "POVM weights").reshape(-1)
    if len(units) != len(a):
        raise ValueError("directions, weights and priors must have equal length")
    # an entry beyond its rule's bound is rejected before the norm or sum it would overflow
    if (abs(units) > 1 + 1e-9).any() or not (abs(np.linalg.norm(units, axis=1) - 1) <= 1e-9).all():
        raise ValueError("directions must be unit vectors")
    if not np.all(a >= -1e-12):
        raise ValueError("POVM weights must be non-negative")
    if (a > 2 + 1e-9).any() or not abs(float(np.sum(a)) - 2.0) <= 1e-9:
        raise ValueError("POVM weights must sum to 2")
    if not float(np.linalg.norm(a @ units)) <= 1e-9:
        raise ValueError("weighted directions must sum to zero")
    q = _priors(priors, len(units), "priors")
    if (abs(center) > abs(value) + 1e-12).any() or not np.linalg.norm(center) <= value + 1e-12:
        raise ValueError("center norm exceeds the target value; operator not PSD")
    weights = value - q
    if np.any(weights <= 0):
        raise ValueError("target value must exceed every prior")
    blochs = (center - weights[:, None] * units) / q[:, None]
    outside = ~(np.linalg.norm(blochs, axis=1) <= 1 + BLOCH_NORM_TOL)
    if outside.any():
        raise ValueError(f"state {int(np.argmax(outside))} would not be positive semidefinite")

    symmetry = _trusted(HermitianOperator, matrix=_operators(value, center))
    ensemble = _trusted(WeightedEnsemble, priors=q, seed=None, matrices=_operators(1.0, blochs))
    povm = _wrap(a[:, None, None] * _operators(1.0, -units))
    comp = _trusted(ComplementarySet, weights=weights, present=np.ones(len(q), dtype=bool),
                    matrices=_operators(1.0, units))
    return _trusted(FactoryOutput, ensemble=ensemble, complementary=comp,
                    steering_probs=q / value, symmetry_op=symmetry,
                    povm=povm if verify_kkt(ensemble, symmetry, povm, tol=1e-9).passed else None)


def identity_class_example(dim: int) -> FactoryOutput:
    """The orthonormal-basis ensemble generated by the normalized identity.

    Steering I/d with the basis projectors yields the basis states with
    equal priors, complementary states uniform over the other basis
    vectors, and perfect discrimination by the basis measurement.
    """
    if not 2 <= _count(dim, "dim") <= MAX_DIM:
        raise ValueError(f"dimension must be in 2..{MAX_DIM}")
    eye = np.eye(dim, dtype=complex)
    return generate_from_symmetry_operator(eye / dim, [np.diag(e) for e in eye])
