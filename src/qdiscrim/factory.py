"""Construction of ensembles from a prescribed symmetry operator.

Running direction: normalize the operator, purify it, and steer the B
side of the purification with two-outcome measurements on A. Each
measurement splits the normalized operator as p_x rho_x + (1 - p_x)
sigma_x, which is exactly the decomposition an optimal discrimination of
the resulting ensemble must produce. Whether the ensemble actually
attains trace(K) as its guessing probability depends on an optimal POVM
existing for that decomposition, so every output carries a certification
flag backed by an explicit POVM search (solve.reconstruct_povm on
the kernels of the complementary states) instead of an unchecked claim.

The direct qubit constructor chooses the POVM data first and builds the
ensemble around it, so its outputs are optimal by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import _operators, from_bloch
from .certify import ANALYTIC_TOL, verify_kkt
from .errors import InfeasibleDualError
from .operators import (
    DensityOperator,
    HermitianOperator,
    _eigvalsh,
    _hermitian_stack,
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
class SteeringMeasurement:
    """A two-outcome measurement on the purifying system; M1 = I - M0 is implied."""

    first_outcome: HermitianOperator

    def __init__(self, first_outcome) -> None:
        op = HermitianOperator(first_outcome)
        values = _eigvalsh(op.matrix)
        if values[-1] < -1e-10 or values[0] > 1 + 1e-10:
            raise ValueError("steering outcome must satisfy 0 <= M0 <= I")
        object.__setattr__(self, "first_outcome", op)

    @property
    def second_outcome(self) -> np.ndarray:
        return np.eye(self.first_outcome.dim, dtype=complex) - self.first_outcome.matrix


@dataclass(frozen=True, eq=False)
class FactoryOutput:
    """A generated ensemble with its complementary data and certification."""

    ensemble: WeightedEnsemble
    complementary: ComplementarySet
    steering_probs: np.ndarray
    certified: bool
    symmetry_op: HermitianOperator
    povm: tuple[HermitianOperator, ...] | None


def _steered_operator(psi: np.ndarray, measurement: np.ndarray) -> np.ndarray:
    """Unnormalized B-side operator tr_A[(M (x) I) |psi><psi|]."""
    return psi.T @ measurement.T @ psi.conj()


def _certify(ensemble: WeightedEnsemble, symmetry_op: HermitianOperator):
    """Search for an optimal POVM; return (certified, povm or None).

    Dual infeasibility of the prescribed operator for the generated
    ensemble, or a kernel search that finds no measurement, is a
    certification failure, not an error: it is how an inconsistent
    steering decomposition manifests.
    """
    try:
        comp = complementary_states(symmetry_op, ensemble)
        povm = reconstruct_povm(ensemble, comp)
    except (ValueError, InfeasibleDualError):
        return False, None
    cert = verify_kkt(ensemble, symmetry_op, povm, ANALYTIC_TOL)
    return cert.passed, povm if cert.passed else None


def generate_from_symmetry_operator(
    symmetry_op, measurements: list[SteeringMeasurement]
) -> FactoryOutput:
    """Steer an ensemble out of a PSD operator with 0 < trace <= 1.

    Each measurement contributes one ensemble member: rho_x is the B-side
    state conditioned on the first outcome firing (probability p_x) and
    sigma_x the complement. Priors are the normalized firing
    probabilities, so p_x = q_x / trace(K) and the decomposition identity
    holds by construction. The certified flag records whether an optimal
    POVM for this decomposition was actually found.
    """
    sym = HermitianOperator(symmetry_op)
    values = _eigvalsh(sym.matrix)
    if values[-1] < -1e-10:
        raise ValueError("symmetry operator must be positive semidefinite")
    total = sym.trace()
    if not (_FIRES_TOL < total <= 1 + 1e-10):
        raise ValueError(f"symmetry operator trace must be in (0, 1], got {total!r}")
    if not measurements:
        raise ValueError("at least one steering measurement is required")

    normalized = DensityOperator(sym.matrix / total)
    psi = purify(normalized).amplitudes.reshape(sym.dim, sym.dim)

    fire_probs = []
    states = []
    complements: list[DensityOperator | None] = []
    for m in measurements:
        if m.first_outcome.dim != sym.dim:
            raise ValueError("steering measurement dimension does not match the operator")
        steered = _steered_operator(psi, m.first_outcome.matrix)
        p = float(np.trace(steered).real)
        if p <= _FIRES_TOL:
            raise ValueError("steering measurement never fires; state undefined")
        fire_probs.append(p)
        states.append(DensityOperator(steered / p))
        if 1 - p <= _FIRES_TOL:
            complements.append(None)
        else:
            rest = _steered_operator(psi, m.second_outcome)
            complements.append(DensityOperator(rest / (1 - p)))

    fire_probs = np.asarray(fire_probs)
    priors = fire_probs / float(np.sum(fire_probs))
    ensemble = WeightedEnsemble(priors, states)

    certified, povm = _certify(ensemble, sym)
    comp_weights = (1.0 - fire_probs) * total
    return FactoryOutput(
        ensemble=ensemble,
        complementary=ComplementarySet(weights=comp_weights, states=tuple(complements)),
        steering_probs=fire_probs,
        certified=certified,
        symmetry_op=sym,
        povm=povm,
    )


def generate_qubit_class_element(
    value: float,
    center,
    directions,
    povm_weights,
    priors,
) -> FactoryOutput:
    """Build a qubit ensemble whose optimum is fixed in advance.

    The caller picks the target value t, the ball center k, unit
    directions u_x of the pure complementary states, POVM weights a_x with
    sum a_x = 2 and sum a_x u_x = 0, and priors q_x. The states are then
    forced by rho_x = (K - r_x sigma_x) / q_x with r_x = t - q_x, and the
    POVM a_x (I - u_x . sigma)/2 satisfies every optimality condition by
    construction, so the output certifies at 1e-9.
    """
    center = np.asarray(center, dtype=float).reshape(3)
    units = [np.asarray(u, dtype=float).reshape(3) for u in directions]
    a = np.asarray(povm_weights, dtype=float).reshape(-1)
    q = np.asarray(priors, dtype=float).reshape(-1)
    n = len(units)
    if len(a) != n or len(q) != n:
        raise ValueError("directions, weights and priors must have equal length")
    for u in units:
        if abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
            raise ValueError("directions must be unit vectors")
    if np.any(a < -1e-12):
        raise ValueError("POVM weights must be non-negative")
    if abs(float(np.sum(a)) - 2.0) > 1e-9:
        raise ValueError("POVM weights must sum to 2")
    if float(np.linalg.norm(sum(w * u for w, u in zip(a, units)))) > 1e-9:
        raise ValueError("weighted directions must sum to zero")
    if np.any(q <= 0) or abs(float(np.sum(q)) - 1.0) > 1e-10:
        raise ValueError("priors must be positive and sum to 1")
    if float(np.linalg.norm(center)) > value + 1e-12:
        raise ValueError("center norm exceeds the target value; operator not PSD")

    weights = value - q
    if np.any(weights <= 0):
        raise ValueError("target value must exceed every prior")

    states = []
    for x in range(n):
        bloch = (center - weights[x] * units[x]) / q[x]
        if float(np.linalg.norm(bloch)) > 1 + 1e-10:
            raise ValueError(f"state {x} would not be positive semidefinite")
        states.append(from_bloch(bloch))

    symmetry = HermitianOperator(_operators(value, center))
    povm = _wrap(_hermitian_stack(a[:, None, None] * _operators(1.0, -np.array(units))))
    ensemble = WeightedEnsemble(q, states)
    complementary = ComplementarySet(
        weights=weights, states=tuple(from_bloch(u) for u in units)
    )
    certified = verify_kkt(ensemble, symmetry, povm, tol=1e-9).passed
    return FactoryOutput(
        ensemble=ensemble,
        complementary=complementary,
        steering_probs=q / value,
        certified=certified,
        symmetry_op=symmetry,
        povm=povm if certified else None,
    )


def identity_class_example(dim: int) -> FactoryOutput:
    """The orthonormal-basis ensemble generated by the normalized identity.

    Steering I/d with the basis projectors yields the basis states with
    equal priors, complementary states uniform over the other basis
    vectors, and perfect discrimination by the basis measurement.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    eye = np.eye(dim, dtype=complex)
    measurements = [SteeringMeasurement(np.outer(eye[:, x], eye[:, x].conj())) for x in range(dim)]
    return generate_from_symmetry_operator(HermitianOperator(eye / dim), measurements)
