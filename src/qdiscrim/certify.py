"""Dimension-agnostic optimality certification.

A candidate solution is a symmetry operator plus a POVM. The certificate
recomputes complementary weights and states from the operator (it is the
single source of truth since the dual optimum is unique), evaluates every
optimality condition as a non-negative residual, and passes exactly when
all residuals stay within the stated tolerance.

Residual conventions: entrywise max norm for equality conditions, the
most negative eigenvalue for positive semidefiniteness conditions. Both
are dimension-stable and directly assertable in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import _as_matrix, _eigvalsh
from .solve import (
    DEGENERATE_WEIGHT_TOL,
    DiscriminationSolution,
    WeightedEnsemble,
)

ANALYTIC_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class KktCertificate:
    """Per-condition residuals for a candidate solution.

    symmetry and dual_feasibility check the decomposition
    K = q_x rho_x + r_x sigma_x with K >= q_x rho_x; orthogonality checks
    r_x tr[M_x sigma_x] = 0; completeness and povm_positivity check that
    the measurement is a POVM. The legacy residuals evaluate the older
    pairwise form M_x (q_x rho_x - q_y rho_y) M_y = 0 and the operator
    form sum_x q_x rho_x M_x - q_y rho_y >= 0, which are equivalent
    conditions at the optimum.
    """

    symmetry: float
    dual_feasibility: float
    orthogonality: float
    completeness: float
    povm_positivity: float
    legacy_pairwise: float
    legacy_operator: float
    tolerance: float
    passed: bool

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def residuals(self) -> dict[str, float]:
        return {
            "symmetry": self.symmetry,
            "dual_feasibility": self.dual_feasibility,
            "orthogonality": self.orthogonality,
            "completeness": self.completeness,
            "povm_positivity": self.povm_positivity,
            "legacy_pairwise": self.legacy_pairwise,
            "legacy_operator": self.legacy_operator,
        }

    def max_residual(self) -> float:
        return max(self.residuals().values())


@dataclass(frozen=True, eq=False)
class ProbabilityForms:
    """Five equivalent expressions for the guessing probability.

    primal: sum_x q_x tr[M_x rho_x] with the candidate POVM.
    dual: trace of the symmetry operator.
    average_weight: 1/N plus the average complementary weight.
    average_distance: 1/N plus the average trace distance of the weighted
        states from the symmetry operator.
    steering: reciprocal of the summed steering probabilities
        p_x = q_x / trace(K).

    On a passing certificate all five coincide within 1e-8.
    """

    primal: float
    dual: float
    average_weight: float
    average_distance: float
    steering: float
    steering_probs: np.ndarray

    def values(self) -> dict[str, float]:
        return {
            "primal": self.primal,
            "dual": self.dual,
            "average_weight": self.average_weight,
            "average_distance": self.average_distance,
            "steering": self.steering,
        }

    def spread(self) -> float:
        vals = list(self.values().values())
        return max(vals) - min(vals)


def _povm_stack(ensemble: WeightedEnsemble, povm) -> tuple[np.ndarray, np.ndarray]:
    """The POVM as one (N, d, d) stack, checked against the ensemble, and its eigenvalues.

    The stack is diagonalized before any product over it is formed, so
    entries that overflow raise ConvergenceError there instead of first
    warning in a product.
    """
    d = ensemble.dim
    matrices = [_as_matrix(m) for m in povm]
    if len(matrices) != ensemble.size:
        raise ValueError(f"expected {ensemble.size} POVM elements, got {len(matrices)}")
    for m in matrices:
        if m.shape != (d, d):
            raise ValueError(f"POVM element shape {m.shape} does not match dimension {d}")
    stack = np.stack(matrices)
    return stack, _eigvalsh(stack)


def _peak(values: np.ndarray) -> float:
    """Largest absolute entry, 0 for an empty array."""
    return float(np.max(np.abs(values), initial=0.0))


def _certificate_from(
    ensemble: WeightedEnsemble,
    k: np.ndarray,
    povm: np.ndarray,
    povm_eigenvalues: np.ndarray,
    tol: float,
) -> KktCertificate:
    """Residuals from three stacked spectra: the gaps, the POVM (passed in), the legacy operators."""
    q = ensemble.priors
    rhos = ensemble.matrices
    weighted = q[:, None, None] * rhos
    trace_k = float(np.trace(k).real)

    gaps = k - weighted
    weights = trace_k - q
    dual_feasibility = float(np.max(-_eigvalsh(gaps)[:, -1]))
    live = weights > DEGENERATE_WEIGHT_TOL
    sigma = gaps[live] / weights[live, None, None]
    # recomputed sigma reproduces the decomposition by construction,
    # so this residual only picks up arithmetic noise
    symmetry = max(
        _peak(gaps[live] - weights[live, None, None] * sigma), _peak(gaps[~live])
    )
    overlaps = np.trace(povm[live] @ sigma, axis1=1, axis2=2).real
    orthogonality = _peak(weights[live] * overlaps)

    completeness = float(np.max(np.abs(povm.sum(axis=0) - np.eye(ensemble.dim))))
    povm_positivity = max(0.0, float(np.max(-povm_eigenvalues[:, -1])))

    # one batched product over y > x per x, never an (N, N, d, d) tensor; a
    # pair with an all-zero element is exactly zero, so only nonzero ones enter
    nonzero = np.any(povm != 0, axis=(1, 2))
    elements, states = povm[nonzero], weighted[nonzero]
    legacy_pairwise = max(
        (
            _peak(elements[x] @ (states[x] - states[x + 1 :]) @ elements[x + 1 :])
            for x in range(len(elements))
        ),
        default=0.0,
    )

    averaged = (weighted @ povm).sum(axis=0)
    averaged = (averaged + averaged.conj().T) / 2.0
    legacy_operator = max(0.0, float(np.max(-_eigvalsh(averaged - weighted)[:, -1])))

    dual_feasibility = max(0.0, dual_feasibility)
    residual_values = [
        symmetry,
        dual_feasibility,
        orthogonality,
        completeness,
        povm_positivity,
        legacy_pairwise,
        legacy_operator,
    ]
    return KktCertificate(
        symmetry=symmetry,
        dual_feasibility=dual_feasibility,
        orthogonality=orthogonality,
        completeness=completeness,
        povm_positivity=povm_positivity,
        legacy_pairwise=legacy_pairwise,
        legacy_operator=legacy_operator,
        tolerance=tol,
        passed=all(r <= tol for r in residual_values),
    )


def verify_kkt(
    ensemble: WeightedEnsemble, symmetry_op, povm, tol: float = ANALYTIC_TOL
) -> KktCertificate:
    """Certify a candidate (symmetry operator, POVM) pair.

    Complementary weights and states are always recomputed from the
    operator as r_x = trace(K) - q_x and sigma_x = (K - q_x rho_x) / r_x,
    never trusted from the caller.
    """
    k = _as_matrix(symmetry_op)
    d = ensemble.dim
    if k.shape != (d, d):
        raise ValueError(f"operator shape {k.shape} does not match dimension {d}")
    return _certificate_from(ensemble, k, *_povm_stack(ensemble, povm), tol)


def verify_legacy_conditions(
    ensemble: WeightedEnsemble, povm, tol: float = ANALYTIC_TOL
) -> KktCertificate:
    """Certify a POVM alone, deriving the operator from the measurement.

    Uses K = sum_x q_x rho_x M_x (Hermitian part; the product is only
    Hermitian at the optimum) and evaluates the same residual set, so a
    verdict here agrees with verify_kkt on optimal candidates.
    """
    povm, povm_eigenvalues = _povm_stack(ensemble, povm)
    k = (ensemble.priors[:, None, None] * ensemble.matrices @ povm).sum(axis=0)
    k = (k + k.conj().T) / 2.0
    return _certificate_from(ensemble, k, povm, povm_eigenvalues, tol)


def probability_forms(
    ensemble: WeightedEnsemble, solution: DiscriminationSolution
) -> ProbabilityForms:
    """Evaluate the five guessing-probability expressions on a solution.

    Meaningful when the solution certificate passes; on a failing
    candidate the spread between the forms is the interesting output.
    """
    q = ensemble.priors
    rhos = ensemble.matrices
    n = ensemble.size
    k = solution.symmetry_op.matrix
    trace_k = float(np.trace(k).real)

    povm = np.stack([m.matrix for m in solution.povm])
    primal = float(q @ np.einsum("xij,xji->x", povm, rhos).real)
    weights = trace_k - q
    average_weight = 1.0 / n + float(np.sum(weights)) / n
    gaps = k - q[:, None, None] * rhos
    average_distance = 1.0 / n + float(np.sum(np.abs(_eigvalsh(gaps)))) / n
    steering_probs = q / trace_k
    steering = 1.0 / float(np.sum(steering_probs))
    return ProbabilityForms(
        primal=primal,
        dual=trace_k,
        average_weight=average_weight,
        average_distance=average_distance,
        steering=steering,
        steering_probs=steering_probs,
    )


def equivalence_check(op_a, op_b, tol: float = 1e-9) -> bool:
    """Whether two symmetry operators define the same equivalence class.

    Two ensembles are equivalent when their symmetry operators share a
    spectrum, i.e. agree up to a unitary change of basis.
    """
    a = _as_matrix(op_a)
    b = _as_matrix(op_b)
    if a.shape != b.shape:
        raise ValueError(f"operator shapes differ: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(_eigvalsh(a) - _eigvalsh(b)))) <= tol
