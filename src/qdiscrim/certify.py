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

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConvergenceError
from .operators import _as_matrix, _check_tolerance, _eigvalsh, _expect, _Frozen, _trusted
from .solve import (
    DEGENERATE_WEIGHT_TOL,
    DiscriminationSolution,
    WeightedEnsemble,
    _povm_stack,
)

ANALYTIC_TOL = 1e-8


def _fields_before(obj, name: str) -> dict:
    """The fields of a dataclass instance before the field name, by name, in order."""
    names = [f.name for f in fields(obj)]
    return {n: getattr(obj, n) for n in names[: names.index(name)]}


@dataclass(frozen=True, eq=False)
class KktCertificate(_Frozen):
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
        """The residuals by name: the fields before tolerance, in order."""
        return _fields_before(self, "tolerance")

    def max_residual(self) -> float:
        return max(self.residuals().values())


@dataclass(frozen=True, eq=False)
class ProbabilityForms(_Frozen):
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
        """The five forms by name: the fields before steering_probs, in order."""
        return _fields_before(self, "steering_probs")

    def spread(self) -> float:
        vals = list(self.values().values())
        return max(vals) - min(vals)


def _peak(values: np.ndarray) -> float:
    """Largest absolute entry, 0 for an empty array."""
    return float(abs(values).max(initial=0.0))


@np.errstate(over="ignore", invalid="ignore")
def _certificate_from(
    ensemble: WeightedEnsemble, k: np.ndarray | None, povm: np.ndarray, tol: float
) -> KktCertificate:
    """Residuals of a candidate, with every spectrum from one stacked _eigvalsh call.

    The call stacks the POVM elements, the gaps K - q_x rho_x and the legacy
    operators sum_y q_y rho_y M_y - q_x rho_x, (3N, d, d); each matrix is
    decomposed on its own, so the residuals are those of three calls. With
    k None, K is the Hermitian part of sum_y q_y rho_y M_y.
    """
    tol = _check_tolerance(tol)
    q = ensemble.priors
    weighted = q[:, None, None] * ensemble.matrices
    averaged = (weighted @ povm).sum(axis=0)
    averaged = (averaged + averaged.conj().T) / 2.0
    k = averaged if k is None else k
    trace_k = float(k.trace().real)
    gaps = k - weighted
    weights = trace_k - q
    stack = np.concatenate([povm, gaps, averaged - weighted])
    povm_low, gap_low, legacy_low = _eigvalsh(stack)[:, -1].reshape(3, -1)

    live = weights > DEGENERATE_WEIGHT_TOL
    sigma = gaps[live] / weights[live, None, None]
    overlaps = (povm[live] @ sigma).trace(axis1=1, axis2=2).real

    # one batched product over y > x per x, never an (N, N, d, d) tensor; a
    # pair with an all-zero element is exactly zero, so only nonzero ones enter
    nonzero = (povm != 0).any(axis=(1, 2))
    elements, states = povm[nonzero], weighted[nonzero]
    residuals = {
        # recomputed sigma reproduces the decomposition by construction,
        # so this residual only picks up arithmetic noise
        "symmetry": max(
            _peak(gaps[live] - weights[live, None, None] * sigma), _peak(gaps[~live])
        ),
        "dual_feasibility": max(0.0, float((-gap_low).max())),
        "orthogonality": _peak(weights[live] * overlaps),
        "completeness": float(abs(povm.sum(axis=0) - np.eye(ensemble.dim)).max()),
        "povm_positivity": max(0.0, float((-povm_low).max())),
        "legacy_pairwise": max(
            (
                _peak(elements[x] @ (states[x] - states[x + 1 :]) @ elements[x + 1 :])
                for x in range(len(elements))
            ),
            default=0.0,
        ),
        "legacy_operator": max(0.0, float((-legacy_low).max())),
    }
    # huge finite entries can overflow in the products, which run without warnings
    if not all(map(math.isfinite, residuals.values())):
        raise ConvergenceError("certificate residuals overflow: candidate entries too large")
    passed = all(r <= tol for r in residuals.values())
    return KktCertificate(**residuals, tolerance=tol, passed=passed)


def verify_kkt(
    ensemble: WeightedEnsemble, symmetry_op, povm, tol: float = ANALYTIC_TOL
) -> KktCertificate:
    """Certify a candidate (symmetry operator, POVM) pair.

    Complementary weights and states are always recomputed from K as
    r_x = trace(K) - q_x and sigma_x = (K - q_x rho_x) / r_x; a raw K is
    validated as HermitianOperator validates it. The POVM (operators,
    matrices or a stack (N, d, d)) passes solve._povm_stack, with no
    Hermitian check: the residuals judge it.
    """
    _expect(ensemble, WeightedEnsemble)
    k = _as_matrix(symmetry_op)
    d = ensemble.dim
    if k.shape != (d, d):
        raise ValueError(f"operator shape {k.shape} does not match dimension {d}")
    return _certificate_from(ensemble, k, _povm_stack(ensemble, povm), tol)


def verify_legacy_conditions(
    ensemble: WeightedEnsemble, povm, tol: float = ANALYTIC_TOL
) -> KktCertificate:
    """Certify a POVM alone, deriving the operator from the measurement.

    Uses K = sum_x q_x rho_x M_x (Hermitian part; the product is only
    Hermitian at the optimum; the POVM is read as verify_kkt reads it) and the
    same residuals, so a verdict here agrees with verify_kkt on optimal candidates.
    """
    _expect(ensemble, WeightedEnsemble)
    return _certificate_from(ensemble, None, _povm_stack(ensemble, povm), tol)


def probability_forms(solution: DiscriminationSolution) -> ProbabilityForms:
    """Evaluate the five guessing-probability expressions on a solution and its ensemble.

    Meaningful when the solution certificate passes; on a failing
    candidate the spread between the forms is the interesting output.
    """
    _expect(solution, DiscriminationSolution)
    ensemble = solution.ensemble
    q = ensemble.priors
    rhos = ensemble.matrices
    n = ensemble.size
    k = solution.symmetry_op.matrix
    trace_k = solution.p_guess
    primal = float(q @ np.einsum("xij,xji->x", solution.povm_matrices, rhos).real)
    weights = trace_k - q
    average_weight = 1.0 / n + float(np.sum(weights)) / n
    gaps = k - q[:, None, None] * rhos
    average_distance = 1.0 / n + float(np.sum(np.abs(_eigvalsh(gaps)))) / n
    steering_probs = q / trace_k
    steering = 1.0 / float(np.sum(steering_probs))
    return _trusted(ProbabilityForms, primal=primal, dual=trace_k, average_weight=average_weight,
                    average_distance=average_distance, steering=steering,
                    steering_probs=steering_probs)


def equivalence_check(op_a, op_b, tol: float = 1e-9) -> bool:
    """Whether two symmetry operators define the same equivalence class.

    Two ensembles are equivalent when their symmetry operators share a
    spectrum, i.e. agree up to a unitary change of basis.
    """
    tol = _check_tolerance(tol)
    a = _as_matrix(op_a)
    b = _as_matrix(op_b)
    if a.shape != b.shape:
        raise ValueError(f"operator shapes differ: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(_eigvalsh(a) - _eigvalsh(b)))) <= tol
