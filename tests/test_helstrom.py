"""Hard two-state geometries: the Helstrom closed form certifies and is invariant.

Each example is one of the pairs that stress the closed form in any
dimension: pure (rank-one) pairs up to d=64, mixed pairs a relative
1e-10..1e-4 apart, and mixed pairs with one prior at the 1e-6 floor.
The complementary states, read off the spectrum of q1 rho1 - q2 rho2,
are checked against complementary_states, which diagonalizes each gap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscrim import (
    DensityOperator,
    HermitianOperator,
    WeightedEnsemble,
    complementary_states,
    helstrom_two_state,
    solve,
    solve_qubit,
    verify_kkt,
)
from qdiscrim.certify import ANALYTIC_TOL

KINDS = ("rank-one", "near-identical", "prior-floor")
DIMS = (2, 3, 8, 64)
PRIOR_FLOOR = 1e-6


def _state(matrix) -> DensityOperator:
    return DensityOperator(HermitianOperator(matrix / np.trace(matrix).real))


def _pure(rng, d) -> DensityOperator:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return _state(np.outer(v, v.conj()))


def _mixed(rng, d) -> DensityOperator:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return _state(a @ a.conj().T)


def _unitary(rng, d) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hard_pair(kind, d, rng):
    """Priors and the two states of one geometry."""
    priors = rng.dirichlet(np.ones(2))
    if kind == "rank-one":
        return priors, [_pure(rng, d), _pure(rng, d)]
    first = _mixed(rng, d)
    if kind == "near-identical":
        eps = 10.0 ** rng.uniform(-10, -4)
        return priors, [first, _state((1 - eps) * first.matrix + eps * _mixed(rng, d).matrix)]
    floored = int(rng.integers(2))
    priors[floored], priors[1 - floored] = PRIOR_FLOOR, 1.0 - PRIOR_FLOOR
    return priors, [first, _mixed(rng, d)]


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_hard_pair_certifies_and_is_invariant(kind, d, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    priors, states = hard_pair(kind, d, rng)
    ensemble = WeightedEnsemble(priors, states)
    solution = solve(ensemble)

    cert = verify_kkt(ensemble, solution.symmetry_op, solution.povm, tol=1e-8)
    assert cert.passed, (kind, d, cert.residuals())
    p = solution.p_guess

    u = _unitary(rng, d)
    rotated = WeightedEnsemble(priors, [_state(u @ s.matrix @ u.conj().T) for s in states])
    assert abs(helstrom_two_state(rotated).p_guess - p) <= 1e-10, (kind, d)
    swapped = WeightedEnsemble(priors[::-1], states[::-1])
    assert abs(helstrom_two_state(swapped).p_guess - p) <= 1e-12, (kind, d)

    if d == 2:
        assert abs(solve_qubit(ensemble).p_guess - p) <= 1e-10, kind


def _rank_deficient(rng, d, rank) -> DensityOperator:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return _state(g @ g.conj().T)


def _closed_form_pairs():
    """(label, priors, states): random pairs in every dimension, then the edge geometries."""
    rng = np.random.default_rng(1976)
    for d in (2, 3, 4, 8, 16, 32, 64):
        for pure in (True, False):
            states = [_pure(rng, d) if pure else _mixed(rng, d) for _ in range(2)]
            yield f"{'pure' if pure else 'mixed'}-d{d}", rng.dirichlet(np.ones(2)), states
    for d in (2, 5):
        same = _mixed(rng, d)
        yield f"identical-d{d}", np.array([0.7, 0.3]), [same, same]
        yield f"identical-pure-d{d}", np.array([0.6, 0.4]), [_pure(rng, d)] * 2
    for d in (2, 6):
        basis = np.eye(d)
        states = [_state(np.outer(basis[0], basis[0])), _state(np.outer(basis[1], basis[1]))]
        yield f"orthogonal-d{d}", np.array([0.45, 0.55]), states
    for d in (4, 8):
        states = [_rank_deficient(rng, d, 2), _rank_deficient(rng, d, d // 2)]
        yield f"rank-deficient-d{d}", np.array([0.4, 0.6]), states


CLOSED_FORM_PAIRS = list(_closed_form_pairs())


@pytest.mark.parametrize(
    "priors, states", [case[1:] for case in CLOSED_FORM_PAIRS],
    ids=[case[0] for case in CLOSED_FORM_PAIRS],
)
def test_closed_form_complementary_set_matches_eigensolver(priors, states):
    # sigma_x read off the spectrum of q1 rho1 - q2 rho2 against the gaps
    # K - q_x rho_x diagonalized one by one
    ensemble = WeightedEnsemble(priors, states)
    solution = helstrom_two_state(ensemble)
    reference = complementary_states(solution.symmetry_op, ensemble)
    ours = solution.complementary
    assert np.array_equal(ours.weights, reference.weights)
    assert np.array_equal(ours.present, reference.present)
    wide = reference.weights[reference.present] > 1e-9
    gap = np.abs(ours.matrices[wide] - reference.matrices[wide])
    assert np.max(gap, initial=0.0) <= 1e-12
    cert = verify_kkt(ensemble, solution.symmetry_op, solution.povm_matrices, tol=ANALYTIC_TOL)
    assert cert.passed, cert.residuals()

