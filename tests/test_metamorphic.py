"""Metamorphic relations: two different ensembles whose optimal values are tied.

Duplicated state. Split state x of an ensemble into two copies of the
same state with priors a q_x and (1 - a) q_x. A POVM scores the copies
a q_x tr[rho_x M_1] + (1 - a) q_x tr[rho_x M_2], at most the larger prior
times tr[rho_x (M_1 + M_2)], so the optimal value of the split ensemble
is s times that of the kept ensemble, which drops the smaller copy (the
second on a tie) and renormalizes by the sum s of the priors it kept.
The two ensembles differ in size, so the relation crosses solver paths:
a split single state is Helstrom against the trivial path, a split pair
is the qubit solver against Helstrom.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscrim import WeightedEnsemble, from_bloch, solve, verify_kkt

CERTIFY_TOL = 1e-8
VALUE_TOL = 1e-12


@st.composite
def split_decks(draw):
    """A qubit deck of 1-12 states, the state x it splits, and the share a of q_x.

    Pure or mixed; the priors are general, or equal on the kept ensemble,
    which then crosses the equal-prior case of the qubit solver.
    """
    n = draw(st.integers(1, 12), label="n")
    pure = draw(st.booleans(), label="pure")
    equal = draw(st.booleans(), label="equal")
    x = draw(st.integers(0, n - 1), label="x")
    a = draw(st.one_of(st.just(0.5), st.floats(0.01, 0.99)), label="a")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    vectors = rng.standard_normal((n, 3))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    if not pure:
        vectors *= rng.uniform(0.0, 1.0, (n, 1))
    if equal:
        priors = np.ones(n)
        priors[x] /= max(a, 1.0 - a)
        priors /= priors.sum()
    else:
        priors = rng.dirichlet(np.ones(n))
    return [from_bloch(v) for v in vectors], priors, x, a


def _certified_value(ensemble: WeightedEnsemble) -> float:
    solution = solve(ensemble)
    cert = verify_kkt(ensemble, solution.symmetry_op, solution.povm, tol=CERTIFY_TOL)
    assert cert.passed, cert.residuals()
    return solution.p_guess


@settings(max_examples=60, deadline=None, derandomize=True)
@given(deck=split_decks())
def test_a_split_state_scales_the_value_of_the_kept_ensemble(deck):
    states, priors, x, a = deck
    first, second = a * priors[x], (1.0 - a) * priors[x]
    split = WeightedEnsemble(
        np.concatenate([priors[:x], [first, second], priors[x + 1 :]]),
        states[: x + 1] + states[x:],
    )
    kept_priors = priors.copy()
    kept_priors[x] = first if first >= second else second
    s = kept_priors.sum()
    kept = WeightedEnsemble(kept_priors / s, states)

    assert abs(_certified_value(split) - s * _certified_value(kept)) <= VALUE_TOL
