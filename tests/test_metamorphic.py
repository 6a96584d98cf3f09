"""Metamorphic relations: two different ensembles whose optimal values are tied.

Permutation and unitary conjugation, on every path of solve: the trivial
one (a single state, or dimension one), Helstrom's pair in d up to 64 and
the qubit solver with general or equal priors, on pure and mixed states.
Relabeling the states, or conjugating every state by one unitary U, keeps
the value; under U the optimal K becomes U K U†, so the two K share a
spectrum (equivalence_check). The optimal POVM is not unique on
degenerate decks, so no relation compares POVMs.

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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscrim import (
    WeightedEnsemble,
    equivalence_check,
    from_bloch,
    random_ensemble,
    solve,
    verify_kkt,
)

CERTIFY_TOL = 1e-8
VALUE_TOL = 1e-12
PATHS = ("trivial-single", "trivial-dim-one", "helstrom", "qubit", "qubit-equal")
DIMS_AND_SIZE = {"trivial-single": ([2, 3, 8], 1), "helstrom": ([2, 3, 8, 16, 64], 2)}


@st.composite
def path_decks(draw, path):
    """An ensemble that solve sends down path, pure or mixed, and a generator for the relation.

    trivial-single is one state in d 2-8, trivial-dim-one 1-8 states of
    dimension one, helstrom a pair in d 2-64, and the qubit paths 3-16
    states with general or equal priors.
    """
    pure = draw(st.booleans(), label="pure")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    seed = int(rng.integers(2**31))
    if path == "trivial-dim-one":
        n = draw(st.integers(1, 8), label="n")
        return WeightedEnsemble(rng.dirichlet(np.ones(n)), [np.eye(1)] * n), rng
    if path in DIMS_AND_SIZE:
        dims, size = DIMS_AND_SIZE[path]
        return random_ensemble(draw(st.sampled_from(dims), label="d"), size, pure, seed), rng
    ensemble = random_ensemble(2, draw(st.integers(3, 16), label="n"), pure, seed)
    if path == "qubit-equal":
        ensemble = WeightedEnsemble(np.full(ensemble.size, 1.0 / ensemble.size), ensemble.states)
    return ensemble, rng


def _unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random unitary: the Q of a complex Gaussian matrix, its phases fixed by R."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (r.diagonal() / abs(r.diagonal()))


def _certified(ensemble: WeightedEnsemble):
    solution = solve(ensemble)
    cert = verify_kkt(ensemble, solution.symmetry_op, solution.povm, tol=CERTIFY_TOL)
    assert cert.passed, cert.residuals()
    return solution


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_permutation_keeps_the_value(path, data):
    ensemble, rng = data.draw(path_decks(path))
    order = rng.permutation(ensemble.size)
    permuted = WeightedEnsemble(ensemble.priors[order], [ensemble.states[i] for i in order])

    assert abs(_certified(permuted).p_guess - _certified(ensemble).p_guess) <= VALUE_TOL


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_unitary_keeps_the_value_and_the_spectrum_of_k(path, data):
    ensemble, rng = data.draw(path_decks(path))
    u = _unitary(ensemble.dim, rng)
    rotated = WeightedEnsemble(ensemble.priors, u @ ensemble.matrices @ u.conj().T)
    solution, turned = _certified(ensemble), _certified(rotated)

    assert abs(turned.p_guess - solution.p_guess) <= VALUE_TOL
    assert equivalence_check(solution.symmetry_op, turned.symmetry_op)


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

    assert abs(_certified(split).p_guess - s * _certified(kept).p_guess) <= VALUE_TOL
