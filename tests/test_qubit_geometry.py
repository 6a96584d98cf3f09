"""Hard qubit geometries: every solver path certifies, agrees and is invariant.

Each example is one of the geometries that stress the exact qubit duals:
near-duplicate states with unequal priors, collinear and coplanar Bloch
sets, priors at the 1e-6 floor, maximally mixed members, near-antipodal
pure pairs, and pure equal-prior sets on the whole sphere up to N=60. On each, the
qubit solver's basis POVM and the kernel search on the same K both
certify, and its closed-form complementary states match the
eigensolver's. A permuted, unitarily conjugated ensemble in general
position has the conjugated solution.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscrim import (
    DensityOperator,
    HermitianOperator,
    WeightedEnsemble,
    dual_grid_oracle,
    from_bloch,
    shifted_ball_dual,
    solve,
    solve_qubit,
    verify_kkt,
)

from conftest import (
    assert_basis_povm_matches_kernel_search,
    compose_rotations_unitary,
    random_rotation_3d,
    reference_min_enclosing_ball,
)

KINDS = (
    "near-duplicate",
    "collinear",
    "coplanar",
    "prior-floor",
    "maximally-mixed",
    "near-antipodal",
    "sphere",
)
ORACLE_RESOLUTION = 1e-3
PRIOR_FLOOR = 1e-6


def _units(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def hard_instance(kind, n, rng):
    """Bloch vectors (each of norm at most 1) and priors of one geometry."""
    vectors = _units(rng, n) * rng.uniform(0.0, 1.0, (n, 1))
    priors = rng.dirichlet(np.ones(n))
    eps = 10.0 ** rng.uniform(-10, -5)
    if kind == "near-duplicate":
        vectors[1] = vectors[0] + eps * _units(rng, 1)[0]
    elif kind == "collinear":
        vectors = np.outer(rng.uniform(-1.0, 1.0, n), _units(rng, 1)[0])
    elif kind == "coplanar":
        normal = _units(rng, 1)[0]
        vectors -= np.outer(vectors @ normal, normal)
    elif kind == "prior-floor":
        floored = int(rng.integers(1, n))
        priors[:floored] = PRIOR_FLOOR
        priors[floored:] *= (1.0 - floored * PRIOR_FLOOR) / priors[floored:].sum()
    elif kind == "maximally-mixed":
        vectors[: max(1, n // 2)] = 0.0
    elif kind == "near-antipodal":
        vectors[0] = _units(rng, 1)[0]
        vectors[1] = -vectors[0] + eps * _units(rng, 1)[0]
        vectors[1] /= np.linalg.norm(vectors[1])
    elif kind == "sphere":
        vectors = _units(rng, n)
        priors = np.full(n, 1.0 / n)
    vectors /= np.maximum(1.0, np.linalg.norm(vectors, axis=1, keepdims=True))
    return vectors, priors


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_hard_geometry_certifies_agrees_and_is_invariant(kind, data):
    n = data.draw(st.integers(3, 60 if kind == "sphere" else 10), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    vectors, priors = hard_instance(kind, n, rng)
    states = [from_bloch(v) for v in vectors]
    ensemble = WeightedEnsemble(priors, states)
    solution = solve(ensemble)

    cert = verify_kkt(ensemble, solution.symmetry_op, solution.povm, tol=1e-8)
    assert cert.passed, (kind, cert.residuals())

    oracle = dual_grid_oracle(ensemble, ORACLE_RESOLUTION)
    p = solution.p_guess
    assert p - 1e-12 <= oracle <= p + math.sqrt(3) * ORACLE_RESOLUTION, kind

    uniform = WeightedEnsemble(np.full(n, 1.0 / n), states)
    ball = solve_qubit(uniform).symmetry_op.matrix
    _, radius, _ = reference_min_enclosing_ball(vectors / n)
    assert abs(np.trace(ball).real - (1.0 / n + radius)) <= 1e-12, kind

    rotation = random_rotation_3d(rng)
    order = rng.permutation(n)
    moved = WeightedEnsemble(priors[order], [from_bloch(rotation @ vectors[i]) for i in order])
    assert abs(solve(moved).p_guess - p) <= 1e-10, kind


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_basis_povm_matches_kernel_search(kind, data):
    n = data.draw(st.integers(3, 60 if kind == "sphere" else 10), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    vectors, priors = hard_instance(kind, n, rng)
    states = [from_bloch(v) for v in vectors]
    for weights in (priors, np.full(n, 1.0 / n)):
        assert_basis_povm_matches_kernel_search(WeightedEnsemble(weights, states))


@pytest.mark.parametrize("uniform", [False, True])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_permuted_conjugated_ensemble_has_the_conjugated_solution(uniform, data):
    # the closed-form basis POVM is read in the order of the input, so
    # relabelling the states must move nothing but the labels; the support
    # is compared where at most four states are active and the optimal POVM
    # is unique (pure states with uniform priors all lie on one sphere)
    n = data.draw(st.integers(3, 40), label="n")
    pure = data.draw(st.booleans(), label="pure")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    vectors = _units(rng, n) * (1.0 if pure else rng.uniform(0.0, 1.0, (n, 1)))
    priors = np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.ones(n))
    ensemble = WeightedEnsemble(priors, [from_bloch(v) for v in vectors])
    unitary = compose_rotations_unitary(2, rng)
    order = rng.permutation(n)
    moved = WeightedEnsemble(
        priors[order],
        [
            DensityOperator(HermitianOperator(unitary @ ensemble.matrices[x] @ unitary.conj().T))
            for x in order
        ],
    )
    solution, moved_solution = solve(ensemble), solve(moved)

    assert abs(moved_solution.p_guess - solution.p_guess) <= 1e-12
    conjugated = unitary @ solution.symmetry_op.matrix @ unitary.conj().T
    assert np.max(np.abs(moved_solution.symmetry_op.matrix - conjugated)) <= 1e-10
    points = priors[:, None] * vectors
    if len(shifted_ball_dual(points, priors).active) <= 4:
        moved_support = sorted(int(order[x]) for x in moved_solution.support)
        assert moved_support == list(solution.support)
    for e, sol in ((ensemble, solution), (moved, moved_solution)):
        cert = verify_kkt(e, sol.symmetry_op, sol.povm, tol=1e-8)
        assert cert.passed, cert.residuals()
