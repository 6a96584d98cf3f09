"""Hard qubit geometries: every solver path certifies, agrees and is invariant.

Each example is one of the geometries that stress the exact qubit duals:
near-duplicate states with unequal priors, collinear and coplanar Bloch
sets, priors at the 1e-6 floor, maximally mixed members, near-antipodal
pure pairs, and pure equal-prior sets on the whole sphere up to N=60.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscrim import (
    WeightedEnsemble,
    dual_grid_oracle,
    from_bloch,
    solve,
    solve_qubit,
    solve_qubit_equal_priors,
    verify_kkt,
)

from conftest import random_rotation_3d, reference_min_enclosing_ball

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
    ball = solve_qubit_equal_priors(uniform).symmetry_op.matrix
    shifted = solve_qubit(uniform).symmetry_op.matrix
    assert np.max(np.abs(ball - shifted)) <= 1e-10, kind
    _, radius, _ = reference_min_enclosing_ball(vectors / n)
    assert abs(np.trace(ball).real - (1.0 / n + radius)) <= 1e-12, kind

    rotation = random_rotation_3d(rng)
    order = rng.permutation(n)
    moved = WeightedEnsemble(priors[order], [from_bloch(rotation @ vectors[i]) for i in order])
    assert abs(solve(moved).p_guess - p) <= 1e-10, kind
