"""Parametric qubit families with known closed-form optima.

All states live in the x-z plane unless a direction set says otherwise;
a ket at polar angle phi has Bloch vector (sin phi, 0, cos phi).
"""

from __future__ import annotations

import math

import numpy as np

from .bloch import from_bloch
from .operators import _constant, _real_array
from .solve import WeightedEnsemble

REGULAR_TETRAHEDRON = _constant(np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / math.sqrt(3.0))


def _planar_state(angle: float, purity: float = 1.0):
    return from_bloch([purity * math.sin(angle), 0.0, purity * math.cos(angle)])


def isosceles_triple(theta: float, base_angle: float = 0.0) -> WeightedEnsemble:
    """Three equal-prior pure states at angles base, base +- theta.

    The optimum is (1 + sin theta)/3 for theta < pi/2 with a null
    measurement on the middle state, and 2/3 from pi/2 on.
    """
    angles = [base_angle + theta, base_angle, base_angle - theta]
    return WeightedEnsemble([1 / 3] * 3, [_planar_state(a) for a in angles])


def trine(base_angle: float = 0.0) -> WeightedEnsemble:
    """Three equal-prior pure states 120 degrees apart; optimum 2/3."""
    return isosceles_triple(2 * math.pi / 3, base_angle)


def orthogonal_pairs(theta: float, base_angle: float = 0.0) -> WeightedEnsemble:
    """Two orthogonal pure pairs separated by theta, equal priors 1/4.

    Every member of this family has symmetry operator I/2 and optimum 1/2.
    """
    angles = [
        base_angle,
        base_angle - 2 * theta,
        base_angle - math.pi,
        base_angle - 2 * theta - math.pi,
    ]
    return WeightedEnsemble([1 / 4] * 4, [_planar_state(a) for a in angles])


def inscribed_tetrahedron(purity: float, directions=None) -> WeightedEnsemble:
    """Four equal-prior states of common purity on a sphere of that radius.

    With the origin inside the tetrahedron the optimum is (1 + purity)/4.
    Defaults to the regular tetrahedron directions.
    """
    dirs = REGULAR_TETRAHEDRON if directions is None else _real_array(directions, "directions")
    states = [from_bloch(purity * d) for d in dirs]
    return WeightedEnsemble([1 / 4] * 4, states)
