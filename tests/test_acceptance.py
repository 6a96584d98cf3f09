"""Acceptance suite.

Each test runs one acceptance criterion end to end at its stated
tolerance and prints a single PASS/FAIL line. Run with -s to see the
lines on success.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from qdiscrim import (
    WeightedEnsemble,
    conditional_table_from_povm,
    convex_weights_for_center,
    dual_grid_oracle,
    equivalence_check,
    from_bloch,
    generate_qubit_class_element,
    guessing_from_table,
    helstrom_two_state,
    identity_class_example,
    probability_forms,
    random_ensemble,
    solve_qubit,
    solve_qubit_equal_priors,
    to_bloch,
    verify_kkt,
    verify_legacy_conditions,
)
from qdiscrim.families import isosceles_triple, orthogonal_pairs, trine
from qdiscrim.operators import HermitianOperator

from conftest import (
    random_class_element_params,
    random_rotation_3d,
    reference_min_enclosing_ball,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description}")


def test_criterion_1_helstrom_closed_form():
    with criterion(1, "two-state closed form agrees with dual solver and grid oracle"):
        started = time.perf_counter()
        for seed in range(200):
            e = random_ensemble(2, 2, pure=(seed % 3 == 0), seed=seed)
            closed = helstrom_two_state(e).p_guess
            dual = solve_qubit(e).p_guess
            grid = dual_grid_oracle(e, 1e-3)
            assert abs(closed - dual) <= 1e-7
            assert abs(closed - grid) <= 2e-3
            assert abs(dual - grid) <= 2e-3
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_isosceles_family():
    with criterion(2, "isosceles family matches (1+sin)/3 with a null middle outcome"):
        started = time.perf_counter()
        thetas = [(i + 1) * (math.pi / 2) / 101 for i in range(100)]
        for theta in thetas:
            sol = solve_qubit_equal_priors(isosceles_triple(theta, base_angle=0.3))
            assert abs(sol.p_guess - (1 + math.sin(theta)) / 3) <= 1e-9
            assert np.max(np.abs(sol.povm[1].matrix)) == 0.0
        for theta in np.linspace(math.pi / 2, math.pi, 21):
            sol = solve_qubit_equal_priors(isosceles_triple(float(theta), base_angle=0.3))
            assert abs(sol.p_guess - 2 / 3) <= 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_trine_and_planar_triples():
    with criterion(3, "trine reaches 2/3 and origin-covering planar triples reach (1+f)/3"):
        assert abs(solve_qubit_equal_priors(trine()).p_guess - 2 / 3) <= 1e-10

        rng = np.random.default_rng(33)
        generated = 0
        while generated < 50:
            angles = np.sort(rng.uniform(0, 2 * math.pi, 3))
            gaps = np.diff(np.concatenate((angles, [angles[0] + 2 * math.pi])))
            if np.max(gaps) >= math.pi - 1e-6:
                continue  # origin outside the hull
            generated += 1
            purity = float(rng.uniform(0.1, 1.0))
            rotation = random_rotation_3d(rng)
            states = [
                from_bloch(rotation @ (purity * np.array([math.sin(a), 0, math.cos(a)])))
                for a in angles
            ]
            sol = solve_qubit_equal_priors(WeightedEnsemble([1 / 3] * 3, states))
            assert abs(sol.p_guess - (1 + purity) / 3) <= 1e-9


def test_criterion_4_four_state_families():
    with criterion(4, "orthogonal pairs sit in the normalized-identity class; tetrahedra scale with purity"):
        rng = np.random.default_rng(44)
        reference = None
        for _ in range(50):
            theta = float(rng.uniform(1e-3, math.pi / 2 - 1e-3))
            base = float(rng.uniform(0, 2 * math.pi))
            sol = solve_qubit_equal_priors(orthogonal_pairs(theta, base_angle=base))
            assert abs(sol.p_guess - 0.5) <= 1e-9
            normalized = sol.symmetry_op.matrix / sol.symmetry_op.trace()
            assert np.max(np.abs(normalized - np.eye(2) / 2)) <= 1e-9
            if reference is None:
                reference = sol.symmetry_op
            else:
                assert equivalence_check(reference, sol.symmetry_op, tol=1e-9)

        produced = 0
        while produced < 50:
            directions = rng.standard_normal((4, 3))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            try:
                convex_weights_for_center(list(directions), np.zeros(3))
            except ValueError:
                continue  # origin outside the tetrahedron
            produced += 1
            purity = float(rng.uniform(0.1, 1.0))
            states = [from_bloch(purity * d) for d in directions]
            sol = solve_qubit_equal_priors(WeightedEnsemble([0.25] * 4, states))
            assert abs(sol.p_guess - (0.25 + purity / 4)) <= 1e-8


def test_criterion_5_kkt_soundness_and_equivalence():
    with criterion(5, "solver outputs certify under both condition sets; perturbations flip the verdict"):
        for seed in range(300):
            n = 2 + seed % 5
            uniform_path = seed % 2 == 0
            if uniform_path:
                e = random_ensemble(2, n, pure=(seed % 4 == 0), seed=seed)
                e = WeightedEnsemble([1.0 / n] * n, e.states)
                sol = solve_qubit_equal_priors(e)
                tol = 1e-8
            else:
                e = random_ensemble(2, n, pure=(seed % 4 == 1), seed=seed)
                sol = solve_qubit(e)
                tol = 1e-8
            assert verify_kkt(e, sol.symmetry_op, sol.povm, tol=tol).passed
            assert verify_legacy_conditions(e, sol.povm, tol=max(tol, 1e-8)).passed

            shifted = HermitianOperator(sol.symmetry_op.matrix - 1e-3 * np.eye(2))
            assert not verify_kkt(e, shifted, sol.povm, tol=tol).passed

            permuted = list(sol.povm[1:]) + [sol.povm[0]]
            assert not verify_kkt(e, sol.symmetry_op, permuted, tol=tol).passed
            assert not verify_legacy_conditions(e, permuted, tol=max(tol, 1e-8)).passed


def test_criterion_6_dual_optimum_uniqueness():
    with criterion(6, "both qubit solvers agree on K; trace K is 1/N plus the ball radius"):
        for seed in range(100):
            n = 2 + seed % 5
            e = random_ensemble(2, n, pure=(seed % 2 == 0), seed=7000 + seed)
            uniform = WeightedEnsemble([1.0 / n] * n, e.states)
            a = solve_qubit_equal_priors(uniform)
            b = solve_qubit(uniform)
            assert np.max(np.abs(a.symmetry_op.matrix - b.symmetry_op.matrix)) <= 1e-6
            _, radius, _ = reference_min_enclosing_ball([to_bloch(s) / n for s in e.states])
            assert abs(a.symmetry_op.trace() - (1.0 / n + radius)) <= 1e-12


def test_criterion_7_factory_round_trip():
    with criterion(7, "constructed ensembles re-solve to their prescribed operator"):
        count = 0
        seed = 0
        while count < 100:
            seed += 1
            rng = np.random.default_rng(70_000 + seed)
            value, center, units, weights, priors = random_class_element_params(rng)
            out = generate_qubit_class_element(value, center, units, weights, priors)
            assert out.certified
            count += 1
            resolved = solve_qubit(out.ensemble)
            assert np.max(np.abs(resolved.symmetry_op.matrix - out.symmetry_op.matrix)) <= 1e-6
            assert abs(resolved.p_guess - out.symmetry_op.trace()) <= 1e-7

        for d in range(2, 9):
            out = identity_class_example(d)
            assert out.certified
            assert verify_kkt(out.ensemble, out.symmetry_op, out.povm, tol=1e-10).passed


def test_criterion_8_probability_forms_and_table_identity():
    with criterion(8, "all guessing-probability forms coincide; table identity holds under the premise"):
        rng = np.random.default_rng(88)
        instances = []
        for seed in range(120):
            n = 2 + seed % 5
            e = random_ensemble(2, n, pure=(seed % 2 == 0), seed=8000 + seed)
            instances.append((e, solve_qubit(e)))
        # symmetric families keep every outcome active with balanced weights,
        # so their Born tables satisfy the diagonal-dominance premise
        from qdiscrim.families import REGULAR_TETRAHEDRON

        for _ in range(20):
            rotation = random_rotation_3d(rng)
            purity = float(rng.uniform(0.2, 1.0))
            e = trine(base_angle=float(rng.uniform(0, 2 * math.pi)))
            scaled = WeightedEnsemble(
                [1 / 3] * 3,
                [from_bloch(purity * rotation @ np.asarray(to_bloch(s))) for s in e.states],
            )
            instances.append((scaled, solve_qubit_equal_priors(scaled)))
        for _ in range(20):
            rotation = random_rotation_3d(rng)
            purity = float(rng.uniform(0.2, 1.0))
            e = WeightedEnsemble(
                [0.25] * 4,
                [from_bloch(purity * rotation @ d) for d in REGULAR_TETRAHEDRON],
            )
            instances.append((e, solve_qubit_equal_priors(e)))
        for seed in range(20):
            e = random_ensemble(2, 2, pure=True, seed=8500 + seed)
            pair = WeightedEnsemble([0.5, 0.5], e.states)
            instances.append((pair, helstrom_two_state(pair)))

        premise_checked = 0
        for e, sol in instances:
            forms = probability_forms(e, sol)
            assert forms.spread() <= 1e-8

            table = conditional_table_from_povm(e, sol.povm)
            result = guessing_from_table(e.priors, table)
            if result.premise_ok:
                premise_checked += 1
                assert abs(result.from_diagonal - result.from_uniform_distance) <= 1e-12
        assert premise_checked >= 50, f"only {premise_checked} premise-satisfying tables"
