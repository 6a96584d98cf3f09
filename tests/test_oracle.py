import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdiscrim
from qdiscrim import (
    ConditionalTable,
    HermitianOperator,
    WeightedEnsemble,
    conditional_table_from_povm,
    distance_from_uniform,
    dual_grid_oracle,
    from_bloch,
    guessing_from_table,
    random_ensemble,
    solve_qubit,
    trace_norm,
)
from qdiscrim.bloch import _bloch_vectors
from qdiscrim.families import isosceles_triple, trine
from qdiscrim.oracle import _grid_minimum, _grid_points

from conftest import NOT_REAL


def two_phase_grid_oracle(ensemble, resolution):
    """The grid oracle as two phases: the coarse grid on the cube, then the refinement windows."""
    q = ensemble.priors
    pts = q[:, None] * _bloch_vectors(ensemble.matrices)
    step = 0.05
    best_k, best_f = _grid_minimum(pts, q, _grid_points(np.full(3, -1.0), np.full(3, 1.0), step))
    while step > resolution:
        next_step = max(resolution, step / 5)
        window = 2 * step
        k, f = _grid_minimum(pts, q, _grid_points(best_k - window, best_k + window, next_step))
        if f < best_f:
            best_k, best_f = k, f
        step = next_step
    return best_f


class TestDualGridOracle:
    def test_trine_value(self):
        assert dual_grid_oracle(trine(), 1e-3) == pytest.approx(2 / 3, abs=2e-3)

    def test_two_state_matches_closed_form(self):
        for seed in range(20):
            e = random_ensemble(2, 2, pure=(seed % 2 == 0), seed=seed)
            delta = e.priors[0] * e.states[0].matrix - e.priors[1] * e.states[1].matrix
            expected = 0.5 * (1.0 + trace_norm(HermitianOperator(delta)))
            assert dual_grid_oracle(e, 1e-3) == pytest.approx(expected, abs=2e-3)

    def test_single_state(self):
        e = WeightedEnsemble([1.0], [from_bloch([0.2, 0.4, -0.1])])
        assert dual_grid_oracle(e, 1e-3) == pytest.approx(1.0, abs=1e-3)

    def test_sandwiches_solver_value(self):
        resolution = 1e-3
        for seed in range(100):
            n = 2 + seed % 5
            e = random_ensemble(2, n, pure=(seed % 2 == 1), seed=2000 + seed)
            p = solve_qubit(e).p_guess
            value = dual_grid_oracle(e, resolution)
            assert value >= p - 1e-6
            assert value <= p + math.sqrt(3) * resolution

    def test_sandwiches_solver_value_at_fine_resolution(self):
        # below 1e-3 the coarse grid stays at 0.05 and only the refinement
        # windows get finer
        resolution = 2e-4
        for seed in range(40):
            n = 2 + seed % 5
            e = random_ensemble(2, n, pure=(seed % 2 == 1), seed=2000 + seed)
            p = solve_qubit(e).p_guess
            value = dual_grid_oracle(e, resolution)
            assert p - 1e-6 <= value <= p + math.sqrt(3) * resolution

    @pytest.mark.parametrize("resolution", [math.nan, math.inf, -math.inf, -1.0, 0.0, "a"])
    def test_rejects_resolution_that_is_not_finite_and_positive(self, resolution):
        e = random_ensemble(2, 3, pure=True, seed=0)
        with pytest.raises(ValueError, match="finite and positive"):
            dual_grid_oracle(e, resolution)

    def test_rejects_resolution_below_the_floor(self):
        # below 1e-15 a refinement window near |k| = 1 has no distinct points
        e = random_ensemble(2, 5, pure=False, seed=1)
        with pytest.raises(ValueError, match="resolution 1e-18 is below the floor 1e-15"):
            dual_grid_oracle(e, 1e-18)
        assert dual_grid_oracle(e, 1e-15) >= solve_qubit(e).p_guess - 1e-12

    @pytest.mark.parametrize("pure", [True, False])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_one_loop_of_windows_equals_the_two_phase_refinement(self, n, pure):
        for seed in range(4):
            e = random_ensemble(2, n, pure, seed)
            for resolution in (1, 0.03, 1e-3, 1e-6, 1e-15):
                value = dual_grid_oracle(e, resolution)
                assert value.hex() == two_phase_grid_oracle(e, resolution).hex(), (seed, resolution)

    def test_leaves_every_module_global_as_it_was(self):
        # in a new interpreter, so that the call observed is the first of its process
        script = (
            "import qdiscrim.oracle as o; from qdiscrim.families import trine; "
            "before = dict(vars(o)); o.dual_grid_oracle(trine(), 0.05); after = vars(o); "
            "print(after.keys() == before.keys() and all(after[k] is v for k, v in before.items()))"
        )
        src = str(Path(qdiscrim.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.stdout == "True\n", proc.stderr

    def test_fine_resolution_keeps_the_coarse_bound(self):
        # the windows can miss the minimizer, so below the coarse step the
        # stated overshoot bound is the coarse grid's, sqrt(3) * 0.05
        for seed in range(8):
            e = random_ensemble(2, 3 + seed % 4, pure=(seed % 2 == 0), seed=seed)
            p = solve_qubit(e).p_guess
            assert p - 1e-9 <= dual_grid_oracle(e, 1e-6) <= p + math.sqrt(3) * 0.05

    def test_input_validation(self):
        e = random_ensemble(2, 2, pure=True, seed=0)
        with pytest.raises(ValueError):
            dual_grid_oracle(e, 0.0)
        with pytest.raises(ValueError, match="qubit"):
            dual_grid_oracle(random_ensemble(3, 2, pure=True, seed=0), 1e-3)


class TestRandomEnsemble:
    def test_deterministic_for_fixed_seed(self):
        a = random_ensemble(2, 4, pure=False, seed=123)
        b = random_ensemble(2, 4, pure=False, seed=123)
        assert np.array_equal(a.priors, b.priors)
        for x, y in zip(a.states, b.states):
            assert np.array_equal(x.matrix, y.matrix)
        assert a.seed == 123

    def test_pure_flag_forces_rank_one(self):
        for seed in range(10):
            e = random_ensemble(3, 3, pure=True, seed=seed)
            for s in e.states:
                eigs = np.linalg.eigvalsh(s.matrix)
                assert abs(eigs[0]) <= 1e-10
                assert abs(np.trace(s.matrix).real - 1) <= 1e-10

    def test_priors_form_distribution(self):
        for seed in range(1000):
            e = random_ensemble(2, 1 + seed % 6, pure=True, seed=seed)
            assert abs(float(np.sum(e.priors)) - 1.0) <= 1e-12
            assert np.all(e.priors > 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_ensemble(1, 2, pure=True, seed=0)
        with pytest.raises(ValueError):
            random_ensemble(2, 0, pure=True, seed=0)

    @pytest.mark.parametrize(
        "dim, size, message",
        [
            (2.5, 3, "dim must be an integer, got 2.5"),
            (2, 3.0, "size must be an integer, got 3.0"),
        ],
    )
    def test_names_a_count_that_is_not_an_integer(self, dim, size, message):
        with pytest.raises(ValueError) as info:
            random_ensemble(dim, size, pure=True, seed=0)
        assert str(info.value) == message

    def test_large_sizes_return(self):
        # all 9,999 spacings clear 1e-6 with probability about e^-100: after
        # its redraw cap the generator maps the last spacings above 1e-6
        e = random_ensemble(2, 10_000, pure=False, seed=1)
        assert e.size == 10_000 and e.seed == 1
        assert np.min(e.priors) >= 1e-6
        assert abs(float(np.sum(e.priors)) - 1.0) <= 1e-10

    def test_rejects_more_states_than_the_prior_floor_allows(self):
        with pytest.raises(ValueError, match="at most 1000000 states"):
            random_ensemble(2, 1_000_001, pure=True, seed=0)


class TestDistanceFromUniform:
    def test_uniform_is_zero(self):
        assert distance_from_uniform([0.25] * 4) == 0.0

    def test_point_mass(self):
        for n in (2, 3, 5):
            p = [0.0] * n
            p[0] = 1.0
            assert distance_from_uniform(p) == pytest.approx(1 - 1 / n, abs=1e-12)

    def test_half_half_zero(self):
        assert distance_from_uniform([0.5, 0.5, 0.0]) == pytest.approx(1 / 3, abs=1e-12)

    def test_range(self, rng):
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            d = distance_from_uniform(p)
            assert -1e-12 <= d <= 1 - 1 / 4 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            distance_from_uniform([0.4, 0.4])
        with pytest.raises(ValueError):
            distance_from_uniform([1.2, -0.2])

    @pytest.mark.parametrize("p", [[math.nan, 1.0], [0.5, math.nan, 0.5]])
    def test_rejects_non_finite_entries(self, p):
        with pytest.raises(ValueError):
            distance_from_uniform(p)

    @pytest.mark.parametrize("p", [["0.5", "0.5"], [[0.5], [0.25, 0.25]], [0.5, 0.5j]])
    def test_names_entries_that_are_not_real(self, p):
        with pytest.raises(ValueError, match=f"^distribution {NOT_REAL}$"):
            distance_from_uniform(p)


class TestGuessingFromTable:
    def test_identity_table(self):
        table = ConditionalTable(np.eye(3))
        result = guessing_from_table([1 / 3] * 3, table)
        assert result.from_diagonal == pytest.approx(1.0)
        assert result.from_uniform_distance == pytest.approx(1.0)
        assert result.premise_ok

    def test_uniform_table(self):
        n = 4
        table = ConditionalTable(np.full((n, n), 1 / n))
        result = guessing_from_table([1 / n] * n, table)
        assert result.from_diagonal == pytest.approx(1 / n)
        assert result.from_uniform_distance == pytest.approx(1 / n)
        assert result.premise_ok

    def test_trine_born_table(self):
        e = trine()
        sol = solve_qubit(e)
        table = conditional_table_from_povm(e, sol.povm)
        result = guessing_from_table(e.priors, table)
        assert result.premise_ok
        assert result.from_diagonal == pytest.approx(2 / 3, abs=1e-9)
        assert result.from_uniform_distance == pytest.approx(2 / 3, abs=1e-9)

    def test_identity_exact_when_premise_holds(self):
        checked = 0
        for seed in range(40):
            n = 2 + seed % 4
            e = random_ensemble(2, n, pure=(seed % 2 == 0), seed=3000 + seed)
            sol = solve_qubit(e)
            table = conditional_table_from_povm(e, sol.povm)
            result = guessing_from_table(e.priors, table)
            if result.premise_ok:
                checked += 1
                assert abs(result.from_diagonal - result.from_uniform_distance) <= 1e-12
                assert result.from_diagonal == pytest.approx(sol.p_guess, abs=1e-9)
        assert checked >= 5

    def test_null_measurement_violates_premise(self):
        # the middle state of a narrow isosceles triple is never reported,
        # so its diagonal probability drops below 1/N
        e = isosceles_triple(0.8)
        sol = solve_qubit(e)
        table = conditional_table_from_povm(e, sol.povm)
        result = guessing_from_table(e.priors, table)
        assert not result.premise_ok
        assert result.from_diagonal == pytest.approx(sol.p_guess, abs=1e-9)

    def test_table_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ConditionalTable(np.array([[0.5, 0.5], [0.4, 0.5]]))
        with pytest.raises(ValueError, match="square"):
            ConditionalTable(np.ones((2, 3)) / 2)
        with pytest.raises(ValueError, match="entries"):
            ConditionalTable(np.array([[1.5, 0.0], [-0.5, 1.0]]))
        with pytest.raises(ValueError, match="length"):
            guessing_from_table([1.0], ConditionalTable(np.eye(2)))

    @pytest.mark.parametrize(
        "priors, table, message",
        [
            ([0.9, 0.9], np.eye(2), "priors must sum to 1, got 1.8"),
            ([-1.0, 2.0], np.eye(2), "priors must be strictly positive and at most 1"),
            ([], np.zeros((0, 0)), "priors and states must be non-empty and of equal length"),
            (["0.5", "0.5"], np.eye(2), f"priors {NOT_REAL}"),
            ([0.5, 0.5], [[1.0, 0.0], [0.0]], f"table {NOT_REAL}"),
        ],
    )
    def test_rejects_priors_that_are_not_a_distribution(self, priors, table, message):
        with pytest.raises(ValueError) as info:
            guessing_from_table(priors, ConditionalTable(table))
        assert str(info.value) == message

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries_and_priors(self, entry):
        with pytest.raises(ValueError, match="entries"):
            ConditionalTable([[entry, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="^priors must be strictly positive and at most 1$"):
            guessing_from_table([entry, 0.5, 0.5], ConditionalTable(np.eye(3)))
