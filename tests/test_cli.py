import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdiscrim

from qdiscrim import (
    HermitianOperator,
    WeightedEnsemble,
    from_bloch,
    random_ensemble,
    verify_kkt,
)
from qdiscrim.cli import main
from qdiscrim.serialize import (
    ensemble_from_json,
    ensemble_to_json,
    matrix_from_json,
    matrix_to_json,
    round_floats,
    solution_to_json,
)
from qdiscrim.families import trine
from qdiscrim.solve import solve


class TestSerialization:
    def test_matrix_round_trip(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = (m + m.conj().T) / 2
        back = matrix_from_json(matrix_to_json(m))
        assert np.max(np.abs(back - m)) == 0.0

    def test_matrix_diagnostics_name_the_field(self):
        with pytest.raises(ValueError, match="states\\[0\\]"):
            ensemble_from_json({"priors": [1.0], "states": [{"dim": 2, "re": [[1]]}]})
        with pytest.raises(ValueError, match="K.dim"):
            matrix_from_json({"dim": -1, "re": [], "im": []}, field="K")
        with pytest.raises(ValueError, match="missing key"):
            ensemble_from_json({"priors": [1.0]})

    def test_ensemble_round_trip(self):
        e = random_ensemble(2, 3, pure=False, seed=5)
        back = ensemble_from_json(ensemble_to_json(e))
        assert np.max(np.abs(back.priors - e.priors)) <= 1e-12
        for a, b in zip(back.states, e.states):
            assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12

    def test_solution_document_shape(self):
        sol = solve(trine())
        doc = solution_to_json(sol)
        assert set(doc) == {"p_guess", "K", "complementary", "povm", "support"}
        assert len(doc["povm"]) == 3
        assert doc["support"] == [0, 1, 2]
        assert all(set(entry) == {"r", "sigma"} for entry in doc["complementary"])

    def test_round_floats_significant_digits(self):
        assert round_floats(0.12345678949) == 0.123456789
        assert round_floats({"x": [1 / 3]}) == {"x": [0.333333333]}

    def test_boolean_dim_rejected(self):
        with pytest.raises(ValueError, match="K.dim"):
            matrix_from_json({"dim": True, "re": [[1.0]], "im": [[0.0]]}, field="K")

    def test_bloch_vector_schema(self):
        from qdiscrim.serialize import bloch_to_json

        assert bloch_to_json(np.array([0.1, -0.2, 0.3])) == [0.1, -0.2, 0.3]


@pytest.fixture
def trine_file(tmp_path):
    path = tmp_path / "trine.json"
    path.write_text(json.dumps(ensemble_to_json(trine())))
    return str(path)


class TestCliSolve:
    def test_trine(self, trine_file, capsys):
        assert main(["solve", trine_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_guess"] == pytest.approx(2 / 3, abs=1e-9)

    def test_basis_versus_plus(self, tmp_path, capsys):
        e = WeightedEnsemble([0.5, 0.5], [from_bloch([0, 0, 1]), from_bloch([1, 0, 0])])
        path = tmp_path / "e.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        assert main(["solve", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_guess"] == pytest.approx(0.853553391, abs=1e-9)

    def test_verify_flag_appends_passing_certificate(self, trine_file, capsys):
        assert main(["solve", trine_file, "--verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["verdict"] == "pass"

    def test_solution_reverifies_through_verify_command(self, trine_file, tmp_path, capsys):
        main(["solve", trine_file])
        solution_path = tmp_path / "sol.json"
        solution_path.write_text(capsys.readouterr().out)
        assert main(["verify", trine_file, str(solution_path)]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["verdict"] == "pass"
        assert main(["verify", trine_file, str(solution_path), "--legacy"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_general_prior_solution_reverifies(self, tmp_path, capsys):
        e = random_ensemble(2, 4, pure=False, seed=17)
        ensemble_path = tmp_path / "e.json"
        ensemble_path.write_text(json.dumps(ensemble_to_json(e)))
        assert main(["solve", str(ensemble_path), "--verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["verdict"] == "pass"
        solution_path = tmp_path / "sol.json"
        solution_path.write_text(json.dumps(doc))
        assert main(["verify", str(ensemble_path), str(solution_path), "--tol", "1e-6"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"priors": [0.5')
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_unsupported_instance_exits_3(self, tmp_path, capsys):
        e = random_ensemble(3, 3, pure=True, seed=1)
        path = tmp_path / "qutrit.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        assert main(["solve", str(path)]) == 3

    def test_verify_defaults_to_analytic_tolerance_on_every_path(self, tmp_path, capsys):
        for name, e in (
            ("ball", trine()),
            ("shifted", random_ensemble(2, 6, pure=False, seed=23)),
            ("helstrom", random_ensemble(4, 2, pure=False, seed=23)),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(ensemble_to_json(e)))
            assert main(["solve", str(path), "--verify"]) == 0
            cert = json.loads(capsys.readouterr().out)["certificate"]
            assert cert["tolerance"] == 1e-8 and cert["verdict"] == "pass", name

    def test_single_qutrit_state_certifies(self, tmp_path, capsys):
        e = random_ensemble(3, 1, pure=False, seed=2)
        path = tmp_path / "single.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        assert main(["solve", str(path), "--verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_guess"] == pytest.approx(1.0, abs=1e-9)
        assert doc["certificate"]["verdict"] == "pass"
        assert doc["certificate"]["tolerance"] == pytest.approx(1e-8)

    def test_out_flag_writes_file(self, trine_file, tmp_path):
        target = tmp_path / "result.json"
        assert main(["solve", trine_file, "--out", str(target)]) == 0
        assert json.loads(target.read_text())["p_guess"] == pytest.approx(2 / 3, abs=1e-9)


def _run_python(*args, timeout=60):
    """Run a fresh interpreter that imports qdiscrim from this checkout."""
    src = str(Path(qdiscrim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


class TestCliProcess:
    def test_huge_entries_exit_2_without_traceback(self, tmp_path):
        zero = [[0.0, 0.0], [0.0, 0.0]]
        doc = {"priors": [0.5, 0.5], "states": [
            {"dim": 2, "re": [[0.5, 1e308], [1e308, 0.5]], "im": zero},
            {"dim": 2, "re": [[0.5, -1e308], [-1e308, 0.5]], "im": zero},
        ]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        proc = _run_python("-m", "qdiscrim.cli", "solve", str(path), "--verify")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")

    def test_import_leaves_scipy_unloaded(self):
        proc = _run_python("-c", "import sys, qdiscrim; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestCliSweep:
    def test_isosceles_matches_closed_form(self, capsys):
        assert main(["sweep", "isosceles", "--steps", "20", "--start", "0.1", "--stop", "1.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "parameter,p_guess,support_size"
        for line in lines[1:]:
            theta, p, support = line.split(",")
            assert float(p) == pytest.approx((1 + math.sin(float(theta))) / 3, abs=1e-8)
            assert support == "2"

    def test_isosceles_saturates_past_right_angle(self, capsys):
        assert main(["sweep", "isosceles", "--steps", "8",
                     "--start", str(math.pi / 2), "--stop", str(math.pi)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert all(float(line.split(",")[1]) == pytest.approx(2 / 3, abs=1e-9) for line in lines)

    def test_rectangle_sweep_is_constant_half(self, capsys):
        assert main(["sweep", "rectangle", "--steps", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert all(float(line.split(",")[1]) == pytest.approx(0.5, abs=1e-9) for line in lines)

    def test_tetrahedron_sweep_tracks_purity(self, capsys):
        assert main(["sweep", "tetrahedron", "--steps", "9", "--start", "0.2", "--stop", "1.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line in lines:
            f, p, support = line.split(",")
            assert float(p) == pytest.approx(0.25 + 0.25 * float(f), abs=1e-9)
            assert support == "4"

    def test_sweep_is_reproducible(self, capsys):
        args = ["sweep", "isosceles", "--steps", "7", "--start", "0.2", "--stop", "1.0"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "," in first and ";" not in first

    def test_invalid_ranges_exit_3(self, capsys):
        assert main(["sweep", "rectangle", "--steps", "5", "--start", "0.2", "--stop", "2.0"]) == 3
        assert main(["sweep", "isosceles", "--steps", "1"]) == 3
        assert main(["sweep", "tetrahedron", "--steps", "5", "--start", "0.0", "--stop", "1.0"]) == 3

    def test_json_format(self, capsys):
        assert main(["sweep", "isosceles", "--steps", "3", "--start", "0.3", "--stop", "0.9",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 3
        assert set(doc[0]) == {"parameter", "p_guess", "support_size"}


class TestCliGenerate:
    def test_identity_mode_qubit(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(2) / 2)))
        assert main(["generate", str(path), "--mode", "identity"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is True
        assert doc["priors"] == [0.5, 0.5]

    def test_identity_mode_qutrit(self, tmp_path, capsys):
        path = tmp_path / "k3.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(3) / 3)))
        assert main(["generate", str(path), "--mode", "identity"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is True
        assert len(doc["states"]) == 3
        # nine-digit serialization caps the reverification accuracy near 1e-9
        ensemble = ensemble_from_json(doc)
        povm = [HermitianOperator(matrix_from_json(m)) for m in doc["povm"]]
        sym = HermitianOperator(matrix_from_json(doc["K"]))
        assert verify_kkt(ensemble, sym, povm, tol=1e-8).passed

    def test_identity_mode_rejects_other_operators(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(matrix_to_json(np.diag([0.6, 0.2]))))
        assert main(["generate", str(path), "--mode", "identity"]) == 3

    def test_uncertified_steering_exits_5_but_writes(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(matrix_to_json(np.diag([0.45, 0.25]))))
        out = tmp_path / "generated.json"
        code = main(["generate", str(path), "--mode", "steering", "--seed", "3",
                     "--out", str(out)])
        assert code == 5
        assert "uncertified" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert doc["certified"] is False


class TestCliOracle:
    def test_oracle_value(self, trine_file, capsys):
        assert main(["oracle", trine_file, "--resolution", "1e-3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(2 / 3, abs=2e-3)
