"""CLI error paths: missing/corrupt inputs, bad budgets, bad names.

Every user-input failure must exit with code 2 and one clean stderr
line (argparse's own contract), never a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.instances import dump_instance, random_tree


@pytest.fixture
def inst_file(tmp_path, paper_example):
    path = str(tmp_path / "inst.json")
    dump_instance(paper_example, path)
    return path


class TestMissingFiles:
    @pytest.mark.parametrize("verb", ["solve", "info", "render", "simulate"])
    def test_missing_instance_file(self, verb, capsys):
        rc = main([verb, "/no/such/instance.json"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "repro: error: instance file not found" in err
        assert "/no/such/instance.json" in err

    def test_missing_placement_file(self, inst_file, capsys):
        rc = main(["check", inst_file, "/no/such/placement.json"])
        assert rc == 2
        assert "placement file not found" in capsys.readouterr().err

    def test_instance_path_is_directory(self, tmp_path, capsys):
        rc = main(["info", str(tmp_path)])
        assert rc == 2
        assert "directory" in capsys.readouterr().err


class TestCorruptFiles:
    def test_unparseable_json(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        rc = main(["info", path])
        assert rc == 2
        assert "corrupt instance file" in capsys.readouterr().err

    def test_valid_json_wrong_shape(self, tmp_path, capsys):
        path = str(tmp_path / "shape.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "parents": [-1]}, fh)
        rc = main(["info", path])
        assert rc == 2
        assert "invalid instance file" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path, capsys):
        path = str(tmp_path / "schema.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": 99}, fh)
        rc = main(["info", path])
        assert rc == 2
        assert "invalid instance file" in capsys.readouterr().err

    def test_corrupt_placement(self, tmp_path, inst_file, capsys):
        path = str(tmp_path / "p.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[[[[")
        rc = main(["check", inst_file, path])
        assert rc == 2
        assert "corrupt placement file" in capsys.readouterr().err


class TestUnknownSolver:
    def test_solve_rejects_unknown_algorithm(self, inst_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", inst_file, "--algorithm", "quantum-annealer"])
        assert exc.value.code == 2
        assert "invalid choice: 'quantum-annealer'" in capsys.readouterr().err

    def test_sweep_rejects_unknown_solver(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--solvers", "quantum-annealer"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_stress_rejects_unknown_family(self, capsys):
        rc = main(["stress", "--family", "klein-bottle/uniform"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown scenario families: klein-bottle/uniform" in err
        assert "--list" in err


class TestInvalidBudget:
    @pytest.mark.parametrize("bad", ["-5", "0", "many"])
    def test_solve_budget_must_be_positive_int(self, inst_file, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", inst_file, "--budget", bad])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["sweep", "stress", "serve"])
    def test_other_verbs_validate_budget_too(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--budget", "-1"])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err


class TestInvalidStressKnobs:
    @pytest.mark.parametrize("flag,bad", [("--size", "0"), ("--seeds", "-2")])
    def test_size_and_seeds_must_be_positive(self, flag, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stress", "--quick", flag, bad])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_seed_must_be_non_negative(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stress", "--quick", "--seed", "-3"])
        assert exc.value.code == 2
        assert "must be a non-negative integer" in capsys.readouterr().err


class TestInvalidOnlineKnobs:
    @pytest.fixture
    def nod_file(self, tmp_path):
        path = str(tmp_path / "nod.json")
        dump_instance(random_tree(6, 12, capacity=8, dmax=None, seed=3), path)
        return path

    @pytest.mark.parametrize("argv,message", [
        (["--steps", "0"], "steps must be positive"),
        (["--steps", "-2"], "steps must be positive"),
        (["--events-per-step", "0"], "events_per_step must be positive"),
        (["--seed", "-1"], "seed must be non-negative"),
        (["--p-fail", "1.5"], "must lie in [0, 1]"),
        (["--p-fail", "-1"], "must lie in [0, 1]"),
        (["--p-capacity", "2"], "must lie in [0, 1]"),
        (["--p-fail", "0.6", "--p-capacity", "0.6"], "must be at most 1"),
    ])
    def test_rejected_with_one_line_rc2(self, nod_file, argv, message, capsys):
        rc = main(["simulate", nod_file, "--online"] + argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: simulate --online:")
        assert message in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestNoTraceback:
    def test_error_output_is_one_line_no_traceback(self, capsys):
        rc = main(["solve", "/no/such/file.json"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
