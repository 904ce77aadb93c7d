"""End-to-end tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.instances import dump_instance


@pytest.fixture
def inst_file(tmp_path, paper_example):
    path = str(tmp_path / "inst.json")
    dump_instance(paper_example, path)
    return path


class TestGenerate:
    def test_generate_to_file(self, tmp_path):
        out = str(tmp_path / "g.json")
        rc = main(
            [
                "generate", "--kind", "random", "--internal", "5",
                "--clients", "10", "--capacity", "12", "--seed", "7",
                "--out", out,
            ]
        )
        assert rc == 0
        data = json.loads(open(out).read())
        assert data["capacity"] == 12

    def test_generate_stdout(self, capsys):
        rc = main(["generate", "--kind", "star", "--clients", "4", "--capacity", "9"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["capacity"] == 9

    @pytest.mark.parametrize(
        "kind", ["random", "binary", "caterpillar", "broom", "star"]
    )
    def test_all_kinds(self, tmp_path, kind):
        out = str(tmp_path / f"{kind}.json")
        rc = main(
            [
                "generate", "--kind", kind, "--internal", "4",
                "--clients", "5", "--capacity", "10", "--out", out,
            ]
        )
        assert rc == 0


class TestSolveAndCheck:
    def test_solve_writes_valid_placement(self, tmp_path, inst_file):
        out = str(tmp_path / "p.json")
        rc = main(["solve", inst_file, "--algorithm", "single-gen", "--out", out])
        assert rc == 0
        data = json.loads(open(out).read())
        assert data["replicas"]

    def test_solve_check_pipeline(self, tmp_path, inst_file):
        out = str(tmp_path / "p.json")
        assert main(["solve", inst_file, "--out", out]) == 0
        assert main(["check", inst_file, out]) == 0

    def test_check_detects_corruption(self, tmp_path, inst_file, capsys):
        out = str(tmp_path / "p.json")
        main(["solve", inst_file, "--out", out])
        data = json.loads(open(out).read())
        data["assignments"] = data["assignments"][:-1]  # drop one client
        with open(out, "w") as fh:
            json.dump(data, fh)
        assert main(["check", inst_file, out]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_exact_solver_via_cli(self, tmp_path, inst_file):
        out = str(tmp_path / "p.json")
        assert main(["solve", inst_file, "--algorithm", "exact", "--out", out]) == 0
        assert main(["check", inst_file, out]) == 0

    def test_auto_selection_via_cli(self, tmp_path, inst_file, capsys):
        out = str(tmp_path / "p.json")
        rc = main(["solve", inst_file, "--algorithm", "auto", "--out", out])
        assert rc == 0
        # The service picked a solver and reported it on stderr.
        err = capsys.readouterr().err
        assert "replicas" in err and "lower bound" in err
        assert main(["check", inst_file, out]) == 0


class TestRenderAndInfo:
    def test_render(self, inst_file, capsys):
        assert main(["render", inst_file]) == 0
        out = capsys.readouterr().out
        assert "n0" in out

    def test_render_with_placement(self, tmp_path, inst_file, capsys):
        p = str(tmp_path / "p.json")
        main(["solve", inst_file, "--out", p])
        assert main(["render", inst_file, p]) == 0
        out = capsys.readouterr().out
        assert "[R]" in out and "replicas" in out

    def test_info(self, inst_file, capsys):
        assert main(["info", inst_file]) == 0
        out = capsys.readouterr().out
        assert "Single-Bin" in out
        assert "lower bound" in out


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        # Semantic-version shaped, sourced from package metadata.
        assert out.split()[1].count(".") == 2

    def test_verb_help_points_at_docs(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert "docs/simulation.md" in capsys.readouterr().out


class TestSimulateOnline:
    def test_online_prints_report(self, tmp_path, capsys):
        from repro import Policy
        from repro.instances import dump_instance, random_tree

        inst = random_tree(8, 16, capacity=6, dmax=None, seed=9).with_policy(
            Policy.MULTIPLE
        )
        path = str(tmp_path / "nod.json")
        dump_instance(inst, path)
        rc = main(
            ["simulate", path, "--online", "--steps", "6", "--p-fail", "0.1"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "resolve" in captured.out and "speedup" in captured.out
        assert len(captured.out.strip().splitlines()) == 1 + 6  # header + steps
        assert "parity audits" in captured.err
        assert "0 violations" in captured.err

    def test_online_rejects_placement_argument(self, inst_file, capsys):
        rc = main(["simulate", inst_file, inst_file, "--online"])
        assert rc == 2

    def test_offline_without_placement_errors(self, inst_file, capsys):
        rc = main(["simulate", inst_file])
        assert rc == 2
        assert "placement file" in capsys.readouterr().err
