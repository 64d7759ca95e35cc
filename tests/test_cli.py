"""Command-line interface: subcommands, formats, exit codes."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from sqeig import probfile
from sqeig.cli import main

REPO = pathlib.Path(__file__).resolve().parents[1]


def _schema(name):
    with open(REPO / "docs" / "schema" / name, encoding="utf-8") as fh:
        return json.load(fh)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_builtin_csv_accepts_truth(self, capsys):
        code, out, err = _run(capsys, "solve", "--builtin", "ex1", "--seed", "7")
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        accepted = [r for r in rows if r["accepted"] == "True"]
        assert len(accepted) == 1
        assert abs(float(accepted[0]["re"]) - 1.0) < 1e-5
        assert abs(float(accepted[0]["im"])) < 1e-5
        assert accepted[0]["source"] in ("C1", "C1hat")

    def test_json_matches_schema(self, capsys):
        code, out, _ = _run(capsys, "solve", "--builtin", "ex4", "--seed", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, _schema("solve_result.schema.json"))
        assert sum(r["accepted"] for r in doc) == 2

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = _run(capsys, "solve", "--builtin", "ex5", "--seed", "9")
        _, out2, _ = _run(capsys, "solve", "--builtin", "ex5", "--seed", "9")
        assert out1 == out2

    def test_eps_is_a_usage_error(self, capsys):
        # solve projects and perturbs nothing, so it has no perturbation size
        code, out, err = _run(capsys, "solve", "--builtin", "ex1", "--eps", "1e-8")
        assert code == 1 and out == "" and "--eps" in err

    def test_explicit_csv_flag_matches_default(self, capsys):
        _, out1, _ = _run(capsys, "solve", "--builtin", "ex2", "--seed", "1")
        _, out2, _ = _run(capsys, "solve", "--builtin", "ex2", "--seed", "1", "--csv")
        assert out1 == out2
        assert out1.startswith("re,im,kappa_bar,accepted,source")

    def test_infinite_kappa_rendering(self, capsys, tmp_path):
        # lam**2 I + diag(0, 1) has the eigenvalues +-i and a double 0, where
        # P'(0) = C = 0: the two zero candidates have an infinite condition
        # number, "inf" in CSV and null in JSON
        pf = probfile.ProblemFile(coefficients=(np.diag([0.0, 1.0]), np.zeros((2, 2)), np.eye(2)))
        path = tmp_path / "double_zero.json"
        probfile.dump(pf, path)
        code, out, _ = _run(capsys, "solve", "--input", str(path), "--seed", "3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["kappa_bar"] == "inf" for r in rows] == [False, False, True, True]
        code, out, _ = _run(capsys, "solve", "--input", str(path), "--seed", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, _schema("solve_result.schema.json"))
        assert [r["kappa_bar"] is None for r in doc] == [False, False, True, True]

    def test_input_file(self, capsys):
        code, out, _ = _run(
            capsys, "solve", "--input", str(REPO / "problems" / "ex1.json"), "--seed", "5"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert any(r["accepted"] == "True" for r in rows)

    def test_missing_file_usage_error(self, capsys):
        code, _, err = _run(capsys, "solve", "--input", "/nonexistent.json")
        assert code == 1
        assert "error" in err

    def test_degenerate_problem_numerical_failure(self, capsys, tmp_path):
        # zero leading and trailing coefficients cannot be balanced
        pf = probfile.ProblemFile(
            coefficients=(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
        )
        path = tmp_path / "degenerate.json"
        probfile.dump(pf, path)
        code, _, err = _run(capsys, "solve", "--input", str(path))
        assert code == 2
        assert "numerical failure" in err


    def test_directory_input_usage_error(self, capsys, tmp_path):
        code, out, err = _run(capsys, "solve", "--input", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_nan_tol_usage_error(self, capsys):
        # a NaN threshold would reject every candidate and still exit 0
        code, out, err = _run(capsys, "solve", "--builtin", "ex4", "--tol", "nan")
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", [["solve"], ["montecarlo", "--runs", "3"]])
    def test_negative_seed_usage_error_names_seed(self, capsys, command):
        # the seed is checked before a built-in draws with it, so the error
        # names it instead of repeating numpy's message
        code, out, err = _run(capsys, *command, "--builtin", "ex1", "--seed", "-1")
        assert code == 1 and out == ""
        assert err.startswith("error: seed must be")

    @pytest.mark.parametrize(
        "command",
        [
            ["synth-pencil", "--size", "4", "--rank", "2"],
            ["dist", "--n", "3", "--m", "2", "--r", "2", "--samples", "10"],
            ["dist", "--n", "3", "--m", "1", "--r", "2", "--samples", "10"],
        ],
        ids=["synth-pencil", "dist-quadratic", "dist-pencil"],
    )
    def test_negative_seed_of_a_generator_command_is_named(self, capsys, command):
        # these commands seed only the problem builders, which check it too
        code, out, err = _run(capsys, *command, "--seed", "-1")
        assert code == 1 and out == ""
        assert err.startswith("error: seed must be")


class TestMontecarlo:
    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_no_runs_usage_error(self, capsys, runs):
        code, out, err = _run(capsys, "montecarlo", "--builtin", "ex2", "--runs", runs)
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_ex2_reports_certain_detection(self, capsys):
        code, out, _ = _run(
            capsys, "montecarlo", "--builtin", "ex2", "--runs", "25", "--seed", "1"
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, _schema("montecarlo_report.schema.json"))
        assert doc["n_t"] == 25
        assert doc["p"] == 1.0

    def test_eps_sets_the_perturbation_size(self, capsys):
        code, out, _ = _run(capsys, "montecarlo", "--builtin", "ex2", "--runs", "5", "--eps", "1e-10")
        assert code == 0
        assert json.loads(out)["p"] == 1.0


class TestBounds:
    def test_valid_delta(self, capsys):
        code, out, _ = _run(
            capsys,
            "bounds", "--n", "3", "--m", "2", "--r", "2",
            "--delta", "0.01", "--gamma", "1.5",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, _schema("bounds_result.schema.json"))
        assert doc["lower"] is not None
        assert doc["lower"] <= doc["upper"] * (1 + 1e-12)

    def test_delta_outside_validity_prints_note(self, capsys):
        code, out, _ = _run(
            capsys,
            "bounds", "--n", "3", "--m", "2", "--r", "2",
            "--delta", "0.05", "--gamma", "1.5",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, _schema("bounds_result.schema.json"))
        assert doc["lower"] is None
        assert "lower bound requires" in doc["note"]


    def test_regular_problem_has_no_lower_bound(self, capsys):
        code, out, _ = _run(
            capsys,
            "bounds", "--n", "3", "--m", "2", "--r", "3",
            "--delta", "0.01", "--gamma", "1.5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] is None
        assert "requires a singular problem" in doc["note"]

    @pytest.mark.parametrize(
        "n,r,delta", [("3", "2", "1.5"), ("3", "4", "0.01")], ids=["delta-above-one", "r-above-n"]
    )
    def test_out_of_range_usage_error(self, capsys, n, r, delta):
        code, out, err = _run(
            capsys, "bounds", "--n", n, "--m", "2", "--r", r, "--delta", delta, "--gamma", "1.5"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("gamma", ["nan", "inf", "1e-310"])
    def test_nonfinite_gamma_usage_error(self, capsys, gamma):
        # json.dumps would print NaN or Infinity, which is not JSON; a tiny
        # gamma makes 1/gamma overflow to Infinity
        code, out, err = _run(
            capsys,
            "bounds", "--n", "3", "--m", "2", "--r", "2",
            "--delta", "0.01", "--gamma", gamma,
        )
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("n,m,r", [(3, -1, 2), (0, 2, 0)], ids=["m-negative", "n-zero"])
    def test_empty_coefficient_space_usage_error(self, capsys, n, m, r):
        # N = n**2 * (m + 1) would be zero
        code, out, err = _run(
            capsys,
            "bounds", "--n", str(n), "--m", str(m), "--r", str(r),
            "--delta", "0.1", "--gamma", "1",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:")


class TestDist:
    def test_quadratic_quantile_table(self, capsys):
        code, out, _ = _run(
            capsys,
            "dist", "--n", "3", "--m", "2", "--r", "2",
            "--samples", "400", "--seed", "4",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 99
        # scaled quantiles of empirical and model laws track each other
        mid = rows[49]
        assert abs(float(mid["empirical"]) - float(mid["model"])) <= 0.3

    def test_pencil_degree(self, capsys):
        code, out, _ = _run(
            capsys,
            "dist", "--n", "3", "--m", "1", "--r", "1",
            "--samples", "200", "--seed", "4",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 100

    def test_unsupported_degree(self, capsys):
        code, _, err = _run(
            capsys, "dist", "--n", "3", "--m", "3", "--r", "1", "--samples", "10"
        )
        assert code == 1
        assert "supports" in err


    def test_full_rank_usage_error(self, capsys):
        code, out, err = _run(capsys, "dist", "--n", "3", "--m", "2", "--r", "3")
        assert code == 1 and out == ""
        assert "0 < r < n" in err

    def test_zero_samples_usage_error(self, capsys):
        code, out, err = _run(
            capsys, "dist", "--n", "3", "--m", "2", "--r", "2", "--samples", "0"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:")


class TestSynthPencil:
    def test_emits_problem_file_solved_by_cli(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        code, _, _ = _run(
            capsys,
            "synth-pencil", "--size", "5", "--rank", "2", "--seed", "3",
            "--output", str(path),
        )
        assert code == 0
        pf = probfile.load(path)
        assert pf.degree == 1 and len(pf.truth) == 2
        code, out, _ = _run(capsys, "solve", "--input", str(path), "--seed", "8")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        got = sorted(
            (complex(float(r["re"]), float(r["im"])) for r in rows if r["accepted"] == "True"),
            key=abs,
        )
        expected = sorted(pf.truth, key=abs)
        assert len(got) == 2
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-4 * max(1.0, abs(e))

    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path):
        argv = ["synth-pencil", "--size", "6", "--rank", "3", "--finite", "2", "--seed", "4"]
        code, out, err = _run(capsys, *argv)
        assert code == 0 and err == ""
        path = tmp_path / "p.json"
        code, _, _ = _run(capsys, *argv, "--output", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode("utf-8")

    def test_directory_output_usage_error(self, capsys, tmp_path):
        code, out, err = _run(
            capsys, "synth-pencil", "--size", "5", "--rank", "2", "--output", str(tmp_path)
        )
        assert code == 1 and out == ""
        assert err.startswith("error:")


class TestClosedStdout:
    def test_reader_closing_after_one_line_is_not_an_error(self):
        # the output is larger than a pipe buffer, so the write after the
        # reader has gone fails inside the command rather than at exit
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "sqeig.cli", "synth-pencil", "--size", "60", "--rank", "30"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = _run(capsys, "frobnicate")
        assert code == 1 and err

    def test_missing_required_source(self, capsys):
        code, _, err = _run(capsys, "solve")
        assert code == 1 and err

    def test_unknown_builtin(self, capsys):
        code, _, err = _run(capsys, "solve", "--builtin", "nope")
        assert code == 1 and err
