import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import coneq
from coneq.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class TestSample:
    def test_basic(self, capsys):
        code, payload, err = run_json(
            capsys, "sample", "--sig", "2,2", "--trials", "3", "--seed", "5"
        )
        assert code == 0
        assert payload["signature"] == {"p": 2, "q": 2}
        assert payload["seed"] == 5
        assert len(payload["points"]) == 3
        assert all(pt["isotropy_residual"] <= 1e-12 for pt in payload["points"])
        assert "sampled 3" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "sample", "--sig", "1,2", "--seed", "7")
        _, second, _ = run_cli(capsys, "sample", "--sig", "1,2", "--seed", "7")
        assert first == second

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CONEQ_SEED", "9")
        code, payload, _ = run_json(capsys, "sample", "--sig", "1,1")
        assert code == 0
        assert payload["seed"] == 9

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CONEQ_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "sample", "--sig", "1,1")
        assert code == 2
        assert "CONEQ_SEED" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "points.json"
        code, out, _ = run_cli(
            capsys, "sample", "--sig", "1,1", "--seed", "0",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["seed"] == 0


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, payload, err = run_json(
            capsys, "verify", "--suite", "metric-scaling", "--sig", "2,2",
            "--trials", "5", "--seed", "1",
        )
        assert code == 0
        assert payload["ok"] is True
        report = payload["reports"][0]
        assert report["suite"] == "metric-scaling"
        assert report["failures"] == 0
        assert "[ok]" in err

    def test_impossible_tolerance_fails(self, capsys):
        code, payload, err = run_json(
            capsys, "verify", "--suite", "metric-scaling", "--sig", "2,2",
            "--trials", "3", "--seed", "1", "--tol", "1e-30",
        )
        assert code == 1
        assert payload["ok"] is False
        assert payload["reports"][0]["counterexample"] is not None
        assert "[FAIL]" in err

    @pytest.mark.parametrize("command", [("verify", "--suite", "hermitian"),
                                         ("oracle",)])
    def test_more_than_two_to_the_32_trials_is_a_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--sig", "2,2",
                                 "--trials", "4294967297")
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1 and "--trials must be <= 2**32" in err
        assert "Traceback" not in err

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nope")
        assert code == 2
        assert "unknown suite" in err

    @pytest.mark.parametrize("name", ["metric-signature", "kappa-certificates",
                                      "witt-extension"])
    def test_deleted_suite_is_a_usage_error(self, capsys, name):
        # Folded into radical, kappa-roundtrip and skew-form.
        code, out, err = run_cli(capsys, "verify", "--suite", name, "--sig", "2,2")
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1 and "Traceback" not in err
        listed = err.split("choose from: ", 1)[1].strip()
        assert listed.split(", ") == ["all", *coneq.suite_names()]
        assert name not in listed

    def test_all_suites_smoke(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "--suite", "all", "--sig", "1,2",
            "--trials", "2", "--seed", "0",
        )
        assert code == 0
        assert len(payload["reports"]) >= 20

    def test_deterministic_modulo_timing(self, capsys):
        argv = ("verify", "--suite", "cone-sampler", "--sig", "2,2",
                "--trials", "4", "--seed", "3")
        _, first, _ = run_json(capsys, *argv)
        _, second, _ = run_json(capsys, *argv)
        for rep in first["reports"] + second["reports"]:
            rep.pop("elapsed_seconds")
        assert first == second


class TestOracle:
    def test_runs_exact_suites(self, capsys):
        code, payload, _ = run_json(
            capsys, "oracle", "--trials", "5", "--seed", "0"
        )
        assert code == 0
        names = {rep["suite"] for rep in payload["reports"]}
        assert names == {"field-axioms", "exact-roundtrip", "twin-agreement"}


class TestChart:
    def test_forward_pinned(self, capsys):
        code, payload, _ = run_json(
            capsys, "chart", "forward", "--sig", "2,2",
            "--r", "2", "--y", "1,0,0,0",
        )
        assert code == 0
        assert payload["r"] == 2.0
        assert payload["kappa0"]["components"] == [
            [0.0, 2.0], [1.0, 0.0], [0.0, 0.0], [-1.0, 2.0]
        ]
        assert "pivot_index" in payload["class"]

    def test_inverse_roundtrip(self, capsys):
        code, payload, _ = run_json(
            capsys, "chart", "inverse", "--sig", "2,2",
            "--b", "0,2,1,0,0,0,-1,2",
        )
        assert code == 0
        assert payload["result"] == "chart"
        assert abs(payload["r"] - 2.0) <= 1e-9
        np.testing.assert_allclose(payload["y"], [[1, 0], [0, 0]], atol=1e-9)

    def test_inverse_boundary_sentinel(self, capsys):
        code, payload, _ = run_json(
            capsys, "chart", "inverse", "--sig", "2,2",
            "--b", "0,0,1,0,1,0,0,0",
        )
        assert code == 0
        assert payload == {"result": "InAperp"}

    def test_inverse_zero_tolerance_is_honoured(self, capsys):
        # At --tol 0 the point is not on the boundary, as at --tol 1e-300;
        # the default 1e-9 would flag it InAperp.
        argv = ("chart", "inverse", "--sig", "1,1", "--b", "1,0,0.9999999999,0")
        zero = run_cli(capsys, *argv, "--tol", "0")
        tiny = run_cli(capsys, *argv, "--tol", "1e-300")
        assert zero == tiny
        assert "InAperp" not in zero[1]

    def test_inverse_near_boundary_point(self, capsys):
        # The isotropy residual of b is 1e-10, inside the default 1e-9.
        code, payload, _ = run_json(
            capsys, "chart", "inverse", "--sig", "1,1",
            "--b", "1,0,0.9999999999,0", "--tol", "0",
        )
        assert code == 0
        assert payload == {"result": "chart", "r": 0.0, "y": []}

    def test_custom_center(self, capsys):
        code, payload, _ = run_json(
            capsys, "chart", "forward", "--sig", "2,2",
            "--center", "0,0,1,0,1,0,0,0", "--y", "0,0,0,0",
        )
        assert code == 0
        assert payload["kappa0"]["isotropy_residual"] <= 1e-10

    def test_wrong_y_length(self, capsys):
        code, _, err = run_cli(
            capsys, "chart", "forward", "--sig", "2,2", "--y", "1,0"
        )
        assert code == 2
        assert "--y expects" in err


class TestChartUnderWarningFilter:
    """chart forward at large coordinates, in a process that turns numpy's
    RuntimeWarning into an error: the only stderr line is the summary or one
    error: line."""

    @staticmethod
    def _run(*argv):
        src = str(Path(coneq.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "coneq.cli", "chart", "forward",
                               "--sig", "2,2", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr.splitlines()

    @pytest.mark.parametrize("argv", [("--r", "1e200", "--y", "0.5,0,0.25,0"),
                                      ("--r", "0.5", "--y", "1e80,0,0,0")])
    def test_large_coordinates_are_evaluated(self, argv):
        code, out, err = self._run(*argv)
        assert code == 0
        assert len(err) == 1 and err[0].startswith("chart forward at r="), err
        point = json.loads(out)["kappa0"]
        assert point["isotropy_residual"] <= 1e-10

    def test_an_overflowing_f_of_y_is_a_usage_error(self):
        code, out, err = self._run("--r", "0.5", "--y", "1e160,0,0,0")
        assert code == 2
        assert out == ""
        assert len(err) == 1 and err[0].startswith("error: NotIsotropicError"), err
        assert "f(y, y) = inf" in err[0]


class TestMetric:
    def test_epsilon_frame(self, capsys):
        code, payload, _ = run_json(
            capsys, "metric", "--sig", "1,1", "--x", "1,0,1,0",
            "--frame", "epsilon",
        )
        assert code == 0
        assert payload["metric"]["entries"] == [[1.0, 0.0], [0.0, -1.0]]
        assert payload["metric"]["signature"] == [1, 1, 0]

    def test_adapted_frame(self, capsys):
        code, payload, _ = run_json(
            capsys, "metric", "--sig", "2,2", "--x", "1,0,0,0,0,0,1,0"
        )
        assert code == 0
        assert payload["metric"]["signature"] == [3, 3, 0]

    def test_epsilon_rejected_off_dimension_two(self, capsys):
        code, _, err = run_cli(
            capsys, "metric", "--sig", "2,2", "--x", "1,0,0,0,0,0,1,0",
            "--frame", "epsilon",
        )
        assert code == 2
        assert "UnsupportedFrameError" in err

    def test_non_isotropic_point(self, capsys):
        code, _, err = run_cli(
            capsys, "metric", "--sig", "1,1", "--x", "1,0,0,0"
        )
        assert code == 2
        assert "NotIsotropicError" in err


class TestCometric:
    def test_rank_four(self, capsys):
        code, payload, err = run_json(
            capsys, "cometric", "--sig", "2,2", "--x", "1,0,0,0,0,0,1,0"
        )
        assert code == 0
        assert payload["cometric"]["signature"] == [2, 2, 1]
        assert "rank 4" in err

    def test_rank_zero(self, capsys):
        code, payload, _ = run_json(
            capsys, "cometric", "--sig", "1,1", "--x", "1,0,1,0"
        )
        assert code == 0
        assert payload["cometric"]["signature"] == [0, 0, 1]


class TestAperp:
    def test_classify_generic(self, capsys):
        code, payload, _ = run_json(
            capsys, "aperp", "classify", "--sig", "2,2",
            "--b", "5,0,1,0,1,0,5,0",
        )
        assert code == 0
        assert payload["kind"] == "Generic"
        assert payload["alpha"] == [5.0, 0.0]
        assert payload["plus"] == [[1.0, 0.0]]
        assert payload["minus"] == [[1.0, 0.0]]

    def test_classify_apex(self, capsys):
        code, payload, _ = run_json(
            capsys, "aperp", "classify", "--sig", "2,2",
            "--b", "0,3,0,0,0,0,0,3",
        )
        assert code == 0
        assert payload == {"kind": "Apex", "alpha": [1.0, 0.0]}

    def test_classify_rejects_interior(self, capsys):
        code, _, err = run_cli(
            capsys, "aperp", "classify", "--sig", "2,2",
            "--b", "0,2,1,0,0,0,-1,2",
        )
        assert code == 2
        assert "NotInAperpError" in err

    def test_classify_honours_tolerance(self, capsys):
        argv = ("aperp", "classify", "--sig", "2,2",
                "--b", "0.5,0,3000,0,3000,0,-0.5,0")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "NotInAperpError" in err
        code, payload, _ = run_json(capsys, *argv, "--tol", "1e-3")
        assert code == 0
        assert payload["kind"] == "Generic"

    def test_dimension_estimate(self, capsys):
        code, payload, _ = run_json(
            capsys, "aperp", "dim", "--sig", "2,2", "--seed", "3"
        )
        assert code == 0
        assert payload["dimension"] == 3
        assert payload["expected"] == 3


class TestQueriesAtEveryScale:
    SCALES = [1e155, 1e200, 1e300, 1e-160, 1e-300]

    @staticmethod
    def scaled(scale, *values):
        return ",".join(repr(scale * v) for v in values)

    def run_quiet(self, capsys, *argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, payload, err = run_json(capsys, *argv)
        assert [str(w.message) for w in caught] == []
        assert code == 0 and "Traceback" not in err
        return payload

    @pytest.mark.parametrize("scale", SCALES)
    def test_chart_inverse(self, capsys, scale):
        payload = self.run_quiet(
            capsys, "chart", "inverse", "--sig", "2,2",
            "--b", self.scaled(scale, 0, 2, 1, 0, 0, 0, -1, 2),
        )
        assert payload["result"] == "chart"
        assert abs(payload["r"] - 2.0) <= 1e-12
        np.testing.assert_allclose(payload["y"], [[1, 0], [0, 0]], atol=1e-12)

    @pytest.mark.parametrize("scale", SCALES)
    def test_aperp_classify_generic(self, capsys, scale):
        payload = self.run_quiet(
            capsys, "aperp", "classify", "--sig", "2,2",
            "--b", self.scaled(scale, 5, 0, 1, 0, 1, 0, 5, 0),
        )
        assert payload["kind"] == "Generic"
        np.testing.assert_allclose(payload["alpha"], [5, 0], atol=1e-12)
        np.testing.assert_allclose(payload["plus"], [[1, 0]], atol=1e-12)
        np.testing.assert_allclose(payload["minus"], [[1, 0]], atol=1e-12)

    @pytest.mark.parametrize("scale", SCALES)
    def test_aperp_classify_apex(self, capsys, scale):
        payload = self.run_quiet(
            capsys, "aperp", "classify", "--sig", "2,2",
            "--b", self.scaled(scale, 0, 3, 0, 0, 0, 0, 0, 3),
        )
        assert payload == {"kind": "Apex", "alpha": [1.0, 0.0]}


class TestTorus:
    def test_csv_table(self, capsys):
        code, out, err = run_cli(
            capsys, "torus", "--trials", "2", "--steps", "4", "--seed", "1"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["base", "kind", "t", "phi1", "phi2"]
        body = rows[1:]
        assert len(body) == 2 * 5 * 3
        assert "30 rows" in err
        # the computed orbit must follow the arithmetic null_plus family
        two_pi = 2.0 * np.pi
        pairs = {}
        for base, kind, t, phi1, phi2 in body:
            pairs.setdefault((base, t), {})[kind] = (float(phi1), float(phi2))
        for entry in pairs.values():
            for a, b in zip(entry["orbit"], entry["null_plus"]):
                delta = abs(a - b) % two_pi
                assert min(delta, two_pi - delta) <= 1e-9

    def test_json_rows(self, capsys):
        code, payload, _ = run_json(
            capsys, "torus", "--trials", "1", "--steps", "2",
            "--format", "json", "--seed", "0",
        )
        assert code == 0
        assert len(payload["rows"]) == 1 * 3 * 3
        assert set(payload["rows"][0]) == {"base", "kind", "t", "phi1", "phi2"}


class TestUsage:
    def test_missing_sig(self, capsys):
        code, _, err = run_cli(capsys, "sample")
        assert code == 2
        assert "--sig is required" in err

    def test_malformed_sig(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--sig", "0,2")
        assert code == 2
        assert "--sig expects" in err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys, "sample", "--sig", "1,1", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert "error:" in err and "--out" in err
        assert "Traceback" not in err
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ("metric", "--sig", "1,1", "--x", "nan,0,nan,0"),
        ("chart", "inverse", "--sig", "2,2", "--b", "nan,0,0,0,0,0,nan,0"),
        ("cometric", "--sig", "1,1", "--x", "inf,0,inf,0"),
    ])
    def test_non_finite_point_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: NotIsotropicError" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("cometric", "--sig", "1,1", "--x", "inf,0,inf,0"),
        ("metric", "--sig", "1,1", "--x", "nan,0,nan,0"),
        ("chart", "inverse", "--sig", "2,2", "--b", "inf,0,0,0,0,0,inf,0"),
        ("chart", "forward", "--sig", "2,2", "--y", "inf,0,0,0"),
    ])
    def test_non_finite_input_prints_only_the_error_line(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert [str(w.message) for w in caught] == []
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite" in err

    def test_non_finite_r_rejected_by_the_parser(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "chart", "forward", "--sig", "2,2",
                                     "--r", "inf", "--y", "0,0,0,0")
        assert code == 2
        assert out == ""
        assert [str(w.message) for w in caught] == []
        assert "argument --r: expected a finite number" in err

    def test_malformed_components(self, capsys):
        code, _, err = run_cli(
            capsys, "metric", "--sig", "1,1", "--x", "1,0,1"
        )
        assert code == 2
        assert "expected 4 numbers" in err

    @pytest.mark.parametrize("argv", [
        ("metric", "--sig", "1,1", "--x=1,0,,1,0"),
        ("metric", "--sig", "1,1", "--x=1,0,1,0,"),
        ("cometric", "--sig", "1,1", "--x=,1,0,1,0"),
        ("chart", "forward", "--sig", "1,1", "--y=,"),
        ("chart", "forward", "--sig", "2,2", "--y=1,0,,0,0"),
        ("chart", "inverse", "--sig", "1,1", "--b=1,0,1,0,"),
        ("aperp", "classify", "--sig", "2,2", "--b=0,0,1,0,,1,0,0,0"),
    ])
    def test_an_empty_field_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "error: could not parse number list" in err
        assert "Traceback" not in err

    def test_an_empty_list_is_the_empty_list(self, capsys):
        code, payload, _ = run_json(capsys, "chart", "forward", "--sig", "1,1",
                                    "--y", "")
        assert code == 0 and payload["y"] == []

    @pytest.mark.parametrize("argv", [
        ("sample", "--sig", "1,1", "--trials", "0"),
        ("sample", "--sig", "1,1", "--trials", "-1"),
        ("verify", "--suite", "hermitian", "--sig", "1,1", "--trials", "0"),
        ("oracle", "--trials", "0"),
        ("torus", "--trials", "0"),
        ("torus", "--steps", "0"),
        ("verify", "--suite", "hermitian", "--sig", "1,1", "--tol", "nan"),
        ("verify", "--suite", "hermitian", "--sig", "1,1", "--tol", "inf"),
        ("verify", "--suite", "hermitian", "--sig", "1,1", "--tol", "-0.5"),
        ("chart", "inverse", "--sig", "2,2", "--b", "0,2,1,0,0,0,-1,2",
         "--tol", "nan"),
    ])
    def test_out_of_range_counts_and_tolerances(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("sample", "--sig", "2,2", "--seed", "-1"),
        ("verify", "--suite", "hermitian", "--sig", "1,1", "--seed", "-3"),
        ("torus", "--seed", "-1"),
        ("aperp", "dim", "--sig", "2,2", "--seed", "-4"),
        ("oracle", "--sig", "1,1", "--seed", "-2"),
        ("sample", "--sig", "2,2", "--seed", "x"),
    ])
    def test_negative_seed_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "argument --seed: expected an integer >= 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("sample", "--sig", "1,1", "--trials", "x"),
         "argument --trials: expected an integer >= 1, got x"),
        (("verify", "--suite", "hermitian", "--sig", "1,1", "--tol", "abc"),
         "argument --tol: expected a finite number >= 0, got abc"),
        (("chart", "forward", "--sig", "2,2", "--r", "abc", "--y", "1,0,0,0"),
         "argument --r: expected a finite number, got abc"),
        (("torus", "--steps", "x"),
         "argument --steps: expected an integer >= 1, got x"),
    ], ids=["trials", "tol", "r", "steps"])
    def test_unparsable_number_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err
        assert not re.search(r"\b_[a-z]", err)

    def test_negative_env_seed_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CONEQ_SEED", "-5")
        code, out, err = run_cli(capsys, "sample", "--sig", "1,1")
        assert code == 2
        assert out == ""
        assert err == "error: CONEQ_SEED must be an integer >= 0, got -5\n"


class TestParserReuse:
    """main builds its parser once per process; every call must still act
    as it does in a fresh process."""

    SCRIPT = "import sys; from coneq.cli import main; sys.exit(main(sys.argv[1:]))"
    CALLS = [
        ({}, ["--help"]),
        ({}, ["verify", "--suite", "nope", "--sig", "1,1"]),
        ({}, ["verify", "--suite", "cone-sampler", "--trials", "0"]),
        ({}, ["verify", "--suite", "cone-sampler", "--sig", "2,2",
              "--trials", "3", "--seed", "4"]),
        ({"CONEQ_SEED": "3"}, ["sample", "--sig", "1,1"]),
        ({"CONEQ_SEED": "8"}, ["sample", "--sig", "1,1"]),
        ({"CONEQ_SEED": "8"}, ["verify", "--suite", "hermitian", "--sig", "1,2",
                               "--trials", "2"]),
    ]

    @staticmethod
    def _untimed(text):
        return [line for line in text.splitlines() if "elapsed_seconds" not in line]

    def _fresh(self, env_update, argv):
        src = str(Path(coneq.__file__).resolve().parent.parent)
        env = {key: value for key, value in os.environ.items()
               if key != "CONEQ_SEED"}
        env.update(COLUMNS="80", **env_update)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        return proc.returncode, self._untimed(proc.stdout), self._untimed(proc.stderr)

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_each_call_matches_a_fresh_process(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("CONEQ_SEED", raising=False)
        in_process = []
        for env_update, argv in self.CALLS:
            for key, value in env_update.items():
                monkeypatch.setenv(key, value)
            code, out, err = run_cli(capsys, *argv)
            in_process.append((code, self._untimed(out), self._untimed(err)))
        assert [c[0] for c in in_process] == [0, 2, 2, 0, 0, 0, 0]
        fresh = [self._fresh(env_update, argv) for env_update, argv in self.CALLS]
        assert in_process == fresh
