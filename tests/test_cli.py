"""CLI subcommands: outputs, exit codes, determinism, env seed fallback."""

import json
import math
import os

import numpy as np
import pytest

import dpgs.audit as audit_mod
from dpgs.audit import END_TO_END_MIN_TRIALS, AuditReport
from dpgs.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PLAN_ARGS = ["--alpha", "0.2", "--epsilon", "1", "--delta", "0.05", "--dim", "1"]
UNRELEASED_KEYS = {
    "trace", "score_cov", "score_mean", "ptr", "cov_uniform", "mean_uniform", "reference_set",
}


def assert_released_record_only(doc):
    # Under propose-test-release the gate bit is all a run may release about
    # its scores: no unnoised score, uniform flag or reference set, at any depth.
    assert set(doc) == {"format_version", "outcome", "z", "sizes"}
    assert not UNRELEASED_KEYS & set(doc["sizes"])
    assert all(isinstance(v, (int, float)) for v in doc["sizes"].values())
# the arguments of the two commands that read a CSV, less --dim and --in
CSV_COMMAND_ARGS = {
    "sample": ["--alpha", "0.2", "--epsilon", "1", "--delta", "0.05"],
    "mean": ["--epsilon", "1", "--delta", "0.05", "--lambda0", "20"],
}


class TestPlan:
    def test_json_and_table(self, capsys):
        code, out, err = run_cli(capsys, "plan", *PLAN_ARGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["format_version"] == 1
        assert doc["n"] == doc["n1"] + 2 * doc["n2"]
        assert doc["params"] == {"epsilon": 1.0, "delta": 0.05}
        assert "lambda0" in err and "ref_size" in err

    def test_json_has_no_log_base(self, capsys):
        _, out, _ = run_cli(capsys, "plan", *PLAN_ARGS)
        assert "log_base" not in json.loads(out)

    def test_log_base_flag_is_a_parse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["plan", *PLAN_ARGS, "--log-base", "2"])
        assert exc.value.code == 2

    def test_rerun_is_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "plan", *PLAN_ARGS)
        _, out2, _ = run_cli(capsys, "plan", *PLAN_ARGS)
        assert out1 == out2

    def test_bad_epsilon_names_range(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", "--alpha", "0.2", "--epsilon", "1.5",
            "--delta", "0.05", "--dim", "1",
        )
        assert code == 2
        assert "(0, 1]" in err

    def test_bad_delta(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", "--alpha", "0.2", "--epsilon", "0.5",
            "--delta", "0.2", "--dim", "1",
        )
        assert code == 2
        assert "delta" in err


class TestGen:
    def test_header_rows_and_determinism(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["gen", "--n", "7", "--dim", "3", "--mu", "1,2,3",
                "--sigma", "2,0,0;0,2,0;0,0,2", "--seed", "11"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        text = out_a.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "x1,x2,x3"
        assert len(lines) == 8
        assert text == out_b.read_text()

    def test_values_roundtrip_exactly(self, tmp_path):
        # 17 significant digits reproduce the float64 values bit for bit
        out = tmp_path / "d.csv"
        main(["gen", "--n", "50", "--dim", "2", "--seed", "4", "--out", str(out)])
        first = np.loadtxt(out, delimiter=",", skiprows=1)
        out.write_text(
            "x1,x2\n" + "\n".join(",".join(f"{v:.17g}" for v in row) for row in first) + "\n"
        )
        again = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(first, again)

    def test_sample_variance_tracks_target(self, tmp_path):
        n = 100_000
        out = tmp_path / "big.csv"
        assert main(["gen", "--n", str(n), "--dim", "1", "--seed", "2",
                     "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert abs(np.var(data, ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / n)

    def test_non_pd_sigma_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--n", "5", "--dim", "2", "--sigma", "1,2;2,1", "--seed", "1"
        )
        assert code == 2
        assert "positive definite" in err

    def test_scalar_sigma_scales_identity(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        main(["gen", "--n", "20000", "--dim", "2", "--sigma", "4", "--seed", "9",
              "--out", str(out)])
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.allclose(np.var(data, axis=0), 4.0, rtol=0.1)

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_sigma_does_not_overflow(self, capsys):
        # sigma + sigma.T overflows at 1e308; the symmetrised matrix does not
        code, out, _ = run_cli(
            capsys, "gen", "--n", "3", "--dim", "1", "--mu", "1e308", "--sigma", "1e308",
            "--seed", "1",
        )
        assert code == 0
        assert np.all(np.isfinite([float(v) for v in out.split()[1:]]))

    def test_non_finite_rows_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.full_like(a, np.inf))
        code, out, err = run_cli(capsys, "gen", "--n", "3", "--dim", "1", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--mu", "1,2,3", "mean has 3 entries, expected 2"),
            ("--sigma", "1,0,0;0,1,0;0,0,1", "covariance has shape (3, 3)"),
        ],
    )
    def test_parameter_of_wrong_size_exits_two(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "gen", "--n", "3", "--dim", "2", flag, value)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dim_below_one_exits_two(self, capsys, dim):
        code, out, err = run_cli(capsys, "gen", "--n", "3", "--dim", dim)
        assert code == 2
        assert out == ""
        assert f"n and dim must be >= 1, got n=3, dim={dim}" in err


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    assert main(["gen", "--n", "1066", "--dim", "1", "--mu", "5", "--sigma", "2",
                 "--seed", "3", "--out", str(path)]) == 0
    return path


class TestSample:
    def test_ok_outcome(self, capsys, dataset):
        code, out, err = run_cli(
            capsys, "sample", *PLAN_ARGS, "--in", str(dataset), "--seed", "9"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "ok"
        assert len(doc["z"]) == 1
        # success path logs nothing, and only the released record is printed
        assert err == ""
        assert_released_record_only(doc)
        assert set(doc["sizes"]) == {"n", "n1", "n2", "k", "ref_size", "lambda0"}

    def test_deterministic(self, capsys, dataset):
        _, out1, _ = run_cli(capsys, "sample", *PLAN_ARGS, "--in", str(dataset), "--seed", "9")
        _, out2, _ = run_cli(capsys, "sample", *PLAN_ARGS, "--in", str(dataset), "--seed", "9")
        assert out1 == out2

    def test_gate_fail_is_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("x1\n" + "\n".join(["1.0"] * 1066) + "\n")
        code, out, _ = run_cli(
            capsys, "sample", *PLAN_ARGS, "--in", str(path), "--seed", "9"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "fail"
        assert doc["z"] is None
        assert_released_record_only(doc)

    def test_row_count_mismatch(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x1\n1.0\n2.0\n")
        code, _, err = run_cli(
            capsys, "sample", *PLAN_ARGS, "--in", str(path), "--seed", "9"
        )
        assert code == 2
        assert "does not match plan" in err

    def test_non_finite_entry_exits_two(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x1\n" + "\n".join(["1.0"] * 1065 + ["nan"]) + "\n")
        code, out, err = run_cli(
            capsys, "sample", *PLAN_ARGS, "--in", str(path), "--seed", "9"
        )
        assert code == 2
        assert out == ""
        assert "NaN or infinite" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sample", *PLAN_ARGS, "--in", str(tmp_path / "nope.csv")
        )
        assert code == 2
        assert "error" in err


class TestMean:
    def test_ok_outcome(self, capsys, dataset):
        code, out, _ = run_cli(
            capsys, "mean", "--epsilon", "1", "--delta", "0.05", "--dim", "1",
            "--lambda0", "50", "--in", str(dataset), "--seed", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "ok"
        assert doc["z"] == pytest.approx([5.0], abs=1.0)
        assert_released_record_only(doc)

    def test_bad_lambda0(self, capsys, dataset):
        code, _, err = run_cli(
            capsys, "mean", "--epsilon", "1", "--delta", "0.05", "--dim", "1",
            "--lambda0", "0.5", "--in", str(dataset),
        )
        assert code == 2
        assert "lambda0" in err

    def test_column_count_mismatch_exits_two(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("x1,x2\n1,2\n3,4\n")
        code, out, err = run_cli(
            capsys, "mean", *CSV_COMMAND_ARGS["mean"], "--dim", "3", "--in", str(path)
        )
        assert code == 2
        assert out == ""
        assert "has 2 columns, expected dim=3" in err

    @pytest.mark.parametrize("lambda0", ["inf", "1e308", "1e306"])
    def test_lambda0_that_overflows_exits_two(self, capsys, dataset, lambda0):
        code, out, err = run_cli(
            capsys, "mean", "--epsilon", "1", "--delta", "0.05", "--dim", "1",
            "--lambda0", lambda0, "--in", str(dataset),
        )
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestMalformedNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "5", "--dim", "1", "--mu", "abc"],
            ["gen", "--n", "5", "--dim", "2", "--sigma", "1,2;3"],
            ["gen", "--n", "5", "--dim", "2", "--sigma", "1,x;0,1"],
            ["gen", "--n", "5", "--dim", "1", "--mu", "inf"],
            ["gen", "--n", "5", "--dim", "2", "--mu", "1,nan"],
            ["gen", "--n", "5", "--dim", "1", "--sigma", "inf"],
            ["plan", *PLAN_ARGS, "--c1", "nan"],
            ["plan", *PLAN_ARGS, "--c2", "inf"],
            ["plan", *PLAN_ARGS, "--c1", "1e300"],
        ],
        ids=lambda argv: " ".join(argv[-2:]),
    )
    def test_argument_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["sample", "mean"])
    @pytest.mark.parametrize(
        "body, cell",
        [("0.5,1.25\n0.75,foo\n", "foo"), ("0.5,1.25\n0.75\n", "0.75")],
        ids=["non-numeric", "ragged"],
    )
    def test_malformed_csv_exits_two_without_the_cell(
        self, capsys, tmp_path, command, body, cell
    ):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n" + body)
        code, out, err = run_cli(
            capsys, command, *CSV_COMMAND_ARGS[command], "--dim", "2", "--in", str(path)
        )
        assert code == 2
        assert out == ""
        assert str(path) in err and "malformed" in err
        assert cell not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["sample", "mean"])
    def test_header_only_csv_exits_two(self, capsys, tmp_path, command):
        path = tmp_path / "empty.csv"
        path.write_text("x1,x2\n")
        code, out, err = run_cli(
            capsys, command, *CSV_COMMAND_ARGS[command], "--dim", "2", "--in", str(path)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {path} has no data rows\n"


class TestAudit:
    def test_passing_check(self, capsys, tmp_path):
        out = tmp_path / "r.jsonl"
        summary = tmp_path / "r.csv"
        code, _, err = run_cli(
            capsys, "audit", "--check", "score_sensitivity", "--trials", "16",
            "--seed", "7", "--out", str(out), "--summary", str(summary),
        )
        assert code == 0
        doc = json.loads(out.read_text().strip())
        assert doc["failures"] == 0
        assert doc["seed"] == 7
        assert summary.read_text().startswith(
            "format_version,check_id,mode,trials,failures,verdict,seed"
        )
        assert "PASS" in err

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["audit", "--check", "matrix_bounds", "--trials", "20", "--seed", "5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_seed_fallback(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("DPGS_SEED", "123")
        out = tmp_path / "env.jsonl"
        main(["audit", "--check", "density_lemmas", "--out", str(out)])
        doc = json.loads(out.read_text().splitlines()[0])
        assert doc["seed"] == 123

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("DPGS_SEED", "zebra")
        code, _, err = run_cli(capsys, "audit", "--check", "density_lemmas")
        assert code == 2
        assert "DPGS_SEED" in err

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "audit", "--check", "bogus")
        assert code == 2
        assert "unknown check" in err

    @pytest.mark.parametrize("threads", [0, -1, (os.cpu_count() or 1) + 1, "x"])
    def test_bad_thread_count_is_a_parse_error(self, capsys, monkeypatch, threads):
        def never(*args, **kwargs):
            raise AssertionError("run_checks ran")

        monkeypatch.setattr(audit_mod, "run_checks", never)
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--check", "density_lemmas", "--threads", str(threads)])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_one_thread_runs(self, capsys):
        code, out, err = run_cli(
            capsys, "audit", "--threads", "1", "--check", "matrix_bounds", "--trials", "3"
        )
        assert code == 0
        assert [json.loads(line)["verdict"] for line in out.splitlines()] == ["pass"] * 3

    def test_end_to_end_below_minimum_trials_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "audit", "--check", "end_to_end", "--trials", "40")
        assert code == 2
        assert f"at least {END_TO_END_MIN_TRIALS} trials" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exits_two(self, capsys, trials):
        code, _, err = run_cli(
            capsys, "audit", "--check", "score_sensitivity", "--trials", trials
        )
        assert code == 2
        assert "trials must be >= 1" in err

    def test_grid_check_refuses_zero_trials(self, capsys, monkeypatch):
        # density_lemmas runs a fixed grid and never reads trials, so the
        # refusal has to come before any check runs
        def never(*args, **kwargs):
            raise AssertionError("density_lemmas ran")

        monkeypatch.setitem(audit_mod.REGISTRY, "density_lemmas", never)
        code, _, err = run_cli(capsys, "audit", "--check", "density_lemmas", "--trials", "0")
        assert code == 2
        assert "trials must be >= 1" in err

    def test_failing_verdict_exits_one(self, capsys, monkeypatch):
        def fake(trials, mode, seed):
            return [AuditReport("density_lemmas", mode, 1, 1, {}, seed)]

        monkeypatch.setitem(audit_mod.REGISTRY, "density_lemmas", fake)
        code, _, err = run_cli(capsys, "audit", "--check", "density_lemmas", "--seed", "1")
        assert code == 1
        assert "FAIL" in err


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--alpha", "0.2", "--epsilon", "1", "--delta", "0.05",
                  "--dim", "1", "--frobnicate"])
        assert exc.value.code == 2
