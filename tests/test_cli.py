"""Command-line interface: schema, formatting, exit codes, determinism."""

import json
import math

import pytest

import heisenberg_dpp.analysis as analysis_mod
import heisenberg_dpp.montecarlo as mc_mod
from heisenberg_dpp import __version__, cli
from heisenberg_dpp.exceptions import InternalConsistencyError


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEmitters:
    @pytest.mark.parametrize(
        "x",
        [0.1, 1.0 / 3.0, math.pi, 1e-308, 12345.678901234567, -2.5e300, 0.0],
    )
    def test_floats_round_trip(self, x):
        assert json.loads(cli.emit_json(x)) == x

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            cli.emit_json(math.nan)
        with pytest.raises(ValueError):
            cli.emit_json(math.inf)

    def test_nested_structure(self):
        doc = {"a": [1, 2.5], "b": {"c": None, "d": "text"}, "e": []}
        assert json.loads(cli.emit_json(doc)) == doc

    def test_csv_none_as_empty(self):
        text = cli.emit_csv([{"a": 1, "b": None}, {"a": 2.5, "b": "x"}])
        assert text == "a,b\n1,\n2.5,x\n"

    def test_csv_empty(self):
        assert cli.emit_csv([]) == ""


class TestKernelEval:
    def test_frozen_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "kernel-eval",
                "--dimension", "1",
                "--x", "1,0",
                "--y", "0,0",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["hermitized_re"] == pytest.approx(
            math.exp(-0.5) / math.pi, rel=1e-15
        )
        assert row["hermitized_im"] == 0.0
        assert doc["meta"]["version"] == __version__

    def test_bad_point_syntax(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["kernel-eval", "--dimension", "1", "--x", "1", "--y", "0,0"],
        )
        assert code == 2
        assert "error" in err


class TestStats:
    def test_closed_route_document(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "stats",
                "--dimension", "1",
                "--window", "ball",
                "--radius", "1.0",
                "--route", "closed",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"spec", "window", "rows", "meta"}
        assert doc["spec"] == {"dimension": 1, "level": [0]}
        assert doc["window"] == "ball"
        row = doc["rows"][0]
        assert row["variance"] == pytest.approx(0.5237776118026087, rel=1e-14)
        assert row["mean"] == pytest.approx(1.0, rel=1e-15)
        assert doc["meta"]["tolerances"] == {"tail_tol": 1e-9}

    def test_spectrum_route_polydisk(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "stats",
                "--dimension", "2",
                "--level", "0,1",
                "--window", "polydisk",
                "--radius", "2.0",
                "--route", "spectrum",
            ],
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["mean"] == pytest.approx(16.0, rel=1e-8)
        assert row["variance"] < row["mean"]

    def test_level_length_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "stats",
                "--dimension", "1",
                "--level", "0,1",
                "--window", "ball",
                "--radius", "1.0",
                "--route", "closed",
            ],
        )
        assert code == 2

    def test_unsupported_route_combination(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "stats",
                "--dimension", "2",
                "--window", "polydisk",
                "--radius", "1.0",
                "--route", "closed",
            ],
        )
        assert code == 2
        assert "error" in err


class TestSweep:
    def test_grid_spec_and_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "sweep",
                "--dimension", "1",
                "--window", "ball",
                "--r-grid", "1:4:3",
                "--route", "closed",
                "--format", "csv",
            ],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,mean,variance,ratio,r_times_ratio"
        assert len(lines) == 4
        radii = [float(line.split(",")[0]) for line in lines[1:]]
        assert radii == pytest.approx([1.0, 2.0, 4.0])

    def test_comma_grid_and_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code, out, _ = run_cli(
            capsys,
            [
                "sweep",
                "--dimension", "1",
                "--window", "ball",
                "--r-grid", "1,2,4",
                "--route", "integral",
                "--out", str(out_path),
            ],
        )
        assert code == 0
        assert out == ""  # everything went to the file
        doc = json.loads(out_path.read_text())
        assert [row["r"] for row in doc["rows"]] == [1.0, 2.0, 4.0]
        assert doc["rows"][0]["variance"] == pytest.approx(
            0.5237776118026087, rel=1e-8
        )

    def test_bad_grid(self, capsys):
        code, _, _ = run_cli(
            capsys,
            [
                "sweep",
                "--dimension", "1",
                "--window", "ball",
                "--r-grid", "4:1:3",
                "--route", "closed",
            ],
        )
        assert code == 2


class TestClassify:
    def test_direct_classification(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "classify",
                "--dimension", "1",
                "--window", "ball",
                "--route", "closed",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        cls = doc["classification"]
        assert cls["class_label"] == "ClassI"
        assert cls["leading_constant"] == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-3
        )

    def test_roundtrip_through_file(self, capsys, tmp_path):
        sweep_path = tmp_path / "sweep.json"
        code, _, _ = run_cli(
            capsys,
            [
                "sweep",
                "--dimension", "1",
                "--window", "polydisk",
                "--r-grid", "2:50:8",
                "--route", "spectrum",
                "--out", str(sweep_path),
            ],
        )
        assert code == 0
        code, out, _ = run_cli(capsys, ["classify", "--in", str(sweep_path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"]["class_label"] == "ClassI"
        # rows pass through the classifier unchanged
        assert doc["rows"] == json.loads(sweep_path.read_text())["rows"]

    def test_needs_input_or_dimension(self, capsys):
        code, _, err = run_cli(capsys, ["classify"])
        assert code == 2
        assert "error" in err


class TestMc:
    def test_estimate_against_exact(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "mc",
                "--dimension", "1",
                "--window", "polydisk",
                "--radius", "2.0",
                "--seed", "7",
                "--replicas", "2000",
            ],
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["replicas"] == 2000
        assert abs(row["mean"] - row["exact_mean"]) <= 4.0 * row["se_mean"]
        assert row["exact_mean"] == pytest.approx(4.0, rel=1e-8)

    def test_byte_identical_reruns(self, capsys):
        argv = [
            "mc",
            "--dimension", "1",
            "--window", "polydisk",
            "--radius", "1.5",
            "--seed", "99",
            "--replicas", "500",
        ]
        code_a, out_a, _ = run_cli(capsys, argv)
        code_b, out_b, _ = run_cli(capsys, argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_seed_matters(self, capsys):
        base = [
            "mc",
            "--dimension", "1",
            "--window", "polydisk",
            "--radius", "1.5",
            "--replicas", "500",
        ]
        _, out_a, _ = run_cli(capsys, base + ["--seed", "1"])
        _, out_b, _ = run_cli(capsys, base + ["--seed", "2"])
        assert out_a != out_b

    def test_budget_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(mc_mod, "KEPT_CELL_CAP", 1)
        code, _, err = run_cli(
            capsys,
            [
                "mc",
                "--dimension", "1",
                "--window", "polydisk",
                "--radius", "3.0",
                "--replicas", "10",
            ],
        )
        assert code == 3
        assert "budget" in err

    def test_internal_consistency_exit_code(self, capsys, monkeypatch):
        def broken_route(*args, **kwargs):
            raise InternalConsistencyError("p_3 at level 1 evaluated to 1.5")

        monkeypatch.setattr(analysis_mod, "polydisk_moments", broken_route)
        code, out, err = run_cli(
            capsys,
            [
                "stats",
                "--dimension", "1",
                "--window", "polydisk",
                "--radius", "2.0",
                "--route", "spectrum",
            ],
        )
        assert code == 4
        assert out == ""
        assert err == "internal consistency error: p_3 at level 1 evaluated to 1.5\n"


class TestConstants:
    def test_rows_and_sum(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["constants", "--dimension", "2", "--level", "0,2"],
        )
        assert code == 0
        doc = json.loads(out)
        rows = doc["rows"]
        assert rows[0]["level"] == 0
        assert rows[0]["c_asymptote"] is None  # no sqrt-law at level zero
        assert rows[0]["c_exact"] == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-14
        )
        assert rows[1]["c_exact"] == pytest.approx(1.278242025225385, rel=1e-13)
        assert doc["limit_constant_sum"] == pytest.approx(
            rows[0]["c_exact"] + rows[1]["c_exact"], rel=1e-14
        )

    def test_csv_renders_missing_asymptote_empty(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["constants", "--dimension", "1", "--level", "0", "--format", "csv"],
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.split(",")[0] == "level"
        assert row.split(",")[2] == ""  # c_asymptote column


class TestVerify:
    def test_single_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--check", "alpha-coefficients"])
        assert code == 0
        assert out.startswith("PASS alpha-coefficients:")

    def test_multiple_checks(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "verify",
                "--check", "alpha-coefficients",
                "--check", "ginibre-constant",
            ],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert all(line.startswith("PASS ") for line in lines)

    def test_zero_tolerance_fails_honestly(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "verify",
                "--check", "ginibre-constant",
                "--tolerance-scale", "0",
            ],
        )
        assert code == 1
        assert out.startswith("FAIL ginibre-constant:")

    def test_machine_output(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, out, _ = run_cli(
            capsys,
            [
                "verify",
                "--check", "alpha-coefficients",
                "--out", str(out_path),
            ],
        )
        assert code == 0
        assert "PASS" in out  # human lines still on stdout
        doc = json.loads(out_path.read_text())
        assert doc["rows"][0]["name"] == "alpha-coefficients"
        assert doc["rows"][0]["passed"] is True

    def test_unknown_check_rejected(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "--check", "no-such-check"])
        assert code == 2


class TestParserBasics:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["--version"])
        assert exc_info.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["frobnicate"])
        assert exc_info.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["stats", "--radius", "1.0"])
        assert exc_info.value.code == 2
