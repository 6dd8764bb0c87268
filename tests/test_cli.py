"""Command-line interface: schema, formatting, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heisenberg_dpp.analysis as analysis_mod
import heisenberg_dpp.montecarlo as mc_mod
import heisenberg_dpp.window_stats as ws
from heisenberg_dpp import __version__, cli, verification
from heisenberg_dpp.exceptions import InternalConsistencyError
from heisenberg_dpp.kernels import KernelSpec


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DROP = object()


def replace(doc, path, value):
    """Set the node at path (a tuple of keys and indices), or delete it for DROP."""
    *parents, key = path
    for step in parents:
        doc = doc[step]
    if value is DROP:
        del doc[key]
    else:
        doc[key] = value


def sweep_document() -> dict:
    """A valid six-row sweep document of the D=1 ball, without meta.route."""
    sweep = analysis_mod.run_sweep(
        KernelSpec(1), "ball", (2.0, 4.0, 8.0, 16.0, 32.0, 64.0), "closed"
    )
    return {
        "spec": {"dimension": 1, "level": [0]},
        "window": "ball",
        "rows": [
            {"r": row.r, "mean": row.mean, "variance": row.variance,
             "ratio": row.ratio, "r_times_ratio": row.r_times_ratio}
            for row in sweep.rows
        ],
        "meta": {"version": __version__, "seed": None, "tolerances": {}},
    }


def classify_document(capsys, tmp_path, doc):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    return run_cli(capsys, ["classify", "--in", str(path)])


class TestEmitters:
    @pytest.mark.parametrize(
        "x",
        [0.1, 1.0 / 3.0, math.pi, 1e-308, 12345.678901234567, -2.5e300, 0.0],
    )
    def test_floats_round_trip(self, x):
        assert json.loads(cli.emit_json(x)) == x

    def test_non_finite_written_as_null(self):
        assert cli.emit_json(math.nan) == "null"
        assert json.loads(cli.emit_json({"a": [math.inf, -math.inf, 1.5]})) == {
            "a": [None, None, 1.5]
        }
        assert cli.emit_csv([{"a": math.nan, "b": 2.0, "c": -math.inf}]) == "a,b,c\n,2,\n"

    def test_nested_structure(self):
        doc = {"a": [1, 2.5], "b": {"c": None, "d": "text"}, "e": []}
        assert json.loads(cli.emit_json(doc)) == doc

    def test_csv_none_as_empty(self):
        text = cli.emit_csv([{"a": 1, "b": None}, {"a": 2.5, "b": "x"}])
        assert text == "a,b\n1,\n2.5,x\n"

    def test_csv_empty(self):
        assert cli.emit_csv([]) == ""

    def test_csv_missing_key_as_empty(self):
        # classify --in passes rows through, and they need not share keys
        assert cli.emit_csv([{"a": 1, "b": 2}, {"a": 3}]) == "a,b\n1,2\n3,\n"

    def test_csv_quotes_commas_and_quotes(self):
        text = cli.emit_csv([{"a": "x, y", "b": 'say "hi"', "c": 1.5}])
        assert text == 'a,b,c\n"x, y","say ""hi""",1.5\n'

    @settings(max_examples=60, deadline=None)
    @given(doc=st.recursive(
        st.none() | st.booleans() | st.integers() | st.text() | st.floats(),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=5), inner, max_size=4),
        max_leaves=12,
    ))
    def test_json_round_trip(self, doc):
        def expected(node):
            if isinstance(node, float) and not math.isfinite(node):
                return None
            if isinstance(node, list):
                return [expected(v) for v in node]
            if isinstance(node, dict):
                return {k: expected(v) for k, v in node.items()}
            return node

        assert json.loads(cli.emit_json(doc)) == expected(doc)

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(st.sampled_from(["name", "detail", "sub_case", "note"]),
                      min_size=1, max_size=4, unique=True),
        data=st.data(),
    )
    def test_csv_string_cells_read_back_intact(self, keys, data):
        rows = data.draw(st.lists(
            st.fixed_dictionaries({k: st.text(max_size=12) for k in keys}),
            min_size=1, max_size=4,
        ))
        got = list(csv.DictReader(io.StringIO(cli.emit_csv(rows))))
        assert got == rows


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

    def test_raw_kernel_past_a_laguerre_overflow(self, capsys):
        # L_1000(1700) overflows a double; e^(-425) L_1000(1700) ~ -5e182 does not
        code, out, err = run_cli(
            capsys,
            ["kernel-eval", "--dimension", "1", "--level", "1000",
             "--x=-20.615528128088304,0", "--y", "20.615528128088304,0"],
        )
        assert (code, err) == (0, "")
        row = json.loads(out)["rows"][0]
        assert -6e182 < row["kernel_re"] < -4e182 and row["kernel_im"] == 0.0

    def test_level_past_the_laguerre_cap_exits_3_at_once(self, capsys):
        # L_(10^12) would run 10^12 recurrence steps, days of work
        start = time.process_time()
        argv = ["kernel-eval", "--dimension", "1", "--level", "1000000000000",
                "--x", "1,0", "--y", "0,0"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, "")
        assert err == (
            "numerical budget exhausted: laguerre of degree 1000000000000 takes "
            "about 3.00e+5 s of work, past the budget of 30 s\n"
        )
        assert time.process_time() - start < 1.0

    def test_point_with_wrong_coordinate_count(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["kernel-eval", "--dimension", "1", "--x", "1,0;2,0", "--y", "0,0"],
        )
        assert (code, out) == (2, "")
        assert err == "error: point '1,0;2,0' has 2 coordinates, expected 1\n"


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
        assert doc["meta"]["tolerances"] == {}  # the closed route reads no setting

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

    def test_integral_route_at_large_radius(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "stats",
                "--dimension", "1",
                "--window", "ball",
                "--radius", "2000",
                "--route", "integral",
            ],
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["variance"] == pytest.approx(2000.0 / math.sqrt(math.pi), rel=1e-3)

    def test_level_past_the_budget_exits_3(self, capsys):
        # 2000 indices at level 2000: refused before any ladder is built
        argv = ["stats", "--dimension", "1", "--level", "2000", "--radius", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, "")
        assert "at level 2000" in err and "past the budget of 30 s" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--radius", "1e200"],
            ["sweep", "--r-grid", "1,1e200"],
            ["mc", "--radius", "1e200", "--replicas", "10"],
        ],
        ids=["stats", "sweep", "mc"],
    )
    def test_radius_past_the_double_square_exits_3(self, capsys, argv):
        # R^2 overflows a double, yet the spectrum is refused by its budget
        code, out, err = run_cli(capsys, [*argv, "--dimension", "1"])
        assert (code, out) == (3, "")
        assert "spectrum of 1.000e+400 indices at level 0 at radius 1e+200 takes" in err

    def test_infinite_tail_target_exits_2(self, capsys):
        # an infinite target would certify the first truncation, whatever its tail
        argv = ["stats", "--dimension", "1", "--radius", "2", "--tail-tol", "inf"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: tail_tol must be positive and finite, got inf\n"

    def test_ball_mean_past_the_double_range_exits_2(self, capsys):
        argv = ["stats", "--dimension", "1", "--window", "ball", "--route", "closed",
                "--radius", "1e200"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: the ball mean at D=1, R=1e+200 overflows double range\n"

    def test_closed_route_past_the_factorial_range(self, capsys):
        # every I_n(2) e^-2 for n near 200 lies below the doubles; the closed
        # route used to hang there, and now prints the integral route's
        # zero-mean document
        argv = ["stats", "--dimension", "200", "--window", "ball", "--radius", "1"]
        code, out, err = run_cli(capsys, [*argv, "--route", "closed"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["rows"] == [
            {"r": 1, "mean": 0, "variance": 0, "ratio": None, "r_times_ratio": None}
        ]
        _, integral, _ = run_cli(capsys, [*argv, "--route", "integral"])
        assert out == integral.replace('"route": "integral"', '"route": "closed"')

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

    def test_empty_input_path_is_an_input(self, capsys):
        # --in "" names a file (that cannot exist), not a fresh sweep
        code, out, err = run_cli(capsys, ["classify", "--in", ""])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_documents_record_their_route(self, capsys):
        common = ["--dimension", "1", "--window", "ball"]
        for argv, route in [
            (["stats", *common, "--radius", "1.5", "--route", "closed"], "closed"),
            (["sweep", *common, "--r-grid", "1,2", "--route", "integral"], "integral"),
            (["classify", *common, "--route", "closed"], "closed"),
            (["mc", *common, "--radius", "1.5", "--replicas", "20"], "mc"),
        ]:
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            assert json.loads(out)["meta"]["route"] == route

    def test_reloaded_sweep_keeps_its_route(self, capsys, tmp_path):
        # One Monte Carlo row is over-dispersed by 1%: sampling noise the
        # mc route allows, but more than the exact routes' rounding slack.
        doc = sweep_document()
        doc["rows"][2]["variance"] = 1.01 * doc["rows"][2]["mean"]
        doc["meta"]["route"] = "mc"
        code, out, err = classify_document(capsys, tmp_path, doc)
        assert (code, err) == (0, "")
        assert json.loads(out)["meta"]["route"] == "mc"
        # a document from before meta.route existed reads as a spectrum sweep
        del doc["meta"]["route"]
        code, _, err = classify_document(capsys, tmp_path, doc)
        assert code == 2
        assert "exceeds mean" in err

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("spec", "dimension"), "2", "spec.dimension must be an integer"),
            (("spec", "level"), "0", "spec.level must be a list of integers"),
            (("window",), "disk", "window must be ball or polydisk"),
            (("meta",), [], "meta must be an object"),
            (("meta", "route"), "exact",
             "meta.route must be one of closed, integral, spectrum, mc"),
            (("rows",), {"r": 1.0}, "rows must be a list"),
            (("rows", 1), 1.0, "rows[1] must be an object"),
            (("rows", 1, "variance"), DROP, "rows[1].variance must be a finite number"),
            (("rows", 1, "r"), "2.0", "rows[1].r must be a finite number"),
        ],
        ids=["dimension", "level", "window", "meta", "route", "rows", "row",
             "missing-field", "string-field"],
    )
    def test_malformed_input_names_the_field(self, capsys, tmp_path, path, value, message):
        doc = sweep_document()
        replace(doc, path, value)
        code, out, err = classify_document(capsys, tmp_path, doc)
        assert (code, out) == (2, "")
        assert err == f"error: --in document: {message}\n"

    def test_inconclusive_result_is_written(self, capsys, tmp_path):
        # a nonpositive variance in the fit window gives NaN slope and constant
        doc = sweep_document()
        doc["rows"][-1].update(variance=0.0, ratio=0.0, r_times_ratio=0.0)
        code, out, err = classify_document(capsys, tmp_path, doc)
        assert (code, err) == (0, "")
        report = json.loads(out)["classification"]
        assert report["class_label"] == "Inconclusive"
        assert report["fitted_slope"] is None and report["leading_constant"] is None

    def test_zero_mean_rows_round_trip(self, capsys, tmp_path):
        # the three smallest radii have a zero mean and a null ratio
        path = tmp_path / "sweep.json"
        argv = ["sweep", "--dimension", "1", "--window", "ball", "--route",
                "closed", "--r-grid", "1e-320,1e-300,1e-200,1e-100,1,2",
                "--out", str(path)]
        assert run_cli(capsys, argv) == (0, "", "")
        code, out, err = run_cli(capsys, ["classify", "--in", str(path)])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["rows"] == json.loads(path.read_text())["rows"]
        assert doc["rows"][0]["ratio"] is None
        assert doc["classification"]["class_label"] == "Inconclusive"

    def test_null_row_field_is_rejected(self, capsys, tmp_path):
        doc = sweep_document()
        doc["rows"][3]["ratio"] = None  # how a NaN ratio is written
        code, out, err = classify_document(capsys, tmp_path, doc)
        assert (code, out) == (2, "")
        assert err == "error: --in document: rows[3].ratio must be a finite number\n"


class TestMc:
    def test_all_zero_sample_writes_null_ratio(self, capsys):
        argv = ["stats", "--route", "mc", "--dimension", "1", "--radius", "0.01",
                "--replicas", "20"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        row = json.loads(out)["rows"][0]
        assert (row["mean"], row["variance"]) == (0, 0)
        assert row["ratio"] is None and row["r_times_ratio"] is None
        code, out, err = run_cli(capsys, argv + ["--format", "csv"])
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "0.01,0,0,,"

    @pytest.mark.parametrize("argv", [
        ["stats", "--dimension", "1", "--radius", "1e-200", "--route", "spectrum"],
        ["mc", "--dimension", "1", "--radius", "1e-200", "--replicas", "5"],
        ["stats", "--dimension", "2", "--window", "ball", "--route", "integral",
         "--radius", "1e-170"],
        # J_D(kR) at the smallest subnormals: the series took the log of 0
        *[["stats", "--dimension", d, "--window", "ball", "--route", "integral",
           "--radius", r] for d, r in (("1", "5e-324"), ("1", "1e-323"), ("2", "4e-323"))],
        ["sweep", "--dimension", "1", "--window", "ball", "--route", "closed",
         "--r-grid", "1e-320,1e-310"],
    ])
    def test_zero_mean_writes_null_ratio(self, capsys, argv):
        # the mean underflows to 0, so Var/mean is undefined, not an error
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        for row in json.loads(out)["rows"]:
            assert row["mean"] == 0
            assert row["ratio"] is None and row["r_times_ratio"] is None

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

    def test_row_prints_cell_counts(self, capsys):
        argv = ["mc", "--dimension", "2", "--level", "0,1", "--radius", "3",
                "--replicas", "20", "--cell-prob-floor", "1e-6"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        row = json.loads(out)["rows"][0]
        cells = mc_mod.estimate_moments(
            KernelSpec(2, (0, 1)), 3.0, mc_mod.McConfig(20, 0, 1e-6)
        ).cells
        assert {k: row[f"{k}_cells"] for k in cells._fields} == cells._asdict()
        assert list(row)[-5:] == ["kept_cells", "dense_cells", "banded_cells", "sure_cells", "pooled_cells"]

    def test_level_past_sixteen_within_three_se(self, capsys):
        argv = ["mc", "--dimension", "1", "--level", "20", "--radius", "2",
                "--replicas", "2000"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert abs(row["mean"] - row["exact_mean"]) <= 3.0 * row["se_mean"]
        assert abs(row["variance"] - row["exact_variance"]) <= 3.0 * row["se_var"]

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

    def test_matches_stats_route_mc(self, capsys):
        # same draws, same row formula: the shared columns agree bit for bit
        draw = ["--dimension", "1", "--radius", "1.5", "--seed", "7", "--replicas", "500"]
        _, mc_out, _ = run_cli(capsys, ["mc", *draw])
        _, stats_out, _ = run_cli(capsys, ["stats", "--route", "mc", *draw])
        mc_row = json.loads(mc_out)["rows"][0]
        stats_row = json.loads(stats_out)["rows"][0]
        assert {k: mc_row[k] for k in stats_row} == stats_row
        assert list(stats_row) == ["r", "mean", "variance", "ratio", "r_times_ratio"]

    def test_draws_replicas_once(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return mc_mod.estimate_moments(*args, **kwargs)

        monkeypatch.setattr(analysis_mod, "estimate_moments", counted)
        code, _, _ = run_cli(
            capsys, ["mc", "--dimension", "1", "--radius", "1.5", "--replicas", "50"]
        )
        assert code == 0
        assert len(calls) == 1

    def test_ball_window_needs_dimension_one(self, capsys):
        draw = ["--window", "ball", "--radius", "2", "--replicas", "10"]
        code, out, err = run_cli(capsys, ["mc", "--dimension", "2", *draw])
        assert (code, out) == (2, "")
        stats = run_cli(capsys, ["stats", "--route", "mc", "--dimension", "2", *draw])
        assert stats == (2, "", err)
        assert "covers polydisks" in err
        # the disk is both a ball and a polydisk
        code, out, _ = run_cli(capsys, ["mc", "--dimension", "1", *draw])
        assert code == 0
        assert json.loads(out)["window"] == "ball"

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

    def test_cell_grid_past_the_cap_exits_3(self, capsys):
        # 691^3 cells at floor 0: the cap stops the grid at ~20M cells
        # (160 MB) instead of a 2.46 GiB outer product
        code, out, err = run_cli(
            capsys,
            [
                "stats",
                "--dimension", "3",
                "--radius", "20",
                "--route", "mc",
                "--replicas", "10",
                "--cell-prob-floor", "0",
            ],
        )
        assert (code, out) == (3, "")
        assert "budget" in err and "Traceback" not in err

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

    def test_each_constant_is_computed_once(self, capsys, monkeypatch):
        # the row sum reuses the rows' C(m): the sum once took a second call
        # per level, 200,000 calls at --dimension 100000
        calls, c_constant = [], ws.c_constant

        def counted(m):
            calls.append(m)
            return c_constant(m)

        monkeypatch.setattr(cli, "c_constant", counted)
        monkeypatch.setattr(ws, "c_constant", counted)
        code, out, _ = run_cli(capsys, ["constants", "--dimension", "3", "--level", "0,2,5"])
        assert code == 0 and calls == [0, 2, 5]
        doc = json.loads(out)
        assert doc["limit_constant_sum"] == math.fsum(row["c_exact"] for row in doc["rows"])

    def test_csv_renders_missing_asymptote_empty(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["constants", "--dimension", "1", "--level", "0", "--format", "csv"],
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.split(",")[0] == "level"
        assert row.split(",")[2] == ""  # c_asymptote column

    def test_constant_past_the_level_cap_exits_3(self, capsys):
        # C(10^12) would sum 10^12 terms of its 3F2, days of work
        argv = ["constants", "--dimension", "1", "--level", "1000000000000"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("numerical budget exhausted: C(1000000000000) takes about")


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_machine_output_structured_fields(self, capsys, tmp_path, fmt):
        out_path = tmp_path / f"verify.{fmt}"
        code, _, _ = run_cli(
            capsys,
            [
                "verify",
                "--check", "ginibre-constant",
                "--format", fmt,
                "--out", str(out_path),
            ],
        )
        assert code == 0
        text = out_path.read_text()
        if fmt == "json":
            row = json.loads(text)["rows"][0]
        else:
            header, values = text.strip().split("\n")
            row = dict(zip(header.split(","), values.split(",")))
            for key in ("max_delta", "raw_delta", "raw_tolerance"):
                row[key] = float(row[key])
        keys = list(row)
        assert keys[keys.index("detail") + 1 :] == ["sub_case", "raw_delta", "raw_tolerance"]
        assert row["sub_case"] == "D=1 R=50 vs 1/sqrt(pi)"
        assert row["detail"].startswith(row["sub_case"] + ": raw ")
        assert row["raw_tolerance"] == 0.02
        assert 0.0 < row["raw_delta"] <= row["raw_tolerance"]
        assert row["max_delta"] == row["raw_delta"] / row["raw_tolerance"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_outright_failure_is_written(self, capsys, tmp_path, monkeypatch, fmt):
        def broken():
            worst = verification._Worst()
            worst.add(1e-3, 1.0, "a sub-check that ran")
            worst.fail("the check could not finish")
            return worst

        monkeypatch.setitem(verification.ALL_CHECKS, "alpha-coefficients", broken)
        out_path = tmp_path / f"verify.{fmt}"
        code, out, _ = run_cli(capsys, ["verify", "--check", "alpha-coefficients",
                                        "--format", fmt, "--out", str(out_path)])
        assert code == 1
        assert out.startswith("FAIL alpha-coefficients: max normalized delta inf ")
        if fmt == "json":
            row = json.loads(out_path.read_text())["rows"][0]
            assert (row["passed"], row["raw_delta"], row["raw_tolerance"]) == (False, None, None)
        else:
            with open(out_path, newline="") as fh:
                (row,) = list(csv.DictReader(fh))
            assert (row["passed"], row["raw_delta"], row["raw_tolerance"]) == ("false", "", "")
        assert float(row["max_delta"]) == 1e308
        assert row["sub_case"] == row["detail"] == "the check could not finish"

    def test_unknown_check_rejected(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "--check", "no-such-check"])
        assert code == 2

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_tolerance_scale_names_the_flag(self, capsys, value):
        code, out, err = run_cli(capsys, ["verify", "--tolerance-scale", value])
        assert (code, out) == (2, "")
        assert err == (
            f"error: --tolerance-scale must be finite and >= 0, got {float(value)}\n"
        )

    def test_csv_details_with_commas_keep_their_columns(self, capsys, tmp_path):
        # polydisk-limit's detail and sub_case read "D=3 level=(0, 1, 2)..."
        out_path = tmp_path / "verify.csv"
        argv = ["verify", "--check", "polydisk-limit", "--check",
                "alpha-coefficients", "--format", "csv", "--out", str(out_path)]
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        with open(out_path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert len(reader.fieldnames) == 8
        assert [list(row) for row in rows] == [reader.fieldnames] * 2
        assert rows[0]["sub_case"] == "D=3 level=(0, 1, 2)"


class TestParserBasics:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["constants", "--dimension", "2", "--level", "1,x"],
             "error: --level must be comma-separated integers, got '1,x'\n"),
            (["sweep", "--dimension", "1", "--r-grid", "1:2"],
             "error: --r-grid as a range must be 'lo:hi:count'\n"),
        ],
        ids=["level", "r-grid"],
    )
    def test_malformed_lists_exit_2(self, capsys, argv, message):
        assert run_cli(capsys, argv) == (2, "", message)

    def test_emitters_reject_other_types(self):
        with pytest.raises(TypeError, match=r"not a number: \(1\+2j\)"):
            cli._num(1 + 2j)
        with pytest.raises(TypeError, match="cannot serialize set"):
            cli.emit_json({"rows": [{1.5}]})

    def test_main_reuses_one_parser(self, capsys):
        parser = cli._parser()
        with pytest.raises(SystemExit):
            cli.main(["stats", "--radius", "1.0"])  # a usage error leaves nothing behind
        code, out, _ = run_cli(capsys, ["constants", "--dimension", "1"])
        assert code == 0 and json.loads(out)["rows"]
        assert cli._parser() is parser
        # build_parser stays public and builds a new tree on each call
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser().format_help() == parser.format_help()

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--dimension", "1", "--window", "ball"],
            ["constants", "--dimension", "1", "--tail-tol", "5"],
            ["kernel-eval", "--dimension", "1", "--x", "0,0", "--y", "0,0",
             "--tail-tol", "1e-3"],
        ],
        ids=["constants-window", "constants-tail-tol", "kernel-eval-tail-tol"],
    )
    def test_flags_the_command_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(argv)
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["closed", "integral", "spectrum", None])
    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "3"), ("--replicas", "40"), ("--cell-prob-floor", "0")],
    )
    def test_monte_carlo_flag_on_exact_route(self, capsys, route, flag, value):
        argv = ["stats", "--dimension", "1", "--window", "ball", "--radius", "2",
                flag, value]
        if route:
            argv += ["--route", route]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        route = route or "spectrum"
        assert err == f"error: --route {route} reads no {flag}\n"

    def test_monte_carlo_defaults(self, capsys):
        # an unset Monte Carlo flag takes its documented default on --route mc
        base = ["--dimension", "1", "--radius", "1.5", "--replicas", "300"]
        explicit = ["--seed", "0", "--cell-prob-floor", "1e-12"]
        _, implicit_out, _ = run_cli(capsys, ["mc", *base])
        _, explicit_out, _ = run_cli(capsys, ["mc", *base, *explicit])
        assert implicit_out == explicit_out
        doc = json.loads(implicit_out)
        assert doc["meta"]["seed"] == 0
        assert doc["meta"]["tolerances"] == {
            "tail_tol": 1e-9, "seed": 0, "replicas": 300, "cell_prob_floor": 1e-12,
        }

    @pytest.mark.parametrize("route", ["closed", "integral"])
    def test_tail_tol_on_a_ball_route(self, capsys, route):
        argv = ["stats", "--dimension", "1", "--window", "ball", "--radius", "2",
                "--route", route, "--tail-tol", "1e-3"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: --route {route} reads no --tail-tol\n"

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["stats", "--radius", "2", "--route", "integral", "--window", "ball"], {}),
            (["stats", "--radius", "2", "--route", "mc", "--replicas", "50",
              "--cell-prob-floor", "1e-3"],
             {"tail_tol": 1e-9, "seed": 0, "replicas": 50, "cell_prob_floor": 1e-3}),
            (["classify", "--r-grid", "2:20:12", "--route", "spectrum",
              "--tail-tol", "1e-3"], {"tail_tol": 1e-3, "fit_window": 0.5}),
        ],
    )
    def test_tolerances_are_the_settings_the_route_read(self, capsys, argv, want):
        code, out, _ = run_cli(capsys, [*argv, "--dimension", "1"])
        assert code == 0
        assert json.loads(out)["meta"]["tolerances"] == want

    @pytest.mark.parametrize(
        "flags",
        [["--dimension", "1"], ["--level", "0"], ["--r-grid", "1,2"],
         ["--window", "polydisk"], ["--tail-tol", "1e-9"], ["--route", "spectrum"],
         ["--seed", "0"], ["--replicas", "40"], ["--cell-prob-floor", "0"],
         ["--tail-tol", "-7", "--replicas", "-3", "--window", "ball",
          "--dimension", "3", "--level", "9,9,9"]],
        ids=lambda flags: "+".join(f for f in flags if f.startswith("--")),
    )
    def test_classify_in_takes_no_sweep_flag(self, capsys, tmp_path, flags):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep_document()))
        code, out, err = run_cli(capsys, ["classify", "--in", str(path), *flags])
        assert (code, out) == (2, "")
        named = ", ".join(f for f in (
            "--dimension", "--level", "--r-grid", "--window", "--tail-tol",
            "--route", "--seed", "--replicas", "--cell-prob-floor") if f in flags)
        assert err == f"error: classify --in reads no {named}\n"


def _paths(node, prefix=()):
    """Every key or index path below node, parents before children."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=4),
    st.just([]),
    st.just({}),
)


@st.composite
def mutated_documents(draw):
    """A valid sweep document after a few drops, retypes, empties or shuffles."""
    doc = sweep_document()
    ops = st.sampled_from(["drop", "retype", "empty", "reorder"])
    for op in draw(st.lists(ops, max_size=4)):
        paths = list(_paths(doc))
        if op in ("drop", "retype") and paths:
            value = DROP if op == "drop" else draw(_JUNK)
            replace(doc, draw(st.sampled_from(paths)), value)
        elif isinstance(doc.get("rows"), list):
            doc["rows"] = [] if op == "empty" else draw(st.permutations(doc["rows"]))
    return doc


@settings(max_examples=50, deadline=None)
@given(doc=mutated_documents(), fmt=st.sampled_from(["json", "csv"]))
def test_classify_input_fuzz_ends_in_documented_exit(tmp_path_factory, doc, fmt):
    path = tmp_path_factory.mktemp("fuzz") / "sweep.json"
    path.write_text(json.dumps(doc))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(["classify", "--in", str(path), "--format", fmt])
    assert code in (0, 2)


# Values for the argv fuzz: valid ones, malformed ones and out-of-range
# ones.  Radii, grids and replica counts stay small so that every example
# is cheap; a radius of 1e4 reaches the work budget and ~41k panels
# of the integral route, 1e-30 an unreachable tail target.
_FLAG_VALUES = {
    "--dimension": ["1", "2", "3", "0", "-1", "x", ""],
    "--level": ["0", "1", "2,0", "0,1,2", "17", "-1", "1.5", "a,b", ""],
    "--window": ["ball", "polydisk", "disk"],
    "--tail-tol": ["1e-9", "1e-3", "1e-30", "0", "-1", "nan", "x"],
    "--format": ["json", "csv", "xml"],
    "--radius": ["0.5", "2.5", "1e4", "0", "-1", "nan", "inf", "x"],
    "--r-grid": ["0.5:2.5:6", "0.5,1,2", "1:2", "2:1:4", "1:2:1", "1:2:x",
                 "1,nan", "a", ""],
    "--route": ["closed", "integral", "spectrum", "mc", "x"],
    "--seed": ["0", "7", "-1", "x"],
    "--replicas": ["40", "1", "0", "-5", "x"],
    "--cell-prob-floor": ["1e-12", "0", "0.5", "-1", "nan", "x"],
    "--fit-window": ["0.5", "0", "1", "2", "nan", "x"],
    "--x": ["0,0", "0.3,-0.2", "1,1;0,0", "1", "a,b", "nan,0", "1e300,0"],
    "--y": ["0,0", "-0.5,0.1", "0,0;1,1", "inf,0"],
    "--check": ["alpha-coefficients", "kernel-series-identity", "nope"],
    "--tolerance-scale": ["1", "0", "-1", "nan", "x"],
    "--bogus": ["1"],
    "--help": [],
}
_COMMON = ["--dimension", "--level", "--tail-tol", "--format"]
_MC = ["--route", "--seed", "--replicas", "--cell-prob-floor"]
# Each command starts from a valid argv; the fuzz appends flags to it, and
# a repeated flag overrides the earlier value.  The verify check and the
# radius grid are always given, and the replica count whenever the last
# route drawn is mc (exact routes reject it), so no example falls back on
# an expensive default (100k replicas, the full verify suite, the
# 16-radius grid up to R = 50).
_COMMANDS = {
    "kernel-eval": (["--dimension", "1", "--x", "0.3,-0.2", "--y", "0,0"],
                    _COMMON + ["--x", "--y"]),
    "stats": (["--dimension", "1", "--radius", "2.5"],
              _COMMON + ["--window", "--radius"] + _MC),
    "sweep": (["--dimension", "1", "--r-grid", "0.5:2.5:6"],
              _COMMON + ["--window", "--r-grid"] + _MC),
    "classify": (["--dimension", "1", "--r-grid", "0.5:2.5:6"],
                 _COMMON + ["--window", "--r-grid", "--fit-window", "--in"] + _MC),
    "mc": (["--dimension", "1", "--radius", "2.5", "--replicas", "40"],
           _COMMON + ["--window", "--radius", "--seed", "--replicas",
                      "--cell-prob-floor"]),
    "constants": (["--dimension", "1"], _COMMON + ["--window"]),
    "verify": (["--check", "alpha-coefficients"],
               ["--check", "--tolerance-scale", "--format"]),
}


@st.composite
def fuzzed_argv(draw, missing_path):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv, flags = _COMMANDS[command]
    argv = [command, *argv]
    route = None
    for flag in draw(st.lists(st.sampled_from([*flags, "--bogus", "--help"]),
                              max_size=4)):
        values = [missing_path, ""] if flag == "--in" else _FLAG_VALUES[flag]
        value = draw(st.sampled_from(values)) if values else None
        argv += [flag, value] if values else [flag]
        route = value if flag == "--route" else route
    if route == "mc" and "--replicas" not in argv:
        argv += ["--replicas", "40"]
    return argv


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_argv_fuzz_ends_in_documented_exit(tmp_path_factory, data):
    missing = str(tmp_path_factory.getbasetemp() / "absent" / "sweep.json")
    argv = data.draw(fuzzed_argv(missing))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors exit 2, --help 0
            code = exc.code
    # every documented exit code: 1 is a failed verify check (a tolerance
    # scale of 0), 3 a numerical budget (radius 1e4, tail target 1e-30)
    assert code in (0, 1, 2, 3, 4), (argv, code)


def test_runtime_does_not_load_mpmath():
    # numpy is the one runtime dependency; mpmath is a test oracle only
    script = """
import contextlib, io, sys
from heisenberg_dpp import cli
calls = [
    ["stats", "--dimension", "2", "--level", "1,3", "--radius", "2.5"],
    ["mc", "--dimension", "1", "--radius", "2", "--replicas", "20"],
    ["verify", "--check", "spectrum-route-equivalence"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in calls]
assert codes == [0, 0, 0], codes
assert "mpmath" not in sys.modules
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
