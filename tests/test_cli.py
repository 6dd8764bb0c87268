"""Command-line interface: schema, formatting, exit codes, determinism."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heisenberg_dpp.analysis as analysis_mod
import heisenberg_dpp.montecarlo as mc_mod
from heisenberg_dpp import __version__, cli
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
