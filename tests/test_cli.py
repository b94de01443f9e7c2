import json
import math
import subprocess
import sys

import pytest

import closed_forms
from fbl import achievability as ach
from fbl import channel as chn
from fbl import cli

LN2 = math.log(2.0)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "fbl.cli", *args], capture_output=True, text=True)


def parse_csv(text):
    lines = [ln for ln in text.strip().split("\n") if ln]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestParsing:
    def test_channel_shorthands(self):
        assert chn.as_bsc(cli.parse_channel("bsc:0.11")) == pytest.approx(0.11)
        assert chn.as_bec(cli.parse_channel("bec:0.5")) == pytest.approx(0.5)
        assert chn.as_zchannel(cli.parse_channel("z:0.9")) == pytest.approx(0.9)
        ch = cli.parse_channel("biawgn:3")
        assert ch.snr == pytest.approx(10 ** 0.3)

    def test_bad_channel(self):
        with pytest.raises(cli.UsageError):
            cli.parse_channel("laplace:1")

    def test_channel_file(self, tmp_path):
        path = tmp_path / "ch.txt"
        path.write_text("discrete 2 3\n0.7 0.3 0\n0 0.3 0.7\n")
        ch = cli.parse_channel(f"file:{path}")
        assert chn.as_bec(ch) == pytest.approx(0.3)
        path2 = tmp_path / "awgn.txt"
        path2.write_text("biawgn 0\n")
        assert cli.parse_channel(f"file:{path2}").snr == pytest.approx(1.0)

    def test_type_parsing_exact(self):
        t = cli.parse_type("1/3,2/3")
        assert t.counts(9) == [3, 6]
        t = cli.parse_type("0.5,0.5")
        assert t.counts(4) == [2, 2]

    def test_grids(self):
        assert cli.parse_grid("200:600:200") == [200, 400, 600]
        assert cli.parse_grid("5,7") == [5, 7]
        assert cli.parse_grid("0.1:0.3:0.1", cli.finite) == pytest.approx([0.1, 0.2, 0.3])


class TestExitCodes:
    def test_success(self):
        r = run_cli(["bound", "--channel", "bsc:0.11", "--n", "100",
                     "--theorem", "thm1", "--k", "30"])
        assert r.returncode == 0

    def test_bad_spec_is_2_with_one_line(self):
        r = run_cli(["bound", "--channel", "nope:1", "--n", "100",
                     "--theorem", "thm1", "--k", "30"])
        assert r.returncode == 2
        assert len(r.stderr.strip().splitlines()) == 1

    def test_infeasible_is_3(self):
        r = run_cli(["bound", "--channel", "biawgn:0", "--n", "1000",
                     "--theorem", "thm2p1", "--rate-rel-capacity", "1.2"])
        assert r.returncode == 3

    def test_missing_rate_is_2(self):
        r = run_cli(["bound", "--channel", "bsc:0.11", "--n", "100",
                     "--theorem", "thm1"])
        assert r.returncode == 2

    @pytest.mark.parametrize("theorem, channel", [
        ("bscform", "bsc:0.11"), ("becform", "bec:0.5"), ("zform", "z:0.5"),
        ("thm1", "bsc:0.11")])
    def test_negative_rate_is_2_with_one_line(self, theorem, channel, capsys):
        code = cli.main(["bound", "--channel", channel, "--type", "0.5,0.5", "--n", "100",
                         "--theorem", theorem, "--rate-nats", "-0.1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: rate must be finite and positive, got -0.1"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["bound", "--theorem", "thm1", "--k", "30", "--delta"],
        ["bound", "--theorem", "thm2p2", "--c"],
        ["bound", "--theorem", "thm1", "--rate-bits"],
        ["bound", "--theorem", "thm1", "--rate-nats"],
        ["bound", "--theorem", "thm1", "--rate-rel-capacity"],
        ["compare", "--bounds", "thm1", "--n", "100", "--eps"],
        ["error-vs-rate", "--bounds", "thm1", "--rates", "0.2", "--delta"],
        ["error-vs-rate", "--bounds", "thm2p2", "--rates", "0.2", "--c"],
        ["error-vs-rate", "--bounds", "thm1", "--rates"],
        ["nep", "--delta"],
        ["simulate", "--ensemble", "gallager", "--k", "3", "--delta"],
    ], ids=lambda argv: f"{argv[0]}{argv[-1]}")
    def test_non_finite_float_is_2_with_one_line(self, argv, value, capsys):
        extra = [] if "--n" in argv else ["--n", "100"]
        code = cli.main([*argv, value, "--channel", "bsc:0.11", *extra])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and value in err


    @pytest.mark.parametrize("argv, flag", [
        (argv, flag) for argv in (
            ["bound", "--theorem", "thm1", "--n", "100", "--k", "30"],
            ["compare", "--bounds", "thm1", "--n", "100", "--eps", "1e-3"],
            ["rate-vs-n", "--bounds", "thm1", "--n", "100", "--eps", "1e-3"],
            ["error-vs-rate", "--bounds", "thm1", "--n", "100", "--rates", "0.2"],
            ["nep", "--n", "100", "--delta", "0.05"],
            ["simulate", "--ensemble", "gallager", "--n", "12", "--k", "3"])
        for flag in ("--mc-samples", "--seed") if (argv[0], flag) != ("simulate", "--seed")
    ], ids=lambda x: x[0] if isinstance(x, list) else x)
    def test_sampling_flags_only_on_simulate(self, argv, flag, capsys):
        code = cli.main([*argv, "--channel", "bsc:0.11", flag, "1000"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and flag in err


class TestBoundCommand:
    def test_above_capacity_anchor(self):
        r = run_cli(["bound", "--channel", "bsc:0.12", "--n", "1000",
                     "--theorem", "thm2p2", "--rate-rel-capacity", "1.0021"])
        header, rows = parse_csv(r.stdout)
        assert header == cli.BOUND_HEADER
        err = float(rows[0]["error_ub"])
        assert 0.60 <= err <= 0.70

    def test_row_matches_library_call(self):
        r = run_cli(["bound", "--channel", "bsc:0.11", "--n", "500",
                     "--theorem", "thm1", "--k", "200"])
        _, rows = parse_csv(r.stdout)
        res = ach.thm1_optimized(chn.bsc(0.11), ach.CodeParams(500, k=200))
        assert float(rows[0]["error_ub"]) == pytest.approx(res.error_ub, rel=1e-10)

    def test_dt_variant_flag(self):
        r = run_cli(["bound", "--channel", "bsc:0.11", "--n", "100",
                     "--theorem", "bscform", "--k", "50", "--dt-variant"])
        _, rows = parse_csv(r.stdout)
        expect = closed_forms.bsc_closed_form(0.11, 100, 2 ** 50, dt_variant=True)
        assert float(rows[0]["error_ub"]) == pytest.approx(expect, rel=1e-10)

    def test_input_outside_the_type_with_its_own_output(self, tmp_path):
        # input 2 is unused by the type and alone reaches output 2
        path = tmp_path / "ch.txt"
        path.write_text("discrete 3 3\n.9 .1 0\n.1 .9 0\n0 .5 .5\n")
        r = run_cli(["bound", "--channel", f"file:{path}", "--type", "1/2,1/2,0",
                     "--n", "200", "--theorem", "thm4p1", "--rate-nats", "0.1"])
        assert r.returncode == 0, r.stderr
        _, rows = parse_csv(r.stdout)
        assert float(rows[0]["error_ub"]) == pytest.approx(1.44522808061e-4, rel=1e-11)


class TestNepCommand:
    def test_exact_inside_sandwich(self):
        r = run_cli(["nep", "--channel", "bec:0.5", "--n", "500",
                     "--delta", "0.04"])
        header, rows = parse_csv(r.stdout)
        assert header == cli.NEP_HEADER
        row = rows[0]
        assert float(row["lower"]) <= float(row["exact"]) <= float(row["upper"])
        assert row["exact_kind"] == "exact"

    def test_delta_grid(self):
        r = run_cli(["nep", "--channel", "bsc:0.11", "--n", "200",
                     "--delta", "0.02:0.06:0.02"])
        _, rows = parse_csv(r.stdout)
        assert len(rows) == 3

    def test_out_of_reach_deviation_flags_its_row(self):
        base = ["nep", "--channel", "bsc:0.11", "--n", "200", "--delta"]
        r = run_cli(base + ["0.5:2.0:0.5"])
        assert r.returncode == 3
        err = r.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("infeasible: delta=2.0 at n=200")
        lines = r.stdout.splitlines()
        assert lines[4:] == ["200,2,cond,,,,,,,,,,infeasible"]
        reachable = run_cli(base + ["0.5:1.5:0.5"])
        assert reachable.returncode == 0
        assert lines[:4] == reachable.stdout.splitlines()


class TestCurveCommands:
    def test_compare_ordering_columns(self):
        r = run_cli(["compare", "--channel", "bsc:0.11", "--eps", "1e-3",
                     "--n", "600:1000:200", "--bounds", "thm1,ee"])
        header, rows = parse_csv(r.stdout)
        assert header == cli.BOUND_HEADER
        assert len(rows) == 6
        by = {(row["theorem"], row["n"]): float(row["rate_bits"]) for row in rows}
        for n in ("600", "800", "1000"):
            assert by[("thm1", n)] >= by[("ee", n)]

    def test_rows_rederivable_by_bound(self):
        r = run_cli(["compare", "--channel", "bsc:0.11", "--eps", "1e-2",
                     "--n", "400:400:100", "--bounds", "thm1"])
        _, rows = parse_csv(r.stdout)
        row = rows[0]
        r2 = run_cli(["bound", "--channel", "bsc:0.11", "--n", row["n"],
                      "--theorem", "thm1", "--rate-nats", row["rate_nats"]])
        _, rows2 = parse_csv(r2.stdout)
        assert float(rows2[0]["error_ub"]) == pytest.approx(
            float(row["error_ub"]), rel=1e-6)

    def test_error_vs_rate(self):
        r = run_cli(["error-vs-rate", "--channel", "bsc:0.11", "--n", "500",
                     "--rates", "0.2:0.4:0.1", "--bounds", "thm1,ee"])
        _, rows = parse_csv(r.stdout)
        assert len(rows) == 6
        errs = [float(row["error_ub"]) for row in rows if row["theorem"] == "thm1"]
        assert errs[0] < errs[1] < errs[2]

    def test_infeasible_point_keeps_the_other_rows(self):
        base = ["error-vs-rate", "--channel", "z:0.5", "--type", "0.5,0.5",
                "--n", "500"]
        r = run_cli(base + ["--rates", "0.1:0.3:0.05",
                            "--bounds", "thm4p1,thm4p2,thm3"])
        assert r.returncode == 3
        err = r.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("infeasible: thm4p1")
        lines = r.stdout.splitlines()
        assert len(lines) == 16
        flagged = [ln for ln in lines if ln.endswith(",infeasible")]
        assert flagged == ["500,0.3,0.207944154168,,,,thm4p1,,,infeasible"]
        # every feasible row is byte for byte what runs without that point give
        thm4p1 = run_cli(base + ["--rates", "0.1:0.25:0.05", "--bounds", "thm4p1"])
        rest = run_cli(base + ["--rates", "0.1:0.3:0.05", "--bounds", "thm4p2,thm3"])
        assert thm4p1.returncode == rest.returncode == 0
        feasible = [ln for ln in lines if ln not in flagged]
        assert feasible == (thm4p1.stdout.splitlines()
                            + rest.stdout.splitlines()[1:])

    def test_compare_flags_infeasible_rows_in_grid_order(self):
        r = run_cli(["compare", "--channel", "bsc:0.11", "--eps", "1e-3",
                     "--n", "200:600:200", "--bounds", "thm1,thm2p2"])
        assert r.returncode == 3
        assert len(r.stderr.splitlines()) == 3
        _, rows = parse_csv(r.stdout)
        assert [(row["theorem"], row["n"], row["tail_kind"]) for row in rows] == [
            ("thm1", "200", "exact"), ("thm1", "400", "exact"),
            ("thm1", "600", "exact"), ("thm2p2", "200", "infeasible"),
            ("thm2p2", "400", "infeasible"), ("thm2p2", "600", "infeasible")]
        assert all(row[col] == "" for row in rows[3:]
                   for col in ("rate_bits", "rate_nats", "error_ub", "delta"))

    def test_non_positive_rates_are_infeasible(self):
        for args, points in (
                (["bsc:0.11", "--eps", "1e-6", "--n", "30,60",
                  "--bounds", "thm2p1,thm4p1"],
                 [("thm2p1", "30"), ("thm2p1", "60"), ("thm4p1", "30"), ("thm4p1", "60")]),
                (["z:0.5", "--eps", "1e-4", "--n", "40", "--bounds", "thm4p1"],
                 [("thm4p1", "40")])):
            r = run_cli(["compare", "--type", "0.5,0.5", "--channel"] + args)
            assert r.returncode == 3
            assert len(r.stderr.splitlines()) == len(points)
            _, rows = parse_csv(r.stdout)
            assert [(row["theorem"], row["n"], row["tail_kind"], row["rate_nats"])
                    for row in rows] == [p + ("infeasible", "") for p in points]

    def test_rate_past_the_central_limit_peak_is_flagged(self):
        # the c solve has no root there; that is an infeasible point, not an error
        r = run_cli(["error-vs-rate", "--channel", "bsc:0.02", "--n", "20",
                     "--rates", "0.5,0.95", "--bounds", "thm2p2"])
        assert r.returncode == 3
        assert r.stderr.startswith("infeasible: thm2p2 at n=20")
        _, rows = parse_csv(r.stdout)
        assert [row["tail_kind"] for row in rows] == ["exact", "infeasible"]

    def test_exponent_rate_on_three_input_channel(self, tmp_path):
        path = tmp_path / "ch.txt"
        path.write_text("discrete 3 3\n0.8 0.1 0.1\n0.1 0.8 0.1\n0.1 0.1 0.8\n")
        r = run_cli(["compare", "--channel", f"file:{path}", "--type", "1/3,1/3,1/3",
                     "--eps", "1e-3", "--n", "200", "--bounds", "ee"])
        assert r.returncode == 0, r.stderr
        _, rows = parse_csv(r.stdout)
        t = cli.parse_type("1/3,1/3,1/3")
        mi = chn.mutual_info(cli.parse_channel(f"file:{path}"), t)
        assert 0 < float(rows[0]["rate_nats"]) < mi
        assert float(rows[0]["error_ub"]) <= 1e-3

    def test_z_channel_thm1_curve_is_exact(self, capsys):
        assert cli.main(["compare", "--channel", "z:0.5", "--eps", "1e-3",
                         "--n", "200:1000:200", "--bounds", "thm1"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert all(r["tail_kind"] == "exact" and float(r["error_ub"]) <= 1e-3 for r in rows)
        rates = [float(r["rate_nats"]) for r in rows]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert rates[0] == pytest.approx(0.1212, abs=5e-5)
        assert rates[-1] == pytest.approx(0.1757, abs=5e-5)

    def test_compare_bytes_repeat_across_runs(self):
        args = ["compare", "--channel", "bsc:0.11", "--eps", "1e-3",
                "--n", "200:600:200", "--bounds", "thm1,ee"]
        assert run_cli(args).stdout == run_cli(args).stdout


class TestCurveRequestChecks:
    """A curve request the theorem table cannot serve fails before any point."""

    @pytest.fixture
    def no_evaluation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a point was evaluated")
        monkeypatch.setattr(ach, "max_rate_at_eps", fail)
        monkeypatch.setattr(cli, "_eval_bound", fail)

    @pytest.mark.parametrize("argv, message", [
        (["error-vs-rate", "--channel", "bsc:0.11", "--n", "200",
          "--rates", "0.1,0.2", "--bounds", "thm1,thm3"],
         "error: bound thm3 needs --type"),
        (["compare", "--channel", "bsc:0.11", "--eps", "1e-3", "--n", "200:3000:200",
          "--bounds", "thm1,foo"],
         "error: bound 'foo' is not one of thm1,thm2p1,thm2p2,thm3,thm4p1,thm4p2,ee"),
        (["compare", "--channel", "bsc:0.11", "--eps", "1e-3", "--n", "200",
          "--bounds", "thm1,bscform"],
         "error: bound 'bscform' is not one of thm1,thm2p1,thm2p2,thm3,thm4p1,thm4p2,ee"),
        (["rate-vs-n", "--channel", "z:0.5", "--eps", "1e-3", "--n", "200",
          "--bounds", "thm4p2"],
         "error: bound thm4p2 needs --type"),
    ], ids=["missing-type", "unknown", "no-inversion", "rate-vs-n-missing-type"])
    def test_rejected_with_one_line_and_no_rows(self, no_evaluation, capsys,
                                                argv, message):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [message]


class TestSimulateCommand:
    def test_deterministic_csv(self):
        args = ["simulate", "--channel", "bsc:0.11", "--ensemble", "gallager",
                "--n", "12", "--k", "3", "--trials", "2000", "--seed", "17",
                "--delta", "0.18"]
        a = run_cli(args).stdout
        b = run_cli(args).stdout
        assert a == b
        _, rows = parse_csv(a)
        assert rows[0]["theorem"] == "sim-gallager"
        assert 0.0 <= float(rows[0]["error_ub"]) <= 1.0

    def test_bound_of_one_needs_a_given_delta(self, capsys):
        # thm3 is 1 at every threshold here, so its optimiser names no decoder
        argv = ["simulate", "--channel", "z:0.5", "--ensemble", "fixedtype",
                "--type", "0.5,0.5", "--n", "8", "--k", "2", "--trials", "1000"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("infeasible:") and "--delta" in err
        assert cli.main([*argv, "--delta", "1e-6"]) == 0


class TestJobFile:
    def test_argv_form(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"argv": [
            "bound", "--channel", "bsc:0.11", "--n", "100",
            "--theorem", "thm1", "--k", "30"]}))
        r = run_cli(["job", str(path)])
        assert r.returncode == 0
        assert "thm1" in r.stdout

    def test_mapping_form(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "command": "bound",
            "args": {"channel": "bsc:0.11", "n": 100, "theorem": "thm1",
                     "k": 30}}))
        r = run_cli(["job", str(path)])
        assert r.returncode == 0


class TestOutputFile:
    def test_write_to_path(self, tmp_path):
        out = tmp_path / "rows.csv"
        r = run_cli(["bound", "--channel", "bsc:0.11", "--n", "100",
                     "--theorem", "thm1", "--k", "30", "--output", str(out)])
        assert r.returncode == 0
        header, rows = parse_csv(out.read_text())
        assert header == cli.BOUND_HEADER and len(rows) == 1
