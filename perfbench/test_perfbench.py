"""Tests of the benchmark itself: its checks and its trace counters.

They run the real CLI on shrunken copies of the workloads, so they take
seconds, not the minutes of a benchmark run:

    python3 -m pytest perfbench/test_perfbench.py
"""

import dataclasses
import json
import os

import pytest

import checks
import run
import tracer
import workloads


def _with_flag(argv, flag, value):
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    return tuple(argv)


def shrink(name, seed=3):
    """The workload at a size that runs in well under a second or two."""
    w = workloads.make(name, seed)
    if name == "bsc-curve":
        argv = _with_flag(w.argv, "--n", "200:400:200")
        expected = tuple((b, n, None) for b in ("thm1", "ee", "thm2p1")
                         for n in (200, 400))
    elif name == "sim":
        return dataclasses.replace(w, argv=_with_flag(w.argv, "--trials", "2000"),
                                   items_per_run=2000)
    else:
        n, keep = (200, 11) if name == "lattice-curve" else (1000, 2)
        bounds = w.argv[w.argv.index("--bounds") + 1].split(",")
        rates = [r for _, _, r in w.expected[:keep]]
        argv = _with_flag(w.argv, "--n", str(n))
        argv = _with_flag(argv, "--rates", ",".join(f"{r:.6f}" for r in rates))
        expected = tuple((b, n, r) for b in bounds for r in rates)
    return dataclasses.replace(w, argv=argv, expected=expected,
                               items_per_run=len(expected))


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def invoke(w, tmp_path):
    return run.spawn(["-m", "fbl.cli", *w.argv], run.child_env(threads=1),
                     str(tmp_path))


def replace_field(text, row, field, fn):
    """CSV text with one field of one data row (0-based) replaced by fn(old)."""
    lines = text.rstrip("\n").split("\n")
    col = lines[0].split(",").index(field)
    cells = lines[row + 1].split(",")
    cells[col] = fn(cells[col])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def scaled(factor):
    return lambda cell: format(float(cell) * factor, ".12g")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("out")
    out = {}
    for name in workloads.WORKLOADS:
        w = shrink(name)
        out[name] = (w, invoke(w, tmp))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_program_output_passes(outputs, name):
    w, inv = outputs[name]
    rep = checks.check(w, inv.code, inv.stdout)
    assert rep.failures == {}
    assert rep.attempted == len(w.expected)


@pytest.mark.parametrize("name, row, field, fn", [
    ("bsc-curve", 0, "error_ub", scaled(1.0 + 1e-6)),     # thm1 off its sum
    ("bsc-curve", 3, "error_ub", lambda c: "0.0011"),     # ee row above eps
    ("lattice-curve", 11, "error_ub", scaled(1.0 + 1e-6)),  # zform off its sum
    ("lattice-curve", 4, "error_ub", scaled(1.01)),       # thm3 above tail+union
    ("lattice-curve", 2, "theorem", lambda c: "thm4p1"),  # wrong row
    ("tilt-curve", 4, "error_ub", scaled(0.4)),         # thm1 below tail+union
    ("tilt-curve", 4, "error_ub", scaled(10.0)),        # thm1 above Chernoff+union
    ("tilt-curve", 1, "error_ub", lambda c: "nan"),
    ("tilt-curve", 0, "error_ub", lambda c: "1.5"),
    ("sim", 0, "ci_high", lambda c: "0.1"),              # rate outside its interval
])
def test_corrupted_row_fails(outputs, name, row, field, fn):
    w, inv = outputs[name]
    rep = checks.check(w, 0, replace_field(inv.stdout, row, field, fn))
    assert list(rep.failures) == [row]
    assert rep.failed == 1


def test_simulated_rate_above_the_bound_fails(outputs):
    w, inv = outputs["sim"]
    text = replace_field(inv.stdout, 0, "error_ub", lambda c: "0.5")
    text = replace_field(text, 0, "ci_low", lambda c: "0.45")
    text = replace_field(text, 0, "ci_high", lambda c: "0.55")
    assert "tail+union" in checks.check(w, 0, text).failures[0]


@pytest.mark.parametrize("name, row", [("lattice-curve", 6), ("tilt-curve", 1)])
def test_decrease_along_the_rate_fails(outputs, name, row):
    w, inv = outputs[name]
    _, rows = checks.parse(inv.stdout)
    smaller = format(float(rows[row - 1]["error_ub"]) * 0.5, ".12g")
    rep = checks.check(w, 0, replace_field(inv.stdout, row, "error_ub",
                                           lambda c: smaller))
    assert row in rep.failures


def test_whole_run_failures_fail_every_row(outputs):
    w, inv = outputs["lattice-curve"]
    assert checks.check(w, 3, "").failed == len(w.expected)
    bad_header = inv.stdout.replace("lambda_or_c", "lambda", 1)
    assert checks.check(w, 0, bad_header).failed == len(w.expected)
    missing = "\n".join(inv.stdout.split("\n")[:-2]) + "\n"
    rep = checks.check(w, 0, missing)
    assert list(rep.failures) == [len(w.expected) - 1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trace_counters_repeat_exactly(tmp_path, name):
    w = shrink(name)
    env = run.child_env(threads=1)
    metrics = []
    for i in range(2):
        spans = os.path.join(tmp_path, f"spans-{i}.npz")
        inv = run.spawn([os.path.join(run.HERE, "tracer.py"), spans, str(i),
                         "--", *w.argv], env, str(tmp_path))
        assert inv.code == 0, inv.stderr
        assert checks.check(w, inv.code, inv.stdout).failures == {}
        metrics.append(tracer.layer_metrics(spans))
    assert set(metrics[0]) == set(tracer.UNITS) - {"trace_overhead_frac"}
    for key in tracer.EXACT:
        assert metrics[0][key] == metrics[1][key], key
    assert metrics[0]["cli.main.self_s"] > 0
