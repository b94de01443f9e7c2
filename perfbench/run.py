"""Benchmark of the fbl CLI: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation of the workload is a fresh `python3 -m fbl.cli` process
built from this checkout's `src/`. It is a closed loop with one client:
the next invocation starts when the previous one exits, until S seconds
have passed. Every invocation's CSV is checked (see checks.py).

--trace 0 prints the end-to-end metrics, medians over the invocations:
setup_s (user + system CPU of a fresh interpreter importing fbl.cli,
median of several; CPU rather than wall time, because on a shared host
the wall time of so short a child spreads the more), wall_s, cpu_s
(user + system of the child), peak_rss_mb, items_per_s
(CSV rows per second; simulated trials per second on sim), ok_frac
(rows present and passing every check over rows attempted), and two
quality guards that are deterministic for a seed: error_nlog10_mean
(mean -log10 error_ub over the rows; higher is tighter) and
rate_frac_mean (mean rate_bits over the channel's capacity; on
bsc-curve this is the certified rate). FBL_THREADS is left unset so
the program's default pool is measured; the effective thread count is
printed with the seed and the generated argv.

Every metric is printed on every workload, but the quality guards
guard only where the program chooses the value: error_nlog10_mean on
lattice-curve and tilt-curve (the bound at a given rate), and
rate_frac_mean on bsc-curve (the rate at a given eps). The other pairs
are inert and are no evidence of quality: rate_frac_mean is fixed by
the benchmark's own rate grid on lattice-curve and tilt-curve and by
k/n on sim; error_nlog10_mean is pinned at -log10(eps) = 3 on
bsc-curve, and on sim it is the simulated error rate, not a bound.

--trace 1 alternates untraced and traced invocations (tracer.py), both
with FBL_THREADS=1: the program's shared caches fill in an order set by
thread scheduling, so counts under the pool would not repeat. It
prints the per-layer metrics, times as medians over the traced
invocations, and trace_overhead_frac (traced against untraced wall
time for the same argv). Every count must repeat exactly across the
traced invocations, or the run is not correct.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 when the
run completed, whether or not every check passed, and 2 when the
program's sources are not there.
"""

import argparse
import json
import math
import os
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import workloads

# checks and tracer import numpy and scipy. They are imported only after
# the timed children have run: Linux carries the spawning process's peak
# RSS into the child across exec, so a heavy parent would set every
# child's peak_rss_mb.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 11
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "ok_frac": "ratio",
    "error_nlog10_mean": "decades",
    "rate_frac_mean": "ratio",
}


@dataclass(frozen=True)
class Invocation:
    """One child process: its cost as the kernel reports it, and its output."""
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env(threads=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("FBL_THREADS", None)
    if threads is not None:
        env["FBL_THREADS"] = str(threads)
    return env


def spawn(args, env, tmp):
    """Run python3 with args to completion; time it from spawn to exit."""
    out_path = os.path.join(tmp, "stdout")
    err_path = os.path.join(tmp, "stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Invocation(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0,
                      os.waitstatus_to_exitcode(status), stdout, stderr)


def describe(w, env, tmp):
    """Print the seed, the generated argv and the program's thread count."""
    probe = ("import fbl.cli as c; "
             "print(c._threads() if hasattr(c, '_threads') else 1)")
    inv = spawn(["-c", probe], env, tmp)
    print(json.dumps({
        "workload": w.name, "seed": w.seed, "argv": list(w.argv),
        "FBL_THREADS": env.get("FBL_THREADS"),
        "effective_threads": int(inv.stdout) if inv.code == 0 else None,
        "nproc": os.cpu_count()}))


class Checked:
    """Checks each distinct output once; identical bytes share the verdict."""

    def __init__(self, workload, invocations=()):
        self.workload = workload
        self.verdicts = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        for inv in invocations:
            self.add(inv)

    def add(self, inv):
        import checks
        key = (inv.code, inv.stdout)
        rep = self.verdicts.get(key)
        if rep is None:
            rep = self.verdicts[key] = checks.check(self.workload, inv.code,
                                                    inv.stdout)
            if rep.failures:
                detail = inv.stderr.strip().splitlines()[-1:] if inv.code else []
                self.reasons.append((sorted(rep.failures.items())[:3], detail))
        self.attempted += rep.attempted
        self.failed += rep.failed


def quality(workload, stdout):
    """(mean -log10 error_ub, mean rate over capacity) of one CSV; 0 if no rows."""
    import checks
    pairs = []
    for row in checks.parse(stdout)[1]:
        try:
            err, rate = float(row["error_ub"]), float(row["rate_bits"])
        except (KeyError, ValueError):
            continue
        if math.isfinite(err) and math.isfinite(rate):
            pairs.append((-math.log10(max(err, 1e-320)), rate))
    if not pairs:
        return 0.0, 0.0
    return (statistics.fmean(e for e, _ in pairs),
            statistics.fmean(r for _, r in pairs) / workload.capacity_bits)


def end_to_end(w, seconds, tmp):
    env = child_env()
    describe(w, env, tmp)
    setup = [spawn(["-c", "import fbl.cli"], env, tmp) for _ in range(SETUP_REPEATS)]
    runs = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        runs.append(spawn(["-m", "fbl.cli", *w.argv], env, tmp))
    checked = Checked(w, runs)
    wall = statistics.median(r.wall for r in runs)
    nlog10, rate_frac = quality(w, runs[0].stdout)
    metrics = {
        "setup_s": statistics.median(s.cpu for s in setup),
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "items_per_s": w.items_per_run / wall,
        "ok_frac": (checked.attempted - checked.failed) / checked.attempted,
        "error_nlog10_mean": nlog10,
        "rate_frac_mean": rate_frac,
    }
    correct = all(s.code == 0 for s in setup) and checked.failed == 0
    return correct, checked, len(runs), metrics, E2E_UNITS


def traced(w, seconds, tmp):
    import tracer
    env = child_env(threads=1)
    describe(w, env, tmp)
    checked = Checked(w)
    plain, layers = [], []
    deadline = time.perf_counter() + seconds
    # traced, untraced, traced, then alternate while time remains
    while len(layers) < 2 or not plain or time.perf_counter() < deadline:
        if len(plain) < len(layers):
            inv = spawn(["-m", "fbl.cli", *w.argv], env, tmp)
            plain.append(inv.wall)
        else:
            spans = os.path.join(tmp, f"spans-{len(layers)}.npz")
            inv = spawn([os.path.join(HERE, "tracer.py"), spans,
                         f"{w.name}:{w.seed}:{len(layers)}", "--", *w.argv],
                        env, tmp)
            layers.append((inv.wall, tracer.layer_metrics(spans)
                           if inv.code == 0 else None))
        checked.add(inv)
    traced_ok = [m for _, m in layers if m is not None]
    repeat = bool(traced_ok) and all(
        m[k] == traced_ok[0][k] for m in traced_ok for k in tracer.EXACT)
    if not repeat:
        checked.reasons.append(("counters differ between traced runs", []))
    metrics = {}
    for name, unit in tracer.UNITS.items():
        if name == "trace_overhead_frac":
            continue
        vals = [m[name] for m in traced_ok] or [0.0]
        metrics[name] = vals[0] if unit in ("count", "ratio") \
            else statistics.median(vals)
    plain_wall = statistics.median(plain)
    metrics["trace_overhead_frac"] = (
        statistics.median(t for t, _ in layers) - plain_wall) / plain_wall
    correct = checked.failed == 0 and repeat and len(traced_ok) == len(layers)
    return correct, checked, len(layers), metrics, tracer.UNITS


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fbl", "cli.py")):
        print(f"error: no fbl sources under {SRC}", file=sys.stderr)
        return 2
    w = workloads.make(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp:
        run = traced if args.trace else end_to_end
        correct, checked, count, metrics, units = run(w, args.seconds, tmp)
    for reason in checked.reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{w.name:14s} {name:40s} {value:14.6g} {units[name]:8s} (n={count})")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
