"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 0|1] [--out FILE.json]

For every workload in BENCHMARK.json and every seed it runs run.py once,
for the run_seconds that BENCHMARK.json gives, then reports per
metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (interquartile distance over the median), with the bound from
BENCHMARK.json. The JSON written with --out is the form of
perfbench/baseline.json, the figures a later change compares against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "runs": len(values)}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    specs = {m["name"]: m for m in bench["end_to_end" if args.trace == 0 else "per_layer"]}
    report = {"host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine()},
              "seeds": seeds(args.seeds), "seconds": bench["run_seconds"],
              "trace": args.trace, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        values, runs = {}, []
        for seed in report["seeds"]:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(report["seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"seed": seed, "exit": proc.returncode,
                         "seconds": round(time.perf_counter() - t0, 1),
                         "correct": bool(result and result["correct"]),
                         "attempted": result and result["attempted"],
                         "failed": result and result["failed"],
                         "metrics": {k: e["value"] for k, e in
                                     (result["metrics"] if result else {}).items()}})
            for metric, value in runs[-1]["metrics"].items():
                values.setdefault(metric, []).append(value)
            print(f"{name} seed {seed}: exit {proc.returncode}, correct "
                  f"{runs[-1]['correct']}, {runs[-1]['seconds']} s", file=sys.stderr,
                  flush=True)
        summary = {}
        for metric, vals in values.items():
            spec = specs[metric]
            summary[metric] = {"unit": spec["unit"], "better": spec["better"],
                               **summarise(vals)}
            bound = spec.get("bound")
            if bound is not None:
                summary[metric]["bound"] = bound
            print(f"{name:14s} {metric:40s} median {summary[metric]['median']:<12.6g}"
                  f" spread {summary[metric]['spread']:.4f}"
                  + (f" bound {bound}" if bound is not None else ""))
        report["workloads"][name] = {"runs": runs, "metrics": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    ok = all(r["correct"] for w in report["workloads"].values() for r in w["runs"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
