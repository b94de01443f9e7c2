"""Outside-in span trace of the fbl modules, and its per-layer metrics.

Run as a script, this executes one `fbl` CLI invocation with every
public function of each layer module wrapped (plus the few private
entry points a counter needs), keeps the spans in memory, and writes
them once at exit:

    python3 perfbench/tracer.py OUT.npz RUN_ID -- compare --channel ...

Nothing in the package is edited; the wrappers are installed by
rebinding module and class attributes, including the names other fbl
modules imported with `from ... import`. A span records its name,
start, end, parent span and thread; the run id is stored once per file
because every span of a file shares it. Times are thread-seconds.

`layer_metrics` turns the spans of one run into the per-layer metrics.
"""

import functools
import inspect
import json
import sys
import threading
import time
import weakref
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "achievability", "tail", "nep", "numkit", "channel",
          "montecarlo")

# Private callables wrapped because a counter is defined on them.
_PRIVATE = {"tail._power_log", "nep.TiltFamily.__init__"}
# Spans whose calls are counted as evaluations while another span is open.
_EVALS = {
    "nep.TiltFamily.tilted_stats": "nep.TiltFamily.solve_lambda",
    "achievability.thm1_bound": "achievability.thm1_optimized",
    "achievability.thm3_bound": "achievability.thm3_optimized",
}


def _channel_key(ch):
    m = getattr(ch, "matrix", None)
    if m is not None:
        return ("discrete", m.shape, m.tobytes())
    return (type(ch).__name__, getattr(ch, "snr", None))


def _type_key(t):
    return None if t is None else tuple(t.probs)


class Recorder:
    """Spans in flat arrays, plus exact counters kept at the boundaries."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.thread = array("i")
        self.nested = array("b")    # same name already open on this thread
        self.counters = Counter()
        self.keys = {"tail": set(), "tilted_stats": set()}
        self._family_keys = weakref.WeakKeyDictionary()
        self._threads = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                tid = self._threads.setdefault(threading.get_ident(),
                                               len(self._threads))
            st = self._local.state = ([], Counter(), tid)
        return st

    def _open(self, nid, name):
        stack, active, tid = self._state()
        with self._lock:
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.thread.append(tid)
            self.nested.append(1 if active[name] else 0)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(i)
        active[name] += 1
        return stack, active

    def wrap(self, name, fn, hook=None):
        """fn wrapped in a span; hook(arguments, result) adds counters."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        counted_inside = _EVALS.get(name)
        sig = inspect.signature(fn) if hook is not None else None
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, active = rec._open(nid, name)
            if counted_inside and active[counted_inside]:
                rec.counters[name + ".evals"] += 1
            i = stack[-1]
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end[i] = time.perf_counter()
                stack.pop()
                active[name] -= 1
            if hook is not None:
                hook(sig.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    # -- counter hooks: hook(arguments by name, result) ----------------------

    def _tail_hook(self, a, out):
        ch, t, n = a["ch"], a.get("t"), a["n"]
        self.keys["tail"].add((_channel_key(ch), _type_key(t), n))
        self.counters["tail.kind." + out.kind] += 1

    def _tilted_hook(self, a, out):
        fam = a["self"]
        key = self._family_keys.get(fam)
        if key is None:
            key = self._family_keys[fam] = (
                fam.family, _channel_key(fam.channel), _type_key(fam.t))
        self.keys["tilted_stats"].add((key, a["lam"]))

    def _power_log_hook(self, a, out):
        self.counters["tail.lattice_states"] += (a["logp"].size - 1) * a["n"] + 1

    def _simulate_hook(self, a, out):
        self.counters["montecarlo.trials"] += out.trials

    def _solve_monotone(self, fn):
        """solve_monotone with its objective counted per evaluation."""
        inner = self.wrap("numkit.solve_monotone", fn)
        rec = self

        @functools.wraps(fn)
        def counted(f, *args, **kwargs):
            def f_counted(x):
                rec.counters["numkit.solve_monotone.evals"] += 1
                return f(x)
            return inner(f_counted, *args, **kwargs)

        return counted

    def install(self):
        """Wrap every layer module; rebind the names fbl modules share."""
        import importlib
        mods = {m: importlib.import_module(f"fbl.{m}") for m in LAYERS}
        hooks = {
            "tail.pdelta": self._tail_hook,
            "tail.ptdelta": self._tail_hook,
            "tail._power_log": self._power_log_hook,
            "nep.TiltFamily.tilted_stats": self._tilted_hook,
            "montecarlo.simulate_pe": self._simulate_hook,
        }
        swaps = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and (
                        not attr.startswith("_") or name in _PRIVATE):
                    if name == "numkit.solve_monotone":
                        swaps[obj] = self._solve_monotone(obj)
                    else:
                        swaps[obj] = self.wrap(name, obj, hooks.get(name))
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    self._wrap_class(name, obj, hooks)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in swaps:
                    setattr(mod, attr, swaps[obj])

    def _wrap_class(self, name, cls, hooks):
        for attr, obj in list(vars(cls).items()):
            span = f"{name}.{attr}"
            if inspect.isfunction(obj) and (
                    not attr.startswith("_") or span in _PRIVATE):
                setattr(cls, attr, self.wrap(span, obj, hooks.get(span)))

    def dump(self, path, run_id):
        """Write spans and counters to an .npz file, once."""
        counters = dict(self.counters)
        for kind, keys in self.keys.items():
            counters[f"distinct.{kind}"] = len(keys)
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 thread=np.frombuffer(self.thread, dtype=np.int32),
                 nested=np.frombuffer(self.nested, dtype=np.int8),
                 run_id=np.array(run_id),
                 counters=np.array(json.dumps(counters, sort_keys=True)))


# ---------------------------------------------------------------------------
# per-layer metrics from one run's spans
# ---------------------------------------------------------------------------

# metric prefix -> span name, for spans reported by calls and time
_TIMED = {
    "tail.pdelta": "tail.pdelta",
    "tail.ptdelta": "tail.ptdelta",
    "tail.exact_tail_rows": "tail.exact_tail_rows",
    "tail.mc_tail_rows": "tail.mc_tail_rows",
    "nep.tilted_stats": "nep.TiltFamily.tilted_stats",
    "nep.solve_lambda": "nep.TiltFamily.solve_lambda",
    "nep.tail_bounds": "nep.tail_bounds",
    "numkit.solve_monotone": "numkit.solve_monotone",
    "numkit.composite_gauss_legendre": "numkit.composite_gauss_legendre",
    "achievability.thm1_optimized": "achievability.thm1_optimized",
    "achievability.thm3_optimized": "achievability.thm3_optimized",
    "achievability.thm1_bound": "achievability.thm1_bound",
    "achievability.thm3_bound": "achievability.thm3_bound",
    "achievability.max_rate_at_eps": "achievability.max_rate_at_eps",
    "achievability.error_exponent": "achievability.error_exponent",
    "channel.moment_summary": "channel.moment_summary",
    "montecarlo.sample_gallager": "montecarlo.sample_gallager",
    "montecarlo.jar_decode": "montecarlo.jar_decode",
}
# metric -> span name, for spans reported by calls only
_CALLS = {
    "nep.family_builds": "nep.TiltFamily.__init__",
    "nep.xi_factors.calls": "nep.xi_factors",
    "channel.posterior_atoms.calls": "channel.posterior_atoms",
}

# metric name -> unit; the order is the order of BENCHMARK.json
UNITS = {}
for _m in _TIMED:
    UNITS[_m + ".calls"] = "count"
    UNITS[_m + ".s"] = "s"
UNITS.update({m: "count" for m in _CALLS})
UNITS.update({
    "tail.kind.exact": "count",
    "tail.kind.mc": "count",
    "tail.kind.sandwich": "count",
    "tail.distinct_ratio": "ratio",
    "tail.lattice_states": "count",
    "nep.tilted_stats.distinct_ratio": "ratio",
    "nep.solve_lambda.evals_per_call": "ratio",
    "numkit.solve_monotone.evals": "count",
    "achievability.evals_per_opt": "ratio",
    "montecarlo.simulate_pe.s": "s",
    "montecarlo.trial_us": "us",
    "cli.main.self_s": "s",
})
for _layer in LAYERS[1:]:
    UNITS[f"{_layer}.self_s"] = "s"
UNITS["trace_overhead_frac"] = "ratio"

# Metrics that must repeat exactly between traced runs of one seed.
EXACT = tuple(m for m, u in UNITS.items() if u in ("count", "ratio")
              and m != "trace_overhead_frac")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(path):
    """Per-layer metrics (all of UNITS but trace_overhead_frac) of one run."""
    with np.load(path) as z:
        names = list(z["names"])
        nid, start, end = z["name_id"], z["start"], z["end"]
        parent, nested = z["parent"], z["nested"]
        counters = json.loads(str(z["counters"]))
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_time = dur - child
    calls = np.bincount(nid, minlength=len(names))
    outer = nested == 0   # recursion is timed once, at its outermost span
    total = np.bincount(nid[outer], weights=dur[outer], minlength=len(names))
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=int)
    layer_self = np.bincount(layer_of[nid], weights=self_time,
                             minlength=len(LAYERS))

    def n_calls(span):
        return int(calls[names.index(span)]) if span in names else 0

    def seconds(span):
        return float(total[names.index(span)]) if span in names else 0.0

    out = {}
    for metric, span in _TIMED.items():
        out[metric + ".calls"] = n_calls(span)
        out[metric + ".s"] = seconds(span)
    for metric, span in _CALLS.items():
        out[metric] = n_calls(span)
    tail_calls = out["tail.pdelta.calls"] + out["tail.ptdelta.calls"]
    for kind in ("exact", "mc", "sandwich"):
        out[f"tail.kind.{kind}"] = counters.get(f"tail.kind.{kind}", 0)
    out["tail.distinct_ratio"] = _ratio(counters.get("distinct.tail", 0), tail_calls)
    out["tail.lattice_states"] = counters.get("tail.lattice_states", 0)
    out["nep.tilted_stats.distinct_ratio"] = _ratio(
        counters.get("distinct.tilted_stats", 0), out["nep.tilted_stats.calls"])
    out["nep.solve_lambda.evals_per_call"] = _ratio(
        counters.get("nep.TiltFamily.tilted_stats.evals", 0),
        out["nep.solve_lambda.calls"])
    out["numkit.solve_monotone.evals"] = counters.get("numkit.solve_monotone.evals", 0)
    out["achievability.evals_per_opt"] = _ratio(
        counters.get("achievability.thm1_bound.evals", 0)
        + counters.get("achievability.thm3_bound.evals", 0),
        out["achievability.thm1_optimized.calls"]
        + out["achievability.thm3_optimized.calls"])
    out["montecarlo.simulate_pe.s"] = seconds("montecarlo.simulate_pe")
    out["montecarlo.trial_us"] = 1e6 * _ratio(
        out["montecarlo.simulate_pe.s"], counters.get("montecarlo.trials", 0))
    out["cli.main.self_s"] = float(layer_self[0])
    for i, layer in enumerate(LAYERS[1:], start=1):
        out[f"{layer}.self_s"] = float(layer_self[i])
    return out


def main(argv):
    out_path, run_id = argv[0], argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py OUT.npz RUN_ID -- FBL_ARGS...")
    rec = Recorder()
    rec.install()
    import fbl.cli
    try:
        code = fbl.cli.main(list(argv[3:]))
    finally:
        rec.dump(out_path, run_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
