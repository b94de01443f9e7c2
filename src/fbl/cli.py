"""Command-line front end: bounds, curves, tail diagnostics and simulation.

Output is CSV only (UTF-8, comma separated, '.' decimal, header row
always present); plotting is left to external tools. Rates are accepted
in bits and reported in both bits and nats. Curve commands evaluate
their grid in order, one point after another. Only `simulate` samples.

Exit codes: 0 success, 2 malformed request (single-line diagnostic on
stderr), 3 infeasible bound request. A curve command (compare,
rate-vs-n, error-vs-rate, nep) still writes every row when some grid
points are infeasible: such a row keeps its inputs, leaves its computed
columns empty and is flagged infeasible, each one adds an 'infeasible:'
line on stderr, and the command exits 3.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from . import achievability as ach
from . import channel as chn
from . import montecarlo as mc
from . import nep, tail

LN2 = math.log(2.0)


class UsageError(ValueError):
    pass


def parse_channel(spec: str):
    """Channel shorthand: bsc:p, bec:p, z:p, biawgn:snr_db or file:<path>."""
    kind, _, arg = spec.partition(":")
    try:
        if kind == "bsc":
            return chn.bsc(float(arg))
        if kind == "bec":
            return chn.bec(float(arg))
        if kind == "z":
            return chn.zchannel(float(arg))
        if kind == "biawgn":
            return chn.BiAwgn(10.0 ** (float(arg) / 10.0))
        if kind == "file":
            return parse_channel_file(arg)
    except UsageError:
        raise
    except Exception as exc:
        raise UsageError(f"bad channel spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown channel kind {kind!r}")


def parse_channel_file(path: str):
    """Text format: 'discrete |X| |Y|' then |X| probability rows, or 'biawgn <snr_db>'."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise UsageError(f"empty channel file {path}")
    if tokens[0] == "biawgn":
        return chn.BiAwgn(10.0 ** (float(tokens[1]) / 10.0))
    if tokens[0] != "discrete":
        raise UsageError(f"channel file must start with 'discrete' or 'biawgn'")
    nx, ny = int(tokens[1]), int(tokens[2])
    vals = [float(v) for v in tokens[3:]]
    if len(vals) != nx * ny:
        raise UsageError(f"expected {nx * ny} matrix entries, got {len(vals)}")
    import numpy as np
    return chn.DiscreteChannel(np.array(vals).reshape(nx, ny))


def parse_type(spec: str) -> chn.InputType:
    """Comma-separated exact probabilities, e.g. '0.5,0.5' or '1/3,2/3'."""
    return chn.InputType(tuple(Fraction(tok) for tok in spec.split(",")))


def finite(text: str) -> float:
    """A float that is neither nan nor infinite (the type of every float flag)."""
    value = float(text)
    if not math.isfinite(value):
        raise UsageError(f"not a finite number: {text!r}")
    return value


def parse_grid(spec: str, kind=int):
    """Grid 'start:stop:step' (inclusive of stop when hit) or 'a,b,c' of
    kind: int, or finite for floats."""
    if ":" not in spec:
        return [kind(tok) for tok in spec.split(",")]
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:step, got {spec!r}")
    start, stop, step = (kind(p) for p in parts)
    if step <= 0 or stop < start:
        raise UsageError(f"bad grid {spec!r}")
    out, x = [], start
    while x <= stop + 1e-12:
        out.append(round(x, 12))
        x += step
    return out


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def write_csv(rows, header, path):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


BOUND_HEADER = ["n", "rate_bits", "rate_nats", "error_ub", "ci_low", "ci_high",
                "theorem", "delta", "lambda_or_c", "tail_kind"]

NEP_HEADER = ["n", "delta", "family", "exact", "lower", "upper", "chernoff",
              "clt_lower", "clt_upper", "clt_in_regime", "rate_fn", "lambda",
              "exact_kind"]


def _bound_row(res: ach.BoundResult):
    return [res.n, res.rate_bits, res.rate_nats, res.error_ub,
            "", "", res.theorem, res.delta, res.lambda_or_c,
            res.tail_kind]


def _write_curve(points, evaluate, flagged, header, output,
                 infeasible=ach.InfeasibleRateError) -> int:
    """Evaluate the points in order and write one row for each.

    A point whose evaluation raises `infeasible` gets the stderr label and
    the row (its inputs, then empty columns) of flagged(point); exit code 3.
    """
    rows, code = [], 0
    for point in points:
        try:
            rows.append(evaluate(*point))
        except infeasible as exc:
            label, row = flagged(*point)
            print(f"infeasible: {label}: {exc}", file=sys.stderr)
            rows.append(row)
            code = 3
    write_csv(rows, header, output)
    return code


def _flagged_bound(theorem, n, rate):
    return f"{theorem} at n={n}", [n, None if rate is None else rate / LN2, rate,
                                   "", "", "", theorem, "", "", "infeasible"]


def _resolve_rate(args, ch, t) -> float:
    """Requested rate in nats from whichever rate flag was given."""
    given = [name for name in ("k", "rate_bits", "rate_nats", "rate_rel_capacity")
             if getattr(args, name, None) is not None]
    if len(given) != 1:
        raise UsageError("give exactly one of --k/--rate-bits/--rate-nats/"
                         "--rate-rel-capacity")
    if args.k is not None:
        return args.k / args.n * LN2
    if args.rate_bits is not None:
        return args.rate_bits * LN2
    if args.rate_nats is not None:
        return args.rate_nats
    base = (chn.mutual_info(ch, t) if ach.THEOREMS[args.theorem].ensemble == "fixed"
            else chn.linear_capacity(ch))
    return args.rate_rel_capacity * base


def _eval_bound(ch, args, t, theorem, n, rate):
    return _bound_row(ach.bound_at_rate(
        theorem, ch, n, rate, t=t, k=getattr(args, "k", None), delta=args.delta, c=args.c,
        dt_variant=args.dt_variant, exact_tail=not args.analytic_tail))


def _bound_names(at_eps=False):
    """The --bounds choices: every table row, or those with a rate at --eps."""
    return [name for name, th in ach.THEOREMS.items()
            if th.at_eps is not None or not at_eps]


def _request(args, names, at_eps=False):
    """Channel and composition of a request, once every bound name in it is
    one the table can serve; checked before anything is evaluated."""
    ch = parse_channel(args.channel)
    t = parse_type(args.type) if args.type else None
    for name in names:
        if name not in _bound_names(at_eps):
            raise UsageError(f"bound {name!r} is not one of "
                             + ",".join(_bound_names(at_eps)))
        if ach.THEOREMS[name].ensemble == "fixed" and t is None:
            raise UsageError(f"bound {name} needs --type")
    return ch, t


def cmd_bound(args):
    ch, t = _request(args, [args.theorem])
    th = ach.THEOREMS[args.theorem]
    needs_rate = th.parameter is None or getattr(args, th.parameter) is None
    rate = _resolve_rate(args, ch, t) if needs_rate else None
    write_csv([_eval_bound(ch, args, t, args.theorem, args.n, rate)], BOUND_HEADER,
              args.output)
    return 0


def cmd_rate_vs_n(args):
    bounds = args.bounds.split(",")
    ch, t = _request(args, bounds, at_eps=True)
    grid = parse_grid(args.n)

    def evaluate(b, n, _):
        return _bound_row(ach.max_rate_at_eps(ch, n, args.eps, b, t=t))

    return _write_curve([(b, n, None) for b in bounds for n in grid],
                        evaluate, _flagged_bound, BOUND_HEADER, args.output)


def cmd_error_vs_rate(args):
    bounds = args.bounds.split(",")
    ch, t = _request(args, bounds)
    rates_bits = parse_grid(args.rates, finite)
    return _write_curve(
        [(b, args.n, rb * LN2) for b in bounds for rb in rates_bits],
        lambda b, n, rate: _eval_bound(ch, args, t, b, n, rate),
        _flagged_bound, BOUND_HEADER, args.output)


def cmd_nep(args):
    ch = parse_channel(args.channel)
    t = parse_type(args.type) if args.type else None
    if args.family == "rel" and t is None:
        raise UsageError("--family rel needs --type")
    fam = (nep.rel_entropy_family(ch, t) if args.family == "rel"
           else nep.cond_entropy_family(ch))
    deltas = parse_grid(args.delta, finite)

    def eval_point(d):
        sandwich = nep.tail_bounds(fam, d, args.n)
        clt = nep.tail_clt(fam, d, args.n)
        if isinstance(ch, chn.DiscreteChannel):
            exact = (tail.ptdelta(ch, t, d, args.n) if args.family == "rel"
                     else tail.pdelta(ch, d, args.n))
            exact_val, exact_kind = exact.value, exact.kind
        else:
            exact_val, exact_kind = "", "none"
        return [args.n, d, args.family, exact_val, sandwich.lower,
                sandwich.upper, math.exp(max(-700.0, -args.n * sandwich.flags["rate"])),
                clt.lower, clt.upper, clt.flags["in_regime"],
                sandwich.flags["rate"], sandwich.flags["lambda"], exact_kind]

    def flagged(d):
        return (f"delta={d} at n={args.n}",
                [args.n, d, args.family] + [""] * 9 + ["infeasible"])

    return _write_curve([(d,) for d in deltas], eval_point, flagged, NEP_HEADER,
                        args.output, infeasible=nep.TiltRangeError)


def cmd_simulate(args):
    ch = parse_channel(args.channel)
    rate = args.k / args.n * LN2
    if args.ensemble == "gallager":
        spec, theorem, t = mc.GallagerSpec(args.n, args.k), "thm1", None
    else:
        t = parse_type(args.type)
        spec, theorem = mc.FixedTypeSpec(args.n, args.k, t), "thm3"
    delta = args.delta
    if delta is None:
        res = ach.bound_at_rate(theorem, ch, args.n, rate, t)
        if res.error_ub >= 1.0:
            raise ach.InfeasibleRateError(
                f"{theorem} is 1 at every threshold at n={args.n}; give --delta")
        delta = res.delta
    rep = mc.simulate_pe(ch, spec, delta, args.trials, args.seed,
                         tie_break=args.tie_break)
    row = [args.n, rate / LN2, rate, rep.empirical_pe,
           rep.wilson_99_interval[0], rep.wilson_99_interval[1],
           f"sim-{args.ensemble}", delta, "", "mc"]
    write_csv([row], BOUND_HEADER, args.output)
    return 0


def _add_common(sp):
    sp.add_argument("--channel", required=True,
                    help="bsc:p | bec:p | z:p | biawgn:snr_db | file:path")
    sp.add_argument("--output", default=None, help="CSV path (default stdout)")
    sp.add_argument("--type", default=None,
                    help="input composition, e.g. 0.5,0.5 or 1/3,2/3")


def _add_row_flags(sp):
    """The options of a table row (see achievability.bound_at_rate)."""
    sp.add_argument("--delta", type=finite, default=None)
    sp.add_argument("--c", type=finite, default=None)
    sp.add_argument("--dt-variant", action="store_true")
    sp.add_argument("--analytic-tail", action="store_true",
                    help="skip the exact-tail refinement of thm2p2 and thm4p2")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="fbl",
        description="Finite-blocklength achievability bounds, tail "
                    "diagnostics and ensemble simulation (CSV output).")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bound", help="evaluate one bound point")
    _add_common(sp)
    _add_row_flags(sp)
    sp.add_argument("--k", type=int, default=None, help="information bits")
    sp.add_argument("--rate-bits", type=finite, default=None)
    sp.add_argument("--rate-nats", type=finite, default=None)
    sp.add_argument("--rate-rel-capacity", type=finite, default=None,
                    help="rate as a multiple of the relevant capacity")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--theorem", required=True, choices=list(ach.THEOREMS))
    sp.set_defaults(fn=cmd_bound)

    for name, help_text in (("rate-vs-n", "largest rate meeting --eps per n"),
                            ("compare", "same as rate-vs-n; several bounds")):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        sp.add_argument("--eps", type=finite, required=True)
        sp.add_argument("--n", required=True, help="grid start:stop:step or list")
        sp.add_argument("--bounds", required=True,
                        help="comma list: " + ",".join(_bound_names(at_eps=True)))
        sp.set_defaults(fn=cmd_rate_vs_n)

    sp = sub.add_parser("error-vs-rate", help="bound error along a rate grid")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rates", required=True, help="bits grid start:stop:step or list")
    sp.add_argument("--bounds", required=True,
                    help="comma list: " + ",".join(_bound_names()))
    _add_row_flags(sp)
    sp.set_defaults(fn=cmd_error_vs_rate)

    sp = sub.add_parser("nep", help="tail sandwich / central-limit diagnostics")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--delta", required=True, help="grid start:stop:step or list")
    sp.add_argument("--family", choices=["cond", "rel"], default="cond")
    sp.set_defaults(fn=cmd_nep)

    sp = sub.add_parser("simulate", help="ensemble word-error simulation")
    _add_common(sp)
    sp.add_argument("--ensemble", choices=["gallager", "fixedtype"],
                    required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--delta", type=finite, default=None,
                    help="decoder threshold deviation (default: optimizer)")
    sp.add_argument("--trials", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=20240817)
    sp.add_argument("--tie-break", choices=["pessimistic", "random"],
                    default="pessimistic")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("job", help="run a command described by a JSON file")
    sp.add_argument("path")
    sp.set_defaults(fn=None)
    return ap


def _run_job(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    if "argv" in job:
        argv = [str(a) for a in job["argv"]]
    else:
        argv = [str(job["command"])]
        for key, val in job.get("args", {}).items():
            argv.append(f"--{key}")
            if val is not True:
                argv.append(str(val))
    return _dispatch(argv)


def _dispatch(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "job":
        return _run_job(args.path)
    return args.fn(args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return _dispatch(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ach.InfeasibleRateError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
