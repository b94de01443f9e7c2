"""Command-line front end: bounds, curves, tail diagnostics and simulation.

Output is CSV only (UTF-8, comma separated, '.' decimal, header row
always present); plotting is left to external tools. Rates are accepted
in bits and reported in both bits and nats. Curve commands evaluate
their grid in order, one point after another.

Exit codes: 0 success, 2 malformed request (single-line diagnostic on
stderr), 3 infeasible bound request. A curve command (compare,
rate-vs-n, error-vs-rate) still writes every row when some grid points
are infeasible: such a row keeps its inputs, leaves its computed columns
empty and has tail_kind=infeasible, each one adds an 'infeasible:' line
on stderr, and the command exits 3.
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


def parse_grid(spec: str):
    """Integer grid 'start:stop:step' (inclusive of stop when hit) or 'a,b,c'."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must be start:stop:step, got {spec!r}")
        start, stop, step = (int(p) for p in parts)
        if step <= 0 or stop < start:
            raise UsageError(f"bad grid {spec!r}")
        return list(range(start, stop + 1, step))
    return [int(tok) for tok in spec.split(",")]


def parse_float_grid(spec: str):
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise UsageError(f"bad grid {spec!r}")
        out = []
        x = start
        while x <= stop + 1e-12:
            out.append(round(x, 12))
            x += step
        return out
    return [float(tok) for tok in spec.split(",")]


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


def _bound_row(res: ach.BoundResult, ci=("", "")):
    return [res.n, res.rate_nats / LN2, res.rate_nats, res.error_ub,
            ci[0], ci[1], res.theorem, res.delta, res.lambda_or_c,
            res.tail_kind]


def _write_curve(points, evaluate, output) -> int:
    """Evaluate (theorem, n, rate_nats or None) points in order and write the rows.

    An infeasible point keeps its inputs, leaves the computed columns
    empty and is flagged tail_kind=infeasible; the exit code is then 3.
    """
    rows, code = [], 0
    for theorem, n, rate in points:
        try:
            rows.append(_bound_row(evaluate(theorem, n, rate)))
        except ach.InfeasibleRateError as exc:
            print(f"infeasible: {theorem} at n={n}: {exc}", file=sys.stderr)
            rate_bits = None if rate is None else rate / LN2
            rows.append([n, rate_bits, rate, "", "", "", theorem, "", "",
                         "infeasible"])
            code = 3
    write_csv(rows, BOUND_HEADER, output)
    return code


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
    base = (chn.mutual_info(ch, t) if args.theorem in _TYPE_THEOREMS
            else chn.linear_capacity(ch))
    return args.rate_rel_capacity * base


_TYPE_THEOREMS = ("thm3", "thm4p1", "thm4p2", "zform")


def _eval_bound(ch, args, t, theorem, n, rate):
    budget = tail.TailBudget(mc_samples=args.mc_samples, seed=args.seed)
    if theorem == "thm1":
        cp = ach.CodeParams(n, rate_nats=rate)
        if args.delta is not None:
            return ach.thm1_bound(ch, cp, args.delta, budget)
        return ach.thm1_optimized(ch, cp, budget)
    if theorem == "thm2p1":
        if args.delta is not None:
            return ach.thm2_rate_and_error(ch, n, delta=args.delta)
        return ach.thm2_part1_at_rate(ch, n, rate)
    if theorem == "thm2p2":
        if args.c is not None:
            return ach.thm2_rate_and_error(ch, n, c=args.c)
        return ach.thm2_part2_at_rate(ch, n, rate,
                                      use_exact_tail=not args.analytic_tail,
                                      budget=budget)
    if theorem == "thm3":
        cp = ach.CodeParams(n, rate_nats=rate, t=t)
        if args.delta is not None:
            return ach.thm3_bound(ch, cp, args.delta, budget)
        return ach.thm3_optimized(ch, cp, budget)
    if theorem == "thm4p1":
        if args.delta is not None:
            return ach.thm4_rate_and_error(ch, t, n, delta=args.delta)
        return ach.thm4_part1_at_rate(ch, t, n, rate)
    if theorem == "thm4p2":
        if args.c is not None:
            return ach.thm4_rate_and_error(ch, t, n, c=args.c)
        return ach.thm4_part2_at_rate(ch, t, n, rate)
    k = getattr(args, "k", None)
    if theorem == "zform":
        p = chn.as_zchannel(ch)
        if p is None:
            raise UsageError("zform needs a z:p channel")
        err = ach.zchannel_closed_form(
            p, t, n, log_m=k * LN2 if k is not None else n * rate)
        return ach.BoundResult(theorem="zform", n=n, rate_nats=rate,
                               error_ub=err, tail_kind="exact")
    if theorem == "bscform":
        p = chn.as_bsc(ch)
        if p is None:
            raise UsageError("bscform needs a bsc:p channel")
        if k is not None:
            err = ach.bsc_closed_form(p, n, 2 ** k, dt_variant=args.dt_variant)
        else:
            err = ach.bsc_closed_form(p, n, log_m=n * rate,
                                      dt_variant=args.dt_variant)
        return ach.BoundResult(theorem="bscform", n=n, rate_nats=rate,
                               error_ub=err, tail_kind="exact")
    if theorem == "becform":
        p = chn.as_bec(ch)
        if p is None:
            raise UsageError("becform needs a bec:p channel")
        if k is not None:
            err = ach.bec_closed_form(p, n, 2 ** k, dt_variant=args.dt_variant)
        else:
            err = ach.bec_closed_form(p, n, log_m=n * rate,
                                      dt_variant=args.dt_variant)
        return ach.BoundResult(theorem="becform", n=n, rate_nats=rate,
                               error_ub=err, tail_kind="exact")
    if theorem == "ee":
        dist = t if t is not None else _uniform_for(ch)
        err = ach.error_exponent_baseline(ch, dist, n, rate)
        return ach.BoundResult(theorem="ee", n=n, rate_nats=rate,
                               error_ub=err, tail_kind="exponent")
    raise UsageError(f"unknown theorem {theorem!r}")


def _uniform_for(ch) -> chn.InputType:
    size = 2 if isinstance(ch, chn.BiAwgn) else ch.input_size
    return chn.InputType.uniform(size)


def cmd_bound(args):
    ch = parse_channel(args.channel)
    t = parse_type(args.type) if args.type else None
    if args.theorem in _TYPE_THEOREMS and t is None:
        raise UsageError(f"--theorem {args.theorem} needs --type")
    needs_rate = not ((args.theorem in ("thm2p1", "thm4p1") and args.delta is not None)
                      or (args.theorem in ("thm2p2", "thm4p2") and args.c is not None))
    rate = _resolve_rate(args, ch, t) if needs_rate else None
    res = _eval_bound(ch, args, t, args.theorem, args.n, rate)
    write_csv([_bound_row(res)], BOUND_HEADER, args.output)
    return 0


def cmd_rate_vs_n(args):
    ch = parse_channel(args.channel)
    t = parse_type(args.type) if args.type else None
    bounds = args.bounds.split(",")
    grid = parse_grid(args.n)
    budget = tail.TailBudget(mc_samples=args.mc_samples, seed=args.seed)

    def evaluate(b, n, _):
        return ach.max_rate_at_eps(ch, n, args.eps, b, t=t, budget=budget)

    return _write_curve([(b, n, None) for b in bounds for n in grid],
                        evaluate, args.output)


def cmd_error_vs_rate(args):
    ch = parse_channel(args.channel)
    t = parse_type(args.type) if args.type else None
    bounds = args.bounds.split(",")
    rates_bits = parse_float_grid(args.rates)
    return _write_curve([(b, args.n, rb * LN2) for b in bounds for rb in rates_bits],
                        lambda b, n, rate: _eval_bound(ch, args, t, b, n, rate),
                        args.output)


def cmd_nep(args):
    ch = parse_channel(args.channel)
    t = parse_type(args.type) if args.type else None
    if args.family == "rel" and t is None:
        raise UsageError("--family rel needs --type")
    fam = (nep.rel_entropy_family(ch, t) if args.family == "rel"
           else nep.cond_entropy_family(ch))
    budget = tail.TailBudget(mc_samples=args.mc_samples, seed=args.seed)
    deltas = parse_float_grid(args.delta)

    def eval_point(d):
        sandwich = nep.tail_bounds(fam, d, args.n)
        clt = nep.tail_clt(fam, d, args.n)
        if isinstance(ch, chn.DiscreteChannel):
            exact = (tail.ptdelta(ch, t, d, args.n, budget) if args.family == "rel"
                     else tail.pdelta(ch, d, args.n, budget))
            exact_val, exact_kind = exact.value, exact.kind
        else:
            exact_val, exact_kind = "", "none"
        return [args.n, d, args.family, exact_val, sandwich.lower,
                sandwich.upper, math.exp(max(-700.0, -args.n * sandwich.flags["rate"])),
                clt.lower, clt.upper, clt.flags["in_regime"],
                sandwich.flags["rate"], sandwich.flags["lambda"], exact_kind]

    write_csv([eval_point(d) for d in deltas], NEP_HEADER, args.output)
    return 0


def cmd_simulate(args):
    ch = parse_channel(args.channel)
    if args.ensemble == "gallager":
        spec = mc.GallagerSpec(args.n, args.k)
        rate = args.k / args.n * LN2
    else:
        t = parse_type(args.type)
        spec = mc.FixedTypeSpec(args.n, args.k, t)
        rate = args.k / args.n * LN2
    delta = args.delta
    if delta is None:
        if args.ensemble == "gallager":
            delta = ach.thm1_optimized(ch, ach.CodeParams(args.n, k=args.k)).delta
        else:
            delta = ach.thm3_optimized(
                ch, ach.CodeParams(args.n, k=args.k, t=spec.t)).delta
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
    sp.add_argument("--seed", type=int, default=20240817)
    sp.add_argument("--mc-samples", type=int, default=10 ** 6)
    sp.add_argument("--type", default=None,
                    help="input composition, e.g. 0.5,0.5 or 1/3,2/3")


def _add_rate_flags(sp):
    sp.add_argument("--k", type=int, default=None, help="information bits")
    sp.add_argument("--rate-bits", type=float, default=None)
    sp.add_argument("--rate-nats", type=float, default=None)
    sp.add_argument("--rate-rel-capacity", type=float, default=None,
                    help="rate as a multiple of the relevant capacity")


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
    _add_rate_flags(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--theorem", required=True,
                    choices=["thm1", "thm2p1", "thm2p2", "thm3", "thm4p1",
                             "thm4p2", "zform", "bscform", "becform", "ee"])
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--dt-variant", action="store_true")
    sp.add_argument("--analytic-tail", action="store_true",
                    help="skip the exact-tail refinement of thm2p2")
    sp.set_defaults(fn=cmd_bound)

    for name, help_text in (("rate-vs-n", "largest rate meeting --eps per n"),
                            ("compare", "same as rate-vs-n; several bounds")):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        sp.add_argument("--eps", type=float, required=True)
        sp.add_argument("--n", required=True, help="grid start:stop:step or list")
        sp.add_argument("--bounds", required=True,
                        help="comma list: thm1,thm2p1,thm2p2,thm3,thm4p1,thm4p2,ee")
        sp.set_defaults(fn=cmd_rate_vs_n)

    sp = sub.add_parser("error-vs-rate", help="bound error along a rate grid")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rates", required=True, help="bits grid start:stop:step or list")
    sp.add_argument("--bounds", required=True)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--dt-variant", action="store_true")
    sp.add_argument("--analytic-tail", action="store_true")
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
    sp.add_argument("--delta", type=float, default=None,
                    help="decoder threshold deviation (default: optimizer)")
    sp.add_argument("--trials", type=int, default=100000)
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
