"""Seeded workload generation for the fbl benchmark.

Each workload is one `fbl` CLI invocation. The seed picks the channel
parameter from a small range (small because error_nlog10_mean depends
on that parameter alone, and a wide range would spread it across
seeds by more than its bound); rate grids are fixed fractions of that
channel's capacity, computed here independently of the program, so
every grid point is feasible for every seed. The grids keep clear of
infeasible points on purpose: today a single infeasible point makes a
curve command print no rows and exit 3, which would fail the whole
run. That defect is tracked in ROADMAP.md ("one bad grid point must
not kill a whole curve"); the choice of grid does not hide it, it only
keeps this benchmark about speed.

Why each workload exists:

* bsc-curve: thousands of cheap rate-inverter calls (closed-form thm1,
  the exponent search, the discrete tilt kernel); no lattice pmf and no
  simulator. The foil for changes aimed at the slow paths.
* lattice-curve: fixed-composition thm3 on the Z channel, almost all of
  it the lattice DP inside tail.ptdelta, rebuilt for every delta.
* tilt-curve: BiAWGN thm1/thm2, almost all of it
  nep.TiltFamily.tilted_stats under the lambda solves.
* sim: the GF(2) ensemble simulator, the only workload that reaches
  the montecarlo layer.
"""

import math
import random
from dataclasses import dataclass

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Workload:
    """One generated CLI invocation and what its output must contain."""
    name: str
    seed: int
    argv: tuple
    param: float            # the seeded channel parameter
    expected: tuple         # (theorem, n, rate_bits or None) per row, in order
    items_per_run: int      # CSV rows, or simulated trials for sim
    capacity_bits: float    # the capacity the rates are measured against


def bsc_capacity_bits(p: float) -> float:
    return 1.0 + (p * math.log(p) + (1.0 - p) * math.log1p(-p)) / LN2


def biawgn_capacity_bits(snr_db: float, points: int = 4001) -> float:
    """ln 2 - H(X|Y) for the uniform-input BiAWGN, in bits.

    Trapezoid rule over a +-12 sigma window, which converges
    geometrically for this smooth, fast-decaying integrand.
    """
    a = math.sqrt(10.0 ** (snr_db / 10.0))
    lo, step = a - 12.0, 24.0 / (points - 1)
    h = 0.0
    for i in range(points):
        y = lo + i * step
        softplus = max(0.0, -2.0 * a * y) + math.log1p(math.exp(-abs(2.0 * a * y)))
        weight = 0.5 if i in (0, points - 1) else 1.0
        h += weight * math.exp(-0.5 * (y - a) ** 2) * softplus
    h *= step / math.sqrt(2.0 * math.pi)
    return (LN2 - h) / LN2


def zchannel_mutual_info_bits(p: float) -> float:
    """I(t;P) of the Z channel (0 flips to 1 w.p. p) at t = (1/2, 1/2), in bits."""
    q0, q1 = 0.5 * (1.0 - p), 0.5 * (1.0 + p)
    d0 = (1.0 - p) * math.log((1.0 - p) / q0) + p * math.log(p / q1)
    d1 = math.log(1.0 / q1)
    return 0.5 * (d0 + d1) / LN2


def _uniform(seed: int, name: str, lo: float, hi: float, digits: int) -> float:
    rng = random.Random(f"{name}:{seed}")
    return round(lo + (hi - lo) * rng.random(), digits)


def _fractions(lo: float, hi: float, count: int):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _fmt_rates(rates):
    return ",".join(f"{r:.6f}" for r in rates)


def bsc_curve(seed: int) -> Workload:
    p = _uniform(seed, "bsc-curve", 0.10, 0.12, 4)
    grid = list(range(200, 6001, 200))
    bounds = ("thm1", "ee", "thm2p1")
    argv = ("compare", "--channel", f"bsc:{p}", "--eps", "1e-3",
            "--n", "200:6000:200", "--bounds", ",".join(bounds))
    expected = tuple((b, n, None) for b in bounds for n in grid)
    return Workload("bsc-curve", seed, argv, p, expected, len(expected),
                    bsc_capacity_bits(p))


def lattice_curve(seed: int) -> Workload:
    p = _uniform(seed, "lattice-curve", 0.495, 0.505, 4)
    mi = zchannel_mutual_info_bits(p)
    rates = [float(f"{f * mi:.6f}") for f in _fractions(0.32, 0.96, 11)]
    bounds = ("thm3", "zform")
    argv = ("error-vs-rate", "--channel", f"z:{p}", "--type", "0.5,0.5",
            "--n", "1000", "--rates", _fmt_rates(rates),
            "--bounds", ",".join(bounds))
    expected = tuple((b, 1000, r) for b in bounds for r in rates)
    return Workload("lattice-curve", seed, argv, p, expected, len(expected), mi)


def tilt_curve(seed: int) -> Workload:
    s = _uniform(seed, "tilt-curve", -0.05, 0.05, 3)
    cap = biawgn_capacity_bits(s)
    rates = [float(f"{f * cap:.6f}") for f in _fractions(0.31, 0.885, 8)]
    bounds = ("thm2p1", "thm2p2", "thm1")
    argv = ("error-vs-rate", "--channel", f"biawgn:{s}", "--n", "1000",
            "--rates", _fmt_rates(rates), "--bounds", ",".join(bounds))
    expected = tuple((b, 1000, r) for b in bounds for r in rates)
    return Workload("tilt-curve", seed, argv, s, expected, len(expected), cap)


SIM_TRIALS = 100000


def sim(seed: int) -> Workload:
    argv = ("simulate", "--channel", "bsc:0.11", "--ensemble", "gallager",
            "--n", "16", "--k", "4", "--trials", str(SIM_TRIALS),
            "--seed", str(seed))
    return Workload("sim", seed, argv, 0.11, (("sim-gallager", 16, 0.25),),
                    SIM_TRIALS, bsc_capacity_bits(0.11))


WORKLOADS = {
    "bsc-curve": bsc_curve,
    "lattice-curve": lattice_curve,
    "tilt-curve": tilt_curve,
    "sim": sim,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
