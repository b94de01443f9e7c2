"""Check that the working tree prints what a parent revision prints.

    python3 tools/same_output.py PARENT_REV

Unpacks PARENT_REV with `git archive` into a temporary directory and
runs every command below as `python3 -m fbl.cli ...` against both
source trees, with PYTHONDONTWRITEBYTECODE=1 so neither tree gains
bytecode files. Prints one line per command and exits 1 when stdout,
stderr or the exit code of any command differs. When stdout differs and
both sides are CSV with the same header and as many rows, a second line
gives the largest relative difference |a - b| / max(|a|, |b|) over the
rows in each numeric column that differs, and names the other columns
that differ; columns it does not name are identical.

The commands are the benchmark's four workloads at seeds 1-3 (read
from perfbench/workloads.py), `nep` in both families on a BSC, a Z
channel and a BiAWGN, and the fixed-composition and central-limit rows
on a BiAWGN and a Z channel, through both `error-vs-rate` and `compare`.
Then single rows that those miss: the BSC and BEC readouts at an
exact M and at ln M, with and without --dt-variant, and the BEC's DT
row at n = 200, k = 150 and p = 0.05, where the S = 0 atom's charge is
2e-9 of the bound, inside the printed digits; the Z closed form
at --k; thm1 at a given --delta; thm1 on the Z channel, whose tail is
read off its exact types, alone, beside thm3 and along n = 200..3000;
thm3 at a rate whose optimum lies at delta <= 0; the
fixed-composition simulation at a given --delta, the random
tie-break simulation and a BiAWGN simulation (the only one that draws
Gaussian noise); the BiAWGN thm1 rate at eps, checked at the
searched delta; the Z channel's types readout at a given --delta, from
above (thm1) and from below (thm3); and `nep` and thm1 on a `file:`
channel whose exact law is past the state budget at n = 130 (the file
is written into the temporary directory); and the `ee` rate at eps on a
BiAWGN, on a BSC at n = 10^6 and eps = 0.1, where the optimal rho is
near 3e-3, on a Z channel with a non-uniform input at n = 20, and where
no positive rate meets eps (exit 3).
"""

import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

BOUNDS = "thm2p1,thm2p2,thm4p1,thm4p2,thm3,ee"


def commands(tmp: Path):
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            yield list(workloads.make(name, seed).argv)
    for spec in ("bsc:0.11", "z:0.5", "biawgn:0"):
        yield ["nep", "--channel", spec, "--n", "300", "--delta", "0.02:0.2:0.02"]
        yield ["nep", "--channel", spec, "--family", "rel", "--type", "0.5,0.5",
               "--n", "300", "--delta", "0.02:0.2:0.02"]
    for spec in ("biawgn:0", "z:0.5"):
        yield ["error-vs-rate", "--channel", spec, "--type", "0.5,0.5", "--n", "500",
               "--rates", "0.1:0.3:0.05", "--bounds", BOUNDS]
        yield ["compare", "--channel", spec, "--type", "0.5,0.5", "--eps", "1e-3",
               "--n", "200:600:200", "--bounds", BOUNDS]
    for spec, form in (("bsc:0.11", "bscform"), ("bec:0.5", "becform")):
        for rate in (["--k", "200"], ["--rate-bits", "0.4"]):
            for variant in ([], ["--dt-variant"]):
                yield ["bound", "--channel", spec, "--theorem", form, "--n", "500",
                       *rate, *variant]
    yield ["bound", "--channel", "bec:0.05", "--theorem", "becform", "--n", "200", "--k", "150",
           "--dt-variant"]
    yield ["bound", "--channel", "z:0.5", "--type", "0.5,0.5", "--theorem", "zform",
           "--n", "200", "--k", "40"]
    yield ["bound", "--channel", "bec:0.5", "--theorem", "thm1", "--n", "500", "--k", "200",
           "--delta", "0.05"]
    yield ["compare", "--channel", "z:0.5", "--eps", "0.05", "--n", "100", "--bounds", "thm1"]
    yield ["compare", "--channel", "z:0.5", "--eps", "1e-3", "--n", "200:3000:200",
           "--bounds", "thm1"]
    yield ["bound", "--channel", "z:0.5", "--type", "0.5,0.5", "--theorem", "thm3", "--n", "100",
           "--rate-rel-capacity", "0.856"]
    yield ["compare", "--channel", "z:0.4", "--type", "0.5,0.5", "--eps", "1e-2", "--n",
           "200:600:200", "--bounds", "thm1,thm3"]
    yield ["simulate", "--channel", "z:0.5", "--ensemble", "fixedtype", "--type", "0.5,0.5",
           "--n", "8", "--k", "2", "--trials", "5000", "--seed", "3", "--delta", "1e-6"]
    yield ["simulate", "--channel", "bsc:0.11", "--ensemble", "gallager", "--n", "12",
           "--k", "3", "--trials", "5000", "--seed", "3", "--tie-break", "random"]
    yield ["simulate", "--channel", "biawgn:0", "--ensemble", "gallager", "--n", "12",
           "--k", "3", "--trials", "5000", "--seed", "3", "--delta", "0.2"]
    yield ["compare", "--channel", "biawgn:0", "--eps", "1e-3", "--n", "200:600:200",
           "--bounds", "thm1"]
    for row in (["--theorem", "thm1"], ["--type", "0.5,0.5", "--theorem", "thm3"]):
        yield ["bound", "--channel", "z:0.5", *row, "--n", "200", "--k", "40",
               "--delta", "0.05"]
    channel = tmp / "channel.txt"
    channel.write_text("discrete 2 3\n0.6 0.3 0.1\n0.2 0.3 0.5\n", encoding="utf-8")
    yield ["nep", "--channel", f"file:{channel}", "--n", "130", "--delta", "0.02:0.2:0.02"]
    yield ["bound", "--channel", f"file:{channel}", "--theorem", "thm1", "--n", "130",
           "--k", "20"]
    for spec, eps, n in (("biawgn:0", "1e-3", "1000"), ("bsc:0.11", "0.1", "1000000"),
                         ("bsc:0.11", "1e-9", "50")):
        yield ["compare", "--channel", spec, "--eps", eps, "--n", n, "--bounds", "ee"]
    yield ["compare", "--channel", "z:0.5", "--type", "0.4,0.6", "--eps", "0.2", "--n", "20",
           "--bounds", "ee"]


def start(src: Path, argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, "-m", "fbl.cli", *argv], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def finish(proc):
    out, err = proc.communicate()
    return out, err, proc.returncode


def csv_gaps(old: bytes, new: bytes):
    """'column gap, ...' for two CSV outputs with one header and as many
    rows, then the text columns that differ; None for any other output."""
    old_rows, new_rows = (list(csv.reader(io.StringIO(out.decode()))) for out in (old, new))
    if (not old_rows or not new_rows or old_rows[0] != new_rows[0]
            or len(old_rows) != len(new_rows)
            or any(len(row) != len(old_rows[0]) for row in old_rows + new_rows)):
        return None
    numeric, text = [], []
    for j, name in enumerate(old_rows[0]):
        pairs = [(a[j], b[j]) for a, b in zip(old_rows[1:], new_rows[1:]) if a[j] != b[j]]
        if not pairs:
            continue
        try:
            gap = max(abs(float(a) - float(b)) / max(abs(float(a)), abs(float(b)))
                      for a, b in pairs)
        except ValueError:
            text.append(name)
            continue
        numeric.append(f"{name} {gap:.2g}")
    return ", ".join(numeric + ([f"text: {' '.join(text)}"] if text else []))


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0]],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        # the two sides run side by side, each from its own empty directory
        cwds = [Path(tmp) / "old", Path(tmp) / "new"]
        for cwd in cwds:
            cwd.mkdir()
        differ = 0
        for cmd in commands(Path(tmp)):
            procs = [start(parent / "src", cmd, cwds[0]), start(ROOT / "src", cmd, cwds[1])]
            old, new = (finish(p) for p in procs)
            fields = [name for name, a, b in zip(("stdout", "stderr", "exit"), old, new)
                      if a != b]
            differ += bool(fields)
            print(f"{'DIFF ' + ','.join(fields) if fields else 'same'}"
                  f" (exit {new[2]}): {' '.join(cmd)}", flush=True)
            gaps = csv_gaps(old[0], new[0]) if "stdout" in fields else None
            if gaps is not None:
                print(f"    {gaps}", flush=True)
        print(f"{differ} of the commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
