"""Regenerate ``tests/data/cli_corpus.json``, the CLI output corpus.

Run from anywhere with ``PYTHONPATH=src python tests/make_cli_corpus.py``.
Each entry holds an argv, the exit code, and the stdout and stderr of
``gaussrd.cli.main`` run in-process from the repository root with
``COLUMNS=80``.  ``tests/test_cli_corpus.py`` checks that the tree still
reproduces every entry; it never regenerates.

The argvs are:

* the 72 ``cli`` workload argvs of ``bench/workloads.py`` at seeds 1-3, their
  pmf files written to fixed paths under ``tests/data/``;
* ``tests/test_cli.py``'s ``ECHO_ARGVS``;
* the argvs of :data:`EDGE_ARGVS`, at rates past the double range's edges;
* ``verify`` at seeds 12345, 1 and 7 by variances 1, 1e-9 and 1e9, and at
  variances 1e300 and 1e-200 with grid density 2;
* ``--help`` of the program and of each subcommand;
* the argvs of :data:`CHANNEL_ARGVS`, one per branch of the forward
  construction;
* the argvs of :data:`AIM3_EDGE_ARGVS`, edge cases whose output
  ``tests/test_cli.py`` does not pin in full;
* the argvs of :data:`WZ_EDGE_ARGVS`, the binning sweep at the edges of its
  stage rates.

The last three groups come after the rest in the order they were added, so
that every earlier entry keeps its index.

``--only PREFIX`` (repeatable; ``--only "dr-bound --var 1e308"``) reruns only
the entries whose argv starts with a prefix and keeps the rest as committed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = Path("tests") / "data"
CORPUS = ROOT / DATA / "cli_corpus.json"

#: Single points at the edges of the double range.
EDGE_ARGVS = [
    ["channel", "--var", "10", "--rates", "0,0,0,355", "--d", "10,10"],
    ["dr-bound", "--var", "1e308", "--rates", "360,0,0,0", "--d", "inf,1.0,1.0"],
    ["sweep-wz-md", "--var", "1e308", "--r1", "360", "--points", "3"],
]

#: ``channel`` at each branch of the forward construction: a degenerate
#: adjustment; zero ``r1`` and ``r4``; a side target at ``d1_star``, with the
#: other on its floor at ``r2 = 0`` (an infinite ``sigma2_sq`` and ``rho = 0``)
#: and then adjusted; both targets on their floors (``rho = 0``); and
#: variances 1e-300 and 1e300.
CHANNEL_ARGVS = [
    ["channel", "--var", "1", "--rates", "0.5,0.5,0.5,0.5", "--d", "0.3,0.3"],
    ["channel", "--var", "1", "--rates", "0,0.5,0.5,0", "--d", "0.5,0.6"],
    ["channel", "--var", "2", "--rates", "0.5,0,1.5,0.25",
     "--d", "0.7357588823428847,0.036631277777468364"],
    ["channel", "--var", "2", "--rates", "0.5,0.75,1.5,0.25",
     "--d", "0.7357588823428847,0.1"],
    ["channel", "--var", "2", "--rates", "0.5,0.75,1.5,0.25",
     "--d", "0.1641699972477976,0.036631277777468364"],
    ["channel", "--var", "1e-300", "--rates", "0.5,0.75,1.5,0.25", "--d", "2e-301,1e-301"],
    ["channel", "--var", "1e300", "--rates", "0.5,0.75,1.5,0.25", "--d", "2e299,1e299"],
]

#: Edges ``tests/test_cli.py`` pins by exit code or a finiteness check alone,
#: here with their full output: rates of 400 nats in ``dr-bound`` and at each
#: end of ``rd-bound``; ``loss`` past the overflow of its growth factor; the
#: last ``mdcr`` row's underflowing bounds; the ``asymptote`` grid on each
#: side of its ceiling (exit 0, then 2); ``sweep-wz-md`` at r1 = 300 and at
#: r1 or r2 = 1e-17; the ``channel`` whose d4 bound underflows at variance
#: 1e-200; and ``verify`` at variance 1e-300, which certification refuses
#: before the Monte Carlo check.
AIM3_EDGE_ARGVS = [
    ["dr-bound", "--rates", "400,0,0,0", "--d", "inf,0.5,0.5"],
    ["rd-bound", "--r1", "400", "--r4", "0", "--d", "inf,0.5,0.5,0.1"],
    ["rd-bound", "--r1", "0", "--r4", "400", "--d", "inf,0.5,0.5,0.1"],
    ["loss", "--var", "1e300", "--alpha", "360", "--r3", "0", "--r1-grid", "1"],
    ["mdcr", "--r2", "1", "--r3", "1", "--d2", "0.3", "--d3", "0.3",
     "--r4-grid", "0:400:3"],
    ["asymptote", "--r-grid", "1,176"],
    ["asymptote", "--r-grid", "1,200"],
    ["sweep-wz-md", "--r1", "300", "--points", "3"],
    ["sweep-wz-md", "--r1", "1e-17", "--points", "3"],
    ["sweep-wz-md", "--r2", "1e-17", "--points", "3"],
    ["channel", "--var", "1e-200", "--rates",
     "38.94321942583643,34.18371773174844,39.68471326127271,35.247697372811615",
     "--d", "3.415362060029526e-246,2.5985620784733553e-237"],
    ["verify", "--var", "1e-300"],
]

#: ``sweep-wz-md`` at the edges of its stage rates: near-zero or subnormal
#: ``r1`` and ``r2`` (1e-310, 1e-320, and a variance of 3.96e-259 at
#: r1 = 1.3e-158), ``r1`` and ``r2`` at exactly 0, and variance 1e308 with
#: r2 = 360, where the plain slice's ``a = exp(-720)`` is subnormal and the
#: sweep is refused.
WZ_EDGE_ARGVS = [
    ["sweep-wz-md", "--r1", "1e-310", "--points", "3"],
    ["sweep-wz-md", "--var", "1e308", "--r1", "0.1", "--r2", "360", "--points", "3"],
    ["sweep-wz-md", "--r2", "1e-320", "--points", "3"],
    ["sweep-wz-md", "--var", "3.9568226551624325e-259", "--r1", "1.342632853490674e-158",
     "--r2", "0.0020019260325903035", "--r3", "1.0092188134423132",
     "--r4", "0.6386335256137914", "--points", "3"],
    ["sweep-wz-md", "--r1", "0", "--points", "3"],
    ["sweep-wz-md", "--r2", "0", "--points", "3"],
]

VERIFY_ARGVS = ([["verify", "--seed", str(seed), "--var", var]
                 for seed in (12345, 1, 7) for var in ("1", "1e-9", "1e9")]
                + [["verify", "--var", var, "--grid-density", "2"]
                   for var in ("1e300", "1e-200")])


def run(argv: list[str]) -> dict:
    """One in-process run; the caller has set the directory and COLUMNS."""
    from gaussrd import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def bench_argvs(state_dir: Path) -> list[list[str]]:
    """The ``cli`` workload's argvs at seeds 1-3, with each pmf file copied to
    ``tests/data/cli-pmf-<seed>-<variant>.json``."""
    sys.path.insert(0, str(ROOT))
    from bench.workloads import Cli

    class Argvs(Cli):
        def __init__(self, seed: int) -> None:
            self.seed = seed
            super().__init__(seed, state_dir)

        def warm_up(self, ops: int) -> None:
            pass

        def _pmf_file(self, rng, variant: int) -> Path:
            made = super()._pmf_file(rng, variant)
            fixed = DATA / f"cli-pmf-{self.seed}-{variant}.json"
            shutil.copyfile(made, ROOT / fixed)
            return fixed

    return [argv for seed in (1, 2, 3) for argv in Argvs(seed).argvs]


def echo_argvs() -> list[list[str]]:
    """``ECHO_ARGVS``, the discrete pmf at ``tests/data/cli-pmf-copy.json``."""
    sys.path.insert(0, str(ROOT / "tests"))
    from test_cli import ECHO_ARGVS, _copy_configuration

    pmf = DATA / "cli-pmf-copy.json"
    (ROOT / pmf).write_text(json.dumps(_copy_configuration()), encoding="utf-8")
    return [[a.format(pmf=pmf) for a in argv] for argv in ECHO_ARGVS]


def help_argvs() -> list[list[str]]:
    from gaussrd import cli

    return [["--help"]] + [[row[0], "--help"] for row in cli._COMMANDS]


def main(only: list[list[str]]) -> None:
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    (ROOT / DATA).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as state_dir:
        argvs = (bench_argvs(Path(state_dir)) + echo_argvs() + EDGE_ARGVS
                 + VERIFY_ARGVS + help_argvs() + CHANNEL_ARGVS + AIM3_EDGE_ARGVS
                 + WZ_EDGE_ARGVS)
    old = ({tuple(e["argv"]): e for e in json.loads(CORPUS.read_text(encoding="utf-8"))}
           if only else {})
    entries = [run(argv) if not only or any(argv[:len(p)] == p for p in only)
               else old[tuple(argv)] for argv in argvs]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} entries, {CORPUS.stat().st_size} bytes -> {CORPUS}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", default=[], metavar="PREFIX",
                        help="rerun only the argvs that start with PREFIX")
    main([prefix.split() for prefix in parser.parse_args().only])
