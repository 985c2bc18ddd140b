"""Benchmark of gaussrd: four closed-loop workloads and a traced per-layer run.

Run from the root of a checkout; the package is imported from ``src/``::

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Workloads (see ``workloads.py``): ``scan``, ``point``, ``cli`` and ``verify``;
``all`` runs each in its own child process, one after another.  Each is a
closed loop with one caller; its inputs come only from ``--seed``.

``--trace 0`` times ops back to back for ``--seconds`` and reports the
end-to-end metrics over the whole timed run: completed ops over wall time,
the peak memory, the median and tail latency and the failed share; the
result line carries those in ``GATED``.  The set-up time is the median of
several set-ups, each in a fresh process: importing ``gaussrd``, making the
inputs and warming up.

The speed of the shared host drifts by a third and more within minutes, and
the program's speed drifts with it.  So a fixed piece of reference work runs
about twice a second between ops, and before and after each set-up.  The
gated ``ops_per_ref_s`` and ``setup_s`` scale each stretch of time by how
long the reference work around it took, against :data:`REF_S`: they are the
rate and set-up time on a host that does the reference work in that time.
The plain wall-clock figures are printed too, ``ops_per_s`` and
``setup_wall_s``.

``--trace 1`` runs a fixed number of ops, set by the workload and
``--seconds`` alone so that every count repeats exactly for a fixed seed.
Each op runs once untraced and once with the wrappers of ``spans.py``
installed, in alternating blocks.  It reports the per-layer metrics and the
tracing overhead, the gap between the two passes.  Its counts are stored
under ``.bench_state/`` keyed by the source tree, seed and length, and a
later run of the same key whose counts differ is flagged in
``trace.counts_differ`` and fails the run.

Every op's output is checked.  An op the program declines counts as failed
and makes ``correct`` false, as do a wrong output and an unexpected
exception.  The inputs of known defects are kept out of the timed ops and run
once apart from them; the report prints what they gave (see
``workloads.py``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the readable report.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import os

# Pin the BLAS thread pools before numpy loads; CLI children inherit them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_state"
NAMES = ("scan", "point", "cli", "verify")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
#: Tail percentiles, highest first; the tail is the first with enough
#: samples beyond it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10
#: The end-to-end metrics in the result; the others are printed only.  The
#: median and tail latencies jump between the host's fast and slow spells
#: (a 20 s run on the 2-vCPU host shows both), while the op rate averages
#: over them, so only the rate is gated, scaled to the reference speed.
GATED = ("setup_s", "ops_per_ref_s", "peak_rss_mb")
#: The reference work is the two kinds of work the program does: a
#: pure-Python integer loop and small numpy eigenvalue problems (6x6, the
#: size of the certification's covariance).  Its time is the geometric mean
#: of the two parts' times.  On the 2-vCPU host the benchmark was defined
#: on, the rates of 24 s stretches of a four-minute run of point or scan
#: spread 0.04 scaled so, 0.05-0.07 scaled by the loop alone and 0.08-0.11
#: unscaled (quartile distance over the median).
REF_LOOP_ITERATIONS = 100_000
REF_EIGEN_CALLS = 320
#: The time of the reference work on the reference host.  A fixed constant
#: that only sets the scale; the host above takes 3.5-7 ms.
REF_S = 0.005
#: The reference work runs after the first op that ends this long after it
#: last ran.
REF_EVERY_S = 0.5
#: A traced run alternates untraced and traced passes over this many blocks.
TRACE_BLOCKS = 10


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result."""


def _import_program():
    package = SRC / "gaussrd"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no gaussrd package at {package}")
    sys.path.insert(0, str(SRC))
    import gaussrd
    if Path(gaussrd.__file__).resolve().parent != package.resolve():
        raise BenchError(f"gaussrd was imported from {gaussrd.__file__}, "
                         f"not from {package}")


# ---------------------------------------------------------------------------
# Latency statistics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[str, float] | None:
    """The highest ladder percentile with at least ten samples beyond it
    (nearest rank), or ``None`` when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(n * p / 100.0))
        if n - rank >= MIN_BEYOND:
            return f"p{p:g}", ordered[rank - 1]
    return None


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def reference_s() -> float:
    """Time of the reference work: the faster of two passes, since the first
    one after an op, or after a CLI child, can run from a cold cache."""
    import numpy as np

    matrix = np.eye(6) + 0.1
    times = []
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOP_ITERATIONS):
            total += i * i
        middle = time.perf_counter()
        for _ in range(REF_EIGEN_CALLS):
            np.linalg.eigvalsh(matrix)
        times.append(math.sqrt((middle - start) * (time.perf_counter() - middle)))
    return min(times)


def probe_setup(name: str, seed: int, seconds: int) -> tuple[float, float]:
    """Set-up time of the workload in a fresh process, as measured and at
    the reference speed."""
    before = reference_s()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--probe-setup"],
        stdout=subprocess.PIPE, timeout=PROBE_TIMEOUT_S, check=True, text=True)
    after = reference_s()
    wall = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
    return wall, wall * REF_S / ((before + after) / 2)


def untraced(wl, args, tally: Tally, notes: list[str]) -> dict:
    import numpy as np
    from workloads import run_op

    # Latencies go to a buffer of fixed size whose pages are touched before
    # the loop, so the peak memory read after it grows only with the program.
    cap = math.ceil(wl.max_rate * args.seconds)
    latencies = np.zeros(cap, dtype=np.float32)
    ref_before = reference_s()
    slice_start = time.perf_counter()
    deadline = slice_start + args.seconds
    op_s = ref_op_s = 0.0
    n = 0
    while True:
        latencies[n] = run_op(wl, wl.call, n, tally)
        n += 1
        end = time.perf_counter()
        done = end >= deadline or n == cap
        if done or end - slice_start >= REF_EVERY_S:
            ref_after = reference_s()
            # The slice ran at the mean speed of the loops around it.
            op_s += end - slice_start
            ref_op_s += ((end - slice_start) * REF_S
                         / ((ref_before + ref_after) / 2))
            ref_before = ref_after
            slice_start = time.perf_counter()
        if done:
            break
    latencies = latencies[:n].astype(float)
    # A CLI op runs in a child, so there it is the largest child's peak;
    # read it before the set-up probes start, which are children too.
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = [probe_setup(wl.name, args.seed, args.seconds)
              for _ in range(SETUP_PROBES)]
    walls, refs = zip(*setups)

    ops_per_s = n / op_s
    tail_at = tail(latencies.tolist())
    if end < deadline:
        notes.append(f"the run stopped at its buffer of {cap} ops")
    if tail_at is None:
        notes.append(f"latency_tail_ms is left out: {n} samples are too few")
    else:
        notes.append(f"latency_tail_ms is {tail_at[0]} of {n} samples")
    notes.append("setup_s is the median of "
                 + ", ".join(f"{s:.4f}" for s in refs) + " s")
    metrics = {
        "setup_s": (statistics.median(refs), "s"),
        "setup_wall_s": (statistics.median(walls), "s"),
        "ops_per_ref_s": (n / ref_op_s, "1/s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "latency_p50_ms": (float(np.median(latencies)) * 1e3, "ms"),
        "failed_ratio": (tally.failed / tally.attempted, "-"),
    }
    if tail_at is not None:
        metrics["latency_tail_ms"] = (tail_at[1] * 1e3, "ms")
    if wl.name == "scan":
        metrics["points_per_s"] = (ops_per_s * wl.points_per_op, "1/s")
    return metrics


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def tree_digest() -> tuple[str, int]:
    """SHA-256 over the program and benchmark sources, and the line count
    of ``src/``."""
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        if SRC in path.parents:
            src_lines += data.count(b"\n")
    return digest.hexdigest(), src_lines


def counts_differ(key: str, counts: dict[str, int]) -> int:
    """Number of counts that differ from an earlier run of the same key;
    the first run of a key records its counts."""
    path = STATE / "counts" / f"{key}.json"
    if path.is_file():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        return sum(earlier.get(k) != counts.get(k) for k in {*earlier, *counts})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True), encoding="utf-8")
    return 0


US_PER_CALL = (
    "regions.dr_bound", "regions.rd_bound", "regions.converse_witness",
    "regions.maximize_t_numeric", "channel.certify_achievability",
    "channel.construct_channel", "mmse.assemble_msr_covariance",
    "mmse.conditional_mmse", "mmse.central_distortion_extended",
    "discrete.eval_region_bounds", "discrete.eval_distortions",
    "analysis.mdcr_compare",
)


def per_layer(tracer, extra: dict) -> dict:
    from workloads import Cli

    calls, total_ns, counts = tracer.calls, tracer.total_ns, tracer.counts

    def per(total: float, n: int, scale: float) -> float:
        return total / n / scale if n else 0.0

    points = counts["regions.scan.points"]
    evaluated = counts["regions.scan.evaluated"]
    m = {
        "regions.equivalence_scan.us_per_point":
            (per(total_ns["regions.equivalence_scan"], points, 1e3), "us"),
        "regions.scan.evaluated_share": (per(evaluated, points, 1.0), "ratio"),
        "regions.scan.pruned_points": (points - evaluated, "count"),
        "regions.scan.evaluated": (evaluated, "count"),
        "regions.scan.skipped_infeasible":
            (counts["regions.scan.skipped_infeasible"], "count"),
        "regions.scan.boundary": (counts["regions.scan.boundary"], "count"),
    }
    for name in US_PER_CALL:
        m[f"{name}.us_per_call"] = (tracer.us_per_call(name), "us")
    m["channel.certify_achievability.self_us"] = (
        tracer.self_us_per_call("channel.certify_achievability"), "us")
    m["channel.degenerate_adjust.calls"] = (calls["channel.degenerate_adjust"], "count")
    m["mmse.conditional_mmse.calls"] = (calls["mmse.conditional_mmse"], "count")
    m["mmse.mc_estimate_mse.ms_per_call"] = (
        tracer.us_per_call("mmse.mc_estimate_mse") / 1e3, "ms")
    m["mmse.mc_estimate_mse.samples"] = (counts["mmse.mc_estimate_mse.samples"], "count")
    m["selfcheck.run_verification.self_ms"] = (
        tracer.self_us_per_call("selfcheck.run_verification") / 1e3, "ms")
    m["analysis.wz_md_sweep.us_per_row"] = (
        per(total_ns["analysis.wz_md_sweep"], counts["analysis.wz_md_sweep.rows"],
            1e3), "us")
    m["analysis.asymptote_convergence.us_per_row"] = (
        per(total_ns["analysis.asymptote_convergence"],
            counts["analysis.asymptote_convergence.rows"], 1e3), "us")
    m["cli.interpreter_ms"] = (extra.get("cli.interpreter_ms", 0.0), "ms")
    m["cli.import_ms"] = (extra.get("cli.import_ms", 0.0), "ms")
    for sub in Cli.SUBCOMMANDS:
        m[f"cli.main_ms.{sub}"] = (per(counts[f"cli.main.{sub}_ns"],
                                       counts[f"cli.main.{sub}.calls"], 1e6), "ms")
    m["cli.numpy_loaded"] = (extra.get("cli.numpy_loaded", 0), "count")
    return m


def traced(wl, args, tally: Tally, notes: list[str]) -> dict:
    import spans
    from workloads import run_op

    n = max(1, round(wl.trace_rate * args.seconds))
    tracer = spans.Tracer()
    plain_s = traced_s = 0.0
    # Each block of ops runs untraced, then traced, so that a drift in the
    # host's speed falls on both passes alike.
    block = math.ceil(n / TRACE_BLOCKS)
    for first in range(0, n, block):
        ops = range(first, min(n, first + block))
        start = time.perf_counter()
        for i in ops:
            run_op(wl, wl.trace_call, i, tally)
        plain_s += time.perf_counter() - start
        restore = spans.install(tracer)
        try:
            start = time.perf_counter()
            for i in ops:
                run_op(wl, wl.trace_call, i, tally)
            traced_s += time.perf_counter() - start
        finally:
            restore()

    extra = wl.fresh_interpreter_metrics()
    if extra:
        notes.append("traced ops call cli.main in-process; the interpreter "
                     "and import times come from fresh interpreters")

    metrics = per_layer(tracer, extra)
    exact = tracer.exact_counts()
    exact["cli.numpy_loaded"] = extra.get("cli.numpy_loaded", 0)
    exact["ops"] = n
    exact["failed"] = tally.failed
    digest, _ = tree_digest()
    key = f"{digest[:16]}-{wl.name}-seed{args.seed}-{args.seconds}s"
    differ = counts_differ(key, exact)
    if differ:
        tally.wrong.append(f"{differ} counts differ from an earlier run with "
                           f"the same seed ({key})")
    notes.append(f"{n} ops, each untraced then traced in {TRACE_BLOCKS} "
                 f"blocks; counts key {key}")
    metrics.update({
        "trace.untraced_ms_per_op": (plain_s / n * 1e3, "ms"),
        "trace.traced_ms_per_op": (traced_s / n * 1e3, "ms"),
        "trace.overhead_pct": ((traced_s - plain_s) / plain_s * 100.0, "%"),
        "trace.counts_differ": (differ, "count"),
    })
    return metrics


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def environment() -> dict:
    import numpy as np

    digest, src_lines = tree_digest()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "tree_sha256": digest[:16],
        "src_lines": src_lines,
        "ref_ms": statistics.median(reference_s() for _ in range(5)) * 1e3,
    }


def report(wl, args, tally: Tally, metrics: dict, notes: list[str]) -> dict:
    mode = "traced" if args.trace else "untraced"
    print(f"== gaussrd bench: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds} s, {mode} ==")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"ops attempted {tally.attempted}, failed {tally.failed}, "
          f"wrong {len(tally.wrong)}")
    for label, count in sorted(tally.failures.items()):
        print(f"  failure x{count} {label}")
    for problem in tally.wrong[:20]:
        print(f"  WRONG {problem}")
    gated = {name: metrics[name] for name in metrics
             if args.trace or name in GATED}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6f} {unit}"
              + ("" if name in gated else "  (not gated)"))
    for note in notes:
        print(f"  note: {note}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in gated.items()},
    }


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"workload {name} exited {proc.returncode}\n")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)

    try:
        _import_program()
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    from workloads import WORKLOADS, Tally

    wl = WORKLOADS[args.workload](args.seed, STATE)
    try:
        # The inputs live for the whole run; keep them out of the collector's
        # scans, which would otherwise charge their size to the program.
        gc.collect()
        gc.freeze()
        setup_s = time.perf_counter() - _START
        if args.probe_setup:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        wl.expect()
        tally = Tally()
        notes = [f"this process set up in {setup_s:.4f} s"]
        notes += [f"known defect, untimed: {line}" for line in wl.known_defects()]
        run = traced if args.trace else untraced
        metrics = run(wl, args, tally, notes)
    finally:
        wl.close()
    result = report(wl, args, tally, metrics, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
