"""The four benchmark workloads: scan, point, cli and verify.

Each workload is a closed loop with one caller.  Its inputs come only from the
workload seed and are made when the workload is constructed (set-up), which
ends with a warm-up of real ops.  ``expect()`` then computes what the checks
compare against; it is the benchmark's own work, so it is not part of the
set-up time.  ``call(i)`` runs op ``i``; ``check(i, result)`` returns ``None``
when the output is right and a description of the fault otherwise.  An op the
program declines (a ``GaussRdError``, or a CLI exit code other than 0) raises
:class:`OpFailed` with a label.  Every failure counts and makes the run wrong.

The program had two known defects when this benchmark was defined; the timed
inputs stay clear of both, and ``known_defects()`` runs each defect's inputs
once, untimed, so the report shows whether it is still there:

* ``certify_achievability`` raises ``OutOfRegime`` on about 1 in 3e4
  sampled points, each with ``pi`` below 1e-4 (seed 1, draw 2258: rates
  (0, 0.3909, 6.2e-05, 2.383), d2 = 0.7742, d3 = 0.99996 at unit variance).
  Points with ``pi`` below :data:`PI_MIN` are left out of the timed inputs
  of ``point`` and ``cli``, and ``verify`` skips the verification seeds that
  would certify one.
* ``dr_bound`` cancels catastrophically from ~18.4 nats, so ``asymptote``
  exits 2 at 18 and 19 nats; the timed ``asymptote`` grid stops at 15.

``trace_call`` is the op of the traced run.  It equals ``call`` except for the
CLI, whose traced run calls ``cli.main`` in-process, since spans cannot be
taken in a child interpreter from outside the package.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from gaussrd import channel, cli, discrete, regions, selfcheck
from gaussrd.errors import GaussRdError
from gaussrd.model import (UNCONSTRAINED, DistortionTuple, GaussianSource,
                           RateTuple)

#: The known certification failure occurs where ``pi``, the product of the
#: side targets' relative slacks below d1_star, is this small: pi and delta
#: then cancel to ~1e-12 relative, the tolerance of the regime test.  All 22
#: failures in 660,000 sampled points (16,500 from each of seeds 401-440)
#: had pi below 1e-4, and none of the 4,936 with pi in [1e-4, 1e-3) failed.
#: About 0.9% of sampled points have pi below this.
PI_MIN = 1e-3
#: The asymptote grid of the timed CLI launches, and the rates past ~18.4
#: nats where the known cancellation makes it exit 2.
ASYMPTOTE_GRID = "1,5,10,15"
ASYMPTOTE_DEFECT_GRID = "18,19"

#: Op timeout for a CLI child, in seconds; a launch takes ~0.2 s.
CHILD_TIMEOUT_S = 60


class OpFailed(Exception):
    """The program declined an op; the message is the failure label."""


def near_degenerate(rates: RateTuple, d2: float, d3: float) -> bool:
    """Whether unit-variance side targets have ``pi`` below :data:`PI_MIN`."""
    d1s = math.exp(-2.0 * rates.r1)
    return (1.0 - min(d2, d1s) / d1s) * (1.0 - min(d3, d1s) / d1s) < PI_MIN


def declined(points) -> int:
    """How many ``(rates, d2, d3, variance)`` points certification declines."""
    count = 0
    for rates, d2, d3, variance in points:
        try:
            channel.certify_achievability(GaussianSource(variance), rates, d2, d3)
        except GaussRdError:
            count += 1
    return count


class Tally:
    """Attempted ops, failures by label and wrong outputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.wrong: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, i: int, label: str) -> None:
        """Count a failure; no timed input should fail, so it is wrong too."""
        self.failures[label] += 1
        self.wrong.append(f"op {i}: failed with {label}")

    @property
    def correct(self) -> bool:
        return not self.wrong


def run_op(wl, op, i: int, tally: Tally) -> float:
    """Run op ``i`` of workload ``wl`` with ``op`` (its ``call`` or
    ``trace_call``), check its output and return its latency in seconds."""
    tally.attempted += 1
    start = perf_counter()
    try:
        try:
            result = op(i)
        finally:
            elapsed = perf_counter() - start
        problem = wl.check(i, result)
    except OpFailed as exc:
        tally.fail(i, str(exc))
    except GaussRdError as exc:
        tally.fail(i, type(exc).__name__)
    except Exception as exc:  # any other exception is a wrong output
        tally.wrong.append(f"op {i}: {type(exc).__name__}: {exc}")
    else:
        if problem is not None:
            tally.wrong.append(problem)
    return elapsed


class Workload:
    """Defaults: the traced op is the plain op, no defect is probed, and
    nothing needs computing for the checks or closing.

    ``trace_rate`` is the number of ops per second of ``--seconds`` that a
    traced run makes, each once untraced and once traced.
    ``max_rate`` bounds the ops per second of an untraced run, several times
    the rate at the commit that defined this benchmark; it sizes the latency
    buffer, so it is fixed rather than measured.
    """

    def expect(self) -> None:
        pass

    def known_defects(self) -> list[str]:
        """One line per known defect this workload's inputs avoid, from a
        run of the defect's own inputs."""
        return []

    def warm_up(self, ops: int) -> None:
        # A failing op is counted when the timed loop reaches it.
        for i in range(ops):
            with contextlib.suppress(OpFailed, GaussRdError):
                self.call(i)

    def trace_call(self, i: int):
        return self.call(i)

    def fresh_interpreter_metrics(self) -> dict:
        """Per-layer metrics measured in fresh interpreters, if any."""
        return {}

    def close(self) -> None:
        pass


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


SCAN_FIELDS = ("evaluated", "skipped_infeasible", "boundary", "in_both",
               "out_both", "mismatch_count")


def scan_reference(source: GaussianSource, grid: regions.GridSpec) -> dict:
    """The report ``equivalence_scan`` must give, from a plain loop kept apart
    from it: the floors decide the skipped and boundary points, ``dr_bound``
    runs once per rate and side-target choice and ``rd_bound`` once per
    (r1, r4, d1, d2, d3, d4), the only arguments it takes."""
    tol = regions.BOUNDARY_RTOL
    sx2 = source.variance
    n4 = len(grid.d4_values)
    out = Counter()
    regime_counts = Counter()
    rd_cache: dict[tuple, list] = {}
    for r1, r4, d1, r2, r3, d2, d3 in itertools.product(
            grid.r1_values, grid.r4_values, grid.d1_values, grid.r2_values,
            grid.r3_values, grid.d2_values, grid.d3_values):
        d1s = sx2 * math.exp(-2.0 * r1)
        f2 = d1s * math.exp(-2.0 * r2)
        f3 = d1s * math.exp(-2.0 * r3)
        m1 = math.inf if d1 is UNCONSTRAINED else (d1 - d1s) / d1s
        base = min(m1, (d2 - f2) / f2, (d3 - f3) / f3)
        if base < -tol:
            out["skipped_infeasible"] += n4
            continue
        if base <= tol:
            out["boundary"] += n4
            continue
        key = (r1, r4, d1, d2, d3)
        if key not in rd_cache:
            rd_cache[key] = [
                (d4, rd.sum_bound, rd.regime.value) for d4, rd in
                ((d4, regions.rd_bound(source, r1, r4,
                                       DistortionTuple(d1, d2, d3, d4)))
                 for d4 in grid.d4_values)]
        d4_bound = regions.dr_bound(source, RateTuple(r1, r2, r3, r4),
                                    d1, d2, d3).d4_bound
        for d4, sum_bound, regime in rd_cache[key]:
            out["evaluated"] += 1
            regime_counts[regime] += 1
            m_dr = (d4 - d4_bound) / d4_bound
            m_rd = (r2 + r3) - sum_bound
            if abs(m_dr) <= tol or abs(m_rd) <= tol:
                out["boundary"] += 1
            elif (m_dr > 0) != (m_rd > 0):
                out["mismatch_count"] += 1
            else:
                out["in_both" if m_dr > 0 else "out_both"] += 1
    expected = {name: out[name] for name in SCAN_FIELDS}
    expected["regime_counts"] = dict(regime_counts)
    return expected


class Scan(Workload):
    """One ``equivalence_scan`` over a seeded grid of the ``default_grid``
    shape at k=8 (131,072 points)."""

    name = "scan"
    K = 8
    GRIDS = 8
    trace_rate = 0.4
    max_rate = 20

    def __init__(self, seed: int, state_dir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.cases = [self._case(rng) for _ in range(self.GRIDS)]
        self.points_per_op = self.cases[0][1].total_points()
        # Warm up on every third value of each axis of the first grid.
        source, grid = self.cases[0]
        small = dataclasses.replace(grid, **{
            f.name: getattr(grid, f.name)[::3] for f in dataclasses.fields(grid)})
        regions.equivalence_scan(source, small)

    def expect(self) -> None:
        self.expected = [scan_reference(source, grid)
                         for source, grid in self.cases]

    def _case(self, rng: np.random.Generator):
        variance = _log_uniform(rng, 1e-3, 1e3)
        k = self.K

        def jitter(x: float) -> float:
            return x * (1.0 + rng.uniform(-0.05, 0.05))

        def lin(lo: float, hi: float) -> tuple[float, ...]:
            lo, hi = jitter(lo), jitter(hi)
            return tuple(lo + (hi - lo) * i / (k - 1) for i in range(k))

        def geo(lo: float, hi: float) -> tuple[float, ...]:
            lo, hi = jitter(lo) * variance, jitter(hi) * variance
            return tuple(lo * (hi / lo) ** (i / (k - 1)) for i in range(k))

        # The default_grid axes; its zero endpoints stay at zero.
        grid = regions.GridSpec(
            r1_values=(0.0, jitter(0.35)),
            r4_values=(0.0, jitter(0.25)),
            d1_values=(UNCONSTRAINED,),
            d2_values=geo(0.16, 1.07),
            d3_values=geo(0.13, 0.97),
            r2_values=lin(0.12, 1.31),
            r3_values=lin(0.17, 1.13),
            d4_values=geo(0.015, 1.10),
        )
        return GaussianSource(variance), grid

    def call(self, i: int):
        source, grid = self.cases[i % len(self.cases)]
        return regions.equivalence_scan(source, grid)

    def check(self, i: int, report) -> str | None:
        grid = self.cases[i % len(self.cases)][1]
        if report.mismatch_count:
            return f"scan {i}: {report.mismatch_count} mismatches"
        classified = report.evaluated + report.skipped_infeasible + report.boundary
        if classified != grid.total_points():
            return (f"scan {i}: {classified} points classified of "
                    f"{grid.total_points()}")
        got = {name: getattr(report, name) for name in SCAN_FIELDS}
        got["regime_counts"] = report.regime_counts
        expected = self.expected[i % len(self.cases)]
        if got != expected:
            return f"scan {i}: report {got} differs from the reference {expected}"
        return None


class Point(Workload):
    """One operating point through ``dr_bound``, ``rd_bound`` at that bound,
    ``converse_witness`` and ``certify_achievability``."""

    name = "point"
    POOL = 1 << 14
    trace_rate = 1000.0
    max_rate = 20000

    def __init__(self, seed: int, state_dir: Path) -> None:
        # The points come from the library's own sampler on default_rng(seed),
        # so a draw can be reproduced from its seed and index.  Draws with a
        # small pi, where the known certification defect lies, are kept apart.
        rng = np.random.default_rng(seed)
        var_rng = np.random.default_rng([seed, 1])
        self.inputs = []
        self.near = []
        while len(self.inputs) < self.POOL:
            rates, d2, d3 = selfcheck.sample_feasible_instance(rng)
            variance = float(10.0 ** var_rng.uniform(-3.0, 3.0))
            point = (rates, d2 * variance, d3 * variance, variance)
            (self.near if near_degenerate(rates, d2, d3) else self.inputs).append(point)
        self.warm_up(64)

    def known_defects(self) -> list[str]:
        return [f"certify_achievability declined {declined(self.near)} of the "
                f"{len(self.near)} draws with pi < {PI_MIN:g} left out of the "
                "inputs"]

    def call(self, i: int):
        rates, d2, d3, variance = self.inputs[i % self.POOL]
        source = GaussianSource(variance)
        d1_star = variance * math.exp(-2.0 * rates.r1)
        stage = "dr_bound"
        try:
            bound = regions.dr_bound(source, rates, d1_star, d2, d3)
            stage = "rd_bound"
            rd = regions.rd_bound(source, rates.r1, rates.r4,
                                  DistortionTuple(d1_star, d2, d3, bound.d4_bound))
            stage = "converse_witness"
            witness = regions.converse_witness(source, rates, d1_star, d2, d3)
            stage = "certify_achievability"
            record = channel.certify_achievability(source, rates, d2, d3)
        except GaussRdError as exc:
            raise OpFailed(f"{stage}: {type(exc).__name__}") from exc
        return bound, rd, witness, record

    def check(self, i: int, result) -> str | None:
        rates, _, _, variance = self.inputs[i % self.POOL]
        bound, rd, witness, record = result
        if not record.matches_bound:
            return f"point {i}: certified distortions miss the bound"
        if rates.r2 + rates.r3 < rd.sum_bound - 1e-9:
            return (f"point {i}: r2 + r3 = {rates.r2 + rates.r3} below the "
                    f"sum bound {rd.sum_bound} at d4 = d4_bound")
        # The witness's penalty factor times the rate floor is the d4 bound.
        implied = variance * math.exp(-2.0 * rates.total()) * witness.t_bound
        if abs(implied - bound.d4_bound) > 1e-9 * bound.d4_bound:
            return f"point {i}: witness implies d4 {implied}, bound {bound.d4_bound}"
        return None


def _error_type(stderr: str) -> str:
    try:
        return json.loads(stderr)["error"]["type"]
    except (ValueError, KeyError, TypeError):
        return "unparsable-stderr"


class Cli(Workload):
    """One cold ``python -m gaussrd`` child, timed from spawn to exit."""

    name = "cli"
    SUBCOMMANDS = ("dr-bound", "rd-bound", "channel", "loss", "mdcr",
                   "sweep-wz-md", "discrete", "asymptote")
    #: The subcommands that need no numpy for their own work.
    SCALAR = ("dr-bound", "rd-bound", "loss", "mdcr", "asymptote",
              "sweep-wz-md")
    VARIANTS = 3
    FRESH_REPEATS = 5
    trace_rate = 90.0
    max_rate = 50

    def __init__(self, seed: int, state_dir: Path) -> None:
        # Children see this environment, thread pins included, and import
        # the package from the same source tree.
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        self.state_dir = state_dir
        self.files: list[Path] = []
        rng = np.random.default_rng(seed)
        self.argvs = [self._argv(sub, rng, v) for v in range(self.VARIANTS)
                      for sub in self.SUBCOMMANDS]
        self.warm_up(1)

    def expect(self) -> None:
        self.references = [self._in_process(argv) for argv in self.argvs]

    def known_defects(self) -> list[str]:
        code, _, error = self._in_process(
            ["asymptote", "--r-grid", ASYMPTOTE_DEFECT_GRID])
        return [f"asymptote --r-grid {ASYMPTOTE_DEFECT_GRID} exits {code} {error}"]

    def _argv(self, sub: str, rng: np.random.Generator, variant: int) -> list[str]:
        def f(x: float) -> str:
            return repr(float(x))

        var = _log_uniform(rng, 1e-3, 1e3)
        if sub in ("dr-bound", "rd-bound", "channel"):
            rates, d2, d3 = selfcheck.sample_feasible_instance(rng)
            while near_degenerate(rates, d2, d3):
                rates, d2, d3 = selfcheck.sample_feasible_instance(rng)
            r = ",".join(f(x) for x in rates.as_tuple())
            if sub == "dr-bound":
                return [sub, "--var", f(var), "--rates", r,
                        "--d", f"inf,{f(d2 * var)},{f(d3 * var)}"]
            if sub == "channel":
                return [sub, "--var", f(var), "--rates", r,
                        "--d", f"{f(d2 * var)},{f(d3 * var)}"]
            d4 = var * math.exp(-2.0 * rates.total()) * rng.uniform(1.0, 3.0)
            return [sub, "--var", f(var), "--r1", f(rates.r1), "--r4", f(rates.r4),
                    "--d", f"inf,{f(d2 * var)},{f(d3 * var)},{f(d4)}"]
        if sub == "loss":
            return [sub, "--var", f(var), "--alpha", f(rng.uniform(0.1, 1.0)),
                    "--r3", f(rng.uniform(0.1, 2.0)),
                    "--r1-grid", f"0:{f(rng.uniform(1.0, 3.0))}:50"]
        if sub == "mdcr":
            # a + b <= 1 keeps the re-budgeted system non-degenerate, and
            # rates of at least 0.8 nats keep both targets above their floors.
            a, b = rng.uniform(0.2, 0.5, size=2)
            return [sub, "--var", f(var), "--r2", f(rng.uniform(0.8, 1.5)),
                    "--r3", f(rng.uniform(0.8, 1.5)),
                    "--beta", f(rng.uniform(0.0, 1.0)),
                    "--d2", f(a * var), "--d3", f(b * var),
                    "--r4-grid", f"0:{f(rng.uniform(0.5, 2.0))}:20"]
        if sub == "sweep-wz-md":
            r1, r2, r3, r4 = rng.uniform(0.2, 1.5, size=4)
            return [sub, "--var", f(var), "--r1", f(r1), "--r2", f(r2),
                    "--r3", f(r3), "--r4", f(r4), "--points", "200"]
        if sub == "discrete":
            return [sub, "--pmf", str(self._pmf_file(rng, variant))]
        return [sub, "--r-grid", ASYMPTOTE_GRID]

    def _pmf_file(self, rng: np.random.Generator, variant: int) -> Path:
        sizes = (3, 2, 2, 2, 2)
        pmf = discrete.random_pmf(rng, sizes)
        payload = pmf.to_dict()
        payload["decoders"] = {
            "g1": rng.integers(0, 3, size=2).tolist(),
            "g2": rng.integers(0, 3, size=(2, 2)).tolist(),
            "g3": rng.integers(0, 3, size=(2, 2)).tolist(),
            "g4": rng.integers(0, 3, size=(2, 2, 2, 2)).tolist(),
        }
        payload["distortion_matrix"] = (1.0 - np.eye(3)).tolist()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        path = self.state_dir / f"pmf-{os.getpid()}-{variant}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        self.files.append(path)
        return path.resolve()

    def _in_process(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        error = _error_type(err.getvalue()) if code else ""
        return code, out.getvalue().encode("utf-8"), error

    def call(self, i: int):
        argv = self.argvs[i % len(self.argvs)]
        proc = subprocess.run([sys.executable, "-m", "gaussrd", *argv],
                              env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        error = ""
        if proc.returncode:
            error = _error_type(proc.stderr.decode("utf-8", "replace"))
        return proc.returncode, proc.stdout, error

    def trace_call(self, i: int):
        return self._in_process(self.argvs[i % len(self.argvs)])

    def check(self, i: int, result) -> str | None:
        code, out, error = result
        ref_code, ref_out, ref_error = self.references[i % len(self.references)]
        sub = self.argvs[i % len(self.argvs)][0]
        if (code, out, error) != (ref_code, ref_out, ref_error):
            return (f"cli {i} ({sub}): exit {code} {error} and {len(out)} "
                    f"stdout bytes differ from the in-process run (exit "
                    f"{ref_code} {ref_error}, {len(ref_out)} bytes)")
        if code:
            raise OpFailed(f"{sub}: exit {code} {error}")
        return None

    def fresh_ms(self, *args: str) -> float:
        """Median spawn-to-exit time of a fresh interpreter, in ms."""
        times = []
        for _ in range(self.FRESH_REPEATS):
            start = perf_counter()
            subprocess.run([sys.executable, *args], env=self.env, check=True,
                           stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
            times.append((perf_counter() - start) * 1e3)
        return statistics.median(times)

    def fresh_interpreter_metrics(self) -> dict:
        interpreter = self.fresh_ms("-c", "pass")
        return {
            "cli.interpreter_ms": interpreter,
            "cli.import_ms": self.fresh_ms("-c", "import gaussrd.cli") - interpreter,
            "cli.numpy_loaded": self.numpy_loaded(),
        }

    def numpy_loaded(self) -> int:
        """Scalar subcommands after which numpy is loaded, each in a fresh
        interpreter."""
        probe = ("import sys\nfrom gaussrd.cli import main\nmain(sys.argv[1:])\n"
                 "print('numpy' in sys.modules)")
        loaded = 0
        for sub in self.SCALAR:
            argv = self.argvs[self.SUBCOMMANDS.index(sub)]
            proc = subprocess.run([sys.executable, "-c", probe, *argv],
                                  env=self.env, check=True, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            loaded += proc.stdout.rstrip().rsplit("\n", 1)[-1] == "True"
        return loaded

    def close(self) -> None:
        for path in self.files:
            path.unlink(missing_ok=True)


def certified_draws(seed: int, grid_density: int) -> list:
    """The unit-variance points ``run_verification(seed=seed)`` certifies:
    its first ``25 * grid_density`` draws of the sampler, on the first child
    of ``SeedSequence(seed)``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0])
    return [(*selfcheck.sample_feasible_instance(rng), 1.0)
            for _ in range(25 * grid_density)]


class Verify(Workload):
    """One in-process ``run_verification(seed_i, grid_density=6)``."""

    name = "verify"
    SEEDS = 4
    #: Candidate verification seeds; ~3 in 4 certify a draw with a small pi.
    CANDIDATES = 256
    GRID_DENSITY = 6
    trace_rate = 0.75
    max_rate = 20

    def __init__(self, seed: int, state_dir: Path) -> None:
        # The first SEEDS candidates whose certified draws stay clear of the
        # known certification defect; the draws of the others are kept apart.
        self.seeds: list[int] = []
        self.near = []
        for candidate in np.random.SeedSequence(seed).generate_state(self.CANDIDATES):
            draws = certified_draws(int(candidate), self.GRID_DENSITY)
            near = [p for p in draws if near_degenerate(*p[:3])]
            self.near += near
            if not near:
                self.seeds.append(int(candidate))
                if len(self.seeds) == self.SEEDS:
                    break
        self.reports: dict[int, str] = {}
        self.warm_up(1)

    def known_defects(self) -> list[str]:
        return [f"certify_achievability declined {declined(self.near)} of the "
                f"{len(self.near)} draws with pi < {PI_MIN:g} in the skipped "
                "verification seeds"]

    def call(self, i: int):
        return selfcheck.run_verification(seed=self.seeds[i % self.SEEDS],
                                          grid_density=self.GRID_DENSITY)

    def check(self, i: int, report) -> str | None:
        seed = self.seeds[i % self.SEEDS]
        if not report["all_passed"]:
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            return f"verify seed {seed}: checks failed: {failed}"
        text = json.dumps(report, sort_keys=True)
        if self.reports.setdefault(seed, text) != text:
            return f"verify seed {seed}: a repeated run gave another report"
        return None


WORKLOADS = {cls.name: cls for cls in (Scan, Point, Cli, Verify)}
