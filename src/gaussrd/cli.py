"""Command-line interface.

Every subcommand prints JSON (single results) or CSV (sweeps) to stdout and
nothing else, so output can be piped straight into other tools.  Exit codes:
0 success, 1 usage or parse error, 2 infeasible or out-of-regime input,
3 self-verification failure, 4 internal error.  Error details go to stderr
as JSON.

Each subcommand accepts ``--scenario FILE`` pointing at a JSON object whose
keys mirror the long option names; explicit flags win over scenario values.
The ``inputs`` block echoed in JSON outputs is itself a valid scenario, so a
result can be reproduced by feeding it back.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .analysis import (AsymptoticConfig, FixedChannelConfig, MdcrSplit,
                       asymptote_convergence, fixed_channel_loss,
                       high_rate_asymptote, mdcr_compare, wz_md_sweep)
from .channel import certify_achievability
from .discrete import eval_distortions, eval_region_bounds, load_configuration
from .errors import GaussRdError
from .model import (UNCONSTRAINED, DistortionTuple, GaussianSource, RateTuple,
                    RateUnit, convert_rate)
from .regions import dr_bound, rd_bound
from .selfcheck import DEFAULT_GRID_DENSITY, DEFAULT_SEED, run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3
EXIT_INTERNAL = 4

_UNCONSTRAINED_TOKENS = {"inf", "unconstrained", "unc", "none"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fmt(x: float) -> str:
    """Fixed 12-significant-digit scientific notation for CSV cells."""
    return f"{x:.11e}"


def _emit_csv(header: list[str], rows: list[list[float]]) -> None:
    out = [",".join(header)]
    out.extend(",".join(_fmt(v) for v in row) for row in rows)
    sys.stdout.write("\n".join(out) + "\n")


def _sanitize(value):
    """Make a result JSON-safe; infinities become null."""
    if isinstance(value, float):
        return None if math.isinf(value) else value
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(_sanitize(payload), indent=2) + "\n")


def _emit_error(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(payload, indent=2) + "\n")


def _load_scenario(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError(f"scenario file {path} must hold a JSON object")
    return payload


def _pick(args: argparse.Namespace, scenario: dict, key: str, default=None):
    value = getattr(args, key.replace("-", "_"))
    if value is not None:
        return value
    if key in scenario:
        return scenario[key]
    if default is None:
        raise UsageError(f"missing required option --{key}")
    return default


def _as_float(key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"option --{key} expects a number, got {value!r}") from exc


def _as_float_list(key: str, value, count: int | None,
                   allow_unconstrained_first: bool = False) -> list:
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",")]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise UsageError(f"option --{key} expects a comma list, got {value!r}")
    if count is not None and len(parts) != count:
        raise UsageError(f"option --{key} expects {count} values, got {len(parts)}")
    out = []
    for i, part in enumerate(parts):
        if (allow_unconstrained_first and i == 0 and isinstance(part, str)
                and part.lower() in _UNCONSTRAINED_TOKENS):
            out.append(UNCONSTRAINED)
            continue
        out.append(_as_float(key, part))
    return out


def _as_grid(key: str, value) -> list[float]:
    if isinstance(value, str) and ":" in value:
        pieces = value.split(":")
        if len(pieces) != 3:
            raise UsageError(f"option --{key} grid must be start:stop:count")
        start = _as_float(key, pieces[0])
        stop = _as_float(key, pieces[1])
        try:
            n = int(pieces[2])
        except ValueError as exc:
            raise UsageError(f"option --{key} count must be an integer") from exc
        if n < 2:
            raise UsageError(f"option --{key} count must be at least 2")
        return [start + (stop - start) * i / (n - 1) for i in range(n)]
    return [float(v) for v in _as_float_list(key, value, None)]


def _unit(args: argparse.Namespace, scenario: dict) -> RateUnit:
    token = _pick(args, scenario, "unit", "nats")
    try:
        return RateUnit(str(token).lower())
    except ValueError as exc:
        raise UsageError(f"unknown unit {token!r}; use nats or bits") from exc


def _to_nats(value: float, unit: RateUnit) -> float:
    return convert_rate(value, unit, RateUnit.NATS)


def _from_nats(value: float, unit: RateUnit) -> float:
    return convert_rate(value, RateUnit.NATS, unit)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_dr_bound(args) -> int:
    scenario = _load_scenario(args.scenario)
    unit = _unit(args, scenario)
    var = _as_float("var", _pick(args, scenario, "var", 1.0))
    rates_in = _as_float_list("rates", _pick(args, scenario, "rates"), 4)
    d_in = _as_float_list("d", _pick(args, scenario, "d"), 3,
                          allow_unconstrained_first=True)
    rates = RateTuple(*(_to_nats(r, unit) for r in rates_in))
    source = GaussianSource(var)
    d1 = d_in[0]
    result = dr_bound(source, rates, d1, d_in[1], d_in[2])
    _emit_json({
        "command": "dr-bound",
        "inputs": {
            "var": var,
            "rates": rates_in,
            "d": ["unconstrained" if d1 is UNCONSTRAINED else d1, d_in[1], d_in[2]],
            "unit": unit.value,
        },
        "d1_star": result.d1_star,
        "d2_hat": result.d2_hat,
        "d3_hat": result.d3_hat,
        "pi": result.pi,
        "delta": result.delta,
        "regime": result.regime.value,
        "d4_bound": result.d4_bound,
    })
    return EXIT_OK


def cmd_rd_bound(args) -> int:
    scenario = _load_scenario(args.scenario)
    unit = _unit(args, scenario)
    var = _as_float("var", _pick(args, scenario, "var", 1.0))
    r1_in = _as_float("r1", _pick(args, scenario, "r1"))
    r4_in = _as_float("r4", _pick(args, scenario, "r4"))
    d_in = _as_float_list("d", _pick(args, scenario, "d"), 4,
                          allow_unconstrained_first=True)
    source = GaussianSource(var)
    dist = DistortionTuple(d_in[0], d_in[1], d_in[2], d_in[3])
    result = rd_bound(source, _to_nats(r1_in, unit), _to_nats(r4_in, unit), dist)
    _emit_json({
        "command": "rd-bound",
        "inputs": {
            "var": var,
            "r1": r1_in,
            "r4": r4_in,
            "d": ["unconstrained" if d_in[0] is UNCONSTRAINED else d_in[0],
                  d_in[1], d_in[2], d_in[3]],
            "unit": unit.value,
        },
        "r1_star": _from_nats(result.r1_star, unit),
        "r2_bound": _from_nats(result.r2_bound, unit),
        "r3_bound": _from_nats(result.r3_bound, unit),
        "d4_hat": result.d4_hat,
        "sum_bound": _from_nats(result.sum_bound, unit),
        "excess": _from_nats(result.excess, unit),
        "regime": result.regime.value,
    })
    return EXIT_OK


def cmd_channel(args) -> int:
    scenario = _load_scenario(args.scenario)
    unit = _unit(args, scenario)
    var = _as_float("var", _pick(args, scenario, "var", 1.0))
    rates_in = _as_float_list("rates", _pick(args, scenario, "rates"), 4)
    d_in = _as_float_list("d", _pick(args, scenario, "d"), 2)
    rates = RateTuple(*(_to_nats(r, unit) for r in rates_in))
    source = GaussianSource(var)
    record = certify_achievability(source, rates, d_in[0], d_in[1])
    ch = record.channel
    adjustment = None
    if record.adjustment is not None:
        adjustment = {"d2_prime": record.adjustment.d2_prime,
                      "d3_prime": record.adjustment.d3_prime}
    _emit_json({
        "command": "channel",
        "inputs": {
            "var": var,
            "rates": rates_in,
            "d": d_in,
            "unit": unit.value,
        },
        "channel": {
            "sigma1_sq": ch.sigma1_sq,
            "sigma2_sq": ch.sigma2_sq,
            "sigma3_sq": ch.sigma3_sq,
            "sigma4_sq": ch.sigma4_sq,
            "rho": ch.rho,
            "d4_star": ch.d4_star,
        },
        "adjustment": adjustment,
        "achieved": {
            "d1": record.achieved.d1,
            "d2": record.achieved.d2,
            "d3": record.achieved.d3,
            "d4": record.achieved.d4,
        },
        "regime": record.bound.regime.value,
        "d4_bound": record.bound.d4_bound,
        "matches_bound": record.matches_bound,
    })
    return EXIT_OK


def cmd_discrete(args) -> int:
    scenario = _load_scenario(args.scenario)
    unit = _unit(args, scenario)
    path = _pick(args, scenario, "pmf")
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read pmf file {path}: {exc}") from exc
    try:
        pmf, decoders = load_configuration(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"pmf file {path} is not valid JSON: {exc}") from exc
    bounds = eval_region_bounds(pmf)
    payload = {
        "command": "discrete",
        "inputs": {"pmf": path, "unit": unit.value},
        "alphabet_sizes": list(pmf.alphabet_sizes),
        "bounds": {
            "b1": _from_nats(bounds.b1, unit),
            "b12": _from_nats(bounds.b12, unit),
            "b13": _from_nats(bounds.b13, unit),
            "b123": _from_nats(bounds.b123, unit),
            "b1234": _from_nats(bounds.b1234, unit),
        },
        "distortions": None,
    }
    if decoders is not None:
        d1, d2, d3, d4 = eval_distortions(pmf, decoders)
        payload["distortions"] = {"d1": d1, "d2": d2, "d3": d3, "d4": d4}
    _emit_json(payload)
    return EXIT_OK


def cmd_loss(args) -> int:
    scenario = _load_scenario(args.scenario)
    unit = _unit(args, scenario)
    var = _as_float("var", _pick(args, scenario, "var", 1.0))
    alpha = _as_float("alpha", _pick(args, scenario, "alpha", 1.0))
    r3_in = _as_float("r3", _pick(args, scenario, "r3"))
    grid_in = _as_grid("r1-grid", _pick(args, scenario, "r1-grid"))
    source = GaussianSource(var)
    config = FixedChannelConfig(alpha)
    rows = []
    for r1_in in grid_in:
        loss = fixed_channel_loss(source, _to_nats(r1_in, unit),
                                  _to_nats(r3_in, unit), config)
        rows.append([r1_in, loss.ratio, loss.d2_floor])
    _emit_csv(["r1", "ratio", "d2_floor"], rows)
    return EXIT_OK


def cmd_mdcr(args) -> int:
    scenario = _load_scenario(args.scenario)
    unit = _unit(args, scenario)
    var = _as_float("var", _pick(args, scenario, "var", 1.0))
    r2_in = _as_float("r2", _pick(args, scenario, "r2"))
    r3_in = _as_float("r3", _pick(args, scenario, "r3"))
    beta = _as_float("beta", _pick(args, scenario, "beta", 0.5))
    d2 = _as_float("d2", _pick(args, scenario, "d2"))
    d3 = _as_float("d3", _pick(args, scenario, "d3"))
    grid_in = _as_grid("r4-grid", _pick(args, scenario, "r4-grid"))
    source = GaussianSource(var)
    split = MdcrSplit(beta)
    rows = []
    for r4_in in grid_in:
        cmp_ = mdcr_compare(source, _to_nats(r2_in, unit), _to_nats(r3_in, unit),
                            _to_nats(r4_in, unit), split, d2, d3)
        rows.append([r4_in, cmp_.d4_mdcr, cmp_.d4_md, cmp_.ratio])
    _emit_csv(["r4", "d4_mdcr", "d4_md", "ratio"], rows)
    return EXIT_OK


def cmd_asymptote(args) -> int:
    scenario = _load_scenario(args.scenario)
    unit = _unit(args, scenario)
    b = _as_float("b", _pick(args, scenario, "b", 1.0))
    eta = _as_float("eta", _pick(args, scenario, "eta", 0.0))
    eta1 = _as_float("eta1", _pick(args, scenario, "eta1", eta if eta > 0 else 0.0))
    grid_in = _as_grid("r-grid", _pick(args, scenario, "r-grid"))
    grid = [_to_nats(r, unit) for r in grid_in]
    config = AsymptoticConfig(max(grid[0], 1.0), b, eta, eta1)
    rows = []
    for r_in, row in zip(grid_in, asymptote_convergence(config, grid)):
        rows.append([r_in, row.exact, row.asymptote, row.ratio])
    _emit_csv(["r_prime", "exact", "asymptote", "ratio"], rows)
    return EXIT_OK


def cmd_sweep_wz_md(args) -> int:
    scenario = _load_scenario(args.scenario)
    unit = _unit(args, scenario)
    var = _as_float("var", _pick(args, scenario, "var", 1.0))
    r1 = _as_float("r1", _pick(args, scenario, "r1", 1.0))
    r2 = _as_float("r2", _pick(args, scenario, "r2", 0.5))
    r3 = _as_float("r3", _pick(args, scenario, "r3", 1.0))
    r4 = _as_float("r4", _pick(args, scenario, "r4", 0.5))
    points = int(_pick(args, scenario, "points", 200))
    source = GaussianSource(var)
    rates = RateTuple(*( _to_nats(r, unit) for r in (r1, r2, r3, r4)))
    rows = [[row.d3, row.d4_wz, row.d4_md, row.gap]
            for row in wz_md_sweep(source, rates, points)]
    _emit_csv(["d3", "d4_wz", "d4_md", "gap"], rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    scenario = _load_scenario(args.scenario)
    var = _as_float("var", _pick(args, scenario, "var", 1.0))
    env_seed = os.environ.get("GAUSSRD_SEED")
    default_seed = int(env_seed) if env_seed is not None else DEFAULT_SEED
    seed = int(_pick(args, scenario, "seed", default_seed))
    density = int(_pick(args, scenario, "grid-density", DEFAULT_GRID_DENSITY))
    if density < 2:
        raise UsageError(f"grid density must be at least 2, got {density}")
    report = run_verification(variance=var, seed=seed, grid_density=density)
    _emit_json({"command": "verify", **report})
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="gaussrd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    def add(name: str, func, help_: str, aliases=()):
        p = sub.add_parser(name, help=help_, aliases=list(aliases))
        p.add_argument("--scenario", help="JSON file of option defaults")
        p.add_argument("--unit", choices=["nats", "bits"],
                       help="unit for rate inputs and outputs (default nats)")
        p.set_defaults(func=func)
        return p

    p = add("dr-bound", cmd_dr_bound, "central-distortion bound at fixed rates")
    p.add_argument("--var", type=float, help="source variance (default 1)")
    p.add_argument("--rates", help="r1,r2,r3,r4")
    p.add_argument("--d", help="d1,d2,d3 (d1 may be 'inf' for unconstrained)")

    p = add("rd-bound", cmd_rd_bound, "rate requirements at fixed distortions")
    p.add_argument("--var", type=float)
    p.add_argument("--r1", type=float)
    p.add_argument("--r4", type=float)
    p.add_argument("--d", help="d1,d2,d3,d4 (d1 may be 'inf')")

    p = add("channel", cmd_channel, "forward construction and certification")
    p.add_argument("--var", type=float)
    p.add_argument("--rates", help="r1,r2,r3,r4")
    p.add_argument("--d", help="d2,d3")

    p = add("discrete", cmd_discrete, "finite-alphabet bounds from a pmf file")
    p.add_argument("--pmf", help="path to the JSON configuration, or - for stdin")

    p = add("loss", cmd_loss, "fixed-channel distortion penalty sweep")
    p.add_argument("--var", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--r3", type=float)
    p.add_argument("--r1-grid", help="start:stop:count or comma list")

    p = add("mdcr", cmd_mdcr, "conditional-refinement vs re-budgeted comparison")
    p.add_argument("--var", type=float)
    p.add_argument("--r2", type=float)
    p.add_argument("--r3", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--d2", type=float)
    p.add_argument("--d3", type=float)
    p.add_argument("--r4-grid", help="start:stop:count or comma list")

    p = add("asymptote", cmd_asymptote, "high-rate asymptote convergence table")
    p.add_argument("--b", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--eta1", type=float)
    p.add_argument("--r-grid", help="start:stop:count or comma list")

    p = add("sweep-wz-md", cmd_sweep_wz_md,
            "sweep the second user's target: binning vs plain two-description",
            aliases=("sweep-fig3",))
    p.add_argument("--var", type=float)
    p.add_argument("--r1", type=float)
    p.add_argument("--r2", type=float)
    p.add_argument("--r3", type=float)
    p.add_argument("--r4", type=float)
    p.add_argument("--points", type=int)

    p = add("verify", cmd_verify, "seeded end-to-end self-verification")
    p.add_argument("--var", type=float)
    p.add_argument("--seed", type=int,
                   help="defaults to $GAUSSRD_SEED, then 12345")
    p.add_argument("--grid-density", type=int,
                   help="points per swept grid axis (default 6)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        _emit_error(exc)
        return EXIT_USAGE
    except (GaussRdError, ValueError) as exc:
        _emit_error(exc)
        return EXIT_INFEASIBLE
    except Exception as exc:
        # Anything else is a defect in this package, not in the input; it
        # still leaves as a JSON error rather than a traceback.
        _emit_error(exc)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
