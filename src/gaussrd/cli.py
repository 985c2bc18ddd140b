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
import sys
from dataclasses import asdict
from typing import NamedTuple

from .analysis import (AsymptoticConfig, FixedChannelConfig, MdcrSplit,
                       asymptote_convergence, fixed_channel_loss, mdcr_compare,
                       wz_md_sweep)
from .errors import GaussRdError
from .model import (DEFAULT_GRID_DENSITY, DEFAULT_SEED, UNCONSTRAINED,
                    DistortionTuple, GaussianSource, RateTuple, RateUnit,
                    Unconstrained, convert_rate)
from .regions import dr_bound, rd_bound

# ``channel``, ``discrete`` and ``selfcheck`` load numpy; only the commands
# that use them import them, so the scalar commands start without it.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3
EXIT_INTERNAL = 4

_UNCONSTRAINED_TOKENS = {"inf", "unconstrained"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures leave a JSON error and exit
    with code 1, as every other usage error does."""

    def error(self, message):
        _emit_error(UsageError(f"{self.prog}: {message}"))
        raise SystemExit(EXIT_USAGE)


def _fmt(x: float) -> str:
    """Fixed 12-significant-digit scientific notation for CSV cells."""
    return f"{x:.11e}"


def _emit_csv(header: list[str], rows: list[list[float]]) -> None:
    out = [",".join(header)]
    out.extend(",".join(_fmt(v) for v in row) for row in rows)
    sys.stdout.write("\n".join(out) + "\n")


def _sanitize(value):
    """Make a result JSON-safe: infinities become null, and an option value
    (:data:`UNCONSTRAINED`, a unit) the string a scenario file states."""
    if isinstance(value, float):
        return None if math.isinf(value) else value
    if isinstance(value, (Unconstrained, RateUnit)):
        return value.value
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


def _read(kind: str, path: str, stdin: bool = False) -> str:
    """The text of the ``kind`` file at ``path``, or of stdin, decoded
    strictly as UTF-8."""
    try:
        if stdin:
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {kind} file {path}: {exc}") from exc


def _load_scenario(path: str | None) -> dict:
    if path is None:
        return {}
    text = _read("scenario", path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError(f"scenario file {path} must hold a JSON object")
    return payload


def _as_float(key: str, value) -> float:
    # float() would read a scenario's JSON true as 1.0.
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise UsageError(f"option --{key} expects a number, got {value!r}")


def _at_least(low: int):
    """Converter for an integer no smaller than ``low``."""
    def convert(key: str, value) -> int:
        # int() would truncate a scenario's 2.7 and read true (a bool) as 1.
        if isinstance(value, str) or type(value) is int:
            try:
                number = int(value)
            except ValueError:
                pass
            else:
                if number < low:
                    raise UsageError(f"option --{key} must be at least {low}, "
                                     f"got {number}")
                return number
        raise UsageError(f"option --{key} expects an integer, got {value!r}")
    return convert


def _as_path(key: str, value) -> str:
    # A JSON number or list from a scenario file must not reach open().
    if not isinstance(value, str):
        raise UsageError(f"option --{key} expects a path, got {value!r}")
    return value


def _as_floats(count: int | None = None, unconstrained_first: bool = False):
    """Converter for a comma list (or JSON list) of ``count`` numbers."""
    def convert(key: str, value) -> list:
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
            if (unconstrained_first and i == 0 and isinstance(part, str)
                    and part.lower() in _UNCONSTRAINED_TOKENS):
                out.append(UNCONSTRAINED)
                continue
            out.append(_as_float(key, part))
        return out
    return convert


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
    return _as_floats()(key, value)


def _as_unit(key: str, token) -> RateUnit:
    try:
        return RateUnit(str(token).lower())
    except ValueError as exc:
        raise UsageError(f"unknown unit {token!r}; use nats or bits") from exc


def _to_nats(value: float, unit: RateUnit) -> float:
    return convert_rate(value, unit, RateUnit.NATS)


def _from_nats(value: float, unit: RateUnit) -> float:
    return convert_rate(value, RateUnit.NATS, unit)


# ---------------------------------------------------------------------------
# Option table
# ---------------------------------------------------------------------------

class _Opt(NamedTuple):
    """One command-line option, which a scenario file may also set.

    ``convert(flag, value)`` is the one check and conversion of the value,
    whether it comes from the flag (a string), a scenario file or the
    default.  A ``None`` default makes the option required.
    """

    flag: str
    convert: object
    default: object
    help: str | None = None
    metavar: str | None = None


_UNIT = _Opt("unit", _as_unit, "nats", "unit for rate inputs and outputs (default nats)",
             "{nats,bits}")
_GRID_HELP = "start:stop:count or comma list"

#: (name, help, echo the inputs in the JSON output, options).  Every
#: subcommand also accepts ``--scenario``, and each that reads rates lists
#: ``--unit`` last; the options are resolved, and echoed, in this order.
_COMMANDS = (
    ("dr-bound", "central-distortion bound at fixed rates", True, (
        _Opt("var", _as_float, 1.0, "source variance (default 1)"),
        _Opt("rates", _as_floats(4), None, "r1,r2,r3,r4"),
        _Opt("d", _as_floats(3, unconstrained_first=True), None,
             "d1,d2,d3 (d1 may be 'inf' for unconstrained)"),
        _UNIT)),
    ("rd-bound", "rate requirements at fixed distortions", True, (
        _Opt("var", _as_float, 1.0),
        _Opt("r1", _as_float, None),
        _Opt("r4", _as_float, None),
        _Opt("d", _as_floats(4, unconstrained_first=True), None,
             "d1,d2,d3,d4 (d1 may be 'inf')"),
        _UNIT)),
    ("channel", "forward construction and certification", True, (
        _Opt("var", _as_float, 1.0),
        _Opt("rates", _as_floats(4), None, "r1,r2,r3,r4"),
        _Opt("d", _as_floats(2), None, "d2,d3"),
        _UNIT)),
    ("discrete", "finite-alphabet bounds from a pmf file", True, (
        _Opt("pmf", _as_path, None, "path to the JSON configuration, or - for stdin"),
        _UNIT)),
    ("loss", "fixed-channel distortion penalty sweep", False, (
        _Opt("var", _as_float, 1.0),
        _Opt("alpha", _as_float, 1.0),
        _Opt("r3", _as_float, None),
        _Opt("r1-grid", _as_grid, None, _GRID_HELP),
        _UNIT)),
    ("mdcr", "conditional-refinement vs re-budgeted comparison", False, (
        _Opt("var", _as_float, 1.0),
        _Opt("r2", _as_float, None),
        _Opt("r3", _as_float, None),
        _Opt("beta", _as_float, 0.5),
        _Opt("d2", _as_float, None),
        _Opt("d3", _as_float, None),
        _Opt("r4-grid", _as_grid, None, _GRID_HELP),
        _UNIT)),
    ("asymptote", "high-rate asymptote convergence table", False, (
        _Opt("b", _as_float, 1.0),
        _Opt("eta", _as_float, 0.0),
        _Opt("r-grid", _as_grid, None, _GRID_HELP),
        _UNIT)),
    ("sweep-wz-md",
     "sweep the second user's target: binning vs plain two-description", False, (
         _Opt("var", _as_float, 1.0),
         _Opt("r1", _as_float, 1.0),
         _Opt("r2", _as_float, 0.5),
         _Opt("r3", _as_float, 1.0),
         _Opt("r4", _as_float, 0.5),
         _Opt("points", _at_least(2), 200),
         _UNIT)),
    ("verify", "seeded end-to-end self-verification", False, (
        _Opt("var", _as_float, 1.0),
        # numpy's SeedSequence takes no negative seed.
        _Opt("seed", _at_least(0), DEFAULT_SEED, "random seed (default 12345)"),
        _Opt("grid-density", _at_least(2), DEFAULT_GRID_DENSITY,
             "points per swept grid axis (default 6)"))),
)


def _resolve(args: argparse.Namespace, opts: tuple[_Opt, ...]) -> dict:
    """Each option's value from its flag, else the scenario, else its
    default, converted.  A scenario key that names none of the options is
    refused, not dropped."""
    scenario = _load_scenario(args.scenario)
    flags = {opt.flag for opt in opts}
    unknown = [key for key in scenario if key not in flags]
    if unknown:
        raise UsageError(f"scenario file {args.scenario} sets unknown options: "
                         f"{', '.join(map(repr, unknown))}")
    values: dict = {}
    for opt in opts:
        value = getattr(args, opt.flag.replace("-", "_"))
        if value is None:
            if opt.flag in scenario:
                value = scenario[opt.flag]
            elif opt.default is None:
                raise UsageError(f"missing required option --{opt.flag}")
            else:
                value = opt.default
        values[opt.flag] = opt.convert(opt.flag, value)
    return values


# ---------------------------------------------------------------------------
# Subcommands: each takes the resolved options and returns a JSON payload
# (a dict) or a CSV table (header, rows).
# ---------------------------------------------------------------------------

def cmd_dr_bound(o: dict) -> dict:
    rates = RateTuple(*(_to_nats(r, o["unit"]) for r in o["rates"]))
    source = GaussianSource(o["var"])
    d1, d2, d3 = o["d"]
    result = dr_bound(source, rates, d1, d2, d3)
    return {
        "d1_star": result.d1_star,
        "d2_hat": result.d2_hat,
        "d3_hat": result.d3_hat,
        "pi": result.pi,
        "delta": result.delta,
        "regime": result.regime.value,
        "d4_bound": result.d4_bound,
    }


def cmd_rd_bound(o: dict) -> dict:
    unit = o["unit"]
    source = GaussianSource(o["var"])
    dist = DistortionTuple(*o["d"])
    result = rd_bound(source, _to_nats(o["r1"], unit), _to_nats(o["r4"], unit), dist)
    return {
        "r1_star": _from_nats(result.r1_star, unit),
        "r2_bound": _from_nats(result.r2_bound, unit),
        "r3_bound": _from_nats(result.r3_bound, unit),
        "d4_hat": result.d4_hat,
        "sum_bound": _from_nats(result.sum_bound, unit),
        "excess": _from_nats(result.excess, unit),
        "regime": result.regime.value,
    }


def cmd_channel(o: dict) -> dict:
    from .channel import certify_achievability

    rates = RateTuple(*(_to_nats(r, o["unit"]) for r in o["rates"]))
    source = GaussianSource(o["var"])
    record = certify_achievability(source, rates, *o["d"])
    adjustment = record.adjustment
    return {
        "channel": asdict(record.channel),
        "adjustment": None if adjustment is None else asdict(adjustment),
        "achieved": asdict(record.achieved),
        "regime": record.bound.regime.value,
        "d4_bound": record.bound.d4_bound,
        "matches_bound": record.matches_bound,
    }


def cmd_discrete(o: dict) -> dict:
    from .discrete import eval_distortions, eval_region_bounds, load_configuration

    unit, path = o["unit"], o["pmf"]
    text = _read("pmf", path, stdin=path == "-")
    try:
        pmf, decoders = load_configuration(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"pmf file {path} is not valid JSON: {exc}") from exc
    bounds = eval_region_bounds(pmf)
    distortions = None
    if decoders is not None:
        distortions = dict(zip(("d1", "d2", "d3", "d4"),
                               eval_distortions(pmf, decoders)))
    return {
        "alphabet_sizes": list(pmf.alphabet_sizes),
        "bounds": {k: _from_nats(v, unit) for k, v in asdict(bounds).items()},
        "distortions": distortions,
    }


def cmd_loss(o: dict) -> tuple:
    unit = o["unit"]
    source = GaussianSource(o["var"])
    config = FixedChannelConfig(o["alpha"])
    rows = []
    for r1_in in o["r1-grid"]:
        loss = fixed_channel_loss(source, _to_nats(r1_in, unit),
                                  _to_nats(o["r3"], unit), config)
        rows.append([r1_in, loss.ratio, loss.d2_floor])
    return ["r1", "ratio", "d2_floor"], rows


def cmd_mdcr(o: dict) -> tuple:
    unit = o["unit"]
    source = GaussianSource(o["var"])
    split = MdcrSplit(o["beta"])
    rows = []
    for r4_in in o["r4-grid"]:
        cmp_ = mdcr_compare(source, _to_nats(o["r2"], unit), _to_nats(o["r3"], unit),
                            _to_nats(r4_in, unit), split, o["d2"], o["d3"])
        rows.append([r4_in, cmp_.d4_mdcr, cmp_.d4_md, cmp_.ratio])
    return ["r4", "d4_mdcr", "d4_md", "ratio"], rows


def cmd_asymptote(o: dict) -> tuple:
    grid_in = o["r-grid"]
    grid = [_to_nats(r, o["unit"]) for r in grid_in]
    config = AsymptoticConfig(o["b"], o["eta"])
    rows = []
    for r_in, row in zip(grid_in, asymptote_convergence(config, grid)):
        rows.append([r_in, row.exact, row.asymptote, row.ratio])
    return ["r_prime", "exact", "asymptote", "ratio"], rows


def cmd_sweep_wz_md(o: dict) -> tuple:
    source = GaussianSource(o["var"])
    rates = RateTuple(*(_to_nats(o[k], o["unit"]) for k in ("r1", "r2", "r3", "r4")))
    rows = [[row.d3, row.d4_wz, row.d4_md, row.gap]
            for row in wz_md_sweep(source, rates, o["points"])]
    return ["d3", "d4_wz", "d4_md", "gap"], rows


def cmd_verify(o: dict) -> dict:
    from . import selfcheck

    return selfcheck.run_verification(variance=o["var"], seed=o["seed"],
                                      grid_density=o["grid-density"])


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="gaussrd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)
    for name, help_, echo, opts in _COMMANDS:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--scenario", help="JSON file of option defaults")
        # Every value reaches _resolve as a string; its converter checks it.
        for opt in opts:
            p.add_argument(f"--{opt.flag}", help=opt.help, metavar=opt.metavar)
        # The command function is looked up here, not when the table is
        # built, so a replaced module attribute takes effect.
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")],
                       command=(name, echo, opts))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    name, echo, opts = args.command
    try:
        options = _resolve(args, opts)
        out = args.func(options)
        if isinstance(out, tuple):
            _emit_csv(*out)
            return EXIT_OK
        payload = {"command": name}
        if echo:
            payload["inputs"] = options
        _emit_json({**payload, **out})
        # Only the verify report carries ``all_passed``.
        return EXIT_OK if out.get("all_passed", True) else EXIT_VERIFY_FAILED
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
