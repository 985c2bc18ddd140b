"""End-to-end tests of the command-line interface via subprocess."""

from __future__ import annotations

import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussrd.cli as cli
import oracle

from conftest import GOLDEN_D4_BOUND, GOLDEN_RHO

#: Every CSV cell is printed in fixed 12-significant-digit scientific notation.
CSV_CELL = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


def run_python(*argv: str, stdin: str | None = None, env: dict | None = None):
    """``python argv...`` in a fresh interpreter that imports this package."""
    full_env = dict(os.environ)
    paths = [str(Path(cli.__file__).resolve().parents[1]),
             full_env.get("PYTHONPATH", "")]
    full_env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    # A value of None removes the variable.
    for key, value in (env or {}).items():
        if value is None:
            full_env.pop(key, None)
        else:
            full_env[key] = value
    proc = subprocess.run(
        [sys.executable, *argv],
        input=stdin, capture_output=True, text=True, env=full_env,
    )
    return proc


def run_cli(*argv: str, stdin: str | None = None, env: dict | None = None):
    """Invoke the CLI in a fresh interpreter that imports this package."""
    return run_python("-m", "gaussrd", *argv, stdin=stdin, env=env)


def parse_csv(stdout: str):
    lines = stdout.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        for cell in row:
            assert CSV_CELL.match(cell), f"malformed CSV cell {cell!r}"
    values = [[float(c) for c in row] for row in rows]
    return header, values


# ---------------------------------------------------------------------------
# dr-bound
# ---------------------------------------------------------------------------

def test_dr_bound_reference_point():
    proc = run_cli("dr-bound", "--rates", "0,0.5,0.5,0", "--d", "inf,0.45,0.45")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["command"] == "dr-bound"
    assert payload["d4_bound"] == GOLDEN_D4_BOUND
    assert payload["regime"] == "non-degenerate"
    assert payload["inputs"]["d"][0] == "unconstrained"


def test_dr_bound_zero_rates_trivial_point():
    proc = run_cli("dr-bound", "--rates", "0,0,0,0", "--d", "1,1,1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["d4_bound"] == 1.0


def test_dr_bound_bits_unit_matches_nats_run():
    nats = json.loads(run_cli(
        "dr-bound", "--rates", "0,0.5,0.5,0", "--d", "inf,0.45,0.45").stdout)
    half_bit = repr(0.5 / math.log(2.0))
    bits = json.loads(run_cli(
        "dr-bound", "--unit", "bits",
        "--rates", f"0,{half_bit},{half_bit},0", "--d", "inf,0.45,0.45").stdout)
    assert bits["d4_bound"] == pytest.approx(nats["d4_bound"], rel=1e-12)
    assert bits["inputs"]["unit"] == "bits"


def test_dr_bound_output_is_deterministic():
    args = ("dr-bound", "--rates", "0.1,0.6,0.7,0.2", "--d", "inf,0.3,0.35")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


#: An argv of each subcommand that echoes its inputs; ``{pmf}`` stands for
#: a pmf file.
ECHO_ARGVS = [
    ("dr-bound", "--var", "2.0", "--rates", "0.2,0.6,0.5,0.1", "--d", "inf,0.6,0.7"),
    ("rd-bound", "--unit", "bits", "--var", "3.0", "--r1", "0.1", "--r4", "0.2",
     "--d", "2.9,1.5,1.6,0.3"),
    ("channel", "--var", "2.0", "--rates", "0.1,0.5,0.6,0.2", "--d", "0.9,0.8"),
    ("discrete", "--unit", "bits", "--pmf", "{pmf}"),
]


def _echo_argv(tmp_path, argv) -> list[str]:
    pmf_file = tmp_path / "copy.json"
    pmf_file.write_text(json.dumps(_copy_configuration()))
    return [a.format(pmf=pmf_file) for a in argv]


@pytest.mark.parametrize("argv", ECHO_ARGVS, ids=lambda argv: argv[0])
def test_inputs_block_reproduces_the_run(tmp_path, argv):
    argv = _echo_argv(tmp_path, argv)
    first = run_cli(*argv)
    assert first.returncode == 0
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(json.loads(first.stdout)["inputs"]))
    second = run_cli(argv[0], "--scenario", str(scenario_file))
    assert second.returncode == 0
    assert second.stdout == first.stdout


@pytest.mark.parametrize("argv, keys", zip(ECHO_ARGVS, [
    ["var", "rates", "d", "unit"],
    ["var", "r1", "r4", "d", "unit"],
    ["var", "rates", "d", "unit"],
    ["pmf", "unit"],
]), ids=[argv[0] for argv in ECHO_ARGVS])
def test_inputs_block_lists_the_options_in_table_order_then_the_unit(
        tmp_path, capsys, argv, keys):
    assert cli.main(_echo_argv(tmp_path, argv)) == 0
    # A parsed JSON object keeps its keys in the order the text gives them.
    assert list(json.loads(capsys.readouterr().out)["inputs"]) == keys


def test_dr_bound_scenario_flags_take_precedence(tmp_path):
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps({
        "rates": [0.0, 0.5, 0.5, 0.0], "d": ["unconstrained", 0.45, 0.45],
    }))
    proc = run_cli("dr-bound", "--scenario", str(scenario_file),
                   "--d", "inf,0.9,0.9")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["inputs"]["d"][1] == 0.9
    assert payload["regime"] == "degenerate-pi-less-delta"


# ---------------------------------------------------------------------------
# rd-bound
# ---------------------------------------------------------------------------

def test_rd_bound_reference_sum_rate():
    proc = run_cli("rd-bound", "--r1", "0", "--r4", "0",
                   "--d", f"inf,0.45,0.45,{GOLDEN_D4_BOUND!r}")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["sum_bound"] == 1.0
    assert payload["regime"] == "rd-excess"


def test_rd_bound_reports_rates_in_requested_unit():
    proc = run_cli("rd-bound", "--unit", "bits", "--r1", "0", "--r4", "0",
                   "--d", f"inf,0.45,0.45,{GOLDEN_D4_BOUND!r}")
    payload = json.loads(proc.stdout)
    assert payload["sum_bound"] == pytest.approx(1.0 / math.log(2.0), rel=1e-14)


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def test_channel_certifies_reference_point():
    proc = run_cli("channel", "--rates", "0,0.5,0.5,0", "--d", "0.45,0.45")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["matches_bound"] is True
    assert payload["adjustment"] is None
    assert payload["channel"]["rho"] == GOLDEN_RHO
    # Zero-rate stages serialize their infinite noise variance as null.
    assert payload["channel"]["sigma1_sq"] is None
    assert payload["channel"]["sigma4_sq"] is None
    assert payload["d4_bound"] == GOLDEN_D4_BOUND


def test_channel_reports_degenerate_adjustment():
    proc = run_cli("channel", "--rates", "0,0.5,0.5,0", "--d", "0.9,0.9")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["regime"] == "degenerate-pi-less-delta"
    expected = 0.5 * (1.0 + math.exp(-2.0))
    assert payload["adjustment"]["d2_prime"] == pytest.approx(expected, rel=1e-14)
    assert payload["matches_bound"] is True


# ---------------------------------------------------------------------------
# discrete
# ---------------------------------------------------------------------------

def _copy_configuration() -> dict:
    """Uniform binary X with U1 = X, identity decoder, Hamming distortion."""
    return {
        "alphabet_sizes": [2, 2, 1, 1, 1],
        "probabilities": [0.5, 0.0, 0.0, 0.5],
        "decoders": {
            "g1": [0, 1],
            "g2": [[0], [1]],
            "g3": [[0], [1]],
            "g4": [[[[0]]], [[[1]]]],
        },
        "distortion_matrix": [[0.0, 1.0], [1.0, 0.0]],
    }


def test_discrete_noiseless_copy_bounds_and_distortions(tmp_path):
    pmf_file = tmp_path / "copy.json"
    pmf_file.write_text(json.dumps(_copy_configuration()))
    proc = run_cli("discrete", "--pmf", str(pmf_file))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["alphabet_sizes"] == [2, 2, 1, 1, 1]
    for key in ("b1", "b12", "b13", "b123", "b1234"):
        assert payload["bounds"][key] == pytest.approx(math.log(2.0), abs=1e-14)
    assert payload["distortions"] == {"d1": 0.0, "d2": 0.0, "d3": 0.0, "d4": 0.0}


def test_discrete_bits_unit_reports_one_bit(tmp_path):
    pmf_file = tmp_path / "copy.json"
    pmf_file.write_text(json.dumps(_copy_configuration()))
    proc = run_cli("discrete", "--unit", "bits", "--pmf", str(pmf_file))
    payload = json.loads(proc.stdout)
    assert payload["bounds"]["b1"] == pytest.approx(1.0, abs=1e-14)


def test_discrete_reads_stdin():
    config = _copy_configuration()
    del config["decoders"], config["distortion_matrix"]
    proc = run_cli("discrete", "--pmf", "-", stdin=json.dumps(config))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["distortions"] is None
    assert payload["bounds"]["b1"] == pytest.approx(math.log(2.0), abs=1e-14)


def test_discrete_decodes_stdin_strictly_as_utf8(monkeypatch, capsys):
    # Under the C locale stdin replaces undecodable bytes by surrogates; the
    # same bytes in a file are refused.
    raw = b'{"alphabet_sizes": [2, 1, 1, 1, 1], "probabilities": [0.5, 0.5], "x": "\xe9"}'
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(raw), encoding="utf-8", errors="surrogateescape"))
    code = cli.main(["discrete", "--pmf", "-"])
    captured = capsys.readouterr()
    with pytest.raises(UnicodeDecodeError) as undecodable:
        raw.decode("utf-8")
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": "UsageError", "message": f"cannot read pmf file -: {undecodable.value}"}


def test_discrete_bounds_of_a_pmf_summing_above_one_are_not_negative(tmp_path):
    # X independent of U1, summing to 1 + 8e-13: summed without normalising,
    # every bound printed as -8.004708007547379e-13.
    pmf_file = tmp_path / "independent.json"
    pmf_file.write_text(json.dumps({
        "alphabet_sizes": [2, 2, 1, 1, 1],
        "probabilities": [0.1250000000001, 0.1250000000001,
                          0.3750000000003, 0.3750000000003]}))
    proc = run_cli("discrete", "--pmf", str(pmf_file))
    assert proc.returncode == 0, proc.stderr
    bounds = json.loads(proc.stdout)["bounds"]
    assert bounds == dict.fromkeys(("b1", "b12", "b13", "b123", "b1234"), 0.0)
    assert all(math.copysign(1.0, v) == 1.0 for v in bounds.values())


def test_discrete_rejects_malformed_json(tmp_path):
    pmf_file = tmp_path / "broken.json"
    pmf_file.write_text("{not json")
    proc = run_cli("discrete", "--pmf", str(pmf_file))
    assert proc.returncode == 1
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "UsageError"


# ---------------------------------------------------------------------------
# CSV sweeps
# ---------------------------------------------------------------------------

def test_loss_sweep_contains_the_reference_anchor():
    proc = run_cli("loss", "--alpha", "1", "--r3", "1", "--r1-grid", "1:4:4")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["r1", "ratio", "d2_floor"]
    assert len(rows) == 4
    assert rows[0][0] == 1.0
    anchor = math.exp(2.0) + math.exp(-2.0) - 1.0
    assert rows[0][1] == pytest.approx(anchor, rel=1e-11)
    ratios = [row[1] for row in rows]
    assert ratios == sorted(ratios)


def test_mdcr_sweep_reference_grid():
    proc = run_cli("mdcr", "--r2", "0.5", "--r3", "0.5",
                   "--d2", "0.45", "--d3", "0.45",
                   "--r4-grid", "0,0.1,0.2,0.4")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["r4", "d4_mdcr", "d4_md", "ratio"]
    assert rows[0][3] == 1.0
    for row in rows[1:]:
        assert row[3] > 1.0 + 1e-9


def test_asymptote_sweep_converges():
    proc = run_cli("asymptote", "--r-grid", "1,2,4,8")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["r_prime", "exact", "asymptote", "ratio"]
    assert abs(rows[-1][3] - 1.0) <= 0.05


def test_sweep_endpoints_close():
    proc = run_cli("sweep-wz-md", "--points", "21")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["d3", "d4_wz", "d4_md", "gap"]
    assert len(rows) == 21
    assert abs(rows[0][3]) <= 1e-9 * rows[0][2]
    assert abs(rows[-1][3]) <= 1e-9 * rows[-1][2]
    assert max(row[3] for row in rows[1:-1]) > 1e-6


# ---------------------------------------------------------------------------
# Imports: the scalar subcommands run without numpy
# ---------------------------------------------------------------------------

#: One argv per subcommand that evaluates only the closed forms.
SCALAR_ARGVS = {
    "dr-bound": ["--rates", "0,0.5,0.5,0", "--d", "inf,0.45,0.45"],
    "rd-bound": ["--r1", "0", "--r4", "0",
                 "--d", f"inf,0.45,0.45,{GOLDEN_D4_BOUND!r}"],
    "loss": ["--r3", "1", "--r1-grid", "1:4:4"],
    "mdcr": ["--r2", "0.5", "--r3", "0.5", "--d2", "0.45", "--d3", "0.45",
             "--r4-grid", "0,0.1,0.2"],
    "sweep-wz-md": ["--points", "5"],
    "asymptote": ["--r-grid", "1,2,4"],
}

#: Runs its argv through ``gaussrd.cli.main``, then reports on its last line
#: whether numpy was loaded.
NUMPY_PROBE = ("import sys\nfrom gaussrd.cli import main\n"
               "code = main(sys.argv[1:])\n"
               "print(code, 'numpy' in sys.modules)")


@pytest.mark.parametrize("sub", sorted(SCALAR_ARGVS))
def test_scalar_subcommand_loads_no_numpy(sub):
    proc = run_python("-c", NUMPY_PROBE, sub, *SCALAR_ARGVS[sub])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_importing_the_package_loads_no_numpy():
    proc = run_python("-c", "import sys, gaussrd\n"
                            "print('numpy' in sys.modules, 'gaussrd.regions' "
                            "in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_and_is_deterministic():
    first = run_cli("verify", "--grid-density", "2")
    second = run_cli("verify", "--grid-density", "2")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["all_passed"] is True
    assert [c["name"] for c in payload["checks"]] == [
        "equivalence-scan", "achievability", "witness-maximizer", "monte-carlo"]
    for check in payload["checks"]:
        assert check["passed"] is True


def test_verify_output_does_not_depend_on_blas_threads():
    pinned = run_cli("verify", "--seed", "7",
                     env={"OPENBLAS_NUM_THREADS": "1"})
    unpinned = run_cli("verify", "--seed", "7",
                       env={"OPENBLAS_NUM_THREADS": None})
    assert pinned.returncode == unpinned.returncode == 0, unpinned.stderr
    assert pinned.stdout == unpinned.stdout


def test_importing_selfcheck_loads_no_executor():
    # Only the Monte Carlo check of ``verify`` runs the thread pool.
    proc = run_python("-c", "import sys, gaussrd.cli, gaussrd.selfcheck\n"
                            "print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_verify_failure_maps_to_exit_code_three(monkeypatch, capsys):
    # ``cmd_verify`` looks ``run_verification`` up on its module at call time.
    monkeypatch.setattr("gaussrd.selfcheck.run_verification",
                        lambda **kwargs: {"all_passed": False, "checks": []})
    code = cli.main(["verify", "--grid-density", "2"])
    capsys.readouterr()
    assert code == 3


def test_verify_seed_comes_from_its_flag_else_a_constant(monkeypatch, capsys):
    # No environment variable sets it.
    seeds = []
    monkeypatch.setenv("GAUSSRD_SEED", "777")
    monkeypatch.setattr("gaussrd.selfcheck.run_verification",
                        lambda **kwargs: seeds.append(kwargs["seed"]) or {})
    assert cli.main(["verify"]) == cli.main(["verify", "--seed", "7"]) == 0
    capsys.readouterr()
    assert seeds == [12345, 7]


def test_verify_rejects_tiny_grid_density():
    proc = run_cli("verify", "--grid-density", "1")
    assert proc.returncode == 1


# ---------------------------------------------------------------------------
# Error paths and exit codes
# ---------------------------------------------------------------------------

def test_missing_required_option_is_a_usage_error():
    proc = run_cli("dr-bound", "--d", "inf,0.45,0.45")
    assert proc.returncode == 1
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "UsageError"
    assert "--rates" in error["message"]


def test_unknown_subcommand_is_a_usage_error():
    proc = run_cli("no-such-command")
    assert proc.returncode == 1


def test_infeasible_input_maps_to_exit_code_two():
    proc = run_cli("dr-bound", "--rates", "1,0,0,0", "--d", "inf,0.05,0.5")
    assert proc.returncode == 2
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "InfeasibleDistortion"


def test_degenerate_comparison_maps_to_exit_code_two():
    proc = run_cli("mdcr", "--r2", "1", "--r3", "1", "--d2", "0.98",
                   "--d3", "0.98", "--r4-grid", "1,2")
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["type"] == "OutOfRegime"


def test_corrupt_scenario_file_is_a_usage_error(tmp_path):
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text("{{{{")
    proc = run_cli("dr-bound", "--scenario", str(scenario_file))
    assert proc.returncode == 1


def test_unknown_unit_in_scenario_is_a_usage_error(tmp_path):
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps({
        "rates": [0, 0.5, 0.5, 0], "d": ["inf", 0.45, 0.45], "unit": "furlongs",
    }))
    proc = run_cli("dr-bound", "--scenario", str(scenario_file))
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"]["type"] == "UsageError"


def test_unexpected_exception_maps_to_exit_code_four(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr(cli, "cmd_dr_bound", broken)
    code = cli.main(["dr-bound", "--rates", "0,0.5,0.5,0", "--d", "inf,0.45,0.45"])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 4
    assert error == {"type": "RuntimeError", "message": "simulated defect"}


def test_underflowing_channel_input_leaves_a_json_error_not_a_traceback():
    # d1_star^2 and d2 d3 underflow to zero at r1 = 200 nats; the channel is
    # built from the side ratios d_i / d1_star, so the point certifies.
    proc = run_cli("channel", "--rates", "200,1,1,0", "--d", "7e-175,7e-175")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["matches_bound"] is True


def test_malformed_rate_list_is_a_usage_error():
    proc = run_cli("dr-bound", "--rates", "0,0.5,0.5", "--d", "inf,0.45,0.45")
    assert proc.returncode == 1
    proc = run_cli("dr-bound", "--rates", "a,b,c,d", "--d", "inf,0.45,0.45")
    assert proc.returncode == 1


@pytest.mark.parametrize("argv, scenario, message", [
    (["sweep-wz-md"], {"points": "abc"}, "option --points expects an integer, got 'abc'"),
    (["verify"], {"seed": "abc"}, "option --seed expects an integer, got 'abc'"),
    (["verify"], {"grid-density": "abc"},
     "option --grid-density expects an integer, got 'abc'"),
    (["sweep-wz-md", "--points", "abc"], None,
     "option --points expects an integer, got 'abc'"),
    (["verify", "--seed", "abc"], None, "option --seed expects an integer, got 'abc'"),
    (["dr-bound", "--var", "abc", *SCALAR_ARGVS["dr-bound"]], None,
     "option --var expects a number, got 'abc'"),
    (["dr-bound", "--unit", "furlongs", *SCALAR_ARGVS["dr-bound"]], None,
     "unknown unit 'furlongs'; use nats or bits"),
    # A JSON float or bool is refused as its flag's spelling is, not
    # truncated or read as 1.
    (["sweep-wz-md"], {"points": 2.7}, "option --points expects an integer, got 2.7"),
    (["verify"], {"seed": True}, "option --seed expects an integer, got True"),
    (["dr-bound", *SCALAR_ARGVS["dr-bound"]], {"var": True},
     "option --var expects a number, got True"),
    # numpy refuses a negative seed; the CLI refuses it first, from any source.
    (["verify", "--seed", "-1"], None, "option --seed must be at least 0, got -1"),
    (["verify"], {"seed": -2}, "option --seed must be at least 0, got -2"),
    # Each bounded integer is checked by its converter, not by the command.
    (["verify", "--grid-density", "1"], None,
     "option --grid-density must be at least 2, got 1"),
    (["sweep-wz-md", "--points", "1"], None, "option --points must be at least 2, got 1"),
], ids=["scenario-points", "scenario-seed", "scenario-grid-density",
        "flag-points", "flag-seed", "flag-var", "flag-unit", "scenario-points-float",
        "scenario-seed-bool", "scenario-var-bool", "flag-seed-negative",
        "scenario-seed-negative", "flag-grid-density-low", "flag-points-low"])
def test_malformed_integer_option_is_a_usage_error(tmp_path, capsys, argv, scenario,
                                                   message):
    # A flag's value meets the same converter as a scenario value, so both
    # leave a JSON error rather than argparse's plain-text usage message.
    if scenario is not None:
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(scenario))
        argv = argv + ["--scenario", str(scenario_file)]
    code = cli.main(argv)
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 1
    assert error["type"] == "UsageError"
    # The message names where the bad value came from.
    assert error["message"] == message


@pytest.mark.parametrize("grid, message", [
    ("nan,2", "grid rates must be at least 1 nat, got nan"),
    ("inf", "grid rates must be finite, got inf"),
    ("1,nan,3", "grid rates must be at least 1 nat, got nan"),
    ("2,inf", "grid rates must be finite, got inf"),
    ("0.5,2", "grid rates must be at least 1 nat, got 0.5"),
    ("2,2", "grid rates must be strictly increasing"),
], ids=["nan-first", "inf-only", "nan-inside", "inf-last", "below-one", "repeated"])
def test_asymptote_refuses_a_grid_rate_by_its_own_rule(capsys, grid, message):
    # A NaN or inf rate is refused as a grid rate, not later as the config's
    # r_prime or a bound's r2.
    code = cli.main(["asymptote", "--r-grid", grid])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("argv", [
    ["dr-bound", "--bogus", "1"],
    ["dr-bound", "--var"],
    [],
    ["asymptote", "--eta1", "0.1", "--r-grid", "1,2"],
    ["verify", "--unit", "bits"],
    ["sweep-fig3", "--points", "3"],
], ids=["unknown-option", "missing-value", "no-subcommand", "asymptote-eta1",
        "verify-unit", "sweep-fig3"])
def test_argparse_refusal_is_a_json_usage_error(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert set(error) == {"type", "message"}
    assert error["type"] == "UsageError"


def test_help_lists_the_unit_choices(capsys):
    assert cli.main(["dr-bound", "--help"]) == 0
    assert "[--unit {nats,bits}]" in capsys.readouterr().out


@pytest.mark.parametrize("pmf", [12, ["a"]], ids=["number", "list"])
def test_non_string_pmf_in_scenario_is_a_usage_error(tmp_path, capsys, pmf):
    # A number would otherwise open that file descriptor (0 is stdin).
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps({"pmf": pmf}))
    code = cli.main(["discrete", "--scenario", str(scenario_file)])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 1
    assert error["type"] == "UsageError"
    assert "--pmf expects a path" in error["message"]


def _unreadable(path) -> str:
    """The message of the ``OSError`` or ``UnicodeDecodeError`` that reading
    ``path`` as UTF-8 raises."""
    with pytest.raises((OSError, UnicodeDecodeError)) as caught:
        with open(path, encoding="utf-8") as fh:
            fh.read()
    return str(caught.value)


@pytest.mark.parametrize("argv, scenario, message", [
    (["loss", "--r3", "1", "--r1-grid", "0:1"], None,
     "option --r1-grid grid must be start:stop:count"),
    (["loss", "--r3", "1", "--r1-grid", "0:1:x"], None,
     "option --r1-grid count must be an integer"),
    (["loss", "--r3", "1", "--r1-grid", "0:1:1"], None,
     "option --r1-grid count must be at least 2"),
    (["dr-bound"], [0, 0.5, 0.5, 0], "scenario file {scenario} must hold a JSON object"),
    (["dr-bound", "--d", "inf,0.45,0.45"], {"rates": 3},
     "option --rates expects a comma list, got 3"),
    (["dr-bound", "--scenario", "{missing}"], None,
     "cannot read scenario file {missing}: {unreadable}"),
    (["discrete", "--pmf", "{missing}"], None,
     "cannot read pmf file {missing}: {unreadable}"),
    (["dr-bound", "--scenario", "{latin1}"], None,
     "cannot read scenario file {latin1}: {undecodable}"),
    (["discrete", "--pmf", "{latin1}"], None,
     "cannot read pmf file {latin1}: {undecodable}"),
    # A key that names no option of the command was dropped without a word.
    (["dr-bound", "--rates", "0,0.5,0.5,0", "--d", "inf,0.45,0.45"], {"vra": 5},
     "scenario file {scenario} sets unknown options: 'vra'"),
    (["verify"], {"unit": "bits", "seed": 1, "scenario": "x.json"},
     "scenario file {scenario} sets unknown options: 'unit', 'scenario'"),
    # An unconstrained d1 is spelled 'inf' or 'unconstrained', nothing else.
    (["dr-bound", "--rates", "0,0.5,0.5,0", "--d", "unc,0.45,0.45"], None,
     "option --d expects a number, got 'unc'"),
    (["rd-bound", "--r1", "0", "--r4", "0"], {"d": ["none", 0.45, 0.45, 0.1]},
     "option --d expects a number, got 'none'"),
], ids=["grid-two-pieces", "grid-count-text", "grid-count-one", "scenario-list",
        "scenario-rates-number", "scenario-unreadable", "pmf-unreadable",
        "scenario-not-utf8", "pmf-not-utf8", "scenario-unknown-key",
        "scenario-key-of-another-command", "d1-unc", "d1-none"])
def test_refused_option_is_a_usage_error(tmp_path, capsys, argv, scenario, message):
    missing, latin1 = tmp_path / "missing.json", tmp_path / "latin1.json"
    latin1.write_bytes('{"var": "\u00e9"}'.encode("latin-1"))
    names = {"missing": missing, "unreadable": _unreadable(missing),
             "latin1": latin1, "undecodable": _unreadable(latin1),
             "scenario": tmp_path / "scenario.json"}
    argv = [arg.format(**names) for arg in argv]
    if scenario is not None:
        names["scenario"].write_text(json.dumps(scenario))
        argv += ["--scenario", str(names["scenario"])]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": "UsageError", "message": message.format(**names)}


@pytest.mark.parametrize("argv", [
    ["dr-bound", "--rates", "400,0,0,0", "--d", "inf,0.5,0.5"],
    ["rd-bound", "--r1", "400", "--r4", "0", "--d", "inf,0.5,0.5,0.1"],
    ["rd-bound", "--r1", "0", "--r4", "400", "--d", "inf,0.5,0.5,0.1"],
    ["loss", "--r3", "1", "--r1-grid", "0:400:3"],
    ["asymptote", "--b", "1e308", "--r-grid", "1,2"],
    ["sweep-wz-md", "--r1", "400", "--points", "3"],
    ["rd-bound", "--var", "1e10", "--r1", "0", "--r4", "0",
     "--d", "inf,0.5,0.5,5e-324"],
    ["rd-bound", "--var", "1e10", "--r1", "0", "--r4", "0",
     "--d", "inf,1e-320,0.5,0.1"],
    ["rd-bound", "--var", "1e10", "--r1", "0", "--r4", "0",
     "--d", "1e-320,0.5,0.5,0.1"],
    ["channel", "--var", "1e-200", "--rates",
     "38.94321942583643,34.18371773174844,39.68471326127271,35.247697372811615",
     "--d", "3.415362060029526e-246,2.5985620784733553e-237"],
    ["loss", "--alpha", "1", "--r3", "1", "--r1-grid", "1,1e308"],
    ["loss", "--alpha", "1e-300", "--r3", "1", "--r1-grid", "1e10"],
], ids=["dr-bound", "rd-bound", "rd-bound-r4", "loss", "asymptote", "sweep-wz-md",
        "rd-bound-z", "rd-bound-a", "rd-bound-d1", "channel-d4", "loss-inf-ratio",
        "loss-d2-floor"])
def test_underflowing_first_layer_floor_is_a_typed_error(capsys, argv):
    # d1_star = exp(-800) underflows to zero at r1 = 400 nats; exp(2 r4) at
    # r4 = 400, exp(2 alpha r1) at alpha r1 = 400 and 4 b at b = 1e308
    # overflow; at variance 1e10 the ratios z = d4/d1_star, a = d2/d1_star
    # and d1/var underflow to zero, and so does the channel's d4 bound at
    # 1e-200 times exp(-296).  At alpha r1 = 1e308, 2 alpha r1 is inf and
    # exp(inf) - exp(inf) is nan, and d2_floor underflows at r1 = 1e10.
    # None of them leaves as an internal error (exit 4), a bare ValueError
    # or a printed nan or 0.
    code = cli.main(argv)
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert error["type"] == "InvalidRegimeInput"


@pytest.mark.parametrize("argv, column", [
    (["mdcr", "--r2", "1", "--r3", "1", "--d2", "0.3", "--d3", "0.3",
      "--r4-grid", "0:400:3"], "ratio"),
    (["sweep-wz-md", "--r1", "300", "--points", "3"], "d4_wz"),
    (["sweep-wz-md", "--r1", "1e-17", "--points", "3"], "d4_wz"),
    (["sweep-wz-md", "--r2", "1e-17", "--points", "3"], "d4_wz"),
], ids=["mdcr", "sweep-wz-md", "sweep-wz-md-small-r1", "sweep-wz-md-small-r2"])
def test_large_rate_sweeps_print_finite_values(capsys, argv, column):
    # The last mdcr row's bounds underflow to 0.0, but their ratio does not;
    # at r1 = 300 nats the binning channel's s1 s2 ~ d1*^2 underflows, at
    # r1 = 1e-17 var exp(-2 r1) rounds to var, and at r2 = 1e-17 the
    # channel's weight rounds to 1, but d4_wz, formed without the channel,
    # does not.
    assert cli.main(argv) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    values = [row[header.index(column)] for row in rows]
    assert all(math.isfinite(v) and v > 0.0 for v in values)


@pytest.mark.parametrize("r3", ["0", "1e-10"])
def test_loss_prints_the_oracle_past_the_overflow_of_its_growth_factor(capsys, r3):
    # exp(2 alpha r1) = exp(720) overflows; the ratio exp(720) c3 + exp(-2 r3)
    # does not.
    assert cli.main(["loss", "--var", "1e300", "--alpha", "360", "--r3", r3,
                     "--r1-grid", "1"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    ratio, d2_floor = oracle.mp_fixed_channel_loss(1e300, 1.0, float(r3), 360.0)
    assert header == ["r1", "ratio", "d2_floor"]
    printed = [float(f"{float(x):.11e}") for x in (1.0, ratio, d2_floor)]
    assert rows == [printed]


# ---------------------------------------------------------------------------
# The exit and output contract over generated argvs
# ---------------------------------------------------------------------------

#: Values from the smallest subnormal to near the largest double, exact zeros
#: and the moderate range where most subcommands succeed.
_VALUE = st.one_of(st.just(0.0), st.floats(0.0, 4.0),
                   st.floats(5e-324, 1.7e308)).map(repr)


def _values(n: int):
    return st.lists(_VALUE, min_size=n, max_size=n).map(",".join)


def _flags(*defaulted, **options):
    """The argv tail ``--name value`` for each drawn option, plus a unit;
    the options named in ``defaulted`` are sometimes left to their
    defaults."""
    unit = st.sampled_from([[], ["--unit", "nats"], ["--unit", "bits"]])
    options = {name: st.one_of(st.none(), value) if name in defaulted else value
               for name, value in options.items()}
    pairs = st.fixed_dictionaries(options).map(lambda o: [
        token for name, value in o.items() if value is not None
        for token in (f"--{name.replace('_', '-')}", value)])
    return st.tuples(pairs, unit).map(lambda t: t[0] + t[1])


def _pmf_text(weights, sizes, normalize: bool) -> str:
    """A pmf file of the alphabet ``sizes``, its entries the ``weights``
    repeated, divided by their sum if ``normalize`` and the sum allows."""
    n = math.prod(sizes)
    entries = (weights * n)[:n]
    total = sum(entries)
    if normalize and 0.0 < total < math.inf:
        entries = [w / total for w in entries]
    return json.dumps({"alphabet_sizes": sizes, "probabilities": entries})


_GRID = st.integers(1, 3).flatmap(_values)
#: In-domain alternatives, so that the success paths are drawn too: a
#: fraction (of the default unit variance), and rates of 1 nat and more
#: (the asymptote's grid, and its b >= 1).
_FRACTION = st.floats(0.0, 1.0).map(repr)
_HIGH_RATES = st.lists(st.floats(1.0, 1e3), min_size=1, max_size=3, unique=True).map(
    lambda rs: ",".join(map(repr, sorted(rs))))

_ARGVS = {
    "dr-bound": _flags("var", var=_VALUE, rates=_values(4), d=st.one_of(
        _values(3), _values(2).map("inf,".__add__))),
    "rd-bound": _flags("var", var=_VALUE, r1=_VALUE, r4=_VALUE, d=st.one_of(
        _values(4), _values(3).map("inf,".__add__))),
    "channel": _flags("var", var=_VALUE, rates=_values(4), d=_values(2)),
    "loss": _flags("var", "alpha", var=_VALUE, alpha=_VALUE, r3=_VALUE, r1_grid=_GRID),
    "mdcr": _flags("var", "beta", var=_VALUE, r2=_VALUE, r3=_VALUE,
                   beta=st.one_of(_FRACTION, _VALUE), d2=st.one_of(_FRACTION, _VALUE),
                   d3=st.one_of(_FRACTION, _VALUE), r4_grid=_GRID),
    "asymptote": _flags("b", "eta", b=st.one_of(st.floats(1.0, 1e3).map(repr), _VALUE),
                        eta=_VALUE, r_grid=st.one_of(_HIGH_RATES, _GRID)),
    "sweep-wz-md": _flags("var", "r1", "r2", "r3", "r4", "points", var=_VALUE,
                          r1=_VALUE, r2=_VALUE, r3=_VALUE, r4=_VALUE,
                          points=st.integers(0, 4).map(str)),
}


def _run_in_process(argv: list[str], stdin: str = ""):
    """``cli.main(argv)``'s exit code, stdout and stderr; a warning goes to
    stderr, as a launched interpreter would print it."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8")), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    printed = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                      for w in caught)
    return code, out.getvalue(), printed + err.getvalue()


def _assert_contract(argv: list[str], code: int, stdout: str, stderr: str) -> None:
    """Exit 0, 1 or 2 (3 for a failed self-verification); an error leaves
    a JSON error on stderr; stdout holds no nan and no infinity, except a
    ``sigma*_sq`` noise variance (printed as null) of a description that
    carries no rate."""
    assert code in ({0, 1, 2, 3} if argv[0] == "verify" else {0, 1, 2}), (argv, stderr)
    if code in (1, 2):
        error = json.loads(stderr)["error"]
        assert set(error) == {"type", "message"}, (argv, stderr)
        return
    if argv[0] in ("loss", "mdcr", "asymptote", "sweep-wz-md"):
        parse_csv(stdout)  # every cell a finite number
        return
    payload = json.loads(stdout)  # NaN and Infinity parse as floats
    if argv[0] == "channel":
        channel, achieved = payload["channel"], payload["achieved"]
        rates = [float(r) for r in argv[argv.index("--rates") + 1].split(",")]
        for i, zero in ((1, rates[0] == 0.0), (4, rates[3] == 0.0),
                        (2, achieved["d2"] == achieved["d1"]),
                        (3, achieved["d3"] == achieved["d1"])):
            assert zero or channel[f"sigma{i}_sq"] is not None, (argv, stdout)
        payload = {k: v for k, v in payload.items() if k != "channel"}
    nulls = {"adjustment", "distortions"}

    def walk(value, key):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, k)
        elif isinstance(value, list):
            for v in value:
                walk(v, key)
        elif isinstance(value, float):
            assert math.isfinite(value), (argv, key, stdout)
        else:
            assert value is not None or key in nulls, (argv, key, stdout)
    walk(payload, None)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(sorted(_ARGVS)).flatmap(
    lambda name: _ARGVS[name].map(lambda tail: [name, *tail])))
def test_every_subcommand_keeps_the_exit_and_output_contract(argv):
    _assert_contract(argv, *_run_in_process(argv))


#: Numeric tokens at the edges of the domain: zero, the smallest subnormal,
#: the top of the double range, NaN, inf, a negative value and rates on both
#: sides of exp(2 r) = inf (r ~ 354.9), with a few moderate values.
_EXTREME_TOKENS = ("0", "5e-324", "1e-300", "0.5", "1", "2", "1e308", "inf", "nan",
                   "-1", "355", "400")
#: Each numeric subcommand's numeric options and the count of values each takes.
_NUMERIC_OPTIONS = {
    "dr-bound": {"var": 1, "rates": 4, "d": 3},
    "rd-bound": {"var": 1, "r1": 1, "r4": 1, "d": 4},
    "channel": {"var": 1, "rates": 4, "d": 2},
    "loss": {"var": 1, "alpha": 1, "r3": 1, "r1-grid": 2},
    "mdcr": {"var": 1, "r2": 1, "r3": 1, "beta": 1, "d2": 1, "d3": 1, "r4-grid": 2},
    "asymptote": {"b": 1, "eta": 1, "r-grid": 2},
    "sweep-wz-md": {"var": 1, "r1": 1, "r2": 1, "r3": 1, "r4": 1, "points": 1},
}


def _extreme_argvs(seed: int, count: int) -> list[list[str]]:
    rng = random.Random(seed)
    argvs = []
    for _ in range(count):
        name = rng.choice(sorted(_NUMERIC_OPTIONS))
        argvs.append([name] + [
            token for flag, n in _NUMERIC_OPTIONS[name].items()
            for token in (f"--{flag}", ",".join(rng.choice(_EXTREME_TOKENS)
                                                for _ in range(n)))])
    return argvs


def test_no_extreme_numeric_argv_is_an_internal_error():
    # exp(2 r4) overflowed in the channel's sigma4_sq past r4 ~ 354.9 nats,
    # though the bound 4.48e-308 is a normal double.
    fixed = [["channel", "--var", "10", "--rates", "0,0,0,355", "--d", "10,10"],
             ["channel", "--var", "1e300", "--rates", "0,1,1,600", "--d", "inf,inf"]]
    for argv in fixed:
        code, stdout, stderr = _run_in_process(argv)
        assert code == 0, (argv, stderr)
        assert json.loads(stdout)["matches_bound"] is True
    for argv in _extreme_argvs(seed=30, count=1000):
        code, _, stderr = _run_in_process(argv)
        assert code != cli.EXIT_INTERNAL, (argv, stderr)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(st.one_of(st.just(0.0), st.floats(5e-324, 1.7e308)), min_size=1,
                max_size=4),
       st.lists(st.integers(1, 2), min_size=5, max_size=5), st.booleans(),
       st.sampled_from([[], ["--unit", "bits"]]))
def test_discrete_keeps_the_exit_and_output_contract(weights, sizes, normalize, unit):
    argv = ["discrete", "--pmf", "-", *unit]
    _assert_contract(argv, *_run_in_process(argv, _pmf_text(weights, sizes, normalize)))


@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(st.one_of(st.floats(1e-3, 1e3), st.just(0.0), st.floats(5e-324, 1.7e308)),
       st.integers(0, 2 ** 32))
def test_verify_keeps_the_exit_and_output_contract(var, seed):
    # At its default grid density; each run takes about half a second.
    argv = ["verify", "--var", repr(var), "--seed", str(seed)]
    _assert_contract(argv, *_run_in_process(argv))
