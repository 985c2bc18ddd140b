"""Static hygiene of the package sources: no module imports a name it never
uses, and no private helper outlives its last caller; every cross-reference
in the docstrings and every backticked name in the README names something
that exists; every CLI option is named by the command that takes it; every
record is frozen or slotted by one rule; and the benchmark's imports load
every module its tracer wraps."""

from __future__ import annotations

import ast
import builtins
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from gaussrd import cli, regions

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gaussrd"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import except ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, plus those inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports (line, name): {unused}"


def _references(node: ast.AST) -> Counter:
    """Every name loaded, attribute read or name imported under ``node``."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            refs.update(alias.name for alias in n.names)
    return refs


def test_every_private_function_has_a_caller():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    package = sum((_references(tree) for tree in trees.values()), Counter())
    orphans = [
        f"{name}:{fn.name}"
        for name, tree in trees.items() for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
        and not fn.name.startswith("__")
        # Calls from the function's own body (recursion) do not count.
        and package[fn.name] == _references(fn)[fn.name]
    ]
    assert not orphans, f"private functions nothing in the package calls: {orphans}"


#: A Sphinx cross-reference such as :func:`~gaussrd.regions.dr_bound`: its
#: role and target.
CROSS_REFERENCE = re.compile(r":(func|data|class|exc|mod):`~?([\w.]+)`")


def _documentation(tree: ast.Module, text: str):
    """Every docstring in a module, then each ``#:`` doc comment."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            yield ast.get_docstring(node)
    yield from (line for line in text.splitlines() if line.lstrip().startswith("#:"))


def _defined(tree: ast.Module) -> set[str]:
    """The names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_documented_cross_reference_resolves():
    texts = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    defined = {stem: _defined(ast.parse(text)) for stem, text in texts.items()}
    package = set().union(*defined.values())

    def resolves(role: str, target: str) -> bool:
        if role == "mod":
            return (target in sys.stdlib_module_names
                    or target.removeprefix("gaussrd.") in defined)
        module, _, name = target.rpartition(".")
        if module:
            return name in defined.get(module.removeprefix("gaussrd."), ())
        return name in package or hasattr(builtins, name)

    references = [(stem, role, target) for stem, text in texts.items()
                  for doc in _documentation(ast.parse(text), text)
                  for role, target in CROSS_REFERENCE.findall(doc)]
    assert references
    dangling = [ref for ref in references if not resolves(*ref[1:])]
    assert not dangling, f"cross-references to nothing (module, role, target): {dangling}"


#: A backticked ``module.name`` in the README, ``gaussrd.`` optional, and a
#: backticked identifier; only identifiers with an underscore are checked.
README_ATTRIBUTE = re.compile(r"`(?:gaussrd\.)?(\w+)\.(\w+)`")
README_IDENTIFIER = re.compile(r"`([A-Za-z_]\w*)`")


def _named(tree: ast.Module) -> set[str]:
    """Every name a module binds anywhere, as a def, class, assignment,
    dataclass field or parameter, and every string constant in it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_readme_reference_resolves():
    # ``module.name`` must be defined in that module of the package or of
    # the tests; a file name such as ``model.py`` is skipped.  A snake_case
    # name must be named somewhere in the package.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = {p: ast.parse(p.read_text(encoding="utf-8"))
               for p in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")]}
    defined = {p.stem: _defined(tree) for p, tree in sources.items()}
    package = set().union(*(_named(tree) for p, tree in sources.items()
                            if p.parent == SRC))
    attributes = [(module, name) for module, name in README_ATTRIBUTE.findall(readme)
                  if module in defined and name != "py"]
    identifiers = [name for name in README_IDENTIFIER.findall(readme) if "_" in name]
    assert attributes and identifiers
    dangling = ([f"{module}.{name}" for module, name in attributes
                 if name not in defined[module]]
                + [name for name in identifiers if name not in package])
    assert not dangling, f"README names what does not exist: {dangling}"


#: The modules on the scalar command-line path, which must load without numpy.
NUMPY_FREE = ("__init__", "cli", "model", "regions", "analysis", "errors")


def _module_level_imports(node: ast.AST):
    """Import statements that run when the module loads: everything but
    those inside function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _module_level_imports(child)


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_scalar_path_modules_import_no_numpy_at_load(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    offending = []
    for node in _module_level_imports(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif node.level == 0:
            targets = [node.module]
        else:
            # A relative import loads its sibling module, which must itself
            # stay on the numpy-free path.
            targets = ["." + (node.module or alias.name) for alias in node.names]
        offending += [
            (node.lineno, target) for target in targets
            if target.split(".")[0] == "numpy"
            or (target.startswith(".") and target[1:].split(".")[0] not in NUMPY_FREE)]
    assert not offending, f"{name}.py loads at import (line, module): {offending}"


#: The one function on the scalar path that may load numpy, when it is called.
NUMPY_IMPORTERS = {("regions", "equivalence_scan")}


def _numpy_imports(node: ast.AST, function: str | None = None):
    """(innermost enclosing function or ``None``, line) of each import of
    numpy under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _numpy_imports(child, child.name)
            continue
        if isinstance(child, ast.Import):
            targets = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            targets = [child.module]
        else:
            yield from _numpy_imports(child, function)
            continue
        if any(target.split(".")[0] == "numpy" for target in targets):
            yield function, child.lineno


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_scalar_path_modules_import_numpy_only_in_the_scan(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    offending = [(line, function) for function, line in _numpy_imports(tree)
                 if (name, function) not in NUMPY_IMPORTERS]
    assert not offending, f"{name}.py imports numpy in (line, function): {offending}"


#: Guards decided in one place, and the names a function would read to decide
#: them again: the scan sends the points it cannot evaluate, and those whose
#: numerator lies below the normal range, to dr_bound instead of replaying
#: its raises and its quotient; the channel snaps rho where regions._delta
#: snaps delta; the rd kernel leaves the first-layer floor to the scan's
#: margins; the mdcr ratio is that of the penalty denominators at every
#: rate, with no underflow test; and the binning sweep derives each row once
#: by its row form, from targets it placed on or above their floors itself.
DECIDED_ELSEWHERE = {
    ("regions", "equivalence_scan"): {"_side_ratios", "_pi_delta", "_exp_quotient"},
    ("channel", "_channel"): {"FEASIBILITY_RTOL"},
    ("regions", "_rd_block"): {"_require_floors", "_margin", "_checked_d1_star"},
    ("analysis", "mdcr_compare"): {"float_info"},
    ("analysis", "wz_md_sweep"): {"dr_bound", "wz_region", "_checked_d1_star"},
    ("analysis", "_slice"): {"dr_bound", "wz_region", "_checked_d1_star"},
}

#: The per-call scalar path clamps by comparison, ``y if y < x else x`` for
#: ``min(x, y)``: the builtins ``min`` and ``max`` parse their arguments on
#: every call, at several times the cost of the comparison they make.
CLAMP_BY_COMPARISON = {
    ("model", "_require_floors"),
    ("regions", "_side_ratios"), ("regions", "_pi_delta"), ("regions", "dr_bound"),
    ("regions", "_excess_term"), ("regions", "rd_bound"), ("model", "_exp_quotient"),
    ("regions", "maximize_t_numeric"), ("regions", "converse_witness"),
    ("channel", "_channel"), ("channel", "_adjust"), ("channel", "certify_achievability"),
    ("analysis", "wz_region"), ("analysis", "_slice"),
    ("analysis", "asymptote_convergence"),
}

#: The functions that refuse a target against the first-layer floor, and the
#: one test in model.py that each must call to do so.
MODEL_TESTS = {
    ("regions", "rd_bound"): "_require_d1_floor",
    ("regions", "converse_witness"): "_over_ceiling",
    ("regions", "maximize_t_numeric"): "_over_ceiling",
}


#: The functions that form a Gaussian floor ``var exp(-2 r)``, for a floor test,
#: certification's closed-form ``d4`` or the binning sweep's two bounds, and
#: how many they form: each goes through model._distortion_floor, so that a
#: subnormal ``exp(-2 r)`` costs no digits and every floor test agrees.
FLOOR_FORMS = {
    ("model", "_checked_d1_star"): 1,
    ("regions", "rd_bound"): 1,
    ("regions", "equivalence_scan"): 1,
    ("analysis", "wz_md_sweep"): 2,
    ("analysis", "_slice"): 2,
    ("analysis", "fixed_channel_loss"): 1,
    ("channel", "certify_achievability"): 1,
}


def _function(name: str, function: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    body, = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == function]
    return body


#: The per-call functions that read a ``Regime`` member or the smallest normal
#: double: each reads the module global that model.py binds, since on CPython
#: 3.11.7 ``Regime.X`` costs about 95 ns and ``sys.float_info.min`` 24 ns,
#: against 7 ns for a global.
PER_CALL_GLOBALS = {
    ("regions", "dr_bound"), ("regions", "rd_bound"), ("regions", "_pi_delta"),
    ("model", "_distortion_floor"), ("channel", "certify_achievability"),
}


@pytest.mark.parametrize("name, function", sorted(DECIDED_ELSEWHERE))
def test_each_guard_is_decided_once(name, function):
    body = _function(name, function)
    repeated = sorted(DECIDED_ELSEWHERE[(name, function)] & set(_references(body)))
    assert not repeated, f"{name}.{function} names {repeated}"


@pytest.mark.parametrize("name, function", sorted(PER_CALL_GLOBALS))
def test_the_per_call_path_reads_constants_as_globals(name, function):
    looked_up = sorted({"Regime", "float_info"} & set(_references(_function(name, function))))
    assert not looked_up, f"{name}.{function} names {looked_up}"


@pytest.mark.parametrize("name, function", sorted(CLAMP_BY_COMPARISON))
def test_the_scalar_path_clamps_by_comparison(name, function):
    names = {node.id for node in ast.walk(_function(name, function))
             if isinstance(node, ast.Name)}
    assert not names & {"min", "max"}, f"{name}.{function} calls builtin min or max"


def test_the_double_namespace_clamps_by_comparison():
    assert regions._MATH.maximum is not max


def test_the_double_namespace_holds_only_what_needs_a_second_spelling():
    # Each member is read as xp.<member> by a shared form, and none is a
    # builtin such as abs, which serves doubles and arrays alike.
    tree = ast.parse((SRC / "regions.py").read_text(encoding="utf-8"))
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "xp"}
    members = set(vars(regions._MATH))
    assert members <= read, f"_MATH members never read as xp.<member>: {members - read}"
    assert not {m for m in members if hasattr(builtins, m)}, "_MATH holds a builtin"


def test_every_tolerance_is_read():
    # A module-level *_RTOL constant that nothing reads is a tolerance whose
    # check was deleted.  Every module is parsed, none imported.
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and name.id.endswith("_RTOL"):
                            defined[name.id] = path.name
        read |= {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert defined, "no *_RTOL constant found"
    unread = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in read)
    assert not unread, f"tolerances never read: {unread}"


@pytest.mark.parametrize("name, function", sorted(MODEL_TESTS))
def test_floor_and_ceiling_are_tested_in_model(name, function):
    test = MODEL_TESTS[(name, function)]
    refs = _references(_function(name, function))
    assert refs[test], f"{name}.{function} skips {test}"


@pytest.mark.parametrize("name, function", sorted(FLOOR_FORMS))
def test_each_floor_is_formed_by_the_one_helper(name, function):
    refs = _references(_function(name, function))
    assert refs["_distortion_floor"] == FLOOR_FORMS[(name, function)], (
        f"{name}.{function} forms {refs['_distortion_floor']} floors by "
        f"_distortion_floor")


@pytest.mark.parametrize("command", cli._COMMANDS, ids=lambda command: command[0])
def test_every_cli_option_is_read_by_its_command(command):
    # A command reads each option as o["flag"]; a flag named only in the
    # table would be accepted, checked and then dropped.
    name, *_, opts = command
    body = _function("cli", "cmd_" + name.replace("-", "_"))
    constants = {node.value for node in ast.walk(body)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = [opt.flag for opt in opts if opt.flag not in constants]
    assert not unread, f"cmd_{name} never names {unread}"


#: Records that callers build and pass in.  These, and every record that
#: checks its fields when it is built, are frozen, so that no value can
#: change after its check.  Every other record is one the library builds and
#: returns: slotted, not frozen, since a generated frozen ``__init__`` stores
#: each field through ``object.__setattr__``.
PASSED_IN = {"model.GaussianSource", "model.RateTuple", "model.DistortionTuple",
             "channel.TestChannel", "regions.GridSpec",
             "analysis.FixedChannelConfig", "analysis.MdcrSplit",
             "analysis.AsymptoticConfig", "discrete.JointPmf",
             "discrete.DecoderMaps", "mmse.CovarianceMatrix"}


def test_records_are_frozen_when_checked_or_passed_in_and_slotted_otherwise():
    records = {}
    for path in MODULES:
        module = importlib.import_module(f"gaussrd.{path.stem}")
        records.update(
            (f"{path.stem}.{name}", value) for name, value in vars(module).items()
            if isinstance(value, type) and dataclasses.is_dataclass(value)
            and value.__module__ == module.__name__)
    assert PASSED_IN <= set(records), sorted(PASSED_IN - set(records))
    wrong = []
    for name, cls in sorted(records.items()):
        frozen = "__post_init__" in vars(cls) or name in PASSED_IN
        if cls.__dataclass_params__.frozen != frozen:
            wrong.append(f"{name} should {'' if frozen else 'not '}be frozen")
        elif not frozen and "__slots__" not in vars(cls):
            wrong.append(f"{name} should have __slots__")
    assert not wrong, wrong


#: The value types built on every call of the scalar path.  Each writes its
#: own ``__init__``, which runs its checks and then stores its fields through
#: ``model._setattr``, in place of the generated one that looks
#: ``object.__setattr__`` up for each field and then calls ``__post_init__``.
ONE_STEP_INIT = ("model.GaussianSource", "model.RateTuple", "model.DistortionTuple",
                 "channel.TestChannel")


@pytest.mark.parametrize("name", ONE_STEP_INIT)
def test_value_types_check_and_store_in_one_init(name):
    module, _, record = name.partition(".")
    cls = getattr(importlib.import_module(f"gaussrd.{module}"), record)
    assert not cls.__dataclass_params__.init and "__init__" in vars(cls)
    assert "__post_init__" not in vars(cls)
    assert cls.__dataclass_params__.frozen and name in PASSED_IN


def test_bench_imports_load_every_traced_layer():
    # bench/spans.py wraps each LAYERS module found in sys.modules once the
    # workloads have been imported; a layer that import chain no longer
    # loads would fail every --trace 1 run.  The fresh interpreter runs the
    # workloads' own package imports.
    spans = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    layers, = [ast.literal_eval(node.value) for node in spans.body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)]
    workloads = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    imports = [ast.unparse(node) for node in workloads.body
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "gaussrd"]
    assert any("channel" in line and "selfcheck" in line for line in imports)
    code = "\n".join([*imports, "import sys",
                      "print(' '.join(sorted(sys.modules)))"])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    missing = [layer for layer in layers if f"gaussrd.{layer}" not in loaded]
    assert not missing, f"traced layers not loaded by the bench imports: {missing}"
