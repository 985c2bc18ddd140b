"""List the source lines that only private-call tests reach.

Run from anywhere with ``PYTHONPATH=src python tests/reach.py`` (extra
arguments go to pytest in place of the default ``tests``; pytest does not
collect this file).  It runs the suite in-process under ``sys.settrace``
(and ``threading.settrace``, for the Monte Carlo workers), attributes each
executed line of ``src/gaussrd`` to the test running at the time, and
prints every line that only *private* tests reach: those that monkeypatch
a name in ``gaussrd`` or whose source (decorators included) names a private
function of ``gaussrd``, such as ``regions._penalty``.  A test that patches
only the environment, the directory or ``sys`` stays public, and a test is
private from its first patch of ``gaussrd`` on.  Lines run at import or
collection count as reached publicly.

Such a line is a guard, branch or fallback that no public input was seen
to reach: a candidate for deletion, or for a test through the public entry
points.  It is a cheap first pass, not a proof: a line in the list may be
reachable by an input no test tries, and code that runs in a subprocess is
not traced.  Tracing roughly doubles the suite's wall time.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gaussrd"
PREFIX = str(SRC) + "/"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _is_package_module(obj) -> bool:
    return inspect.ismodule(obj) and (obj.__name__ == "gaussrd"
                                      or obj.__name__.startswith("gaussrd."))


def _is_package_private(obj) -> bool:
    return callable(obj) and (getattr(obj, "__module__", None) or "").startswith("gaussrd")


def _patches_the_package(target) -> bool:
    """Whether a ``MonkeyPatch.setattr``/``delattr`` target lies in ``gaussrd``."""
    if isinstance(target, str):
        return target == "gaussrd" or target.startswith("gaussrd.")
    return _is_package_module(target) or _is_package_private(target)


def _names_a_private_function(function) -> bool:
    """Whether ``function``'s source names a private callable of ``gaussrd``,
    directly or as an attribute of a ``gaussrd`` module."""
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    except (OSError, TypeError, SyntaxError):
        return False
    # The test module's names: a hypothesis test's own __globals__ are
    # hypothesis's.
    scope = vars(sys.modules[function.__module__])
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and _private(node.id):
            if _is_package_private(scope.get(node.id)):
                return True
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            if isinstance(base, ast.Name) and _is_package_module(scope.get(base.id)):
                if _is_package_private(getattr(scope[base.id], node.attr, None)):
                    return True
    return False


class Reach:
    """A pytest plugin that attributes each traced source line to a test."""

    def __init__(self) -> None:
        self.current, self.private_now = "<collect>", False
        self.public: set[tuple[str, int]] = set()
        self.private: dict[tuple[str, int], set[str]] = defaultdict(set)
        self.private_tests: set[str] = set()

    def _local(self, frame, event, arg):
        if event == "line":
            key = (frame.f_code.co_filename, frame.f_lineno)
            if self.private_now:
                self.private[key].add(self.current)
            else:
                self.public.add(key)
        return self._local

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename.startswith(PREFIX) else None

    def _mark(self, patch):
        def marked(monkeypatch, target, *args, **kwargs):
            if _patches_the_package(target):
                self.private_now = True
                self.private_tests.add(self.current)
            return patch(monkeypatch, target, *args, **kwargs)
        return marked

    def start(self) -> None:
        self.patches = pytest.MonkeyPatch.setattr, pytest.MonkeyPatch.delattr
        pytest.MonkeyPatch.setattr, pytest.MonkeyPatch.delattr = map(self._mark, self.patches)
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)
        pytest.MonkeyPatch.setattr, pytest.MonkeyPatch.delattr = self.patches

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        function = getattr(item, "function", None)
        private = function is not None and _names_a_private_function(function)
        self.current, self.private_now = item.nodeid, private
        if private:
            self.private_tests.add(item.nodeid)
        yield
        self.current, self.private_now = "<collect>", False

    def report(self) -> list[tuple[str, int, str, list[str]]]:
        """``(file, line, source, tests)`` of each line only private tests reach."""
        only = sorted(key for key in self.private if key not in self.public)
        rows = []
        for filename, line in only:
            text = Path(filename).read_text(encoding="utf-8").splitlines()[line - 1]
            rows.append((Path(filename).name, line, text.strip(),
                         sorted(self.private[(filename, line)])))
        return rows


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    plugin = Reach()
    plugin.start()
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])],
                           plugins=[plugin])
    finally:
        plugin.stop()
    rows = plugin.report()
    print(f"\n{len(plugin.private_tests)} private tests; {len(plugin.public)} lines "
          f"reached publicly; {len(rows)} reached only by private tests:")
    for name, line, text, tests in rows:
        shown = ", ".join(t.split("::", 1)[-1] for t in tests[:2])
        more = f" (+{len(tests) - 2})" if len(tests) > 2 else ""
        print(f"  {name}:{line}: {text}    <- {shown}{more}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
