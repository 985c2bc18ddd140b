"""The committed CLI output corpus reproduces byte for byte.

``tests/data/cli_corpus.json`` holds, for each argv, the exit code, stdout and
stderr of ``gaussrd.cli.main`` run in-process from the repository root with
``COLUMNS=80``.  ``tests/make_cli_corpus.py`` writes it; this test only reads
it, so a change of output shows as a failure here and, once regenerated, as a
reviewable diff of the corpus.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import gaussrd.cli as cli

ROOT = Path(__file__).resolve().parents[1]
CORPUS = json.loads((ROOT / "tests" / "data" / "cli_corpus.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", CORPUS,
                         ids=[f"{i:03d}-{e['argv'][0]}" for i, e in enumerate(CORPUS)])
def test_the_cli_reproduces_its_corpus(monkeypatch, entry):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(entry["argv"]))
    assert (code, out.getvalue(), err.getvalue()) == (
        entry["exit"], entry["stdout"], entry["stderr"])
