"""Smoke runs of the development scripts.

`scripts/class_phases.py` reads `bsgs` internals (`_row_points`,
`_table_rows`, `_sorted_rows`, `_Numbering`, a class's kept
`_normal_closure`), so a change to them that the script does not follow
shows here.  `scripts/gen_sz8_fixture.py` builds the Sz(8) document in
process, without writing it, and it must equal the shipped fixture.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLASS_PHASES = ROOT / "scripts" / "class_phases.py"
GEN_SZ8 = ROOT / "scripts" / "gen_sz8_fixture.py"
SZ8 = ROOT / "src" / "solvrad" / "data" / "sz8.json"


@pytest.mark.parametrize(
    "args, labels",
    [
        (
            ["A(5)"],
            ["rows", "sort", "index", "walks", "centralizers", "count",
             "first-k", "all reps", "oracles", "peak RSS"],
        ),
        (
            ["A(6)", "--element", "(1,2,3,4,5)"],
            ["class_of", "centralizer", "total", "peak RSS"],
        ),
    ],
    ids=["classes", "element"],
)
def test_class_phases_runs(args, labels):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, str(CLASS_PHASES), *args, "--repeat", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed = [line.strip().split("  ")[0] for line in proc.stdout.splitlines()[1:]]
    assert printed == labels


def test_sz8_generator_reproduces_the_shipped_fixture():
    spec = importlib.util.spec_from_file_location("gen_sz8_fixture", GEN_SZ8)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.fixture() == json.loads(SZ8.read_text())
