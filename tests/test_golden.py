"""The committed CLI corpus: each case in golden/cases.json runs in-process through
``cli.main`` in a copy of golden/inputs and must reproduce its recorded exit code,
stdout, stderr and ``-o`` bytes (golden/expected/NAME.exit, .stdout, .stderr, .o).

A change that alters output on purpose regenerates the corpus with
``PYTHONPATH=src python tests/test_golden.py`` and lists the changed cases.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from defent.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
OUT = "out.json"  # the -o target a case may name, relative to its working directory


def run_case(argv, workdir) -> dict:
    """suffix -> bytes of one case's results; '.o' only when it wrote OUT."""
    shutil.copytree(GOLDEN / "inputs", workdir, dirs_exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        # argparse wraps its usage text at $COLUMNS
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    got = {".exit": f"{code}\n".encode(), ".stdout": out.getvalue().encode(),
           ".stderr": err.getvalue().encode()}
    if Path(workdir, OUT).exists():
        got[".o"] = Path(workdir, OUT).read_bytes()
    return got


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_golden_case(case, tmp_path):
    name, *argv = case
    got = run_case(argv, tmp_path)
    want = {p.suffix: p.read_bytes() for p in (GOLDEN / "expected").glob(f"{name}.*")}
    assert got == want


if __name__ == "__main__":
    expected = GOLDEN / "expected"
    before = {p.name: p.read_bytes() for p in expected.glob("*")}
    shutil.rmtree(expected, ignore_errors=True)
    expected.mkdir()
    for name, *argv in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            got = {f"{name}{suffix}": data for suffix, data in run_case(argv, tmp).items()}
        for file, data in got.items():
            (expected / file).write_bytes(data)
        if got != {file: data for file, data in before.items() if Path(file).stem == name}:
            print(name)
