"""Byte-level regression of the writers: small runs of ``fig2``, ``fig3``,
``evolve`` and ``protocol`` with every format they offer, against the files
they wrote when the set was made.

``tests/golden`` compares CSV values within 1e-12 and so checks the numbers;
this set checks the text.  CSV and SVG files must be byte-identical and each
JSON document equal once ``meta.generated_at`` is dropped.  The runs write
into a relative ``out`` directory, so ``meta.config`` records the same
``output-dir`` wherever the test runs.  After a change that is meant to move
the bytes, regenerate the cases it moves and review their diff:

    PYTHONPATH=src python tests/test_golden_bytes.py fig3

With no case named, every case is regenerated.
"""

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from qstsim.cli import main

GOLDEN = Path(__file__).parent / "golden_bytes"

CASES = {
    "fig2": ["fig2", "--grid-points", "11"],
    "fig3": ["fig3", "--grid-points", "4", "--coarse-points", "100"],
    "evolve": ["evolve", "--p", "0.3", "--grid-points", "11", "--s-over-g", "0.5"],
    "protocol": [
        "protocol", "--p", "0.4", "--s-over-g", "0.5", "--alpha", "0.6", "--beta", "0.8j",
    ],
}


def _formats(argv: "list[str]") -> str:
    return "csv,json" if argv[0] == "protocol" else "csv,json,svg"


def _run(argv: "list[str]", directory: Path) -> None:
    """Run argv with every format into directory/out."""
    here = Path.cwd()
    os.chdir(directory)
    try:
        code = main([*argv, "--formats", _formats(argv), "--output-dir", "out"])
    finally:
        os.chdir(here)
    assert code == 0, argv


def _json(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["meta"]["generated_at"]
    return payload


def test_golden_bytes_cases_are_recorded():
    assert json.loads((GOLDEN / "cases.json").read_text()) == CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(tmp_path, capsys, name):
    _run(CASES[name], tmp_path)
    got_dir, expected_dir = tmp_path / "out", GOLDEN / name
    assert sorted(p.name for p in got_dir.iterdir()) == sorted(p.name for p in expected_dir.iterdir())
    for expected in sorted(expected_dir.iterdir()):
        got = got_dir / expected.name
        if expected.suffix == ".json":
            assert _json(got) == _json(expected), expected.name
        else:
            assert got.read_bytes() == expected.read_bytes(), expected.name


def regenerate(names, golden: Path = GOLDEN) -> None:
    """Rewrite cases.json and the directories of the named cases only."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise KeyError(f"no golden case {', '.join(unknown)}")
    golden.mkdir(exist_ok=True)
    (golden / "cases.json").write_text(json.dumps(CASES, indent=1) + "\n")
    for name in names:
        shutil.rmtree(golden / name, ignore_errors=True)
        (golden / name).mkdir()
        _run(CASES[name], golden / name)
        for path in (golden / name / "out").iterdir():
            path.rename(golden / name / path.name)
        (golden / name / "out").rmdir()


def test_regenerate_rewrites_only_the_named_case(tmp_path, capsys):
    copy = tmp_path / "golden_bytes"
    shutil.copytree(GOLDEN, copy)
    for case in CASES:
        (copy / case / "stale.csv").write_text("untouched\n")
    regenerate(["protocol"], copy)
    assert sorted(p.name for p in (copy / "protocol").iterdir()) == sorted(
        p.name for p in (GOLDEN / "protocol").iterdir()
    )
    for case in sorted(set(CASES) - {"protocol"}):
        for path in (GOLDEN / case).iterdir():
            assert (copy / case / path.name).read_bytes() == path.read_bytes(), (case, path.name)
        assert (copy / case / "stale.csv").read_text() == "untouched\n"


if __name__ == "__main__":
    with contextlib.redirect_stdout(io.StringIO()):  # main prints every path it writes
        regenerate(sys.argv[1:] or CASES)
