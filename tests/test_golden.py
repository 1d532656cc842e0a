"""Golden-output regression: every command, on small grids, against the
files it wrote when the golden set was made.

``golden/cases.json`` records each case's argv and whether its files are
pinned.  An unpinned case writes CSV only; headers and row counts must match
exactly, and every value must agree within 1e-12 absolute.  A pinned case
writes every format its command offers; CSV and SVG files must be
byte-identical, and each JSON document equal once ``meta.generated_at`` is
dropped.  Every case runs from a scratch directory into a relative ``out``,
so ``meta.config`` records the same ``output-dir`` wherever it runs.  After a
change that is meant to move the results, regenerate the cases it moves, of
either kind, and review their diff:

    PYTHONPATH=src python tests/test_golden.py fig3 fig3_pinned

With no case named, every case is regenerated.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qstsim.cli import main
from test_output import read_csv

GOLDEN = Path(__file__).parent / "golden"

_EQUAL = ["--s-over-g", "0.5"]
_UNEQUAL = "--kappa-over-g 0.3 --gamma1-over-g 0.2 --gamma2-over-g 0.25 --gamma-phi-over-g 0.05".split()


def _unpinned() -> "dict[str, list[str]]":
    cases = {
        "evolve": ["evolve", "--p", "0.3", "--grid-points", "21", *_EQUAL],
        "evolve_unequal": ["evolve", "--grid-stop", "4", "--grid-points", "21", *_UNEQUAL],
    }
    for engine in ("analytic", "numeric"):
        for rule, extra in (("formula", []), ("fixed", ["--q", "0.6"]), ("optimal", [])):
            cases[f"protocol_{rule}_{engine}"] = [
                "protocol", "--q-rule", rule, *extra, "--engine", engine, "--alpha", "0.6", "--beta", "0.8",
                "--p", "0.4", *_EQUAL,
            ]
        cases[f"optimize_q_{engine}"] = [
            "optimize-q", "--engine", engine, "--alpha", "0.6", "--beta", "0.8j", "--p", "0.4", "--gt", "2", *_EQUAL,
        ]
        cases[f"protocol_strong_decay_{engine}"] = ["protocol", "--s-over-g", "1000", "--engine", engine]
    cases.update({
        "protocol_optimal_unequal": [
            "protocol", "--q-rule", "optimal", "--engine", "numeric", "--p", "0.2", *_UNEQUAL,
        ],
        "protocol_fixed_unequal_no_sigma_z": [
            "protocol", "--q-rule", "fixed", "--q", "0.3", "--engine", "numeric", "--sigma-z", "false", *_UNEQUAL,
        ],
        "optimize_q_unequal": ["optimize-q", "--engine", "numeric", "--p", "0.5", *_UNEQUAL],
        "optimize_q_strong_decay": ["optimize-q", "--s-over-g", "1000"],
        "optimize_q_equal_rates_win": ["optimize-q", "--s-over-g", "10", "--p", "0.5"],
        "fig2": ["fig2", "--grid-points", "31"],
        "fig3": ["fig3", "--grid-points", "6", "--coarse-points", "100"],
        "fig4": ["fig4", "--grid-points", "31"],
        "fig4_strong_decay": ["fig4", "--s-over-g", "130", "--grid-points", "31"],
        "sweep_time": ["sweep", "--kind", "time", "--p", "0.5", "--baseline", "false", "--grid-points", "11"],
        "sweep_decay": [
            "sweep", "--kind", "decay", "--grid-start", "0.5", "--grid-stop", "8", "--grid-points", "5",
            "--coarse-points", "100", "--alpha", "0.8", "--beta", "0.6",
        ],
        "sweep_dephasing": ["sweep", "--kind", "dephasing", "--gamma-phi-over-g", "0,2", "--grid-points", "11"],
    })
    return cases


# small runs of the writers
_PINNED = {
    "fig2_pinned": ["fig2", "--grid-points", "11"],
    "fig3_pinned": ["fig3", "--grid-points", "4", "--coarse-points", "100"],
    "evolve_pinned": ["evolve", "--p", "0.3", "--grid-points", "11", "--s-over-g", "0.5"],
    "protocol_pinned": ["protocol", "--p", "0.4", "--s-over-g", "0.5", "--alpha", "0.6", "--beta", "0.8j"],
}

CASES = {
    **{name: {"argv": argv, "pinned": False} for name, argv in _unpinned().items()},
    **{name: {"argv": argv, "pinned": True} for name, argv in _PINNED.items()},
}

# rtol absorbs the parse error of the two decimals, so that a flip of the
# twelfth printed digit of a value below 1 still counts as 1e-12 apart
_ATOL, _RTOL = 1e-12, 1e-15


def _run(case: dict, directory: Path) -> Path:
    """Run case from directory into directory/out, and return that."""
    formats = [] if case["pinned"] else ["--formats", "csv"]  # by default, every format
    here = Path.cwd()
    os.chdir(directory)
    try:
        code = main([*case["argv"], *formats, "--output-dir", "out"])
    finally:
        os.chdir(here)
    assert code == 0, case["argv"]
    return directory / "out"


def _json(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["meta"]["generated_at"]
    return payload


def _names(directory: Path) -> "list[str]":
    return sorted(path.name for path in directory.iterdir())


def test_golden_cases_are_recorded():
    assert json.loads((GOLDEN / "cases.json").read_text()) == CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(tmp_path, capsys, name):
    got_dir, expected_dir = _run(CASES[name], tmp_path), GOLDEN / name
    assert _names(got_dir) == _names(expected_dir)
    for expected in sorted(expected_dir.iterdir()):
        got = got_dir / expected.name
        if expected.suffix == ".json":
            assert _json(got) == _json(expected), expected.name
        elif CASES[name]["pinned"]:
            assert got.read_bytes() == expected.read_bytes(), expected.name
        else:
            (header, values), (got_header, got_values) = read_csv(expected), read_csv(got)
            assert got_header == header and got_values.shape == values.shape, expected.name
            np.testing.assert_allclose(got_values, values, rtol=_RTOL, atol=_ATOL, err_msg=expected.name)


def regenerate(names, golden: Path = GOLDEN) -> None:
    """Rewrite cases.json, one case a line, and the named cases only."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise KeyError(f"no golden case {', '.join(unknown)}")
    golden.mkdir(exist_ok=True)
    lines = (f" {json.dumps(name)}: {json.dumps(case)}" for name, case in CASES.items())
    (golden / "cases.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    for name in names:
        shutil.rmtree(golden / name, ignore_errors=True)
        with tempfile.TemporaryDirectory() as scratch:
            shutil.move(_run(CASES[name], Path(scratch)), golden / name)


def check_regenerate(tmp_path: Path, named: "tuple[str, ...]") -> None:
    """Regenerate the named cases in a copy of the golden set whose every case
    holds a stale file, and check that only the named cases are rewritten."""
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy)
    for case in CASES:
        (copy / case / "stale.csv").write_text("untouched\n")
    regenerate(named, copy)
    assert (copy / "cases.json").read_bytes() == (GOLDEN / "cases.json").read_bytes()
    for case in CASES:
        if case in named:
            assert _names(copy / case) == _names(GOLDEN / case), case
            continue
        for path in (GOLDEN / case).iterdir():
            assert (copy / case / path.name).read_bytes() == path.read_bytes(), (case, path.name)
        assert (copy / case / "stale.csv").read_text() == "untouched\n"


def test_regenerate_rewrites_only_the_named_case(tmp_path, capsys):
    check_regenerate(tmp_path, ("fig2",))  # unpinned; tests/test_golden_bytes.py regenerates a pinned case
    with pytest.raises(KeyError):
        regenerate(["no_such_case"], tmp_path / "golden")


if __name__ == "__main__":
    with contextlib.redirect_stdout(io.StringIO()):  # main prints every path it writes
        regenerate(sys.argv[1:] or CASES)
