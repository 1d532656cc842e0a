"""Golden-output regression: every command, on small grids, against the CSV
files it wrote when the golden set was made.

Headers and row counts must match exactly, and every value must agree
within 1e-12 absolute, so a change that should leave the results alone
needs no hand-run diff between commits.  After a change that is meant to
move the results, regenerate the cases it moves and review their diff:

    PYTHONPATH=src python tests/test_golden.py fig3 sweep_decay

With no case named, every case is regenerated.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from qstsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

_EQUAL = ["--s-over-g", "0.5"]
_UNEQUAL = [
    "--kappa-over-g", "0.3", "--gamma1-over-g", "0.2", "--gamma2-over-g", "0.25",
    "--gamma-phi-over-g", "0.05",
]


def _cases() -> "dict[str, list[str]]":
    cases = {
        "evolve": ["evolve", "--p", "0.3", "--grid-points", "21", *_EQUAL],
        "evolve_unequal": ["evolve", "--grid-stop", "4", "--grid-points", "21", *_UNEQUAL],
    }
    for engine in ("analytic", "numeric"):
        for rule, extra in (("formula", []), ("fixed", ["--q", "0.6"]), ("optimal", [])):
            cases[f"protocol_{rule}_{engine}"] = [
                "protocol", "--q-rule", rule, *extra, "--engine", engine,
                "--alpha", "0.6", "--beta", "0.8", "--p", "0.4", *_EQUAL,
            ]
        cases[f"optimize_q_{engine}"] = [
            "optimize-q", "--engine", engine, "--alpha", "0.6", "--beta", "0.8j", "--p", "0.4",
            "--gt", "2", *_EQUAL,
        ]
        cases[f"protocol_strong_decay_{engine}"] = [
            "protocol", "--s-over-g", "1000", "--engine", engine,
        ]
    cases.update({
        "protocol_optimal_unequal": [
            "protocol", "--q-rule", "optimal", "--engine", "numeric", "--p", "0.2", *_UNEQUAL,
        ],
        "protocol_fixed_unequal_no_sigma_z": [
            "protocol", "--q-rule", "fixed", "--q", "0.3", "--engine", "numeric",
            "--sigma-z", "false", *_UNEQUAL,
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
            "sweep", "--kind", "decay", "--grid-start", "0.5", "--grid-stop", "8",
            "--grid-points", "5", "--coarse-points", "100", "--alpha", "0.8", "--beta", "0.6",
        ],
        "sweep_dephasing": [
            "sweep", "--kind", "dephasing", "--gamma-phi-over-g", "0,2", "--grid-points", "11",
        ],
    })
    return cases


CASES = _cases()

# rtol absorbs the parse error of the two decimals, so that a flip of the
# twelfth printed digit of a value below 1 still counts as 1e-12 apart
_ATOL, _RTOL = 1e-12, 1e-15


def _run(argv: "list[str]", out: Path) -> None:
    code = main([*argv, "--formats", "csv", "--output-dir", str(out)])
    assert code == 0, argv


def _read(path: Path) -> "tuple[str, np.ndarray]":
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(v) for v in row.split(",")] for row in rows])


def test_golden_cases_are_recorded():
    assert json.loads((GOLDEN / "cases.json").read_text()) == CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(tmp_path, capsys, name):
    _run(CASES[name], tmp_path)
    expected_dir = GOLDEN / name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in expected_dir.iterdir())
    for path in sorted(expected_dir.iterdir()):
        header, expected = _read(path)
        got_header, got = _read(tmp_path / path.name)
        assert got_header == header, path.name
        assert got.shape == expected.shape, path.name
        np.testing.assert_allclose(got, expected, rtol=_RTOL, atol=_ATOL, err_msg=path.name)


def regenerate(names, golden: Path = GOLDEN) -> None:
    """Rewrite cases.json and the directories of the named cases only."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise KeyError(f"no golden case {', '.join(unknown)}")
    golden.mkdir(exist_ok=True)
    (golden / "cases.json").write_text(json.dumps(CASES, indent=1) + "\n")
    for name in names:
        shutil.rmtree(golden / name, ignore_errors=True)
        _run(CASES[name], golden / name)


def test_regenerate_rewrites_only_the_named_case(tmp_path, capsys):
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy)
    for case in CASES:
        (copy / case / "stale.csv").write_text("untouched\n")
    regenerate(["fig2"], copy)
    assert sorted(p.name for p in (copy / "fig2").iterdir()) == sorted(p.name for p in (GOLDEN / "fig2").iterdir())
    for case in sorted(set(CASES) - {"fig2"}):
        for path in (GOLDEN / case).iterdir():
            assert (copy / case / path.name).read_bytes() == path.read_bytes(), (case, path.name)
        assert (copy / case / "stale.csv").read_text() == "untouched\n"
    with pytest.raises(KeyError):
        regenerate(["no_such_case"], copy)


if __name__ == "__main__":
    with contextlib.redirect_stdout(io.StringIO()):  # main prints every path it writes
        regenerate(sys.argv[1:] or CASES)
