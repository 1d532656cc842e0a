"""The byte-pinned cases of the golden suite in ``tests/test_golden.py``,
which runs and regenerates them with every other case: their record, and
the regeneration of one of them alone."""

import json

from test_golden import CASES, GOLDEN, check_regenerate

PINNED = sorted(name for name, case in CASES.items() if case["pinned"])


def test_golden_bytes_cases_are_recorded():
    recorded = json.loads((GOLDEN / "cases.json").read_text())
    assert sorted(name for name, case in recorded.items() if case["pinned"]) == PINNED
    for name in PINNED:  # every format the command writes
        formats = {".csv", ".json"} if CASES[name]["argv"][0] == "protocol" else {".csv", ".json", ".svg"}
        assert {path.suffix for path in (GOLDEN / name).iterdir()} == formats, name


def test_regenerate_rewrites_only_the_named_case(tmp_path, capsys):
    check_regenerate(tmp_path, ("protocol_pinned",))
