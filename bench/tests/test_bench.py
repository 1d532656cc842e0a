"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from checks import check_job  # noqa: E402
from jobs import WORKLOADS, make_jobs  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS, percentile  # noqa: E402
from tracer import fold, import_times, layer_metrics, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_job_list(workload):
    first = make_jobs(workload, 7, 30)
    assert first == make_jobs(workload, 7, 30)
    assert first != make_jobs(workload, 8, 30)
    assert len(first) == len(make_jobs(workload, 8, 30))


def test_replays_follow_their_originals():
    jobs = make_jobs("cli_cold", 3, 30)
    position = {job["id"]: i for i, job in enumerate(jobs)}
    replays = [job for job in jobs if job["kind"] == "replay"]
    assert len(replays) * 2 == len(jobs)
    assert all(position[job["replay_of"]] < position[job["id"]] for job in replays)


def test_metric_names_use_only_allowed_characters():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert set(declared) == set(END_TO_END_UNITS) | set(PER_LAYER_UNITS)
    assert len(declared) == len(set(declared))
    for name in [*declared, *(w["name"] for w in spec["workloads"])]:
        assert NAME.match(name), name
    assert set(layer_metrics({}, 1)) <= set(PER_LAYER_UNITS)


def _span(name, start, end, parent, value=0):
    return [name, start, end, parent, "j0001", value]


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("protocol.run_protocol", 1.0, 4.0, 0),
        _span("analytic.analytic_rho", 1.5, 2.5, 1),
        _span("output.write_csv", 3.0, 5.0, 0, value=120),  # overlaps its sibling
        _span("output.write_json", 6.0, 7.0, 0, value=80),
    ]
    # main: 10 minus the union [1, 5] and [6, 7]; grandchildren do not count twice
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]
    totals = fold(spans)
    assert totals["cli.main"] == [1, 10.0, 5.0, 0]
    metrics = layer_metrics(totals, jobs=2)
    assert metrics["output.self_s"] == 1.5
    assert metrics["output.files"] == 1.0
    assert metrics["output.bytes"] == 100.0
    assert metrics["protocol.us_per_call"] == 3e6
    assert metrics["lindblad.self_s"] == 0.0


def test_import_times_take_outermost_scipy_and_top_level_qstsim():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        10 |         10 |         scipy._lib",
        "import time:        30 |         40 |       scipy",
        "import time:        50 |         50 |       scipy.linalg",
        "import time:        20 |        210 |     qstsim.analytic",
        "import time:         5 |        215 |   qstsim",
        "import time:         7 |        222 | qstsim.cli",
    ])
    times = import_times(log)
    assert times["import.qstsim_s"] == pytest.approx(222e-6)
    assert times["import.scipy_s"] == pytest.approx(90e-6)


def test_percentile_is_nearest_rank():
    values = list(range(1, 41))
    assert percentile(values, 50) == 20
    assert percentile(values, 75) == 30


def _write_protocol_run(directory: Path, fidelity: str) -> dict:
    directory.mkdir(parents=True)
    (directory / "protocol.csv").write_text(f"fidelity,q_used\n{fidelity},0.5\n")
    state = [[0.5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.5]]
    zeros = [[0] * 4 for _ in range(4)]
    data = {"fidelity": 0.9, "final_state_re": state, "final_state_im": zeros}
    (directory / "protocol.json").write_text(json.dumps({"meta": {}, "data": data}))
    stdout = f"{directory / 'protocol.csv'}\n{directory / 'protocol.json'}\n"
    return {"rc": 0, "exc": None, "stdout": stdout}


def test_a_corrupted_output_file_is_not_ok(tmp_path):
    job = {"id": "j0001", "kind": "protocol-fixed", "argv": ["protocol"]}
    good = _write_protocol_run(tmp_path / "good", "0.9")
    assert check_job(job, good, tmp_path) == []
    corrupted = _write_protocol_run(tmp_path / "bad", "0.9")
    (tmp_path / "bad" / "protocol.json").write_text('{"meta": {}, "data": {"fidel')
    assert check_job(job, corrupted, tmp_path) == ["output: protocol.json unreadable (JSONDecodeError)"]
    out_of_range = _write_protocol_run(tmp_path / "nan", "nan")
    assert check_job(job, out_of_range, tmp_path) == ["protocol.csv: fidelity outside [0, 1]"]


def test_a_replay_with_different_bytes_is_not_ok(tmp_path):
    original = _write_protocol_run(tmp_path / "first", "0.9")
    replay = _write_protocol_run(tmp_path / "second", "0.90000000001")
    job = {"id": "j0002", "kind": "replay", "replay_of": "j0001", "argv": None}
    assert check_job(job, replay, tmp_path, original=original) == ["replay: protocol.csv differs"]


def test_a_failed_job_is_not_ok(tmp_path):
    job = {"id": "j0001", "kind": "fig3", "argv": ["fig3"]}
    assert check_job(job, {"rc": 4, "exc": None, "stdout": ""}, tmp_path) == ["exit 4"]
    raised = {"rc": None, "exc": "IndexError: index 8 is out of bounds", "stdout": ""}
    assert check_job(job, raised, tmp_path) == ["exception IndexError"]
