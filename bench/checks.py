"""Output checks that decide whether a job is ``ok``.

A job is ok when it exited 0, every file ``main`` printed exists and parses,
every fidelity and success value is finite and in [0, 1], a ``protocol``
final state is Hermitian with unit trace and eigenvalues >= -1e-9, a
``--config`` replay wrote the same CSV bytes as its original, and a numeric
job with an analytic reference agrees with it within 1e-7 (the tolerance of
acceptance criterion 01).

A job that is not ok counts as failed and lowers ``ok_ratio``; the run goes
on.  The known defects land there: exit 4 and an IndexError out of ``main``
under exp(-st) underflow, NaN fidelities just below that, and replays of
``optimal``/``optimize-q`` runs whose CSV moves in the last digits because
the stored amplitudes normalize again on replay.  A run is incorrect only
when a job that exited 0 left output that cannot be judged: a printed file
is missing, unreadable or of unknown type, or nothing was printed.  Those
problems start with ``output:``.
"""

import json
import math
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np

VALUE_SLACK = 1e-12  # fidelities near 1 may round a hair past it
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-9
AGREEMENT_TOL = 1e-7


def _in_unit_interval(values) -> bool:
    return all(math.isfinite(v) and -VALUE_SLACK <= v <= 1.0 + VALUE_SLACK for v in values)


def _is_rate(name: str) -> bool:
    return "fidelity" in name or "success" in name


def _read_csv(path: Path) -> "list[str]":
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    if not rows or any(len(row) != len(header) for row in rows):
        raise ValueError("ragged or empty table")
    return [
        f"{name} outside [0, 1]"
        for name, column in zip(header, zip(*rows))
        if _is_rate(name) and not _in_unit_interval(column)
    ]


def _read_json(path: Path) -> "list[str]":
    data = json.loads(path.read_text(encoding="utf-8"))["data"]
    problems = []
    for name, value in data.items():
        values = value if isinstance(value, list) else [value]
        if _is_rate(name) and not _in_unit_interval(values):
            problems.append(f"{name} outside [0, 1]")
    if "final_state_re" in data:
        rho = np.array(data["final_state_re"]) + 1j * np.array(data["final_state_im"])
        problems += _state_problems(rho)
    return problems


def _state_problems(rho: np.ndarray) -> "list[str]":
    if not np.all(np.isfinite(rho)):
        return ["final_state not finite"]
    problems = []
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        problems.append("final_state not Hermitian")
    if abs(np.trace(rho) - 1.0) > TRACE_TOL:
        problems.append("final_state trace != 1")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] < EIGENVALUE_FLOOR:
        problems.append("final_state has a negative eigenvalue")
    return problems


def _read_svg(path: Path) -> "list[str]":
    ElementTree.fromstring(path.read_bytes())
    return []


_READERS = {".csv": _read_csv, ".json": _read_json, ".svg": _read_svg}


def written_files(result: dict, root: Path) -> "list[Path]":
    """The files ``main`` printed, one path per line, relative to root."""
    return [root / line for line in result["stdout"].splitlines() if line.strip()]


def _failure(result: dict) -> "str | None":
    if result["exc"]:
        return f"exception {result['exc'].split(':')[0]}"
    if result["rc"] != 0:
        return f"exit {result['rc']}"
    return None


def check_job(job: dict, result: dict, root: Path, original=None, reference=None) -> "list[str]":
    """Problems with one job's outcome; empty means ok.

    ``original`` is the result of the job a replay replays, ``reference`` the
    analytic-engine result for a job that has one.
    """
    failure = _failure(result)
    if failure:
        return [failure]
    files = written_files(result, root)
    if not files:
        return ["output: no files printed"]
    problems = []
    for path in files:
        reader = _READERS.get(path.suffix)
        if reader is None:
            problems.append(f"output: {path.name} of unknown type")
            continue
        try:
            problems += [f"{path.name}: {p}" for p in reader(path)]
        except (OSError, ValueError, KeyError, IndexError, ElementTree.ParseError) as error:
            problems.append(f"output: {path.name} unreadable ({type(error).__name__})")
    if original is not None and _failure(original) is None:
        problems += _replay_problems(files, written_files(original, root))
    if reference is not None:
        problems += _agreement_problems(files, reference, root)
    return problems


def _replay_problems(files, original_files) -> "list[str]":
    originals = {p.name: p for p in original_files if p.suffix == ".csv"}
    replayed = {p.name: p for p in files if p.suffix == ".csv"}
    if set(originals) != set(replayed):
        return ["replay: different CSV files"]
    return [
        f"replay: {name} differs"
        for name, path in sorted(replayed.items())
        if path.read_bytes() != originals[name].read_bytes()
    ]


def _json_data(files) -> dict:
    for path in files:
        if path.suffix == ".json":
            return json.loads(path.read_text(encoding="utf-8"))["data"]
    return {}


def _agreement_problems(files, reference: dict, root: Path) -> "list[str]":
    failure = _failure(reference)
    if failure:
        return [f"agree: analytic reference failed ({failure})"]
    numeric, analytic = _json_data(files), _json_data(written_files(reference, root))
    # q_opt is the argmax of a flat maximum; only the values at it are stable
    keys = sorted((set(numeric) & set(analytic)) - {"q_opt"})
    if not keys:
        return ["agree: nothing to compare"]
    return [
        f"agree: {key} differs"
        for key in keys
        if not np.max(np.abs(np.asarray(numeric[key]) - np.asarray(analytic[key]))) <= AGREEMENT_TOL
    ]


def is_malformed(problem: str) -> bool:
    """True for problems that leave a job's output unjudgeable."""
    return problem.startswith("output:")
