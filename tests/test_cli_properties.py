"""The command line over the whole parameter range.

Argvs are drawn from the option schemas of the commands in ``cli._COMMANDS``
and run in process by ``main``.  Every run must end in exit 0, 3 or 4; an
exit 3 names a key of the command's schema; a run that succeeds writes only
finite numbers, with every fidelity and success probability in [0, 1] and
every population within 1e-9 of it; and
scaling both couplings by a power of two, which the CLI divides out exactly,
changes no byte.
"""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from qstsim.cli import _COMMANDS, main

COMMANDS = ("evolve", "protocol", "optimize-q", "fig2", "fig3", "fig4")
_CHANNEL_KEYS = ("kappa-over-g", "gamma1-over-g", "gamma2-over-g")


def _log_uniform(lo: float, hi: float):
    """10^e for e uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


_rate = st.just(0.0) | _log_uniform(-3.0, 3.0)
_strength = st.floats(0.0, 0.999) | _log_uniform(-12.0, -1.0).map(lambda x: 1.0 - x)


@st.composite
def _rates(draw) -> dict:
    """One common rate, or the three channels drawn independently, equal, or
    equal but one, which is off by 1e-6 to 1 %."""
    s = draw(_rate)
    kind = draw(st.sampled_from(["common", "independent", "equal", "near"]))
    if kind == "common":
        return {"s-over-g": s}
    rates = [s, draw(_rate), draw(_rate)] if kind == "independent" else [s, s, s]
    if kind == "near":
        rates[draw(st.integers(0, 2))] *= 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(
            _log_uniform(-6.0, -2.0)
        )
    return dict(zip(_CHANNEL_KEYS, rates))


@st.composite
def _amplitudes(draw) -> dict:
    """alpha and a complex beta at magnitudes anywhere from 1e-300 to 1e300."""
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    part = st.floats(-1.0, 1.0)
    beta = complex(draw(part), draw(part)) * 10.0 ** draw(st.floats(-3.0, 3.0))
    return {"alpha": draw(part) * scale, "beta": beta * scale}


@st.composite
def _grid(draw, command: str) -> dict:
    """A small grid whose stop may lie within a few ulps of its start, and
    a time grid that may span up to 1e20."""
    if command == "fig3":  # a log grid of decay ratios
        start = draw(_log_uniform(-3.0, 3.0))
    else:
        start = draw(st.just(0.0) | st.floats(0.0, 10.0))
    if draw(st.booleans()):
        stop = start + draw(_log_uniform(-2.0, 2.0 if command == "fig3" else 20.0))
    else:
        stop = start
        for _ in range(draw(st.integers(1, 6))):
            stop = math.nextafter(stop, math.inf)
    return {"grid-start": start, "grid-stop": stop, "grid-points": draw(st.integers(2, 6))}


def _labels(values: st.SearchStrategy):
    return st.lists(values, min_size=1, max_size=3).map(tuple)


def _draws(command: str) -> dict:
    """A strategy per key that is drawn on its own."""
    overlay = command in ("fig2", "fig3")  # p lists the series
    return {
        "p": _labels(_strength) if overlay else _strength,
        "q-rule": st.sampled_from(["formula", "fixed", "optimal"]),
        "q": _strength,
        "gt": st.just(0.0) | _log_uniform(-3.0, 20.0),
        "engine": st.sampled_from(["analytic", "numeric"]),
        "sigma-z": st.booleans(),
        "gamma-phi-over-g": _labels(_rate) if command == "fig4" else _rate,
        "baseline": st.booleans(),
        "log-grid": st.booleans(),
        "t-max": _log_uniform(-2.0, 12.0),
        "coarse-points": st.integers(100, 110),
    }


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


@st.composite
def _runs(draw):
    """A command, its drawn values by key (a key left out keeps its
    default), and the coupling, which g1 and g2 take when the schema has
    them."""
    command = draw(st.sampled_from(COMMANDS))
    keys = [opt.key for opt in _COMMANDS[command].schema]
    pool = _draws(command)
    drawn = {**draw(_amplitudes()), **draw(_rates()), **draw(_grid(command))}
    values = {}
    for key in keys:
        if key in ("output-dir", "formats", "g-over-s", "g1", "g2") or not draw(st.booleans()):
            continue
        if key in drawn:
            values[key] = drawn[key]
        elif key in pool:
            values[key] = draw(pool[key])
    coupling = None
    if "g1" in keys:
        # g1 = g2, or g2 smaller by a power of two
        coupling = (draw(_log_uniform(-300.0, 3.0)), 2.0 ** -draw(st.integers(0, 2)))
    return command, values, coupling


def _argv(command: str, values: dict, coupling, scale: float = 1.0) -> list:
    argv = [command, *(f"--{key}={_text(value)}" for key, value in values.items())]
    if coupling is not None:
        g, ratio = coupling
        argv += [f"--g1={g * scale!r}", f"--g2={g * ratio * scale!r}"]
    return argv


def _run(argv: list) -> "tuple[int, str, dict[str, bytes]]":
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--formats=csv", f"--output-dir={out}"])
        files = {path.name: path.read_bytes() for path in sorted(Path(out).glob("*.csv"))}
    return code, err.getvalue(), files


def _names_a_key(message: str, keys) -> bool:
    return any(re.search(rf"(?<![\w-]){re.escape(key)}(?![\w-])", message) for key in keys)


def _check_csv(name: str, content: bytes) -> None:
    header, *rows = content.decode("utf-8").splitlines()
    columns = header.split(",")
    assert rows, name
    for row in rows:
        for column, cell in zip(columns, row.split(","), strict=True):
            value = float(cell)
            assert math.isfinite(value), (name, column, cell)
            if "fidelity" in column or "success" in column:
                assert 0.0 <= value <= 1.0, (name, column, cell)
            if column.startswith("pop_"):  # the numeric engine's, to its accuracy
                assert -1e-9 <= value <= 1.0 + 1e-9, (name, column, cell)


# long times, where the squarings of the numeric propagator lose the state
@example(
    run=("protocol", {"engine": "numeric", "q-rule": "optimal", "p": 0.3, "s-over-g": 0.5, "gt": 1e18}, None)
)
@example(run=("fig4", {"grid-stop": 1e18, "grid-points": 3}, None))
@example(run=("evolve", {"grid-stop": 1e16, "grid-points": 3}, None))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(run=_runs())
def test_every_drawn_run_exits_cleanly(run):
    command, values, coupling = run
    argv = _argv(command, values, coupling)
    code, err, files = _run(argv)
    assert code in (0, 3, 4), (argv, err)
    if code == 3:
        keys = [opt.key for opt in _COMMANDS[command].schema]
        assert _names_a_key(err, keys), (argv, err)
    if code != 0:
        return
    assert files, argv
    for name, content in files.items():
        _check_csv(name, content)
    if coupling is not None:
        for scale in (0.25, 8.0):
            assert _run(_argv(command, values, coupling, scale)) == (0, "", files), argv
