"""Command-line entry point.

Subcommands run single protocol evaluations (``protocol``, ``optimize-q``),
raw master-equation trajectories (``evolve``), and the preset parameter
sweeps (``fig2``, ``fig3``, ``fig4``, or their generic form ``sweep``),
writing CSV, JSON and SVG files into the output directory.

Each command is one row of ``_COMMANDS``: its help, its option schema, a
``build`` that validates the resolved values and returns what the command
runs on (a ``ProtocolSpec``, a ``SweepSpec``, or evolve's system, qubit and
grid), and a ``run`` that maps each output file name to its writer.
``parse_config`` builds once and keeps the result on the ``RunConfig``;
``_emit`` writes the files whose format was requested, and only those.

Every value can come from a ``--flag`` or from a flat ``key=value`` config
file (``#`` starts a comment); flags override the file.  The JSON output
records the fully resolved configuration under ``meta.config``, and feeding
those pairs back through ``--config`` reproduces the data files byte for
byte.  Exit codes: 0 success, 2 usage, 3 invalid configuration, 4 numeric
failure, 5 I/O failure.
"""

import argparse
import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .core import (
    GROUND,
    PHOTON,
    QUBIT1,
    QUBIT2,
    QubitAmplitudes,
    SystemParams,
    check_strength,
)
from .lindblad import integrate
from .measurement import ZeroProbability, apply_measurement_qubit1
from .output import cells, csv_mirror, make_meta, svg_line_plot, write_csv, write_json, write_svg
from .optimize import pick_best
from .protocol import ProtocolSpec, _candidates, run_protocol
from .sweeps import (
    AxisGrid,
    SweepSpec,
    decay_sweep,
    dephasing_sweep,
    time_sweep,
)


class ValidationError(Exception):
    pass


# ---------------------------------------------------------------------------
# option schema: shared parsing for flags and config files


def _finite(value):
    if not cmath.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _parse_float(text: str) -> float:
    return _finite(float(text))


def _parse_nonnegative(text: str) -> float:
    value = _parse_float(text)
    if not value >= 0:
        raise ValueError(f"must be non-negative, got {value!r}")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_complex(text: str) -> complex:
    return _finite(complex(text.replace(" ", "")))


def _parse_float_list(text: str) -> tuple:
    return tuple(_parse_float(part) for part in text.split(","))


def _parse_formats(*allowed: str):
    def parse(text: str) -> tuple:
        requested = [part.strip() for part in text.split(",") if part.strip()]
        if not requested:
            raise ValueError(f"name at least one of {allowed}")
        for fmt in requested:
            if fmt not in allowed:
                raise ValueError(f"unknown format {fmt!r} (choose from {allowed})")
        return tuple(fmt for fmt in allowed if fmt in requested)

    return parse


def _parse_choice(*choices: str):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {choices}, got {text!r}")
        return text

    return parse


def canonical(value) -> str:
    """Lossless text form; parsing it back yields the identical value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, complex):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(canonical(v) for v in value)
    if isinstance(value, (str, Path)):
        return str(value)
    raise TypeError(f"cannot canonicalize {value!r}")


@dataclass(frozen=True)
class Option:
    key: str
    parse: "object"
    default: "object"
    help: str = ""


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_NORM_SLACK = 4 * sys.float_info.epsilon

_OUTPUT_OPTS = (
    Option("output-dir", str, ".", "directory for result files"),
    Option("formats", _parse_formats("csv", "json", "svg"), ("csv", "json", "svg"), "subset of csv,json,svg"),
)
_SCALAR_OUTPUT_OPTS = (
    Option("output-dir", str, ".", "directory for result files"),
    Option("formats", _parse_formats("csv", "json"), ("csv", "json"), "subset of csv,json"),
)
_QUBIT_OPTS = (
    Option("alpha", _parse_float, _INV_SQRT2, "real amplitude of |0>"),
    Option("beta", _parse_complex, complex(_INV_SQRT2), "amplitude of |1>, may be complex"),
)
_P_OPT = Option("p", _parse_float, 0.0, "pre-transfer measurement strength")
_RATE_OPTS = (
    Option("s-over-g", _parse_nonnegative, None, "set kappa, gamma1, gamma2 to this common value (units of g_ref)"),
    Option("g-over-s", _parse_float, None, "reciprocal way to give s-over-g"),
    Option("kappa-over-g", _parse_nonnegative, None, "resonator decay rate"),
    Option("gamma1-over-g", _parse_nonnegative, None, "qubit-1 emission rate"),
    Option("gamma2-over-g", _parse_nonnegative, None, "qubit-2 emission rate"),
    Option("gamma-phi-over-g", _parse_nonnegative, 0.0, "qubit dephasing rate"),
    Option("g1", _parse_float, 1.0, "qubit-1 coupling; g_ref = max(g1, g2)"),
    Option("g2", _parse_float, 1.0, "qubit-2 coupling"),
)
_REVERSAL_OPTS = (
    Option("gt", _parse_nonnegative, None, "reversal time (g*t); default: full transfer"),
    Option("engine", _parse_choice("analytic", "numeric"), "analytic", "evolution engine"),
    Option("sigma-z", _parse_bool, True, "apply the sigma_z correction"),
)
_OVERLAY_OPTS = (
    Option("p", _parse_float_list, SweepSpec.p_values, "measurement strengths to overlay"),
    Option("baseline", _parse_bool, True, "include the unmeasured baseline"),
)
_TIME_GRID_OPTS = (
    Option("s-over-g", _parse_float, SweepSpec.s_over_g, "common decay rate"),
    Option("g-over-s", _parse_float, None, "reciprocal way to give s-over-g"),
    Option("grid-start", _parse_float, 0.0, "first g*t"),
    Option("grid-stop", _parse_float, 6.0, "last g*t"),
    Option("grid-points", int, 241, "time grid size"),
)
# keys of the retired Runge-Kutta stepper, and of the q search grid that the
# exact optimum retired from optimize-q: config files written before may
# still hold them, so they are read and ignored
_RETIRED_KEYS = ("step-size", "tolerance")
_RETIRED_OPTIMIZE_Q_KEYS = ("grid-points", "refine-tol")


@dataclass(frozen=True)
class RunConfig:
    command: str
    values: "dict[str, object]"
    spec: "object"  # what the command's build returned

    def meta_config(self) -> "dict[str, str]":
        # unset optional keys (value None) are omitted; everything else is
        # fully resolved, so feeding these pairs back reproduces the run
        out = {"command": self.command}
        out.update(
            {key: canonical(v) for key, v in self.values.items() if v is not None}
        )
        return out


# ---------------------------------------------------------------------------
# builders: resolved values -> what a command runs on; a ValueError is an
# invalid configuration


def _qubit(values) -> QubitAmplitudes:
    return QubitAmplitudes(values["alpha"], values["beta"])


def _system_params(values) -> SystemParams:
    """The system in units of g_ref = max(g1, g2): the couplings are divided
    by it, and the rate keys and gt are already given in its units."""
    g1, g2 = values["g1"], values["g2"]
    g_ref = max(g1, g2)
    if g_ref > 0:  # else SystemParams rejects the couplings
        g1, g2 = g1 / g_ref, g2 / g_ref
    return SystemParams(
        g1=g1,
        g2=g2,
        kappa=values["kappa-over-g"],
        gamma1=values["gamma1-over-g"],
        gamma2=values["gamma2-over-g"],
        gamma_phi=values["gamma-phi-over-g"],
    )


def _build_evolve(values) -> "tuple[SystemParams, QubitAmplitudes, AxisGrid]":
    params = _system_params(values)
    grid = AxisGrid(values["grid-start"], values["grid-stop"], values["grid-points"])
    qubit = _qubit(values)
    check_strength(values["p"])  # the run measures: an empty branch is exit 4
    return params, qubit, grid


def _build_protocol(values) -> ProtocolSpec:
    """The spec of protocol, or of optimize-q, which has no q-rule and runs
    the optimal one.  The resolved reversal time is written back to gt, so
    that meta.config replays it."""
    spec = ProtocolSpec(
        qubit=_qubit(values),
        params=_system_params(values),
        p=values["p"],
        q_rule=values.get("q-rule", "optimal"),
        q_value=values.get("q"),
        transfer_time=values["gt"],
        engine=values["engine"],
        apply_sigma_z=values["sigma-z"],
    )
    values["gt"] = spec.transfer_time
    return spec


# per sweep kind: the sweep, its x-axis label, and the SweepSpec field of
# each option besides the grid, the amplitudes and the baseline
_SWEEPS = {
    "time": (time_sweep, "gt", {"s-over-g": "s_over_g", "p": "p_values"}),
    "decay": (decay_sweep, "s/g", {"p": "p_values", "t-max": "t_max", "coarse-points": "coarse_points"}),
    "dephasing": (
        dephasing_sweep, "gt", {"s-over-g": "s_over_g", "p": "p", "gamma-phi-over-g": "gamma_phi_over_g"},
    ),
}


def _build_sweep(kind: str, values) -> SweepSpec:
    return SweepSpec(
        kind=kind,
        grid=AxisGrid(
            values["grid-start"], values["grid-stop"], values["grid-points"], values.get("log-grid", False)
        ),
        qubit=_qubit(values),
        include_baseline=values.get("baseline", False),
        **{field: values[key] for key, field in _SWEEPS[kind][2].items()},
    )


# ---------------------------------------------------------------------------
# runners: RunConfig -> {file name: writer}, in output order; a writer takes
# the path and renders its file only when called


def _csv(table):
    return lambda path: write_csv(path, table)


def _svg(title, x_label, y_label, x, series):
    return lambda path: write_svg(path, svg_line_plot(title, x_label, y_label, x, series))


def _json(cfg: RunConfig, data):
    """data: a function returning the JSON data block."""
    return lambda path: write_json(
        path, make_meta(__version__, cfg.command, cfg.meta_config()), data()
    )


def _record_files(cfg: RunConfig, prefix: str, record: "dict[str, float]", extra=dict):
    """A one-row table for the CSV; the JSON keeps full-precision floats."""
    def data():
        return {**{key: float(val) for key, val in record.items()}, **extra()}

    return {
        f"{prefix}.csv": _csv({key: cells([val]) for key, val in record.items()}),
        f"{prefix}.json": _json(cfg, data),
    }


_LEVELS = {"ground": GROUND, "qubit1": QUBIT1, "photon": PHOTON, "qubit2": QUBIT2}


def _run_evolve(cfg: RunConfig) -> dict:
    params, qubit, grid = cfg.spec
    pre = apply_measurement_qubit1(qubit, cfg.values["p"])
    gts = grid.values()
    states = integrate(params, pre.state, gts)
    series = {f"pop_{name}": states[:, i, i].real for name, i in _LEVELS.items()}
    table = {"gt": cells(gts), **{name: cells(col) for name, col in series.items()}}
    for (a, i), (b, j) in itertools.combinations(_LEVELS.items(), 2):
        table[f"re_{a}_{b}"] = cells(states[:, i, j].real)
        table[f"im_{a}_{b}"] = cells(states[:, i, j].imag)
    return {
        "evolve_trajectory.csv": _csv(table),
        "evolve.json": _json(cfg, lambda: csv_mirror(table)),
        "evolve_populations.svg": _svg("evolve: populations", "gt", "population", gts, series),
    }


def _run_protocol(cfg: RunConfig) -> dict:
    outcome = run_protocol(cfg.spec)
    record = {
        "fidelity": outcome.fidelity,
        "q_used": outcome.q_used,
        "premeasure_success": outcome.premeasure_success,
        "reversal_success": outcome.reversal_success,
        "success_probability": outcome.success_probability,
        "gt": cfg.values["gt"],
    }
    state = outcome.final_state
    return _record_files(cfg, "protocol", record, lambda: {
        "final_state_re": [[float(v) for v in row] for row in state.real],
        "final_state_im": [[float(v) for v in row] for row in state.imag],
    })


def _run_optimize_q(cfg: RunConfig) -> dict:
    strength, fidelity, _, _, q = _candidates(cfg.spec)[0]
    best = pick_best(strength, fidelity)
    record = {"q_opt": q[best], "fidelity_opt": fidelity[best], "gt": cfg.values["gt"]}
    if cfg.spec.params.equal_decay_rate() is not None:  # the closed-form q comes last
        record["q_formula"], record["fidelity_formula"] = q[-1], fidelity[-1]
    return _record_files(cfg, "optimize_q", record)


def _run_sweep(cfg: RunConfig) -> dict:
    sweep, x_label, _ = _SWEEPS[cfg.spec.kind]
    result = sweep(cfg.spec)
    prefix = cfg.command  # fig2, fig3, fig4 or sweep
    axis = {result.axis_name: cells(result.axis_values)}
    series = {  # per metric, the label and column of each series
        metric: {label: rows[:, col] for label, rows in result.series.items()}
        for col, metric in enumerate(("fidelity", "success"))
    }
    tables = {
        metric: {**axis, **{f"{metric}[{label}]": cells(values) for label, values in columns.items()}}
        for metric, columns in series.items()
    }
    files = {f"{prefix}_{metric}.csv": _csv(table) for metric, table in tables.items()}
    files[f"{prefix}.json"] = _json(cfg, lambda: csv_mirror({**tables["fidelity"], **tables["success"]}))
    for metric, columns in series.items():
        files[f"{prefix}_{metric}.svg"] = _svg(
            f"{prefix}: {metric}", x_label, metric, result.axis_values, columns
        )
    return files


def _emit(cfg: RunConfig, files: dict) -> "list[Path]":
    """Write, in order, the files whose extension is a requested format."""
    directory = Path(cfg.values["output-dir"])
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / name for name in files if name.rpartition(".")[2] in cfg.values["formats"]]
    for path in paths:
        files[path.name](path)
    return paths


# ---------------------------------------------------------------------------
# the commands


@dataclass(frozen=True)
class Command:
    help: str
    schema: "tuple[Option, ...]"
    build: "object"  # resolved values -> what run works on
    run: "object"  # RunConfig -> {file name: writer}


_COMMANDS = {
    "evolve": Command(
        "integrate the master equation and dump the state trajectory",
        (
            *_QUBIT_OPTS,
            _P_OPT,
            *_RATE_OPTS,
            Option("grid-start", _parse_float, 0.0, "first sample time (g*t)"),
            Option("grid-stop", _parse_float, 6.0, "last sample time (g*t)"),
            Option("grid-points", int, 241, "number of samples"),
            *_OUTPUT_OPTS,
        ),
        _build_evolve, _run_evolve,
    ),
    "protocol": Command(
        "run the transfer protocol once and report its figures of merit",
        (
            *_QUBIT_OPTS,
            _P_OPT,
            Option("q-rule", _parse_choice("formula", "fixed", "optimal"), "formula", "reversal strength rule"),
            Option("q", _parse_float, None, "reversal strength for q-rule=fixed"),
            *_REVERSAL_OPTS,
            *_RATE_OPTS,
            *_SCALAR_OUTPUT_OPTS,
        ),
        _build_protocol, _run_protocol,
    ),
    "optimize-q": Command(
        "find the fidelity-maximizing reversal strength",
        (*_QUBIT_OPTS, _P_OPT, *_REVERSAL_OPTS, *_RATE_OPTS, *_SCALAR_OUTPUT_OPTS),
        _build_protocol, _run_optimize_q,
    ),
    "fig2": Command(
        "fidelity and success probability against g*t",
        (*_QUBIT_OPTS, *_OVERLAY_OPTS, *_TIME_GRID_OPTS, *_OUTPUT_OPTS),
        functools.partial(_build_sweep, "time"), _run_sweep,
    ),
    "fig3": Command(
        "best achievable fidelity against the decay ratio s/g",
        (
            Option("alpha", _parse_float, 0.6, "real amplitude of |0>"),
            Option("beta", _parse_complex, complex(0.8), "amplitude of |1>"),
            *_OVERLAY_OPTS,
            Option("grid-start", _parse_float, 0.1, "first s/g"),
            Option("grid-stop", _parse_float, 20.0, "last s/g"),
            Option("grid-points", int, 60, "s/g grid size"),
            Option("log-grid", _parse_bool, True, "log-spaced s/g axis"),
            Option("t-max", _parse_float, SweepSpec.t_max, "search window for the best time"),
            Option("coarse-points", int, SweepSpec.coarse_points, "coarse time-scan size"),
            *_OUTPUT_OPTS,
        ),
        functools.partial(_build_sweep, "decay"), _run_sweep,
    ),
    "fig4": Command(
        "fidelity against g*t for several dephasing rates",
        (
            *_QUBIT_OPTS,
            Option("p", _parse_float, SweepSpec.p, "measurement strength"),
            Option("gamma-phi-over-g", _parse_float_list, SweepSpec.gamma_phi_over_g, "dephasing rates to overlay"),
            *_TIME_GRID_OPTS,
            *_OUTPUT_OPTS,
        ),
        functools.partial(_build_sweep, "dephasing"), _run_sweep,
    ),
}

_SWEEP_KIND_COMMAND = {"time": "fig2", "decay": "fig3", "dephasing": "fig4"}
_KIND_OPT = Option("kind", _parse_choice(*_SWEEP_KIND_COMMAND), None, "time | decay | dephasing")


def _union(schemas) -> "tuple[Option, ...]":
    """Each key of the schemas once, with the option that first gives it."""
    first = {}
    for schema in schemas:
        for opt in schema:
            first.setdefault(opt.key, opt)
    return tuple(first.values())


# the parser of the generic sweep takes every flag of the other commands;
# parse_config narrows it to the schema of the command its kind names
_COMMANDS["sweep"] = Command(
    "generic sweep; --kind selects time, decay or dephasing",
    _union([(_KIND_OPT,), *(row.schema for row in _COMMANDS.values())]),
    lambda values: _build_sweep(values["kind"], values), _run_sweep,
)


# ---------------------------------------------------------------------------
# parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves it unchanged, and argparse looks
    # sys.stdout and sys.stderr up when it prints, not when it is built
    parser = argparse.ArgumentParser(
        prog="qstsim",
        description="Measurement-assisted state transfer through a lossy resonator.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, row in _COMMANDS.items():
        cmd = sub.add_parser(command, help=row.help)
        cmd.add_argument("--config", default=None, help="key=value config file")
        for opt in row.schema:
            cmd.add_argument(f"--{opt.key}", default=None, help=opt.help)
    return parser


def _read_config_file(path: str) -> "dict[str, str]":
    pairs = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{number}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def parse_config(argv: "list[str]") -> RunConfig:
    """Turn argv (flags plus optional config file) into a validated RunConfig
    that holds what the command runs on.

    Precedence: built-in defaults, then the config file, then flags.  Unknown
    config keys and invalid values are reported by name, all at once.
    """
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    command = namespace.command

    raw: "dict[str, str]" = {}
    if namespace.config:
        raw.update(_read_config_file(namespace.config))
        optimize_q_keys = _RETIRED_OPTIMIZE_Q_KEYS if command == "optimize-q" else ()
        for key in _RETIRED_KEYS + optimize_q_keys:
            raw.pop(key, None)
    file_command = raw.pop("command", None)
    if file_command is not None and file_command != command:
        raise ValidationError(
            f"config file is for command {file_command!r}, invoked as {command!r}"
        )
    flag_values = {
        key.replace("_", "-"): value
        for key, value in vars(namespace).items()
        if key not in ("command", "config") and value is not None
    }
    raw.update(flag_values)

    schema = _COMMANDS[command].schema
    if command == "sweep":
        kind = raw.get("kind")
        if kind not in _SWEEP_KIND_COMMAND:
            raise ValidationError("sweep needs --kind time, decay or dephasing")
        schema = (replace(_KIND_OPT, default=kind), *_COMMANDS[_SWEEP_KIND_COMMAND[kind]].schema)
    known = {opt.key for opt in schema}
    errors = [f"unknown configuration key {key!r}" for key in raw if key not in known]

    values: "dict[str, object]" = {}
    for opt in schema:
        if opt.key in raw:
            try:
                values[opt.key] = opt.parse(raw[opt.key])
            except ValueError as exc:
                errors.append(f"invalid value for {opt.key!r}: {exc}")
        else:
            values[opt.key] = opt.default
    if errors:
        raise ValidationError("\n".join(errors))

    errors = _resolve(values, explicit=set(raw))
    if not errors:
        try:
            spec = _COMMANDS[command].build(values)
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        raise ValidationError("\n".join(errors))
    return RunConfig(command, values, spec)


def _resolve(values: "dict[str, object]", explicit: "set[str]") -> "list[str]":
    """Fold aliases into canonical keys and normalize the amplitudes; returns
    the errors found."""
    errors = []

    if values.get("g-over-s") is not None:
        g_over_s = values["g-over-s"]
        if "s-over-g" in explicit:
            errors.append("give either 's-over-g' or 'g-over-s', not both")
        elif g_over_s <= 0:
            errors.append("invalid value for 'g-over-s': must be positive")
        else:
            values["s-over-g"] = 1.0 / g_over_s
    values.pop("g-over-s", None)

    if "kappa-over-g" in values:  # the per-channel rates take s-over-g
        common = values.pop("s-over-g", None)
        for key in ("kappa-over-g", "gamma1-over-g", "gamma2-over-g"):
            if values.get(key) is None:
                values[key] = common if common is not None else 0.0

    # normalize the qubit amplitudes; flags are often 4-digit decimals.
    # Amplitudes already normalized to within a few ulp, as replayed from
    # meta.config, keep their bits: dividing again would move the last
    # digits and, through a flat optimum, the replayed results.  Amplitudes
    # whose squares overflow or leave the normal range are first divided
    # by the largest of their parts.
    alpha, beta = float(values["alpha"]), complex(values["beta"])
    scale = max(abs(alpha), abs(beta.real), abs(beta.imag))
    if scale > 0 and not sys.float_info.min <= _square_norm(alpha, beta) < math.inf:
        alpha, beta = alpha / scale, beta / scale
    norm = math.sqrt(_square_norm(alpha, beta))
    if not norm > 0:
        errors.append("invalid amplitudes: alpha^2 + |beta|^2 must be positive")
    elif abs(norm - 1.0) > _NORM_SLACK:
        alpha, beta = alpha / norm, beta / norm
    values["alpha"], values["beta"] = alpha, beta
    return errors


def _square_norm(alpha: float, beta: complex) -> float:
    try:
        return alpha**2 + abs(beta) ** 2
    except OverflowError:
        return math.inf


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv:
        _build_parser().print_help(sys.stderr)
        return 2
    try:
        cfg = parse_config(argv)
    except SystemExit as exc:  # argparse reports usage problems itself
        code = exc.code
        return code if isinstance(code, int) else 2
    except ValidationError as exc:
        print(f"invalid configuration:\n{exc}", file=sys.stderr)
        return 3

    try:
        written = _emit(cfg, _COMMANDS[cfg.command].run(cfg))
    except (ZeroProbability, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        target = getattr(exc, "filename", None) or cfg.values.get("output-dir")
        print(f"i/o failure for {target}: {exc}", file=sys.stderr)
        return 5

    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
