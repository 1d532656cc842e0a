"""Command-line entry point.

Subcommands run single protocol evaluations (``protocol``, ``optimize-q``),
raw master-equation trajectories (``evolve``), and the preset parameter
sweeps (``fig2``, ``fig3``, ``fig4``, or their generic form ``sweep``),
writing CSV, JSON and SVG files into the output directory.

Every value can come from a ``--flag`` or from a flat ``key=value`` config
file (``#`` starts a comment); flags override the file.  The JSON output
records the fully resolved configuration under ``meta.config``, and feeding
those pairs back through ``--config`` reproduces the data files byte for
byte.  Exit codes: 0 success, 2 usage, 3 invalid configuration, 4 numeric
failure, 5 I/O failure.
"""

import argparse
import cmath
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    GROUND,
    PHOTON,
    QUBIT1,
    QUBIT2,
    QubitAmplitudes,
    SystemParams,
    initial_state,
)
from .lindblad import integrate
from .measurement import DegenerateReversal, ZeroProbability, apply_measurement_qubit1
from .output import (
    csv_mirror,
    make_meta,
    svg_line_plot,
    write_csv,
    write_json,
    write_record_csv,
    write_svg,
)
from .protocol import ProtocolSpec, full_transfer_time, optimize_q, run_protocol
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


def _parse_int(text: str) -> int:
    return int(text)


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
_T_MAX_DEFAULT = 4.0 * full_transfer_time(1.0)

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
_RATE_OPTS = (
    Option("s-over-g", _parse_float, None, "set kappa, gamma1, gamma2 to this common value (units of g_ref)"),
    Option("g-over-s", _parse_float, None, "reciprocal way to give s-over-g"),
    Option("kappa-over-g", _parse_float, None, "resonator decay rate"),
    Option("gamma1-over-g", _parse_float, None, "qubit-1 emission rate"),
    Option("gamma2-over-g", _parse_float, None, "qubit-2 emission rate"),
    Option("gamma-phi-over-g", _parse_float, 0.0, "qubit dephasing rate"),
    Option("g1", _parse_float, 1.0, "qubit-1 coupling"),
    Option("g2", _parse_float, 1.0, "qubit-2 coupling"),
)
# keys of the retired Runge-Kutta stepper, and of the q search grid that the
# exact optimum retired from optimize-q: config files written before may
# still hold them, so they are read and ignored
_RETIRED_KEYS = ("step-size", "tolerance")
_RETIRED_OPTIMIZE_Q_KEYS = ("grid-points", "refine-tol")

_SCHEMAS: "dict[str, tuple[Option, ...]]" = {
    "evolve": (
        *_QUBIT_OPTS,
        Option("p", _parse_float, 0.0, "pre-transfer measurement strength"),
        *_RATE_OPTS,
        Option("grid-start", _parse_float, 0.0, "first sample time (g*t)"),
        Option("grid-stop", _parse_float, 6.0, "last sample time (g*t)"),
        Option("grid-points", _parse_int, 241, "number of samples"),
        *_OUTPUT_OPTS,
    ),
    "protocol": (
        *_QUBIT_OPTS,
        Option("p", _parse_float, 0.0, "pre-transfer measurement strength"),
        Option("q-rule", _parse_choice("formula", "fixed", "optimal"), "formula", "reversal strength rule"),
        Option("q", _parse_float, None, "reversal strength for q-rule=fixed"),
        Option("gt", _parse_float, None, "reversal time (g*t); default: full transfer"),
        Option("engine", _parse_choice("analytic", "numeric"), "analytic", "evolution engine"),
        Option("sigma-z", _parse_bool, True, "apply the sigma_z correction"),
        *_RATE_OPTS,
        *_SCALAR_OUTPUT_OPTS,
    ),
    "optimize-q": (
        *_QUBIT_OPTS,
        Option("p", _parse_float, 0.0, "pre-transfer measurement strength"),
        Option("gt", _parse_float, None, "reversal time (g*t); default: full transfer"),
        Option("engine", _parse_choice("analytic", "numeric"), "analytic", "evolution engine"),
        Option("sigma-z", _parse_bool, True, "apply the sigma_z correction"),
        *_RATE_OPTS,
        *_SCALAR_OUTPUT_OPTS,
    ),
    "fig2": (
        *_QUBIT_OPTS,
        Option("p", _parse_float_list, (0.0, 0.4, 0.8), "measurement strengths to overlay"),
        Option("baseline", _parse_bool, True, "include the unmeasured baseline"),
        Option("s-over-g", _parse_float, 2.0, "common decay rate"),
        Option("g-over-s", _parse_float, None, "reciprocal way to give s-over-g"),
        Option("grid-start", _parse_float, 0.0, "first g*t"),
        Option("grid-stop", _parse_float, 6.0, "last g*t"),
        Option("grid-points", _parse_int, 241, "time grid size"),
        *_OUTPUT_OPTS,
    ),
    "fig3": (
        Option("alpha", _parse_float, 0.6, "real amplitude of |0>"),
        Option("beta", _parse_complex, complex(0.8), "amplitude of |1>"),
        Option("p", _parse_float_list, (0.0, 0.4, 0.8), "measurement strengths to overlay"),
        Option("baseline", _parse_bool, True, "include the unmeasured baseline"),
        Option("grid-start", _parse_float, 0.1, "first s/g"),
        Option("grid-stop", _parse_float, 20.0, "last s/g"),
        Option("grid-points", _parse_int, 60, "s/g grid size"),
        Option("log-grid", _parse_bool, True, "log-spaced s/g axis"),
        Option("t-max", _parse_float, _T_MAX_DEFAULT, "search window for the best time"),
        Option("coarse-points", _parse_int, 120, "coarse time-scan size"),
        *_OUTPUT_OPTS,
    ),
    "fig4": (
        *_QUBIT_OPTS,
        Option("p", _parse_float, 0.8, "measurement strength"),
        Option("gamma-phi-over-g", _parse_float_list, (0.0, 0.01, 0.1, 1.0), "dephasing rates to overlay"),
        Option("s-over-g", _parse_float, 2.0, "common decay rate"),
        Option("g-over-s", _parse_float, None, "reciprocal way to give s-over-g"),
        Option("grid-start", _parse_float, 0.0, "first g*t"),
        Option("grid-stop", _parse_float, 6.0, "last g*t"),
        Option("grid-points", _parse_int, 241, "time grid size"),
        *_OUTPUT_OPTS,
    ),
}

_SWEEP_KIND_COMMAND = {"time": "fig2", "decay": "fig3", "dephasing": "fig4"}

_COMMAND_HELP = {
    "evolve": "integrate the master equation and dump the state trajectory",
    "protocol": "run the transfer protocol once and report its figures of merit",
    "optimize-q": "find the fidelity-maximizing reversal strength",
    "fig2": "fidelity and success probability against g*t",
    "fig3": "best achievable fidelity against the decay ratio s/g",
    "fig4": "fidelity against g*t for several dephasing rates",
    "sweep": "generic sweep; --kind selects time, decay or dephasing",
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    values: "dict[str, object]"

    def meta_config(self) -> "dict[str, str]":
        # unset optional keys (value None) are omitted; everything else is
        # fully resolved, so feeding these pairs back reproduces the run
        out = {"command": self.command}
        out.update(
            {key: canonical(v) for key, v in self.values.items() if v is not None}
        )
        return out


# ---------------------------------------------------------------------------
# parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstsim",
        description="Measurement-assisted state transfer through a lossy resonator.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, schema in list(_SCHEMAS.items()) + [("sweep", ())]:
        cmd = sub.add_parser(command, help=_COMMAND_HELP[command])
        cmd.add_argument("--config", default=None, help="key=value config file")
        if command == "sweep":
            cmd.add_argument("--kind", default=None, help="time | decay | dephasing")
            seen = {"kind"}
            for other in _SCHEMAS.values():
                for opt in other:
                    if opt.key not in seen:
                        seen.add(opt.key)
                        cmd.add_argument(f"--{opt.key}", default=None, help=opt.help)
        else:
            for opt in schema:
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


def _schema_for(command: str, raw: "dict[str, str]") -> "tuple[str, list[Option]]":
    """Resolve the effective command and option list ('sweep' delegates)."""
    if command != "sweep":
        return command, list(_SCHEMAS[command])
    kind = raw.get("kind")
    if kind not in _SWEEP_KIND_COMMAND:
        raise ValidationError("sweep needs --kind time, decay or dephasing")
    schema = [Option("kind", _parse_choice(*_SWEEP_KIND_COMMAND), kind)]
    schema.extend(_SCHEMAS[_SWEEP_KIND_COMMAND[kind]])
    return command, schema


def parse_config(argv: "list[str]") -> RunConfig:
    """Turn argv (flags plus optional config file) into a validated RunConfig.

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

    command, schema = _schema_for(command, raw)
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

    effective = command if command != "sweep" else _SWEEP_KIND_COMMAND[values["kind"]]
    errors = _resolve_and_validate(effective, values, explicit=set(raw))
    if errors:
        raise ValidationError("\n".join(errors))
    return RunConfig(command=command, values=values)


def _resolve_and_validate(
    effective: str, values: "dict[str, object]", explicit: "set[str]"
) -> "list[str]":
    """Fold aliases into canonical keys and check the physics constraints."""
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

    if effective in ("evolve", "protocol", "optimize-q"):
        common = values.pop("s-over-g", None)
        for key in ("kappa-over-g", "gamma1-over-g", "gamma2-over-g"):
            if values.get(key) is None:
                values[key] = common if common is not None else 0.0

    # normalize the qubit amplitudes; flags are often 4-digit decimals.
    # Amplitudes already normalized to within a few ulp, as replayed from
    # meta.config, keep their bits: dividing again would move the last
    # digits and, through a flat optimum, the replayed results.
    alpha = values.get("alpha")
    beta = values.get("beta")
    if alpha is not None and beta is not None:
        norm = math.sqrt(float(alpha) ** 2 + abs(complex(beta)) ** 2)
        if not (norm > 0 and math.isfinite(norm)):
            errors.append("invalid amplitudes: alpha^2 + |beta|^2 must be positive")
        elif abs(norm - 1.0) > _NORM_SLACK:
            values["alpha"] = float(alpha) / norm
            values["beta"] = complex(beta) / norm

    if errors:
        return errors
    try:
        _build_runtime(effective, values)
    except (ValueError, ValidationError) as exc:
        errors.append(str(exc))
    return errors


# ---------------------------------------------------------------------------
# runtime object construction (shared between validation and execution)


def _qubit(values) -> QubitAmplitudes:
    return QubitAmplitudes(values["alpha"], values["beta"])


def _system_params(values) -> SystemParams:
    return SystemParams(
        g1=values["g1"],
        g2=values["g2"],
        kappa=values["kappa-over-g"],
        gamma1=values["gamma1-over-g"],
        gamma2=values["gamma2-over-g"],
        gamma_phi=values["gamma-phi-over-g"],
    )


def _protocol_spec(values, q_rule=None, q_value=None) -> ProtocolSpec:
    params = _system_params(values)
    gt = values.get("gt")
    transfer_time = None if gt is None else float(gt) / params.g_ref
    return ProtocolSpec(
        qubit=_qubit(values),
        params=params,
        p=values["p"],
        q_rule=q_rule if q_rule is not None else values.get("q-rule", "formula"),
        q_value=q_value if q_value is not None else values.get("q"),
        transfer_time=transfer_time,
        engine=values["engine"],
        apply_sigma_z=values["sigma-z"],
    )


def _time_sweep_spec(values) -> SweepSpec:
    return SweepSpec(
        kind="time",
        grid=AxisGrid(values["grid-start"], values["grid-stop"], values["grid-points"]),
        qubit=_qubit(values),
        s_over_g=values["s-over-g"],
        p_values=values["p"],
        include_baseline=values["baseline"],
    )


def _decay_sweep_spec(values) -> SweepSpec:
    return SweepSpec(
        kind="decay",
        grid=AxisGrid(
            values["grid-start"],
            values["grid-stop"],
            values["grid-points"],
            log=values["log-grid"],
        ),
        qubit=_qubit(values),
        p_values=values["p"],
        include_baseline=values["baseline"],
        t_max=values["t-max"],
        coarse_points=values["coarse-points"],
    )


def _dephasing_sweep_spec(values) -> SweepSpec:
    return SweepSpec(
        kind="dephasing",
        grid=AxisGrid(values["grid-start"], values["grid-stop"], values["grid-points"]),
        qubit=_qubit(values),
        s_over_g=values["s-over-g"],
        p=values["p"],
        gamma_phi_over_g=values["gamma-phi-over-g"],
        include_baseline=False,
    )


def _build_runtime(effective: str, values):
    """Construct the runtime objects purely for validation side effects."""
    if effective == "evolve":
        _system_params(values)
        AxisGrid(values["grid-start"], values["grid-stop"], values["grid-points"])
        try:
            apply_measurement_qubit1(initial_state(_qubit(values)), values["p"])
        except ZeroProbability:
            pass  # a numeric failure (exit 4), reported when the run starts
    elif effective == "protocol":
        spec = _protocol_spec(values)
        values["gt"] = spec.transfer_time * spec.params.g_ref
    elif effective == "optimize-q":
        spec = _protocol_spec(values, q_rule="fixed", q_value=0.0)
        values["gt"] = spec.transfer_time * spec.params.g_ref
    elif effective == "fig2":
        _time_sweep_spec(values)
    elif effective == "fig3":
        _decay_sweep_spec(values)
    elif effective == "fig4":
        _dephasing_sweep_spec(values)


# ---------------------------------------------------------------------------
# emission


def _out_dir(values) -> Path:
    directory = Path(values["output-dir"])
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _emit_sweep(cfg: RunConfig, result, x_label: str, prefix: str) -> "list[Path]":
    values = cfg.values
    directory = _out_dir(values)
    formats = values["formats"]
    written = []
    metric_columns = {m: result.columns(m) for m in ("fidelity", "success")}
    if "csv" in formats:
        for metric, columns in metric_columns.items():
            path = directory / f"{prefix}_{metric}.csv"
            write_csv(path, result.axis_name, result.axis_values, columns)
            written.append(path)
    if "json" in formats:
        data = csv_mirror(result.axis_name, result.axis_values, {})
        for columns in metric_columns.values():
            data.update(csv_mirror(result.axis_name, result.axis_values, columns))
        path = directory / f"{prefix}.json"
        write_json(path, make_meta(__version__, cfg.command, cfg.meta_config()), data)
        written.append(path)
    if "svg" in formats:
        for metric, columns in metric_columns.items():
            series = {
                name[len(metric) + 1 : -1]: col for name, col in columns.items()
            }
            content = svg_line_plot(
                f"{prefix}: {metric}", x_label, metric, result.axis_values, series
            )
            path = directory / f"{prefix}_{metric}.svg"
            write_svg(path, content)
            written.append(path)
    return written


def _emit_record(cfg: RunConfig, record: "dict[str, float]", extra_data: dict, prefix: str) -> "list[Path]":
    values = cfg.values
    directory = _out_dir(values)
    formats = values["formats"]
    written = []
    if "csv" in formats:
        path = directory / f"{prefix}.csv"
        write_record_csv(path, record)
        written.append(path)
    if "json" in formats:
        data = {key: float(val) for key, val in record.items()}
        data.update(extra_data)
        path = directory / f"{prefix}.json"
        write_json(path, make_meta(__version__, cfg.command, cfg.meta_config()), data)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# command runners


_COHERENCES = (
    ("ground_qubit1", GROUND, QUBIT1),
    ("ground_photon", GROUND, PHOTON),
    ("ground_qubit2", GROUND, QUBIT2),
    ("qubit1_photon", QUBIT1, PHOTON),
    ("qubit1_qubit2", QUBIT1, QUBIT2),
    ("photon_qubit2", PHOTON, QUBIT2),
)


def _run_evolve(cfg: RunConfig) -> "list[Path]":
    values = cfg.values
    params = _system_params(values)
    qubit = _qubit(values)
    pre = apply_measurement_qubit1(initial_state(qubit), values["p"])
    gts = np.linspace(values["grid-start"], values["grid-stop"], values["grid-points"])
    states = integrate(params, pre.state, gts / params.g_ref).states

    populations = {
        "pop_ground": GROUND,
        "pop_qubit1": QUBIT1,
        "pop_photon": PHOTON,
        "pop_qubit2": QUBIT2,
    }
    columns = {name: states[:, i, i].real for name, i in populations.items()}
    for name, i, j in _COHERENCES:
        columns[f"re_{name}"] = states[:, i, j].real
        columns[f"im_{name}"] = states[:, i, j].imag

    directory = _out_dir(values)
    formats = values["formats"]
    written = []
    if "csv" in formats:
        path = directory / "evolve_trajectory.csv"
        write_csv(path, "gt", gts, columns)
        written.append(path)
    if "json" in formats:
        path = directory / "evolve.json"
        write_json(
            path,
            make_meta(__version__, cfg.command, cfg.meta_config()),
            csv_mirror("gt", gts, columns),
        )
        written.append(path)
    if "svg" in formats:
        series = {name: columns[name] for name in populations}
        path = directory / "evolve_populations.svg"
        write_svg(path, svg_line_plot("evolve: populations", "gt", "population", gts, series))
        written.append(path)
    return written


def _run_protocol(cfg: RunConfig) -> "list[Path]":
    spec = _protocol_spec(cfg.values)
    outcome = run_protocol(spec)
    record = {
        "fidelity": outcome.fidelity,
        "q_used": outcome.q_used,
        "premeasure_success": outcome.premeasure_success,
        "reversal_success": outcome.reversal_success,
        "success_probability": outcome.success_probability,
        "gt": spec.transfer_time * spec.params.g_ref,
    }
    extra = {
        "final_state_re": [[float(v) for v in row] for row in outcome.final_state.real],
        "final_state_im": [[float(v) for v in row] for row in outcome.final_state.imag],
    }
    return _emit_record(cfg, record, extra, "protocol")


def _run_optimize_q(cfg: RunConfig) -> "list[Path]":
    values = cfg.values
    spec = _protocol_spec(values, q_rule="fixed", q_value=0.0)
    q_opt, f_opt = optimize_q(spec)
    record = {
        "q_opt": q_opt,
        "fidelity_opt": f_opt,
        "gt": spec.transfer_time * spec.params.g_ref,
    }
    if spec.params.equal_decay_rate() is not None:
        formula_run = run_protocol(replace(spec, q_rule="formula"))
        record["q_formula"] = formula_run.q_used
        record["fidelity_formula"] = formula_run.fidelity
    return _emit_record(cfg, record, {}, "optimize_q")


def _sweep_prefix(cfg: RunConfig) -> str:
    return "sweep" if cfg.command == "sweep" else cfg.command


def _run_fig2(cfg: RunConfig) -> "list[Path]":
    result = time_sweep(_time_sweep_spec(cfg.values))
    return _emit_sweep(cfg, result, "gt", _sweep_prefix(cfg))


def _run_fig3(cfg: RunConfig) -> "list[Path]":
    result = decay_sweep(_decay_sweep_spec(cfg.values))
    return _emit_sweep(cfg, result, "s/g", _sweep_prefix(cfg))


def _run_fig4(cfg: RunConfig) -> "list[Path]":
    result = dephasing_sweep(_dephasing_sweep_spec(cfg.values))
    return _emit_sweep(cfg, result, "gt", _sweep_prefix(cfg))


def _run_sweep(cfg: RunConfig) -> "list[Path]":
    runner = {"time": _run_fig2, "decay": _run_fig3, "dephasing": _run_fig4}
    return runner[cfg.values["kind"]](cfg)


_RUNNERS = {
    "evolve": _run_evolve,
    "protocol": _run_protocol,
    "optimize-q": _run_optimize_q,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "sweep": _run_sweep,
}


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
        written = _RUNNERS[cfg.command](cfg)
    except (DegenerateReversal, ZeroProbability, FloatingPointError) as exc:
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
