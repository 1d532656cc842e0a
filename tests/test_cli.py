import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qstsim
import qstsim.cli as cli_module
import qstsim.protocol as protocol_module

from qstsim import ProtocolSpec, SweepSpec
from qstsim.cli import ValidationError, main, parse_config


def run_cli(args):
    return main([str(a) for a in args])


def replay_config(json_path: Path, cfg_path: Path) -> list:
    """Write meta.config to a key=value file and return the replay argv."""
    meta = json.loads(json_path.read_text())["meta"]
    pairs = meta["config"]
    cfg_path.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()))
    return [pairs["command"], "--config", str(cfg_path)]


def test_parse_fig2_defaults():
    cfg = parse_config(["fig2"])
    assert cfg.command == "fig2"
    inv = 1 / math.sqrt(2)
    assert abs(cfg.values["alpha"] - inv) < 1e-15
    assert cfg.values["p"] == (0.0, 0.4, 0.8)
    assert cfg.values["s-over-g"] == 2.0
    assert cfg.values["grid-points"] == 241
    assert cfg.values["formats"] == ("csv", "json", "svg")


def test_parse_fig2_flags_match_preset():
    cfg = parse_config(
        ["fig2", "--p", "0,0.4,0.8", "--alpha", "0.7071", "--beta", "0.7071",
         "--g-over-s", "0.5"]
    )
    # approximate amplitudes are renormalized, the ratio alias is folded in
    assert abs(cfg.values["alpha"] - 1 / math.sqrt(2)) < 1e-8
    assert cfg.values["s-over-g"] == 2.0
    assert "g-over-s" not in cfg.values


def test_conflicting_ratio_flags():
    with pytest.raises(ValidationError):
        parse_config(["fig2", "--g-over-s", "0.5", "--s-over-g", "2.0"])


def test_projective_strength_rejected():
    with pytest.raises(ValidationError, match=r"\[0, 1\)"):
        parse_config(["protocol", "--p", "1.0"])


def test_unknown_config_key_named(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("alpha=0.6\nbeta=0.8\nnonsense-key=1\n")
    with pytest.raises(ValidationError, match="nonsense-key"):
        parse_config(["fig2", "--config", str(cfg_file)])


def test_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment line\ngrid-points=9\ns-over-g=2.0\n")
    cfg = parse_config(["fig2", "--config", str(cfg_file), "--grid-points", "11"])
    assert cfg.values["grid-points"] == 11
    assert cfg.values["s-over-g"] == 2.0


def test_empty_argv_usage(capsys):
    assert main([]) == 2
    err = capsys.readouterr().err
    for command in ("evolve", "protocol", "optimize-q", "fig2", "fig3", "fig4", "sweep"):
        assert command in err


def test_unknown_flag_exit_code(capsys):
    assert run_cli(["fig2", "--bogus", "1"]) == 2


def test_validation_exit_code(tmp_path, capsys):
    assert run_cli(["protocol", "--p", "1.5", "--output-dir", tmp_path]) == 3


def test_numeric_failure_exit_code(tmp_path):
    code = run_cli(
        ["protocol", "--alpha", "0", "--beta", "1", "--p", "0.9999999999999999",
         "--output-dir", tmp_path]
    )
    assert code == 4


@pytest.mark.parametrize("gt", ["1e8", "1e12"])
def test_numeric_engine_refuses_times_its_rounding_cannot_reach(tmp_path, capsys, gt):
    # the squarings of exp(G t) would round the state by 3e-8 and 2e-4
    argv = ["protocol", "--engine", "numeric", "--q-rule", "optimal", "--p", "0.3", "--s-over-g", "0.5"]
    assert run_cli(argv + ["--gt", gt, "--output-dir", tmp_path]) == 4
    assert "squarings of the propagators" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_io_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = run_cli(
        ["protocol", "--s-over-g", "1", "--output-dir", blocker / "sub"]
    )
    assert code == 5


def test_fig2_file_naming(tmp_path, capsys):
    assert run_cli(["fig2", "--grid-points", "5", "--output-dir", tmp_path]) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "fig2_fidelity.csv",
        "fig2_success.csv",
        "fig2.json",
        "fig2_fidelity.svg",
        "fig2_success.svg",
    }


def test_fig2_replay_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run_cli(["fig2", "--grid-points", "7", "--output-dir", first]) == 0
    argv = replay_config(first / "fig2.json", tmp_path / "replay.cfg")
    assert run_cli(argv + ["--output-dir", str(second)]) == 0
    for name in ("fig2_fidelity.csv", "fig2_success.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--grid-points", "9", "--s-over-g", "0.3", "--p", "0.4"],
        ["protocol", "--q-rule", "formula", "--p", "0.4", "--s-over-g", "0.5"],
        ["protocol", "--q-rule", "fixed", "--q", "0.6", "--p", "0.3", "--s-over-g", "0.7"],
        ["protocol", "--q-rule", "optimal", "--alpha", "0.6", "--beta", "0.8j", "--s-over-g", "0.8"],
        ["optimize-q", "--engine", "numeric", "--gamma1-over-g", "0.5", "--p", "0.3", "--gt", "2"],
        ["fig3", "--grid-points", "5"],
        ["fig4", "--grid-points", "9"],
        ["sweep", "--kind", "dephasing", "--grid-points", "9"],
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_every_command_replays_byte_identical(tmp_path, capsys, argv):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run_cli(argv + ["--output-dir", first]) == 0
    (json_path,) = first.glob("*.json")
    replay = replay_config(json_path, tmp_path / "replay.cfg")
    assert run_cli(replay + ["--output-dir", second]) == 0
    csvs = sorted(path.name for path in first.glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    configs = [json.loads((run / json_path.name).read_text())["meta"]["config"] for run in (first, second)]
    for config in configs:
        config.pop("output-dir")
    assert configs[0] == configs[1]


def _sweep_files(prefix):
    return [f"{prefix}_fidelity.csv", f"{prefix}_success.csv", f"{prefix}.json",
            f"{prefix}_fidelity.svg", f"{prefix}_success.svg"]


@pytest.mark.parametrize(
    "argv, files",
    [
        pytest.param(argv, files, id=argv[0])
        for argv, files in (
            (["evolve", "--grid-points", "5"], ["evolve_trajectory.csv", "evolve.json", "evolve_populations.svg"]),
            (["protocol"], ["protocol.csv", "protocol.json"]),
            (["optimize-q"], ["optimize_q.csv", "optimize_q.json"]),
            (["fig2", "--grid-points", "5"], _sweep_files("fig2")),
            (["fig3", "--grid-points", "3"], _sweep_files("fig3")),
            (["fig4", "--grid-points", "5"], _sweep_files("fig4")),
            (["sweep", "--kind", "time", "--grid-points", "5"], _sweep_files("sweep")),
        )
    ],
)
@pytest.mark.parametrize("formats", ["csv,json,svg", "svg,csv", "json", "csv,json"])
def test_file_names_in_printed_order(tmp_path, capsys, argv, files, formats):
    requested = formats.split(",")
    expected = [name for name in files if name.rpartition(".")[2] in requested]
    code = run_cli(argv + ["--formats", formats, "--output-dir", tmp_path])
    if "svg" in requested and not any(name.endswith(".svg") for name in files):
        assert code == 3  # protocol and optimize-q write no svg
        return
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [str(tmp_path / name) for name in expected]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(expected)


@pytest.mark.parametrize(
    "argv, built_type",
    [
        (["protocol", "--q-rule", "optimal", "--s-over-g", "0.5"], ProtocolSpec),
        (["optimize-q", "--engine", "numeric", "--gamma1-over-g", "0.5"], ProtocolSpec),
        (["fig2", "--grid-points", "5"], SweepSpec),
        (["fig3", "--grid-points", "3"], SweepSpec),
        (["sweep", "--kind", "dephasing", "--grid-points", "5"], SweepSpec),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else value.__name__,
)
def test_one_run_builds_its_spec_once(monkeypatch, tmp_path, capsys, argv, built_type):
    built = []
    validate = built_type.__post_init__

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(built_type, "__post_init__", counted)
    assert run_cli(argv + ["--output-dir", tmp_path]) == 0
    assert len(built) == 1


def test_json_meta_holds_resolved_config(tmp_path, capsys):
    assert run_cli(["fig2", "--grid-points", "5", "--output-dir", tmp_path]) == 0
    meta = json.loads((tmp_path / "fig2.json").read_text())["meta"]
    assert meta["command"] == "fig2"
    assert meta["config"]["grid-points"] == "5"
    assert float(meta["config"]["s-over-g"]) == 2.0
    assert meta["generated_at"].endswith("+00:00")


def test_protocol_outputs(tmp_path, capsys):
    code = run_cli(
        ["protocol", "--p", "0.8", "--s-over-g", "2", "--output-dir", tmp_path]
    )
    assert code == 0
    header, row = (tmp_path / "protocol.csv").read_text().splitlines()
    record = dict(zip(header.split(","), map(float, row.split(","))))
    assert record["fidelity"] > 0.9
    assert 0 < record["success_probability"] < 1
    payload = json.loads((tmp_path / "protocol.json").read_text())
    assert "final_state_re" in payload["data"]


def test_protocol_rejects_svg(tmp_path):
    with pytest.raises(ValidationError, match="svg"):
        parse_config(["protocol", "--formats", "csv,svg"])


def test_optimize_q_outputs(tmp_path, capsys):
    code = run_cli(
        ["optimize-q", "--p", "0.8", "--s-over-g", "2", "--output-dir", tmp_path]
    )
    assert code == 0
    header, row = (tmp_path / "optimize_q.csv").read_text().splitlines()
    record = dict(zip(header.split(","), map(float, row.split(","))))
    assert record["fidelity_opt"] >= record["fidelity_formula"] - 1e-12


@pytest.mark.parametrize("command, stem", [("protocol", "protocol"), ("optimize-q", "optimize_q")])
def test_default_runs_write_no_negative_zero(tmp_path, capsys, command, stem):
    # at the default flags every q is 0: it is written as 0, not -0
    assert run_cli([command, "--output-dir", tmp_path]) == 0
    cells = (tmp_path / f"{stem}.csv").read_text().splitlines()[1].split(",")
    assert not any(cell.startswith("-0") for cell in cells)
    data = json.loads((tmp_path / f"{stem}.json").read_text())["data"]
    q_values = [value for key, value in data.items() if key.startswith("q_")]
    assert q_values and all(value == 0.0 and math.copysign(1.0, value) == 1.0 for value in q_values)


def test_sweep_command_delegates(tmp_path, capsys):
    code = run_cli(
        ["sweep", "--kind", "time", "--grid-points", "5", "--output-dir", tmp_path]
    )
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert "sweep_fidelity.csv" in names
    assert "sweep.json" in names


def test_sweep_requires_kind():
    with pytest.raises(ValidationError, match="kind"):
        parse_config(["sweep", "--grid-points", "5"])


def test_evolve_conserves_trace(tmp_path, capsys):
    code = run_cli(
        ["evolve", "--p", "0.5", "--s-over-g", "0.5", "--grid-points", "9",
         "--output-dir", tmp_path]
    )
    assert code == 0
    lines = (tmp_path / "evolve_trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    pops = [header.index(f"pop_{name}") for name in ("ground", "qubit1", "photon", "qubit2")]
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        assert abs(sum(cells[i] for i in pops) - 1.0) < 1e-9


def test_evolve_measures_once(monkeypatch, tmp_path, capsys):
    calls = []
    measure = cli_module.apply_measurement_qubit1

    def counted(*args):
        calls.append(args)
        return measure(*args)

    monkeypatch.setattr(cli_module, "apply_measurement_qubit1", counted)
    assert run_cli(["evolve", "--p", "0.5", "--grid-points", "5", "--output-dir", tmp_path]) == 0
    assert len(calls) == 1
    # a branch with no weight is still a numeric failure, found by that one measurement
    argv = ["evolve", "--alpha", "0", "--beta", "1", "--p", "0.9999999999999999"]
    assert run_cli(argv + ["--output-dir", tmp_path]) == 4
    assert len(calls) == 2


@pytest.mark.parametrize("engine, evolve", [("analytic", "analytic_rho"), ("numeric", "integrate")])
def test_optimize_q_evolves_each_state_once(monkeypatch, tmp_path, capsys, engine, evolve):
    # the closed-form q and its fidelity come from the optimum's own
    # candidates, all scored on the one scaled state
    original = getattr(protocol_module, evolve)
    scaled_flags = []

    def counted(*args):
        scaled_flags.append(args[-1])
        return original(*args)

    monkeypatch.setattr(protocol_module, evolve, counted)
    argv = ["optimize-q", "--engine", engine, "--s-over-g", "0.5", "--output-dir", tmp_path]
    assert run_cli(argv) == 0
    assert scaled_flags == [True]
    header = (tmp_path / "optimize_q.csv").read_text().splitlines()[0]
    assert header == "q_opt,fidelity_opt,gt,q_formula,fidelity_formula"


def test_import_leaves_scipy_unloaded(tmp_path):
    # no command needs scipy, the numeric engine included
    env = dict(os.environ, PYTHONPATH=str(Path(qstsim.__file__).resolve().parents[1]))
    probe = (
        "import sys, qstsim.cli\n"
        "out = sys.argv[1]\n"
        "for argv in (['protocol', '--engine', 'numeric'], ['optimize-q', '--engine', 'numeric'],\n"
        "             ['evolve', '--grid-points', '9'], ['fig4', '--grid-points', '5']):\n"
        "    assert qstsim.cli.main(argv + ['--output-dir', out]) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "[]"


def test_one_parser_serves_every_run(tmp_path, capsys):
    fig2 = ["fig2", "--grid-points", "21", "--formats", "csv", "--output-dir"]
    assert run_cli(fig2 + [tmp_path / "first"]) == 0
    capsys.readouterr()
    assert run_cli(["protocol", "--no-such-flag", "1"]) == 2
    assert "--no-such-flag" in capsys.readouterr().err
    assert run_cli(["protocol", "--output-dir", tmp_path / "protocol"]) == 0
    assert run_cli(["fig4", "--grid-points", "5", "--output-dir", tmp_path / "fig4"]) == 0
    assert run_cli(fig2 + [tmp_path / "again"]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(qstsim.__file__).resolve().parents[1]))
    subprocess.run(
        [sys.executable, "-m", "qstsim.cli", *fig2, str(tmp_path / "fresh")], env=env,
        capture_output=True, check=True,
    )
    fresh = sorted((tmp_path / "fresh").glob("*.csv"))
    assert fresh
    for path in fresh:
        for run in ("first", "again"):
            assert (tmp_path / run / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "flags, key",
    [
        (["protocol", "--s-over-g", "inf"], "s-over-g"),
        (["protocol", "--g1", "nan", "--gt", "1"], "g1"),
        (["protocol", "--beta", "nan+1j"], "beta"),
        (["fig4", "--gamma-phi-over-g", "0,inf"], "gamma-phi-over-g"),
    ],
)
def test_non_finite_input_rejected(tmp_path, capsys, flags, key):
    assert run_cli(flags + ["--output-dir", tmp_path]) == 3
    assert f"invalid value for {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, key",
    [
        (["fig2", "--p", "0.1,0.10000001"], "p"),
        (["fig3", "--p", "0.4,0.4"], "p"),
        (["fig4", "--gamma-phi-over-g", "0.5,0.5000001"], "gamma-phi-over-g"),
    ],
)
def test_series_with_one_label_rejected(tmp_path, capsys, flags, key):
    # each value labels a column by %g; two that print alike would share one
    assert run_cli(flags + ["--output-dir", tmp_path]) == 3
    assert f"{key} values must print distinct labels" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_retired_stepper_flags_are_usage_errors(tmp_path, capsys):
    for flag in ("--step-size", "--tolerance"):
        assert run_cli(["evolve", flag, "0.01", "--output-dir", tmp_path]) == 2


def test_retired_stepper_keys_in_config_are_ignored(tmp_path):
    cfg_file = tmp_path / "old.cfg"
    cfg_file.write_text("command=fig4\nstep-size=0.005\ntolerance=1e-10\ngrid-points=9\n")
    cfg = parse_config(["fig4", "--config", str(cfg_file)])
    assert cfg.values["grid-points"] == 9
    assert not {"step-size", "tolerance"} & set(cfg.meta_config())


def test_normalized_amplitudes_keep_their_bits():
    # parse -> meta.config -> parse must give the identical amplitudes
    rng = np.random.default_rng(11)
    for _ in range(100):
        alpha = float(rng.uniform(-1.0, 1.0))
        beta = complex(*rng.uniform(-1.0, 1.0, size=2)) * float(rng.uniform(0.5, 2.0))
        first = parse_config(["optimize-q", f"--alpha={alpha!r}", f"--beta={beta!r}"])
        meta = first.meta_config()
        second = parse_config(
            ["optimize-q", f"--alpha={meta['alpha']}", f"--beta={meta['beta']}"]
        )
        for key in ("alpha", "beta"):
            assert repr(second.values[key]) == repr(first.values[key])


def test_optimize_q_replay_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    argv = ["optimize-q", "--alpha=0.7657", "--beta=(0.346+0.5422j)", "--p", "0.757",
            "--s-over-g", "0.502"]
    assert run_cli(argv + ["--output-dir", first]) == 0
    replay = replay_config(first / "optimize_q.json", tmp_path / "replay.cfg")
    assert run_cli(replay + ["--output-dir", second]) == 0
    name = "optimize_q.csv"
    assert (first / name).read_bytes() == (second / name).read_bytes()


def test_fig4_stiff_dephasing(tmp_path, capsys):
    code = run_cli(
        ["fig4", "--gamma-phi-over-g", "1e6", "--formats", "csv", "--output-dir", tmp_path]
    )
    assert code == 0
    lines = (tmp_path / "fig4_fidelity.csv").read_text().splitlines()
    assert len(lines) == 242
    for line in lines[1:]:
        fidelity = float(line.split(",")[1])
        assert 0.0 <= fidelity <= 1.0


def test_fig4_under_strong_decay(tmp_path, capsys):
    # (1-p) e^{-st} drops below 2^-53 inside the grid: 1 - q is formed
    # directly, never as 1 - (1 - (1-p) e^{-st})
    code = run_cli(["fig4", "--s-over-g", "10", "--formats", "csv", "--output-dir", tmp_path])
    assert code == 0
    for metric in ("fidelity", "success"):
        table = np.loadtxt(tmp_path / f"fig4_{metric}.csv", delimiter=",", skiprows=1)
        values = table[:, 1:]
        assert np.all(np.isfinite(values)) and np.all((values >= 0) & (values <= 1))


# ten points between 1 and the next float: the grid repeats values
_REPEATING_GRID = ["--grid-start", "1", "--grid-stop", "1.0000000000000002", "--grid-points", "10"]


@pytest.mark.parametrize(
    "flags, key",
    [
        (["evolve", "--grid-start", "-1"], "grid-start"),
        (["evolve", "--grid-points", "1"], "grid-points"),
        (["evolve", "--grid-stop", "0"], "grid-stop"),
        (["evolve", "--p", "1"], "strength p"),
        (["protocol", "--formats", "csv,svg"], "formats"),
        (["optimize-q", "--formats", ","], "formats"),
        (["protocol", "--engine", "numeric", "--gamma1-over-g", "0.5"], "q-rule 'formula'"),
        (["fig3", "--coarse-points", "50"], "coarse-points"),
        (["sweep", "--kind", "decay", "--coarse-points", "5"], "coarse-points"),
        (["fig2", "--s-over-g", "-1"], "s-over-g"),
        (["sweep", "--kind", "dephasing", "--s-over-g", "-2"], "s-over-g"),
        (["fig4", "--gamma-phi-over-g", "0,-1"], "gamma-phi-over-g"),
        (["sweep", "--kind", "dephasing", "--gamma-phi-over-g", "-1"], "gamma-phi-over-g"),
        (["protocol", "--kappa-over-g", "-1"], "'kappa-over-g'"),
        (["evolve", "--gamma-phi-over-g", "-1"], "'gamma-phi-over-g'"),
        (["protocol", "--q-rule", "fixed"], "'q'"),
        (["protocol", "--q-rule", "fixed", "--q", "1"], "'q'"),
        (["protocol", "--g1", "1", "--g2", "2"], "'gt'"),
        (["protocol", "--gt", "-1"], "'gt'"),
        (["protocol", "--g1", "0", "--g2", "0", "--gt", "1"], "g1"),
        *(([command, *_REPEATING_GRID], "grid-points") for command in ("evolve", "fig2", "fig3", "fig4")),
    ],
)
def test_invalid_ranges_name_their_key(tmp_path, capsys, flags, key):
    assert run_cli(flags + ["--output-dir", tmp_path]) == 3
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["protocol", "--s-over-g", "2", "--p", "0.5"],
        ["protocol", "--q-rule", "optimal", "--s-over-g", "0.7", "--g2", "0.5", "--gt", "2.5"],
        ["optimize-q", "--engine", "numeric", "--kappa-over-g", "0.3", "--gamma2-over-g", "1.5"],
        ["evolve", "--g2", "0.5", "--gamma-phi-over-g", "0.2", "--grid-points", "9"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("g", [2.0, 2.0**-996])
def test_couplings_set_only_their_ratio(tmp_path, capsys, argv, g):
    # the rate keys and gt are in units of max(g1, g2), which is divided out
    # exactly when the couplings are scaled by a power of two
    g2 = float(argv[argv.index("--g2") + 1]) if "--g2" in argv else 1.0
    scaled = [*argv, "--g1", repr(g), "--g2", repr(g * g2)]
    for run, flags in (("unit", argv), ("scaled", scaled)):
        assert run_cli(flags + ["--formats", "csv", "--output-dir", tmp_path / run]) == 0
    names = sorted(path.name for path in (tmp_path / "unit").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "scaled").iterdir())
    for name in names:
        assert (tmp_path / "unit" / name).read_bytes() == (tmp_path / "scaled" / name).read_bytes()


def test_fig3_searches_a_window_past_the_float_spacing(tmp_path, capsys):
    # a coarse spacing of about 8e7 cannot resolve the oscillation, and near
    # t = 1e10 the floats are 2e-6 apart: the search must still end
    argv = ["fig3", "--t-max", "1e10", "--grid-points", "3", "--formats", "csv"]
    assert run_cli(argv + ["--output-dir", tmp_path]) == 0


@pytest.mark.parametrize(
    "alpha, beta, normalized",
    [
        ("1e200", "1e200", (math.sqrt(0.5), math.sqrt(0.5))),  # the squares overflow
        ("3e-170", "4e-170", (0.6, 0.8)),  # the squares underflow
        ("1e308", "1e308j", (math.sqrt(0.5), 1j * math.sqrt(0.5))),
    ],
)
def test_amplitudes_far_from_unit_scale_normalize(tmp_path, capsys, alpha, beta, normalized):
    argv = ["protocol", "--alpha", alpha, "--beta", beta]
    values = parse_config(argv).values
    assert abs(values["alpha"] - normalized[0]) <= 1e-15
    assert abs(values["beta"] - normalized[1]) <= 1e-15
    assert run_cli(argv + ["--output-dir", tmp_path]) == 0


def test_retired_optimize_q_search_keys(tmp_path, capsys):
    for flag, value in (("--grid-points", "300"), ("--refine-tol", "1e-8")):
        assert run_cli(["optimize-q", flag, value, "--output-dir", tmp_path]) == 2
    cfg_file = tmp_path / "old.cfg"
    cfg_file.write_text("command=optimize-q\ngrid-points=1000\nrefine-tol=1e-08\np=0.5\n")
    cfg = parse_config(["optimize-q", "--config", str(cfg_file)])
    assert cfg.values["p"] == 0.5
    assert not {"grid-points", "refine-tol"} & set(cfg.meta_config())
    # the other commands keep grid-points
    cfg_file.write_text("command=fig4\ngrid-points=9\n")
    assert parse_config(["fig4", "--config", str(cfg_file)]).values["grid-points"] == 9


@pytest.mark.parametrize("command", ["fig2", "fig4"])
def test_negative_grid_start_is_a_config_error(tmp_path, capsys, command):
    assert run_cli([command, "--grid-start", "-1", "--output-dir", tmp_path]) == 3
    assert "grid-start" in capsys.readouterr().err


def test_fig3_runs_into_complete_decoherence(tmp_path, capsys):
    # s/g up to 200 puts s*t far past the point where e^{-st} underflows
    code = run_cli(
        ["fig3", "--grid-stop", "200", "--formats", "csv", "--output-dir", tmp_path]
    )
    assert code == 0
    for metric in ("fidelity", "success"):
        table = np.loadtxt(tmp_path / f"fig3_{metric}.csv", delimiter=",", skiprows=1)
        values = table[:, 1:]
        assert np.all(np.isfinite(values)) and np.all((values >= 0) & (values <= 1))


@pytest.mark.parametrize(
    "argv",
    [
        ["protocol", "--s-over-g", "1000"],
        ["protocol", "--s-over-g", "1000", "--engine", "numeric"],
        ["optimize-q", "--s-over-g", "1000"],
        ["fig4", "--s-over-g", "130"],
    ],
)
def test_strong_decay_commands_succeed(tmp_path, capsys, argv):
    # e^{-st} underflows at the transfer time (s/g = 1000) or inside the
    # fig4 grid (s/g = 130); only the success probability may reach 0
    assert run_cli(argv + ["--formats", "csv", "--output-dir", tmp_path]) == 0
    for path in tmp_path.glob("*.csv"):
        header = path.read_text().splitlines()[0].split(",")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        for name, column in zip(header, table.T):
            if name != "gt":
                assert np.all((column >= 0) & (column <= 1)), (path.name, name)


def test_strong_decay_engines_agree(tmp_path, capsys):
    results = {}
    for engine in ("analytic", "numeric"):
        out = tmp_path / engine
        argv = ["protocol", "--s-over-g", "1000", "--p", "0.3", "--engine", engine]
        assert run_cli(argv + ["--formats", "json", "--output-dir", out]) == 0
        data = json.loads((out / "protocol.json").read_text())["data"]
        state = np.array(data["final_state_re"]) + 1j * np.array(data["final_state_im"])
        assert qstsim.physicality_violations(state) == []
        results[engine] = (data["fidelity"], state)
    assert abs(results["analytic"][0] - results["numeric"][0]) <= 1e-9
    np.testing.assert_allclose(results["analytic"][1], results["numeric"][1], rtol=0, atol=1e-9)
