import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qstsim

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


def test_import_leaves_scipy_unloaded():
    # scipy is imported only on the paths that call expm
    env = dict(os.environ, PYTHONPATH=str(Path(qstsim.__file__).resolve().parents[1]))
    probe = "import sys, qstsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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
    ],
)
def test_invalid_ranges_name_their_key(tmp_path, capsys, flags, key):
    assert run_cli(flags + ["--output-dir", tmp_path]) == 3
    assert key in capsys.readouterr().err


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
