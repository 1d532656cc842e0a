"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they happen.  Heavy intermediate results are cached and shared
between criteria; every density matrix surfaced along the way is collected
and re-checked wholesale by the physicality criterion.
"""

import contextlib
import io
import json
import math
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np

from qstsim import (
    AxisGrid,
    ProtocolSpec,
    QubitAmplitudes,
    SweepSpec,
    SystemParams,
    analytic_rho,
    apply_measurement_qubit1,
    apply_reversal_qubit2,
    decay_sweep,
    dephasing_sweep,
    fidelity_to_target,
    fig_decay_spec,
    full_transfer_time,
    initial_state,
    integrate,
    m0_operator,
    m1_operator,
    max_fidelity_over_time,
    nojump_protocol_oracle,
    q_formula,
    reversal_operator,
    run_protocol,
    target_state,
    time_sweep,
)
from qstsim.cli import main as cli_main

SQRT2 = math.sqrt(2.0)
BALANCED = QubitAmplitudes(1 / SQRT2, 1 / SQRT2)
T_STAR = full_transfer_time(1.0)

_STATE_LOG: "list[np.ndarray]" = []


def log_states(*states):
    _STATE_LOG.extend(np.asarray(s) for s in states)


def report(number, description, passed):
    print(f"criterion {number:2d} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def equal_rate_params(s, gamma_phi=0.0):
    return SystemParams(1.0, 1.0, kappa=s, gamma1=s, gamma2=s, gamma_phi=gamma_phi)


# ---------------------------------------------------------------------------
# shared, cached computations


@lru_cache(maxsize=None)
def equal_rates_benchmark():
    """Numeric vs closed-form evolution for s = 0.5 g, p = 0.5, alpha = 0.6."""
    qubit = QubitAmplitudes(0.6, 0.8)
    pre = apply_measurement_qubit1(initial_state(qubit), 0.5)
    times = np.linspace(0.0, 10.0, 50)
    started = time.perf_counter()
    trajectory = integrate(equal_rate_params(0.5), pre.state, times)
    analytic_states = [analytic_rho(qubit, 0.5, 0.5, t) for t in times]
    elapsed = time.perf_counter() - started
    worst = max(
        float(np.max(np.abs(a - n)))
        for a, n in zip(analytic_states, trajectory.states)
    )
    log_states(pre.state, *trajectory.states, *analytic_states)
    return worst, elapsed


@lru_cache(maxsize=None)
def recovery_outcomes():
    """Protocol outcomes at the transfer time for g = 0.5 s across p."""
    params = equal_rate_params(2.0)
    outcomes = {}
    for p in (0.0, 0.2, 0.4, 0.6, 0.8, 0.99):
        outcome = run_protocol(
            ProtocolSpec(qubit=BALANCED, params=params, p=p, transfer_time=T_STAR)
        )
        outcomes[p] = outcome
        log_states(outcome.final_state)
    return outcomes


@lru_cache(maxsize=None)
def fig3_sweep():
    spec = fig_decay_spec()
    started = time.perf_counter()
    result = decay_sweep(spec)
    elapsed = time.perf_counter() - started
    # surface final states for a subsample of the same grid computations
    t_max = 4.0 * T_STAR
    for ratio in result.axis_values[::8]:
        params = equal_rate_params(float(ratio))
        for p, rule, q_value in ((None, "fixed", 0.0), (0.0, "formula", None),
                                 (0.4, "formula", None), (0.8, "formula", None)):
            proto = ProtocolSpec(
                qubit=spec.qubit, params=params, p=p if p is not None else 0.0,
                q_rule=rule, q_value=q_value, transfer_time=1.0,
            )
            t_best, _ = max_fidelity_over_time(proto, t_max, spec.coarse_points)
            outcome = run_protocol(replace(proto, transfer_time=t_best))
            log_states(outcome.final_state)
    return result, elapsed


@lru_cache(maxsize=None)
def dephasing_curves():
    """Numeric dephasing sweep plus the exact values at the transfer time."""
    grid = AxisGrid(0.0, 6.0, 61)
    spec = SweepSpec(
        kind="dephasing", grid=grid, qubit=BALANCED, s_over_g=2.0, p=0.8,
        gamma_phi_over_g=(0.0, 0.01, 0.1, 1.0), include_baseline=False,
    )
    sweep = dephasing_sweep(spec)
    reference = time_sweep(
        SweepSpec(kind="time", grid=grid, qubit=BALANCED, s_over_g=2.0,
                  p_values=(0.8,), include_baseline=False)
    )
    at_transfer = []
    pre = apply_measurement_qubit1(initial_state(BALANCED), 0.8)
    q = q_formula(0.8, 2.0, T_STAR)
    for gamma_phi in (0.0, 0.01, 0.1, 1.0):
        params = equal_rate_params(2.0, gamma_phi=gamma_phi)
        evolved = integrate(params, pre.state, [T_STAR]).states[-1]
        kept = apply_reversal_qubit2(evolved, q)
        at_transfer.append(fidelity_to_target(kept.state, BALANCED))
        log_states(evolved, kept.state)
    log_states(pre.state)
    return sweep, reference, at_transfer


def test_criterion_01_analytic_numeric_equivalence():
    worst, elapsed = equal_rates_benchmark()
    report(
        1,
        f"closed form vs integrator within 1e-7 (max {worst:.2e}) "
        f"in under 1 s ({elapsed:.2f} s)",
        worst <= 1e-7 and elapsed < 1.0,
    )


def test_criterion_02_ideal_transfer():
    spec = ProtocolSpec(
        qubit=BALANCED, params=SystemParams(1.0, 1.0), p=0.0,
        q_rule="fixed", q_value=0.0,
    )
    outcome = run_protocol(spec)
    log_states(outcome.final_state)
    report(
        2,
        f"lossless transfer fidelity 1 within 1e-10 (got {outcome.fidelity!r})",
        abs(outcome.fidelity - 1.0) <= 1e-10,
    )


def test_criterion_03_nojump_identity():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(50):
        alpha = rng.uniform(0.05, 0.95)
        beta = math.sqrt(1 - alpha**2) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        qubit = QubitAmplitudes(alpha, beta)
        p = rng.uniform(0, 0.97)
        st = rng.uniform(0, 5)
        psi = nojump_protocol_oracle(qubit, p=p, s=st / T_STAR, g=1.0, t=T_STAR)
        overlap = abs(np.vdot(target_state(qubit), psi)) / np.linalg.norm(psi)
        worst = max(worst, abs(overlap - 1.0))
    report(
        3,
        f"no-jump walkthrough proportional to the target for 50 random "
        f"tuples (worst overlap defect {worst:.2e})",
        worst <= 1e-12,
    )


def test_criterion_04_strong_measurement_recovery():
    outcomes = recovery_outcomes()
    fidelities = [outcomes[p].fidelity for p in (0.0, 0.2, 0.4, 0.6, 0.8, 0.99)]
    monotone = np.all(np.diff(fidelities) >= 0)
    report(
        4,
        f"fidelity monotone in p and F(p=0.99) = {fidelities[-1]:.5f} >= 0.99",
        bool(monotone) and fidelities[-1] >= 0.99,
    )


def test_criterion_05_success_probability_tradeoff():
    outcomes = recovery_outcomes()
    ps = (0.0, 0.2, 0.4, 0.6, 0.8, 0.99)
    successes = [outcomes[p].reversal_success for p in ps]
    monotone = np.all(np.diff(successes) <= 0)

    # verify the success bookkeeping against the trace of the explicitly
    # transformed (unnormalized) matrix before trusting the limit bound
    rho = analytic_rho(BALANCED, 0.99, 2.0, T_STAR)
    q_bar = (1 - 0.99) * math.exp(-2.0 * T_STAR)
    kraus = np.diag([math.sqrt(q_bar)] * 3 + [1.0]).astype(complex)
    trace = float(np.trace(kraus @ rho @ kraus).real)
    closed = 1 - (1 - q_bar) + (1 - q_bar) * rho[3, 3].real  # 1 - q + q rho33
    bookkeeping = (
        abs(outcomes[0.99].reversal_success - trace) <= 1e-12
        and abs(trace - closed) <= 1e-12
    )

    limit = (1 - 0.99) * math.exp(-2.0 * T_STAR) / BALANCED.alpha**2
    bounded = outcomes[0.99].reversal_success <= limit + 0.01
    report(
        5,
        f"success probability non-increasing in p, matches the transformed "
        f"trace, and P(0.99) = {successes[-1]:.3e} <= {limit:.3e} + 0.01",
        bool(monotone) and bookkeeping and bounded,
    )


def test_criterion_06_complete_decoherence_plateau():
    result, elapsed = fig3_sweep()
    at_20 = float(result.fidelity("baseline")[-1])
    assert abs(result.axis_values[-1] - 20.0) < 1e-9
    report(
        6,
        f"unassisted best fidelity at s/g = 20 is {at_20:.4f}, within "
        f"[0.34, 0.38]; full sweep took {elapsed:.1f} s < 10 s",
        0.34 <= at_20 <= 0.38 and elapsed < 10.0,
    )


def test_criterion_07_robustness_ordering():
    result, _ = fig3_sweep()
    strong = result.axis_values >= 1.0 - 1e-12
    f_base = result.fidelity("baseline")[strong]
    f0 = result.fidelity("p=0")[strong]
    f4 = result.fidelity("p=0.4")[strong]
    f8 = result.fidelity("p=0.8")[strong]
    ordered = (
        np.all(f8 >= f4) and np.all(f4 >= f0) and np.all(f0 >= f_base - 1e-9)
    )
    report(
        7,
        "best fidelity ordered p=0.8 >= p=0.4 >= p=0 >= unassisted at every "
        "grid point with s/g in [1, 20]",
        bool(ordered),
    )


def test_criterion_08_dephasing_degradation():
    sweep, reference, at_transfer = dephasing_curves()
    strictly_decreasing = all(
        at_transfer[i] > at_transfer[i + 1] for i in range(3)
    )
    curve_gap = float(
        np.max(np.abs(sweep.fidelity("gphi=0g") - reference.fidelity("p=0.8")))
    )
    report(
        8,
        f"fidelity at the transfer time strictly decreases with the "
        f"dephasing rate {[round(f, 5) for f in at_transfer]}; "
        f"dephasing-free numeric curve matches the closed form within 1e-6 "
        f"(max gap {curve_gap:.2e})",
        strictly_decreasing and curve_gap <= 1e-6,
    )


def test_criterion_09_channel_algebra():
    rng = np.random.default_rng(9)
    worst_completeness = 0.0
    for p in np.linspace(0.0, 1.0, 1000):
        m0, m1 = m0_operator(p), m1_operator(p)
        total = m0.conj().T @ m0 + m1.conj().T @ m1
        worst_completeness = max(
            worst_completeness, float(np.max(np.abs(total - np.eye(2))))
        )
    worst_recovery = 0.0
    for _ in range(1000):
        p = rng.uniform(0.0, 0.95)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        recovered = reversal_operator(p) @ (m0_operator(p) @ psi)
        recovered /= np.linalg.norm(recovered)
        fidelity = abs(np.vdot(psi, recovered)) ** 2
        worst_recovery = max(worst_recovery, abs(fidelity - 1.0))
    report(
        9,
        f"Kraus completeness exact to {worst_completeness:.1e} (<= 1e-15) "
        f"over 1000 strengths; reversal restores 1000 random states to "
        f"fidelity 1 within {worst_recovery:.1e} (<= 1e-12)",
        worst_completeness <= 1e-15 and worst_recovery <= 1e-12,
    )


def test_criterion_10_physicality():
    # make sure every producer has contributed its states
    equal_rates_benchmark()
    recovery_outcomes()
    fig3_sweep()
    dephasing_curves()
    worst_herm = worst_trace = 0.0
    worst_eig = 1.0
    for rho in _STATE_LOG:
        worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
        worst_trace = max(worst_trace, abs(float(np.trace(rho).real) - 1.0))
        herm = 0.5 * (rho + rho.conj().T)
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(herm)[0]))
    report(
        10,
        f"{len(_STATE_LOG)} density matrices: hermiticity defect "
        f"{worst_herm:.1e} <= 1e-12, trace defect {worst_trace:.1e} <= 1e-9, "
        f"smallest eigenvalue {worst_eig:.1e} >= -1e-8",
        len(_STATE_LOG) > 100
        and worst_herm <= 1e-12
        and worst_trace <= 1e-9
        and worst_eig >= -1e-8,
    )


def test_criterion_11_replay_reproducibility(tmp_path):
    identical = True
    csv_names = {
        "fig2": ("fig2_fidelity.csv", "fig2_success.csv"),
        "fig3": ("fig3_fidelity.csv", "fig3_success.csv"),
        "fig4": ("fig4_fidelity.csv", "fig4_success.csv"),
    }
    for command, names in csv_names.items():
        first = tmp_path / command / "first"
        second = tmp_path / command / "second"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main([command, "--output-dir", str(first)]) == 0
        meta = json.loads((first / f"{command}.json").read_text())["meta"]
        cfg_path = tmp_path / command / "replay.cfg"
        cfg_path.write_text(
            "".join(f"{k}={v}\n" for k, v in meta["config"].items())
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert (
                cli_main(
                    [command, "--config", str(cfg_path), "--output-dir", str(second)]
                )
                == 0
            )
        for name in names:
            if (first / name).read_bytes() != (second / name).read_bytes():
                identical = False
    report(
        11,
        "fig2, fig3 and fig4 re-run from their emitted meta.config give "
        "byte-identical CSV files",
        identical,
    )
