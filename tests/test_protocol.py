import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qstsim import (
    ProtocolSpec,
    QubitAmplitudes,
    SystemParams,
    analytic_rho,
    apply_reversal_qubit2,
    fidelity_to_target,
    full_transfer_time,
    nojump_protocol_oracle,
    optimize_q,
    physicality_violations,
    q_formula,
    run_protocol,
    target_state,
)
from qstsim.protocol import _evolved_state, reversal_outcome

SQRT2 = math.sqrt(2.0)
BALANCED = QubitAmplitudes(1 / SQRT2, 1 / SQRT2)


def equal_rate_params(s):
    return SystemParams(1.0, 1.0, kappa=s, gamma1=s, gamma2=s)


def test_q_formula_values():
    assert q_formula(0.0, 0.0, 5.0) == 0.0
    assert q_formula(0.8, 0.7, 0.0) == 0.8
    np.testing.assert_allclose(q_formula(0.8, 1.0, math.log(2)), 0.9, atol=1e-15)


def test_q_formula_validation():
    with pytest.raises(ValueError):
        q_formula(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        q_formula(0.5, -0.5, 1.0)


def test_ideal_transfer():
    spec = ProtocolSpec(
        qubit=BALANCED,
        params=SystemParams(1.0, 1.0),
        p=0.0,
        q_rule="fixed",
        q_value=0.0,
    )
    assert spec.transfer_time == full_transfer_time(1.0)
    outcome = run_protocol(spec)
    assert abs(outcome.fidelity - 1.0) < 1e-10
    assert abs(outcome.success_probability - 1.0) < 1e-12


def test_measurement_raises_fidelity_and_costs_probability():
    t = full_transfer_time(1.0)
    params = equal_rate_params(2.0)  # weak coupling, g = 0.5 s
    plain = run_protocol(
        ProtocolSpec(qubit=BALANCED, params=params, p=0.0, transfer_time=t)
    )
    measured = run_protocol(
        ProtocolSpec(qubit=BALANCED, params=params, p=0.8, transfer_time=t)
    )
    assert measured.fidelity > plain.fidelity
    assert measured.reversal_success < plain.reversal_success


def test_strong_measurement_recovers_the_state():
    t = full_transfer_time(1.0)
    outcome = run_protocol(
        ProtocolSpec(qubit=BALANCED, params=equal_rate_params(2.0), p=0.99,
                     transfer_time=t)
    )
    assert outcome.fidelity >= 0.99


def test_outcome_matches_direct_fidelity_expression():
    """Pipeline output against the explicit closed-form expression
    (alpha^2 qbar rho00 - 2 sqrt(qbar) Re(alpha beta rho03) + |beta|^2 rho33) / N."""
    rng = np.random.default_rng(17)
    for _ in range(100):
        alpha = rng.uniform(0.1, 0.9)
        beta = math.sqrt(1 - alpha**2) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        qubit = QubitAmplitudes(alpha, beta)
        p = rng.uniform(0, 0.9)
        s = rng.uniform(0, 1.5)
        t = rng.uniform(0, 6.0)
        spec = ProtocolSpec(
            qubit=qubit, params=equal_rate_params(s), p=p, transfer_time=t
        )
        outcome = run_protocol(spec)

        rho = analytic_rho(qubit, p, s, t)
        qbar = (1 - p) * math.exp(-s * t)
        norm = (1 - rho[3, 3].real) * qbar + rho[3, 3].real
        direct = (
            alpha**2 * qbar * rho[0, 0].real
            - alpha * (beta * rho[0, 3]).real * math.sqrt(qbar)
            - alpha * (np.conj(beta) * rho[3, 0]).real * math.sqrt(qbar)
            + abs(beta) ** 2 * rho[3, 3].real
        ) / norm
        assert abs(outcome.fidelity - direct) < 1e-12
        assert abs(outcome.reversal_success - norm) < 1e-12


def test_fidelity_and_success_within_bounds():
    rng = np.random.default_rng(23)
    for _ in range(50):
        alpha = rng.uniform(0.1, 0.9)
        qubit = QubitAmplitudes(alpha, math.sqrt(1 - alpha**2))
        spec = ProtocolSpec(
            qubit=qubit,
            params=equal_rate_params(rng.uniform(0, 2)),
            p=rng.uniform(0, 0.95),
            transfer_time=rng.uniform(0, 8),
        )
        outcome = run_protocol(spec)
        assert -1e-12 <= outcome.fidelity <= 1 + 1e-12
        assert 0 <= outcome.success_probability <= 1 + 1e-12
        assert 0 <= outcome.reversal_success <= 1 + 1e-12


def test_monotone_tradeoff_in_p():
    t = full_transfer_time(1.0)
    params = equal_rate_params(2.0)
    fidelities, successes = [], []
    for p in (0.0, 0.2, 0.4, 0.6, 0.8):
        outcome = run_protocol(
            ProtocolSpec(qubit=BALANCED, params=params, p=p, transfer_time=t)
        )
        fidelities.append(outcome.fidelity)
        successes.append(outcome.reversal_success)
    assert np.all(np.diff(fidelities) >= 0)
    assert np.all(np.diff(successes) <= 0)


def test_numeric_engine_agrees_with_analytic():
    t = full_transfer_time(1.0)
    base = ProtocolSpec(
        qubit=QubitAmplitudes(0.6, 0.8),
        params=equal_rate_params(0.5),
        p=0.5,
        transfer_time=t,
    )
    analytic = run_protocol(base)
    numeric = run_protocol(replace(base, engine="numeric"))
    assert abs(analytic.fidelity - numeric.fidelity) < 1e-7
    assert abs(analytic.reversal_success - numeric.reversal_success) < 1e-7


def test_analytic_engine_rejects_unequal_rates():
    with pytest.raises(ValueError):
        ProtocolSpec(
            qubit=BALANCED,
            params=SystemParams(1.0, 1.0, kappa=0.5, gamma1=0.4, gamma2=0.5),
        )
    with pytest.raises(ValueError):
        ProtocolSpec(
            qubit=BALANCED,
            params=SystemParams(1.0, 1.0, kappa=0.5, gamma1=0.5, gamma2=0.5,
                                gamma_phi=0.1),
        )


def test_nan_transfer_time_rejected():
    with pytest.raises(ValueError, match="transfer_time"):
        ProtocolSpec(qubit=BALANCED, params=equal_rate_params(1.0), transfer_time=math.nan)


def test_formula_rule_needs_equal_rates():
    unequal = SystemParams(1.0, 1.0, kappa=0.5, gamma1=0.4, gamma2=0.5)
    with pytest.raises(ValueError, match="q-rule 'formula' needs kappa = gamma1 = gamma2"):
        ProtocolSpec(qubit=BALANCED, params=unequal, engine="numeric")
    for rule, q_value in (("fixed", 0.3), ("optimal", None)):
        ProtocolSpec(qubit=BALANCED, params=unequal, q_rule=rule, q_value=q_value, engine="numeric")


def test_transfer_time_required_for_unbalanced_couplings():
    with pytest.raises(ValueError):
        ProtocolSpec(qubit=BALANCED, params=SystemParams(1.0, 1.3))
    spec = ProtocolSpec(
        qubit=BALANCED, params=SystemParams(1.0, 1.3), transfer_time=2.0
    )
    assert spec.transfer_time == 2.0


def test_optimize_q_lossless_undoes_exactly():
    spec = ProtocolSpec(
        qubit=QubitAmplitudes(0.6, 0.8),
        params=SystemParams(1.0, 1.0),
        p=0.37,
        q_rule="fixed",
        q_value=0.0,
    )
    q_opt, f_opt = optimize_q(spec)
    assert abs(q_opt - 0.37) < 1e-9
    assert abs(f_opt - 1.0) < 1e-10


def test_optimize_q_dominates_formula():
    t = full_transfer_time(1.0)
    params = equal_rate_params(2.0)
    for alpha in (0.3, 0.6, 0.8):
        qubit = QubitAmplitudes(alpha, math.sqrt(1 - alpha**2))
        fixed = ProtocolSpec(qubit=qubit, params=params, p=0.8, q_rule="fixed",
                             q_value=0.0, transfer_time=t)
        _, f_opt = optimize_q(fixed)
        formula = run_protocol(
            ProtocolSpec(qubit=qubit, params=params, p=0.8, transfer_time=t)
        )
        assert f_opt >= formula.fidelity - 1e-12


def test_optimal_q_is_state_dependent():
    t = full_transfer_time(1.0)
    params = equal_rate_params(2.0)
    offsets = []
    for alpha in (0.3, 0.6, 0.8):
        qubit = QubitAmplitudes(alpha, math.sqrt(1 - alpha**2))
        spec = ProtocolSpec(qubit=qubit, params=params, p=0.8, q_rule="fixed",
                            q_value=0.0, transfer_time=t)
        q_opt, _ = optimize_q(spec)
        offsets.append(q_opt - q_formula(0.8, 2.0, t))
    assert max(offsets) - min(offsets) > 1e-4


@pytest.mark.parametrize("s", [10.0, 20.0, 1000.0])
@pytest.mark.parametrize("engine", ["analytic", "numeric"])
def test_optimum_never_below_the_formula_under_strong_decay(s, engine):
    # (1-p) e^{-st} falls below 1e-9 and then below 2^-53, where the
    # closed-form q rounds to 1; the optimum still has it as a candidate
    spec = ProtocolSpec(
        qubit=QubitAmplitudes(0.6, 0.8), params=equal_rate_params(s), p=0.3,
        q_rule="fixed", q_value=0.0, engine=engine,
    )
    _, f_opt = optimize_q(spec)
    formula = run_protocol(replace(spec, q_rule="formula"))
    optimal = run_protocol(replace(spec, q_rule="optimal"))
    assert f_opt >= formula.fidelity - 1e-12
    assert abs(optimal.fidelity - f_opt) <= 1e-12


def test_optimal_q_rule_runs_through_protocol():
    spec = ProtocolSpec(
        qubit=QubitAmplitudes(0.6, 0.8),
        params=equal_rate_params(1.0),
        p=0.5,
        q_rule="optimal",
    )
    outcome = run_protocol(spec)
    formula = run_protocol(replace(spec, q_rule="formula"))
    assert outcome.fidelity >= formula.fidelity - 1e-12


def test_nojump_oracle_matches_hand_amplitudes():
    qubit = QubitAmplitudes(0.6, 0.8)
    t = full_transfer_time(1.0)
    s = 1.0 / t  # s*t = 1
    psi = nojump_protocol_oracle(qubit, p=0.5, s=s, g=1.0, t=t)
    np.testing.assert_allclose(psi[0], 0.6 * math.sqrt(0.5 * math.exp(-1)), atol=1e-12)
    np.testing.assert_allclose(psi[3], 0.8 * math.sqrt(0.5) * math.exp(-0.5), atol=1e-12)
    np.testing.assert_allclose(psi[1], 0.0, atol=1e-12)
    np.testing.assert_allclose(psi[2], 0.0, atol=1e-12)


def test_nojump_oracle_lossless_returns_target():
    qubit = QubitAmplitudes(0.6, 0.8)
    t = full_transfer_time(1.0)
    psi = nojump_protocol_oracle(qubit, p=0.0, s=0.0, g=1.0, t=t)
    np.testing.assert_allclose(psi, target_state(qubit), atol=1e-12)


def test_nojump_oracle_proportional_to_target():
    rng = np.random.default_rng(31)
    t = full_transfer_time(1.0)
    for _ in range(30):
        alpha = rng.uniform(0.1, 0.9)
        beta = math.sqrt(1 - alpha**2) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        qubit = QubitAmplitudes(alpha, beta)
        st = rng.uniform(0, 4)
        psi = nojump_protocol_oracle(qubit, p=rng.uniform(0, 0.95), s=st / t, g=1.0, t=t)
        overlap = abs(np.vdot(target_state(qubit), psi)) / np.linalg.norm(psi)
        assert abs(overlap - 1.0) < 1e-12


def test_nojump_oracle_rejects_other_times():
    with pytest.raises(ValueError):
        nojump_protocol_oracle(BALANCED, p=0.1, s=0.5, g=1.0, t=1.0)


def test_fidelity_to_target_invariant():
    spec = ProtocolSpec(
        qubit=QubitAmplitudes(0.6, 0.8), params=equal_rate_params(0.7), p=0.4
    )
    outcome = run_protocol(spec)
    recomputed = fidelity_to_target(outcome.final_state, spec.qubit)
    assert abs(outcome.fidelity - recomputed) < 1e-12


_amplitudes = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2 * math.pi)).map(
    lambda ap: QubitAmplitudes(ap[0], math.sqrt(1.0 - ap[0] ** 2) * cmath.exp(1j * ap[1]))
)
_entries = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)


def _physical_state(entries):
    """G G^+ over its trace: Hermitian, unit trace, positive semidefinite."""
    g = np.array(entries[:16]).reshape(4, 4) + 1j * np.array(entries[16:]).reshape(4, 4)
    rho = g @ g.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-6)
    return rho / trace


# c stops short of the subnormal range, where the reference's kept branch
# c * rho loses its digits
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    entries=_entries,
    qubit=_amplitudes,
    c=st.floats(1e-12, 1.0),
    sigma_z=st.booleans(),
)
def test_reversal_outcome_matches_the_reference_channel(entries, qubit, c, sigma_z):
    rho = _physical_state(entries)
    q = 1.0 - c
    c = 1.0 - q  # the complement the reference channel forms from q
    kept = apply_reversal_qubit2(rho, q, apply_sigma_z=sigma_z)
    fidelity, success = reversal_outcome(
        qubit, rho[0, 0].real, rho[0, 3], rho[3, 3].real, np.trace(rho).real, c, sigma_z
    )
    assert abs(fidelity - fidelity_to_target(kept.state, qubit)) <= 1e-12
    assert abs(success - kept.success_probability) <= 1e-12
    assert abs(success - (1.0 - q + q * rho[3, 3].real)) <= 1e-12


def test_reversal_outcome_rejects_an_empty_branch():
    # c = 0 leaves only rho33, which is 0 here: 0/0
    with pytest.raises(FloatingPointError):
        reversal_outcome(BALANCED, 1.0, 0.0, 0.0, 1.0, 0.0)


_rates = st.floats(0.0, 3.0)


@st.composite
def _optimize_specs(draw):
    """Analytic specs with equal rates, or numeric ones with unequal rates
    and dephasing."""
    if draw(st.booleans()):
        s = draw(_rates)
        params, engine = SystemParams(1.0, 1.0, s, s, s), "analytic"
    else:
        params = SystemParams(
            1.0, 1.0, draw(_rates), draw(_rates), draw(_rates), gamma_phi=draw(_rates)
        )
        engine = "numeric"
    return ProtocolSpec(
        qubit=draw(_amplitudes),
        params=params,
        p=draw(st.floats(0.0, 0.95)),
        q_rule="fixed",
        q_value=0.0,
        transfer_time=draw(st.floats(0.05, 6.0)),
        engine=engine,
        apply_sigma_z=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=_optimize_specs())
def test_optimize_q_beats_a_dense_grid(spec):
    q_opt, f_opt = optimize_q(spec)
    s = spec.params.equal_decay_rate()
    closed_form = s is not None and q_opt == q_formula(spec.p, s, spec.transfer_time)
    assert 0.0 <= q_opt <= 1.0 - 1e-9 or closed_form
    rho_t, _ = _evolved_state(spec, spec.transfer_time)
    qs = np.linspace(0.0, 1.0 - 1e-9, 10_000)
    on_grid, _ = reversal_outcome(
        spec.qubit, rho_t[0, 0].real, rho_t[0, 3], rho_t[3, 3].real,
        np.trace(rho_t).real, 1.0 - qs, spec.apply_sigma_z,
    )
    assert f_opt >= on_grid.max() - 1e-12
    # the reported fidelity is the one the protocol reaches at q_opt; the
    # closed-form q is reached exactly only on the formula path
    at_q_opt = run_protocol(
        replace(spec, q_rule="formula") if closed_form else replace(spec, q_value=q_opt)
    )
    assert abs(at_q_opt.fidelity - f_opt) <= 1e-12
    optimal = run_protocol(replace(spec, q_rule="optimal"))
    assert optimal.q_used == q_opt and optimal.fidelity == at_q_opt.fidelity


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    qubit=_amplitudes,
    p=st.floats(0.0, 0.99),
    s=st.floats(0.0, 1e3),
    t=st.floats(0.0, 6.0),
    rule=st.sampled_from(["formula", "fixed", "optimal"]),
    q=st.floats(0.0, 0.999),
    engine=st.sampled_from(["analytic", "numeric"]),
    sigma_z=st.booleans(),
)
def test_every_rule_ends_in_a_physical_state(qubit, p, s, t, rule, q, engine, sigma_z):
    spec = ProtocolSpec(
        qubit=qubit, params=equal_rate_params(s), p=p, q_rule=rule,
        q_value=q if rule == "fixed" else None, transfer_time=t, engine=engine,
        apply_sigma_z=sigma_z,
    )
    outcome = run_protocol(spec)
    assert physicality_violations(outcome.final_state) == []
    for value in (
        outcome.fidelity, outcome.premeasure_success, outcome.reversal_success,
        outcome.success_probability,
    ):
        assert -1e-12 <= value <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    qubit=_amplitudes,
    s=st.floats(0.0, 1e3),
    t=st.floats(0.0, 6.0),
    ps=st.lists(st.floats(0.0, 0.99), min_size=2, max_size=2),
)
def test_stronger_measurement_trades_success_for_fidelity(qubit, s, t, ps):
    # the paper's claim, for the closed-form rule with equal rates
    weak, strong = (
        run_protocol(ProtocolSpec(qubit=qubit, params=equal_rate_params(s), p=p, transfer_time=t))
        for p in sorted(ps)
    )
    assert strong.fidelity >= weak.fidelity - 1e-12
    assert strong.reversal_success <= weak.reversal_success + 1e-12
