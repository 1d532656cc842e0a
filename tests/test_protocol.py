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
    full_transfer_time,
    physicality_violations,
    run_protocol,
    target_state,
)
import qstsim.protocol as protocol_module
from qstsim.protocol import _evolved_state, reversal_outcome

from oracles import (
    apply_reversal_qubit2,
    fidelity_to_target,
    nojump_amplitudes,
    nojump_protocol_oracle,
    q_formula,
)

SQRT2 = math.sqrt(2.0)
BALANCED = QubitAmplitudes(1 / SQRT2, 1 / SQRT2)


def equal_rate_params(s):
    return SystemParams(1.0, 1.0, kappa=s, gamma1=s, gamma2=s)


def test_q_formula_values():
    assert q_formula(0.0, 0.0, 5.0) == 0.0
    assert q_formula(0.8, 0.7, 0.0) == 0.8
    np.testing.assert_allclose(q_formula(0.8, 1.0, math.log(2)), 0.9, atol=1e-15)


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
    with pytest.raises(ValueError, match=r"transfer_time \('gt'\) must be non-negative"):
        ProtocolSpec(qubit=BALANCED, params=equal_rate_params(1.0), transfer_time=math.nan)


def test_formula_rule_needs_equal_rates():
    unequal = SystemParams(1.0, 1.0, kappa=0.5, gamma1=0.4, gamma2=0.5)
    with pytest.raises(ValueError, match="q-rule 'formula' needs kappa = gamma1 = gamma2"):
        ProtocolSpec(qubit=BALANCED, params=unequal, engine="numeric")
    for rule, q_value in (("fixed", 0.3), ("optimal", None)):
        ProtocolSpec(qubit=BALANCED, params=unequal, q_rule=rule, q_value=q_value, engine="numeric")


def test_transfer_time_required_for_unbalanced_couplings():
    with pytest.raises(ValueError, match=r"transfer_time \('gt'\) must be given when g1 != g2"):
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
        q_rule="optimal",
    )
    optimal = run_protocol(spec)
    assert abs(optimal.q_used - 0.37) < 1e-9
    assert abs(optimal.fidelity - 1.0) < 1e-10


def test_optimize_q_dominates_formula():
    t = full_transfer_time(1.0)
    params = equal_rate_params(2.0)
    for alpha in (0.3, 0.6, 0.8):
        qubit = QubitAmplitudes(alpha, math.sqrt(1 - alpha**2))
        optimal = run_protocol(
            ProtocolSpec(qubit=qubit, params=params, p=0.8, q_rule="optimal", transfer_time=t)
        )
        formula = run_protocol(
            ProtocolSpec(qubit=qubit, params=params, p=0.8, transfer_time=t)
        )
        assert optimal.fidelity >= formula.fidelity - 1e-12


def test_optimal_q_is_state_dependent():
    t = full_transfer_time(1.0)
    params = equal_rate_params(2.0)
    offsets = []
    for alpha in (0.3, 0.6, 0.8):
        qubit = QubitAmplitudes(alpha, math.sqrt(1 - alpha**2))
        spec = ProtocolSpec(qubit=qubit, params=params, p=0.8, q_rule="optimal", transfer_time=t)
        offsets.append(run_protocol(spec).q_used - q_formula(0.8, 2.0, t))
    assert max(offsets) - min(offsets) > 1e-4


@pytest.mark.parametrize("s", [10.0, 20.0, 1000.0])
@pytest.mark.parametrize("engine", ["analytic", "numeric"])
def test_optimum_never_below_the_formula_under_strong_decay(s, engine):
    # (1-p) e^{-st} falls below 1e-9 and then below 2^-53, where the
    # closed-form q rounds to 1; the optimum still has it as a candidate
    spec = ProtocolSpec(
        qubit=QubitAmplitudes(0.6, 0.8), params=equal_rate_params(s), p=0.3,
        q_rule="optimal", engine=engine,
    )
    formula = run_protocol(replace(spec, q_rule="formula"))
    assert run_protocol(spec).fidelity >= formula.fidelity - 1e-12


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


@pytest.mark.parametrize("engine, evolve", [("analytic", "analytic_rho"), ("numeric", "integrate")])
def test_optimal_rule_evolves_each_state_once(monkeypatch, engine, evolve):
    # at s/g = 10 the optimum beats the closed-form q; every candidate and the
    # reversal come from the one scaled state
    original = getattr(protocol_module, evolve)
    scaled_flags = []

    def counted(*args):
        scaled_flags.append(args[-1])
        return original(*args)

    spec = ProtocolSpec(
        qubit=QubitAmplitudes(0.6, 0.8), params=equal_rate_params(10.0), p=0.5,
        q_rule="optimal", engine=engine,
    )
    formula = run_protocol(replace(spec, q_rule="formula"))
    monkeypatch.setattr(protocol_module, evolve, counted)
    outcome = run_protocol(spec)
    assert scaled_flags == [True]
    assert outcome.fidelity > formula.fidelity + 1e-3
    assert outcome.reversal_success < formula.reversal_success


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
    fidelity, success = reversal_outcome(  # the true state: lambda = 1, w = c
        qubit, rho[0, 0].real, rho[0, 3], rho[3, 3].real, np.trace(rho).real, c, c, sigma_z
    )
    assert abs(fidelity - fidelity_to_target(kept.state, qubit)) <= 1e-12
    assert abs(success - kept.success_probability) <= 1e-12
    assert abs(success - (1.0 - q + q * rho[3, 3].real)) <= 1e-12


# the whole protocol against the reference channel, for unequal couplings and
# either sigma_z setting; 1 - q stays above about 1e-4, where the reference's
# q = 1 - (1 - p) e^{-st} still holds the complement to 1e-12
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    qubit=_amplitudes,
    p=st.floats(0.0, 0.9),
    s=st.floats(0.0, 1.0),
    t=st.floats(0.0, 6.0),
    formula=st.booleans(),
    q=st.floats(0.0, 0.999),
    sigma_z=st.booleans(),
    g1=st.floats(0.2, 2.0),
    g2=st.floats(0.2, 2.0),
)
def test_run_protocol_matches_the_reference_channel(qubit, p, s, t, formula, q, sigma_z, g1, g2):
    spec = ProtocolSpec(
        qubit=qubit,
        params=SystemParams(g1, g2, s, s, s),
        p=p,
        q_rule="formula" if formula else "fixed",
        q_value=q,
        transfer_time=t,
        apply_sigma_z=sigma_z,
    )
    outcome = run_protocol(spec)
    # the no-jump branch by scipy's expm, its lost norm in the ground state
    psi = nojump_amplitudes(qubit, p, s, t, g1, g2)
    rho = np.outer(psi, psi.conj())
    rho[0, 0] += 1.0 - np.vdot(psi, psi).real
    kept = apply_reversal_qubit2(rho, q_formula(p, s, t) if formula else q, apply_sigma_z=sigma_z)
    assert abs(outcome.fidelity - fidelity_to_target(kept.state, qubit)) <= 1e-12
    assert abs(outcome.reversal_success - kept.success_probability) <= 1e-12


# the same protocol under strong decay, e^{-st} down to e^{-500}, where the
# reference channel's q loses its complement, under every q-rule: against
# the numeric engine, and but for the optimum against the scaled closed-form
# state scored directly, with w = lambda^2 (1 - q) (1 - p under the formula)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    qubit=_amplitudes,
    p=st.floats(0.0, 0.99),
    s=st.floats(0.0, 50.0),
    t=st.floats(0.0, 10.0),
    rule=st.sampled_from(["formula", "fixed", "optimal"]),
    log_c=st.floats(-36.0, 0.0),  # a fixed q = -expm1(log_c) below 1 in floats
    sigma_z=st.booleans(),
    g1=st.floats(0.2, 2.0),
    g2=st.floats(0.2, 2.0),
)
def test_run_protocol_matches_the_closed_form_under_strong_decay(
    qubit, p, s, t, rule, log_c, sigma_z, g1, g2
):
    q = -math.expm1(log_c)
    spec = ProtocolSpec(
        qubit=qubit,
        params=SystemParams(g1, g2, s, s, s),
        p=p,
        q_rule=rule,
        q_value=q if rule == "fixed" else None,
        transfer_time=t,
        apply_sigma_z=sigma_z,
    )
    outcome = run_protocol(spec)
    numeric = run_protocol(replace(spec, engine="numeric"))
    references = [(numeric.fidelity, numeric.reversal_success)]
    if rule != "optimal":
        rho = analytic_rho(qubit, p, s, t, g1, g2, scaled=True)
        c = (1.0 - p) * math.exp(-s * t) if rule == "formula" else 1.0 - q
        w = 1.0 - p if rule == "formula" else math.exp(s * t) * c
        references.append(reversal_outcome(
            qubit, rho[0, 0].real, rho[0, 3], rho[3, 3].real, np.trace(rho).real, w, c, sigma_z
        ))
    for reference in references:
        assert abs(outcome.fidelity - reference[0]) <= 1e-12
        assert abs(outcome.reversal_success - reference[1]) <= 1e-12


@pytest.mark.parametrize("engine", ["analytic", "numeric"])
@pytest.mark.parametrize("s", [1e3, 1e5])
def test_strong_decay_limits_of_the_balanced_state(engine, s):
    # at the full-transfer time, as s/g -> infinity, the target sees
    # (v^2/2 + v/2 + 1/4) / (v^2 + 1/2) of the scaled state, in v = sqrt(w):
    # the formula rule has w = 1 - p = 1, 5/6, and the optimum v = 1/sqrt(2),
    # (2 + sqrt(2))/4; true values, not recorded output
    params = equal_rate_params(s)
    for rule, limit in (("formula", 5 / 6), ("optimal", (2 + SQRT2) / 4)):
        outcome = run_protocol(ProtocolSpec(qubit=BALANCED, params=params, q_rule=rule, engine=engine))
        assert abs(outcome.fidelity - limit) <= 1e-9, rule


def test_reversal_outcome_rejects_an_empty_branch():
    # c = 0 leaves only rho33, which is 0 here: 0/0
    with pytest.raises(FloatingPointError):
        reversal_outcome(BALANCED, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


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


@st.composite
def _protocol_specs(draw):
    """Every q-rule on both engines, either sigma_z setting; unequal rates
    and dephasing where the rule allows them, and decay strong enough for
    e^{-st} to underflow."""
    q_rule = draw(st.sampled_from(["formula", "fixed", "optimal"]))
    engine = draw(st.sampled_from(["analytic", "numeric"]))
    s = draw(_rates | st.floats(3.0, 1000.0))
    params = SystemParams(1.0, 1.0, s, s, s)
    if engine == "numeric" and q_rule != "formula" and draw(st.booleans()):
        params = SystemParams(1.0, 1.0, s, draw(_rates), draw(_rates), gamma_phi=draw(_rates))
    return ProtocolSpec(
        qubit=draw(_amplitudes),
        params=params,
        p=draw(st.floats(0.0, 0.95)),
        q_rule=q_rule,
        q_value=draw(st.floats(0.0, 0.999)),
        transfer_time=draw(st.floats(0.05, 6.0)),
        engine=engine,
        apply_sigma_z=draw(st.booleans()),
    )


# the reported fidelity comes from reversal_outcome, the final state from
# the reversal channel; they must describe the same run
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=_protocol_specs())
def test_fidelity_to_target_invariant(spec):
    outcome = run_protocol(spec)
    assert abs(outcome.fidelity - fidelity_to_target(outcome.final_state, spec.qubit)) <= 1e-12


# rho03 carries alpha conj(beta), so the phase of beta cancels in Re(beta
# rho03), the only place the target sees it
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spec=_protocol_specs(), phi=st.floats(0.0, 2 * math.pi))
def test_the_phase_of_beta_changes_nothing(spec, phi):
    turned = QubitAmplitudes(spec.qubit.alpha, spec.qubit.beta * cmath.exp(1j * phi))
    one, other = run_protocol(spec), run_protocol(replace(spec, qubit=turned))
    assert abs(one.fidelity - other.fidelity) <= 1e-12
    assert abs(one.success_probability - other.success_probability) <= 1e-12 * one.success_probability


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=_optimize_specs())
def test_optimize_q_beats_a_dense_grid(spec):
    optimal = run_protocol(replace(spec, q_rule="optimal"))
    q_opt, f_opt = optimal.q_used, optimal.fidelity
    s = spec.params.equal_decay_rate()
    closed_form = s is not None and q_opt == run_protocol(replace(spec, q_rule="formula")).q_used
    assert 0.0 <= q_opt <= 1.0  # no cap: a stationary point may lie past 1 - 1e-9
    (rho_t,), (log_lambda_sq,), _ = _evolved_state(spec, [spec.transfer_time])
    c = 1.0 - np.linspace(0.0, 1.0 - 1e-9, 10_000)
    on_grid, _ = reversal_outcome(
        spec.qubit, rho_t[0, 0].real, rho_t[0, 3], rho_t[3, 3].real,
        np.trace(rho_t).real, math.exp(log_lambda_sq) * c, c, spec.apply_sigma_z,
    )
    assert f_opt >= on_grid.max() - 1e-12
    # the reported fidelity is the one the protocol reaches at q_opt.  The
    # closed-form q is reached exactly only on the formula path.  The
    # optimum is a ln(1 - q), and a float q near 1 rounds it: a fixed run
    # replays it to 1e-12 only at q = 0 or at a stationary point below
    # 1 - 1e-6, not at the endpoint 1 - q = 1e-9 / lambda^2
    if closed_form or q_opt <= 1.0 - 1e-6:
        at_q_opt = run_protocol(
            replace(spec, q_rule="formula") if closed_form else replace(spec, q_value=q_opt)
        )
        assert abs(at_q_opt.fidelity - f_opt) <= 1e-12


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


# rates log-uniform up to 1e3: independent, equal, or equal but one, which
# is off by 1e-6 to 1 %, where a capped optimum used to collapse
_log_rates = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@st.composite
def _rate_sets(draw):
    s = draw(_log_rates)
    kind = draw(st.sampled_from(["independent", "equal", "near"]))
    if kind == "independent":
        return s, draw(_log_rates), draw(_log_rates)
    rates = [s, s, s]
    if kind == "near":
        sign = draw(st.sampled_from([-1.0, 1.0]))
        rates[draw(st.integers(0, 2))] *= 1.0 + sign * 10.0 ** draw(st.floats(-6.0, -2.0))
    return tuple(rates)


@st.composite
def _decay_specs(draw):
    rates = draw(_rate_sets())
    equal = rates[0] == rates[1] == rates[2]
    return ProtocolSpec(
        qubit=draw(_amplitudes),
        params=SystemParams(1.0, 1.0, *rates),
        p=draw(st.floats(0.0, 0.999)),
        q_rule="fixed",
        q_value=draw(st.floats(0.0, 0.999)),
        transfer_time=draw(st.floats(0.1, 6.0)),
        engine=draw(st.sampled_from(["analytic", "numeric"])) if equal else "numeric",
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec=_decay_specs())
def test_optimum_beats_a_log_grid_and_every_rule(spec):
    optimal = run_protocol(replace(spec, q_rule="optimal"))
    q_opt, f_opt = optimal.q_used, optimal.fidelity
    assert 0.0 <= q_opt <= 1.0 and -1e-12 <= f_opt <= 1.0 + 1e-12
    (rho,), (log_lambda_sq,), _ = _evolved_state(spec, [spec.transfer_time])
    # ln(1 - q) from 0 to 40 past the scale of the frame; w is held finite
    # as in the protocol
    log_c = np.linspace(0.0, -(log_lambda_sq + 40.0), 4001)
    w = np.exp(np.minimum(log_lambda_sq + log_c, protocol_module._LOG_W_MAX))
    on_grid, _ = reversal_outcome(
        spec.qubit, rho[0, 0].real, rho[0, 3], rho[3, 3].real, np.trace(rho).real, w,
        np.exp(log_c),
    )
    assert f_opt >= on_grid.max() - 1e-12
    assert f_opt >= run_protocol(spec).fidelity - 1e-12
    if spec.params.equal_decay_rate() is not None:
        assert f_opt >= run_protocol(replace(spec, q_rule="formula")).fidelity - 1e-12


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    qubit=_amplitudes,
    s=_log_rates,
    p=st.floats(0.0, 0.999),
    which=st.integers(0, 2),
)
def test_optimum_is_continuous_from_equal_rates(qubit, s, p, which):
    # a mismatch of 0.3 % in one rate moves the scaled state by about s t
    # times it, and the optimum no more; at equal rates the engines agree
    t = full_transfer_time(1.0)
    mismatches = np.linspace(0.0, 3e-3, 16)
    optima = []
    for mismatch in mismatches:
        rates = [s, s, s]
        rates[which] *= 1.0 - mismatch
        spec = ProtocolSpec(qubit, SystemParams(1.0, 1.0, *rates), p, "optimal", engine="numeric")
        optima.append(run_protocol(spec).fidelity)
    analytic = run_protocol(ProtocolSpec(qubit, equal_rate_params(s), p, "optimal")).fidelity
    assert abs(optima[0] - analytic) <= 1e-9
    assert np.abs(np.diff(optima)).max() <= s * t * mismatches[1] + 1e-9
