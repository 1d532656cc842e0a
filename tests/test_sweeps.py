import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qstsim import (
    AxisGrid,
    ProtocolSpec,
    QubitAmplitudes,
    SweepSpec,
    SystemParams,
    decay_sweep,
    dephasing_sweep,
    full_transfer_time,
    run_protocol,
    time_sweep,
)
from qstsim import sweeps
from qstsim.cli import parse_config
from qstsim.optimize import grid_then_root_max_rows
from qstsim.sweeps import _series_labels, closed_form_outcome

from oracles import max_fidelity_over_time

BALANCED = QubitAmplitudes(1 / math.sqrt(2), 1 / math.sqrt(2))


def small_time_spec(points=41, p_values=(0.0, 0.4, 0.8)):
    return SweepSpec(
        kind="time",
        grid=AxisGrid(0.0, 6.0, points),
        qubit=BALANCED,
        s_over_g=2.0,
        p_values=p_values,
    )


def test_axis_grid():
    np.testing.assert_allclose(AxisGrid(0, 1, 3).values(), [0, 0.5, 1])
    log_values = AxisGrid(0.1, 10, 3, log=True).values()
    np.testing.assert_allclose(log_values, [0.1, 1.0, 10.0], rtol=1e-12)
    with pytest.raises(ValueError):
        AxisGrid(0, 1, 1)
    with pytest.raises(ValueError):
        AxisGrid(1, 0, 5)
    with pytest.raises(ValueError):
        AxisGrid(0, 1, 5, log=True)


def test_time_sweep_series_and_labels():
    result = time_sweep(small_time_spec())
    assert list(result.series) == ["baseline", "p=0", "p=0.4", "p=0.8"]
    assert all(rows.shape == (41, 2) for rows in result.series.values())


def test_time_sweep_start_values():
    """At t -> 0 the reversal strength equals p and the fidelity reduces to
    alpha^4 / N1^2 (overlap of the post-measurement state with the target)."""
    result = time_sweep(small_time_spec())
    np.testing.assert_allclose(result.fidelity("p=0")[0], 0.25, atol=1e-12)
    np.testing.assert_allclose(result.fidelity("p=0.4")[0], 0.25 / 0.8, atol=1e-12)
    np.testing.assert_allclose(result.fidelity("p=0.8")[0], 0.25 / 0.6, atol=1e-12)


def test_time_sweep_measurement_ordering():
    result = time_sweep(small_time_spec())
    gts = result.axis_values
    window = (gts >= 1.0) & (gts <= 6.0)
    assert np.all(result.fidelity("p=0.8")[window] > result.fidelity("p=0")[window])
    assert np.all(result.success("p=0.8") < result.success("p=0.4"))


def test_time_sweep_values_in_range():
    result = time_sweep(small_time_spec())
    for rows in result.series.values():
        assert np.all(rows >= -1e-12)
        assert np.all(rows <= 1 + 1e-12)


def test_max_fidelity_over_time_lossless():
    spec = ProtocolSpec(
        qubit=BALANCED, params=SystemParams(1.0, 1.0), p=0.0, q_rule="fixed",
        q_value=0.0, transfer_time=1.0,
    )
    t_star, f_max = max_fidelity_over_time(spec, 4 * full_transfer_time(1.0))
    assert abs(t_star - full_transfer_time(1.0)) < 1e-4
    assert abs(f_max - 1.0) < 1e-9


def test_max_fidelity_refinement_dominates_grid():
    spec = ProtocolSpec(
        qubit=QubitAmplitudes(0.6, 0.8),
        params=SystemParams(1.0, 1.0, 0.8, 0.8, 0.8),
        p=0.4,
        transfer_time=1.0,
    )
    t_max = 4 * full_transfer_time(1.0)
    times = np.linspace(0.0, t_max, 121)[1:]
    grid_best = max(
        run_protocol(replace(spec, transfer_time=float(t))).fidelity for t in times
    )
    _, f_max = max_fidelity_over_time(spec, t_max, coarse_points=120)
    assert f_max >= grid_best


def test_max_fidelity_over_time_runs_any_engine():
    # the numeric engine has no array path and is maximized point by point
    spec = ProtocolSpec(
        qubit=QubitAmplitudes(0.6, 0.8),
        params=SystemParams(1.0, 1.0, 0.8, 0.8, 0.8),
        p=0.4,
        transfer_time=1.0,
    )
    t_max = 4 * full_transfer_time(1.0)
    _, f_analytic = max_fidelity_over_time(spec, t_max, coarse_points=100)
    _, f_numeric = max_fidelity_over_time(replace(spec, engine="numeric"), t_max, coarse_points=100)
    assert abs(f_numeric - f_analytic) < 1e-7


def test_measured_beats_plain_under_decay():
    params = SystemParams(1.0, 1.0, 1.5, 1.5, 1.5)
    t_max = 4 * full_transfer_time(1.0)
    plain = ProtocolSpec(qubit=BALANCED, params=params, p=0.0, transfer_time=1.0)
    measured = ProtocolSpec(qubit=BALANCED, params=params, p=0.8, transfer_time=1.0)
    _, f_plain = max_fidelity_over_time(plain, t_max)
    _, f_measured = max_fidelity_over_time(measured, t_max)
    assert f_measured > f_plain


def small_decay_spec(ratios=(0.5, 2.0, 20.0)):
    return SweepSpec(
        kind="decay",
        grid=AxisGrid(min(ratios), max(ratios), len(ratios), log=True),
        qubit=QubitAmplitudes(0.6, 0.8),
        p_values=(0.0, 0.4, 0.8),
        coarse_points=100,
    )


def test_decay_sweep_weak_decay_limit():
    spec = SweepSpec(
        kind="decay",
        grid=AxisGrid(1e-3, 2e-3, 2),
        qubit=QubitAmplitudes(0.6, 0.8),
        p_values=(0.0, 0.8),
        coarse_points=100,
    )
    result = decay_sweep(spec)
    for label in result.series:
        assert result.fidelity(label)[0] > 0.999


def test_decay_sweep_complete_decoherence_plateau():
    result = decay_sweep(small_decay_spec())
    baseline_at_20 = result.fidelity("baseline")[-1]
    assert 0.34 <= baseline_at_20 <= 0.38


def test_decay_sweep_ordering():
    result = decay_sweep(small_decay_spec())
    f_base = result.fidelity("baseline")
    f0, f4, f8 = (result.fidelity(f"p={p:g}") for p in (0.0, 0.4, 0.8))
    strong = result.axis_values >= 1.0
    assert np.all(f8[strong] >= f4[strong])
    assert np.all(f4[strong] >= f0[strong])
    assert np.all(f0[strong] >= f_base[strong] - 1e-9)


def small_dephasing_spec(points=61):
    return SweepSpec(
        kind="dephasing",
        grid=AxisGrid(0.0, 6.0, points),
        qubit=BALANCED,
        s_over_g=2.0,
        p=0.8,
        gamma_phi_over_g=(0.0, 0.01, 0.1, 1.0),
        include_baseline=False,
    )


def test_dephasing_matches_analytic_when_off():
    dep = dephasing_sweep(small_dephasing_spec())
    ref = time_sweep(small_time_spec(points=61, p_values=(0.8,)))
    diff = np.max(np.abs(dep.fidelity("gphi=0g") - ref.fidelity("p=0.8")))
    assert diff < 1e-6


def test_dephasing_ordering_through_first_transfer():
    # the monotone top-to-bottom ordering holds through the first transfer
    # cycle; deep in the revival dip strong dephasing flattens the
    # oscillation and the two strongest-rate curves cross
    dep = dephasing_sweep(small_dephasing_spec())
    gts = dep.axis_values
    window = (gts >= 0.5) & (gts <= 4.0)
    labels = list(dep.series)
    assert labels == ["gphi=0g", "gphi=0.01g", "gphi=0.1g", "gphi=1g"]
    for upper, lower in zip(labels, labels[1:]):
        assert np.all(dep.fidelity(upper)[window] > dep.fidelity(lower)[window])


@pytest.mark.parametrize("s_over_g", [2.0, 10.0])
def test_dephasing_sweep_matches_run_protocol_per_point(s_over_g):
    # at s/g = 10 the closed-form q is 1 to within 2^-53 past g*t ~ 3.7, so
    # only a complement computed directly keeps the reversal defined
    spec = replace(small_dephasing_spec(points=13), s_over_g=s_over_g)
    result = dephasing_sweep(spec)
    for gamma_ratio in spec.gamma_phi_over_g:
        params = SystemParams(1.0, 1.0, s_over_g, s_over_g, s_over_g, gamma_phi=gamma_ratio)
        label = f"gphi={gamma_ratio:g}g"
        for i, t in enumerate(result.axis_values):
            outcome = run_protocol(ProtocolSpec(
                qubit=spec.qubit, params=params, p=spec.p, q_rule="formula",
                transfer_time=float(t), engine="numeric",
            ))
            assert abs(result.fidelity(label)[i] - outcome.fidelity) <= 1e-9
            assert abs(result.success(label)[i] - outcome.reversal_success) <= 1e-9


def test_dephasing_series_coincide_at_zero_time():
    dep = dephasing_sweep(small_dephasing_spec(points=13))
    start_values = [dep.fidelity(label)[0] for label in dep.series]
    assert max(start_values) - min(start_values) < 1e-9


def test_sweep_determinism():
    spec = small_time_spec(points=21)
    first = time_sweep(spec)
    second = time_sweep(spec)
    assert np.array_equal(first.axis_values, second.axis_values)
    for label in first.series:
        assert np.array_equal(first.series[label], second.series[label])


def test_decay_sweep_grid_independence():
    base = SweepSpec(
        kind="decay",
        grid=AxisGrid(1.0, 4.0, 3, log=True),
        qubit=QubitAmplitudes(0.6, 0.8),
        p_values=(0.8,),
        include_baseline=False,
        coarse_points=120,
    )
    doubled = SweepSpec(
        kind="decay",
        grid=base.grid,
        qubit=base.qubit,
        p_values=(0.8,),
        include_baseline=False,
        coarse_points=240,
    )
    f1 = decay_sweep(base).fidelity("p=0.8")
    f2 = decay_sweep(doubled).fidelity("p=0.8")
    assert np.max(np.abs(f1 - f2)) < 1e-4


def test_preset_specs():
    # the default fig2/fig3/fig4 commands build the paper's presets
    assert parse_config(["fig2"]).spec.grid == AxisGrid(0.0, 6.0, 241)
    assert parse_config(["fig3"]).spec.grid == AxisGrid(0.1, 20.0, 60, log=True)
    assert parse_config(["fig3"]).spec.qubit == QubitAmplitudes(0.6, 0.8)
    fig4 = parse_config(["fig4"]).spec
    assert (fig4.p, fig4.gamma_phi_over_g, fig4.include_baseline) == (0.8, (0.0, 0.01, 0.1, 1.0), False)


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        time_sweep(small_decay_spec())
    with pytest.raises(ValueError):
        decay_sweep(small_time_spec())
    with pytest.raises(ValueError):
        dephasing_sweep(small_time_spec())


_amplitudes = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)).map(
    lambda ap: QubitAmplitudes(ap[0], math.sqrt(1.0 - ap[0] ** 2) * cmath.exp(1j * ap[1]))
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    qubit=_amplitudes,
    p=st.floats(0.0, 0.99),
    s=st.floats(0.0, 50.0),
    t=st.floats(0.0, 10.0),
    formula=st.booleans(),
)
def test_closed_form_outcome_matches_run_protocol(qubit, p, s, t, formula):
    spec = ProtocolSpec(
        qubit=qubit,
        params=SystemParams(1.0, 1.0, s, s, s),
        p=p,
        q_rule="formula" if formula else "fixed",
        q_value=None if formula else 0.0,
        transfer_time=t,
    )
    outcome = run_protocol(spec)
    fidelity, success, slope = closed_form_outcome(qubit, p, s, t, formula, slope=True)
    assert abs(fidelity - outcome.fidelity) <= 1e-12
    assert abs(success - outcome.reversal_success) <= 1e-12
    # the slope against a central difference of run_protocol's fidelity,
    # whose error h^2 F''' / 6 grows as s^3
    h = 1e-6
    if t >= h:
        ahead, behind = (run_protocol(replace(spec, transfer_time=t + d)).fidelity for d in (h, -h))
        assert abs(slope - (ahead - behind) / (2 * h)) <= 1e-8 + 1e-12 * s**3


def test_time_sweep_matches_run_protocol_per_point():
    spec = small_time_spec(points=17, p_values=(0.0, 0.7))
    result = time_sweep(spec)
    params = SystemParams(1.0, 1.0, 2.0, 2.0, 2.0)
    for label, p, rule, q_value in (("baseline", 0.0, "fixed", 0.0), ("p=0.7", 0.7, "formula", None)):
        for i, t in enumerate(result.axis_values):
            outcome = run_protocol(ProtocolSpec(
                qubit=BALANCED, params=params, p=p, q_rule=rule, q_value=q_value,
                transfer_time=float(t),
            ))
            assert abs(result.fidelity(label)[i] - outcome.fidelity) <= 1e-12
            assert abs(result.success(label)[i] - outcome.reversal_success) <= 1e-12


def best_times(spec: SweepSpec, monkeypatch) -> tuple:
    """decay_sweep(spec) and the best time t* of each of its rows, ordered
    (s/g, series), read off the search it runs."""
    found = []

    def recording(*args, **kwargs):
        found.append(grid_then_root_max_rows(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(sweeps, "grid_then_root_max_rows", recording)
    result = decay_sweep(spec)
    (t_star, _), = found
    return result, t_star.reshape(len(result.axis_values), len(result.series))


def test_decay_sweep_rows_equal_one_row_searches(monkeypatch):
    # one batch of (s/g, series) rows gives what each row gives on its own:
    # the best fidelity of a search on the fidelity alone, and at the
    # batch's own t* the success of run_protocol
    spec = small_decay_spec(ratios=(0.3, 3.0, 30.0))
    result, t_star = best_times(spec, monkeypatch)
    t_max = 4 * full_transfer_time(1.0)
    for i, ratio in enumerate(result.axis_values):
        params = SystemParams(1.0, 1.0, ratio, ratio, ratio)
        for label, p, rule, q_value in (("baseline", 0.0, "fixed", 0.0), ("p=0.4", 0.4, "formula", None)):
            proto = ProtocolSpec(
                qubit=spec.qubit, params=params, p=p, q_rule=rule, q_value=q_value,
                transfer_time=1.0,
            )
            _, f_max = max_fidelity_over_time(proto, t_max, spec.coarse_points)
            assert abs(result.fidelity(label)[i] - f_max) <= 1e-12
            j = list(result.series).index(label)
            outcome = run_protocol(replace(proto, transfer_time=float(t_star[i, j])))
            assert abs(result.fidelity(label)[i] - outcome.fidelity) <= 1e-12
            assert abs(result.success(label)[i] - outcome.reversal_success) <= 1e-12


def _mp_outcome(mpmath, qubit: QubitAmplitudes, p, s, formula):
    """Fidelity and reversal success against t, in mpmath, from the kept
    Kraus branch of the closed-form state: the no-jump amplitudes (c2, c3,
    c4) e^{-st/2} of the excitation, the ground population making up the
    trace, then the reversal with 1 - q = (1 - p) e^{-st} (or 1) and the
    sigma_z on qubit 2."""
    alpha, beta, p, s = mpmath.mpf(qubit.alpha), mpmath.mpc(qubit.beta), mpmath.mpf(p), mpmath.mpf(s)
    n1 = mpmath.sqrt(alpha**2 + abs(beta) ** 2 * (1 - p))

    def at(t):
        rt = mpmath.sqrt(2) * t
        amplitudes = ((mpmath.cos(rt) + 1) / 2, -1j * mpmath.sin(rt) / mpmath.sqrt(2), (mpmath.cos(rt) - 1) / 2)
        psi = [alpha / n1] + [beta * mpmath.sqrt(1 - p) / n1 * a * mpmath.exp(-s * t / 2) for a in amplitudes]
        ground = 1 - mpmath.fsum(abs(x) ** 2 for x in psi)
        c = (1 - p) * mpmath.exp(-s * t) if formula else mpmath.mpf(1)
        kept = [mpmath.sqrt(c) * x for x in psi[:3]] + [-psi[3]]
        success = mpmath.fsum(abs(x) ** 2 for x in kept) + c * ground
        overlap = abs(alpha * kept[0] + mpmath.conj(beta) * kept[3]) ** 2 + alpha**2 * c * ground
        return overlap / success, success

    return at


def test_decay_sweep_is_exact_at_the_root_of_the_slope(monkeypatch):
    """Every row of the default fig3 against 50-digit mpmath at the root of
    dF/dt next to the sweep's t*: the success within 1e-12 relative, the
    fidelity within 1e-14."""
    mpmath = pytest.importorskip("mpmath")
    spec = parse_config(["fig3"]).spec
    result, t_star = best_times(spec, monkeypatch)
    with mpmath.workdps(50):
        for i, ratio in enumerate(result.axis_values):
            for j, (label, p, formula) in enumerate(_series_labels(spec)):
                at = _mp_outcome(mpmath, spec.qubit, p, ratio, formula)
                root = mpmath.findroot(lambda t: mpmath.diff(lambda u: at(u)[0], t), mpmath.mpf(t_star[i, j]))
                fidelity, success = at(root)
                assert abs(result.fidelity(label)[i] - fidelity) <= 1e-14
                assert abs(result.success(label)[i] - success) <= 1e-12 * success


def test_plateau_holds_past_exp_underflow():
    """Under the closed-form rule the best fidelity levels off once decay is
    complete, and stays there where e^{-st} underflows (s t > 745)."""

    def measured(lo, hi):
        spec = SweepSpec(
            kind="decay", grid=AxisGrid(lo, hi, 2), qubit=QubitAmplitudes(0.6, 0.8),
            p_values=(0.0, 0.8), coarse_points=100,
        )
        result = decay_sweep(spec)
        for label in result.series:
            assert np.all(np.isfinite(result.series[label]))
        return result, np.array([result.fidelity(label) for label in ("p=0", "p=0.8")])

    low, at_30_100 = measured(30.0, 100.0)
    high, at_100_1000 = measured(100.0, 1000.0)
    np.testing.assert_allclose(at_30_100[:, 1], at_30_100[:, 0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(at_100_1000[:, 1], at_30_100[:, 0], rtol=0, atol=1e-9)
    # only the success probability pays for the decay
    assert 0.0 <= high.success("p=0.8")[1] < 1e-300


def test_best_time_found_where_the_slope_underflows_on_the_grid():
    """At s/g = 2e4 the baseline's peak, 2e-13 above the plateau alpha^2,
    lies before the first scan point, where e^{-st/2} and with it the slope
    have underflowed to 0: the search goes on into that first cell."""
    spec = SweepSpec(kind="decay", grid=AxisGrid(2e4, 4e4, 2), qubit=QubitAmplitudes(0.6, 0.8), p_values=())
    assert decay_sweep(spec).fidelity("baseline")[0] > 0.36 + 1e-13


def test_non_finite_closed_form_value_raises():
    with pytest.raises(FloatingPointError):
        closed_form_outcome(BALANCED, 0.5, math.nan, np.linspace(0.0, 1.0, 5), True)


def test_negative_axis_start_rejected():
    # a time axis and the decay-ratio axis both start at 0 or later
    for kind in ("time", "decay", "dephasing"):
        with pytest.raises(ValueError, match="grid-start"):
            SweepSpec(kind=kind, grid=AxisGrid(-1.0, 6.0, 5), qubit=BALANCED)


def test_every_p_value_checked():
    for p_values in ((0.2, 1.0), (-0.1,), (math.nan,)):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            SweepSpec(kind="time", grid=AxisGrid(0.0, 6.0, 5), qubit=BALANCED, p_values=p_values)
