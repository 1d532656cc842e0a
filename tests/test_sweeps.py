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
    fig_decay_spec,
    fig_dephasing_spec,
    fig_time_spec,
    full_transfer_time,
    max_fidelity_over_time,
    run_protocol,
    time_sweep,
)
from qstsim.sweeps import closed_form_outcome

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
    assert fig_time_spec().grid.points == 241
    assert fig_decay_spec().grid.log
    assert fig_dephasing_spec().gamma_phi_over_g == (0.0, 0.01, 0.1, 1.0)


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
    sigma_z=st.booleans(),
    g1=st.floats(0.2, 2.0),
    g2=st.floats(0.2, 2.0),
)
def test_closed_form_outcome_matches_run_protocol(qubit, p, s, t, formula, sigma_z, g1, g2):
    spec = ProtocolSpec(
        qubit=qubit,
        params=SystemParams(g1, g2, s, s, s),
        p=p,
        q_rule="formula" if formula else "fixed",
        q_value=None if formula else 0.0,
        transfer_time=t,
        apply_sigma_z=sigma_z,
    )
    outcome = run_protocol(spec)
    fidelity, success = closed_form_outcome(qubit, p, s, t, formula, sigma_z, g1, g2)
    assert abs(fidelity - outcome.fidelity) <= 1e-12
    assert abs(success - outcome.reversal_success) <= 1e-12


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


def test_decay_sweep_rows_equal_one_row_searches():
    # one batch of (s/g, series) rows gives what each row gives on its own
    spec = small_decay_spec(ratios=(0.3, 3.0, 30.0))
    result = decay_sweep(spec)
    t_max = 4 * full_transfer_time(1.0)
    for i, ratio in enumerate(result.axis_values):
        params = SystemParams(1.0, 1.0, ratio, ratio, ratio)
        for label, p, rule, q_value in (("baseline", 0.0, "fixed", 0.0), ("p=0.4", 0.4, "formula", None)):
            proto = ProtocolSpec(
                qubit=spec.qubit, params=params, p=p, q_rule=rule, q_value=q_value,
                transfer_time=1.0,
            )
            t_star, f_max = max_fidelity_over_time(proto, t_max, spec.coarse_points)
            assert abs(result.fidelity(label)[i] - f_max) <= 1e-12
            outcome = run_protocol(replace(proto, transfer_time=t_star))
            assert abs(result.success(label)[i] - outcome.reversal_success) <= 1e-12


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
