
import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from qstsim import (
    QubitAmplitudes,
    SystemParams,
    analytic_rho,
    apply_measurement_qubit1,
    integrate,
    lindblad,
    physicality_violations,
)

from oracles import lindblad_rhs, liouvillian_by_terms


def basis_projector(i):
    rho = np.zeros((4, 4), dtype=complex)
    rho[i, i] = 1.0
    return rho


def random_hermitian(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return 0.5 * (m + m.conj().T)


def test_ground_state_is_stationary():
    params = SystemParams(1.0, 1.3, kappa=0.5, gamma1=0.2, gamma2=0.7, gamma_phi=0.3)
    drho = lindblad_rhs(params, basis_projector(0))
    np.testing.assert_allclose(drho, 0, atol=1e-15)


def test_photon_decay_channel():
    params = SystemParams(1.0, 1.0, kappa=1.0)
    drho = lindblad_rhs(params, basis_projector(2))
    expected = basis_projector(0) - basis_projector(2)
    # the commutator moves the photon coherently as well; isolate by zeroing g
    # is impossible (g > 0 required), so check the populations only
    np.testing.assert_allclose(np.diag(drho), np.diag(expected), atol=1e-15)


def test_dephasing_rate_on_cross_coherence():
    # each qubit's sigma_z flips the sign of the qubit1-qubit2 coherence once:
    # (rate/2) * (Z rho Z - rho) applied for both qubits gives -2 gamma_phi rho
    params = SystemParams(1.0, 1.0, gamma_phi=0.25)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 3] = 1.0
    hamiltonian_part = lindblad_rhs(SystemParams(1.0, 1.0), rho)
    drho = lindblad_rhs(params, rho)
    np.testing.assert_allclose(drho - hamiltonian_part, -2 * 0.25 * rho, atol=1e-15)


def test_rhs_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(8)
    params = SystemParams(1.0, 0.8, kappa=0.4, gamma1=0.3, gamma2=0.2, gamma_phi=0.1)
    for _ in range(20):
        rho = random_hermitian(rng)
        drho = lindblad_rhs(params, rho)
        assert abs(np.trace(drho)) < 1e-13
        np.testing.assert_allclose(drho, drho.conj().T, atol=1e-13)


def test_closed_system_preserves_purity():
    params = SystemParams(1.0, 1.0)
    pre = apply_measurement_qubit1(QubitAmplitudes(0.6, 0.8), 0.0)
    traj = integrate(params, pre.state, np.linspace(0.5, 20.0, 40))
    for state in traj:
        purity = np.trace(state @ state).real
        assert abs(purity - 1.0) < 1e-8


def test_matches_closed_forms_for_equal_rates():
    params = SystemParams(1.0, 1.0, kappa=0.5, gamma1=0.5, gamma2=0.5)
    pre = apply_measurement_qubit1(QubitAmplitudes(0.6, 0.8), 0.5)
    times = np.linspace(0.0, 10.0, 50)
    traj = integrate(params, pre.state, times)
    worst = max(
        np.max(np.abs(analytic_rho(QubitAmplitudes(0.6, 0.8), 0.5, 0.5, t) - state))
        for t, state in zip(times, traj)
    )
    assert worst < 1e-7


def test_decay_reaches_ground():
    params = SystemParams(1.0, 1.0, kappa=0.5, gamma1=0.5, gamma2=0.5)
    pre = apply_measurement_qubit1(QubitAmplitudes(0.6, 0.8), 0.0)
    traj = integrate(params, pre.state, [1000.0])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(traj[-1], expected, atol=1e-6)


def test_trace_and_positivity_along_trajectory():
    params = SystemParams(1.0, 1.0, kappa=0.7, gamma1=0.1, gamma2=0.4, gamma_phi=0.2)
    pre = apply_measurement_qubit1(QubitAmplitudes(0.6, 0.8), 0.3)
    traj = integrate(params, pre.state, np.linspace(0.25, 12.0, 30))
    for state in traj:
        assert abs(np.trace(state).real - 1.0) < 1e-9
        assert np.array_equal(state, state.conj().T)  # symmetrized exactly
        assert np.linalg.eigvalsh(state)[0] > -1e-8


def test_dephasing_suppresses_ground_qubit2_coherence():
    qubit = QubitAmplitudes(0.6, 0.8)
    pre = apply_measurement_qubit1(qubit, 0.5)
    magnitudes = []
    for gamma_phi in (0.0, 0.01, 0.1, 1.0):
        params = SystemParams(1.0, 1.0, kappa=0.5, gamma1=0.5, gamma2=0.5,
                              gamma_phi=gamma_phi)
        traj = integrate(params, pre.state, [2.0])
        magnitudes.append(abs(traj[-1][0, 3]))
    assert np.all(np.diff(magnitudes) <= 1e-12)


def test_sample_validation():
    params = SystemParams(1.0, 1.0)
    rho0 = basis_projector(0)
    with pytest.raises(ValueError):
        integrate(params, rho0, [])
    with pytest.raises(ValueError):
        integrate(params, rho0, [1.0, 1.0])
    with pytest.raises(ValueError):
        integrate(params, rho0, [-1.0, 2.0])
    with pytest.raises(ValueError):
        integrate(params, rho0, [1.0, np.inf])


_rate = st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(1e-300, 1e-3))
# the 12 propagated entries, rho[1:, 1:] row by row and then rho[0, 1:], in
# the row-major vec of the 4x4 state, and the other 4
_KEPT = [5, 6, 7, 9, 10, 11, 13, 14, 15, 1, 2, 3]
_REST = [0, 4, 8, 12]


def _unshifted(params):
    """decay_frame's 12x12 generator with its shifts added back, and its scale."""
    gen, a_exc, a_coh = lindblad.decay_frame(params)
    unshifted = gen + np.diag(np.repeat([a_exc, a_coh], [9, 3]))
    return unshifted, max(-a_exc, -a_coh, np.abs(unshifted.diagonal()).max())


_params = st.builds(
    lambda g1, g2, rates: SystemParams(g1, g2, *rates[:3], gamma_phi=rates[3]),
    st.floats(0.0, 2.0),
    st.floats(0.2, 2.0),
    st.tuples(_rate, _rate, _rate, _rate),
)


# zero drawn often for each rate, so that channels drop out in every combination
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(params=_params)
def test_liouvillian_equals_the_term_by_term_assembly(params):
    full = liouvillian_by_terms(params)
    assert not full[np.ix_(_KEPT, _REST)].any()  # the 12 entries evolve on their own
    expected = full[np.ix_(_KEPT, _KEPT)]
    unshifted, scale = _unshifted(params)
    off = ~np.eye(12, dtype=bool)
    assert np.array_equal(unshifted[off], expected[off])
    # not bit for bit on the diagonal: it is rounded when the shift is removed
    # and again when it is added back, -2 gamma_phi is one subtraction here
    # and two there, and the oracle sums its channels in another order; a
    # few ulps of the largest term (1.2 seen on 3000 random rate sets)
    scale = max(scale, np.abs(expected.diagonal()).max())
    np.testing.assert_allclose(
        unshifted.diagonal(), expected.diagonal(), rtol=0, atol=4 * np.finfo(float).eps * scale
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(params=_params, seed=st.integers(0, 2**32 - 1))
@example(params=SystemParams(1.0, 0.8, kappa=0.4, gamma1=0.3, gamma2=0.2, gamma_phi=0.1), seed=16)
@example(params=SystemParams(1.0, 1.0), seed=16)
@example(params=SystemParams(0.7, 1.2, kappa=2.0, gamma_phi=5.0), seed=16)
def test_liouvillian_matches_rhs(params, seed):
    # the right-hand side, written with matrix products, on the 12 entries
    unshifted, scale = _unshifted(params)
    rho = random_hermitian(np.random.default_rng(seed))
    drho = lindblad_rhs(params, rho).reshape(-1)[_KEPT]
    np.testing.assert_allclose(unshifted @ rho.reshape(-1)[_KEPT], drho, rtol=0, atol=1e-14 * max(scale, 1.0))


def test_propagation_composes():
    # P(t1 + t2) = P(t2) P(t1): one long step equals two shorter ones
    params = SystemParams(1.0, 0.6, kappa=0.9, gamma1=0.2, gamma2=0.4, gamma_phi=0.3)
    pre = apply_measurement_qubit1(QubitAmplitudes(0.6, 0.8j), 0.4)
    t1, t2 = 0.7, 1.9
    direct = integrate(params, pre.state, [t1 + t2])[-1]
    middle = integrate(params, pre.state, [t1])[-1]
    composed = integrate(params, middle, [t2])[-1]
    np.testing.assert_allclose(direct, composed, atol=1e-13)


def test_zero_time_sample_is_the_initial_state():
    params = SystemParams(1.0, 1.0, kappa=0.5, gamma1=0.5, gamma2=0.5)
    pre = apply_measurement_qubit1(QubitAmplitudes(0.6, 0.8), 0.5)
    traj = integrate(params, pre.state, [0.0, 1.0])
    np.testing.assert_array_equal(traj[0], 0.5 * (pre.state + pre.state.conj().T))


def test_stiff_dephasing_stays_physical():
    params = SystemParams(1.0, 1.0, kappa=2.0, gamma1=2.0, gamma2=2.0, gamma_phi=1e6)
    pre = apply_measurement_qubit1(QubitAmplitudes(0.6, 0.8), 0.8)
    traj = integrate(params, pre.state, np.linspace(0.0, 6.0, 241))
    for state in traj:
        assert physicality_violations(state) == []


def test_uniform_grid_reuses_propagators(monkeypatch):
    # one stacked evaluation, one propagator per distinct float gap
    stacks = []
    real_expm_stack = lindblad.expm_stack

    def counting_expm_stack(a):
        stacks.append(a)
        return real_expm_stack(a)

    monkeypatch.setattr(lindblad, "expm_stack", counting_expm_stack)
    params = SystemParams(1.0, 1.0, kappa=2.0, gamma1=2.0, gamma2=2.0, gamma_phi=0.1)
    times = np.linspace(0.0, 6.0, 241)
    integrate(params, basis_projector(1), times)
    assert len(stacks) == 1
    assert 0 < len(stacks[0]) == len(set(np.diff(times).tolist())) <= 10


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    g1=st.floats(0.2, 2.0),
    g2=st.floats(0.2, 2.0),
    rates=st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3), st.floats(0.0, 1e3)),
    gamma_phi=st.floats(0.0, 1e6),
    gaps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=4),
)
def test_expm_stack_matches_scipy(g1, g2, rates, gamma_phi, gaps):
    gen = liouvillian_by_terms(SystemParams(g1, g2, *rates, gamma_phi=gamma_phi))[1:, 1:]
    stack = gen * np.array(gaps)[:, None, None]
    for a, x in zip(stack, lindblad.expm_stack(stack)):
        # each of the log2(norm / theta_13) squarings doubles the rounding
        # error, in both codes, so above 4e5 the bound grows with the norm
        norm = np.abs(a).sum(axis=0).max()
        bound = 1e-12 if norm <= 1e4 else max(1e-10, 2.5e-16 * norm)
        np.testing.assert_allclose(x, expm(a), rtol=0, atol=bound)


@pytest.mark.parametrize(
    "decay, gap, atol",
    [
        (2.0, 0.1, 1e-11),  # about 15 squarings
        # about 22 squarings of a nearly conserved population block: each
        # doubles the rounding error, and scipy is as far from the truth
        (1e-3, 10.0, 1e-9),
    ],
)
def test_expm_stack_near_a_high_precision_reference(decay, gap, atol):
    mpmath = pytest.importorskip("mpmath")
    params = SystemParams(1.0, 1.0, decay, decay, decay, gamma_phi=1e6)
    a = gap * liouvillian_by_terms(params)[1:, 1:]
    with mpmath.workdps(60):
        exact = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=complex)
    np.testing.assert_allclose(lindblad.expm_stack(a[None])[0], exact, rtol=0, atol=atol)
    np.testing.assert_allclose(expm(a), exact, rtol=0, atol=atol)


def test_expm_stack_rows_equal_single_evaluations():
    # every row keeps its own scaling, from none (gap 0) to many squarings
    gen = liouvillian_by_terms(SystemParams(1.0, 0.7, 0.3, 0.2, 0.5, gamma_phi=1e3))[1:, 1:]
    stack = gen * np.concatenate([[0.0], np.logspace(-3, 1, 9)])[:, None, None]
    out = lindblad.expm_stack(stack)
    np.testing.assert_allclose(out[0], np.eye(15), rtol=0, atol=1e-15)
    for a, x in zip(stack, out):
        np.testing.assert_array_equal(x, lindblad.expm_stack(a[None])[0])


def test_expm_stack_of_an_empty_stack_is_empty():
    assert lindblad.expm_stack(np.zeros((0, 15, 15), dtype=complex)).shape == (0, 15, 15)


def test_non_finite_state_raises():
    rho0 = basis_projector(1)
    rho0[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        integrate(SystemParams(1.0, 1.0, kappa=0.5), rho0, [1.0])


@pytest.mark.parametrize("gt", [1e2, 1e4, 1e6, 6e6, 1e8, 1e12])
def test_long_times_stay_within_the_rounding_bound_or_are_refused(gt):
    # the frame generator's 1-norm is 4 at equal rates, so eps 2^s passes
    # 1e-9 at s = 23 squarings, from g t = 2^22 theta_13 / 4 ~ 5.6e6 on;
    # near there eps g t is 1e-9 too, and both engines are about that far
    # from the 50-digit closed form
    params, qubit, p = SystemParams(1.0, 1.0, 0.5, 0.5, 0.5), QubitAmplitudes(0.6, 0.8j), 0.3
    rho0 = apply_measurement_qubit1(qubit, p).state
    if gt > 5.6e6:
        with pytest.raises(FloatingPointError, match="squarings of the propagators"):
            integrate(params, rho0, [gt], scaled=True)
        return
    expected = analytic_rho(qubit, p, 0.5, gt, scaled=True)
    np.testing.assert_allclose(integrate(params, rho0, [gt], scaled=True)[0], expected, rtol=0, atol=1e-9)


_amplitudes = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2 * math.pi)).map(
    lambda ap: QubitAmplitudes(ap[0], math.sqrt(1.0 - ap[0] ** 2) * cmath.exp(1j * ap[1]))
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    qubit=_amplitudes,
    p=st.floats(0.0, 0.99),
    s=st.floats(0.0, 1e3),
    t=st.floats(0.0, 6.0),
    g1=st.floats(0.2, 2.0),
    g2=st.floats(0.2, 2.0),
)
def test_scaled_state_matches_the_closed_form(qubit, p, s, t, g1, g2):
    # the qubit-2 row and column carry e^{st/2}: finite where e^{-st} underflows
    pre = apply_measurement_qubit1(qubit, p)
    numeric = integrate(SystemParams(g1, g2, s, s, s), pre.state, [t], scaled=True)[-1]
    expected = analytic_rho(qubit, p, s, t, g1, g2, scaled=True)
    np.testing.assert_allclose(numeric, expected, rtol=0, atol=1e-12)



@pytest.mark.parametrize(
    "rates, gamma_phi, t",
    [
        ((300.0, 300.0, 299.0), 0.0, 2.2214414690791831),
        ((40.0, 40.0, 39.9), 0.5, 2.2214414690791831),
        ((1000.0, 3.0, 0.5), 0.0, 0.7),
        ((1e-3, 1000.0, 700.0), 1e3, 2.0),
    ],
)
def test_scaled_state_near_a_high_precision_reference(rates, gamma_phi, t):
    # unequal rates up to 1e3, where the true excited entries are near
    # e^{-2000}: the scaled state against 60-digit exp(L t), times lambda
    # on the qubit-2 row and column
    mpmath = pytest.importorskip("mpmath")
    params = SystemParams(1.0, 1.0, *rates, gamma_phi=gamma_phi)
    rho0 = apply_measurement_qubit1(QubitAmplitudes(0.6, 0.8j), 0.3).state
    scaled = integrate(params, rho0, [t], scaled=True)[0]
    a_exc = lindblad.decay_frame(params)[1]
    assert a_exc <= 0.0
    with mpmath.workdps(60):
        vec = mpmath.expm(mpmath.matrix((liouvillian_by_terms(params) * t).tolist())) * mpmath.matrix(
            rho0.reshape(-1).tolist()
        )
        lam = mpmath.exp(-mpmath.mpf(a_exc) * t / 2)
        exact = np.array(
            [[complex(vec[4 * i + j] * lam ** ((i == 3) + (j == 3))) for j in range(4)] for i in range(4)]
        )
    assert np.abs(scaled).max() <= 1.0 + 1e-12
    np.testing.assert_allclose(scaled, exact, rtol=0, atol=1e-12)


def test_frame_removes_the_equal_rates_exactly_enough():
    # kappa = gamma1 = gamma2 = s: the shifts are s and s/2 up to rounding
    for s in (0.0, 0.5, 130.0, 1000.0):
        _, a_exc, a_coh = lindblad.decay_frame(SystemParams(1.0, 1.0, s, s, s))
        assert abs(a_exc + s) <= 1e-15 * max(s, 1.0) and abs(a_coh + 0.5 * s) <= 1e-15 * max(s, 1.0)
