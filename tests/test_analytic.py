import math

import numpy as np
import pytest

from qstsim import (
    ProtocolSpec,
    QubitAmplitudes,
    SystemParams,
    analytic_rho,
    physicality_violations,
    transfer_amplitudes,
)

from oracles import nojump_amplitudes

QUBIT = QubitAmplitudes(0.6, 0.8)


def random_inputs(rng):
    """(qubit, p, s, g1, g2), the arguments of analytic_rho but t."""
    alpha = rng.uniform(0.05, 0.95)
    phase = rng.uniform(0, 2 * math.pi)
    beta = math.sqrt(1 - alpha**2) * np.exp(1j * phase)
    return (
        QubitAmplitudes(alpha, beta),
        rng.uniform(0, 0.95),
        rng.uniform(0, 2.0),
        rng.uniform(0.2, 2.0),
        rng.uniform(0.2, 2.0),
    )


def post_measurement(qubit, p):
    """(a, b, c): ground and excited populations and their coherence after
    the pre-measurement."""
    n1_sq = qubit.alpha**2 + abs(qubit.beta) ** 2 * (1 - p)
    return (
        qubit.alpha**2 / n1_sq,
        abs(qubit.beta) ** 2 * (1 - p) / n1_sq,
        qubit.alpha * np.conj(qubit.beta) * math.sqrt(1 - p) / n1_sq,
    )


def nojump_rho(inputs, t):
    """Independent assembly: outer product of the no-jump branch plus the
    jump deficit parked on the ground population."""
    psi = nojump_amplitudes(*inputs[:3], t, *inputs[3:])
    rho = np.outer(psi, psi.conj())
    rho[0, 0] += 1.0 - np.vdot(psi, psi).real
    return rho


def test_initial_state_matches_post_measurement_form():
    rho = analytic_rho(QUBIT, 0.5, 0.7, 0.0, 1.0, 1.3)
    a, b, c = post_measurement(QUBIT, 0.5)
    np.testing.assert_allclose(rho[0, 0], a, atol=1e-15)
    np.testing.assert_allclose(rho[1, 1], b, atol=1e-15)
    np.testing.assert_allclose(rho[0, 1], c, atol=1e-15)
    # nothing has reached the resonator or qubit 2 yet
    assert np.all(rho[2:, :] == 0) and np.all(rho[:, 2:] == 0)


def test_full_transfer_point():
    # lossless, balanced couplings: at rt = pi the excitation sits on qubit 2
    # with amplitude -1 (c2 = c3 = 0, c4 = -1)
    inv = 1 / math.sqrt(2)
    t = math.pi / math.sqrt(2)
    rho = analytic_rho(QubitAmplitudes(inv, inv), 0.0, 0.0, t)
    np.testing.assert_allclose(rho[3, 3], 0.5, atol=1e-12)
    np.testing.assert_allclose(rho[1, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(rho[2, 2], 0.0, atol=1e-12)
    np.testing.assert_allclose(rho[0, 3], -0.5, atol=1e-12)


def test_transfer_amplitudes_at_pi():
    c2, ic3, c4 = transfer_amplitudes(1.0, 1.0, math.pi / math.sqrt(2))
    np.testing.assert_allclose([c2, ic3, c4], [0.0, 0.0, -1.0], atol=1e-12)


def test_trace_is_one():
    rng = np.random.default_rng(42)
    for _ in range(30):
        qubit, p, s, g1, g2 = random_inputs(rng)
        t = rng.uniform(0, 15)
        assert abs(np.trace(analytic_rho(qubit, p, s, t, g1, g2)) - 1.0) < 1e-12


def test_printed_entry_forms():
    """The expanded per-entry expressions (half-angle brackets in the excited
    sector) must agree with the amplitude-product assembly entrywise."""
    rng = np.random.default_rng(3)
    for _ in range(25):
        qubit, p, s, g1, g2 = random_inputs(rng)
        t = rng.uniform(0, 12)
        a, b, c = post_measurement(qubit, p)
        r = math.hypot(g1, g2)
        rt = r * t
        e = math.exp(-s * t)
        eh = math.exp(-s * t / 2)
        expected = np.empty((4, 4), dtype=complex)
        expected[0, 0] = 1 + (a - 1) * e
        expected[0, 1] = c / r**2 * (g1**2 * math.cos(rt) + g2**2) * eh
        expected[0, 2] = 1j * c * g1 / r * math.sin(rt) * eh
        expected[0, 3] = c * g1 * g2 / r**2 * (math.cos(rt) - 1) * eh
        expected[1, 1] = (
            b / (2 * r**4)
            * (g1**4 + 2 * g2**4 + g1**4 * math.cos(2 * rt) + 4 * g1**2 * g2**2 * math.cos(rt))
            * e
        )
        expected[1, 2] = (
            1j * b * g1 / (2 * r**3)
            * (g1**2 * math.sin(2 * rt) + 2 * g2**2 * math.sin(rt))
            * e
        )
        expected[1, 3] = (
            b * g1 * g2 / (2 * r**4)
            * (g1**2 - 2 * g2**2 + 2 * (g2**2 - g1**2) * math.cos(rt) + g1**2 * math.cos(2 * rt))
            * e
        )
        expected[2, 2] = b * g1**2 / (2 * r**2) * (1 - math.cos(2 * rt)) * e
        expected[2, 3] = (
            1j * b * g1**2 * g2 / (2 * r**3) * (2 * math.sin(rt) - math.sin(2 * rt)) * e
        )
        expected[3, 3] = (
            b * g1**2 * g2**2 / (2 * r**4) * (math.cos(2 * rt) - 4 * math.cos(rt) + 3) * e
        )
        for i in range(4):
            for j in range(i):
                expected[i, j] = np.conj(expected[j, i])
        np.testing.assert_allclose(analytic_rho(qubit, p, s, t, g1, g2), expected, atol=1e-13)


def test_nojump_initial_amplitudes():
    psi = nojump_amplitudes(QUBIT, 0.36, 1.1, 0.0, 0.9, 1.4)
    n1 = math.sqrt(0.6**2 + 0.8**2 * (1 - 0.36))
    np.testing.assert_allclose(psi[0], 0.6 / n1, atol=1e-14)
    np.testing.assert_allclose(psi[1], 0.8 * math.sqrt(1 - 0.36) / n1, atol=1e-14)
    np.testing.assert_allclose(psi[2:], 0, atol=1e-14)


def test_nojump_unit_norm_without_decay():
    rng = np.random.default_rng(11)
    for _ in range(10):
        t = rng.uniform(0, 20)
        psi = nojump_amplitudes(QUBIT, 0.2, 0.0, t, 1.0, 0.7)
        np.testing.assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-12)


def test_nojump_transfer_point_empties_qubit1_and_photon():
    psi = nojump_amplitudes(QUBIT, 0.3, 0.8, math.pi / math.sqrt(2))
    np.testing.assert_allclose(psi[1], 0.0, atol=1e-12)
    np.testing.assert_allclose(psi[2], 0.0, atol=1e-12)


def test_closed_forms_match_nojump_assembly():
    """Oracle equivalence: the entrywise closed forms against the matrix
    exponential of the effective generator, 100 random parameter tuples."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        inputs = random_inputs(rng)
        t = rng.uniform(0, 10)
        np.testing.assert_allclose(
            analytic_rho(*inputs[:3], t, *inputs[3:]), nojump_rho(inputs, t), atol=1e-10
        )


def test_states_stay_physical():
    rng = np.random.default_rng(5)
    for _ in range(40):
        qubit, p, s, g1, g2 = random_inputs(rng)
        rho = analytic_rho(qubit, p, s, rng.uniform(0, 10), g1, g2)
        assert physicality_violations(rho) == []


def test_ground_recovery_is_stroboscopically_monotone():
    period = 2 * math.pi / math.sqrt(2)
    populations = [analytic_rho(QUBIT, 0.1, 0.4, k * period)[0, 0].real for k in range(8)]
    assert np.all(np.diff(populations) >= 0)


def test_long_time_limit_is_ground():
    rho = analytic_rho(QUBIT, 0.4, 1.0, 50.0)  # s*t = 50
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho, expected, atol=1e-9)


def test_input_validation():
    # the amplitudes and the couplings are checked where they are built
    with pytest.raises(ValueError):
        QubitAmplitudes(0.7, 0.8)
    with pytest.raises(ValueError):
        ProtocolSpec(qubit=QUBIT, params=SystemParams(1.0, 1.0), p=1.0)
    with pytest.raises(ValueError):
        SystemParams(1.0, 1.0, kappa=-0.1, gamma1=-0.1, gamma2=-0.1)
    with pytest.raises(ValueError):
        analytic_rho(QUBIT, 0.1, 0.1, -1.0)
    for p, s, t in ((0.1, 0.1, [0.0, math.nan]), (0.1, -0.1, 1.0), (1.0, 0.1, 1.0), (math.nan, 0.1, 1.0)):
        with pytest.raises(ValueError):
            analytic_rho(QUBIT, p, s, np.array(t))


def test_degenerate_beta_zero():
    # nothing to transfer: all formulas stay finite and the state is static
    rho = analytic_rho(QubitAmplitudes(1.0, 0.0), 0.5, 0.7, 3.0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho, expected, atol=1e-14)
