import math

import numpy as np
import pytest

from qstsim import (
    QubitAmplitudes,
    ZeroProbability,
    apply_measurement_qubit1,
    initial_state,
)

from oracles import SIGMA_Z2, apply_reversal_qubit2, m0_operator, m1_operator, reversal_operator


def test_m0_limits():
    assert np.array_equal(m0_operator(0.0), np.eye(2))
    assert np.array_equal(m0_operator(1.0), np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_allclose(m0_operator(0.75), np.diag([1.0, 0.5]), atol=1e-15)


def test_kraus_completeness():
    rng = np.random.default_rng(1)
    for p in (0.0, 0.5, 1.0, *rng.uniform(0, 1, size=50)):
        m0, m1 = m0_operator(p), m1_operator(p)
        total = m0.conj().T @ m0 + m1.conj().T @ m1
        assert np.max(np.abs(total - np.eye(2))) <= 1e-15


def test_reversal_limits():
    assert np.array_equal(reversal_operator(0.0), np.eye(2))
    np.testing.assert_allclose(reversal_operator(0.75), np.diag([1.0, 2.0]), atol=1e-15)


def test_reversal_undoes_measurement():
    p = 0.3
    # with the 1/sqrt(1-q) prefactor the product is exactly the identity;
    # the bare three-step sandwich leaves the scale sqrt(1-p)
    np.testing.assert_allclose(
        reversal_operator(p) @ m0_operator(p), np.eye(2), atol=1e-15
    )
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    bare = x @ m0_operator(p) @ x @ m0_operator(p)
    np.testing.assert_allclose(bare, math.sqrt(1 - p) * np.eye(2), atol=1e-15)


def test_reversal_recovers_random_states():
    rng = np.random.default_rng(99)
    for _ in range(200):
        p = rng.uniform(0, 0.95)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        recovered = reversal_operator(p) @ (m0_operator(p) @ psi)
        recovered /= np.linalg.norm(recovered)
        fidelity = abs(np.vdot(psi, recovered)) ** 2
        assert abs(fidelity - 1.0) < 1e-12


def test_measurement_on_prepared_state():
    inv = 1 / math.sqrt(2)
    result = apply_measurement_qubit1(QubitAmplitudes(inv, inv), 0.8)
    np.testing.assert_allclose(result.success_probability, 0.6, atol=1e-12)
    n1_sq = 0.6
    np.testing.assert_allclose(result.state[0, 0], 0.5 / n1_sq, atol=1e-12)
    np.testing.assert_allclose(result.state[1, 1], 0.1 / n1_sq, atol=1e-12)


def test_measurement_zero_strength_is_identity():
    qubit = QubitAmplitudes(0.6, 0.8)
    result = apply_measurement_qubit1(qubit, 0.0)
    state = initial_state(qubit)
    np.testing.assert_allclose(result.state, np.outer(state, state.conj()), atol=1e-15)
    assert result.success_probability == 1.0


def test_measurement_on_pure_excited_qubit():
    # alpha = 0: the kept branch only rescales, so the state is unchanged
    result = apply_measurement_qubit1(QubitAmplitudes(0.0, 1.0), 0.96)
    np.testing.assert_allclose(result.success_probability, 0.04, atol=1e-12)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = 1.0
    np.testing.assert_allclose(result.state, expected, atol=1e-12)


def test_measurement_zero_probability():
    with pytest.raises(ZeroProbability):
        apply_measurement_qubit1(QubitAmplitudes(0.0, 1.0), 1.0 - 1e-16)


def test_reversal_zero_strength_is_sigma_z_only():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    result = apply_reversal_qubit2(rho, 0.0)
    np.testing.assert_allclose(result.state, SIGMA_Z2 @ rho @ SIGMA_Z2, atol=1e-14)
    np.testing.assert_allclose(result.success_probability, 1.0, atol=1e-14)


def test_reversal_fixed_point():
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = 1.0
    result = apply_reversal_qubit2(rho, 0.7)
    np.testing.assert_allclose(result.state, rho, atol=1e-15)
    np.testing.assert_allclose(result.success_probability, 1.0, atol=1e-15)


def test_reversal_on_diagonal_mixture():
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    result = apply_reversal_qubit2(rho, 0.5)
    np.testing.assert_allclose(
        result.state, np.diag([0.25, 0.0, 0.0, 0.5]) / 0.75, atol=1e-15
    )
    np.testing.assert_allclose(result.success_probability, 0.75, atol=1e-15)


def test_reversal_success_probability_consistency():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        q = rng.uniform(0, 0.99)
        result = apply_reversal_qubit2(rho, q)
        # trace of the explicitly transformed (unnormalized) matrix
        kraus = np.diag([math.sqrt(1 - q)] * 3 + [1.0]).astype(complex)
        trace = np.trace(kraus @ rho @ kraus).real
        assert abs(result.success_probability - trace) < 1e-12
        assert abs(result.success_probability - (1 - q + q * rho[3, 3].real)) < 1e-12


def test_reversal_sign_pattern():
    rng = np.random.default_rng(21)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    with_z = apply_reversal_qubit2(rho, 0.4, apply_sigma_z=True).state
    without_z = apply_reversal_qubit2(rho, 0.4, apply_sigma_z=False).state
    for i in range(3):
        np.testing.assert_allclose(with_z[i, 3], -without_z[i, 3], atol=1e-15)
        np.testing.assert_allclose(with_z[3, i], -without_z[3, i], atol=1e-15)
    np.testing.assert_allclose(with_z[:3, :3], without_z[:3, :3], atol=1e-15)
    np.testing.assert_allclose(with_z[3, 3], without_z[3, 3], atol=1e-15)


def test_reversal_complement_path_matches_direct():
    # the closed-form complement c = (1-p) e^{-st} applied to rho is the
    # reversal with q = p of E rho E, E = diag(1, 1, 1, e^{st/2}), whose
    # success is e^{st} times larger
    rng = np.random.default_rng(77)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    p, st = 0.3, 2.0
    direct = apply_reversal_qubit2(rho, 1.0 - (1.0 - p) * math.exp(-st))
    e = np.diag([1.0, 1.0, 1.0, math.exp(0.5 * st)])
    via_scaled = apply_reversal_qubit2(e @ rho @ e, p)
    np.testing.assert_allclose(direct.state, via_scaled.state, atol=1e-14)
    np.testing.assert_allclose(
        direct.success_probability, math.exp(-st) * via_scaled.success_probability, rtol=1e-14
    )
