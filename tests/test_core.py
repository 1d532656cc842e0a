import numpy as np
import pytest

from qstsim import (
    GROUND,
    PHOTON,
    QUBIT1,
    QUBIT2,
    CollapseTerm,
    QubitAmplitudes,
    SystemParams,
    collapse_operators,
    embed_qubit2_op,
    hamiltonian,
)


def test_hamiltonian_equal_couplings():
    h = hamiltonian(SystemParams(g1=1.0, g2=1.0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[QUBIT1, PHOTON] = expected[PHOTON, QUBIT1] = 1.0
    expected[PHOTON, QUBIT2] = expected[QUBIT2, PHOTON] = 1.0
    assert np.array_equal(h, expected)


def test_hamiltonian_exactly_hermitian():
    h = hamiltonian(SystemParams(g1=0.37, g2=1.42))
    assert np.array_equal(h, h.conj().T)


def test_hamiltonian_single_coupling_eigenvalues():
    # g2 = 0 leaves a lone 2x2 exchange block with eigenvalues +-g1
    h = hamiltonian(SystemParams(g1=1.0, g2=0.0))
    assert np.count_nonzero(h) == 2
    eig = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(sorted(eig), [-1.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_ground_state_is_decoupled():
    h = hamiltonian(SystemParams(g1=0.8, g2=1.3))
    ground = np.zeros(4)
    ground[GROUND] = 1.0
    assert np.array_equal(h @ ground, np.zeros(4))


def test_collapse_operators_resonator_only():
    terms = collapse_operators(SystemParams(1.0, 1.0, kappa=1.0))
    assert len(terms) == 1
    op, rate, dephasing = terms[0]
    assert rate == 1.0 and not dephasing
    expected = np.zeros((4, 4), dtype=complex)
    expected[GROUND, PHOTON] = 1.0
    assert np.array_equal(op, expected)


def test_collapse_operators_equal_rates():
    s = 0.7
    terms = collapse_operators(SystemParams(1.0, 1.0, kappa=s, gamma1=s, gamma2=s))
    assert [t.rate for t in terms] == [s, s, s]
    assert not any(t.dephasing for t in terms)


def test_collapse_operators_dephasing():
    terms = collapse_operators(SystemParams(1.0, 1.0, gamma_phi=0.1))
    assert len(terms) == 2
    for term in terms:
        assert term.dephasing and term.rate == 0.1
        assert np.array_equal(term.op, np.diag(np.diag(term.op)))
        assert set(np.diag(term.op).real) == {-1.0, 1.0}


def test_lowering_operators_square_to_zero_and_feed_ground():
    params = SystemParams(1.0, 1.0, kappa=0.3, gamma1=0.2, gamma2=0.1)
    for op, _, dephasing in collapse_operators(params):
        assert not dephasing
        assert np.array_equal(op @ op, np.zeros((4, 4)))
        for src in (QUBIT1, PHOTON, QUBIT2):
            basis = np.zeros(4)
            basis[src] = 1.0
            image = op @ basis
            assert np.all(image[1:] == 0)  # everything lands on the ground entry


def test_embed_identity():
    assert np.array_equal(embed_qubit2_op(np.eye(2)), np.eye(4))


def test_embed_sigma_z():
    out = embed_qubit2_op(np.diag([-1.0, 1.0]))
    assert np.array_equal(out, np.diag([-1.0, -1.0, -1.0, 1.0]).astype(complex))


def test_embed_bit_flip():
    # expanding X on each basis state by hand: only ground <-> qubit2 mixes;
    # flipping qubit 2 in basis states 1 or 2 would need two excitations
    out = embed_qubit2_op(np.array([[0.0, 1.0], [1.0, 0.0]]))
    expected = np.zeros((4, 4), dtype=complex)
    expected[GROUND, QUBIT2] = expected[QUBIT2, GROUND] = 1.0
    assert np.array_equal(out, expected)


def test_embed_diagonal_homomorphism():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = np.diag(rng.normal(size=2) + 1j * rng.normal(size=2))
        b = np.diag(rng.normal(size=2) + 1j * rng.normal(size=2))
        left = embed_qubit2_op(a @ b)
        right = embed_qubit2_op(a) @ embed_qubit2_op(b)
        np.testing.assert_allclose(left, right, atol=1e-15)


def test_embed_rejects_wrong_shape():
    with pytest.raises(ValueError):
        embed_qubit2_op(np.eye(3))


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(g1=-1.0, g2=1.0)
    with pytest.raises(ValueError):
        SystemParams(g1=0.0, g2=0.0)
    with pytest.raises(ValueError):
        SystemParams(g1=1.0, g2=1.0, kappa=-0.1)
    params = SystemParams(g1=3.0, g2=4.0)
    assert params.r == 5.0
    assert params.g_ref == 4.0


def test_equal_decay_rate():
    assert SystemParams(1, 1, 0.5, 0.5, 0.5).equal_decay_rate() == 0.5
    assert SystemParams(1, 1, 0.5, 0.5, 0.4).equal_decay_rate() is None
    assert SystemParams(1, 1).equal_decay_rate() == 0.0


def test_qubit_amplitudes_validation():
    QubitAmplitudes(0.6, 0.8)
    QubitAmplitudes(0.6, 0.8j)
    with pytest.raises(ValueError):
        QubitAmplitudes(0.7, 0.8)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SystemParams(np.nan, 1.0),
        lambda: SystemParams(1.0, np.nan),
        lambda: SystemParams(1.0, 1.0, kappa=np.nan),
        lambda: SystemParams(1.0, 1.0, gamma_phi=np.nan),
        lambda: QubitAmplitudes(np.nan, 0.8),
        lambda: QubitAmplitudes(0.6, complex(0.8, np.nan)),
    ],
)
def test_nan_is_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_collapse_term_defaults():
    term = CollapseTerm(np.eye(4, dtype=complex), 0.5)
    assert term.dephasing is False
