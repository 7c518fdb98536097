import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import is_density

from qgmem.channels import (ChannelKind, ChannelSpec, apply_channel,
                            pair_weights, single_use_kraus, two_use_kraus,
                            verify_completeness)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


class TestSpec:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            ChannelSpec(ChannelKind.DEPHASING, 1.2, 0.0)
        with pytest.raises(ValueError):
            ChannelSpec(ChannelKind.DEPHASING, 0.2, -0.5)


class TestSingleUse:
    def test_dephasing_noiseless(self):
        ks = single_use_kraus(ChannelKind.DEPHASING, 0.0)
        assert np.allclose(ks.operators[0], np.eye(2))
        assert np.allclose(ks.operators[1], 0)

    def test_amplitude_damping_full(self):
        ks = single_use_kraus(ChannelKind.AMPLITUDE_DAMPING, 1.0)
        assert np.allclose(ks.operators[0], [[0, 0], [0, 1]])
        assert np.allclose(ks.operators[1], [[0, 0], [1, 0]])

    def test_depolarizing_full(self):
        ks = single_use_kraus(ChannelKind.DEPOLARIZING, 1.0)
        norms = [float(np.max(np.abs(k))) for k in ks.operators]
        assert norms[0] == 0.0
        assert norms[1:] == pytest.approx([math.sqrt(1 / 3)] * 3)

    @pytest.mark.parametrize("kind", list(ChannelKind))
    @pytest.mark.parametrize("p", GRID)
    def test_complete(self, kind, p):
        ok, dev = verify_completeness(single_use_kraus(kind, p))
        assert ok, dev


class TestPairWeights:
    def test_memoryless_product(self):
        w = pair_weights(ChannelKind.DEPHASING, 0.3, 0.0)
        assert w[(0, 0)] == pytest.approx(0.85 * 0.85)
        assert w[(0, 3)] == pytest.approx(0.85 * 0.15)

    def test_full_memory_collapses(self):
        w = pair_weights(ChannelKind.DEPHASING, 0.4, 1.0)
        assert w[(0, 0)] == pytest.approx(0.8)
        assert w[(3, 3)] == pytest.approx(0.2)
        assert w[(0, 3)] == 0.0 and w[(3, 0)] == 0.0

    @given(probs, probs)
    @settings(max_examples=100, deadline=None)
    def test_depolarizing_normalized(self, p, mu):
        w = pair_weights(ChannelKind.DEPOLARIZING, p, mu)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w.min() >= -1e-15

    @pytest.mark.parametrize("kind", [ChannelKind.DEPHASING, ChannelKind.DEPOLARIZING])
    def test_arrays_match_points(self, kind):
        p = np.linspace(0.0, 1.0, 7)[:, None]
        mu = np.linspace(0.0, 1.0, 5)
        w = pair_weights(kind, p, mu)
        assert w.shape == (7, 5, 4, 4)
        for i, j in np.ndindex(7, 5):
            assert np.array_equal(w[i, j], pair_weights(kind, p[i, 0], mu[j]))
        assert np.max(np.abs(w.sum(axis=(-2, -1)) - 1.0)) <= 1e-15

    def test_amplitude_damping_unsupported(self):
        with pytest.raises(ValueError):
            pair_weights(ChannelKind.AMPLITUDE_DAMPING, 0.3, 0.1)


class TestTwoUse:
    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_noiseless_is_identity_channel(self, kind, rng):
        ks = two_use_kraus(ChannelSpec(kind, 0.0, 0.7))
        m = np.array([[rng.random() + 1j * rng.random() for _ in range(4)]
                      for _ in range(4)])
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        assert np.allclose(apply_channel(ks, rho), rho, atol=1e-12)

    def test_correlated_amplitude_damping_pair(self):
        ks = two_use_kraus(ChannelSpec(ChannelKind.AMPLITUDE_DAMPING, 0.36, 1.0))
        assert len(ks.operators) == 2
        a00, a11 = ks.operators
        assert np.allclose(a00, np.diag([0.8, 1, 1, 1]), atol=1e-15)
        expected = np.zeros((4, 4))
        expected[3, 0] = 0.6
        assert np.allclose(a11, expected, atol=1e-15)
        # exact completeness of the correlated pair alone
        ok, dev = verify_completeness(ks, tol=1e-15)
        assert ok, dev

    @pytest.mark.parametrize("kind", list(ChannelKind))
    @pytest.mark.parametrize("p", GRID)
    @pytest.mark.parametrize("mu", GRID)
    def test_completeness_grid(self, kind, p, mu):
        ok, dev = verify_completeness(two_use_kraus(ChannelSpec(kind, p, mu)))
        assert ok, f"{kind} p={p} mu={mu}: deviation {dev}"

    def test_dephasing_preserves_diagonal(self, rng):
        ks = two_use_kraus(ChannelSpec(ChannelKind.DEPHASING, 0.6, 0.3))
        m = np.array([[rng.random() + 1j * rng.random() for _ in range(4)]
                      for _ in range(4)])
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        out = apply_channel(ks, rho)
        assert np.allclose(np.diag(out), np.diag(rho), atol=1e-14)

    def test_full_memory_ad_fixed_points(self, rng):
        # |01>, |10>, |11> and their mixtures pass undisturbed; |00> does not
        ks = two_use_kraus(ChannelSpec(ChannelKind.AMPLITUDE_DAMPING, 0.5, 1.0))
        rho = np.zeros((4, 4), dtype=complex)
        weights = [rng.random() for _ in range(3)]
        total = sum(weights)
        for k, w in zip((1, 2, 3), weights):
            rho[k, k] = w / total
        rho[1, 2] = rho[2, 1] = 0.1
        assert np.allclose(apply_channel(ks, rho), rho, atol=1e-14)
        ket00 = np.zeros((4, 4), dtype=complex)
        ket00[0, 0] = 1
        assert not np.allclose(apply_channel(ks, ket00), ket00, atol=1e-3)

    def test_channel_preserves_density(self, rng):
        for kind in ChannelKind:
            ks = two_use_kraus(ChannelSpec(kind, rng.random(), rng.random()))
            m = np.array([[rng.random() + 1j * rng.random() for _ in range(4)]
                          for _ in range(4)])
            rho = m @ m.conj().T
            rho /= np.trace(rho)
            assert is_density(apply_channel(ks, rho), tol=1e-9)


class TestVerifyCompleteness:
    def test_exact_single_use(self):
        ok, dev = verify_completeness(single_use_kraus(ChannelKind.DEPHASING, 0.5))
        assert ok and dev < 1e-15

    def test_detects_dropped_operator(self):
        from qgmem.channels import KrausSet
        ks = single_use_kraus(ChannelKind.DEPOLARIZING, 0.5)
        broken = KrausSet(ks.operators[:-1])
        ok, dev = verify_completeness(broken)
        assert not ok and dev > 0.1
