import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_ent, random_strategy
from reference import (GameConfig, is_density, liouville, noiseless_final_state,
                       oracle_payoffs, swapped)

import qgmem
from qgmem.channels import (ChannelKind, ChannelSpec, apply_channel, pair_weights,
                            two_use_kraus)
from qgmem.closedform import Pairing, dephasing_coeff
from qgmem.games import Bimatrix, builtin_game
from qgmem.oracle import _CHI, _cross, two_pass_state
from qgmem.protocol import (EntanglementParams, StrategyParams, initial_density,
                            measure_payoff, payoff_operator, strategy_unitary)
from qgmem.qmat import PAULI

PI = math.pi
NOISELESS = ChannelSpec(ChannelKind.DEPHASING, 0.0, 0.0)


class TestTwoPassState:
    def test_noiseless_reduction(self, rng):
        for _ in range(20):
            ent = random_ent(rng)
            s1, s2 = random_strategy(rng), random_strategy(rng)
            got = two_pass_state(ent, s1, s2, NOISELESS, NOISELESS)
            want = noiseless_final_state(ent.gamma, s1, s2)
            assert np.allclose(got, want, atol=1e-14)

    def test_full_dephasing_kills_coherence(self):
        ent = EntanglementParams(PI / 2, 0.0)
        ch = ChannelSpec(ChannelKind.DEPHASING, 1.0, 0.0)
        rho = two_pass_state(ent, StrategyParams(0.0), StrategyParams(0.0),
                             ch, ch)
        assert np.allclose(rho, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)

    def test_cptp_on_random_configs(self, rng):
        for _ in range(200):
            kinds = [rng.choice(list(ChannelKind)) for _ in range(2)]
            ch1 = ChannelSpec(kinds[0], rng.random(), rng.random())
            ch2 = ChannelSpec(kinds[1], rng.random(), rng.random())
            rho = two_pass_state(random_ent(rng), random_strategy(rng),
                                 random_strategy(rng), ch1, ch2)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert is_density(rho, tol=1e-9)

    def test_coherence_factor_is_product_of_memory_factors(self, rng):
        # With identity strategies the |00><11| element picks up exactly the
        # two crossings' coherence factors.
        for _ in range(25):
            p1, m1, p2, m2 = (rng.random() for _ in range(4))
            ent = EntanglementParams(PI / 2, 0.3)
            rho = two_pass_state(
                ent, StrategyParams(0.0), StrategyParams(0.0),
                ChannelSpec(ChannelKind.DEPHASING, p1, m1),
                ChannelSpec(ChannelKind.DEPHASING, p2, m2))
            factor = dephasing_coeff(p1, m1) * dephasing_coeff(p2, m2)
            expected = initial_density(PI / 2)[0, 3] * factor
            assert rho[0, 3] == pytest.approx(expected, abs=1e-12)

    def test_full_memory_dephasing_is_noiseless_for_payoffs(self, rng):
        # The state itself differs (the inbound correlated flip survives),
        # but every payoff observable is flip-invariant, so all four outcome
        # probabilities match the noiseless game exactly.
        from qgmem.protocol import measure_payoff, payoff_operator
        for _ in range(20):
            ent = random_ent(rng)
            s1, s2 = random_strategy(rng), random_strategy(rng)
            noisy = two_pass_state(
                ent, s1, s2,
                ChannelSpec(ChannelKind.DEPHASING, rng.random(), 1.0),
                ChannelSpec(ChannelKind.DEPHASING, rng.random(), 1.0))
            clean = noiseless_final_state(ent.gamma, s1, s2)
            for slot in range(4):
                entries = tuple(1.0 if k == slot else 0.0 for k in range(4))
                op = payoff_operator(ent.delta, entries)
                assert measure_payoff(op, noisy) == pytest.approx(
                    measure_payoff(op, clean), abs=1e-12)


class TestOraclePayoffs:
    def _config(self, rng, game=None):
        kinds = [rng.choice(list(ChannelKind)) for _ in range(2)]
        return GameConfig(
            game or builtin_game("pd"),
            ChannelSpec(kinds[0], rng.random(), rng.random()),
            ChannelSpec(kinds[1], rng.random(), rng.random()),
            random_ent(rng), random_strategy(rng), random_strategy(rng))

    def test_all_ones_normalization(self, rng):
        ones = Bimatrix("ones", (1, 1, 1, 1), (1, 1, 1, 1))
        for _ in range(20):
            cfg = self._config(rng, ones)
            pa, pb = oracle_payoffs(cfg)
            assert (pa, pb) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_classical_defection_point(self):
        cfg = GameConfig(builtin_game("pd"), NOISELESS, NOISELESS,
                         EntanglementParams(0.0, 0.0),
                         StrategyParams(PI), StrategyParams(PI))
        assert oracle_payoffs(cfg) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_player_swap_symmetry(self, rng):
        # Swapping strategies and transposing the bimatrix (channels fixed)
        # swaps the payoff pair.
        for _ in range(25):
            cfg = self._config(rng, builtin_game("chicken"))
            mirrored = GameConfig(swapped(cfg.game), cfg.ch1, cfg.ch2,
                                  cfg.ent, cfg.s2, cfg.s1)
            pa, pb = oracle_payoffs(cfg)
            qa, qb = oracle_payoffs(mirrored)
            assert (qa, qb) == pytest.approx((pb, pa), abs=1e-12)

    def test_dephasing_full_memory_payoff_independent_of_p(self, rng):
        ent = EntanglementParams(1.1, 0.8)
        s1, s2 = random_strategy(rng), random_strategy(rng)
        values = []
        for p in (0.0, 0.3, 0.7, 1.0):
            cfg = GameConfig(builtin_game("bos"),
                             ChannelSpec(ChannelKind.DEPHASING, p, 1.0),
                             ChannelSpec(ChannelKind.DEPHASING, p, 1.0),
                             ent, s1, s2)
            values.append(oracle_payoffs(cfg))
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=1e-12)


def operator_sum_state(ent, s1, s2, ch1, ch2):
    """The operator-sum route: each crossing as sum_k K rho K^dag over the
    Kraus operators of ``two_use_kraus``, one round at a time."""
    rho = apply_channel(two_use_kraus(ch1), initial_density(ent.gamma))
    u = np.kron(strategy_unitary(s1), strategy_unitary(s2))
    return apply_channel(two_use_kraus(ch2), u @ rho @ u.conj().T)


BOUNDS = {"gamma": (0.0, PI / 2), "delta": (0.0, PI / 2), "theta": (0.0, PI),
          "phase": (-PI, PI)}
ANGLES = ("gamma", "delta") + ("theta", "phase", "phase") * 2


def _rounds(pairing, rng):
    """Columns (entries x4, gamma, delta, theta1, alpha1, beta1, theta2,
    alpha2, beta2, p1, mu1, p2, mu2) of the rounds to check: every corner of
    (p1, mu1, p2, mu2) in {0, 1} with each angle at an end of its domain,
    angles at their ends with random channels, random interior points, and
    amplitude-damping slots at mu = 0."""
    def row(channels, at_ends):
        angles = [rng.choice(BOUNDS[k]) if at_ends else rng.uniform(*BOUNDS[k])
                  for k in ANGLES]
        return [rng.uniform(-2, 5) for _ in range(4)] + angles + list(channels)

    def channels(ad_mu=None):
        (p1, mu1), (p2, mu2) = [(rng.random(), rng.random()) for _ in range(2)]
        if ad_mu is not None and pairing.first is ChannelKind.AMPLITUDE_DAMPING:
            mu1 = ad_mu
        if ad_mu is not None and pairing.second is ChannelKind.AMPLITUDE_DAMPING:
            mu2 = ad_mu
        return p1, mu1, p2, mu2

    rows = [row(corner, True) for corner in itertools.product((0.0, 1.0), repeat=4)]
    rows += [row(channels(), True) for _ in range(8)]
    rows += [row(channels(), False) for _ in range(20)]
    rows += [row(channels(ad_mu=0.0), False) for _ in range(10)]
    return np.array(rows).T


class TestLiouvilleOracle:
    @pytest.mark.parametrize("pairing", list(Pairing))
    def test_matches_operator_sum_route(self, pairing, rng):
        cols = _rounds(pairing, rng)
        entries, ent = cols[:4], EntanglementParams(cols[4], cols[5])
        s1, s2 = StrategyParams(*cols[6:9]), StrategyParams(*cols[9:12])
        ch1 = ChannelSpec(pairing.first, cols[12], cols[13])
        ch2 = ChannelSpec(pairing.second, cols[14], cols[15])
        rho = two_pass_state(ent, s1, s2, ch1, ch2)
        payoffs = measure_payoff(payoff_operator(ent.delta, entries), rho)
        assert rho.shape == (cols.shape[1], 4, 4)
        for i, c in enumerate(cols.T.tolist()):
            one = EntanglementParams(c[4], c[5])
            want = operator_sum_state(
                one, StrategyParams(*c[6:9]), StrategyParams(*c[9:12]),
                ChannelSpec(pairing.first, c[12], c[13]),
                ChannelSpec(pairing.second, c[14], c[15]))
            assert np.max(np.abs(rho[i] - want)) <= 1e-12
            assert abs(payoffs[i] - measure_payoff(
                payoff_operator(one.delta, c[:4]), want)) <= 1e-12

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_choi_matrix_is_cptp(self, kind):
        # Choi matrix sum_k vec(K) vec(K)^dag, indexed [(a, c), (b, d)], is the
        # Liouville matrix [(a, b), (c, d)] reshuffled.  Positive semidefinite
        # means completely positive; tracing out the output index a gives the
        # identity exactly when the map preserves the trace.
        grid = np.linspace(0.0, 1.0, 11)
        p, mu = np.meshgrid(grid, grid, indexing="ij")
        lv = liouville(ChannelSpec(kind, p, mu))
        assert lv.shape == (11, 11, 16, 16)
        choi = lv.reshape(11, 11, 4, 4, 4, 4).swapaxes(-3, -2)
        assert np.linalg.eigvalsh(choi.reshape(11, 11, 16, 16)).min() >= -1e-12
        assert np.max(np.abs(np.einsum("...acad->...cd", choi) - np.eye(4))) <= 1e-12


def _matrices(rng, *shape):
    """Complex Gaussian 4x4 matrices, shape (*shape, 4, 4): a crossing is
    linear, so general matrices test it beyond Hermitian inputs."""
    n = math.prod(shape) * 32
    z = np.array([rng.gauss(0.0, 1.0) for _ in range(n)]).view(complex)
    return z.reshape(*shape, 4, 4)


# (p, mu) at every corner of {0, 1}^2, at mu = 0 and 1 with p inside, and inside.
CHANNEL_POINTS = list(itertools.product((0.0, 1.0), repeat=2)) + [
    (0.37, 0.0), (0.81, 1.0), (0.0, 0.44), (1.0, 0.59), (0.23, 0.71), (0.66, 0.18)]


class TestCrossing:
    """Each crossing form against the operator-sum route of its Kraus family."""

    @staticmethod
    def _want(kind, p, mu, rho):
        return apply_channel(two_use_kraus(ChannelSpec(kind, p, mu)), rho)

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_float_points(self, kind, rng):
        for p, mu in CHANNEL_POINTS:
            rho = _matrices(rng)
            got = _cross(ChannelSpec(kind, p, mu), rho)
            assert got.shape == (4, 4)
            assert np.max(np.abs(got - self._want(kind, p, mu, rho))) <= 1e-12

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_array_points(self, kind, rng):
        p, mu = np.array(CHANNEL_POINTS).T
        rho = _matrices(rng, len(p))
        got = _cross(ChannelSpec(kind, p, mu), rho)
        assert got.shape == (len(p), 4, 4)
        for i in range(len(p)):
            want = self._want(kind, p[i], mu[i], rho[i])
            assert np.max(np.abs(got[i] - want)) <= 1e-12

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_mesh_broadcasts_one_state(self, kind, rng):
        grid = np.linspace(0.0, 1.0, 11)
        p, mu = np.meshgrid(grid, grid, indexing="ij")
        rho = _matrices(rng)
        got = _cross(ChannelSpec(kind, p, mu), rho)
        assert got.shape == (11, 11, 4, 4)
        for i, j in itertools.product(range(11), repeat=2):
            want = self._want(kind, p[i, j], mu[i, j], rho)
            assert np.max(np.abs(got[i, j] - want)) <= 1e-12

    @pytest.mark.parametrize("pairing", list(Pairing))
    def test_two_pass_state_at_float_points(self, pairing, rng):
        for (p1, mu1), (p2, mu2) in itertools.product(CHANNEL_POINTS[:4], repeat=2):
            ent, s1, s2 = random_ent(rng), random_strategy(rng), random_strategy(rng)
            ch1 = ChannelSpec(pairing.first, p1, mu1)
            ch2 = ChannelSpec(pairing.second, p2, mu2)
            got = two_pass_state(ent, s1, s2, ch1, ch2)
            want = operator_sum_state(ent, s1, s2, ch1, ch2)
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("kind", [ChannelKind.DEPHASING, ChannelKind.DEPOLARIZING])
    def test_pauli_signs_and_identity_at_zero_p(self, kind):
        assert _CHI.shape == (16, 16)
        assert set(np.unique(_CHI)) == {-1.0, 1.0}
        mu = np.linspace(0.0, 1.0, 11)
        lam = pair_weights(kind, np.zeros_like(mu), mu).reshape(11, 16) @ _CHI
        assert np.max(np.abs(lam - 1.0)) <= 1e-15

    def test_chi_is_product_of_single_qubit_commutation_signs(self):
        # s[i, a] = +1 if P_i and P_a commute, -1 if they anticommute.
        s = np.array([[1.0 if np.allclose(pi @ pa, pa @ pi) else -1.0 for pa in PAULI]
                      for pi in PAULI])
        for i, j, a, b in itertools.product(range(4), repeat=4):
            assert _CHI[4 * i + j, 4 * a + b] == s[i, a] * s[j, b]


SRC = Path(qgmem.__file__).parent


def _imports(path: Path) -> set[str]:
    """Names of the qgmem modules that ``path`` imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name.removeprefix("qgmem.") for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("qgmem.").removeprefix("qgmem")
            found |= {module} if module else {a.name for a in node.names}
    return {name for name in found if (SRC / f"{name}.py").exists()}


def test_oracle_never_imports_closedform():
    # The oracle is the independent route to every payoff: neither it nor any
    # qgmem module it reaches may import the closed form.
    seen, todo = set(), ["oracle", "channels"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += _imports(SRC / f"{name}.py")
    assert "closedform" not in seen, sorted(seen)
    assert {"protocol", "qmat"} <= seen
