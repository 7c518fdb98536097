import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ent, random_entries, random_strategy
from reference import classical_expected, raw_angle_terms, theta_weight

from qgmem.closedform import (Pairing, ad_coeffs, angle_terms, batch_weights,
                              closed_payoff, closed_payoff_pair, dephasing_coeff,
                              depol_coeffs, pairing_weights, payoff_surface)
from qgmem.closedform import payoff_coeffs, sum_products
from qgmem.equilibrium import StrategySpace
from qgmem.games import builtin_game
from qgmem.oracle import two_pass_state
from qgmem.protocol import (EntanglementParams, StrategyParams,
                            measure_payoff, payoff_operator)

PI = math.pi
probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
ALL_PAIRINGS = list(Pairing)


class TestAdCoeffs:
    def test_noiseless_point(self):
        c = ad_coeffs(0.0, 0.37)
        assert (c.chi00, c.chi11, c.chi10, c.chi01, c.chi_a, c.chi_b) == \
            (1.0, 0.0, 1.0, 0.0, 0.0, 1.0)

    def test_full_damping_kills_coherence(self):
        for mu in (0.0, 0.4, 1.0):
            assert ad_coeffs(1.0, mu).chi10 == 0.0

    def test_halfway_point(self):
        assert ad_coeffs(0.5, 0.5).chi00 == pytest.approx(0.375, abs=1e-15)

    @given(probs, probs)
    @settings(max_examples=200, deadline=None)
    def test_identities(self, p, mu):
        c = ad_coeffs(p, mu)
        assert c.chi00 + c.chi11 + 2 * c.chi01 == pytest.approx(1, abs=1e-12)
        assert c.chi_a + c.chi_b == pytest.approx(1, abs=1e-12)
        for value in (c.chi00, c.chi11, c.chi10, c.chi01, c.chi_a, c.chi_b):
            assert -1e-12 <= value <= 1 + 1e-12

    def test_range_error(self):
        # ad_coeffs trusts p and mu; the crossing's ChannelSpec checks them.
        with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got -0.1$"):
            batch_weights(EntanglementParams(0.0, 0.0),
                          *Pairing.AD_AD.crossings((-0.1, 0.0), (0.0, 0.0)))


class TestDepolCoeffs:
    def test_noiseless_point(self):
        c = depol_coeffs(0.0, 0.6)
        assert (c.a, c.b, c.d, c.coh, c.coh_base) == (1.0, 0.0, 0.0, 1.0, 1.0)

    def test_memoryless_weights_are_independent_flips(self):
        # Without memory each qubit flips on its own with probability 2p/3.
        for p in (0.0, 0.3, 0.75, 0.9, 1.0):
            c, flip = depol_coeffs(p, 0.0), 2 * p / 3
            assert c.a == pytest.approx((1 - flip) ** 2, abs=1e-12)
            assert c.b == pytest.approx(flip ** 2, abs=1e-12)
            assert c.d == pytest.approx(flip * (1 - flip), abs=1e-12)

    @given(probs, probs)
    @settings(max_examples=200, deadline=None)
    def test_sum_identity(self, p, mu):
        c = depol_coeffs(p, mu)
        assert c.a + c.b + 2 * c.d == pytest.approx(1, abs=1e-12)

    def test_example_point(self):
        c = depol_coeffs(0.7, 0.3)
        assert c.a + c.b + 2 * c.d == pytest.approx(1, abs=1e-12)


class TestDephasingCoeff:
    def test_full_memory(self):
        for p in (0.0, 0.5, 1.0):
            assert dephasing_coeff(p, 1.0) == 1.0

    def test_noiseless(self):
        assert dephasing_coeff(0.0, 0.3) == 1.0

    def test_example_point(self):
        assert dephasing_coeff(0.5, 0.2) == pytest.approx(0.4, abs=1e-15)


class TestPairingWeightsSpotChecks:
    def test_ph_ph_sector_weights(self):
        ent = EntanglementParams(PI / 2, 0.0)
        w = pairing_weights(ent, *Pairing.PH_PH.crossings((0.5, 0.2), (0.3, 0.7)))
        # cos^2(gamma/2) = sin^2(gamma/2) = 1/2 at gamma = pi/2, delta = 0
        assert w.cc[0] == pytest.approx(0.5)
        assert w.cc[1] == pytest.approx(0.5)
        assert w.f_diag == pytest.approx(
            dephasing_coeff(0.5, 0.2) * dephasing_coeff(0.3, 0.7))

    def test_ad_ad_noiseless_reduces_to_ph_ph(self):
        ent = EntanglementParams(0.9, 0.7)
        wa = pairing_weights(ent, *Pairing.AD_AD.crossings((0.0, 0.3), (0.0, 0.8)))
        wp = pairing_weights(ent, *Pairing.PH_PH.crossings((0.0, 0.3), (0.0, 0.8)))
        for field in ("cc", "ss", "sc", "cs"):
            assert np.allclose(getattr(wa, field), getattr(wp, field),
                               atol=1e-15)
        assert wa.f_diag == pytest.approx(wp.f_diag)
        assert wa.h_diag == pytest.approx(wp.h_diag)

    def test_all_sectors_normalized(self, rng):
        # each theta sector's weights must mix the four entries to total 1
        for pairing in ALL_PAIRINGS:
            ent = random_ent(rng)
            w = pairing_weights(ent, *pairing.crossings((rng.random(), rng.random()),
                                                        (rng.random(), rng.random())))
            for field in ("cc", "ss", "sc", "cs"):
                assert sum(getattr(w, field)) == pytest.approx(1.0, abs=1e-12)


class TestClosedPayoff:
    def test_normalization_all_pairings(self, rng):
        for pairing in ALL_PAIRINGS:
            for _ in range(30):
                value = closed_payoff(
                    (1.0, 1.0, 1.0, 1.0), random_ent(rng),
                    random_strategy(rng), random_strategy(rng),
                    *pairing.crossings((rng.random(), rng.random()),
                                       (rng.random(), rng.random())))
                assert value == pytest.approx(1.0, abs=1e-9)

    def test_linear_in_entries(self, rng):
        for pairing in ALL_PAIRINGS:
            ent = random_ent(rng)
            s1, s2 = random_strategy(rng), random_strategy(rng)
            ch1, ch2 = pairing.crossings((rng.random(), rng.random()),
                                         (rng.random(), rng.random()))
            e1, e2 = random_entries(rng), random_entries(rng)
            lam = rng.uniform(-1.0, 2.0)
            combo = tuple(a + lam * b for a, b in zip(e1, e2))
            v = closed_payoff(combo, ent, s1, s2, ch1, ch2)
            v1 = closed_payoff(e1, ent, s1, s2, ch1, ch2)
            v2 = closed_payoff(e2, ent, s1, s2, ch1, ch2)
            assert v == pytest.approx(v1 + lam * v2, abs=1e-10)

    def test_classical_reduction(self):
        ent = EntanglementParams(0.0, 0.0)
        for name in ("pd", "bos", "chicken"):
            game = builtin_game(name)
            for t1 in np.linspace(0, PI, 7):
                for t2 in np.linspace(0, PI, 7):
                    pa, pb = closed_payoff_pair(
                        game, ent, StrategyParams(t1), StrategyParams(t2),
                        *Pairing.AD_AD.crossings((0.0, 0.0), (0.0, 0.0)))
                    ca, cb = classical_expected(game, theta_weight(t1),
                                                theta_weight(t2))
                    assert (pa, pb) == pytest.approx((ca, cb), abs=1e-12)

    def test_phase_independence_unentangled(self, rng):
        ent = EntanglementParams(0.0, 0.0)
        for pairing in ALL_PAIRINGS:
            base = None
            for _ in range(10):
                v = closed_payoff(
                    (3, 0, 5, 1), ent, StrategyParams(1.1),
                    StrategyParams(2.0, rng.uniform(-PI, PI), rng.uniform(-PI, PI)),
                    *pairing.crossings((0.4, 0.6), (0.7, 0.2)))
                base = v if base is None else base
                assert v == pytest.approx(base, abs=1e-12)

    def test_dephasing_memory_limit(self, rng):
        for _ in range(30):
            ent, s1, s2 = random_ent(rng), random_strategy(rng), random_strategy(rng)
            e = random_entries(rng)
            noisy = closed_payoff(e, ent, s1, s2, *Pairing.PH_PH.crossings(
                (rng.random(), 1.0), (rng.random(), 1.0)))
            clean = closed_payoff(e, ent, s1, s2,
                                  *Pairing.PH_PH.crossings((0.0, 0.0), (0.0, 0.0)))
            assert noisy == pytest.approx(clean, abs=1e-12)

    def test_player_swap_symmetry(self, rng):
        for pairing in ALL_PAIRINGS:
            e = random_entries(rng)
            transposed = (e[0], e[2], e[1], e[3])
            ent = random_ent(rng)
            s1, s2 = random_strategy(rng), random_strategy(rng)
            ch1, ch2 = pairing.crossings((rng.random(), rng.random()),
                                         (rng.random(), rng.random()))
            v1 = closed_payoff(e, ent, s1, s2, ch1, ch2)
            v2 = closed_payoff(transposed, ent, s2, s1, ch1, ch2)
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_oracle_equivalence_sampled(self, rng):
        for pairing in ALL_PAIRINGS:
            for _ in range(25):
                e = random_entries(rng)
                ent = random_ent(rng)
                s1, s2 = random_strategy(rng), random_strategy(rng)
                # One game point, the same objects for both routes.
                point = (ent, s1, s2, *pairing.crossings((rng.random(), rng.random()),
                                                         (rng.random(), rng.random())))
                closed = closed_payoff(e, *point)
                rho = two_pass_state(*point)
                simulated = measure_payoff(payoff_operator(ent.delta, e), rho)
                assert closed == pytest.approx(simulated, abs=1e-9)

    def test_pair_matches_single(self, rng):
        game = builtin_game("chicken")
        ent, s1, s2 = random_ent(rng), random_strategy(rng), random_strategy(rng)
        ch1, ch2 = Pairing.D_PH.crossings((rng.random(), rng.random()),
                                          (rng.random(), rng.random()))
        pa, pb = closed_payoff_pair(game, ent, s1, s2, ch1, ch2)
        assert pa == closed_payoff(game.a, ent, s1, s2, ch1, ch2)
        assert pb == closed_payoff(game.b, ent, s1, s2, ch1, ch2)


class TestPayoffSurface:
    # Both payoff routes refuse a payoff column that is not four entries.
    @pytest.mark.parametrize("route", ["closed form", "operator"])
    @pytest.mark.parametrize("count", [3, 5])
    def test_rejects_a_column_of_other_than_four_entries(self, route, count, rng):
        ent, entries = random_ent(rng), tuple(range(count))
        with pytest.raises(ValueError, match=f"^expected 4 payoff entries, got {count}$"):
            if route == "operator":
                payoff_operator(ent.delta, entries)
            else:
                w = batch_weights(ent, *Pairing.AD_D.crossings((0.3, 0.6), (0.3, 0.6)))
                payoff_surface(w, entries, ent, *random_strategy(rng).angles,
                               *random_strategy(rng).angles)

    def test_broadcast_matches_scalar(self, rng):
        ent = random_ent(rng)
        ch1, ch2 = Pairing.AD_D.crossings((rng.random(), rng.random()),
                                          (rng.random(), rng.random()))
        theta = np.linspace(0, PI, 5)
        alpha = np.linspace(-PI, PI, 4)
        t, a = np.meshgrid(theta, alpha, indexing="ij")
        grid = payoff_surface(batch_weights(ent, ch1, ch2), (3, 0, 5, 1), ent,
                              0.7, 0.1, -0.2, t, a, 0.5)
        assert grid.shape == (5, 4)
        for i in range(5):
            for j in range(4):
                scalar = closed_payoff(
                    (3, 0, 5, 1), ent,
                    StrategyParams(0.7, 0.1, -0.2),
                    StrategyParams(float(theta[i]), float(alpha[j]), 0.5),
                    ch1, ch2)
                assert grid[i, j] == pytest.approx(scalar, abs=1e-12)

    @pytest.mark.parametrize("pairing", ALL_PAIRINGS)
    def test_channel_arrays_match_float_points_bit_for_bit(self, pairing, rng):
        # One array evaluation over many channel points must give the exact
        # bits of the float path at each point, or CSV bytes could drift.
        ent = random_ent(rng)
        s1, s2 = random_strategy(rng), random_strategy(rng)
        game = builtin_game("chicken")
        points = [(0.0, 0.0, 1.0, 1.0), (1.0, 0.5, 0.0, 0.25)]
        points += [tuple(rng.random() for _ in range(4)) for _ in range(300)]
        # p where pow(p, 2) and p*p round apart (about 1 in 1000 draws): a
        # square written as ``** 2`` would take pow on a float, a product on
        # an array.
        split = list(itertools.islice(
            (p for p in iter(rng.random, None)
             if p**2 != p * p or (1 - p) ** 2 != (1 - p) * (1 - p)), 40))
        points += [(a, rng.random(), b, rng.random()) for a, b in zip(split, split[::-1])]
        p1, mu1, p2, mu2 = np.array(points).T
        ch1, ch2 = pairing.crossings((p1, mu1), (p2, mu2))
        angles = (s1.theta, s1.alpha, s1.beta, s2.theta, s2.alpha, s2.beta)
        pa, pb = (payoff_surface(batch_weights(ent, ch1, ch2), e, ent, *angles)
                  for e in (game.a, game.b))
        for i, (a, b, c, d) in enumerate(points):
            assert (pa[i], pb[i]) == closed_payoff_pair(
                game, ent, s1, s2, *pairing.crossings((a, b), (c, d)))

    @pytest.mark.parametrize("pairing", ALL_PAIRINGS)
    def test_angle_arrays_match_float_points_bit_for_bit(self, pairing, rng):
        # gamma, delta and theta where pow(c, 2) and c*c round apart for
        # c = cos(x/2) or sin(x/2), the split points of the half-angle squares.
        n = 30

        def split(hi):
            return list(itertools.islice(
                (x for x in (hi * u for u in iter(rng.random, None))
                 if any(c**2 != c * c for c in (math.cos(x / 2), math.sin(x / 2)))), n))

        def uniform(lo, hi):
            return [rng.uniform(lo, hi) for _ in range(n)]

        game = builtin_game("pd")
        cols = np.array([split(PI / 2), split(PI / 2),
                         split(PI), uniform(-PI, PI), uniform(-PI, PI),
                         split(PI), uniform(-PI, PI), uniform(-PI, PI),
                         *(uniform(0.0, 1.0) for _ in range(4))])
        ent, ch1, ch2 = (EntanglementParams(*cols[:2]),
                         *pairing.crossings(tuple(cols[8:10]), tuple(cols[10:])))
        pa, pb = (payoff_surface(batch_weights(ent, ch1, ch2), e, ent, *cols[2:8])
                  for e in (game.a, game.b))
        for i, c in enumerate(cols.T.tolist()):
            assert (pa[i], pb[i]) == closed_payoff_pair(
                game, EntanglementParams(*c[:2]), StrategyParams(*c[2:5]),
                StrategyParams(*c[5:8]), *pairing.crossings(tuple(c[8:10]), tuple(c[10:])))

    @pytest.mark.parametrize("pairing", ALL_PAIRINGS)
    def test_precomputed_terms_bit_for_bit(self, pairing, rng):
        # closed_payoff_pair shares one weight and angle-term evaluation
        # between the players; on open grids of either player or at one
        # point, each payoff must give the exact bits of that player's call.
        ent = random_ent(rng)
        s1, s2 = random_strategy(rng), random_strategy(rng)
        game = builtin_game("bos")
        ch1, ch2 = pairing.crossings((rng.random(), rng.random()),
                                     (rng.random(), rng.random()))
        grid = np.meshgrid(np.linspace(0, PI, 7), np.linspace(-PI, PI, 9),
                           np.linspace(-PI, PI, 5), indexing="ij", sparse=True)
        for a, b in ((StrategyParams(*grid), s2), (s1, StrategyParams(*grid)), (s1, s2)):
            pair = closed_payoff_pair(game, ent, a, b, ch1, ch2)
            for got, e in zip(pair, (game.a, game.b)):
                direct = payoff_surface(batch_weights(ent, ch1, ch2), e, ent,
                                        *a.angles, *b.angles)
                assert np.shape(got) == np.shape(direct)
                assert np.array_equal(got, direct)
        assert closed_payoff_pair(game, ent, s1, s2, ch1, ch2) == tuple(
            closed_payoff(e, ent, s1, s2, ch1, ch2) for e in (game.a, game.b))

    @pytest.mark.parametrize("pairing", ALL_PAIRINGS)
    def test_sample_arrays_match_float_calls(self, pairing, rng):
        # One call over per-sample gamma, delta, channels, angles and a
        # (4, N) entry array, as verify makes it, against one float call per
        # sample; both take the same numpy arithmetic, so the bits agree.
        n = 80
        cols = [[rng.uniform(lo, hi) for _ in range(n)] for lo, hi in
                [(-2.0, 5.0)] * 4 + [(0.0, PI / 2)] * 2
                + [(0.0, PI), (-PI, PI), (-PI, PI)] * 2 + [(0.0, 1.0)] * 4]
        cols[4][:3], cols[5][:3] = [0.0, PI / 2, PI / 2], [PI / 2, 0.0, PI / 2]
        cols = np.array(cols)
        entries, ent = cols[:4], EntanglementParams(cols[4], cols[5])
        ch1, ch2 = pairing.crossings((cols[12], cols[13]), (cols[14], cols[15]))
        got = payoff_surface(batch_weights(ent, ch1, ch2), entries, ent, *cols[6:12])
        want = [payoff_surface(batch_weights(e, *pairing.crossings((c[12], c[13]),
                                                                   (c[14], c[15]))),
                               tuple(c[:4]), e, *c[6:12])
                for c in cols.T.tolist() for e in [EntanglementParams(c[4], c[5])]]
        assert got.shape == (n,)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("pairing", ALL_PAIRINGS)
    def test_pair_over_arrays_matches_float_and_per_player_calls(self, pairing, rng):
        # closed_payoff_pair over channel arrays, either player's open
        # strategy mesh, or per-sample angle arrays: each player's payoff has
        # the broadcast shape and the bits of that player's payoff_surface
        # call and of a float call at every point.
        game = builtin_game("chicken")
        ent, s1, s2 = random_ent(rng), random_strategy(rng), random_strategy(rng)
        ch1, ch2 = pairing.crossings((rng.random(), rng.random()),
                                     (rng.random(), rng.random()))
        n = 12

        def column(lo, hi):
            return np.array([rng.uniform(lo, hi) for _ in range(n)])

        mesh = StrategySpace(4, 5, 3).mesh()
        samples = [column(lo, hi) for lo, hi in [(0.0, PI / 2)] * 2
                   + [(0.0, PI), (-PI, PI), (-PI, PI)] * 2 + [(0.0, 1.0)] * 4]
        cases = [
            (ent, s1, s2, *pairing.crossings((column(0, 1), column(0, 1)),
                                             (column(0, 1), column(0, 1))), (n,)),
            (ent, StrategyParams(*mesh), s2, ch1, ch2, (4, 5, 3)),
            (ent, s1, StrategyParams(*mesh), ch1, ch2, (4, 5, 3)),
            (EntanglementParams(*samples[:2]), StrategyParams(*samples[2:5]),
             StrategyParams(*samples[5:8]),
             *pairing.crossings(tuple(samples[8:10]), tuple(samples[10:])), (n,)),
        ]
        for e, a, b, c1, c2, shape in cases:
            pair = closed_payoff_pair(game, e, a, b, c1, c2)
            for got, entries in zip(pair, (game.a, game.b)):
                own = payoff_surface(batch_weights(e, c1, c2), entries, e,
                                     *a.angles, *b.angles)
                assert got.shape == own.shape == shape
                assert np.array_equal(got, own)
            params = [np.broadcast_to(x, shape) for x in
                      (e.gamma, e.delta, *a.angles, *b.angles, c1.p, c1.mu, c2.p, c2.mu)]
            for idx in np.ndindex(shape):
                x = [float(v[idx]) for v in params]
                assert (pair[0][idx], pair[1][idx]) == closed_payoff_pair(
                    game, EntanglementParams(*x[:2]), StrategyParams(*x[2:5]),
                    StrategyParams(*x[5:8]), *pairing.crossings(tuple(x[8:10]), tuple(x[10:])))

    def test_channel_arrays_broadcast(self):
        p = np.array([0.0, 0.3, 1.0]).reshape(3, 1)
        mu = np.array([0.2, 0.9])
        w = batch_weights(EntanglementParams(0.4, 0.6),
                          *Pairing.AD_D.crossings((p, 0.5), (0.7, mu)))
        assert np.shape(w.f_diag) == (3, 2)
        assert w.h_off[1, 0] == pairing_weights(
            EntanglementParams(0.4, 0.6),
            *Pairing.AD_D.crossings((0.3, 0.5), (0.7, 0.2))).h_off

    @pytest.mark.parametrize("name,p,mu,bad", [
        ("p", [0.2, 1.5, -1.0], 0.3, "1.5"),
        ("mu", 0.3, [0.0, float("nan")], "nan"),
    ])
    def test_array_range_error_names_first_bad_value(self, name, p, mu, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 1\], got {bad}$"):
            batch_weights(EntanglementParams(0.0, 0.0),
                          *Pairing.AD_AD.crossings((np.asarray(p), np.asarray(mu)),
                                                   (0.0, 0.0)))

    def test_entry_count_validated(self):
        ent = EntanglementParams(0, 0)
        w = batch_weights(ent, *Pairing.PH_PH.crossings((0, 0), (0, 0)))
        with pytest.raises(ValueError):
            payoff_surface(w, (1, 2, 3), ent, 0, 0, 0, 0, 0, 0)


def unsplit_payoff(w, entries, ent, angles):
    """The payoff as one expression, as written before ``payoff_coeffs``,
    ``angle_terms`` and ``sum_products`` split it, with the angle factors
    from the raw angles."""
    e00, e01, e10, e11 = np.asarray(entries, dtype=float)
    t = SimpleNamespace(**raw_angle_terms(ent, *angles))
    xi = 0.5 * np.sin(ent.delta) * np.sin(ent.gamma)

    def sector(weights):
        w00, w11, w01, w10 = weights
        return w00 * e00 + w11 * e11 + w01 * e01 + w10 * e10

    return (
        t.cc * sector(w.cc)
        + t.ss * sector(w.ss)
        + t.sc * sector(w.sc)
        + t.cs * sector(w.cs)
        + xi * w.f_diag * (e00 - e11) * t.f_diag
        + xi * w.f_off * (e01 - e10) * t.f_off
        + t.gamma * (-(w.g00 * e00 + w.g11 * e11) + w.g_off * (e01 + e10))
        + t.delta * (w.h_diag * (e00 - e11) * t.sin_diag
                     + w.h_off * (e01 - e10) * t.sin_off)
    )


class TestCoefficientAssembly:
    # A deviation scan assembles one player's payoff from the coefficient
    # table into two reused buffers.  It must give the bits of a fresh
    # evaluation and of the unsplit expression; the theta, alpha and beta
    # axes have different sizes, so a transposed buffer cannot pass.
    @pytest.mark.parametrize("pairing", ALL_PAIRINGS)
    def test_buffers_match_fresh_arrays_and_unsplit_expression(self, pairing, rng):
        ent, s1, s2 = random_ent(rng), random_strategy(rng), random_strategy(rng)
        ch1, ch2 = pairing.crossings((rng.random(), rng.random()),
                                     (rng.random(), rng.random()))
        w = batch_weights(ent, ch1, ch2)
        grid = np.meshgrid(np.linspace(0, PI, 5), np.linspace(-PI, PI, 7),
                           np.linspace(-PI, PI, 3), indexing="ij", sparse=True)
        game = builtin_game("chicken")
        for angles in ((*grid, *s2.angles), (*s1.angles, *grid)):
            sectors, phases = angle_terms(ent, *angles)
            products = [(idx, scale, build()) for idx, scale, build in phases]
            for entries in (game.a, game.b, random_entries(rng)):
                k = payoff_coeffs(w, entries, ent)
                bufs = [np.full((5, 7, 3), np.nan) for _ in range(2)]
                got = sum_products(sectors, k, products, bufs)
                fresh = sum_products(sectors, k, products)
                assert got is bufs[0] and fresh.shape == (5, 7, 3)
                assert np.array_equal(got, fresh)
                assert np.array_equal(fresh, unsplit_payoff(w, entries, ent, angles))

    @pytest.mark.parametrize("pairing", ALL_PAIRINGS)
    def test_profile_point_and_channel_arrays_match_unsplit_expression(
            self, pairing, rng):
        # The profile payoffs of a certificate: one point of strategy angles
        # against arrays of channel points, as nash evaluates them.
        ent, s1, s2 = random_ent(rng), random_strategy(rng), random_strategy(rng)
        ch = (np.array([rng.random() for _ in range(6)] + [0.0, 1.0]),
              np.array([rng.random() for _ in range(6)] + [1.0, 0.0]))
        ch1, ch2 = pairing.crossings(ch, ch)
        w = batch_weights(ent, ch1, ch2)
        angles = (*s1.angles, *s2.angles)
        sectors, phases = angle_terms(ent, *angles)
        entries = random_entries(rng)
        got = payoff_surface(w, entries, ent, *angles)
        assert got.shape == (8,)
        k = payoff_coeffs(w, entries, ent)
        products = [(idx, scale, build()) for idx, scale, build in phases]
        assert np.array_equal(got, sum_products(sectors, k, products))
        assert np.array_equal(got, unsplit_payoff(w, entries, ent, angles))

    def test_rows_build_data(self, rng):
        # A row's build() gives one array per coefficient index, no function:
        # a scan sums the parts of a whole stack at every live point.
        grid = StrategySpace(3, 4, 5).mesh()
        _, phases = angle_terms(random_ent(rng), *grid, *random_strategy(rng).angles)
        assert [idx for idx, *_ in phases] == [(4,), (5,), (6,), (7, 8)]
        for idx, scale, build in phases:
            parts = build()
            assert len(parts) == len(idx) and not callable(scale)
            assert all(isinstance(x, np.ndarray) and x.ndim == 3 for x in parts)


class TestPairingEnum:
    def test_round_trip(self):
        for pairing in ALL_PAIRINGS:
            assert Pairing.from_string(pairing.value) is pairing

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            Pairing.from_string("xy-zz")
