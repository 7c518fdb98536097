import itertools
import math

import numpy as np
import pytest

from conftest import random_ent, random_strategy
from reference import best_response

from qgmem.closedform import Pairing, closed_payoff_pair, payoff_surface
from qgmem.equilibrium import (CASE_IDS, CLASSICAL_SPACE, DEFAULT_EPSILON, PM_GRID,
                               QUANTUM_SPACE, CaseReport, StrategySpace,
                               _nash_rows, case_study, check_profile)
from qgmem.equilibrium import FIGURES
from qgmem.games import Bimatrix, builtin_game
from qgmem.protocol import EntanglementParams, StrategyParams

PI = math.pi
CLASSICAL_POINT = EntanglementParams(0.0, 0.0)
NOISELESS = (0.0, 0.0)


# (pairing, game, ent, ch1, ch2) of the noiseless classical prisoner's dilemma.
CLASSICAL_PD = (Pairing.PH_PH, builtin_game("pd"), CLASSICAL_POINT,
                NOISELESS, NOISELESS)


class TestStrategySpace:
    def test_axes_include_endpoints(self):
        theta, alpha, beta = StrategySpace(5, 5, 5).axes()
        assert theta[0] == 0.0 and theta[-1] == PI
        assert alpha[0] == -PI and alpha[-1] == PI

    def test_classical_collapses_phases(self):
        theta, alpha, beta = CLASSICAL_SPACE.axes()
        assert list(alpha) == [0.0] and list(beta) == [0.0]

    def test_minimum_counts(self):
        with pytest.raises(ValueError):
            StrategySpace(theta_points=1)

    @pytest.mark.parametrize("space", [StrategySpace(3, 4, 5), CLASSICAL_SPACE,
                                       QUANTUM_SPACE])
    def test_open_mesh_broadcasts_to_dense_mesh(self, space):
        dense = np.meshgrid(*space.axes(), indexing="ij")
        for open_axis, full in zip(np.broadcast_arrays(*space.mesh()), dense):
            assert open_axis.shape == full.shape
            assert np.array_equal(open_axis, full)


class TestBestResponse:
    def test_defection_dominates_classical_pd(self):
        for theta, responder in itertools.product((0.0, PI / 3, PI), (1, 2)):
            moves = best_response(*CLASSICAL_PD, CLASSICAL_SPACE, StrategyParams(theta),
                                  responder=responder)
            assert all(m.theta == pytest.approx(PI) for m in moves)

    def test_responder_validated(self):
        with pytest.raises(ValueError, match="^responder must be 1 or 2, got 3$"):
            best_response(*CLASSICAL_PD, CLASSICAL_SPACE,
                          StrategyParams(0.0), responder=3)

    def test_constant_evaluator_keeps_whole_grid(self):
        ones = Bimatrix("ones", (1, 1, 1, 1), (1, 1, 1, 1))
        space = StrategySpace(3, 3, 3)
        moves = best_response(Pairing.PH_PH, ones, CLASSICAL_POINT, NOISELESS,
                              NOISELESS, space, StrategyParams(0.0), responder=2)
        assert len(moves) == 27

    def test_affine_invariance(self):
        game = builtin_game("chicken")
        scaled = Bimatrix("scaled", game.a,
                          tuple(2.5 * v + 7 for v in game.b))
        ent = EntanglementParams(PI / 2, PI / 4)
        ch = (0.3, 0.6)
        space = StrategySpace(5, 5, 5)
        opp = StrategyParams(0.7, 0.2, -1.0)
        br1 = best_response(Pairing.AD_AD, game, ent, ch, ch, space, opp, responder=2)
        br2 = best_response(Pairing.AD_AD, scaled, ent, ch, ch, space, opp, responder=2)
        assert [(m.theta, m.alpha, m.beta) for m in br1] == \
            [(m.theta, m.alpha, m.beta) for m in br2]

    @pytest.mark.xfail(strict=True, reason=(
        "case ii-b's nominal optimum (theta=pi/2, alpha=pi/2, beta=0) is "
        "not in the quantum player's best-response set; the best response "
        "to theta1=0 is the theta2=0 family"))
    def test_nominal_ii_b_optimum_is_best_response(self):
        moves = best_response(Pairing.AD_AD, builtin_game("bos"),
                              EntanglementParams(PI / 2, 0.0), (0.5, 0.5), (0.5, 0.5),
                              QUANTUM_SPACE, StrategyParams(0.0), responder=2)
        assert any(m.theta == pytest.approx(PI / 2)
                   and m.alpha == pytest.approx(PI / 2)
                   and m.beta == pytest.approx(0.0) for m in moves)


class TestCheckProfile:
    def test_classical_pd_defection_is_nash(self):
        [(pa, pb, gain_a, gain_b)] = check_profile(
            *CLASSICAL_PD, (StrategyParams(PI), StrategyParams(PI)),
            CLASSICAL_SPACE, CLASSICAL_SPACE)
        assert max(gain_a, gain_b) <= DEFAULT_EPSILON
        assert (pa, pb) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_classical_pd_cooperation_is_not(self):
        [(_, _, gain_a, gain_b)] = check_profile(
            *CLASSICAL_PD, (StrategyParams(0.0), StrategyParams(0.0)),
            CLASSICAL_SPACE, CLASSICAL_SPACE)
        assert not max(gain_a, gain_b) <= DEFAULT_EPSILON
        assert gain_a == pytest.approx(2.0, abs=1e-12)
        assert gain_b == pytest.approx(2.0, abs=1e-12)

    def test_gains_nonnegative(self):
        [(_, _, gain_a, gain_b)] = check_profile(
            Pairing.D_D, builtin_game("bos"), EntanglementParams(0.4, 0.9),
            (0.6, 0.2), (0.6, 0.2),
            (StrategyParams(1.0, 0.5, 0.5), StrategyParams(2.0, -1.0, 1.0)),
            CLASSICAL_SPACE, QUANTUM_SPACE)
        assert gain_a >= 0
        assert gain_b >= 0


class TestCertificatePath:
    # One profile per pairing and input; the (p, mu) loop shares the angle
    # terms of the profile and of both grids across all its channel points.
    # The scans skip phase products that vanish, so the inputs make them
    # vanish: gamma = 0 or delta = 0 zeroes angle terms and the f
    # coefficients, theta1 = 0 zeroes the gamma and delta terms of Bob's grid
    # (theta1 = pi leaves them at about 1e-16, which must not be skipped),
    # and the custom game zeroes the f and h coefficient columns of Alice and
    # only the diagonal ones of Bob.  (gamma, delta, theta1); None is random.
    @pytest.mark.parametrize("pairing", list(Pairing))
    @pytest.mark.parametrize("game,gamma,delta,theta1", [
        ("chicken", None, None, None),
        ("chicken", 0.0, 0.0, None),
        ("chicken", PI / 2, 0.0, None),
        ("chicken", 0.0, PI / 2, None),
        ("chicken", None, None, 0.0),
        ("chicken", None, None, PI),
        ("custom", None, None, None),
    ])
    def test_nash_rows_match_per_point_certificates(self, pairing, game, gamma,
                                                    delta, theta1, rng):
        game = (Bimatrix("custom", (2.0, -1.0, -1.0, 2.0), (1.5, 3.0, 0.0, 1.5))
                if game == "custom" else builtin_game(game))
        ent, s1, s2 = random_ent(rng), random_strategy(rng), random_strategy(rng)
        ent = EntanglementParams(ent.gamma if gamma is None else gamma,
                                 ent.delta if delta is None else delta)
        s1 = s1 if theta1 is None else StrategyParams(theta1, s1.alpha, s1.beta)
        space_a, space_b = StrategySpace(3, 4, 5), StrategySpace(5, 6, 4)
        report = CaseReport("t")
        _nash_rows(report, pairing, game, ent, s1, s2, space_b, space_a)
        rows = report.gain_rows
        assert [(r["p"], r["mu"]) for r in rows] == \
            [(p, m) for p in PM_GRID for m in PM_GRID]
        for r in rows:
            ch = (r["p"], r["mu"])
            [(pay_a, pay_b, gain_a, gain_b)] = check_profile(
                pairing, game, ent, ch, ch, (s1, s2), space_a, space_b)
            assert (r["payoff_a"], r["payoff_b"]) == (pay_a, pay_b)
            assert (r["gain_a"], r["gain_b"]) == (gain_a, gain_b)
            # ... and those are the gains over the dense meshes.
            pa, pb = closed_payoff_pair(pairing, game, ent, s1, s2, ch, ch)
            dense_a = np.meshgrid(*space_a.axes(), indexing="ij")
            dense_b = np.meshgrid(*space_b.axes(), indexing="ij")
            best_a = payoff_surface(pairing, game.a, ent, ch, ch, *dense_a,
                                    s2.theta, s2.alpha, s2.beta).max()
            best_b = payoff_surface(pairing, game.b, ent, ch, ch, s1.theta,
                                    s1.alpha, s1.beta, *dense_b).max()
            assert (pay_a, pay_b) == (pa, pb)
            assert gain_a == max(0.0, float(best_a) - pa)
            assert gain_b == max(0.0, float(best_b) - pb)


class TestUnentangledCertificatesAreExact:
    # At gamma = delta = 0 every phase product is zero, so a responder's
    # payoff is K + M cos(theta) whatever their alpha and beta.  Its maximum
    # over the continuum lies at theta in {0, pi}, which every StrategySpace
    # grid contains: case i's grid certificates are continuum proofs.
    @pytest.mark.parametrize("pairing", list(Pairing))
    @pytest.mark.parametrize("game", ["pd", "bos", "chicken"])
    def test_no_deviation_beats_the_theta_ends(self, pairing, game, rng):
        game, ent = builtin_game(game), EntanglementParams(0.0, 0.0)
        ch1, ch2 = (rng.random(), rng.random()), (rng.random(), rng.random())
        s1, s2 = random_strategy(rng).angles, random_strategy(rng).angles
        deviations = [np.array([rng.uniform(lo, hi) for _ in range(200)])
                      for lo, hi in ((0.0, PI), (-PI, PI), (-PI, PI))]
        ends = (np.array([0.0, PI]), 0.0, 0.0)
        for entries, angles in ((game.a, lambda own: (*own, *s2)),
                                (game.b, lambda own: (*s1, *own))):
            best, deviated = (payoff_surface(pairing, entries, ent, ch1, ch2,
                                             *angles(own)).max()
                              for own in (ends, deviations))
            assert deviated <= best + 1e-12


class TestScanBuffers:
    # Each profile's deviation scans reuse two buffers over its (p, mu)
    # points.  Certifying a case's profile again, after other profiles on
    # other grids ran, must give the same rows: no buffer carries state.
    def test_nash_rows_repeat_after_other_profiles(self, rng):
        bos, fig = builtin_game("bos"), FIGURES[4]  # case ii-b's profile

        def rows(pairing, game, ent, s1, s2, space_b, space_a=CLASSICAL_SPACE):
            report = CaseReport("t")
            _nash_rows(report, pairing, game, ent, s1, s2, space_b, space_a)
            return report.gain_rows

        first = rows(Pairing.AD_AD, bos, fig.ent, fig.s1, fig.s2, QUANTUM_SPACE)
        assert max(r["gain_b"] for r in first) > 0.5
        for pairing in Pairing:
            rows(pairing, builtin_game("pd"), random_ent(rng), random_strategy(rng),
                 random_strategy(rng), StrategySpace(4, 3, 6), StrategySpace(2, 5, 3))
        assert rows(Pairing.AD_AD, bos, fig.ent, fig.s1, fig.s2, QUANTUM_SPACE) == first


class TestCaseStudies:
    def test_unknown_case(self):
        with pytest.raises(KeyError):
            case_study("v")

    def test_all_cases_run(self):
        for case_id in CASE_IDS:
            report = case_study(case_id)
            assert isinstance(report, CaseReport)
            assert report.claims

    def test_case_i_phase_independence_passes(self):
        report = case_study("i")
        claim = next(c for c in report.claims if c.label == "phase-independence")
        assert claim.passed

    def test_case_ii_b_advantage_passes(self):
        report = case_study("ii-b")
        claim = next(c for c in report.claims if "advantage" in c.label)
        assert claim.passed

    def test_case_ii_d_runs_green(self):
        assert all(c.passed for c in case_study("ii-d").claims)

    @pytest.mark.xfail(strict=True, reason=(
        "case ii-b's nominal profile is not an equilibrium: the quantum "
        "player's best response to theta1=0 is the theta2=0 family (gain up "
        "to 1.0 on the grid)"))
    def test_case_ii_b_nash_certificate(self):
        report = case_study("ii-b")
        assert report.nash_certified

    def test_gain_rows_structured(self):
        rows = case_study("ii-b").gain_rows
        assert len(rows) == 25
        assert all(r["gain_a"] >= 0 and r["gain_b"] >= 0 for r in rows)
