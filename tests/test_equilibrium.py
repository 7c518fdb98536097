import itertools
import math
from collections import Counter
import tracemalloc

import numpy as np
import pytest

from conftest import count_calls, random_ent, random_strategy, rebind
from reference import best_response, raw_angle_terms

from qgmem import closedform
from qgmem.closedform import (Pairing, angle_terms, batch_weights, closed_payoff_pair,
                               grid_maxima, payoff_coeffs, payoff_surface, stacked_entries,
                               sum_products)
from qgmem.cli import GAIN_COLUMNS
from qgmem.equilibrium import (ALICE_MESH, CASE_IDS, DEFAULT_EPSILON, MU_GRID_11, PM_GRID,
                               QUANTUM_SPACE, CaseReport, StrategySpace, _CASES, _MU_SUBSET,
                               _least, _nash, case_study, check_profile, mu_curves)
from qgmem.equilibrium import FIGURES
from qgmem.games import GAME_NAMES, Bimatrix, builtin_game
from qgmem.protocol import EntanglementParams, StrategyParams

PI = math.pi
CLASSICAL_POINT = EntanglementParams(0.0, 0.0)
NOISELESS = (0.0, 0.0)
# Alice's deviation axes in every certificate: 13 thetas at alpha = beta = 0.
ALICE_AXES = (np.linspace(0.0, PI, 13), np.zeros(1), np.zeros(1))


def gain_rows(report):
    """The gain tables of the report's claims as one tuple per certificate and
    (p, mu) point, in GAIN_COLUMNS order: each table's columns broadcast, last
    axis fastest, as ``cli.table_rows`` writes them."""
    tables = [claim.gains for claim in report.claims if claim.gains is not None]
    return [row for table in tables for row in zip(*(
        np.broadcast_to(c, np.broadcast_shapes(*map(np.shape, table))).ravel().tolist()
        for c in table))]


def certified(report):
    """Whether every claim of the report that carries a gain table passed."""
    return all(claim.passed for claim in report.claims if claim.gains is not None)


# (game, ent, ch1, ch2) of the noiseless classical prisoner's dilemma.
CLASSICAL_PD = (builtin_game("pd"), CLASSICAL_POINT,
                *Pairing.PH_PH.crossings(NOISELESS, NOISELESS))


class TestStrategySpace:
    def test_axes_include_endpoints(self):
        theta, alpha, beta = StrategySpace(5, 5, 5).axes()
        assert theta[0] == 0.0 and theta[-1] == PI
        assert alpha[0] == -PI and alpha[-1] == PI

    def test_classical_collapses_phases(self):
        theta, alpha, beta = ALICE_MESH
        assert list(alpha.ravel()) == [0.0] and list(beta.ravel()) == [0.0]

    def test_alice_mesh_holds_both_theta_ends(self):
        # Case i's continuum argument needs theta = 0 and theta = pi, at
        # alpha = beta = 0, on Alice's grid.
        theta, alpha, beta = ALICE_MESH
        assert [(x.shape, x.dtype) for x in ALICE_MESH] == \
            [((13, 1, 1), np.float64), ((1, 1, 1), np.float64), ((1, 1, 1), np.float64)]
        assert np.array_equal(theta.ravel(), ALICE_AXES[0])
        assert (theta.flat[0], theta.flat[-1], alpha.item(), beta.item()) == (0.0, PI, 0.0, 0.0)

    def test_minimum_counts(self):
        with pytest.raises(ValueError):
            StrategySpace(theta_points=1)

    @pytest.mark.parametrize("space", [StrategySpace(3, 4, 5), QUANTUM_SPACE])
    def test_open_mesh_broadcasts_to_dense_mesh(self, space):
        dense = np.meshgrid(*space.axes(), indexing="ij")
        for open_axis, full in zip(np.broadcast_arrays(*space.mesh()), dense):
            assert open_axis.shape == full.shape
            assert np.array_equal(open_axis, full)


class TestBestResponse:
    def test_defection_dominates_classical_pd(self):
        for theta, responder in itertools.product((0.0, PI / 3, PI), (1, 2)):
            moves = best_response(*CLASSICAL_PD, QUANTUM_SPACE, StrategyParams(theta),
                                  responder=responder)
            assert all(m.theta == pytest.approx(PI) for m in moves)

    def test_responder_validated(self):
        with pytest.raises(ValueError, match="^responder must be 1 or 2, got 3$"):
            best_response(*CLASSICAL_PD, QUANTUM_SPACE,
                          StrategyParams(0.0), responder=3)

    def test_constant_evaluator_keeps_whole_grid(self):
        ones = Bimatrix("ones", (1, 1, 1, 1), (1, 1, 1, 1))
        space = StrategySpace(3, 3, 3)
        moves = best_response(ones, CLASSICAL_POINT,
                              *Pairing.PH_PH.crossings(NOISELESS, NOISELESS),
                              space, StrategyParams(0.0), responder=2)
        assert len(moves) == 27

    def test_affine_invariance(self):
        game = builtin_game("chicken")
        scaled = Bimatrix("scaled", game.a,
                          tuple(2.5 * v + 7 for v in game.b))
        ent = EntanglementParams(PI / 2, PI / 4)
        ch1, ch2 = Pairing.AD_AD.crossings((0.3, 0.6), (0.3, 0.6))
        space = StrategySpace(5, 5, 5)
        opp = StrategyParams(0.7, 0.2, -1.0)
        br1 = best_response(game, ent, ch1, ch2, space, opp, responder=2)
        br2 = best_response(scaled, ent, ch1, ch2, space, opp, responder=2)
        assert [(m.theta, m.alpha, m.beta) for m in br1] == \
            [(m.theta, m.alpha, m.beta) for m in br2]

    @pytest.mark.xfail(strict=True, reason=(
        "case ii-b's nominal optimum (theta=pi/2, alpha=pi/2, beta=0) is "
        "not in the quantum player's best-response set; the best response "
        "to theta1=0 is the theta2=0 family"))
    def test_nominal_ii_b_optimum_is_best_response(self):
        moves = best_response(builtin_game("bos"), EntanglementParams(PI / 2, 0.0),
                              *Pairing.AD_AD.crossings((0.5, 0.5), (0.5, 0.5)),
                              QUANTUM_SPACE, StrategyParams(0.0), responder=2)
        assert any(m.theta == pytest.approx(PI / 2)
                   and m.alpha == pytest.approx(PI / 2)
                   and m.beta == pytest.approx(0.0) for m in moves)


class TestCheckProfile:
    def test_classical_pd_defection_is_nash(self):
        game, *point = CLASSICAL_PD
        [[(pa, pb, gain_a, gain_b)]] = check_profile(
            *point, [(game, StrategyParams(PI), StrategyParams(PI))], QUANTUM_SPACE)
        assert max(gain_a, gain_b) <= DEFAULT_EPSILON
        assert (pa, pb) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_classical_pd_cooperation_is_not(self):
        game, *point = CLASSICAL_PD
        [[(_, _, gain_a, gain_b)]] = check_profile(
            *point, [(game, StrategyParams(0.0), StrategyParams(0.0))], QUANTUM_SPACE)
        assert not max(gain_a, gain_b) <= DEFAULT_EPSILON
        assert gain_a == pytest.approx(2.0, abs=1e-12)
        assert gain_b == pytest.approx(2.0, abs=1e-12)

    def test_gains_nonnegative(self):
        [[(_, _, gain_a, gain_b)]] = check_profile(
            EntanglementParams(0.4, 0.9), *Pairing.D_D.crossings((0.6, 0.2), (0.6, 0.2)),
            [(builtin_game("bos"), StrategyParams(1.0, 0.5, 0.5),
              StrategyParams(2.0, -1.0, 1.0))],
            QUANTUM_SPACE)
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
    # only the diagonal ones of Bob.  At gamma or delta = 5e-324 the
    # amplitude 0.25 n sin and the f factor xi underflow to 0, so the scan
    # drops those products before building them; at 1e-310 both are
    # subnormal but not 0, so the terms are built and kept, and with
    # theta1 = pi Bob's amplitude underflows through n.  (gamma, delta,
    # theta1); None is random.
    INPUTS = [
        ("chicken", None, None, None),
        ("chicken", 0.0, 0.0, None),
        ("chicken", PI / 2, 0.0, None),
        ("chicken", 0.0, PI / 2, None),
        ("chicken", None, None, 0.0),
        ("chicken", None, None, PI),
        ("custom", None, None, None),
        ("chicken", 5e-324, None, None),
        ("chicken", 1e-310, None, None),
        ("chicken", None, 5e-324, None),
        ("chicken", None, 1e-310, PI),
    ]

    @staticmethod
    def inputs(game, gamma, delta, theta1, rng):
        game = (Bimatrix("custom", (2.0, -1.0, -1.0, 2.0), (1.5, 3.0, 0.0, 1.5))
                if game == "custom" else builtin_game(game))
        ent, s1, s2 = random_ent(rng), random_strategy(rng), random_strategy(rng)
        ent = EntanglementParams(ent.gamma if gamma is None else gamma,
                                 ent.delta if delta is None else delta)
        s1 = s1 if theta1 is None else StrategyParams(theta1, s1.alpha, s1.beta)
        return game, ent, s1, s2

    @pytest.mark.parametrize("pairing", list(Pairing))
    @pytest.mark.parametrize("game,gamma,delta,theta1,equal_phases", [
        *((*row, False) for row in INPUTS),
        # Classical Alice against a Bob with beta2 = alpha2: on Alice's grid
        # the gamma term is its amplitude times sin(0), zero although the
        # amplitude is not, so the scan adds a product that is +-0 everywhere.
        ("chicken", None, None, None, True)])
    def test_nash_rows_match_per_point_certificates(self, pairing, game, gamma,
                                                    delta, theta1, equal_phases, rng):
        # ``_nash``'s rows are the per-point certificates, whose gains are
        # those over the dense meshes of Alice's axes and Bob's grid.
        game, ent, s1, s2 = self.inputs(game, gamma, delta, theta1, rng)
        space_b = StrategySpace(5, 6, 4)
        if equal_phases:
            s2 = StrategyParams(s2.theta, s2.alpha, s2.alpha)
        report = CaseReport("t", space_b)
        _nash(report, "nash", ent, [(pairing, game, s1, s2)])
        rows = gain_rows(report)
        assert [r[3:5] for r in rows] == [(p, m) for p in PM_GRID for m in PM_GRID]
        for *_, p, m, row_pay_a, row_pay_b, row_gain_a, row_gain_b in rows:
            ch1, ch2 = pairing.crossings((p, m), (p, m))
            pa, pb = closed_payoff_pair(game, ent, s1, s2, ch1, ch2)
            w = batch_weights(ent, ch1, ch2)
            dense_b = np.meshgrid(*space_b.axes(), indexing="ij")
            best_b = payoff_surface(w, game.b, ent, s1.theta,
                                    s1.alpha, s1.beta, *dense_b).max()
            [[(pay_a, pay_b, gain_a, gain_b)]] = check_profile(
                ent, ch1, ch2, [(game, s1, s2)], space_b)
            assert (row_pay_a, row_pay_b) == (pay_a, pay_b)
            assert (row_gain_a, row_gain_b) == (gain_a, gain_b)
            dense_a = np.meshgrid(*ALICE_AXES, indexing="ij")
            best_a = payoff_surface(w, game.a, ent, *dense_a,
                                    s2.theta, s2.alpha, s2.beta).max()
            assert (pay_a, pay_b) == (pa, pb)
            assert gain_a == max(0.0, float(best_a) - pa)
            assert gain_b == max(0.0, float(best_b) - pb)

    # A subnormal product cannot move an O(1) maximum, so the gains above
    # cannot see a wrong skip there; the liveness itself is compared with
    # the rule on amplitudes built from the raw angles: a product is live
    # iff its scale and some coefficient column are non-zero.  The third
    # grid is classical against alpha2 = beta2, where the gamma term is its
    # amplitude times sin(0): zero although the amplitude is not, so it is
    # live.  The products that ``grid_maxima`` hands to ``sum_products`` are
    # its live rows, at each point those with a non-zero factor there, each
    # with its own factor group's values at that point and the bits of a
    # full build of ``angle_terms`` and of the raw terms.  COLUMNS names the
    # phase rows in ``angle_terms``' order, each with its raw parts, one per
    # factor of its group.
    COLUMNS = {"f_diag": ("f_diag",), "f_off": ("f_off",), "gamma": ("gamma",),
               "delta": ("sin_diag", "sin_off")}

    @pytest.mark.parametrize("pairing", list(Pairing))
    @pytest.mark.parametrize("game,gamma,delta,theta1", INPUTS)
    def test_scan_liveness_matches_built_terms(self, pairing, game, gamma, delta,
                                               theta1, rng, monkeypatch):
        game, ent, s1, s2 = self.inputs(game, gamma, delta, theta1, rng)
        ch = tuple(np.array(axis) for axis in zip(*itertools.product(PM_GRID, PM_GRID)))
        w = batch_weights(ent, *pairing.crossings(ch, ch))
        handed = []

        def recording(sectors, sums, products, out=None):
            handed.extend(products)
            return sum_products(sectors, sums, products, out)

        monkeypatch.setattr(closedform, "sum_products", recording)

        def fixed(*angles):  # one profile, one channel axis, three grid axes
            return [np.reshape(x, (1,) * 5) for x in angles]

        for entries, grid in ((game.a, (*StrategySpace(3, 4, 5).mesh(), *fixed(*s2.angles))),
                              (game.b, (*fixed(*s1.angles), *StrategySpace(5, 6, 4).mesh())),
                              (game.a, (*ALICE_MESH,
                                        *fixed(s2.theta, s2.alpha, s2.alpha)))):
            _, groups = payoff_coeffs(w, entries, ent)
            table = [[np.broadcast_to(c, (25,)) for c in group] for group in groups]
            raw = raw_angle_terms(ent, *grid)
            amps = [1.0, 1.0, raw["gamma_amp"], raw["delta"]]
            live = [r for r, group in enumerate(table)
                    if np.any(amps[r]) and any(np.any(c) for c in group)]
            want = [(r, tuple(c[i] for c in table[r])) for i in range(25)
                    for r in live if any(c[i] for c in table[r])]
            handed.clear()
            grid_maxima(w, stacked_entries([entries], 1), ent, (1, 25), *grid)
            assert sorted({r for r, _ in want}) == live
            assert len(handed) == len(want)
            full = [(scale, build()) for scale, build in angle_terms(ent, *grid)[1]]
            raws = [[raw[name] for name in parts] for parts in self.COLUMNS.values()]
            for (k, scale, parts), (r, k_want) in zip(handed, want):
                assert k == k_want and len(parts) == len(raws[r])
                for got, whole in zip((scale, *parts), (full[r][0], *full[r][1])):
                    assert np.array_equal(got, whole)
                assert [x.tobytes() for x in parts] == [x.tobytes() for x in raws[r]]


class TestStackedCertificates:
    # A stack of profiles gives each profile the bytes of a stack of that
    # profile alone: mixed games, each profile with its own angles, at
    # channel points of several shapes.  With gamma and delta random and non
    # zero, and theta random, the phase products are live, so each point is
    # summed over the whole stack and read from its profile's slice; the
    # theta1 = 0 profile's products are dead on Bob's grid although the
    # stack's are live (its slice adds +-0 products), and at p = 0 or mu = 0
    # some points skip products that others add.  Each call builds the angle
    # terms three times: once for the payoffs and once per ``grid_maxima``
    # call, whose points all sum that one build.
    CHANNELS = [
        (tuple(np.array(axis) for axis in zip(*itertools.product(PM_GRID, PM_GRID))),),
        ((np.array([[0.0], [0.4], [1.0]]), np.array([0.0, 0.7])),),
        ((0.3, 0.6),),
    ]

    @staticmethod
    def stack(rng):
        custom = Bimatrix("custom", (2.0, -1.0, -1.0, 2.0), (1.5, 3.0, 0.0, 1.5))
        games = [builtin_game("pd"), builtin_game("bos"), custom, builtin_game("chicken")]
        stack = [(game, random_strategy(rng), random_strategy(rng)) for game in games]
        _, s1, s2 = stack[2]  # Alice plays theta = 0 in the custom game
        stack[2] = (custom, StrategyParams(0.0, s1.alpha, s1.beta), s2)
        return stack

    @pytest.mark.parametrize("pairing", list(Pairing))
    @pytest.mark.parametrize("channels", range(len(CHANNELS)))
    def test_stack_has_the_bytes_of_single_profiles(self, pairing, channels, rng,
                                                    monkeypatch):
        [ch] = self.CHANNELS[channels]
        ent = EntanglementParams(rng.uniform(0.1, PI / 2), rng.uniform(0.1, PI / 2))
        crossings, stack = pairing.crossings(ch, ch), self.stack(rng)
        terms = count_calls(monkeypatch, angle_terms)
        scans = count_calls(monkeypatch, grid_maxima)
        space_b = StrategySpace(5, 6, 4)
        stacked = check_profile(ent, *crossings, stack, space_b)
        assert (len(scans), len(terms)) == (2, 3)
        single = [check_profile(ent, *crossings, [profile], space_b)[0] for profile in stack]
        assert len(stacked) == len(stack)
        assert np.array(stacked).tobytes() == np.array(single).tobytes()

    @pytest.mark.parametrize("channels", range(len(CHANNELS)))
    def test_certificates_are_one_float_array(self, channels, rng):
        # Indexed (profile, point, column), as ``_nash`` stores it: each
        # profile's slice has the bytes of a one-profile call.
        [ch] = self.CHANNELS[channels]
        ent, crossings, stack = random_ent(rng), Pairing.D_AD.crossings(ch, ch), self.stack(rng)
        space = StrategySpace(5, 6, 4)
        certs = check_profile(ent, *crossings, stack, space)
        points = np.broadcast(*ch).size
        assert isinstance(certs, np.ndarray)
        assert (certs.dtype, certs.shape) == (np.float64, (len(stack), points, 4))
        for q, profile in enumerate(stack):
            [single] = check_profile(ent, *crossings, [profile], space)
            assert certs[q].tobytes() == single.tobytes()

    def test_nash_rows_keep_profile_order_across_pairings(self, rng):
        # Two pairings' stacks, interleaved: each profile's gain rows are its
        # own one-profile certificate, in profile order.
        ent, space_b = random_ent(rng), StrategySpace(5, 6, 4)
        profiles = [(pairing, *profile) for profile in self.stack(rng)
                    for pairing in (Pairing.D_AD, Pairing.PH_PH)]
        report = CaseReport("x", space_b)
        _nash(report, "nash", ent, profiles)
        ch = tuple(np.array(axis) for axis in zip(*itertools.product(PM_GRID, PM_GRID)))
        want = [(pairing.value, game.name, *row) for pairing, game, *profile in profiles
                for row in check_profile(ent, *pairing.crossings(ch, ch), [(game, *profile)],
                                         space_b)[0].tolist()]
        assert [r[1:3] + r[5:] for r in gain_rows(report)] == want


class TestNaNNeverPasses:
    # A NaN payoff or maximum must fail every claim it reaches: Python's
    # ``max(0.0, nan)`` is 0.0, and ``max``/``min`` drop a NaN that comes
    # after a number.  Each patch rebinds the function in every qgmem module.
    def test_nan_maxima_fail_the_certificate(self, monkeypatch, capsys):
        from qgmem import cli

        rebind(monkeypatch, grid_maxima,
               lambda *args: np.full(np.shape(grid_maxima(*args)), np.nan))
        assert cli.main(["nash", "--case", "ii-b", "--grid", "3x3x3"]) == 4
        assert "[FAIL] nash: nominal profile: worst unilateral gain = nan" \
            in capsys.readouterr().out
        assert not certified(case_study("ii-b", StrategySpace(3, 3, 3)))

    def test_one_nan_maximum_fails_a_certified_claim(self, monkeypatch):
        # Defection in the dephased prisoner's dilemma certifies at every
        # (p, mu); a NaN maximum at Bob's last point alone must fail it.
        defect = StrategyParams(PI)
        profiles = [(Pairing.PH_PH, builtin_game("pd"), defect, defect)]
        report = CaseReport("t", QUANTUM_SPACE)
        _nash(report, "nash", CLASSICAL_POINT, profiles)
        assert certified(report) and report.claims[0].passed

        def last_nan(*args):
            best = grid_maxima(*args)
            best.flat[-1] = np.nan
            return best

        rebind(monkeypatch, grid_maxima, last_nan)
        report = CaseReport("t", QUANTUM_SPACE)
        _nash(report, "nash", CLASSICAL_POINT, profiles)
        assert not certified(report) and not report.claims[0].passed
        assert report.claims[0].detail == "worst unilateral gain = nan"

    def test_a_trailing_nan_payoff_fails_the_claims(self, monkeypatch):
        def last_nan(*args, **kwargs):
            out = np.array(payoff_surface(*args, **kwargs), dtype=float)
            out.flat[-1] = np.nan
            return out

        rebind(monkeypatch, payoff_surface, last_nan)
        claims = {(case_id, c.label): c for case_id in ("i", "ii-b", "ii-d", "iv")
                  for c in case_study(case_id, StrategySpace(3, 3, 3)).claims}
        assert not claims["i", "phase-independence"].passed
        assert claims["i", "phase-independence"].detail.endswith(" grid = nan")
        assert not claims["ii-d", "equal payoffs (unital pairings)"].passed
        assert not claims["ii-b", "quantum advantage (bos, p=0.5)"].passed
        assert "ad-ad: min margin +nan" in claims["ii-b", "quantum advantage (bos, p=0.5)"].detail
        assert "margin = +nan at ad-ad/chicken/mu=1.0" in \
            claims["iv", "advantage at maximum noise (p=1)"].detail

    def test_a_negative_zero_difference_gives_gain_plus_zero(self, monkeypatch):
        rebind(monkeypatch, grid_maxima,
               lambda *args: np.full(np.shape(grid_maxima(*args)), -0.0))
        rebind(monkeypatch, payoff_surface,
               lambda *args: np.zeros(np.shape(payoff_surface(*args))))
        game, *point = CLASSICAL_PD
        [[row]] = check_profile(*point, [(game, StrategyParams(PI), StrategyParams(PI))],
                                QUANTUM_SPACE)
        assert [math.copysign(1.0, x) for x in row] == [1.0, 1.0, 1.0, 1.0]


class TestLeast:
    # Along the last axis, the first of equal least values, as Python's
    # ``min`` picks it (``np.min`` may return the last of +0.0 and -0.0, and
    # the printed margin shows the sign), or the first NaN.
    def test_first_least_or_first_nan(self):
        rows = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, np.nan, -1.0]])
        least = _least(rows)
        assert [f"{m:+.4f}" for m in least] == ["+0.0000", "-0.0000", "+nan"]
        assert [f"{_least(row):+.4f}" for row in rows] == ["+0.0000", "-0.0000", "+nan"]


class TestUnentangledCertificatesAreExact:
    # At gamma = delta = 0 every phase product is zero, so a responder's
    # payoff is K + M cos(theta) whatever their alpha and beta.  Its maximum
    # over the continuum lies at theta in {0, pi}, which ALICE_MESH and every
    # StrategySpace grid contain: case i's grid certificates are continuum
    # proofs.
    @pytest.mark.parametrize("pairing", list(Pairing))
    @pytest.mark.parametrize("game", ["pd", "bos", "chicken"])
    def test_no_deviation_beats_the_theta_ends(self, pairing, game, rng):
        game, ent = builtin_game(game), EntanglementParams(0.0, 0.0)
        ch1, ch2 = pairing.crossings((rng.random(), rng.random()),
                                     (rng.random(), rng.random()))
        s1, s2 = random_strategy(rng).angles, random_strategy(rng).angles
        deviations = [np.array([rng.uniform(lo, hi) for _ in range(200)])
                      for lo, hi in ((0.0, PI), (-PI, PI), (-PI, PI))]
        ends = (np.array([0.0, PI]), 0.0, 0.0)
        for entries, angles in ((game.a, lambda own: (*own, *s2)),
                                (game.b, lambda own: (*s1, *own))):
            best, deviated = (payoff_surface(batch_weights(ent, ch1, ch2), entries, ent,
                                             *angles(own)).max()
                              for own in (ends, deviations))
            assert deviated <= best + 1e-12


class TestUnentangledScanBuildsNoGrid:
    # At gamma = delta = 0 every phase product is dead by its coefficients or
    # its amplitude, so a scan needs no full-size term and no buffer.
    def test_peak_below_one_full_grid_array(self):
        space = StrategySpace(2, 1001, 1001)
        ch = tuple(np.array(axis) for axis in zip(*itertools.product(PM_GRID, PM_GRID)))
        fig = FIGURES[2]
        args = (fig.ent, *Pairing.AD_AD.crossings(ch, ch),
                [(builtin_game("bos"), fig.s1, fig.s2)], space)
        check_profile(*args)
        tracemalloc.start()
        try:
            check_profile(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1001 * 1001 * np.dtype(float).itemsize


class TestScanSkipsDeadPoints:
    # At figure 6's entanglement (gamma = delta = pi/2) the ad-ad
    # coefficients of the phase products are nonzero at (p, mu) = (0.5, 0)
    # and all 0 at (1, 0), so each player's scan sums a full grid at the
    # first point and none at the second.  There the live products would
    # add +-0, which keeps every bit but the sign of a zero, so only this
    # count sees the skip.
    def test_zero_coefficient_points_sum_no_grid(self, monkeypatch):
        fig, sums = FIGURES[6], []

        def recording(sectors, sector_sums, products, out=None):
            sums.append(out is not None)
            return sum_products(sectors, sector_sums, products, out)

        monkeypatch.setattr(closedform, "sum_products", recording)
        ch = (np.array([0.5, 1.0]), np.array([0.0, 0.0]))
        check_profile(fig.ent, *Pairing.AD_AD.crossings(ch, ch),
                      [(builtin_game("bos"), fig.s1, fig.s2)], StrategySpace(5, 7, 3))
        assert sums.count(True) == 2


class TestMuCurves:
    # One call over all three games, and one over a single game, give each
    # game's p row the bits of that game's call at that float p, and the
    # (0, 0.5, 1) subset of a row the bits of a call over those mu alone.
    @pytest.mark.parametrize("pairing", list(Pairing))
    @pytest.mark.parametrize("game", ["pd", "bos", "chicken"])
    def test_rows_have_the_bits_of_float_p_calls(self, pairing, game, rng):
        game, ps = builtin_game(game), (0.0, 0.2, rng.random(), 1.0)
        games = [builtin_game(g) for g in ("pd", "bos", "chicken")]
        configs = [(f.ent, f.s1, f.s2) for f in FIGURES.values()]
        configs.append((random_ent(rng), random_strategy(rng), random_strategy(rng)))
        for ent, s1, s2 in configs:
            stacked = mu_curves([pairing], games, ent, s1, s2, ps)
            single = mu_curves([pairing], [game], ent, s1, s2, ps)
            assert stacked.shape == (2, 1, 3, len(ps), len(MU_GRID_11))
            assert single.shape == (2, 1, 1, len(ps), len(MU_GRID_11))
            for rows in (stacked[:, 0, games.index(game)], single[:, 0, 0]):
                for p, row in zip(ps, np.moveaxis(rows, 1, 0)):
                    for mus, got in ((MU_GRID_11, row), ((0.0, 0.5, 1.0), row[:, _MU_SUBSET])):
                        ch = (p, np.array(mus))
                        want = closed_payoff_pair(game, ent, s1, s2,
                                                  *pairing.crossings(ch, ch))
                        assert np.array(got).tobytes() == np.array(want).tobytes()

    # One call over all nine pairings gives each pairing's slice the bytes
    # of a call for that pairing alone: the pairing axis only stacks.
    @pytest.mark.parametrize("fid", list(FIGURES))
    def test_pairing_slices_have_the_bytes_of_one_pairing_calls(self, fid):
        fig, games = FIGURES[fid], [builtin_game(g) for g in GAME_NAMES]
        ps = (0.0, 0.2, 0.5, 0.8, 1.0)
        curves = mu_curves(list(Pairing), games, *fig[:3], ps)
        assert curves.shape == (2, len(Pairing), 3, len(ps), len(MU_GRID_11))
        for i, pairing in enumerate(Pairing):
            single = mu_curves([pairing], games, *fig[:3], ps)
            assert curves[:, i].tobytes() == single[:, 0].tobytes()


class TestScanBuffers:
    # Each profile's deviation scans reuse two buffers over its (p, mu)
    # points.  Certifying a case's profile again, after other profiles on
    # other grids ran, must give the same rows: no buffer carries state.
    def test_nash_rows_repeat_after_other_profiles(self, rng):
        bos, fig = builtin_game("bos"), FIGURES[4]  # case ii-b's profile

        def rows(pairing, game, ent, s1, s2, space_b):
            report = CaseReport("t", space_b)
            _nash(report, "nash", ent, [(pairing, game, s1, s2)])
            return gain_rows(report)

        first = rows(Pairing.AD_AD, bos, fig.ent, fig.s1, fig.s2, QUANTUM_SPACE)
        assert max(r[-1] for r in first) > 0.5
        for pairing in Pairing:
            rows(pairing, builtin_game("pd"), random_ent(rng), random_strategy(rng),
                 random_strategy(rng), StrategySpace(4, 3, 6))
        assert rows(Pairing.AD_AD, bos, fig.ent, fig.s1, fig.s2, QUANTUM_SPACE) == first


class TestWeightEvaluations:
    # The weights do not depend on the game, so a claim evaluates them once
    # per pairing for all its games; a pairing's certified profiles take one
    # for their payoffs and both coefficient tables.  Counted through every
    # qgmem module's name for ``batch_weights``.
    BUDGET = {"i": 13, "ii-a": 1, "ii-b": 2, "ii-c": 2, "ii-d": 3, "iii-a": 2,
              "iii-b": 4, "iii-c": 2, "iv": 10}

    def test_nash_all_evaluates_the_weights_at_most_39_times(self, monkeypatch, capsys):
        from qgmem import cli

        calls = count_calls(monkeypatch, batch_weights)
        per_case = {}
        for case_id in CASE_IDS:
            start = len(calls)
            case_study(case_id, StrategySpace(5, 7, 3))
            per_case[case_id] = len(calls) - start
        assert {c: n for c, n in per_case.items() if n > self.BUDGET[c]} == {}
        calls.clear()
        assert cli.main(["nash", "--case", "all", "--grid", "5x7x3"]) == 4
        capsys.readouterr()
        assert 0 < len(calls) <= sum(self.BUDGET.values()) == 39

    def test_nash_all_builds_the_angle_terms_51_times(self, monkeypatch, capsys):
        # One build per payoff_surface and per grid_maxima call: a live
        # stack's points are summed over the one build, not rebuilt.
        from qgmem import cli

        terms = count_calls(monkeypatch, angle_terms)
        weights = count_calls(monkeypatch, batch_weights)
        assert cli.main(["nash", "--case", "all", "--grid", "5x7x3"]) == 4
        capsys.readouterr()
        assert (len(terms), len(weights)) == (51, 39)

    @pytest.mark.parametrize("size", [1, 5])
    def test_check_profile_evaluates_the_weights_once(self, size, monkeypatch, rng):
        # The profile payoffs and both deviation scans share one evaluation.
        ch = tuple(np.array(axis) for axis in zip(*itertools.product(PM_GRID, PM_GRID)))
        stack = [(builtin_game(GAME_NAMES[i % 3]), random_strategy(rng), random_strategy(rng))
                 for i in range(size)]
        calls = count_calls(monkeypatch, batch_weights)
        check_profile(random_ent(rng), *Pairing.AD_D.crossings(ch, ch), stack,
                      StrategySpace(4, 3, 3))
        assert len(calls) == 1

    def test_case_i_certifies_each_pairing_in_one_call(self, monkeypatch, capsys):
        # Case i's 15 profiles span three pairings: one stacked call each.
        from qgmem import cli

        calls = count_calls(monkeypatch, check_profile)
        assert cli.main(["nash", "--case", "i", "--grid", "5x7x3"]) == 4
        capsys.readouterr()
        assert len(calls) == 3


class TestScanTraffic:
    # ``grid_maxima`` sums a point with a live phase product over its whole
    # stack, so a stack of P profiles with one does P times a profile's work.
    # Every nash claim stacks several profiles on one pairing only at
    # gamma = delta = 0, where no product is live, so every live scan that
    # the CLI makes has one profile.  A claim that breaks this should measure
    # whether per-profile scans are worth bringing back.
    def test_stacked_profiles_are_unentangled(self):
        rows = [config for rows in _CASES.values() for kind, config in rows if kind is _nash]
        stacked = [config["label"] for config in rows
                   if max(Counter(pairing for pairing, *_ in config["profiles"]).values()) > 1]
        assert stacked == ["nash: classical equilibria unchanged"]
        for config in rows:
            if config["label"] in stacked:
                assert (config["ent"].gamma, config["ent"].delta) == (0.0, 0.0)

    def test_nash_all_scans_twelve_stacks(self, monkeypatch, capsys):
        # Six scans over case i's 5-profile stacks, six over one profile.
        from qgmem import cli

        stacks = []

        def recording(weights, entries, ent, shape, *grid):
            stacks.append((shape[0], ent.gamma == ent.delta == 0))
            return grid_maxima(weights, entries, ent, shape, *grid)

        rebind(monkeypatch, grid_maxima, recording)
        assert cli.main(["nash", "--case", "all", "--grid", "5x7x3"]) == 4
        capsys.readouterr()
        assert sorted(stacks) == [(1, False)] * 6 + [(5, True)] * 6


class TestCaseStudies:
    def test_unknown_case(self):
        with pytest.raises(KeyError) as refused:
            case_study("v")
        assert refused.value.args == (f"unknown case id 'v'; choose from {', '.join(CASE_IDS)}",)

    def test_nash_profiles_play_a_classical_alice(self):
        # ``check_profile`` scans Alice on ALICE_MESH, whatever the quantum
        # grid: it holds because every certified Alice move lies in it.
        rows = [config for rows in _CASES.values() for kind, config in rows if kind is _nash]
        assert rows
        for config in rows:
            for _, _, s1, _ in config["profiles"]:
                assert (s1.alpha, s1.beta) == (0.0, 0.0), config["label"]

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_report_carries_the_quantum_grid(self, case_id):
        space = StrategySpace(3, 4, 3)
        assert case_study(case_id, space).space is space
        assert case_study(case_id).space is QUANTUM_SPACE

    def test_all_cases_run(self):
        for case_id in CASE_IDS:
            report = case_study(case_id)
            assert isinstance(report, CaseReport)
            assert report.claims

    def test_claim_flags_are_python_bools(self):
        # A numpy bool prints the same but is no JSON value.
        flags = [c.passed for case_id in CASE_IDS for c in case_study(case_id).claims]
        assert {type(flag) for flag in flags} == {bool}

    def test_claims_with_gain_tables_compare_and_hash(self):
        # A frozen claim stays a value: its gain table's arrays are left out.
        first, second = case_study("ii-b").claims, case_study("ii-b").claims
        assert first == second and list(map(hash, first)) == list(map(hash, second))

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
        assert certified(report)

    def test_gain_rows_structured(self):
        rows = gain_rows(case_study("ii-b"))
        assert len(rows) == 25
        assert all(len(r) == len(GAIN_COLUMNS) and r[-2] >= 0 and r[-1] >= 0 for r in rows)
