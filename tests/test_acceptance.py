"""Acceptance suite: one test per criterion, each printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.

Three criteria assert qualitative scenario claims that do not survive the
exact dynamics (the closed forms are pinned to the Kraus oracle at 1e-9 by
criterion 6, so the refutations are two-route facts).  Those tests are
implemented faithfully and marked strict-xfail with the blocking analysis;
flipping one of them to pass would be an error.
"""

import math
import random
import time

import numpy as np
import pytest

from reference import classical_expected, theta_weight

from qgmem.channels import (ChannelKind, ChannelSpec, single_use_kraus,
                            two_use_kraus, verify_completeness)
from qgmem.cli import CSV_HEADER, figure_rows, fmt, main
from qgmem.closedform import (Pairing, closed_payoff, closed_payoff_pair,
                              payoff_surface)
from qgmem.equilibrium import CASE_IDS
from qgmem.games import builtin_game
from qgmem.oracle import two_pass_state
from qgmem.protocol import EntanglementParams, StrategyParams, measure_payoff, \
    measurement_basis, payoff_operator, strategy_unitary
from qgmem.qmat import dagger

PI = math.pi
GRID5 = (0.0, 0.25, 0.5, 0.75, 1.0)
GAMES = {name: builtin_game(name) for name in ("pd", "bos", "chicken")}
AD_ENDING = ("ad-ad", "d-ad", "ph-ad")


def report(criterion: str, ok: bool, detail: str, expected_fail=False) -> bool:
    status = "PASS" if ok else ("FAIL (expected)" if expected_fail else "FAIL")
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    return ok


def _random_tuple(rng):
    ent = EntanglementParams(rng.uniform(0, PI / 2), rng.uniform(0, PI / 2))
    s1 = StrategyParams(rng.uniform(0, PI), rng.uniform(-PI, PI),
                        rng.uniform(-PI, PI))
    s2 = StrategyParams(rng.uniform(0, PI), rng.uniform(-PI, PI),
                        rng.uniform(-PI, PI))
    entries = tuple(rng.uniform(-2, 5) for _ in range(4))
    return entries, ent, s1, s2


def test_criterion_1_channel_algebra():
    start = time.perf_counter()
    worst = 0.0
    for kind in ChannelKind:
        for p in GRID5:
            ok, dev = verify_completeness(single_use_kraus(kind, p), tol=1e-12)
            worst = max(worst, dev)
            assert ok
            for mu in GRID5:
                ok, dev = verify_completeness(
                    two_use_kraus(ChannelSpec(kind, p, mu)), tol=1e-12)
                worst = max(worst, dev)
                assert ok
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report("1 channel-algebra", ok,
                  f"max completeness deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_protocol():
    rng = random.Random(2024)
    worst_u = 0.0
    for _ in range(1000):
        u = strategy_unitary(StrategyParams(
            rng.uniform(0, PI), rng.uniform(-PI, PI), rng.uniform(-PI, PI)))
        worst_u = max(worst_u, float(np.max(np.abs(dagger(u) @ u - np.eye(2)))))
    worst_b = 0.0
    for delta in np.linspace(0, PI / 2, 50):
        basis = measurement_basis(delta)
        gram = basis.conj() @ basis.T
        worst_b = max(worst_b, float(np.max(np.abs(gram - np.eye(4)))))
    ok = worst_u <= 1e-12 and worst_b <= 1e-12
    assert report("2 protocol", ok,
                  f"unitarity {worst_u:.2e}, basis orthonormality {worst_b:.2e}")


def test_criterion_3_normalization():
    start = time.perf_counter()
    rng = random.Random(3)
    worst = 0.0
    for pairing in Pairing:
        for _ in range(100):
            _, ent, s1, s2 = _random_tuple(rng)
            v = closed_payoff(pairing, (1, 1, 1, 1), ent, s1, s2,
                              (rng.random(), rng.random()),
                              (rng.random(), rng.random()))
            worst = max(worst, abs(v - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    assert report("3 normalization", ok,
                  f"max |payoff - 1| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_classical_reduction():
    ent = EntanglementParams(0.0, 0.0)
    worst = 0.0
    thetas = np.linspace(0, PI, 11)
    for game in GAMES.values():
        for t1 in thetas:
            for t2 in thetas:
                ca, cb = classical_expected(game, theta_weight(t1),
                                            theta_weight(t2))
                for pairing in Pairing:
                    pa, pb = closed_payoff_pair(
                        pairing, game, ent, StrategyParams(float(t1)),
                        StrategyParams(float(t2)), (0.0, 0.0), (0.0, 0.0))
                    worst = max(worst, abs(pa - ca), abs(pb - cb))
    ok = worst <= 1e-12
    assert report("4 classical-reduction", ok, f"max deviation {worst:.2e}")


def test_criterion_5_dephasing_memory_limit():
    rng = random.Random(5)
    worst = 0.0
    for _ in range(100):
        entries, ent, s1, s2 = _random_tuple(rng)
        noisy = closed_payoff(Pairing.PH_PH, entries, ent, s1, s2,
                              (rng.random(), 1.0), (rng.random(), 1.0))
        clean = closed_payoff(Pairing.PH_PH, entries, ent, s1, s2,
                              (0.0, 0.0), (0.0, 0.0))
        worst = max(worst, abs(noisy - clean))
    companions = {}
    for pairing in (Pairing.AD_AD, Pairing.D_D):
        best = 0.0
        for _ in range(100):
            entries, ent, s1, s2 = _random_tuple(rng)
            noisy = closed_payoff(pairing, entries, ent, s1, s2,
                                  (0.7, 1.0), (0.7, 1.0))
            clean = closed_payoff(pairing, entries, ent, s1, s2,
                                  (0.0, 0.0), (0.0, 0.0))
            best = max(best, abs(noisy - clean))
        companions[pairing.value] = best
    ok = worst <= 1e-12 and all(v > 1e-3 for v in companions.values())
    assert report(
        "5 dephasing-memory-limit", ok,
        f"ph-ph max |mu=1 - noiseless| = {worst:.2e}; decoherence persists: "
        + ", ".join(f"{k}={v:.3f}" for k, v in companions.items()))


def _oracle_vs_closed(pairing: Pairing, rng, mu_zero_ad: bool) -> float:
    entries, ent, s1, s2 = _random_tuple(rng)
    channels = []
    for kind in (pairing.first, pairing.second):
        mu = rng.random()
        if mu_zero_ad and kind is ChannelKind.AMPLITUDE_DAMPING:
            mu = 0.0
        channels.append((rng.random(), mu))
    closed = closed_payoff(pairing, entries, ent, s1, s2, *channels)
    rho = two_pass_state(ent, s1, s2,
                         ChannelSpec(pairing.first, *channels[0]),
                         ChannelSpec(pairing.second, *channels[1]))
    simulated = measure_payoff(payoff_operator(ent.delta, entries), rho)
    return abs(closed - simulated)


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(6)
    worst = 0.0
    # the stated supported set: Pauli-only pairings at any mu, amplitude
    # damping slots pinned to mu = 0
    for pairing in Pairing:
        pauli_only = ChannelKind.AMPLITUDE_DAMPING not in (pairing.first,
                                                           pairing.second)
        for _ in range(200):
            worst = max(worst, _oracle_vs_closed(pairing, rng,
                                                 mu_zero_ad=not pauli_only))
    # extension: the oracle also covers correlated amplitude damping
    worst_ext = 0.0
    for pairing in Pairing:
        for _ in range(50):
            worst_ext = max(worst_ext,
                            _oracle_vs_closed(pairing, rng, mu_zero_ad=False))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and worst_ext <= 1e-9 and elapsed < 10.0
    assert report(
        "6 oracle-equivalence", ok,
        f"stated set max {worst:.2e}, any-mu extension max {worst_ext:.2e}, "
        f"{elapsed:.1f}s")


def test_criterion_7a_phase_independence():
    alphas = np.linspace(-PI, PI, 9)
    betas = np.linspace(-PI, PI, 9)
    a2, b2 = np.meshgrid(alphas, betas, indexing="ij")
    ent = EntanglementParams(0.0, 0.0)
    worst = 0.0
    for pairing in Pairing:
        for game in GAMES.values():
            for entries in (game.a, game.b):
                vals = payoff_surface(pairing, entries, ent, (0.35, 0.6),
                                      (0.7, 0.2), 1.0, 0.0, 0.0, PI / 2, a2, b2)
                worst = max(worst, float(vals.max() - vals.min()))
    ok = worst < 1e-12
    assert report("7a phase-independence", ok, f"max variation {worst:.2e}")


def test_criterion_7b_memory_monotonicity():
    ent = EntanglementParams(PI / 2, 0.0)
    s1 = StrategyParams(PI / 2)
    s2 = StrategyParams(PI / 2, PI / 2, 0.0)
    mus = [i / 10 for i in range(11)]
    ok = True
    detail = []
    for name in ("pd", "chicken"):
        for p in (0.2, 0.8):
            curve = [closed_payoff_pair(Pairing.AD_AD, GAMES[name], ent, s1,
                                        s2, (p, m), (p, m))[1] for m in mus]
            mono = all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
            ok &= mono
            detail.append(f"{name}/p={p}: {'nondecreasing' if mono else 'DIPS'}")
    assert report("7b mu-monotonicity", ok, "; ".join(detail))


def _advantage_margins(fig: dict, pairings) -> dict[str, float]:
    ent, s1, s2 = fig["ent"], fig["s1"], fig["s2"]
    out = {}
    for pairing in pairings:
        diffs = [
            (lambda pair: pair[1] - pair[0])(closed_payoff_pair(
                Pairing.from_string(pairing), GAMES["bos"], ent, s1, s2,
                (0.5, m), (0.5, m)))
            for m in [i / 10 for i in range(11)]
        ]
        out[pairing] = min(diffs)
    return out


FIG4 = dict(ent=EntanglementParams(PI / 2, 0.0), s1=StrategyParams(0.0),
            s2=StrategyParams(PI / 2, PI / 2, 0.0))
FIG5 = dict(ent=EntanglementParams(0.0, PI / 2), s1=StrategyParams(0.0),
            s2=StrategyParams(PI / 2, 0.0, PI / 2))


def test_criterion_7c_quantum_advantage_fig4():
    margins = _advantage_margins(FIG4, AD_ENDING)
    ok = all(v > 0 for v in margins.values())
    assert report("7c advantage (fig-4 configuration)", ok,
                  ", ".join(f"{k}: min {v:+.4f}" for k, v in margins.items()))


@pytest.mark.xfail(strict=True, reason=(
    "at gamma=0 with theta1=0 the Bob-Alice margin is identically zero: "
    "xi ~ sin(gamma) and the measurement-side interference ~ sin(theta1) "
    "both vanish, and the delta=pi/2 sector weights pay transpose-symmetric "
    "games equally, so the figure-5 scenario cannot separate the players "
    "at its nominal profile"))
def test_criterion_7c_quantum_advantage_fig5():
    margins = _advantage_margins(FIG5, AD_ENDING)
    ok = all(v > 0 for v in margins.values())
    report("7c advantage (fig-5 configuration)", ok,
           ", ".join(f"{k}: min {v:+.4f}" for k, v in margins.items()),
           expected_fail=True)
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "at p=1 with the figure profile the margin is exactly zero for the "
    "amplitude-damping-slotted pairings and negative for the rest (down to "
    "-2.5 for ph-ph/pd); no maximum-noise advantage exists at the nominal "
    "profile"))
def test_criterion_7d_advantage_at_maximum_noise():
    ent = EntanglementParams(PI / 2, PI / 2)
    s1 = StrategyParams(0.0)
    s2 = StrategyParams(PI / 2, PI / 2, 0.0)
    worst = math.inf
    for pairing in Pairing:
        for game in GAMES.values():
            for m in (0.25, 0.5, 0.75, 1.0):
                pa, pb = closed_payoff_pair(pairing, game, ent, s1, s2,
                                            (1.0, m), (1.0, m))
                worst = min(worst, pb - pa)
    ok = worst > 0
    report("7d max-noise advantage", ok, f"min Bob-Alice margin {worst:+.4f}",
           expected_fail=True)
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "the nominal profiles are not grid-epsilon-Nash: in case ii-b the "
    "quantum player's best response to theta1=0 is the theta2=0 family "
    "(already in the noiseless game); case iii-a pays both players equally "
    "at its profile; case i's classical equilibria are refuted at extreme "
    "noise (amplitude damping at p=mu=1 inverts the effective moves)"))
def test_criterion_8_nash_certificates():
    start = time.perf_counter()
    exits = {cid: main(["nash", "--case", cid]) for cid in CASE_IDS}
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ok = all(code == 0 for code in exits.values())
    failing = [cid for cid, code in exits.items() if code != 0]
    report("8 nash-certificates", ok,
           f"exit codes {exits} ({elapsed:.1f}s)"
           + (f"; refuted cases: {failing}" if failing else ""),
           expected_fail=True)
    assert ok


def test_criterion_8_honest_exits():
    """Companion to criterion 8: the certificates that do hold exit 0 and the
    refuted ones exit 4, deterministically."""
    green = ("ii-a", "ii-c", "ii-d", "iii-b", "iii-c")
    red = ("i", "ii-b", "iii-a", "iv")
    for cid in green:
        assert main(["nash", "--case", cid]) == 0, cid
    for cid in red:
        assert main(["nash", "--case", cid]) == 4, cid
    report("8' honest certificate exits", True,
           f"green={green}, refuted={red}")


# ---------------------------------------------------------------------------
# criterion 9: figure CSVs
# ---------------------------------------------------------------------------
FIGURE_CONFIGS = {
    2: dict(games={"pd", "bos", "chicken"}, pairings={"ad-ad"},
            ps={"0.8", "0.2"}, gamma=0.0, delta=0.0, theta1=0.0,
            theta2=PI / 2, alpha2=PI / 2, beta2=0.0, rows=606),
    3: dict(games={"pd", "chicken"}, pairings={"ad-ad"}, ps={"0.8", "0.2"},
            gamma=PI / 2, delta=0.0, theta1=PI / 2, theta2=PI / 2,
            alpha2=PI / 2, beta2=0.0, rows=404),
    4: dict(games={"bos"}, pairings=set(AD_ENDING), ps={"0.5"},
            gamma=PI / 2, delta=0.0, theta1=0.0, theta2=PI / 2,
            alpha2=PI / 2, beta2=0.0, rows=303),
    5: dict(games={"bos"}, pairings=set(AD_ENDING), ps={"0.5"},
            gamma=0.0, delta=PI / 2, theta1=0.0, theta2=PI / 2,
            alpha2=0.0, beta2=PI / 2, rows=303),
    6: dict(games={"pd", "bos", "chicken"}, pairings={"ad-ad"}, ps={"0.5"},
            gamma=PI / 2, delta=PI / 2, theta1=0.0, theta2=PI / 2,
            alpha2=PI / 2, beta2=0.0, rows=303),
    7: dict(games={"pd", "bos", "chicken"}, pairings={"d-d"}, ps={"0.5"},
            gamma=PI / 2, delta=PI / 2, theta1=0.0, theta2=PI / 2,
            alpha2=PI / 2, beta2=0.0, rows=303),
}


def _figure_table(figure_id: int) -> list[dict]:
    header = CSV_HEADER.split(",")
    return [dict(zip(header, row.split(","))) for row in figure_rows(figure_id)]


def test_criterion_9_figure_configurations():
    ok_all = True
    details = []
    for fid, want in FIGURE_CONFIGS.items():
        table = _figure_table(fid)
        ok = len(table) == want["rows"]
        ok &= {r["game"] for r in table} == want["games"]
        ok &= {r["pairing"] for r in table} == want["pairings"]
        ok &= {r["p1"] for r in table} == want["ps"]
        ok &= {r["p2"] for r in table} == want["ps"]
        for column in ("gamma", "delta", "theta1", "theta2", "alpha2", "beta2"):
            ok &= {r[column] for r in table} == {fmt(want[column])}
        ok &= {r["alpha1"] for r in table} == {"0"}
        ok &= {r["beta1"] for r in table} == {"0"}
        mus = sorted({float(r["mu1"]) for r in table})
        ok &= len(mus) == 101 and mus[0] == 0.0 and mus[-1] == 1.0
        ok_all &= ok
        details.append(f"fig{fid}:{'ok' if ok else 'MISMATCH'}")
    assert report("9 figure-configurations", ok_all, ", ".join(details))


def test_criterion_9_curves_supported():
    # fig 3: Bob's payoff nondecreasing in mu within each curve group
    ok = True
    table = _figure_table(3)
    for game in ("pd", "chicken"):
        for p in ("0.8", "0.2"):
            curve = [float(r["payoff_b"]) for r in table
                     if r["game"] == game and r["p1"] == p]
            ok &= all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
    # fig 4: Bob - Alice strictly positive along every curve
    for row in _figure_table(4):
        ok &= float(row["payoff_b"]) - float(row["payoff_a"]) > 0
    assert report("9 figure-curves (figs 3-4)", ok,
                  "fig3 monotone, fig4 advantage positive")


@pytest.mark.xfail(strict=True, reason=(
    "figures 5-7's qualitative separation claims fail under the corrected "
    "dynamics: fig 5's margins are identically zero, and figs 6-7 show Bob "
    "above Alice only for bos (pd and chicken are negative at p=0.5)"))
def test_criterion_9_curves_refuted():
    ok = True
    for row in _figure_table(5):
        ok &= float(row["payoff_b"]) - float(row["payoff_a"]) > 0
    for fid in (6, 7):
        for row in _figure_table(fid):
            ok &= float(row["payoff_b"]) - float(row["payoff_a"]) > 0
    report("9 figure-curves (figs 5-7)", ok,
           "nominal separation claims", expected_fail=True)
    assert ok
