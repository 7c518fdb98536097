import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_calls
from test_golden import FIGURE_DIGESTS

from qgmem import cli, equilibrium
from qgmem.channels import ChannelKind, ChannelSpec
from qgmem.cli import (CSV_HEADER, DRAWS, ENTRY_BOUND, GAIN_HEADER, MAX_SWEEP_ROWS, NUMBER,
                       POINT, SWEEPABLE, VERIFY_BLOCK, build_parser, game_point, main,
                       parse_angle, parse_sweep_config, run_sweep, table_rows, verify_blocks)
from qgmem.closedform import Pairing, closed_payoff, closed_payoff_pair, payoff_surface
from qgmem.equilibrium import CASE_IDS, FIGURES, QUANTUM_SPACE, StrategySpace, case_study
from qgmem.games import builtin_game
from qgmem.oracle import two_pass_state
from qgmem.protocol import (EntanglementParams, StrategyParams, measure_payoff,
                            payoff_operator)
from qgmem.qmat import DOMAINS, check_range


def run(args):
    return main(args)


class TestParserReuse:
    # main builds its parser once per process; what ran before must not
    # change what an argv prints or returns.
    ARGVS = [
        ["payoff", "--game", "bos", "--pairing", "ad-d", "--gamma", "pi/3",
         "--delta", "pi/5", "--theta1", "pi/4", "--theta2", "pi/2", "--alpha2", "-pi/2",
         "--p1", "0.3", "--mu1", "0.2", "--p2", "0.6", "--mu2", "0.5"],
        ["verify", "--pairing", "d-ad", "--samples", "7", "--mu-zero"],
        ["verify", "--pairing", "ph-ph", "--samples", "5", "--seed", "3"],
        ["nash", "--case", "ii-c"],
        ["nash", "--case", "ii-b", "--grid", "bogus"],
        ["figure", "--id", "9"],
        ["payoff", "--game", "pd"],
        ["sweep"],
        ["--help"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv[:3]))
    def test_same_output_after_other_commands(self, argv, capsys):
        build_parser.cache_clear()
        first = run(argv), capsys.readouterr().out
        for other in self.ARGVS:
            run(other)
        capsys.readouterr()
        assert (run(argv), capsys.readouterr().out) == first


# Angle tokens that read as a number before one sign at most and a finite
# divisor of pi were required: --1 as 1, +-1 as -1, and pi/inf as 0.
BAD_ANGLES = ("--1", "+-1", "pi/inf", "-pi/inf", "pi/1e400")


class TestParseAngle:
    # Each literal parses to these bits, down to the sign of a zero.
    @pytest.mark.parametrize("text,expected", [
        ("pi", math.pi), ("pi/2", math.pi / 2), ("-pi", -math.pi),
        ("pi/4", math.pi / 4), ("0", 0.0), ("1.25", 1.25), ("-0.5", -0.5),
        ("-pi/4", -math.pi / 4), ("-pi/-2", math.pi / 2), ("-0", -0.0), ("1e-05", 1e-05),
        ("+0.5", 0.5),
    ])
    def test_values(self, text, expected):
        value = parse_angle(text)
        assert (value, math.copysign(1.0, value)) == (expected, math.copysign(1.0, expected))

    def test_rejects_garbage(self):
        # One sign at most, and a divisor of pi that is finite.
        for text in ("two-pi", "--pi", "pi/nan", *BAD_ANGLES):
            with pytest.raises(ValueError):
                parse_angle(text)

    def test_rejects_division_by_zero(self):
        for text in ("pi/0", "-pi/0.0"):
            with pytest.raises(ValueError):
                parse_angle(text)

    def test_division_by_zero_is_usage_error(self, capsys):
        assert run(["payoff", "--game", "pd", "--pairing", "ph-ph",
                    "--gamma", "pi/0", "--delta", "0", "--p1", "0", "--mu1", "0",
                    "--p2", "0", "--mu2", "0", "--theta1", "0",
                    "--theta2", "0"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("text", BAD_ANGLES)
    def test_doubled_sign_or_infinite_divisor_is_usage_error(self, capsys, text):
        assert run(["payoff", "--game", "pd", "--pairing", "ph-ph",
                    "--gamma", "0", "--delta", "0", "--p1", "0", "--mu1", "0",
                    "--p2", "0", "--mu2", "0", f"--theta1={text}", "--theta2", "0"]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --theta1: invalid parse_angle value: {text!r}\n")


class TestPayoffCommand:
    def test_classical_defection(self, capsys):
        code = run(["payoff", "--game", "pd", "--pairing", "ph-ph",
                    "--gamma", "0", "--delta", "0", "--p1", "0", "--mu1", "0",
                    "--p2", "0", "--mu2", "0",
                    "--theta1", "3.14159265358979",
                    "--theta2", "3.14159265358979"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "payoff_a=1 payoff_b=1"

    def test_bos_opera_cell(self, capsys):
        code = run(["payoff", "--game", "bos", "--pairing", "ph-ph",
                    "--gamma", "0", "--delta", "0", "--p1", "0", "--mu1", "0",
                    "--p2", "0", "--mu2", "0", "--theta1", "0", "--theta2", "0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "payoff_a=2 payoff_b=1"

    def test_out_of_range_probability(self, capsys):
        code = run(["payoff", "--game", "pd", "--pairing", "ph-ph",
                    "--gamma", "0", "--delta", "0", "--p1", "1.5", "--mu1", "0",
                    "--p2", "0", "--mu2", "0", "--theta1", "0", "--theta2", "0"])
        assert code == 2

    def test_unknown_pairing(self):
        assert run(["payoff", "--game", "pd", "--pairing", "zz-zz",
                    "--gamma", "0", "--delta", "0", "--p1", "0", "--mu1", "0",
                    "--p2", "0", "--mu2", "0", "--theta1", "0",
                    "--theta2", "0"]) == 2

    def test_missing_flag_is_usage_error(self):
        assert run(["payoff", "--game", "pd"]) == 2

    PAYOFF = ["payoff", "--game", "chicken", "--pairing", "d-ad", "--gamma", "pi/3",
              "--delta", "pi/5", "--theta1", "pi/4", "--theta2", "pi/2", "--p1", "0.3",
              "--mu1", "0.2", "--p2", "0.6", "--mu2", "0.5"]

    def test_negative_literal_after_its_flag(self, capsys):
        # argparse reads a separate "-pi/2" as an option; it must still be
        # taken as the value of the angle flag before it.
        outs = []
        for extra in (["--alpha2", "-pi/2", "--beta1", "-0.25"],
                      ["--alpha2=-pi/2", "--beta1=-0.25"],
                      ["--alpha2", "pi/2", "--beta1", "-0.25"]):
            assert run(self.PAYOFF + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] != outs[2]

    def test_flag_without_value_is_still_usage_error(self, capsys):
        assert run(self.PAYOFF + ["--alpha2", "--beta1", "0"]) == 2
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("pairing", list(Pairing))
    def test_every_flag_reaches_its_parameter(self, pairing, capsys):
        # Twelve distinct in-domain values: a flag routed to another
        # parameter moves the payoffs away from the Kraus oracle's.
        point = dict(p1=0.31, mu1=0.72, p2=0.58, mu2=0.17, gamma=0.43, delta=1.21,
                     theta1=0.77, alpha1=-1.9, beta1=0.52, theta2=2.35,
                     alpha2=1.13, beta2=-0.66)
        assert run(["payoff", "--game", "chicken", "--pairing", pairing.value]
                   + [f"--{name}={value}" for name, value in point.items()]) == 0
        printed = [float(field.partition("=")[2])
                   for field in capsys.readouterr().out.split()]
        ent = EntanglementParams(point["gamma"], point["delta"])
        rho = two_pass_state(
            ent, StrategyParams(point["theta1"], point["alpha1"], point["beta1"]),
            StrategyParams(point["theta2"], point["alpha2"], point["beta2"]),
            *pairing.crossings((point["p1"], point["mu1"]), (point["p2"], point["mu2"])))
        game = builtin_game("chicken")
        oracle = [measure_payoff(payoff_operator(ent.delta, entries), rho)
                  for entries in (game.a, game.b)]
        assert printed == pytest.approx(oracle, abs=1e-9)


def payoff_with(**flags):
    """``TestPayoffCommand.PAYOFF`` with the named flags' values replaced."""
    argv = list(TestPayoffCommand.PAYOFF)
    for name, value in flags.items():
        argv[argv.index(f"--{name}") + 1] = value
    return argv


class TestRangeMessages:
    # Exact texts for float and int inputs; the array texts are held by
    # test_swept_axis_out_of_range and test_array_range_error_names_first_bad_value.
    @pytest.mark.parametrize("make,message", [
        (lambda: StrategyParams(4), "theta must be in [0, pi], got 4"),
        (lambda: StrategyParams(1.0, 3.5), "alpha must be in [-pi, pi], got 3.5"),
        (lambda: EntanglementParams(math.nan, 0), "gamma must be in [0, pi/2], got nan"),
        (lambda: ChannelSpec(ChannelKind.DEPHASING, 0.2, -0.5),
         "mu must be in [0, 1], got -0.5"),
        (TestPayoffCommand.PAYOFF[:-8] + ["--p1", "1.5", "--mu1", "0", "--p2", "0",
                                          "--mu2", "0"], "p must be in [0, 1], got 1.5"),
        # Pairing.crossings checks each crossing as a ChannelSpec: p1, mu1, p2, mu2.
        (payoff_with(mu1="1.25"), "mu must be in [0, 1], got 1.25"),
        (payoff_with(p2="2"), "p must be in [0, 1], got 2.0"),
        (payoff_with(mu2="nan"), "mu must be in [0, 1], got nan"),
        (payoff_with(delta="2"), "delta must be in [0, pi/2], got 2.0"),
        (payoff_with(p1="1.5", mu2="3"), "p must be in [0, 1], got 1.5"),
        # A negative number in exponent form, as its own token.
        (payoff_with(p1="-1e-3"), "p must be in [0, 1], got -0.001"),
    ])
    def test_scalar_message_text(self, make, message, capsys):
        if callable(make):
            with pytest.raises(ValueError) as info:
                make()
            assert str(info.value) == message
        else:
            assert run(make) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [["verify", "--pairing", "ad-ad"],
                                      TestPayoffCommand.PAYOFF])
    def test_each_parameter_is_checked_once(self, argv, monkeypatch, capsys):
        # Twelve parameters, one check each: a verify block (200 samples, one
        # block) hands the same ChannelSpecs to the closed form and the oracle.
        checks = count_calls(monkeypatch, check_range)
        assert run(argv) == 0
        capsys.readouterr()
        assert len(checks) == 12


class TestVerifyCommand:
    @pytest.mark.parametrize("pairing", ["ph-ph", "d-d", "ad-ad", "ph-d"])
    def test_pairings_verify(self, pairing, capsys):
        code = run(["verify", "--pairing", pairing, "--samples", "40",
                    "--seed", "42", "--tol", "1e-9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max_abs_diff" in out

    def test_mu_zero_restriction(self, capsys):
        assert run(["verify", "--pairing", "ad-ad", "--samples", "20",
                    "--seed", "7", "--tol", "1e-9", "--mu-zero"]) == 0

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_is_usage_error(self, samples, capsys):
        # Zero samples would report max_abs_diff=0 and pass vacuously.
        assert run(["verify", "--pairing", "d-d", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert "max_abs_diff" not in captured.out
        assert "--samples must be >= 1" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-1e-9"])
    def test_bad_tolerance_is_usage_error(self, tol, capsys):
        # No sample passes a NaN or negative tolerance, and every one passes inf.
        assert run(["verify", "--pairing", "d-d", "--samples", "3", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "max_abs_diff" not in captured.out
        assert captured.err.strip() == \
            f"error: --tol must be finite and >= 0, got {float(tol)}"

    def test_impossible_tolerance_fails(self):
        assert run(["verify", "--pairing", "ph-ph", "--samples", "10",
                    "--seed", "1", "--tol", "1e-18"]) == 4

    def test_imaginary_residue_fails_without_traceback(self, monkeypatch, capsys):
        # No valid input reaches measure_payoff's imaginary-residue refusal, so
        # the observable is made anti-Hermitian (i P) to force it.
        monkeypatch.setattr(cli, "measure_payoff", lambda op, rho: measure_payoff(1j * op, rho))
        assert run(["verify", "--pairing", "d-d", "--samples", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: payoff trace has imaginary residue ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err + captured.out
        assert "max_abs_diff" not in captured.out

    def test_deterministic_output(self, capsys):
        run(["verify", "--pairing", "d-ph", "--samples", "25", "--seed", "5"])
        first = capsys.readouterr().out
        run(["verify", "--pairing", "d-ph", "--samples", "25", "--seed", "5"])
        assert capsys.readouterr().out == first

    @staticmethod
    def per_sample_draws(pairing, samples, seed, mu_zero):
        """The tuples as verify drew them one sample at a time, one array per
        name, in the order of the stream."""
        rng = random.Random(seed)
        rows = []
        for _ in range(samples):
            entries = [rng.uniform(-2.0, 5.0) for _ in range(4)]
            ent = [rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi / 2)]
            s1 = [rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi),
                  rng.uniform(-math.pi, math.pi)]
            s2 = [rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi),
                  rng.uniform(-math.pi, math.pi)]
            channels = []
            for kind in (pairing.first, pairing.second):
                mu = rng.random()
                if mu_zero and kind is ChannelKind.AMPLITUDE_DAMPING:
                    mu = 0.0
                channels += [mu, rng.random()]
            rows.append(entries + ent + s1 + s2 + channels)
        names = ("e00", "e01", "e10", "e11", "gamma", "delta", "theta1", "alpha1", "beta1",
                 "theta2", "alpha2", "beta2", "mu1", "p1", "mu2", "p2")
        return dict(zip(names, np.array(rows).T))

    @pytest.mark.parametrize("pairing", ["ad-d", "ph-ad", "d-ph"])
    @pytest.mark.parametrize("mu_zero", [False, True])
    def test_draw_order_of_per_sample_loop(self, pairing, mu_zero):
        pairing = Pairing.from_string(pairing)
        blocks = list(verify_blocks(pairing, 2 * VERIFY_BLOCK + 7, 11, mu_zero))
        assert [{v.shape for v in b.values()} for b in blocks] == \
            [{(VERIFY_BLOCK,)}] * 2 + [{(7,)}]
        want = self.per_sample_draws(pairing, 2 * VERIFY_BLOCK + 7, 11, mu_zero)
        # After the four entries, every game-point name is drawn exactly once.
        names = list(blocks[0])
        assert len(names) == 16 and sorted(names[4:]) == sorted(POINT)
        assert all(list(b) == list(want) for b in blocks)
        for name, draws in want.items():
            assert np.array_equal(np.concatenate([b[name] for b in blocks]), draws), name

    # Each game-point name's row of qmat.DOMAINS, written out here so that a
    # draw read from another parameter's row is noticed.
    PARAMETER = dict(zip(POINT, ("p", "mu", "p", "mu", "gamma", "delta", "theta", "alpha",
                                 "beta", "theta", "alpha", "beta")))

    @pytest.mark.parametrize("name", POINT)
    def test_draw_bounds_are_the_parameter_domain(self, name):
        # Every reader of a DOMAINS row takes its ends from it: the name's
        # DRAWS bounds, and for an angle every StrategySpace axis.  verify
        # samples each parameter's whole domain and nothing outside it: a
        # block at either end of the row is a game point, one float step
        # beyond either end is refused by the parameter's type.
        row = self.PARAMETER[name]
        lo, hi, span = DOMAINS[row]
        assert DRAWS[name] == (lo, hi)
        if row in ("theta", "alpha", "beta"):
            for space in (QUANTUM_SPACE, StrategySpace(2, 3, 4)):
                axis = space.axes()[("theta", "alpha", "beta").index(row)]
                assert (axis[0], axis[-1]) == (lo, hi)
        mid = {key: np.full(3, (a + b) / 2) for key, (a, b) in DRAWS.items()}
        for pairing in Pairing:
            for end, beyond in ((lo, -np.inf), (hi, np.inf)):
                game_point(pairing, {**mid, name: np.full(3, end)})
                with pytest.raises(ValueError, match=re.escape(f"{row} must be in {span}, ")):
                    game_point(pairing, {**mid, name: np.full(3, np.nextafter(end, beyond))})

    @pytest.mark.parametrize("pairing,seed", [("ph-ph", 42), ("d-d", 7)])
    def test_full_scale_runs(self, pairing, seed):
        assert run(["verify", "--pairing", pairing, "--samples", "200",
                    "--seed", str(seed), "--tol", "1e-9"]) == 0


class TestVerifyBlocks:
    # VERIFY_BLOCK only cuts the draw stream into array calls: it changes
    # neither what verify prints nor what it keeps in memory per sample.
    @pytest.mark.parametrize("mu_zero", [False, True])
    def test_block_size_only_chunks(self, mu_zero, monkeypatch, capsys):
        # 300 samples is a multiple of none of the blocks.
        results = {}
        for block in (7, 128, 512):
            monkeypatch.setattr(cli, "VERIFY_BLOCK", block)
            for pairing in Pairing:
                code = run(["verify", "--pairing", pairing.value, "--samples", "300",
                            "--seed", "3"] + ["--mu-zero"] * mu_zero)
                results.setdefault(pairing, set()).add((code, capsys.readouterr().out))
        assert all(len(seen) == 1 for seen in results.values()), results

    @pytest.mark.parametrize("nan_at", ["first", "later", "last"])
    def test_nan_difference_in_any_block_fails(self, nan_at, monkeypatch, capsys):
        block = cli.VERIFY_BLOCK
        index = {"first": 3, "later": block + 3, "last": 2 * block + 4}[nan_at]
        orig, done = cli.closed_payoff, [0]

        def closed_payoff(*args):
            closed = np.array(orig(*args))
            if 0 <= index - done[0] < closed.size:
                closed[index - done[0]] = np.nan
            done[0] += closed.size
            return closed

        monkeypatch.setattr(cli, "closed_payoff", closed_payoff)
        assert run(["verify", "--pairing", "ad-d", "--samples", str(2 * block + 5)]) == 4
        assert done[0] == 2 * block + 5
        assert "max_abs_diff=nan " in capsys.readouterr().out

    def test_memory_is_bounded_by_the_block(self, capsys):
        # ad-ad: amplitude-damping crossings hold the largest per-sample arrays.
        def peak(samples):
            tracemalloc.start()
            try:
                assert run(["verify", "--pairing", "ad-ad", "--samples", str(samples)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block = cli.VERIFY_BLOCK
        peak(block)
        one, four = peak(block), peak(4 * block)
        capsys.readouterr()
        assert four <= 1.25 * one
        assert four < 4 * 2**20

    @pytest.mark.parametrize("samples,blocks", [(None, 1), (2 * VERIFY_BLOCK + 1, 3)])
    def test_one_oracle_and_closed_form_call_per_block(self, samples, blocks,
                                                       monkeypatch, capsys):
        oracle = count_calls(monkeypatch, two_pass_state)
        closed = count_calls(monkeypatch, payoff_surface)
        argv = ["verify", "--pairing", "d-ad"]
        if samples is not None:
            argv += ["--samples", str(samples)]
        assert run(argv) == 0
        capsys.readouterr()
        assert (len(oracle), len(closed)) == (blocks, blocks)


SWEEP_CONF = """
# one-axis sweep
game = pd
pairing = ph-ph
gamma = pi/2
delta = pi/2
theta1 = 0
theta2 = pi/2
alpha2 = pi/2
p1 = 0.8
p2 = 0.8
sweep.mu1 = 0:1:11
sweep.mu2 = 0:1:11
output = {out}
"""

CUSTOM_CONF = """
game = custom
entries_a = 1,1,1,1
entries_b = 1,1,1,1
pairing = ad-d
gamma = pi/4
delta = pi/4
theta1 = pi/2
alpha1 = pi/2
beta2 = pi/4
p1 = 0.3
mu1 = 0.5
p2 = 0.6
mu2 = 0.25
sweep.theta2 = 0:pi:5
output = {out}
"""

UNBOUNDED = "start, stop and (stop - start) * (steps - 1) must be finite,"


class TestSweepCommand:
    def test_row_count_and_header(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        conf.write_text(SWEEP_CONF.format(out=out))
        assert run(["sweep", "--config", str(conf)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 11 * 11

    def test_all_ones_game_normalized(self, tmp_path):
        out = tmp_path / "ones.csv"
        conf = tmp_path / "c.conf"
        conf.write_text(CUSTOM_CONF.format(out=out))
        assert run(["sweep", "--config", str(conf)]) == 0
        for line in out.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[-1]) == pytest.approx(1.0, abs=1e-9)
            assert float(cells[-2]) == pytest.approx(1.0, abs=1e-9)

    def test_byte_identical_across_runs(self, tmp_path):
        conf = tmp_path / "s.conf"
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        conf.write_text(SWEEP_CONF.format(out=out1))
        run(["sweep", "--config", str(conf)])
        conf.write_text(SWEEP_CONF.format(out=out2))
        run(["sweep", "--config", str(conf)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_leading_bom_is_ignored(self, tmp_path):
        # Some editors start a UTF-8 file with a byte-order mark; it is not
        # part of the first key.
        tables = []
        for bom in (b"", b"\xef\xbb\xbf"):
            out, conf = tmp_path / f"{len(bom)}.csv", tmp_path / f"{len(bom)}.conf"
            conf.write_bytes(bom + f"game = pd\npairing = ad-d\nsweep.p1 = 0:1:3\n"
                                   f"output = {out}\n".encode())
            assert run(["sweep", "--config", str(conf)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_config_not_utf8_names_file_and_encoding(self, tmp_path, capsys):
        # A UTF-16 config (as some editors save it) is refused with the
        # path and the encoding the parser expects, not the codec's text.
        conf = tmp_path / "utf16.conf"
        conf.write_bytes("game = pd\npairing = ad-d\nsweep.p1 = 0:1:3\n".encode("utf-16"))
        assert run(["sweep", "--config", str(conf)]) == 2
        assert capsys.readouterr().err == (f"error: config {str(conf)!r} must be UTF-8 "
                                           "text: invalid start byte at byte 0\n")

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        conf.write_text(SWEEP_CONF.format(out=out))
        run(["sweep", "--config", str(conf)])
        assert b"\r" not in out.read_bytes()

    def test_parse_errors(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("game = pd\npairing = ph-ph\n")  # no axis
        assert run(["sweep", "--config", str(conf)]) == 2
        conf.write_text("game = pd\npairing = ph-ph\nsweep.gamma = 0:1:5\n")
        assert run(["sweep", "--config", str(conf)]) == 2
        conf.write_text("nonsense line\n")
        assert run(["sweep", "--config", str(conf)]) == 2

    def test_repeated_key_names_its_line(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        text = SWEEP_CONF.format(out=out) + "sweep.mu1 = 0:1:5\n"
        conf.write_text(text)
        lineno = len(text.splitlines())
        with pytest.raises(ValueError,
                           match=f"config line {lineno}: repeated key 'sweep.mu1'"):
            parse_sweep_config(text)
        assert run(["sweep", "--config", str(conf)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("axis,message", [
        ("sweep.p1 = 0:1.5:4", "p must be in [0, 1], got 1.5"),
        ("sweep.mu2 = nan:1:3", "mu must be in [0, 1], got nan"),
        ("sweep.mu1 = 0:nan:3", "mu must be in [0, 1], got nan"),
        ("sweep.theta2 = 0:4:3", "theta must be in [0, pi], got 4.0"),
        # An infinite bound, or a span that overflows, is refused before the
        # grid formula warns (an error under -W error).
        ("sweep.mu1 = 0:inf:3", f"axis mu1: {UNBOUNDED} got '0:inf:3'"),
        ("sweep.mu1 = -inf:0:3", f"axis mu1: {UNBOUNDED} got '-inf:0:3'"),
        ("sweep.mu1 = 1e308:-1e308:3", f"axis mu1: {UNBOUNDED} got '1e308:-1e308:3'"),
        ("sweep.mu1 = -5e307:1e308:3", f"axis mu1: {UNBOUNDED} got '-5e307:1e308:3'"),
    ])
    def test_swept_axis_out_of_range(self, tmp_path, capsys, axis, message):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        conf.write_text("game = pd\npairing = ad-d\nsweep.p2 = 0:1:3\n"
                        f"{axis}\noutput = {out}\n")
        assert run(["sweep", "--config", str(conf)]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("fixed,swept", [
        ("p1 = 5", "sweep.p1 = 0:1:3"),
        ("theta2 = 9", "sweep.theta2 = 0:pi:3"),
        ("mu2 = 0.5", "sweep.mu2 = 0:1:3"),
    ])
    def test_key_both_fixed_and_swept(self, tmp_path, capsys, fixed, swept):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        conf.write_text(f"game = pd\npairing = ad-d\n{fixed}\n{swept}\noutput = {out}\n")
        assert run(["sweep", "--config", str(conf)]) == 2
        key = fixed.split()[0]
        assert capsys.readouterr().err.strip() == \
            f"error: {key!r} is both fixed and swept ('sweep.{key}')"
        assert not out.exists()

    # Each axis end is parsed by its column's rule, as a fixed key and a
    # flag are: a p or mu end is a plain number, so ``sweep.p1 = 0:pi/4:3``
    # is refused as ``p1 = pi/4`` is, and an angle end may be a pi literal.
    @pytest.mark.parametrize("axis", ["p1", "mu1", "p2", "mu2"])
    def test_channel_axis_refuses_angle_literals(self, tmp_path, capsys, axis):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        for key, lines in ((axis, f"{axis} = pi/4\nsweep.theta2 = 0:pi:3"),
                           (f"sweep.{axis}", f"sweep.{axis} = 0:pi/4:3")):
            conf.write_text(f"game = pd\npairing = ad-d\n{lines}\noutput = {out}\n")
            assert run(["sweep", "--config", str(conf)]) == 2
            assert capsys.readouterr().err == \
                f"error: config line 3: {key}: invalid float value: 'pi/4'\n"
            assert not out.exists()

    @pytest.mark.parametrize("text", BAD_ANGLES)
    def test_angle_refuses_doubled_sign_and_infinite_divisor(self, tmp_path, capsys, text):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        for key, lines in (("theta1", f"theta1 = {text}\nsweep.p1 = 0:1:3"),
                           ("sweep.alpha2", f"sweep.alpha2 = -pi:{text}:3")):
            conf.write_text(f"game = pd\npairing = ad-d\n{lines}\noutput = {out}\n")
            assert run(["sweep", "--config", str(conf)]) == 2
            assert capsys.readouterr().err == \
                f"error: config line 3: {key}: invalid parse_angle value: {text!r}\n"
            assert not out.exists()

    # A value that does not parse is named with its line, key and whole token,
    # as argparse names a ``payoff`` flag's, not by the bare ``float`` message
    # (which, for ``pi/N``, quotes only N).
    @pytest.mark.parametrize("lines,message", [
        ("theta2 = pi/--2\nsweep.p1 = 0:1:3", "theta2: invalid parse_angle value: 'pi/--2'"),
        ("sweep.alpha2 = 0:pi/x:3", "sweep.alpha2: invalid parse_angle value: 'pi/x'"),
        ("p1 = abc\nsweep.mu1 = 0:1:3", "p1: invalid float value: 'abc'"),
        ("sweep.mu1 = 0:1:x", "sweep.mu1: invalid int value: 'x'"),
        ("entries_a = 1,2,3,x\nentries_b = 1,1,1,1\nsweep.mu1 = 0:1:3",
         "entries_a: invalid float value: 'x'"),
    ], ids=["fixed-angle", "axis-end", "fixed-number", "axis-steps", "entries"])
    def test_unparsed_value_names_line_key_and_token(self, tmp_path, capsys, lines, message):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        game = "custom" if lines.startswith("entries") else "pd"
        conf.write_text(f"game = {game}\npairing = ad-d\n{lines}\noutput = {out}\n")
        assert run(["sweep", "--config", str(conf)]) == 2
        assert capsys.readouterr().err == f"error: config line 3: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("axis,start,stop", [
        ("theta2", "pi/2", "pi"), ("alpha2", "-pi", "pi/2"), ("beta2", "pi", "-pi")])
    def test_angle_axis_takes_pi_literals(self, tmp_path, axis, start, stop):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        conf.write_text(f"game = pd\npairing = ad-d\nsweep.{axis} = {start}:{stop}:3\n"
                        f"output = {out}\n")
        assert run(["sweep", "--config", str(conf)]) == 0
        column = CSV_HEADER.split(",").index(axis)
        cells = [row.split(",")[column] for row in out.read_text().splitlines()[1:]]
        lo, hi = parse_angle(start), parse_angle(stop)
        assert cells == [NUMBER % v for v in (lo, (lo + hi) / 2, hi)]

    def test_unknown_game_is_one_clean_line(self, tmp_path, capsys):
        # As for an unknown pairing: the choices in plain text, no quotes
        # around the message.
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        conf.write_text(f"game = foo\npairing = ad-d\nsweep.p1 = 0:1:3\noutput = {out}\n")
        assert run(["sweep", "--config", str(conf)]) == 2
        assert capsys.readouterr().err == \
            "error: unknown game 'foo'; choose from pd, bos, chicken\n"
        assert not out.exists()

    @pytest.mark.parametrize("text,key", [
        ("pairing = ad-d\n", "game"),
        ("game = pd\n", "pairing"),
        ("game = custom\nentries_b = 1,1,1,1\npairing = ad-d\n", "entries_a"),
        ("game = custom\nentries_a = 1,1,1,1\npairing = ad-d\n", "entries_b"),
    ], ids=["game", "pairing", "entries_a", "entries_b"])
    def test_missing_required_key(self, tmp_path, capsys, text, key):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        conf.write_text(f"{text}sweep.p1 = 0:1:3\noutput = {out}\n")
        assert run(["sweep", "--config", str(conf)]) == 2
        assert capsys.readouterr().err.strip() == f"error: missing required key {key!r}"
        assert not out.exists()

    @pytest.mark.parametrize("entries", ["nan,0,0,1", "1,0,0,inf", "1,-inf,0,0"])
    def test_non_finite_custom_entries(self, tmp_path, capsys, entries):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        conf.write_text(f"game = custom\nentries_a = 1,1,1,1\nentries_b = {entries}\n"
                        f"pairing = ad-d\nsweep.p1 = 0:1:3\noutput = {out}\n")
        assert run(["sweep", "--config", str(conf)]) == 2
        assert capsys.readouterr().err.strip() == \
            "error: custom game entries must be finite"
        assert not out.exists()

    # Finite but huge entries overflow the payoff sums: 1e308 entries gave
    # nan and inf payoffs with numpy RuntimeWarnings and exit 0.  At the
    # bound every payoff is finite; just above it the config is refused
    # before anything is computed or written.
    @pytest.mark.parametrize("pairing", [p.value for p in Pairing])
    def test_custom_entries_are_bounded(self, tmp_path, capsys, pairing):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        big, above = ENTRY_BOUND, float(np.nextafter(ENTRY_BOUND, np.inf))

        def sweep(entries_a, entries_b):
            conf.write_text(
                f"game = custom\nentries_a = {entries_a}\nentries_b = {entries_b}\n"
                f"pairing = {pairing}\ngamma = pi/3\ndelta = pi/5\ntheta1 = pi/3\n"
                "alpha1 = 0.4\nbeta1 = -0.7\nsweep.p1 = 0:1:3\nsweep.mu2 = 0:1:3\n"
                f"sweep.theta2 = 0:pi:4\nsweep.alpha2 = -pi:pi:5\noutput = {out}\n")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(["sweep", "--config", str(conf)])
            assert caught == []
            return code

        assert sweep(f"{big!r},{-big!r},{big!r},{big!r}", f"{-big!r},{big!r},0,{-big!r}") == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3 * 3 * 4 * 5
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[-2:])
        out.unlink()
        capsys.readouterr()
        for entries_a, entries_b in ((f"{above!r},0,0,1", "1,1,1,1"),
                                     ("1,1,1,1", f"0,{-above!r},0,0")):
            assert sweep(entries_a, entries_b) == 2
            assert capsys.readouterr().err.splitlines() == [
                "error: custom game entries must be at most 1e+300 in magnitude"]
            assert not out.exists()

    # As for ``nash --grid``: 10**17 float64 steps (711 PiB) exceed any
    # address space; the row bound refuses the axis before anything is allocated.
    def test_unallocatable_axis_is_unsupported(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        conf.write_text("game = pd\npairing = ph-ph\nsweep.p1 = 0:1:100000000000000000\n"
                        f"output = {out}\n")
        assert run(["sweep", "--config", str(conf)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    # A sweep over MAX_SWEEP_ROWS rows is refused (exit 3) from the product
    # of its steps, before any axis is built: with numpy's arange unusable the
    # refusal still comes, and an axis of 10**400 steps, whose steps - 1 does
    # not fit a float, is refused rather than overflowing (exit 4).
    @pytest.mark.parametrize("axes,rows", [
        ("sweep.p1 = 0:1:1001\nsweep.mu1 = 0:1:1001\nsweep.p2 = 0:1:11\n", 11022011),
        ("sweep.mu2 = 0:1:3\nsweep.theta2 = 0:3:4\nsweep.alpha2 = 0:1:833334\n",
         10000008),
        (f"sweep.p1 = 0:1:{10**400}\n", 10**400),
    ], ids=["product", "just-above", "huge-axis"])
    def test_oversized_sweep_is_refused_before_any_axis(self, tmp_path, capsys,
                                                          monkeypatch, axes, rows):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        conf.write_text(f"game = pd\npairing = ad-d\n{axes}output = {out}\n")
        monkeypatch.setattr(np, "arange", None)
        assert run(["sweep", "--config", str(conf)]) == 3
        assert capsys.readouterr().err == \
            f"error: a sweep of {rows} rows exceeds the bound of {MAX_SWEEP_ROWS}\n"
        assert not out.exists()

    def test_sweep_at_the_row_bound_is_parsed(self):
        cfg = parse_sweep_config("game = pd\npairing = ad-d\nsweep.p1 = 0:1:1000\n"
                                 "sweep.mu1 = 0:1:1000\nsweep.p2 = 0:1:10\n")
        swept = [cfg.point[name] for name in ("p1", "mu1", "p2")]
        assert [grid.shape for grid in swept] == [(1000, 1, 1), (1000, 1), (10,)]
        assert math.prod(grid.size for grid in swept) == MAX_SWEEP_ROWS

    # The ramp alone misses stop by a rounding error for 32 of these step
    # counts on every full angle range, and 14 of them land outside the domain.
    @pytest.mark.parametrize("axis,start,stop", [
        ("theta2", "0", "pi"), ("theta2", "pi", "0"), ("alpha2", "-pi", "pi"),
        ("beta2", "pi", "-pi"), ("alpha2", "0", "pi/2"), ("p1", "0.3", "1"),
        ("mu2", "1", "0.3")])
    def test_axis_ends_exactly_at_stop(self, axis, start, stop):
        for steps in range(2, 201):
            grid = parse_sweep_config(
                f"game = pd\npairing = ph-ph\nsweep.{axis} = {start}:{stop}:{steps}\n"
            ).point[axis]
            assert grid.shape == (steps,)
            assert (grid[0], grid[-1]) == (parse_angle(start), parse_angle(stop)), steps

    # A baseline for the sweep's memory: the peak resident set of a 301x301
    # channel-axis sweep less that of a 3x3 one, each in a fresh interpreter.
    # Measured on a 2-vCPU Linux VM (Python 3.11, numpy 2.4): 72.9 MiB and
    # 30.0 MiB, a difference of 43 MiB; the large sweep runs in about 0.13 s.
    # The bound is that difference plus 25%.
    RSS_BOUND_MIB = 54
    RSS_SWEEP = ("import resource, sys\nfrom qgmem.cli import main\n"
                 "assert main(['sweep', '--config', sys.argv[1]]) == 0\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_sweep_peak_memory_is_bounded(self, tmp_path):
        def peak_kib(steps):
            conf, out = tmp_path / f"s{steps}.conf", tmp_path / "sweep.csv"
            conf.write_text(f"game = bos\npairing = ad-ad\nsweep.mu1 = 0:1:{steps}\n"
                            f"sweep.p2 = 0:1:{steps}\noutput = {out}\n")
            src = os.path.dirname(os.path.dirname(cli.__file__))
            done = subprocess.run([sys.executable, "-c", self.RSS_SWEEP, str(conf)],
                                  capture_output=True, text=True, check=True,
                                  env={**os.environ, "PYTHONPATH": src})
            wrote, rss = done.stdout.splitlines()
            assert wrote == f"wrote {steps * steps} rows to {out}"
            return int(rss)

        large, small = peak_kib(301), peak_kib(3)
        assert (large - small) / 1024 < self.RSS_BOUND_MIB, (large, small)

    # One channel axis and two angle axes, each with its own step count: rows
    # come out p1, theta2, beta2 (last fastest) in whatever order the lines are.
    AXIS_LINES = ("sweep.theta2 = 0:pi:3", "sweep.p1 = 0:1:2", "sweep.beta2 = pi:-pi:4")

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_axis_order_canonical(self, tmp_path, order):
        lines = [self.AXIS_LINES[i] for i in order]
        cfg = parse_sweep_config("game = pd\npairing = ph-ph\n"
                                 + "\n".join(line for line in lines if "beta2" not in line))
        assert cfg.point["p1"].shape == (2, 1) and cfg.point["theta2"].shape == (3,)
        rows = run_sweep(cfg)
        assert len(rows) == 6
        # p1 is the outer loop
        assert [r.split(",")[2] for r in rows] == ["0", "0", "0", "1", "1", "1"]

        csvs = []
        canonical = [self.AXIS_LINES[i] for i in (1, 0, 2)]
        for name, axes in (("listed", lines), ("canonical", canonical)):
            conf, out = tmp_path / f"{name}.conf", tmp_path / f"{name}.csv"
            conf.write_text("game = bos\npairing = ad-d\ngamma = pi/3\nmu1 = 0.4\n"
                            + "".join(f"{line}\n" for line in axes) + f"output = {out}\n")
            assert run(["sweep", "--config", str(conf)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]
        cells = [row.split(",") for row in csvs[0].decode().splitlines()[1:]]
        assert len(cells) == 2 * 3 * 4
        assert [c[2] for c in cells[::12]] == ["0", "1"]
        assert [c[11] for c in cells[:12:4]] == [NUMBER % v for v in (0, math.pi / 2, math.pi)]
        assert [c[13] for c in cells[:4]] == [NUMBER % (k * math.pi / 3) for k in (3, 1, -1, -3)]


def reference_rows(cfg) -> list[str]:
    """The sweep's rows with every column formatted by NUMBER on every row,
    from the payoffs of the same closed-form call as ``run_sweep``."""
    point = game_point(cfg.pairing, cfg.point)
    ent, s1, s2, ch1, ch2 = point
    columns = (ch1.p, ch1.mu, ch2.p, ch2.mu, ent.gamma, ent.delta, *s1.angles, *s2.angles,
               *closed_payoff_pair(cfg.game, *point))
    shape = np.broadcast_shapes(*map(np.shape, columns))
    cells = zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in columns))
    return [",".join([cfg.game.name, cfg.pairing.value, *(NUMBER % v for v in row)])
            for row in cells]


class TestRowFormatting:
    # ``table_rows`` formats a swept axis once per value and broadcasts the
    # text; the rows must have the bytes of NUMBER on every cell of every row.
    # Axes have distinct step counts, so text broadcast in the wrong order
    # lands in the wrong rows.
    SPANS = {"p1": (0, 1), "mu1": (0, 1), "p2": (0, 1), "mu2": (0, 1),
             "theta2": (0, 3.14), "alpha2": (-3.14, 3.14), "beta2": (-3.14, 3.14)}
    # A repeated value, -0.0 (from -0 towards -1) and text in exponent form.
    SPECIAL = {"mu1": "0:0:3", "alpha2": "-0:-1:4", "beta2": "-0:-1:4", "p2": "0:1e-5:5",
               "mu2": "1e-5:0:3"}

    def config(self, rng, names, custom, special=0.3):
        lines = ["game = custom\nentries_a = 1e-5,-0,3.25,-2\nentries_b = 4,1e-7,-1.5,0"
                 if custom else f"game = {rng.choice(['pd', 'bos', 'chicken'])}",
                 f"pairing = {rng.choice(list(Pairing)).value}",
                 f"gamma = {rng.uniform(0, 1.5)!r}", f"delta = {rng.uniform(0, 1.5)!r}",
                 f"theta1 = {rng.uniform(0, 3)!r}", "alpha1 = -0",
                 f"beta1 = {rng.uniform(-3, 3)!r}"]
        for name, steps in zip(names, rng.sample(range(2, 8), len(names))):
            if name in self.SPECIAL and rng.random() < special:
                lines.append(f"sweep.{name} = {self.SPECIAL[name]}")
            else:
                lo, hi = self.SPANS[name]
                lines.append(f"sweep.{name} = {rng.uniform(lo, hi)!r}:"
                             f"{rng.uniform(lo, hi)!r}:{steps}")
        fixed = ("p1", "mu1", "p2", "mu2", "theta2")
        lines += [f"{name} = {rng.uniform(0, 1)!r}" for name in fixed if name not in names]
        return parse_sweep_config("\n".join(lines))

    @pytest.mark.parametrize("n_axes", [1, 2, 3])
    def test_rows_have_the_bytes_of_per_row_formatting(self, n_axes, rng):
        for trial in range(12):
            cfg = self.config(rng, rng.sample(SWEEPABLE, n_axes), custom=trial % 3 == 0)
            assert run_sweep(cfg) == reference_rows(cfg)

    def test_special_values(self, rng):
        cfg = self.config(rng, ["alpha2", "mu1", "p2"], custom=True, special=1)
        rows = run_sweep(cfg)
        assert rows == reference_rows(cfg)
        assert len(rows) == 3 * 5 * 4
        cells = [row.split(",") for row in rows]
        assert {c[3] for c in cells} == {"0"}
        assert {c[4] for c in cells} == {"0", "2.5e-06", "5e-06", "7.5e-06", "1e-05"}
        assert "-0" in {c[12] for c in cells} and {c[9] for c in cells} == {"-0"}


# Cell values of a drawn table, the special ones among them: a negative zero,
# a number NUMBER writes in exponent form, one near the float range, and text
# that a row template must not read as a format.
NUMBERS = st.sampled_from([-0.0, 1e-5, 1e300]) | st.floats()
TEXTS = st.sampled_from(["pd", "ad-ad", "%s", "100%"]) | st.text(max_size=4)


@st.composite
def tables(draw):
    """Columns of 1-4 axes: constant text and numbers, text along one axis,
    number arrays smaller than the table, and a full-size number array."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(
            ["number", "text", "text-axis", "part", "full"]), max_size=8)) + ["full"]:
        if kind in ("number", "text"):
            columns.append(draw(NUMBERS if kind == "number" else TEXTS))
        elif kind == "text-axis":
            axis = draw(st.integers(0, len(shape) - 1))
            texts = draw(st.lists(TEXTS, min_size=shape[axis], max_size=shape[axis]))
            columns.append(np.array(texts).reshape((-1,) + (1,) * (len(shape) - 1 - axis)))
        else:
            # A part keeps each axis or not, and may drop its leading units.
            part = tuple(n if kind == "full" or draw(st.booleans()) else 1 for n in shape)
            part = part[draw(st.integers(0, len(part))):] if kind == "part" else part
            columns.append(np.array(draw(st.lists(
                NUMBERS, min_size=math.prod(part), max_size=math.prod(part)))).reshape(part))
    return draw(st.permutations(columns))


def _full(shape, values):
    return np.resize(np.array(values), shape)


# A figure's table over (game, pairing, p, mu), and a gain claim's over
# (profile, point).
FIGURE_TABLE = [np.array(["pd", "bos", "chicken"])[:, None, None, None],
                np.array(["ad-ad", "d-ad"])[:, None, None], np.array([0.8, 1e-5])[:, None],
                np.array([0.0, 0.25, 1e300]), np.array([0.8, 1e-5])[:, None],
                np.array([0.0, 0.25, 1e300]), math.pi / 2, 0.0, 0.0, -0.0, 0.0,
                math.pi / 2, math.pi / 2, 0.0, _full((3, 2, 2, 3), [1.5, -0.0, 1e-5]),
                _full((3, 2, 2, 3), [2.0, 1e300, -1.25e-7])]
GAIN_TABLE = ["iii-a", np.array(["ph-ad", "d-ad"])[:, None], np.array(["bos", "pd"])[:, None],
              np.repeat([0.0, 0.5, 1.0], 3), np.tile([0.0, 1e-5, 1.0], 3),
              *(_full((2, 9), [v, -0.0, 1e300]) for v in (0.125, 2.0, 0.0, 1e-5))]


class TestTableRows:
    # Constants go into the row template once and small arrays are formatted
    # once per element; the rows must still equal NUMBER, or the text, in
    # every cell of every row, last axis fastest.
    @settings(max_examples=300, deadline=None)
    @given(tables())
    @example(FIGURE_TABLE)
    @example(GAIN_TABLE)
    def test_rows_equal_per_cell_formatting(self, columns):
        shape = np.broadcast_shapes(*map(np.shape, columns))

        def cell(column, index):
            v = np.broadcast_to(column, shape)[index] if isinstance(column, np.ndarray) \
                else column
            return v if isinstance(v, str) else NUMBER % v

        assert table_rows(columns) == [",".join(cell(c, index) for c in columns)
                                       for index in np.ndindex(shape)]


class TestFigureCommand:
    def test_unknown_id(self, capsys):
        assert run(["figure", "--id", "9"]) == 2
        assert capsys.readouterr().err == \
            "error: unknown figure id 9; choose from 2, 3, 4, 5, 6, 7, all\n"

    @pytest.mark.parametrize("fid,groups", [(2, 6), (3, 4), (4, 3), (5, 3),
                                            (6, 3), (7, 3)])
    def test_row_counts(self, fid, groups, tmp_path):
        assert run(["figure", "--id", str(fid), "--outdir", str(tmp_path)]) == 0
        lines = (tmp_path / f"figure{fid}.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + groups * 101

    def test_figure_config_columns(self, tmp_path):
        run(["figure", "--id", "5", "--outdir", str(tmp_path)])
        rows = (tmp_path / "figure5.csv").read_text().splitlines()[1:]
        pairings = {r.split(",")[1] for r in rows}
        assert pairings == {"ad-ad", "d-ad", "ph-ad"}
        first = rows[0].split(",")
        header = CSV_HEADER.split(",")
        row = dict(zip(header, first))
        assert row["game"] == "bos"
        assert float(row["gamma"]) == 0.0
        assert float(row["delta"]) == pytest.approx(math.pi / 2, rel=1e-11)
        assert float(row["alpha2"]) == 0.0
        assert float(row["beta2"]) == pytest.approx(math.pi / 2, rel=1e-11)

    def test_empty_outdir_writes_to_the_working_directory(self, tmp_path, monkeypatch,
                                                          capsys):
        # An empty --outdir means the working directory, not the filesystem root.
        monkeypatch.chdir(tmp_path)
        paths = []
        monkeypatch.setattr(cli, "write_csv", lambda path, rows: paths.append(path))
        assert run(["figure", "--id", "2", "--outdir", ""]) == 0
        assert paths == ["figure2.csv"]
        assert capsys.readouterr().out == "wrote 606 rows to figure2.csv\n"
        assert list(tmp_path.iterdir()) == []

    # Each figure's curves are slices of one ``mu_curves`` array: one
    # ``closed_payoff`` call per pairing of a figure, not one per curve (22).
    def test_one_curve_array_per_figure(self, tmp_path, monkeypatch, capsys):
        calls = count_calls(monkeypatch, closed_payoff)
        assert run(["figure", "--id", "all", "--outdir", str(tmp_path)]) == 0
        assert len(calls) == sum(len(fig.pairings) for fig in FIGURES.values()) == 10

    def test_all_writes_golden_csvs(self, tmp_path, capsys):
        assert run(["figure", "--id", "all", "--outdir", str(tmp_path)]) == 0
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert written == FIGURE_DIGESTS


class TestNashCommand:
    def test_unknown_case(self, capsys):
        assert run(["nash", "--case", "vii"]) == 2
        assert capsys.readouterr() == ("", "error: unknown case id 'vii'; choose from i, "
                                       "ii-a, ii-b, ii-c, ii-d, iii-a, iii-b, iii-c, iv, all\n")

    def test_key_error_prints_its_message(self, monkeypatch, capsys):
        # str() of a KeyError quotes its message; the refusal prints it bare.
        def refuse(case_id, space):
            raise KeyError(f"no case {case_id!r}")

        monkeypatch.setattr(equilibrium, "case_study", refuse)
        assert run(["nash", "--case", "i"]) == 2
        assert capsys.readouterr().err == "error: no case 'i'\n"

    def test_green_case_exits_zero(self, capsys):
        assert run(["nash", "--case", "ii-d"]) == 0

    def test_refuted_profile_exits_four(self, capsys):
        assert run(["nash", "--case", "ii-b"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_grid_flag_and_csv(self, tmp_path, capsys):
        out = tmp_path / "gains.csv"
        code = run(["nash", "--case", "ii-b", "--grid", "7x9x9",
                    "--csv", str(out)])
        assert code == 4
        lines = out.read_text().splitlines()
        assert lines[0].startswith("case,pairing,game")
        assert len(lines) == 1 + 25

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_exit_reads_the_certificates_alone(self, case_id, capsys):
        # Exactly the nash claims carry a gain table, and only they decide the
        # exit: iii-b and iii-c fail an informational claim and still exit 0.
        claims = case_study(case_id).claims
        assert [c.label for c in claims if c.gains is not None] == \
            [c.label for c in claims if c.label.startswith("nash:")]
        failed = any(not c.passed for c in claims if c.gains is not None)
        assert run(["nash", "--case", case_id]) == (4 if failed else 0)
        if case_id in ("iii-b", "iii-c"):
            assert not all(c.passed for c in claims)

    def test_all_writes_gain_table(self, tmp_path, capsys):
        out = tmp_path / "gains.csv"
        assert run(["nash", "--case", "all", "--csv", str(out)]) == 4
        header, *rows = out.read_text().splitlines()
        assert header == GAIN_HEADER
        assert len(rows) == 450
        printed = capsys.readouterr().out
        assert printed.endswith(f"wrote 450 gain rows to {out}\n")
        assert [line for line in printed.splitlines() if line.startswith("case ")] == \
            [f"case {case_id}:" for case_id in CASE_IDS]

    @pytest.mark.parametrize("grid", ["bogus", "3x3", "3x3x3x3"])
    def test_bad_grid_spec(self, grid, capsys):
        assert run(["nash", "--case", "ii-b", "--grid", grid]) == 2
        assert capsys.readouterr().err == f"error: bad grid spec {grid!r}; expected TxAxB\n"

    # 10**17 points of float64 (711 PiB) exceed any address space, so numpy
    # refuses the axis up front on every host; nothing is ever allocated.
    @pytest.mark.parametrize("grid", ["2x2x100000000000000000",
                                      "2x100000000000000000x2",
                                      "100000000000000000x2x2"])
    def test_unallocatable_grid_is_unsupported(self, grid, capsys):
        assert run(["nash", "--case", "ii-b", "--grid", grid]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "PiB" in err
        assert "Traceback" not in err


class TestStartUp:
    # A subcommand loads only what it runs.  In a fresh process, importing the
    # CLI and building its parser loads neither the oracle nor the equilibrium
    # module, nor ``dataclasses`` (no record is a dataclass); ``payoff`` adds
    # neither module, ``verify`` the oracle alone, ``nash`` equilibrium alone.
    WATCHED = ("qgmem.oracle", "qgmem.equilibrium", "dataclasses")

    @pytest.mark.parametrize("argv,loaded", [
        pytest.param(None, set(), id="import"),
        pytest.param(["payoff", "--game", "pd", "--pairing", "ad-d", "--gamma", "0",
                      "--delta", "0", "--theta1", "0", "--theta2", "0", "--p1", "0",
                      "--mu1", "0", "--p2", "0", "--mu2", "0"], set(), id="payoff"),
        pytest.param(["verify", "--pairing", "ad-ad", "--samples", "2"], {"qgmem.oracle"},
                     id="verify"),
        pytest.param(["nash", "--case", "ii-a", "--grid", "2x2x2"],
                     {"qgmem.equilibrium", "dataclasses"}, id="nash"),
    ])
    def test_modules_loaded(self, argv, loaded):
        code = ("import sys\nfrom qgmem import cli\ncli.build_parser()\n"
                + (f"assert cli.main({argv!r}) == 0\n" if argv else "")
                + f"print(*sorted(set({self.WATCHED!r}) & set(sys.modules)))")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert set(done.stdout.splitlines()[-1].split()) == loaded
