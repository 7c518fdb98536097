import hashlib
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import count_calls
from test_golden import FIGURE_DIGESTS

from qgmem import cli
from qgmem.channels import ChannelKind, ChannelSpec
from qgmem.cli import (CSV_HEADER, ENTRY_BOUND, GAIN_HEADER, VERIFY_BLOCK, build_parser,
                       main, parse_angle, parse_sweep_config, run_sweep, verify_blocks)
from qgmem.closedform import Pairing, payoff_surface
from qgmem.equilibrium import CASE_IDS
from qgmem.games import builtin_game
from qgmem.oracle import two_pass_state
from qgmem.protocol import (EntanglementParams, StrategyParams, measure_payoff,
                            payoff_operator)


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


class TestParseAngle:
    @pytest.mark.parametrize("text,expected", [
        ("pi", math.pi), ("pi/2", math.pi / 2), ("-pi", -math.pi),
        ("pi/4", math.pi / 4), ("0", 0.0), ("1.25", 1.25), ("-0.5", -0.5),
    ])
    def test_values(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("two-pi")

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
            ChannelSpec(pairing.first, point["p1"], point["mu1"]),
            ChannelSpec(pairing.second, point["p2"], point["mu2"]))
        game = builtin_game("chicken")
        oracle = [measure_payoff(payoff_operator(ent.delta, entries), rho)
                  for entries in (game.a, game.b)]
        assert printed == pytest.approx(oracle, abs=1e-9)


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
    ])
    def test_scalar_message_text(self, make, message, capsys):
        if callable(make):
            with pytest.raises(ValueError) as info:
                make()
            assert str(info.value) == message
        else:
            assert run(make) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
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

    def test_deterministic_output(self, capsys):
        run(["verify", "--pairing", "d-ph", "--samples", "25", "--seed", "5"])
        first = capsys.readouterr().out
        run(["verify", "--pairing", "d-ph", "--samples", "25", "--seed", "5"])
        assert capsys.readouterr().out == first

    @staticmethod
    def per_sample_draws(pairing, samples, seed, mu_zero):
        """The tuples as verify drew them one sample at a time, in the order
        of the rows of ``verify_blocks``."""
        rng = random.Random(seed)
        rows = []
        for _ in range(samples):
            entries = [rng.uniform(-2.0, 5.0) for _ in range(4)]
            ent = [rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi / 2)]
            s1 = [rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi),
                  rng.uniform(-math.pi, math.pi)]
            s2 = [rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi),
                  rng.uniform(-math.pi, math.pi)]
            cps = []
            for kind in (pairing.first, pairing.second):
                mu = rng.random()
                if mu_zero and kind is ChannelKind.AMPLITUDE_DAMPING:
                    mu = 0.0
                cps += [rng.random(), mu]
            rows.append(entries + cps + ent + s1 + s2)
        return np.array(rows).T

    @pytest.mark.parametrize("pairing", ["ad-d", "ph-ad", "d-ph"])
    @pytest.mark.parametrize("mu_zero", [False, True])
    def test_draw_order_of_per_sample_loop(self, pairing, mu_zero):
        pairing = Pairing.from_string(pairing)
        blocks = list(verify_blocks(pairing, 2 * VERIFY_BLOCK + 7, 11, mu_zero))
        assert [b.shape for b in blocks] == [(16, VERIFY_BLOCK)] * 2 + [(16, 7)]
        want = self.per_sample_draws(pairing, 2 * VERIFY_BLOCK + 7, 11, mu_zero)
        assert np.array_equal(np.concatenate(blocks, axis=1), want)

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
        orig, done = cli.payoff_surface, [0]

        def surface(*args):
            closed = np.array(orig(*args))
            if 0 <= index - done[0] < closed.size:
                closed[index - done[0]] = np.nan
            done[0] += closed.size
            return closed

        monkeypatch.setattr(cli, "payoff_surface", surface)
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
    # address space, so numpy refuses the axis before anything is allocated.
    def test_unallocatable_axis_is_unsupported(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        conf = tmp_path / "s.conf"
        conf.write_text("game = pd\npairing = ph-ph\nsweep.p1 = 0:1:100000000000000000\n"
                        f"output = {out}\n")
        assert run(["sweep", "--config", str(conf)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_axis_order_canonical(self):
        cfg = parse_sweep_config(
            "game = pd\npairing = ph-ph\nsweep.theta2 = 0:pi:3\n"
            "sweep.p1 = 0:1:2\n")
        assert [name for name, _ in cfg.axes] == ["p1", "theta2"]
        rows = run_sweep(cfg)
        assert len(rows) == 6
        # p1 is the outer loop
        assert [r.split(",")[2] for r in rows] == ["0", "0", "0", "1", "1", "1"]


class TestFigureCommand:
    def test_unknown_id(self):
        assert run(["figure", "--id", "9"]) == 2

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

    def test_all_writes_golden_csvs(self, tmp_path, capsys):
        assert run(["figure", "--id", "all", "--outdir", str(tmp_path)]) == 0
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert written == FIGURE_DIGESTS


class TestNashCommand:
    def test_unknown_case(self):
        assert run(["nash", "--case", "vii"]) == 2

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
