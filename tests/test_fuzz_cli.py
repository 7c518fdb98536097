"""Hypothesis fuzz of the CLI contract.

Whatever its arguments, ``main`` returns 0, 2, 3 or 4 and prints no
traceback; whatever its text, ``parse_sweep_config`` returns a config or
raises the ``ValueError`` that ``main`` reports as a usage error (exit 2),
or the ``MemoryError`` of an axis too large to allocate, which ``main``
reports as unsupported (exit 3).

Arguments and config lines are drawn from their valid domains, and then a
few of them are broken: left out, given without a value, or given junk.  So
the examples reach the computations and not only the parsers.  Grid sizes,
sample counts and sweep steps are drawn small, so no example allocates large
arrays, and every output path lies in a temporary directory.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qgmem.cli import SWEEPABLE, SweepConfig, main, parse_sweep_config
from qgmem.closedform import Pairing
from qgmem.equilibrium import CASE_IDS

PI = math.pi
EXIT_CODES = {0, 2, 3, 4}
COMMANDS = (["payoff"], ["verify"], ["sweep"], ["figure"], ["nash"])


def within(lo, hi, *literals):
    return st.floats(lo, hi).map(repr) | st.sampled_from(literals)


PROB = within(0.0, 1.0, "0", "1", "0.5")
DOMAIN = {"gamma": within(0.0, PI / 2, "0", "pi/2", "pi/4"),
          "delta": within(0.0, PI / 2, "0", "pi/2", "pi/4"),
          "theta1": within(0.0, PI, "0", "pi", "pi/2"),
          "theta2": within(0.0, PI, "0", "pi", "pi/2"),
          **{a: within(-PI, PI, "-pi", "pi", "pi/2")
             for a in ("alpha1", "beta1", "alpha2", "beta2")},
          **{c: PROB for c in ("p1", "mu1", "p2", "mu2")}}
PAIRING = st.sampled_from([p.value for p in Pairing])
GAME = st.sampled_from(["pd", "bos", "chicken"])
JUNK = (st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "1e-400", "+",
                         "pi/", "pi/0", "pi/-0", "pi/nan", "pi/1e-320", "1,2",
                         "-1", "7", "xy-zz", "custom", "all", "0x3x3",
                         "3x3", "3x3x3x3"])
        | st.floats().map(repr) | st.text(max_size=6))


def small_grid(lo=2, hi=4):
    return st.lists(st.integers(lo, hi), min_size=3, max_size=3).map(
        lambda ns: "x".join(map(str, ns)))


@st.composite
def argv(draw, command, flags, switches=()):
    """``command`` with every flag valued from its domain, except a few drawn
    to be broken: left out, given without a value, or given junk."""
    broken = draw(st.sets(st.sampled_from([f for f, _ in flags]), max_size=2))
    out = [command]
    for flag, good in flags:
        if flag not in broken:
            out += [flag, draw(good)]
        else:
            out += draw(st.sampled_from([[], [flag]]) | JUNK.map(lambda x: [flag, x]))
    return out + [s for s in switches if draw(st.booleans())]


PAYOFF = argv("payoff", [("--game", GAME), ("--pairing", PAIRING)]
              + [(f"--{name}", domain) for name, domain in DOMAIN.items()])
VERIFY = argv("verify", [("--pairing", PAIRING),
                         ("--samples", st.integers(1, 3).map(str)),
                         ("--seed", st.integers(-10**20, 10**20).map(str)),
                         ("--tol", within(0.0, 1.0, "1e-9"))], ["--mu-zero"])
FIGURE = argv("figure", [("--id", st.integers(2, 7).map(str))])
NASH = argv("nash", [("--case", st.sampled_from(CASE_IDS)), ("--grid", small_grid())])
STRAY = st.lists(JUNK | st.sampled_from(["payoff", "nash", "-h", "--x"]), max_size=3)

AXIS_DOMAIN = {"p1": PROB, "mu1": PROB, "p2": PROB, "mu2": PROB,
               "theta2": DOMAIN["theta2"], "alpha2": DOMAIN["alpha2"],
               "beta2": DOMAIN["beta2"]}
assert set(AXIS_DOMAIN) == set(SWEEPABLE)


@st.composite
def config_text(draw):
    """A sweep config of 1-3 axes with 2-4 steps each and some fixed keys,
    a few of its lines broken, and a few junk lines inserted."""
    game = draw(GAME | st.just("custom"))
    lines = [f"game = {game}", f"pairing = {draw(PAIRING)}"]
    if game == "custom":
        entries = st.lists(st.floats(-5, 5).map(repr), min_size=4, max_size=4)
        lines += [f"entries_{k} = {','.join(draw(entries))}" for k in "ab"]
    for key in draw(st.sets(st.sampled_from(sorted(DOMAIN)), max_size=4)):
        lines.append(f"{key} = {draw(DOMAIN[key])}")
    for axis in draw(st.sets(st.sampled_from(SWEEPABLE), min_size=1, max_size=3)):
        lo, hi = draw(AXIS_DOMAIN[axis]), draw(AXIS_DOMAIN[axis])
        lines.append(f"sweep.{axis} = {lo}:{hi}:{draw(st.integers(2, 4))}")
    for i in draw(st.sets(st.integers(0, len(lines) - 1), max_size=2)):
        key = lines[i].partition(" = ")[0]
        lines[i] = draw(st.sampled_from([f"{key} =", key, f"{key} = {key}"])
                        | JUNK.map(lambda x: f"{key} = {x}")
                        | st.sampled_from([f"{key} = 0:1", f"{key} = 0:1:2:3",
                                           f"{key} = 0:1:-1", f"{key} = 0:1:x"]))
    extra = st.sampled_from(["", "# comment", "=", "bogus = 1", "sweep.gamma = 0:1:2",
                             "sweep.p1 = 0:1:2", "output"]) | JUNK
    lines += draw(st.lists(extra, max_size=2))
    return "\n".join(draw(st.permutations(lines)))


def run_main(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in EXIT_CODES, (args, code, err.getvalue())
    assert "Traceback" not in err.getvalue() + out.getvalue(), args
    event(f"{args[0] if args[:1] in COMMANDS else 'other'}: exit {code}")


@given(PAYOFF | VERIFY | FIGURE | NASH | STRAY)
@settings(max_examples=150, deadline=None)
def test_main_keeps_exit_code_contract(args):
    with tempfile.TemporaryDirectory() as tmp:
        if args[:1] == ["figure"]:
            args = [*args, "--outdir", tmp]
        if args[:1] == ["nash"]:
            args = [*args, "--csv", str(Path(tmp) / "gains.csv")]
        run_main(args)


@given(config_text())
@settings(max_examples=100, deadline=None)
def test_sweep_keeps_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        conf = Path(tmp) / "sweep.conf"
        conf.write_text(f"{text}\noutput = {Path(tmp) / 'sweep.csv'}\n")
        run_main(["sweep", "--config", str(conf)])


@given(config_text() | st.text(max_size=200))
# 10**17 float64 steps: numpy refuses the axis before allocating it.
@example("game = pd\npairing = ph-ph\nsweep.p1 = 0:1:100000000000000000\n")
@settings(max_examples=200, deadline=None)
def test_parse_sweep_config_raises_only_usage_errors(text):
    try:
        cfg = parse_sweep_config(text)
    except (ValueError, MemoryError):
        return
    assert isinstance(cfg, SweepConfig) and cfg.axes
