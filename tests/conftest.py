import math
import random
import sys

import pytest

from qgmem.protocol import EntanglementParams, StrategyParams

PI = math.pi


def random_strategy(rng: random.Random) -> StrategyParams:
    return StrategyParams(rng.uniform(0, PI), rng.uniform(-PI, PI),
                          rng.uniform(-PI, PI))


def random_ent(rng: random.Random) -> EntanglementParams:
    return EntanglementParams(rng.uniform(0, PI / 2), rng.uniform(0, PI / 2))


def random_entries(rng: random.Random, lo=-2.0, hi=5.0):
    return tuple(rng.uniform(lo, hi) for _ in range(4))


def rebind(monkeypatch, func, replacement):
    """Replace ``func`` by ``replacement`` under every qgmem module's name for
    it."""
    for name, mod in list(sys.modules.items()):
        if name == "qgmem" or name.startswith("qgmem."):
            for attr, value in list(vars(mod).items()):
                if value is func:
                    monkeypatch.setattr(mod, attr, replacement)


def count_calls(monkeypatch, func):
    """Replace ``func`` under every qgmem module's name for it by a wrapper
    that counts its calls; returns the list the calls are appended to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return func(*args, **kwargs)

    rebind(monkeypatch, func, counted)
    return calls


@pytest.fixture
def rng():
    return random.Random(20240817)
