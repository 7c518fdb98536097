"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps the public functions listed in ``LAYERS`` by
rebinding each name in every ``qgmem`` module that holds it (so
``qgmem.oracle.two_use_kraus`` and ``qgmem.channels.two_use_kraus`` are both
wrapped); ``uninstall`` puts the originals back.  No file under ``src/`` is
touched.

A timed layer records one span per call: layer, start, end, parent span and
operation id.  Spans stay in memory (typed arrays) and are written out once
by ``dump``.  A layer that reports only ``calls`` is counted, not timed:
those functions are too short to time without distorting them.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# layer -> (functions as "module:attribute" or "module:Class.method",
#           statistics reported for the layer)
LAYERS = {
    "closedform.coeffs": (("qgmem.closedform:ad_coeffs",
                           "qgmem.closedform:depol_coeffs",
                           "qgmem.closedform:dephasing_coeff"),
                          ("calls", "self_s")),
    "closedform.pairing_weights": (("qgmem.closedform:pairing_weights",),
                                   ("calls", "self_s", "us_p50", "unique_ratio")),
    "closedform.payoff_surface": (("qgmem.closedform:payoff_surface",),
                                  ("calls", "points", "self_s", "points_per_s")),
    "closedform.closed_payoff_pair": (("qgmem.closedform:closed_payoff_pair",),
                                      ("us_p50", "us_p99")),
    "closedform.closed_payoff": (("qgmem.closedform:closed_payoff",),
                                 ("us_p50", "us_p99")),
    "channels.two_use_kraus": (("qgmem.channels:two_use_kraus",),
                               ("calls", "self_s", "us_p50", "ops_per_call")),
    "channels.apply_channel": (("qgmem.channels:apply_channel",),
                               ("calls", "self_s", "us_p50")),
    "oracle.two_pass_state": (("qgmem.oracle:two_pass_state",),
                              ("calls", "self_s", "us_p50", "us_p99")),
    "protocol.strategy_unitary": (("qgmem.protocol:strategy_unitary",), ("calls",)),
    "protocol.payoff_operator": (("qgmem.protocol:payoff_operator",),
                                 ("calls", "self_s")),
    "protocol.measure_payoff": (("qgmem.protocol:measure_payoff",),
                                ("calls", "self_s")),
    "qmat.tensor": (("qgmem.qmat:tensor",), ("calls",)),
    "qmat.dagger": (("qgmem.qmat:dagger",), ("calls",)),
    "equilibrium.case_study": (("qgmem.equilibrium:case_study",),
                               ("calls", "self_s")),
    "equilibrium.check_profile": (("qgmem.equilibrium:check_profile",),
                                  ("calls", "self_s", "ms_p50")),
    "equilibrium.mesh": (("qgmem.equilibrium:StrategySpace.mesh",),
                         ("calls", "self_s", "unique_ratio")),
    "games.builtin_game": (("qgmem.games:builtin_game",), ("calls",)),
    "cli.main": (("qgmem.cli:main",), ("calls", "self_s")),
    "cli.parse_sweep_config": (("qgmem.cli:parse_sweep_config",), ("self_s",)),
    "cli.run_sweep": (("qgmem.cli:run_sweep",), ("self_s",)),
    "cli.figure_rows": (("qgmem.cli:figure_rows",), ("self_s",)),
    "cli.make_row": (("qgmem.cli:make_row",), ("calls", "self_s", "us_p50")),
    "cli.write_csv": (("qgmem.cli:write_csv",), ("bytes", "self_s")),
}

UNITS = {"calls": "count", "self_s": "s", "us_p50": "us", "us_p99": "us",
         "ms_p50": "ms", "unique_ratio": "ratio", "points": "count",
         "points_per_s": "1/s", "ops_per_call": "count", "bytes": "bytes"}


# Identity of a call's inputs, for the layers that report unique_ratio.
UNIQUE_KEY = {
    "closedform.pairing_weights": lambda args, kwargs: (args, tuple(kwargs.items())),
    "equilibrium.mesh": lambda args, kwargs: args[0],  # the StrategySpace
}
# Work a call did, summed into the layer's points, bytes or ops_per_call.
AMOUNT = {
    "closedform.payoff_surface": lambda args, result: int(np.size(result)),
    "cli.write_csv": lambda args, result: os.path.getsize(args[0]),
    "channels.two_use_kraus": lambda args, result: len(result.operators),
}


def _percentile(sorted_values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not sorted_values:
        return 0
    return sorted_values[min(len(sorted_values) - 1,
                             max(0, math.ceil(q * len(sorted_values)) - 1))]


class Tracer:
    """Spans and counts of the layers in ``LAYERS``, for one thread."""

    def __init__(self):
        self.names = list(LAYERS)
        self.layer = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.amounts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, layer, fn):
        if LAYERS[layer][1] == ("calls",):
            counts = self.counts

            def counted(*args, **kwargs):
                counts[layer] += 1
                return fn(*args, **kwargs)
            return counted

        lid = self.names.index(layer)
        key, amount = UNIQUE_KEY.get(layer), AMOUNT.get(layer)
        layers, parents, ops = self.layer, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack
        keys, amounts = self.keys[layer], self.amounts

        def spanned(*args, **kwargs):
            idx = len(starts)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx], ends[idx] = t0, t1
            if key is not None:
                keys.add(key(args, kwargs))
            if amount is not None:
                amounts[layer] += amount(args, result)
            return result
        return spanned

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qgmem" or name.startswith("qgmem.")]
        for layer, (targets, _) in LAYERS.items():
            for target in targets:
                modname, _, attr = target.partition(":")
                module = importlib.import_module(modname)
                if "." in attr:  # a method: rebind it on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._rebind(cls, meth, orig, self._wrap(layer, orig))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(layer, orig)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, name, orig, wrapper)

    def _rebind(self, owner, name, orig, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer statistics over every span recorded so far."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        per_layer = defaultdict(list)
        self_ns = defaultdict(int)
        for i, lid in enumerate(self.layer):
            per_layer[lid].append(dur[i])
            self_ns[lid] += dur[i] - child[i]

        out = {}
        for lid, layer in enumerate(self.names):
            durs = sorted(per_layer[lid])
            calls = self.counts[layer] if LAYERS[layer][1] == ("calls",) \
                else len(durs)
            self_s = self_ns[lid] / 1e9
            amount = self.amounts[layer]
            stat = {
                "calls": calls,
                "self_s": self_s,
                "us_p50": _percentile(durs, 0.50) / 1e3,
                "us_p99": _percentile(durs, 0.99) / 1e3,
                "ms_p50": _percentile(durs, 0.50) / 1e6,
                "unique_ratio": len(self.keys[layer]) / calls if calls else 0.0,
                "points": amount,
                "points_per_s": amount / self_s if self_s else 0.0,
                "ops_per_call": amount / calls if calls else 0.0,
                "bytes": amount,
            }
            for name in LAYERS[layer][1]:
                out[f"{layer}.{name}"] = (stat[name], UNITS[name])
        return out

    def dump(self, path: Path) -> None:
        """Write every span as a tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tlayer\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.names[self.layer[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\n")
