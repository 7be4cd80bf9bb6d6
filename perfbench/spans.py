"""Spans around the public calls of each ``repro`` layer, and the
per-layer metrics derived from them.

The tracer patches the benchmarked program from the outside: methods are
replaced on their class, module-level functions in every ``repro``
module that looks them up (``eic`` is called through
``repro.core.generator``, ``fanova_importance`` through
``repro.core.subspace``, ...). A span is ``(name, start_ns, end_ns,
parent, task, rows)``: ``parent`` is the index of the enclosing span
(-1 at top level), ``task`` the index of the tuning task it ran for and
``rows`` the row count of the input matrix for GP calls.
"""
from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.baselines import CherryPickTuner, LOCATTuner, TunefulTuner
from repro.core import acquisition, meta
from repro.core.agd import AGDStepper
from repro.core.bo import RunHistory
from repro.core.config_space import ConfigSpace
from repro.core.controller import OnlineTuner
from repro.core.generator import ConfigGenerator
from repro.core.gp import GaussianProcess
from repro.core.meta import MetaEnsembleSurrogate, MetaLearner
from repro.core.subspace import SubspaceManager
from repro.ml import fanova
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostedRegressor
from repro.simcluster.simulator import ClusterSimulator

#: (span name, class, method). The layer is the name's first component.
METHODS = (
    ("simcluster.run", ClusterSimulator, "run"),
    ("config_space.sample_random", ConfigSpace, "sample_random"),
    ("config_space.sample_sobol", ConfigSpace, "sample_sobol"),
    ("config_space.from_unit", ConfigSpace, "from_unit"),
    ("config_space.to_unit", ConfigSpace, "to_unit"),
    ("config_space.clip", ConfigSpace, "clip"),
    ("gp.fit", GaussianProcess, "fit"),
    ("gp.predict", GaussianProcess, "predict"),
    ("bo.X_unit", RunHistory, "X_unit"),
    ("subspace.update_importance", SubspaceManager, "update_importance"),
    ("forest.fit", RandomForestRegressor, "fit"),
    ("agd.step", AGDStepper, "step"),
    ("generator.suggest", ConfigGenerator, "suggest"),
    ("controller.suggest", OnlineTuner, "suggest"),
    ("meta.fit", MetaLearner, "fit"),
    ("meta.ensemble_predict", MetaEnsembleSurrogate, "predict"),
    ("gbm.fit", GradientBoostedRegressor, "fit"),
    ("baselines.CherryPick.suggest", CherryPickTuner, "suggest"),
    ("baselines.Tuneful.suggest", TunefulTuner, "suggest"),
    ("baselines.LOCAT.suggest", LOCATTuner, "suggest"),
)

#: (span name, function), wrapped wherever a ``repro`` module holds it.
FUNCTIONS = (
    ("acquisition.eic", acquisition.eic),
    ("acquisition.expected_improvement", acquisition.expected_improvement),
    ("acquisition.prob_below", acquisition.prob_below),
    ("acquisition.safe_mask", acquisition.safe_mask),
    ("fanova.importance", fanova.fanova_importance),
    ("meta.surrogate_distance", meta.surrogate_distance),
)

_ROWS = {"gp.fit", "gp.predict"}  # spans that record len(X)


class Tracer:
    """Records spans while ``active``; ``install``/``uninstall`` patch
    and restore the program. While ``roots`` is a set of names, a
    top-level span is recorded only if it has one of them."""

    def __init__(self) -> None:
        self.spans: list = []
        self.active = False
        self.roots: set[str] | None = None
        self.task = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        rows = name in _ROWS

        def traced(*args, **kwargs):
            if not self.active or (self.roots is not None and not stack
                                   and name not in self.roots):
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                n = len(args[1]) if rows else 0
                spans[idx] = (name, start, end, parent, self.task, n)

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for name, cls, attr in METHODS:
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "repro" or n.startswith("repro.")) and m is not None]
        for name, fn in FUNCTIONS:
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def clear(self) -> None:
        self.spans.clear()

    @contextmanager
    def paused(self):
        """No spans for the benchmark's own calls into the program."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def write(self, path: str) -> None:
        """Spans as gzip'd TSV: name, start_ns, end_ns, parent, task, rows."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart_ns\tend_ns\tparent\ttask\trows\n")
            for s in self.spans:
                f.write("\t".join(map(str, s)) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list) -> dict[str, float]:
    """Calls, busy and self time per span name, and busy time per layer.

    Busy time counts a span only when no ancestor belongs to the same
    layer or name, so nested calls are not counted twice; self time is a
    span's duration minus that of its direct children.
    """
    calls: dict[str, int] = defaultdict(int)
    rows: dict[str, int] = defaultdict(int)
    busy: dict[str, int] = defaultdict(int)
    layer_busy: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, start, end, parent, _, n) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        rows[name] += n
        self_ns[name] += dur - child_ns[i]
        layer = _layer(name)
        outer_name = outer_layer = True
        p = parent
        while p >= 0 and (outer_name or outer_layer):
            pname = spans[p][0]
            outer_name &= pname != name
            outer_layer &= _layer(pname) != layer
            p = spans[p][3]
        if outer_name:
            busy[name] += dur
        if outer_layer:
            layer_busy[layer] += dur
    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_ms"] = busy[name] / 1e6
        out[f"{name}.self_ms"] = self_ns[name] / 1e6
        if name in _ROWS:
            out[f"{name}.rows"] = rows[name]
    for layer, ns in layer_busy.items():
        out[f"{layer}.busy_ms"] = ns / 1e6
    return out


def parent_share(spans: list, child: str, parent: str, base: str) -> float:
    """Spans named ``child`` whose parent is named ``parent``, per span
    named ``base`` (0 when there is none)."""
    hits = sum(1 for s in spans
               if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)
    n = sum(1 for s in spans if s[0] == base)
    return hits / n if n else 0.0
