"""Every evaluation run, keyed by the name of its saved result.

Each entry holds the full-size ``run`` behind
``benchmarks/results/<name>.txt``, the ``format`` that turns its result
into that file's text, and the ``gate`` that asserts the paper's shape.
``python -m repro.experiments <name>`` and
``benchmarks/bench_experiments.py`` both run from this table.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.experiments import ablations, hibench, table1, table2, table3, table4, table5


@dataclass(frozen=True)
class Experiment:
    run: Callable[[], Any]
    format: Callable[[Any], str]
    gate: Callable[[Any], None]


def _table1(rows):
    assert rows == table1.PAPER_TABLE1


def _table2(rows):
    avg = table2.avg_reduction(rows)
    # paper shape: large memory/CPU/cost reductions within ~10 iterations
    assert avg["memory"] > 40.0
    assert avg["cpu"] > 25.0
    assert avg["cost"] > 40.0


def _table3(res):
    # paper shape: big post-tuning memory/CPU savings, modest overhead
    assert res.reduction_post["memory"] > 30.0
    assert res.reduction_post["cpu"] > 15.0


def _table4(rows):
    red = table4.reduction_vs(rows)
    # paper shape: best transferred config clearly beats the default
    assert red["default"][1] > 20.0


def _table5(rows):
    names = [r.name for r in rows]
    # paper shape: executor instances is the dominant parameter and the
    # resource/memory/parallelism block fills the top of the ranking
    assert "spark.executor.instances" in names[:2]
    assert "spark.executor.memory" in names[:6]


def _avg(res, name):
    return float(np.mean(list(res.relative[name].values())))


def _hibench(res):
    # paper shape: ours beats every baseline on average speedup
    ours = _avg(res, "Ours")
    for m in res.relative:
        if m != "Ours":
            assert ours >= _avg(res, m)


def _safety(res):
    # paper shape: the safe region markedly raises the safe-config share
    assert res.safe_pct_with > res.safe_pct_without + 5.0


def _agd(res):
    """No gate: AGD is neutral here, a documented deviation."""


def _subspace(res):
    for modes in res.per_task.values():
        # paper Fig. 7 shape: sub-spaces beat tuning the full 30-d space
        assert max(modes["small"], modes["adaptive"]) >= modes["full"] - 5.0


def _meta(res):
    for with_meta, without in res.curves.values():
        # paper Fig. 6 shape: after 10 iterations the meta-ensemble's
        # incumbent is at least as good as vanilla BO's
        assert with_meta[9] <= without[9] * 1.05


EXPERIMENTS: dict[str, Experiment] = {
    "table1": Experiment(table1.run, table1.format_table, _table1),
    "table2": Experiment(table2.run, table2.format_table, _table2),
    "table3": Experiment(table3.run, table3.format_table, _table3),
    "table4": Experiment(table4.run, table4.format_table, _table4),
    "table5": Experiment(table5.run, table5.format_table, _table5),
    "hibench_runtime": Experiment(
        partial(hibench.run, objective="runtime"), hibench.format_table, _hibench),
    "hibench_cost": Experiment(
        partial(hibench.run, objective="cost"), hibench.format_table, _hibench),
    "ablation_safety": Experiment(ablations.safety, ablations.format_safety, _safety),
    "ablation_agd": Experiment(ablations.agd, ablations.format_agd, _agd),
    "ablation_subspace": Experiment(ablations.subspace, ablations.format_subspace, _subspace),
    "ablation_meta": Experiment(ablations.meta_ensemble, ablations.format_meta, _meta),
}
