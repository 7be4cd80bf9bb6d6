"""The benchmark (``perfbench/``) drives ``repro`` from the outside.

Its tracer (``spans.py``) patches ``repro``: each traced method must stay
defined on the class it names, and ``uninstall`` must put back everything
``install`` replaced. Its workloads (``workloads.py``) build problems and
tuners through ``make_problem``, ``default_constraints`` and the tuners'
keyword arguments. A refactor that moves a traced method or changes one
of those calls breaks every benchmark run."""
import importlib.util
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_install_patches_and_uninstall_restores():
    spans = _perfbench_module("spans")
    methods = {(cls, attr): cls.__dict__[attr] for _, cls, attr in spans.METHODS}
    modules = [m for n, m in sys.modules.items()
               if (n == "repro" or n.startswith("repro.")) and m is not None]
    functions = {(mod, attr): fn for _, fn in spans.FUNCTIONS for mod in modules
                 for attr, value in vars(mod).items() if value is fn}
    assert len(functions) >= len(spans.FUNCTIONS)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(cls.__dict__[attr] is not fn for (cls, attr), fn in methods.items())
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in functions.items())
    finally:
        tracer.uninstall()
    assert all(cls.__dict__[attr] is fn for (cls, attr), fn in methods.items())
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in functions.items())


def test_every_workload_sets_up_and_tunes():
    """Each workload's smoke set-up builds its tasks, and each task runs two
    suggest → evaluate → observe rounds."""
    workloads = _perfbench_module("workloads")
    assert set(workloads.WORKLOADS) == {"ours-hibench", "bo-baselines", "meta-warmstart"}
    for workload in workloads.WORKLOADS.values():
        tasks = workload.setup(1, True, False)
        assert tasks
        for task in tasks:
            for it in range(2):
                config = task.tuner.suggest()
                task.tuner.observe(config, task.evaluator.evaluate(config, it))
            assert len(task.tuner.history) == 2
            assert task.reference_objective > 0
