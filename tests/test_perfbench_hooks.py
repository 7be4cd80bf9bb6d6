"""The benchmark's tracer (``perfbench/spans.py``) patches ``repro`` from
the outside: each traced method must stay defined on the class it names,
and ``uninstall`` must put back everything ``install`` replaced. A
refactor that moves a traced method elsewhere breaks every benchmark run."""
import importlib.util
import os
import sys

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_patches_and_uninstall_restores():
    spans = _spans_module()
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
