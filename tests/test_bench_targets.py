"""The benchmark's tracer finds every function it wraps.

``perfbench/tracing.py`` looks its targets up by attribute when a traced
run starts, so renaming or deleting one breaks ``--trace 1`` runs without
failing any library test.  This reads the two perfbench modules by path
and resolves every target the way ``Tracer.install`` does.
"""

import importlib.util
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracing = _load("tracing")
    _load("workloads")  # imports the library modules a job imports
    for target in tracing.TARGETS:
        module_name, _, class_name = target.owner.partition(":")
        module = sys.modules[module_name]
        if class_name:
            # a method is wrapped on its own class, not on a base class
            assert target.attr in vars(getattr(module, class_name)), target
        else:
            assert callable(getattr(module, target.attr)), target
    # the self-tests of the tracer check that this second binding is wrapped too
    assert sys.modules["ramops.dual"].theta is sys.modules["ramops.cooperad"].theta
