"""The benchmark's traced run wraps sdpn functions by name: every name in
``perfbench/run.py``'s ``LAYERS`` must still exist, or ``--trace 1``
fails at start-up."""

import ast
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def layer_names():
    """The function names in ``LAYERS``, read from the source with ast: the
    third field of each (workload, metric, names) tuple it iterates."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["LAYERS"]:
            groups = node.value.generators[0].iter.elts
            return [ast.literal_eval(g.elts[2]) for g in groups]
    raise AssertionError("no LAYERS assignment in perfbench/run.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def resolve(name):
    module_name, *path = name.split(".")
    owner = importlib.import_module(f"sdpn.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner.__dict__[path[-1]]


def test_tracer_installs_and_uninstalls_every_layer():
    names = [n for group in layer_names() for n in group]
    assert "model.forward_embed" in names and len(names) == len(set(names))
    before = {n: resolve(n) for n in names}
    tracer = load_tracer()(names)
    tracer.install()
    try:
        for n in names:
            assert resolve(n) is not before[n], f"{n} was not wrapped"
    finally:
        tracer.uninstall()
    for n in names:
        assert resolve(n) is before[n], f"{n} was not restored"

