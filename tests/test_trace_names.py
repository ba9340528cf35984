"""The span tracer wraps the program's callables by name: every name it
looks up, and every span the benchmark reports, must still exist, or the
traced benchmark run raises `KeyError` or reports a span that never runs."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


def layer(name):
    return importlib.import_module("freeconv." + name)


def run_py_spans():
    """SELF_SPANS and CALL_SPANS of the benchmark runner, read without
    importing it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SELF_SPANS", "CALL_SPANS"):
                    found[target.id] = ast.literal_eval(node.value)
    assert set(found) == {"SELF_SPANS", "CALL_SPANS"}
    return found


@pytest.mark.parametrize("module, cls, attr, span", tracer.METHODS, ids=[m[3] for m in tracer.METHODS])
def test_every_traced_method_is_in_its_class_dict(module, cls, attr, span):
    assert attr in vars(getattr(layer(module), cls))


def test_every_reported_span_is_one_the_tracer_makes():
    made = {span for *_, span in tracer.METHODS}
    for name in tracer.LAYERS:
        made.update(f"{name}.{fn}" for fn, _ in tracer._public_callables(layer(name)))
    for group, spans in run_py_spans().items():
        missing = [s for s in spans if s not in made]
        assert not missing, (group, missing)
