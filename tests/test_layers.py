"""Every per-layer pattern of the benchmark names a function it can trace.

``perfbench/run.py`` groups traced spans into layers by ``fnmatch`` patterns
over ``module.function`` names, and ``perfbench/tracer.py`` wraps only the
public module-level functions of the loaded ``fuscat.*`` modules.  A pattern
that matches none of them would make its layer's metrics read zero without
any error, so a rename must fail here instead.
"""

import ast
import fnmatch
import importlib.util
import pathlib
import sys

import pytest

import fuscat.cli  # noqa: F401  -- loads every module the CLI runs

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _layers():
    """LAYERS from run.py, read without importing it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no LAYERS")


def _traced_names():
    """The names the tracer wraps, by the tracer's own rule."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = set()
    for name, module in sorted(sys.modules.items()):
        if name.startswith("fuscat.") and module is not None:
            names.update(n for n, _ in tracer._public_functions(module))
    return names


PATTERNS = sorted({(layer, pattern) for layer, patterns in _layers().items()
                   for pattern in patterns})


def test_layers_are_read():
    assert len(PATTERNS) >= 20


@pytest.mark.parametrize("layer,pattern", PATTERNS)
def test_layer_pattern_matches_a_traced_function(layer, pattern):
    assert fnmatch.filter(sorted(_traced_names()), pattern), (layer, pattern)
