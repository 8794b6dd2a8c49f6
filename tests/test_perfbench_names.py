"""The benchmark's traced run names segflow functions by string.

`perfbench/run.py` reports per-layer times for the functions named in its
SELF_TIMES and CALL_COUNTS tables, and `perfbench/spans.py` observes some
of them through their parameter names.  A renamed function or parameter
makes the traced run fail; these tests catch it in tier-1 instead.  So
does a function the pipeline stops calling: the last test runs synth and
the ten commands in-process under the benchmark's own tracer.
"""
import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def module_dict(path: Path, name: str) -> dict:
    """The value of the module-level dict literal ``name`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{path.name} defines no {name}")


def traced_function(dotted: str):
    """The public function ``layer.name`` as the tracer finds it."""
    layer, name = dotted.split(".")
    module = importlib.import_module(f"segflow.{layer}")
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, dotted
    assert not name.startswith("_"), dotted
    return fn


TRACED = sorted({name for table in ("SELF_TIMES", "CALL_COUNTS")
                 for name in ast.literal_eval(
                     module_dict(PERFBENCH / "run.py", table)).values()})


@pytest.mark.parametrize("dotted", TRACED)
def test_traced_function_is_public(dotted):
    traced_function(dotted)


def test_observed_parameters_exist():
    """Each observer's ``args["..."]`` names a parameter of its function."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    observers = module_dict(PERFBENCH / "spans.py", "OBSERVERS")
    args_read = {node.name: {ast.literal_eval(sub.slice) for sub in ast.walk(node)
                             if isinstance(sub, ast.Subscript)
                             and isinstance(sub.value, ast.Name) and sub.value.id == "args"}
                 for node in tree.body if isinstance(node, ast.FunctionDef)}
    for key, observer in zip(observers.keys, observers.values):
        dotted = ast.literal_eval(key)
        params = inspect.signature(traced_function(dotted)).parameters
        assert args_read[observer.id] <= set(params), dotted


def perfbench_module(name: str):
    """``perfbench/<name>.py``, imported under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_pipeline_calls_every_reported_function(tmp_path):
    """Every function the benchmark reports is called, and every observer
    runs: an observer that raises makes its command exit non-zero."""
    import segflow.cli as cli
    spans, pipeline = perfbench_module("spans"), perfbench_module("pipeline")
    city = tmp_path / "city"
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.command = "synth"
        assert cli.main(pipeline.synth_args("smoke", 7, city)) == 0
        for command, flags in pipeline.PIPELINE:
            tracer.command = command
            argv = [command, *flags, "--data", str(city), "--out", str(tmp_path / command)]
            assert cli.main(argv) == 0, command
    finally:
        tracer.uninstall()
    assert set(spans.OBSERVERS) <= set(TRACED)
    assert [name for name in TRACED if tracer.calls(name) == 0] == []
