"""The traced benchmark (bench/trace_cli.py) wraps program functions by
name and counts FieldSpec methods by name.  A rename or deletion in the
program would leave a wrapper pointing at nothing, so every name it
reaches for must still exist.  The file is only parsed, never run."""

import ast
import importlib
from pathlib import Path

from rankmetric import gf

TRACE_CLI = Path(__file__).resolve().parents[1] / "bench" / "trace_cli.py"


def _tree():
    return ast.parse(TRACE_CLI.read_text(encoding="utf-8"))


def _rankmetric_modules(tree):
    """Local name -> module for every ``from rankmetric import ...``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "rankmetric":
            for alias in node.names:
                out[alias.asname or alias.name] = importlib.import_module(f"rankmetric.{alias.name}")
    return out


def test_every_wrapped_module_attribute_exists():
    tree = _tree()
    modules = _rankmetric_modules(tree)
    assert {"_linalg", "autgroup", "cli", "gf", "linpoly", "nuclei", "rankcode"} <= set(modules)
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("nuclei", "predict_right_nucleus") in used and ("cli", "resolve_instance") in used
    missing = sorted(f"{mod}.{attr}" for mod, attr in used if not hasattr(modules[mod], attr))
    assert missing == []


def test_every_counted_fieldspec_method_exists():
    counted = [node.args[0].value for node in ast.walk(_tree())
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "counting"]
    assert sorted(counted) == ["add", "inv", "mul", "pow"]
    assert all(callable(getattr(gf.FieldSpec, name, None)) for name in counted)
