"""Source rules of the package, checked on its syntax trees.

- No ``assert`` statements: ``python -O`` strips them, so an invariant that
  guards a result must raise a typed error instead.
- No runtime dependencies: every absolute import names a standard-library
  module; the package's own modules are imported relatively.
- Only ``series.py`` calls ``compose`` or ``invert_parameter``: they are the
  reference the faster kernels are tested against, not a code path.
- Helpers that only tests use live in ``tests/oracles.py``: no module of the
  package defines ``semigroup_elements``, ``proximity_matrix`` or
  ``invert_unit``.
"""
import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "germflow").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    names = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.module, node.lineno))
    outside = [(name, line) for name, line in names
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == [], f"{path.name}: non-stdlib imports {outside}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "series.py"],
                         ids=lambda p: p.name)
def test_reference_series_kernels_stay_in_series(path):
    calls = [(node.func.attr, node.lineno) for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("compose", "invert_parameter")]
    assert calls == [], f"{path.name}: reference kernel calls {calls}"


TEST_ONLY_HELPERS = ("semigroup_elements", "proximity_matrix", "invert_unit")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_test_only_helpers_are_not_defined_in_the_package(path):
    defs = [(node.name, node.lineno) for node in ast.walk(_tree(path))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in TEST_ONLY_HELPERS]
    assert defs == [], f"{path.name}: test-only helpers defined {defs}"
