"""The package namespace re-exports every public name of its submodules, and no more
than the pinned list; no module imports a name it leaves unused, no private
helper is left that the package never reads, no public name is left that
neither the package nor the benchmark reads; no module sets the
interpreter's int<->str digit limit, none but cli imports cli, and none
names ``object`` as a dtype."""

import ast
import importlib
from collections import Counter
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aoiclock

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(aoiclock.__path__))
SOURCES = sorted(Path(aoiclock.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).parent.parent / "bench").glob("*.py"))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_is_exported(name):
    module = importlib.import_module(f"aoiclock.{name}")
    names = getattr(module, "__all__", [])
    assert [n for n in names if n not in aoiclock.__all__] == []
    assert [n for n in names if getattr(aoiclock, n, None) is not getattr(module, n)] == []


def test_package_all_resolves():
    assert [n for n in aoiclock.__all__ if not hasattr(aoiclock, n)] == []


# the public surface: what the command line, another library function or the
# benchmark calls; helpers that only tests use live in tests/conftest.py
PUBLIC = [
    "AoiDistribution", "BandedValue", "ConfigError", "EmptyGridError", "GeometricExpectation",
    "Histogram", "NullSequenceError", "PeriodDecomposition", "RngSpec", "SliceStat",
    "SweepGrid", "SweepResult", "SystemConfig", "Trace", "TraceStream", "__version__",
    "backend", "bernoulli_threshold", "decompose", "distribution_basic",
    "distribution_conditional", "enumerate_configs", "expected_approx_basic",
    "expected_approx_extended", "expected_exact_basic", "expected_exact_extended", "floor_sum",
    "freshness_offset_K", "max_bound_basic", "max_bound_lossless", "max_bound_prob",
    "rel_error_bound_basic", "rel_error_bound_extended", "run_sweep", "sequence_basic",
    "sequence_conditional", "simulate_extended", "stream_basic", "stream_extended",
    "write_outputs", "write_trace_csv",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 41
    assert sorted(aoiclock.__all__) == PUBLIC


def test_import_leaves_multiprocessing_out():
    # the sweep forks its own workers
    src = str(Path(aoiclock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, aoiclock, aoiclock.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "False\n"


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names that the module's top-level imports bind and that nothing reads.

    A name counts as read where it appears as a name anywhere in the module,
    or as a string in ``__all__``, which re-exports it.
    """
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


# the project configures no linter, so this stands in for an unused-import rule
@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_level_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_check_sees_a_leftover():
    tree = ast.parse("import os\nfrom math import gcd, lcm as l\n__all__ = ['l']\nos.sep\n")
    assert _unused_imports(tree) == ["gcd (line 2)"]


def _reads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a name or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _unread_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """The module-level functions and classes named ``_...`` that no module reads.

    A helper counts as read where its name appears as a name or an attribute
    in any of ``trees``, outside its own definition; a helper that only
    calls itself is unread.
    """
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [
        f"{module}.{node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and reads[node.name] == _reads(node)[node.name]
    ]


# a helper folded into its one caller must not be left behind
def test_no_unread_private_helper():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _unread_helpers(trees) == []


def test_unread_helper_check_sees_a_leftover():
    trees = {
        "m": ast.parse(
            "def _used(): pass\n"
            "def _left(): pass\n"
            "def _self(n): return _self(n - 1)\n"
            "class _Cls: pass\n"
            "def __getattr__(name): pass\n"
            "def run(): return _used()\n"
        ),
        "other": ast.parse("from . import m\nm._Cls\n"),
    }
    assert _unread_helpers(trees) == ["m._left (line 2)", "m._self (line 3)"]


def _unread_public(names, trees: dict[str, ast.Module]) -> list[str]:
    """The ``names`` that no tree reads outside their own module-level definition.

    A name counts as read where it appears as a name or an attribute; an
    import binds a name without reading it, so a re-export is no read, and
    neither is a string in ``__all__``.
    """
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    own = Counter()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names:
                own[node.name] += _reads(node)[node.name]
    return [name for name in names if reads[name] == own[name]]


# the public surface rule above, checked: a name that only tests read belongs
# in tests/conftest.py
def test_public_name_is_read_by_the_package_or_the_benchmark():
    assert BENCH
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES if path.stem != "__init__"}
    trees |= {f"bench.{path.stem}": ast.parse(path.read_text()) for path in BENCH}
    names = [n for n in aoiclock.__all__ if n != "__version__"]
    assert _unread_public(names, trees) == []


def test_unread_public_check_sees_a_leftover():
    trees = {
        "m": ast.parse(
            "def used(): pass\n"
            "def left(): pass\n"
            "def rec(n): return rec(n - 1)\n"
            "class Cls: pass\n"
            "__all__ = ['used', 'left', 'rec', 'Cls']\n"
        ),
        "pkg": ast.parse("from .m import left, rec\n"),
        "bench": ast.parse("import m\nm.Cls\ndef run(): return m.used()\n"),
    }
    assert _unread_public(["used", "left", "rec", "Cls"], trees) == ["left", "rec"]


_LIMIT_SETTER = "set_int_max_str_digits"


def _limit_setters(tree: ast.Module) -> list[int]:
    """The lines that name ``sys.set_int_max_str_digits``: a call, an attribute or an import."""
    return sorted(
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Name) and n.id == _LIMIT_SETTER
        or isinstance(n, ast.Attribute) and n.attr == _LIMIT_SETTER
        or isinstance(n, ast.alias) and n.name == _LIMIT_SETTER
    )


# the limit is the whole process's, so the library writes big ints without it
@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_sets_the_int_str_digit_limit(path):
    assert _limit_setters(ast.parse(path.read_text())) == []


def test_digit_limit_check_sees_a_setter():
    tree = ast.parse(
        "import sys\n"
        "sys.get_int_max_str_digits()\n"
        "sys.set_int_max_str_digits(0)\n"
        "from sys import set_int_max_str_digits\n"
        "setter = sys.set_int_max_str_digits\n"
    )
    assert _limit_setters(tree) == [3, 4, 5]


# the package's layers: cli reads the library, and no module of it reads cli
_CLI = re.compile(r"(aoiclock)?\.cli(\.|$)")


def _cli_imports(tree: ast.Module) -> list[int]:
    """The lines that import the package's ``cli`` module or a name from it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "." if node.module else ""
            names = [base, *(f"{base}{sep}{alias.name}" for alias in node.names)]
        else:
            continue
        if any(_CLI.match(name) for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "cli"],
                         ids=[p.name for p in SOURCES if p.stem != "cli"])
def test_no_module_imports_cli(path):
    assert _cli_imports(ast.parse(path.read_text())) == []


def test_cli_import_check_sees_an_import():
    tree = ast.parse(
        "from .cli import main\n"
        "from . import cli, kernels\n"
        "import aoiclock.cli\n"
        "from aoiclock import cli\n"
        "from aoiclock.cli import _int\n"
        "from .clip import x\n"
        "from .sweep import client\n"
        "import click\n"
        "def f():\n"
        "    from .cli import main\n"
    )
    assert _cli_imports(tree) == [1, 2, 3, 4, 5, 10]


# kernels._fit's bound is the one place that picks object arrays of Python ints
_ARRAY_BUILDERS = {"array", "asarray", "astype"}


def _object_dtypes(tree: ast.Module) -> list[int]:
    """The lines that pass ``object`` as a dtype: a ``dtype=object`` keyword,
    or a positional ``object`` to ``np.array``, ``np.asarray`` or ``.astype``."""
    def is_object(node):
        return isinstance(node, ast.Name) and node.id == "object"

    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        builder = isinstance(node.func, ast.Attribute) and node.func.attr in _ARRAY_BUILDERS
        if any(k.arg == "dtype" and is_object(k.value) for k in node.keywords) or (
            builder and any(map(is_object, node.args))
        ):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_names_object_as_a_dtype(path):
    assert _object_dtypes(ast.parse(path.read_text())) == []


def test_object_dtype_check_sees_each_form():
    tree = ast.parse(
        "import numpy as np\n"
        "np.array(x, dtype=object)\n"
        "np.asarray(x, object)\n"
        "x.astype(object)\n"
        "np.zeros(3, dtype=object)\n"
        "np.asarray(x, dtype=dtype)\n"
        "isinstance(x, object)\n"
        "object.__setattr__(x, 'y', 1)\n"
        "dtype = np.int64 if small else object\n"
    )
    assert _object_dtypes(tree) == [2, 3, 4, 5]
