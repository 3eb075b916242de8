"""The public names of the `faadibruno` package, pinned so that any change is deliberate,
the rule that each of them, and each public top-level name of every module, is used
somewhere inside the package, and the rule that no layer module reads another layer's
private names."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import faadibruno

PUBLIC_NAMES = {
    "CapExceeded",
    "CrossCheckError",
    "DEFAULT_WEIGHT_CAP",
    "DiffMonomial",
    "DiffPolynomial",
    "IntegralityError",
    "Partition",
    "RationalPolynomial",
    "RecurrenceEvaluator",
    "YPolynomial",
    "c_coeff",
    "check_main_theorem",
    "coefficient_table",
    "complete_bell",
    "derive",
    "elementary_by_subpartitions",
    "elementary_moments",
    "enumerate_constrained",
    "enumerate_partitions",
    "faa_di_bruno_coeff",
    "faa_expansion",
    "formula_expansion",
    "leibniz_product_expansion",
    "modified_complete_bell",
    "modified_partial_bell",
    "modified_stirling",
    "monomial",
    "newton_residuals",
    "nth_derivative_expansion",
    "partial_bell",
    "product_form_complete",
    "product_form_partial",
    "random_instances",
    "random_polynomial",
    "run_verification",
    "stirling2",
    "stirling_convolution",
    "stirling_table",
    "substitute_psi",
    "subtract_transform",
    "touchard",
}


def test_public_names_are_pinned():
    # the package loads a name from its defining module on first use; dir() and
    # __all__ list every public name before that, and submodules are not counted
    exported = {
        name
        for name in dir(faadibruno)
        if not name.startswith("_") and not isinstance(getattr(faadibruno, name), types.ModuleType)
    }
    assert exported == set(faadibruno.__all__) == set(faadibruno._EXPORTS) == PUBLIC_NAMES
    for name, where in faadibruno._EXPORTS.items():
        module, _, defined_as = where.partition(".")
        defining = importlib.import_module(f"faadibruno.{module}")
        assert getattr(faadibruno, name) is getattr(defining, defined_as or name), name
    assert faadibruno._EXPORTS["run_verification"] == "verification.run_all"


LAZY_PROBE = """
import sys
import faadibruno

assert faadibruno.__version__ == "0.1.0"
assert "touchard" not in vars(faadibruno) and "touchard" in dir(faadibruno)
touchard = faadibruno.touchard
assert vars(faadibruno)["touchard"] is touchard is sys.modules["faadibruno.bell"].touchard
assert faadibruno.symfunc is sys.modules["faadibruno.symfunc"]
assert faadibruno.cli.__name__ == "faadibruno.cli" and not hasattr(faadibruno, "nope")
star = {}
exec("from faadibruno import *", star)
assert set(star) - {"__builtins__"} == set(faadibruno.__all__)
assert star["run_verification"] is faadibruno.verification.run_all
"""


def test_a_bare_import_loads_each_name_and_submodule_on_first_use():
    # a fresh interpreter: in this one the tests have loaded every module already
    src = str(Path(faadibruno.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_tables_are_streams_and_the_removed_methods_stay_removed():
    # coefficient_table and stirling_table returned tuples before; now each is read once
    for table in (faadibruno.coefficient_table(2, 1), faadibruno.stirling_table(2)):
        assert iter(table) is table
    # the unit is YPolynomial({(): 1}); a coefficient is looked up under its sorted key
    assert not hasattr(faadibruno.YPolynomial, "one")
    assert "coefficient" not in vars(faadibruno.YPolynomial)
    # json items are rendered by the CLI alone
    for poly in (faadibruno.YPolynomial, faadibruno.DiffPolynomial):
        assert not hasattr(poly, "to_json_list")


def test_a_folding_enumeration_yields_fold_values_alone(monkeypatch):
    # a folding walk yielded (partition, value) pairs before; now it yields the
    # value alone and builds no Partition on the way.  At r = s = 0 the
    # constrained walk is the walk over every partition of n, which takes no fold
    assert "fold" not in inspect.signature(faadibruno.enumerate_partitions).parameters
    def no_partition(cls, *args):
        raise AssertionError("a folding walk built a Partition")

    monkeypatch.setattr(faadibruno.Partition, "_make", classmethod(no_partition))
    fold = ("", lambda state, part, m: f"{state}{part}^{m} ", lambda state, ones: (state, ones))
    assert list(faadibruno.enumerate_constrained(4, 0, 0, fold=fold)) == [
        ("4^1 ", 0),
        ("3^1 ", 1),
        ("2^1 2^2 ", 0),
        ("2^1 ", 2),
        ("", 4),
    ]
    assert list(faadibruno.enumerate_constrained(2, 1, 1, fold=fold)) == [("3^1 ", 0), ("2^1 ", 1)]


def _defines(statement, name):
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return statement.name == name
    if isinstance(statement, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == name for t in statement.targets)
    return False


def references(tree, name):
    """Reads of *name*, bare or as an attribute, outside its own module-level definition.

    Strings, docstrings included, are never names, so a mention in prose does not count.
    """
    own = {id(node) for st in tree.body if _defines(st, name) for node in ast.walk(st)}
    return sum(
        1
        for node in ast.walk(tree)
        if id(node) not in own
        and isinstance(getattr(node, "ctx", None), ast.Load)
        and (getattr(node, "id", None) == name or getattr(node, "attr", None) == name)
    )


def test_reference_counter_skips_the_definition_and_docstrings():
    tree = ast.parse(
        "def wrapper(x):\n"
        '    """wrapper(x) calls inner."""\n'
        "    return wrapper(inner(x))\n"
        "def inner(x):\n"
        "    return x\n"
        "inner = mod.inner\n"
        'used = mod.inner, "wrapper"\n'
    )
    assert references(tree, "wrapper") == 0
    assert references(tree, "inner") == 2


def public_definitions(tree):
    """The public names a module binds at its top level, by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not _private(name)}


def test_public_definitions_are_the_top_level_public_names():
    tree = ast.parse(
        "X, _Y = 1, 2\n"
        "Z = W = 3\n"
        "V: int = 7\n"
        "_hidden = 4\n"
        "def f():\n"
        "    inner = 5\n"
        "class C:\n"
        "    attr = 6\n"
        "def _g(): pass\n"
    )
    assert public_definitions(tree) == {"X", "Z", "W", "V", "f", "C"}


def test_every_public_name_is_used_inside_the_package():
    # an export nothing in the package reads is an uncalled wrapper, and so is
    # any public top-level name of a module, exported or not; an alias such as
    # run_verification is looked up under the name it is defined by
    package = Path(faadibruno.__file__).parent
    defined_as = {
        name: where.partition(".")[2] or name for name, where in faadibruno._EXPORTS.items()
    }
    trees = [ast.parse(p.read_text()) for p in package.glob("*.py") if p.name != "__init__.py"]
    names = {defined_as[name] for name in PUBLIC_NAMES}.union(*map(public_definitions, trees))
    assert {"PARTITION_FOLD", "modifications", "partition_count_dp"} <= names
    unused = [name for name in sorted(names) if not any(references(t, name) for t in trees)]
    assert unused == []


# the modules bench/tracer.py wraps by public name; `sparse` is shared machinery, not a layer
LAYERS = {
    "partitions",
    "symfunc",
    "coefficients",
    "diffalg",
    "polynomials",
    "bell",
    "verification",
    "cli",
}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _imported_layer(node):
    # the layer an import names: "" for the package itself, None for anything else
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "faadibruno":
        return node.module.partition(".")[2]
    return None


def private_layer_reads(source):
    tree = ast.parse(source)
    # local name -> what it is bound to: a layer module, or a name imported from one
    modules = {}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            layer = _imported_layer(node)
            for alias in node.names:
                if layer == "" and alias.name in LAYERS:
                    modules[alias.asname or alias.name] = alias.name
                elif layer in LAYERS and _private(alias.name):
                    reads.append(f"{layer}.{alias.name}")
                elif layer in LAYERS:
                    modules[alias.asname or alias.name] = f"{layer}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                layer = alias.name.partition("faadibruno.")[2]
                if alias.asname and layer in LAYERS:
                    modules[alias.asname] = layer
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            reads.append(f"{modules[node.value.id]}.{node.attr}")
    return reads


def test_private_layer_reader_sees_every_import_form():
    source = (
        "from . import symfunc as sf, bell\n"
        "from .partitions import _descending\n"
        "from faadibruno.diffalg import _SEED\n"
        "import faadibruno.cli as c\n"
        "from .sparse import _merge\n"
        "from .partitions import Partition as P, enumerate_partitions\n"
        "from .sparse import Sparse\n"
        "sf._newton_residuals(bell._capped_cache, c._HANDLERS, sf.__name__)\n"
        "P._make(enumerate_partitions._cache, P.__new__, Sparse._merge)\n"
    )
    assert sorted(private_layer_reads(source)) == [
        "bell._capped_cache",
        "cli._HANDLERS",
        "diffalg._SEED",
        "partitions.Partition._make",
        "partitions._descending",
        "partitions.enumerate_partitions._cache",
        "symfunc._newton_residuals",
    ]


def test_no_module_reads_a_private_name_of_another_layer():
    package = Path(faadibruno.__file__).parent
    reads = {
        path.name: private_layer_reads(path.read_text())
        for path in sorted(package.glob("*.py"))
    }
    assert {name: found for name, found in reads.items() if found} == {}
