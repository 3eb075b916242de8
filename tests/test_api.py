"""The public names of the `faadibruno` package, pinned so that any change is deliberate,
the rule that each of them, and each public top-level name of every module, is used
somewhere inside the package, the rule that no layer module reads another layer's
private names, the rule that a function taking ``cap`` passes it to every package call
that takes it, the pinned list of the places that refuse a weight above the cap, the
pinned package imports of each module, and the rule that no line of the package or its
tests is over 100 columns."""

import ast
import importlib
import inspect
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

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
    # an integer is no scalar: a factor c is the constant polynomial of c
    unit = faadibruno.DiffPolynomial.term(faadibruno.DiffMonomial(None, None, (), ()))
    for p in (faadibruno.YPolynomial.variable(1), unit):
        for product in (lambda: 3 * p, lambda: p * 3):
            with pytest.raises(TypeError):
                product()


@pytest.mark.parametrize("protocol", range(6))
def test_the_value_types_survive_a_pickle_round_trip(protocol):
    values = [
        faadibruno.Partition([1, 3, 1]),
        faadibruno.RationalPolynomial([1, "1/2", 0, -3]),
        faadibruno.YPolynomial({((1, 2), (3, 1)): 4, (): -1}),
        faadibruno.formula_expansion(2, 1),
    ]
    for value in values:
        loaded = pickle.loads(pickle.dumps(value, protocol))
        assert type(loaded) is type(value) and loaded == value and repr(loaded) == repr(value)
        # the two hashable value types keep their hash; the sparse ring is unhashable
        if isinstance(value, (faadibruno.Partition, faadibruno.RationalPolynomial)):
            assert hash(loaded) == hash(value)
        else:
            with pytest.raises(TypeError):
                hash(loaded)


def test_a_folding_enumeration_yields_partition_value_pairs():
    # a folding walk yielded the fold's value alone before; now it yields
    # (partition, value) pairs, since the walk builds every partition itself.
    # At r = s = 0 the constrained walk is the walk over every partition of n,
    # which takes no fold
    assert "fold" not in inspect.signature(faadibruno.enumerate_partitions).parameters
    P = faadibruno.Partition
    fold = ("", lambda state, part, m: f"{state}{part}^{m} ", lambda state, ones: (state, ones))
    assert list(faadibruno.enumerate_constrained(4, 0, 0, fold=fold)) == [
        (P([4]), ("4^1 ", 0)),
        (P([3, 1]), ("3^1 ", 1)),
        (P([2, 2]), ("2^1 2^2 ", 0)),
        (P([2, 1, 1]), ("2^1 ", 2)),
        (P([1, 1, 1, 1]), ("", 4)),
    ]
    assert list(faadibruno.enumerate_constrained(2, 1, 1, fold=fold)) == [
        (P([3]), ("3^1 ", 0)),
        (P([2, 1]), ("2^1 ", 1)),
    ]


def test_a_walk_builds_one_partition_per_item(monkeypatch):
    # the walk builds each partition it yields once, with or without a fold,
    # and nothing on the way builds another
    made = []
    make = faadibruno.Partition._make.__func__

    def counted(cls, *args):
        made.append(args)
        return make(cls, *args)

    monkeypatch.setattr(faadibruno.Partition, "_make", classmethod(counted))
    walks = [
        (lambda: faadibruno.coefficients.constrained_coefficients(8, 2, 1), 32),
        (lambda: faadibruno.enumerate_partitions(12), 77),
        (lambda: faadibruno.enumerate_constrained(9, 1, 2, length=4), 11),
    ]
    for walk, count in walks:
        made.clear()
        assert len(list(walk())) == len(made) == count, count


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
    assert {"modifications", "partition_count_dp"} <= names
    unused = [name for name in sorted(names) if not any(references(t, name) for t in trees)]
    assert unused == []


def unread_methods(trees):
    """Class.name for each public method or property of a top-level class in *trees*
    that no tree reads as an attribute; dunder methods are called by syntax and skipped."""
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{cls.name}.{fn.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_") and fn.name not in read
    )


def test_unread_method_rule_on_a_synthetic_source():
    tree = ast.parse(
        "class C:\n"
        "    def used(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    def dead(self):\n"
        '        """dead() is never called."""\n'
        "    @property\n"
        "    def size(self):\n"
        "        return 2\n"
        "    @property\n"
        "    def gone(self):\n"
        "        return 3\n"
        "    def _hidden(self):\n"
        "        return 4\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def f(c):\n"
        "    c.dead = None\n"
        "    return c.used(), c.size, 'gone', gone\n"
    )
    assert unread_methods([tree]) == ["C.dead", "C.gone"]


def test_every_public_method_is_read_inside_the_package():
    # a method or property nothing in the package reads is an uncalled wrapper
    kept = [
        # the paper's "moments of partitions": its named object, which tests check
        "Partition.moment",
        # the seed's acceptance tests read a polynomial's coefficients through it
        "SparsePolynomial.coefficient",
    ]
    package = Path(faadibruno.__file__).parent
    trees = [ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))]
    assert unread_methods(trees) == kept


def _subclass_names(trees):
    # class name -> the names of the class and of every subclass of it in *trees*
    bases = {
        node.name: {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def below(name):
        return {name}.union(*(below(sub) for sub, up in bases.items() if name in up))

    return below


def defaulted_parameters(trees):
    """(label, callee names, parameter, position) for each defaulted parameter of a
    module-level function or a method.

    The position counts the arguments a call passes, so a method's leaves out
    self or cls; a keyword-only parameter has none.  A constructor is called by
    its class's name or a subclass's.  Closures nested in a function are skipped.
    """
    below = _subclass_names(trees)
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                label = f"{owner}.{node.name}" if owner else node.name
                names = below(owner) if node.name == "__init__" else {node.name}
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                bound = owner is not None and not static
                positional = node.args.posonlyargs + node.args.args
                first = len(positional) - len(node.args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found.append((label, names, arg.arg, i - bound))
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None:
                        found.append((label, names, arg.arg, None))

    for tree in trees:
        visit(tree.body, None)
    return found


def unpassed_parameters(defining, calling):
    """label(parameter) for each defaulted parameter in *defining* that no call in
    *calling* passes, by position or by keyword.

    A call is matched by its callee's bare or attribute name; a starred argument
    passes every position, and a ** argument every keyword.
    """
    most, keywords = {}, {}
    for node in (node for tree in calling for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            most[name] = max(most.get(name, 0), float("inf") if starred else len(node.args))
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    return sorted(
        f"{label}({param})"
        for label, names, param, position in defaulted_parameters(defining)
        if not any(
            {param, None} & keywords.get(name, set())
            or (position is not None and most.get(name, 0) > position)
            for name in names
        )
    )


def test_unpassed_parameter_rule_on_a_synthetic_source():
    defining = ast.parse(
        "def f(a, b=1, *, c=2):\n"
        "    def closure(d=3):\n"
        "        return d\n"
        "    return closure()\n"
        "def g(k=0):\n"
        "    return k\n"
        "class Base:\n"
        "    def __init__(self, x=0):\n"
        "        self.x = x\n"
        "    def method(self, y=1, z=2):\n"
        "        return y + z\n"
        "    @staticmethod\n"
        "    def helper(w=0):\n"
        "        return w\n"
        "class Child(Base):\n"
        "    pass\n"
    )
    calling = ast.parse("f(0, 1)\ng(**options)\nChild(5)\nobj.method(y=1)\nBase.helper(*ws)\n")
    assert unpassed_parameters([defining], [calling]) == ["Base.method(z)", "f(c)"]


def test_every_defaulted_parameter_is_passed_by_some_call():
    # a default that no call in the package or its benchmark overrides is a constant;
    # a knob that only tests turn is one too
    package = Path(faadibruno.__file__).parent
    bench = Path(__file__).resolve().parent.parent / "bench"
    src = [ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))]
    runners = [ast.parse(p.read_text()) for p in sorted(bench.glob("*.py"))]
    assert unpassed_parameters(src, src + runners) == []


def _takes_cap(fn):
    args = fn.args
    return "cap" in {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}


def cap_positions(trees):
    """Callee name -> the position at which a call passes ``cap``, for each function or
    method in *trees* that takes it; None where it is passed by keyword only.

    A method's position leaves out self or cls.  A function wrapped by
    ``_front`` takes the front's keyword ``cap``.
    """
    positions = {}

    def visit(body, bound):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, True)
            elif isinstance(node, ast.FunctionDef):
                decorators = [getattr(d, "func", d) for d in node.decorator_list]
                decorators = {getattr(d, "id", getattr(d, "attr", None)) for d in decorators}
                positional = [arg.arg for arg in node.args.posonlyargs + node.args.args]
                if "cap" in positional:
                    shift = bound and "staticmethod" not in decorators
                    positions[node.name] = positional.index("cap") - shift
                elif "_front" in decorators or _takes_cap(node):
                    positions[node.name] = None
                visit(node.body, False)

    for tree in trees:
        visit(tree.body, False)
    return positions


def dropped_caps(modules):
    """module:line:callee for each call, inside a function that takes ``cap``, of a
    function in *modules* (name -> tree) that takes it too, where the call passes no cap.

    A call passes it by keyword, by position, by a starred argument or by a ** argument.
    """
    positions = cap_positions(modules.values())
    dropped = set()
    for module, tree in modules.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)) or not _takes_cap(fn):
                continue
            for call in (node for node in ast.walk(fn) if isinstance(node, ast.Call)):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                if name not in positions:
                    continue
                position = positions[name]
                passed = (
                    any(keyword.arg in ("cap", None) for keyword in call.keywords)
                    or any(isinstance(arg, ast.Starred) for arg in call.args)
                    or (position is not None and len(call.args) > position)
                )
                if not passed:
                    dropped.add((module, call.lineno, call.col_offset, name))
    return [f"{module}:{line}:{name}" for module, line, _col, name in sorted(dropped)]


def test_dropped_cap_rule_on_a_synthetic_source():
    tree = ast.parse(
        "def walk(n, cap=64):\n"
        "    return n\n"
        "@_front(lambda n: n)\n"
        "def front(n):\n"
        "    return n\n"
        "class Gate:\n"
        "    @classmethod\n"
        "    def check(cls, weight, cap):\n"
        "        return weight <= cap\n"
        "def free(n):\n"
        "    return walk(n) + front(n)\n"
        "def suite(n, cap):\n"
        "    Gate.check(n, cap)\n"
        "    total = walk(n, cap) + walk(n, cap=cap) + front(n, cap=cap) + walk(*[n, cap])\n"
        "    total += sum(walk(k) + front(k) for k in range(n))\n"
        "    inner = lambda k: walk(k)\n"
        "    return total + front(n, **{'cap': cap}) + Gate.check(n)\n"
        "def keyword_only(n, *, cap):\n"
        "    return walk(n) + len(str(n))\n"
    )
    positions = {"walk": 1, "front": None, "check": 1, "suite": 1, "keyword_only": None}
    assert cap_positions([tree]) == positions
    assert dropped_caps({"m": tree}) == [
        "m:15:walk", "m:15:front", "m:16:walk", "m:17:check", "m:19:walk"
    ]


def test_a_function_that_takes_cap_passes_it_on():
    # a call that drops the cap falls back to the default one, so a run under a
    # lower cap would enumerate past it
    package = Path(faadibruno.__file__).parent
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert dropped_caps(modules) == []


def refusal_points(modules):
    """module.name for each top-level function or method of *modules* (name -> tree)
    whose body, nested functions included, calls ``CapExceeded.check``."""
    found = []
    for module, tree in modules.items():
        functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [
            (f"{owner.name}.{node.name}", node)
            for owner in tree.body
            if isinstance(owner, ast.ClassDef)
            for node in owner.body
            if isinstance(node, ast.FunctionDef)
        ]
        for name, fn in functions:
            if any(
                isinstance(call, ast.Call)
                and getattr(call.func, "attr", None) == "check"
                and getattr(call.func.value, "id", None) == "CapExceeded"
                for call in ast.walk(fn)
            ):
                found.append(f"{module}.{name}")
    return sorted(found)


def test_refusal_point_rule_on_a_synthetic_source():
    tree = ast.parse(
        "def direct(n, cap):\n"
        "    CapExceeded.check(n, cap, 'direct')\n"
        "def factory(weight):\n"
        "    def decorate(body):\n"
        "        def front(*args, cap=64):\n"
        "            CapExceeded.check(weight(*args), cap, body.__name__)\n"
        "        return front\n"
        "    return decorate\n"
        "class Table:\n"
        "    def rows(self, cap):\n"
        "        CapExceeded.check(self.n, cap, 'table')\n"
        "    def size(self):\n"
        "        return self.n\n"
        "class CapExceeded(ValueError):\n"
        "    @classmethod\n"
        "    def check(cls, weight, cap, what):\n"
        "        return cls.check(weight, cap, what)\n"
        "def other(n, gate):\n"
        "    gate.check(n)\n"
        "    return CapExceeded\n"
    )
    assert refusal_points({"m": tree}) == ["m.Table.rows", "m.direct", "m.factory"]


def test_the_refusal_points_are_pinned():
    # a new place that refuses a weight above the cap is a reviewed edit, not a silent copy
    package = Path(faadibruno.__file__).parent
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert refusal_points(modules) == [
        "bell._front",
        "bell.modified_stirling",
        "bell.stirling_table",
        "cli._cmd_partitions",
        "coefficients.coefficient_table",
        "diffalg.faa_expansion",
        "diffalg.formula_expansion",
        "diffalg.leibniz_product_expansion",
        "diffalg.nth_derivative_expansion",
        "partitions.enumerate_constrained",
        "partitions.enumerate_partitions",
        "verification.run_all",
    ]


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
        "sf._newton_residuals(bell._front, c._HANDLERS, sf.__name__)\n"
        "P._make(enumerate_partitions._cache, P.__new__, Sparse._merge)\n"
    )
    assert sorted(private_layer_reads(source)) == [
        "bell._front",
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


def package_imports(modules):
    """module -> the sorted package modules that *modules* (name -> tree) imports,
    at the top or inside a function, by any static import form."""
    found = {}
    for module, tree in modules.items():
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _imported_layer(node) == "":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and _imported_layer(node):
                names.add(_imported_layer(node).partition(".")[0])
            elif isinstance(node, ast.Import):
                names.update(
                    alias.name.split(".")[1]
                    for alias in node.names
                    if alias.name.startswith("faadibruno.")
                )
        found[module] = sorted(names)
    return found


def test_package_import_rule_on_a_synthetic_source():
    tree = ast.parse(
        "import os\n"
        "from . import symfunc as sf, bell\n"
        "from .partitions import Partition\n"
        "from faadibruno.diffalg import derive\n"
        "import faadibruno.cli as c\n"
        "from .sparse.inner import x\n"
        "from math import comb\n"
        "def handler():\n"
        "    from .polynomials import check_main_theorem\n"
    )
    assert package_imports({"m": tree, "empty": ast.parse("import json\n")}) == {
        "m": ["bell", "cli", "diffalg", "partitions", "polynomials", "sparse", "symfunc"],
        "empty": [],
    }


def test_the_package_imports_are_pinned():
    # the two expansion oracles share no module: polynomials reads the coefficient
    # table, diffalg builds symbolic polynomials; a new edge is a reviewed edit
    package = Path(faadibruno.__file__).parent
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert package_imports(modules) == {
        "__init__": [],
        "__main__": ["cli"],
        "bell": ["coefficients", "partitions", "sparse"],
        "cli": ["bell", "coefficients", "diffalg", "partitions", "polynomials", "verification"],
        "coefficients": ["partitions", "symfunc"],
        "diffalg": ["coefficients", "partitions", "sparse"],
        "partitions": [],
        "polynomials": ["coefficients", "partitions"],
        "sparse": [],
        "symfunc": ["partitions"],
        "verification": [
            "bell",
            "coefficients",
            "diffalg",
            "partitions",
            "polynomials",
            "sparse",
            "symfunc",
        ],
    }


def test_no_line_is_longer_than_100_columns():
    root = Path(__file__).resolve().parent.parent
    paths = [*sorted((root / "src" / "faadibruno").glob("*.py")), *sorted(root.glob("tests/*.py"))]
    long_lines = [
        f"{path.relative_to(root)}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []


def test_readme_quick_start_gives_the_values_its_comments_name():
    # the fenced Python block under "Library quick start", run statement by statement
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            expression = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(expression, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    table = values.pop(1)
    assert table[0] == (0, faadibruno.Partition([2]), 1)
    assert values == [
        2,
        True,
        (True, ["0", "0", "0", "40"]),
        "2·y1^2",
        2,
        (0, 0, 0, 0),
        (1, 4, 4, 0),
    ]
