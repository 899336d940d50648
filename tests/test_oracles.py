"""The boundary of the oracles module, read from the source: the verifiers
live there alone, and none of them can reach the paths it checks; nor can
the balance test and the grid crossings reach the digit rule they are held
against."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import brokenline

SOURCES = Path(brokenline.__file__).resolve().parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# every verifier of the package, each defined in oracles.py and nowhere else
VERIFIERS = {
    "_SLICES_UP_TO",
    "_PREFIX_FROM",
    "_PREFIX_DIGITS",
    "_TIED_SHARE",
    "_BIT",
    "_z_array",
    "_factor_order_by_z",
    "_factor_order",
    "_rotation_signs",
    "_preimage_signs",
    "_check_chain",
    "_kneading_of_word",
    "_check_kneading",
    "_check_spec",
    "LAVAURS_LIMIT",
    "_ANGLE",
    "_OPEN",
    "_CLOSE",
    "_pair_regions",
    "_partners_at",
    "lavaurs_pairs",
    "lavaurs_partner",
}
# the modules oracles.py may import from: none of them builds a period
# word, a conjugate, a spoke or an enumeration
ORACLE_IMPORTS = {"angles", "errors", "farey", "kneading", "words"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _defined(tree):
    # the names a module binds by def, class or assignment, at any depth
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
    return names


def _package_imports(tree):
    # module name within the package -> the names imported from it
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("brokenline."):
                    continue
                module = module.removeprefix("brokenline.")
            imports.setdefault(module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("brokenline."):
                    imports.setdefault(alias.name.removeprefix("brokenline."), set())
    return imports


def test_only_oracles_defines_the_verifiers():
    oracles = _tree(SOURCES / "oracles.py")
    assert VERIFIERS <= _defined(oracles)
    imports = _package_imports(oracles)
    assert set(imports) <= ORACLE_IMPORTS, imports
    assert imports.get("kneading", set()) <= {"KneadingSequence"}
    assert imports.get("words", set()) <= {"is_sturmian"}
    for path in sorted(SOURCES.glob("*.py")):
        tree = _tree(path)
        # the pairing places angles by gap position: no module, oracles.py
        # included, puts the periods over a common grid
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        named |= {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)}
        assert "_GRID" not in named, path.name
        if path.stem != "oracles":
            assert not VERIFIERS & _defined(tree), path.name


def _names_in(module, function):
    # every name and attribute the body of a module-level function reads
    tree = _tree(SOURCES / module)
    (body,) = (
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    named = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
    return named | {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)}


def test_balance_test_builds_no_period_word():
    # is_sturmian checks the words _digits builds, so it desubstitutes the
    # word it is given, run by run, and calls neither word builder
    assert not {"_digits", "mechanical_word"} & _names_in("words.py", "is_sturmian")


def test_grid_crossings_build_no_period_word():
    # `line --check` holds the contracted cutting word against
    # mechanical_word, so cutting_sequence places its crossings by a floor
    # rule of its own and reads no word builder and no balance test
    named = _names_in("mechanical.py", "cutting_sequence")
    assert not {"_digits", "mechanical_word", "is_sturmian"} & named


def load_spans():
    # the benchmark's layer trace; a copy of the package and its tests
    # without the benchmark has none, and the tests that read it skip
    if not SPANS.is_file():
        pytest.skip(f"no benchmark layer list at {SPANS}")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_function_resolves():
    # the benchmark's layer trace wraps each function it lists by module and
    # name; a function moved out of its listed module would drop out of it
    spans = load_spans()
    for module, names in spans.LAYERS.items():
        namespace = importlib.import_module(f"brokenline.{module}")
        for name in names:
            assert callable(getattr(namespace, name, None)), f"{module}.{name}"


def test_traced_classes_construct_through_post_init(monkeypatch):
    # the layer trace times a listed class by wrapping the __post_init__ its
    # constructor runs, on the class: every construction must go through it
    spans = load_spans()
    classes = [
        getattr(importlib.import_module(f"brokenline.{module}"), name)
        for module, names in spans.LAYERS.items()
        for name in names
    ]
    classes = [cls for cls in classes if isinstance(cls, type)]
    assert classes
    for cls in classes:
        tracer = spans.Tracer()
        monkeypatch.setattr(cls, "__post_init__", tracer._wrap(0, cls.__post_init__))
        cls()
        assert len(tracer.func) == 1, cls.__name__
