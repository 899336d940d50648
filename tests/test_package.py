"""The package's public names: its submodules and each module's
``__all__`` (``errors``: its exception classes), re-exported as they are,
and nothing else."""

import ast
import pkgutil
import sys
import types
from pathlib import Path

import brokenline
from brokenline import errors

PUBLIC = (
    "BlockDecomposition", "BracketingFailed", "BrokenLineError", "BrokenLineSpec",
    "BudgetExceeded", "ClassOrder", "ConjugateChain", "Convention", "FareyContext",
    "HypothesisViolated", "InvariantViolated", "KneadingSequence",
    "MalformedCuttingSequence", "NoDifference", "NonMinimalPeriod",
    "NotBrokenLineKneading", "NotCoprime", "NotPeriodic", "PeriodicAngle",
    "PreconditionUnmet", "SpecEnumeration", "SpokeLocation", "UnlinkCertificate",
    "UnlinkViolation", "angles", "atlas", "bezout_minimal", "block_decomposition",
    "block_word", "bound_fraction", "broken_line_angle", "broken_line_tags",
    "broken_line_word", "characteristic_pair", "compare_prefix_classes",
    "conjugate", "conjugate_angle", "conjugate_chain", "conjugate_word",
    "cutting_sequence", "cutting_to_mechanical", "double_angle", "enumerate_specs",
    "errors", "euler_phi", "farey", "farey_parents", "first_difference",
    "fraction_to_expansion", "invert_kneading", "is_sturmian", "junction_rays",
    "kneading", "kneading_concatenates", "kneading_of_angle", "kneading_of_spec",
    "lavaurs_pairs", "lavaurs_partner", "locate", "lower_kneading_period",
    "mechanical", "mechanical_word", "mediant", "mediant_tags", "minimal_period",
    "multiplicative_order", "oracles", "prime_minus", "prime_plus", "rotate_left",
    "rotation_diagnostics", "single_block_slope", "stern_brocot_path",
    "sturmian_census", "tune", "tuned_is_nonsturmian", "unlinked", "validate_spec",
    "word_to_fraction", "words",
)


def test_package_exports_the_public_names():
    assert len(PUBLIC) == 80
    assert sorted(brokenline.__all__) == list(PUBLIC)


def _exports(module):
    # errors has no __all__: it exports its exception classes, all it defines
    return vars(module) if module is errors else getattr(module, "__all__", ())


def test_each_public_name_is_its_modules_export():
    # a submodule is itself; any other name is the object that every module
    # listing it exports, and at least one module lists it
    values = vars(brokenline).values()
    modules = [value for value in values if isinstance(value, types.ModuleType)]
    for name in brokenline.__all__:
        value = getattr(brokenline, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"brokenline.{name}"], name
            continue
        homes = [module for module in modules if name in _exports(module)]
        assert homes, name
        assert all(getattr(module, name) is value for module in homes), name


def test_package_imports_each_submodule_by_name():
    # a submodule is public because __init__.py imports it by name, not
    # because another module imports it: its `from . import` names every
    # module of the package but the command line
    tree = ast.parse(Path(brokenline.__file__).read_text())
    named = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
        for alias in node.names
    }
    modules = {info.name for info in pkgutil.iter_modules(brokenline.__path__)}
    assert named == modules - {"__main__", "cli"}
    assert len(named) == 9
