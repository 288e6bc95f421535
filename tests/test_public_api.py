import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import acebounds

# one public name per computation: the m values are evaluate_m, the exact bounds bound, the
# Gaussian-mediator bounds simdgp_bound, and the joint's tables its DiscreteJoint methods
PACKAGE_EXPORTS = {
    "AceboundsError", "AssumptionViolation", "BoundReport", "DegenerateModel", "DiscreteJoint", "DomainError",
    "FiniteZRule", "FitError", "GaussHermiteZRule", "MODEL_TAGS", "MaxIterExceeded", "MissingNuisance",
    "NuisanceSet", "PositivityViolation", "QuadratureNonConvergence", "RankDeficient", "SeparationDetected",
    "SimDgpParams", "TreatmentPair", "ace_backdoor", "ace_frontdoor", "ace_twodoor",
    "bound", "brute_force_mean", "brute_force_variance", "chain_joint", "evaluate_m", "expect_z",
    "factorized_joint", "read_dist_csv", "simdgp_bound", "simdgp_theta", "truth_nuisances", "write_dist_csv",
}

MODULES = sorted(info.name for info in pkgutil.iter_modules(acebounds.__path__) if info.name != "__main__")


def test_package_exports_are_pinned():
    assert set(acebounds.__all__) == PACKAGE_EXPORTS
    assert len(acebounds.__all__) == len(PACKAGE_EXPORTS)
    assert [name for name in acebounds.__all__ if inspect.ismodule(getattr(acebounds, name))] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_resolves(name):
    module = importlib.import_module(f"acebounds.{name}")
    exports = getattr(module, "__all__", ())
    assert len(set(exports)) == len(exports)
    assert [e for e in exports if not hasattr(module, e)] == []


ROOT = Path(__file__).resolve().parents[1]
# names that no code in src/ or bench/ calls, kept on purpose
UNCALLED_ALLOWED = {
    "write_dist_csv": "the writer paired with read_dist_csv; CI's installed-entry-points step calls it",
    "write_data_csv": "the writer paired with read_data_csv; CI's installed-entry-points step calls it",
    "brute_force_mean": "the public enumeration oracle of the mean of m under an explicit eta",
    "simdgp_truth_nuisances": "the exact study-family nuisances, a reference implementation that tests compare against",
}


def _uses(tree) -> Counter:
    """Names, attributes and string constants under `tree`, leaving out the strings of __all__ lists."""
    skipped = {
        id(elt)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in ast.walk(node.value)
    }
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skipped:
            uses[node.value] += 1
    return uses


def test_every_library_name_has_a_caller_in_src_or_bench():
    """Each module-level function or class and each non-dunder method of src/acebounds is used in src/ or bench/
    outside its own definition and the __all__ lists, or is allowed above with its reason.

    A use is an ast.Name, an ast.Attribute or a string constant equal to the name, so a name that collides with
    a common identifier (``prob``, ``table``) counts as used wherever that identifier appears.
    """
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    definitions = []
    for path, tree in trees.items():
        if path.parent.name != "acebounds":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append(node)
            if isinstance(node, ast.ClassDef):
                definitions += [m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    uncalled = {d.name for d in definitions if uses[d.name] <= _uses(d)[d.name]}  # a name used only in its own body
    assert sorted(uncalled - set(UNCALLED_ALLOWED)) == []
    assert sorted(set(UNCALLED_ALLOWED) - uncalled) == []  # the allowance lapses once a caller appears
