import importlib
import inspect
import pkgutil

import pytest

import acebounds

# one public name per computation: the m values are evaluate_m, the exact bounds bound, the
# Gaussian-mediator bounds simdgp_bound, and the joint's tables its DiscreteJoint methods
PACKAGE_EXPORTS = {
    "AceboundsError", "AssumptionViolation", "BoundReport", "DegenerateModel", "DiscreteJoint", "DomainError",
    "FiniteZRule", "FitError", "GaussHermiteZRule", "MODEL_TAGS", "MaxIterExceeded", "MissingNuisance",
    "NuisanceSet", "PositivityViolation", "QuadratureNonConvergence", "RankDeficient", "SeparationDetected",
    "SimDgpParams", "TreatmentPair", "ZeroConditioningEvent", "ace_backdoor", "ace_frontdoor", "ace_twodoor",
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
