import importlib

import pytest

MODULES = ["ifpt", "ifpt.cli", "ifpt.core", "ifpt.closed_form", "ifpt.forward",
           "ifpt.inverse", "ifpt.montecarlo"]

#: The per-knot helpers that restarted the propagation from t = 0, the
#: process-global clamp counter, the quadrature and solver config objects and
#: the upper side's per-node crossing, which nothing called: no module
#: exports them.
REMOVED = ["survival_probability", "block_crossing_probability", "residual_fgkey",
           "negative_clamp_count", "QuadratureConfig", "SolverConfig",
           "block_crossing_upper"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_are_not_exported(name):
    module = importlib.import_module(name)
    assert set(REMOVED).isdisjoint(module.__all__)
    assert not any(hasattr(module, n) for n in REMOVED)

