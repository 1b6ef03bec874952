import contextlib
import os
import sys
import warnings

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# Hypothesis imports its failure-patch module only when a property fails,
# and that import (through libcst) defines a deprecated mypy_extensions
# TypedDict. The suite's error::DeprecationWarning filter would turn that
# into an INTERNALERROR that ends the session before the falsifying example
# is reported, so the module is imported once here with the warning muted.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from strata_bounds import DgpConfig, PANEL_SHARES, run_experiment

ACCEPTANCE_SEED = 20250801

_MC_CACHE = {}


def _threads():
    return min(8, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def mc():
    """Memoized Monte Carlo runner shared across the acceptance criteria."""

    def run(panel, n, reps=2000, seed=ACCEPTANCE_SEED):
        key = (panel, n, reps, seed)
        if key not in _MC_CACHE:
            config = DgpConfig(n=n, shares=PANEL_SHARES[panel],
                               replications=reps, base_seed=seed, label=panel)
            _MC_CACHE[key] = run_experiment(config, threads=_threads())
        return _MC_CACHE[key]

    return run


def metrics_by_method(result):
    return {m["method"]: m for m in result.metrics}
