"""The pieces that one (table, bundle) pair shares across estimators.

The always-taker tails and both partition branches of each side, and the
side-independent smoothing pieces of the last h, are built once per
(table, bundle) and read by every estimator. Each estimator must return
the same bytes whether it runs on a fresh bundle, after every other
estimator on a shared one, or in reverse roster order; the cached arrays
are read-only; and a build that raises leaves nothing behind.

Two draws: panel b with its oracle nuisances, and panel b cross-fitted
with a standard-normal outcome on the selected control rows (the design's
control outcome is identically 0, which would hide a control-arm mistake).
"""

import dataclasses
import json

import numpy as np
import pytest

import strata_bounds as sb
from strata_bounds.cli import main
from strata_bounds.data_model import Side
from strata_bounds.errors import DegenerateTrimError, EmptyTailError
from strata_bounds.estimation import EstimationConfig
from strata_bounds.nuisance import CellSpec, LearnerSpec, crossfit
from test_cli import write_nuisance_csv

EFFICIENT = EstimationConfig()
KNOWN = EstimationConfig(inefficient=True)
DOMINANCE = EstimationConfig(dominance=True)

#: name -> estimator of (table, bundle, support)
ROSTER = {
    "sharp": lambda t, b, s: sb.estimate_sharp(t, b, EFFICIENT, s),
    "sharp_known": lambda t, b, s: sb.estimate_sharp(t, b, KNOWN, s),
    "sharp_dominance": lambda t, b, s: sb.estimate_sharp(t, b, DOMINANCE, s),
    "switch_known": lambda t, b, s: sb.estimate_switch(t, b, KNOWN, support=s),
    "switch_unknown": lambda t, b, s: sb.estimate_switch(t, b, EFFICIENT,
                                                         support=s),
    "switch_dominance": lambda t, b, s: sb.estimate_switch(t, b, DOMINANCE,
                                                           support=s),
    "trim_known": lambda t, b, s: sb.estimate_trim(t, b, KNOWN, support=s),
    "trim_unknown": lambda t, b, s: sb.estimate_trim(
        t, b, EFFICIENT, variant="retain", support=s),
    "trim_retain_known": lambda t, b, s: sb.estimate_trim(
        t, b, KNOWN, variant="retain", support=s),
    "smooth_h0.05": lambda t, b, s: sb.estimate_smooth(t, b, sb.GFamily(0.05)),
    "smooth_h0.01": lambda t, b, s: sb.estimate_smooth(t, b, sb.GFamily(0.01)),
    "smooth_h1e-09": lambda t, b, s: sb.estimate_smooth(t, b, sb.GFamily(1e-9)),
}

CLI_FLAGS = ("--cells-discrete", "1", "--cells-bins", "3", "--folds", "5",
             "--seed", "1")


def _oracle_draw():
    config = sb.DgpConfig(n=2000, shares=sb.PANEL_SHARES["b"], base_seed=5,
                          replications=1)
    table = sb.dgp_sample(config, 0)
    return (table, lambda: sb.oracle_nuisances(config)(table),
            sb.oracle_support(config, table))


def _crossfit_draw():
    config = sb.DgpConfig(n=2000, shares=sb.PANEL_SHARES["b"], base_seed=5,
                          replications=1)
    table = sb.dgp_sample(config, 0)
    y0 = np.random.default_rng(5).standard_normal(table.n)
    table = dataclasses.replace(table, y=np.where(
        table.s == 1, np.where(table.d == 0, y0, table.y), np.nan))
    spec = LearnerSpec(cells=CellSpec(discrete_cols=(0,), n_bins=3), folds=5,
                       seed=1)
    return (table, lambda: crossfit(table, spec),
            sb.SupportBounds.from_table(table))


DRAWS = {"oracle": _oracle_draw, "crossfit": _crossfit_draw}


@pytest.fixture(scope="module", params=sorted(DRAWS))
def draw(request):
    """(table, fresh-bundle factory, support) of one panel-b draw."""
    return DRAWS[request.param]()


def _outcome(name, table, bundle, support) -> str:
    """The estimate's exact repr, or the type of the error it raised."""
    try:
        return repr(ROSTER[name](table, bundle, support))
    except sb.StrataBoundsError as exc:
        return f"fail:{type(exc).__name__}"


@pytest.fixture(scope="module")
def fresh(draw):
    """Each estimator's outcome on a bundle of its own."""
    table, make, support = draw
    return {name: _outcome(name, table, make(), support) for name in ROSTER}


def test_every_estimator_succeeds_on_a_fresh_bundle(fresh):
    assert not [name for name, out in fresh.items() if out.startswith("fail")]


@pytest.mark.parametrize("name", sorted(ROSTER))
def test_same_bytes_after_every_other_estimator(draw, fresh, name):
    table, make, support = draw
    bundle = make()
    for other in ROSTER:
        if other != name:
            _outcome(other, table, bundle, support)
    assert _outcome(name, table, bundle, support) == fresh[name]


def test_same_bytes_in_reverse_order(draw, fresh):
    table, make, support = draw
    bundle = make()
    for name in reversed(list(ROSTER)):
        assert _outcome(name, table, bundle, support) == fresh[name], name


def _not_built():
    raise AssertionError("piece was not cached")


def test_cached_arrays_are_read_only(draw):
    table, make, support = draw
    bundle = make()
    for name in ROSTER:
        _outcome(name, table, bundle, support)
    pieces = [bundle.per_table(table, key, _not_built)
              for key in ("ipw", ("degenerate", False), ("degenerate", True),
                          ("at", Side.L), ("at", Side.U))]
    smooth = bundle.per_table(table, "smooth", _not_built)
    # one entry: the last h that ran
    assert list(smooth) == [sb.GFamily(1e-9)]
    pieces += list(smooth.values())
    arrays = []
    for piece in pieces:
        fields = (vars(piece).values() if dataclasses.is_dataclass(piece)
                  else piece)
        arrays += [arr for arr in fields if isinstance(arr, np.ndarray)]
    assert len(arrays) > 20
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_a_failed_build_caches_nothing(draw, fresh):
    """A build that raises leaves no entry: the next estimator builds
    again, and raises its own error if the cause persists."""
    table, make, support = draw
    bundle = make()
    trunc_mean = bundle.trunc_mean
    raised = []

    def flaky(*args):
        if not raised:
            raised.append(True)
            raise EmptyTailError("injected")
        return trunc_mean(*args)

    bundle.trunc_mean = flaky
    with pytest.raises(EmptyTailError):
        sb.estimate_sharp(table, bundle, EFFICIENT, support)
    assert _outcome("sharp", table, bundle, support) == fresh["sharp"]
    for _ in range(2):
        with pytest.raises(DegenerateTrimError):
            sb.estimate_smooth(table, bundle, sb.GFamily(2.0))
    assert (_outcome("smooth_h0.05", table, bundle, support)
            == fresh["smooth_h0.05"])


@pytest.mark.parametrize("nuisances", ["crossfit", "oracle"])
def test_cli_methods_together_equal_each_alone(capsys, tmp_path, nuisances):
    """``estimate`` with several methods prints each method's records as
    its own run does."""
    table, make, _ = DRAWS[nuisances]()
    path = tmp_path / "draw.csv"
    table.to_csv(str(path))
    if nuisances == "crossfit":
        flags = CLI_FLAGS
        methods = ("sharp", "trim", "switch", "smooth")
    else:
        npath = tmp_path / "grid.csv"
        write_nuisance_csv(str(npath), table, make(),
                           u_grid=np.linspace(0.05, 0.95, 19))
        flags = ("--nuisance-file", str(npath), "--nuisance-oracle")
        methods = ("sharp", "trim", "switch", "smooth", "inefficient")

    def records(*method_flags):
        assert main(["estimate", str(path), *method_flags, *flags]) == 0
        return json.loads(capsys.readouterr().out)

    h = ("--h", "0.05,0.01")
    together = records("--method", ",".join(methods), *h)
    alone = []
    for method in methods:
        alone += records("--method", method, *(h if method == "smooth" else ()))
    assert together == alone
    assert [rec["method"] for rec in together] == [
        "sharp", "trim", "switch", "smooth", "smooth",
        "inefficient_known_ps"][:len(together)]
