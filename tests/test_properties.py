"""Invariances the estimators claim, checked on seeded oracle draws and,
for weight units, outcome units and one-valued groups, on cross-fitted
``estimate`` runs.

Oracle bundles keep cross-fitting folds out of the comparisons. The
standard error treats ``weight`` as a sampling weight, so an integer
weight k is not equivalent to k duplicate rows for the SEs; only the
point estimates would agree, and no test asserts that equivalence.
"""

import contextlib
import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import strata_bounds as sb
from strata_bounds import EstimationConfig, Side, Stratum, StratumSpec
from strata_bounds.cli import main

PANELS = ((0.5, 0.0, 0.5), (1 / 3, 1 / 3, 1 / 3), (0.4, 0.2, 0.4))
N = 300

seeds = st.integers(min_value=0, max_value=2 ** 16)
panels = st.sampled_from(PANELS)


def _config(shares, seed):
    return sb.DgpConfig(n=N, shares=shares, replications=1, base_seed=seed)


def _draw(shares, seed):
    config = _config(shares, seed)
    table = sb.dgp_sample(config, 0)
    return table, sb.oracle_nuisances(config)(table), sb.oracle_support(config, table)


def _with_weight(table, weight):
    return sb.ObservationTable(table.y, table.s, table.d, table.x, weight)


def _summary(est):
    return (est.lower, est.upper, est.se_lower, est.se_upper)


def _close(a, b):
    return pytest.approx(b, rel=1e-12, abs=1e-14) == a


@settings(max_examples=25, deadline=None)
@given(shares=panels, seed=seeds,
       scale=st.floats(min_value=1e-3, max_value=1e3))
def test_weight_scaling_leaves_estimates_and_ses_unchanged(shares, seed, scale):
    table, bundle, support = _draw(shares, seed)
    w = np.random.default_rng(seed).uniform(0.5, 2.0, table.n)
    base = _with_weight(table, w)
    scaled = _with_weight(table, w * scale)
    cfg = EstimationConfig()
    for fit in (lambda t: sb.estimate_sharp(t, bundle, cfg, support),
                lambda t: sb.estimate_switch(t, bundle, cfg, support=support),
                lambda t: sb.estimate_smooth(t, bundle, sb.GFamily(h=0.05), cfg)):
        assert _close(_summary(fit(scaled)), _summary(fit(base)))


ALL_METHODS = ("--method", "sharp,trim,switch,smooth", "--h", "0.05")


def _estimate_stdout(table, directory, name, flags=ALL_METHODS):
    """``estimate``'s exit code, stdout and, on a failure, the JSON error
    object on stderr (``None`` on success)."""
    path = f"{directory}/{name}.csv"
    table.to_csv(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", path, *flags, "--cells-discrete", "1",
                     "--cells-bins", "3", "--folds", "3", "--seed", "1"])
    error = json.loads(err.getvalue().splitlines()[-1]) if code else None
    return code, out.getvalue(), error


# A fold whose training rows lack a level of the discrete covariate makes
# ``estimate`` exit 3 with EmptyCellError, as documented; such a draw checks
# that the other run fails the same way. These two draws do so.
UNSEEN_LEVEL_DRAWS = (dict(shares=PANELS[1], seed=18219, n=310),
                      dict(shares=PANELS[1], seed=378, n=201))


def _unseen_level(run) -> bool:
    """Whether an ``_estimate_stdout`` run failed with the documented
    unseen-level error; a run that exits 0 gives False, any other failure
    fails the test."""
    if run[0] == 0:
        return False
    assert run[:2] == (3, "") and run[2]["error"] == "EmptyCellError", run
    return True


def _varied_draw(shares, seed, n):
    """A draw with a standard normal control outcome (the design's is
    constant, so a control-arm surface would read one value) and uneven
    weights."""
    config = sb.DgpConfig(n=n, shares=shares, replications=1, base_seed=seed)
    table = sb.dgp_sample(config, 0)
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal(n)
    return sb.ObservationTable(
        np.where(table.s == 1, np.where(table.d == 0, y0, table.y), np.nan),
        table.s, table.d, table.x, rng.uniform(0.5, 2.0, n))


crossfit_sizes = st.integers(min_value=200, max_value=600)
powers = st.integers(min_value=-1000, max_value=1000)


@settings(max_examples=15, deadline=None)
@given(shares=panels, seed=seeds, n=crossfit_sizes, k=powers)
@example(**UNSEEN_LEVEL_DRAWS[0], k=3)
@example(**UNSEEN_LEVEL_DRAWS[1], k=-2)
def test_weight_power_of_two_leaves_crossfit_stdout_unchanged(shares, seed,
                                                              n, k):
    # the logistic fits' stopping rule is relative to the total weight, so
    # rescaling by a power of two changes no bit anywhere in the chain
    table = _varied_draw(shares, seed, n)
    with tempfile.TemporaryDirectory() as directory:
        base = _estimate_stdout(table, directory, "base")
        scaled = _estimate_stdout(_with_weight(table, table.weight * 2.0 ** k),
                                  directory, "scaled")
    _unseen_level(base)
    assert scaled == base


@settings(max_examples=15, deadline=None)
@given(shares=panels, seed=seeds, n=crossfit_sizes, k=powers)
@example(**UNSEEN_LEVEL_DRAWS[1], k=5)
def test_outcome_power_of_two_scales_crossfit_estimates_exactly(shares, seed,
                                                                n, k):
    # the cells sort, sum and search the outcomes, so a power of two scales
    # every quantile and truncated mean, and the moments built on them,
    # without rounding; smooth is left out, its h acts on the outcome scale
    table = _varied_draw(shares, seed, n)
    scaled = sb.ObservationTable(table.y * 2.0 ** k, table.s, table.d,
                                 table.x, table.weight)
    flags = ("--method", "sharp,trim,switch")
    with tempfile.TemporaryDirectory() as directory:
        base = _estimate_stdout(table, directory, "base", flags)
        got = _estimate_stdout(scaled, directory, "scaled", flags)
    if _unseen_level(base):
        assert got == base
        return
    assert base[0] == got[0] == 0
    base, got = json.loads(base[1]), json.loads(got[1])
    assert len(got) == len(base) == 3

    def scale(v):
        return None if v is None else v * 2.0 ** k
    for rec, want in zip(got, base):
        for key in ("estimate_lower", "estimate_upper", "se_lower", "se_upper"):
            assert rec.pop(key) == scale(want.pop(key))
        for key in ("ci_set", "ci_effect"):
            assert rec.pop(key) == [scale(v) for v in want.pop(key)]
        assert rec == want


@settings(max_examples=15, deadline=None)
@given(shares=panels, seed=seeds, n=crossfit_sizes,
       value=st.integers(min_value=-5, max_value=5))
@example(**UNSEEN_LEVEL_DRAWS[0], value=2)
@example(**UNSEEN_LEVEL_DRAWS[1], value=-1)
def test_one_valued_group_records_equal_full_sample_records(shares, seed, n,
                                                            value):
    table = _varied_draw(shares, seed, n)
    table = sb.ObservationTable(table.y, table.s, table.d,
                                np.column_stack([table.x, np.full(n, value)]),
                                table.weight)
    with tempfile.TemporaryDirectory() as directory:
        grouped = _estimate_stdout(table, directory, "grouped",
                                   ALL_METHODS + ("--group-col", "x3"))
        if _unseen_level(grouped):
            # the same run without --group-col
            assert _estimate_stdout(table, directory, "full") == grouped
            return
    records = json.loads(grouped[1])
    assert len(records) == 8
    full, groups = records[:4], records[4:]
    assert [rec.pop("group") for rec in groups] == [value] * 4
    assert groups == full


@settings(max_examples=25, deadline=None)
@given(shares=panels, seed=seeds)
def test_row_permutation_leaves_estimates_unchanged(shares, seed):
    table, bundle, support = _draw(shares, seed)
    perm = np.random.default_rng(seed).permutation(table.n)
    ptable, pbundle = table.select(perm), bundle.select(perm)
    psupport = sb.oracle_support(_config(shares, seed), ptable)
    cfg = EstimationConfig()
    want = sb.estimate_sharp(table, bundle, cfg, support)
    got = sb.estimate_sharp(ptable, pbundle, cfg, psupport)
    assert _close((got.lower, got.upper), (want.lower, want.upper))
    want = sb.estimate_trim(table, bundle, cfg, variant="retain", support=support)
    got = sb.estimate_trim(ptable, pbundle, cfg, variant="retain",
                           support=psupport)
    assert _close((got.lower, got.upper), (want.lower, want.upper))


@settings(max_examples=25, deadline=None)
@given(shares=panels, seed=seeds)
def test_outcome_negation_mirrors_always_taker_bounds(shares, seed):
    table, bundle, support = _draw(shares, seed)
    cfg = EstimationConfig()
    est = sb.estimate_sharp(table, bundle, cfg, support)
    neg = sb.estimate_sharp(table.with_negated_outcome(),
                            bundle.with_negated_outcome(), cfg,
                            support.with_negated_outcome())
    assert _close((neg.lower, neg.upper), (-est.upper, -est.lower))
    assert _close((neg.se_lower, neg.se_upper), (est.se_upper, est.se_lower))


@settings(max_examples=25, deadline=None)
@given(shares=panels, seed=seeds)
def test_complier_bounds_equal_defier_bounds_of_mirrored_data(shares, seed):
    table, bundle, support = _draw(shares, seed)
    mtable = table.with_negated_outcome().with_swapped_arms()
    mbundle = bundle.with_negated_outcome().with_swapped_arms()
    msupport = support.with_negated_outcome().with_swapped_arms()
    comp = sb.estimate_sharp(table, bundle, EstimationConfig(stratum=Stratum.C),
                             support)
    dfr = sb.estimate_sharp(mtable, mbundle, EstimationConfig(stratum=Stratum.DEF),
                            msupport)
    assert _close(_summary(dfr), _summary(comp))
    for side in (Side.L, Side.U):
        want = sb.unconditional_sharp_bound(
            table, bundle, StratumSpec(Stratum.C, side), support)
        got = sb.unconditional_sharp_bound(
            mtable, mbundle, StratumSpec(Stratum.DEF, side), msupport)
        assert _close(got, want)
