"""Invariances the estimators claim, checked on seeded oracle draws.

Oracle bundles keep cross-fitting folds out of the comparisons. The
standard error treats ``weight`` as a sampling weight, so an integer
weight k is not equivalent to k duplicate rows for the SEs; only the
point estimates would agree, and no test asserts that equivalence.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import strata_bounds as sb
from strata_bounds import EstimationConfig, Side, Stratum, StratumSpec

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
