import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

import strata_bounds as sb
from strata_bounds.data_model import NuisanceBundle, ObservationTable, StratumSpec
from strata_bounds.errors import ZeroShareError
from strata_bounds.identification import SupportBounds, stratum_weight

from helpers import (Pieces, direct_grid_bound, grid_bundle_and_table,
                     grid_design)


class TestStratumWeight:
    @pytest.mark.parametrize("stratum,want", [
        ("at", 0.3), ("c", 0.4), ("def", 0.0), ("nt", 0.3), ("em", 0.4)])
    def test_point_values(self, stratum, want):
        assert float(stratum_weight(0.3, 0.7, stratum)) == pytest.approx(want)

    def test_no_compliers_at_indifference(self):
        assert float(stratum_weight(0.5, 0.5, "c")) == 0.0

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        s0 = rng.uniform(0.05, 0.95, 200)
        s1 = rng.uniform(0.05, 0.95, 200)
        total = sum(stratum_weight(s0, s1, st) for st in ("at", "c", "def", "nt"))
        np.testing.assert_allclose(total, 1.0, rtol=1e-12)


def point_bundle(s0, s1, dist1: Pieces, dist0: Pieces, n=1, m=0.5):
    def qfn(rows, d, u):
        dist = dist1 if d == 1 else dist0
        return np.array([dist.ppf(ui) for ui in np.atleast_1d(u)])

    def bfn(rows, j, d, u):
        dist = dist1 if d == 1 else dist0
        f = dist.trunc_below if j == 1 else dist.trunc_above
        return np.array([f(ui) for ui in np.atleast_1d(u)])

    return NuisanceBundle(np.full(n, m), np.full(n, s0), np.full(n, s1),
                          qfn, bfn, provenance="oracle")


class TestSupportBounds:
    def test_per_row_limits_must_match_the_evaluated_rows(self):
        sup = SupportBounds(y1_lower=0.0, y1_upper=np.arange(5.0))
        np.testing.assert_array_equal(sup.upper(1, np.arange(5)), np.arange(5.0))
        with pytest.raises(ValueError, match="per-row support"):
            sup.upper(1, np.arange(4))


class TestConditionalSharpBound:
    def test_indifference_point_reduces_to_mean_difference(self):
        dist1 = Pieces([1.0], [0.0], [2.0])
        dist0 = Pieces([1.0], [-1.0], [1.0])
        b = point_bundle(0.5, 0.5, dist1, dist0)
        sup = SupportBounds(y1_lower=0, y1_upper=2, y0_lower=-1, y0_upper=1)
        got = sb.conditional_sharp_bound(b, StratumSpec("at", "l"), sup)
        assert got[0] == pytest.approx(dist1.mean() - dist0.mean(), rel=1e-10)
        up = sb.conditional_sharp_bound(b, StratumSpec("at", "u"), sup)
        assert up[0] == pytest.approx(got[0], rel=1e-10)

    def test_benchmark_point_by_numerical_integration(self):
        # one positive-monotone covariate point of the benchmark process
        s0, s1 = float(ndtr(0.0)), float(ndtr(1.0))
        p0 = s0 / s1
        gamma = 1.0
        # treated-selected mixture cdf F(y) = p0*y on [0,1]; trimmed mean at
        # level p0 by direct numerical integration of y dF / p0
        q, _ = 1.0, None
        val, _ = quad(lambda y: y * p0, 0.0, q)
        expect = val / p0
        assert expect == pytest.approx(0.5, abs=1e-10)
        dist1 = Pieces([p0, 1 - p0], [0.0, gamma], [1.0, 1.0 + gamma])
        dist0 = Pieces([1.0], [0.0], [0.0 + 1e-12])
        b = point_bundle(s0, s1, dist1, dist0)
        sup = SupportBounds(y1_lower=0, y1_upper=2, y0_lower=0, y0_upper=0)
        got = sb.conditional_sharp_bound(b, StratumSpec("at", "l"), sup)
        assert got[0] == pytest.approx(expect, abs=1e-9)

    def test_never_taker_bounds_follow_support(self):
        dist = Pieces([1.0], [0.0], [1.0])
        b = point_bundle(0.4, 0.6, dist, dist)
        sup_inf = SupportBounds()
        low = sb.conditional_sharp_bound(b, StratumSpec("nt", "l"), sup_inf)
        high = sb.conditional_sharp_bound(b, StratumSpec("nt", "u"), sup_inf)
        assert np.isneginf(low[0]) and np.isposinf(high[0])
        sup_fin = SupportBounds(y1_lower=0, y1_upper=1, y0_lower=0, y0_upper=1)
        assert sb.conditional_sharp_bound(b, StratumSpec("nt", "l"), sup_fin)[0] == -1.0

    def test_lower_leq_upper_across_strata(self):
        dist1 = Pieces([0.5, 0.5], [0.0, 1.0], [1.0, 2.0])
        dist0 = Pieces([1.0], [-0.5], [1.5])
        sup = SupportBounds(y1_lower=0, y1_upper=2, y0_lower=-0.5, y0_upper=1.5)
        for s0, s1 in ((0.4, 0.7), (0.7, 0.4), (0.5, 0.5)):
            b = point_bundle(s0, s1, dist1, dist0)
            for st in ("at", "c", "def", "nt", "em"):
                lo = sb.conditional_sharp_bound(b, StratumSpec(st, "l"), sup)[0]
                hi = sb.conditional_sharp_bound(b, StratumSpec(st, "u"), sup)[0]
                assert lo <= hi + 1e-10


class TestDominance:
    def setup_method(self):
        self.dist1 = Pieces([0.5, 0.5], [0.0, 1.2], [1.0, 2.6])
        self.dist0 = Pieces([1.0], [-0.5], [1.3])
        self.sup = SupportBounds(y1_lower=0, y1_upper=2.6,
                                 y0_lower=-0.5, y0_upper=1.3)

    def test_indifference_point_identical(self):
        b = point_bundle(0.5, 0.5, self.dist1, self.dist0)
        for side in ("l", "u"):
            sharp = sb.conditional_sharp_bound(b, StratumSpec("at", side), self.sup)
            dom = sb.conditional_sharp_bound(
                b, StratumSpec("at", side, dominance=True), self.sup)
            assert dom[0] == pytest.approx(sharp[0], rel=1e-10)

    def test_refines_on_positive_partition(self):
        b = point_bundle(0.5, 0.8, self.dist1, self.dist0)
        sharp_l = sb.conditional_sharp_bound(b, StratumSpec("at", "l"), self.sup)
        dom_l = sb.conditional_sharp_bound(
            b, StratumSpec("at", "l", dominance=True), self.sup)
        assert dom_l[0] >= sharp_l[0]
        sharp_u = sb.conditional_sharp_bound(b, StratumSpec("at", "u"), self.sup)
        dom_u = sb.conditional_sharp_bound(
            b, StratumSpec("at", "u", dominance=True), self.sup)
        assert dom_u[0] <= sharp_u[0] + 1e-12

    def test_benchmark_closed_form_full_mean(self):
        # dominance lower bound = untrimmed mixture mean minus zero
        s0, s1 = float(ndtr(0.0)), float(ndtr(1.0))
        p0 = s0 / s1
        gamma = 1.0
        dist1 = Pieces([p0, 1 - p0], [0.0, gamma], [1.0, 1.0 + gamma])
        dist0 = Pieces([1.0], [0.0], [1e-12])
        b = point_bundle(s0, s1, dist1, dist0)
        sup = SupportBounds(y1_lower=0, y1_upper=2, y0_lower=0, y0_upper=0)
        got = sb.conditional_sharp_bound(b, StratumSpec("at", "l", dominance=True), sup)
        want = p0 * 0.5 + (1 - p0) * (0.5 + gamma)
        assert got[0] == pytest.approx(want, abs=1e-9)

    def test_makes_complier_bounds_finite(self):
        b = point_bundle(0.5, 0.8, self.dist1, self.dist0)
        inf_sup = SupportBounds()
        sharp = sb.conditional_sharp_bound(b, StratumSpec("c", "l"), inf_sup)
        dom = sb.conditional_sharp_bound(b, StratumSpec("c", "l", dominance=True), inf_sup)
        assert np.isneginf(sharp[0]) and np.isfinite(dom[0])


def oracle_setup(shares=(0.5, 0.0, 0.5), n=3000, seed=2):
    config = sb.DgpConfig(n=n, shares=shares, replications=1, base_seed=seed)
    table = sb.dgp_sample(config, 0)
    bundle = sb.oracle_nuisances(config)(table)
    support = sb.oracle_support(config, table)
    return config, table, bundle, support


class TestUnconditional:
    def test_single_row_equals_conditional(self):
        dist1 = Pieces([1.0], [0.0], [2.0])
        dist0 = Pieces([1.0], [-1.0], [1.0])
        b = point_bundle(0.4, 0.7, dist1, dist0)
        t = ObservationTable(y=np.array([1.0]), s=np.array([1]), d=np.array([1]),
                             x=np.zeros((1, 1)), weight=np.array([2.0]))
        sup = SupportBounds(y1_lower=0, y1_upper=2, y0_lower=-1, y0_upper=1)
        spec = StratumSpec("at", "l")
        got = sb.unconditional_sharp_bound(t, b, spec, sup)
        want = sb.conditional_sharp_bound(b, spec, sup)[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_quadrature_on_benchmark(self):
        config, table, bundle, support = oracle_setup(n=200_000)
        design = sb.BenchmarkDesign(config)
        for st in ("at", "c", "em"):
            for side in ("l", "u"):
                got = sb.unconditional_sharp_bound(
                    table, bundle, StratumSpec(st, side), support)
                want = design.sharp_bound(side, st)
                assert got == pytest.approx(want, abs=0.02), (st, side)

    def test_zero_share_error(self):
        config, table, bundle, support = oracle_setup(shares=(0.0, 1.0, 0.0), n=100)
        with pytest.raises(ZeroShareError):
            sb.unconditional_sharp_bound(table, bundle, StratumSpec("c", "l"),
                                         support)

    def test_zero_weight_stratum_times_infinite_bound_is_zero(self):
        # indifferent rows have infinite complier bounds but zero weight
        config, table, bundle, support = oracle_setup(shares=(0.5, 0.5, 0.0),
                                                      n=5000)
        got = sb.unconditional_sharp_bound(table, bundle, StratumSpec("c", "l"),
                                           SupportBounds(
                                               y1_lower=0.0, y1_upper=2.0,
                                               y0_lower=0.0, y0_upper=0.0))
        assert np.isfinite(got)

    def test_dominance_refinement_rowwise(self):
        config, table, bundle, support = oracle_setup(n=4000)
        sharp = sb.conditional_sharp_bound(bundle, StratumSpec("at", "l"), support)
        dom = sb.conditional_sharp_bound(
            bundle, StratumSpec("at", "l", dominance=True), support)
        assert (dom >= sharp - 1e-10).all()

    def test_full_selection_reduces_to_mean_contrast(self):
        # everyone selected: no trimming anywhere, and the always-taker
        # bounds collapse to the weighted treated-control mean difference
        from strata_bounds.nuisance import CellOutcomeSurface, CellSpec
        rng = np.random.default_rng(12)
        n = 600
        d = (rng.random(n) < 0.5).astype(int)
        y = 0.7 * d + rng.normal(size=n)
        w = rng.uniform(0.5, 2.0, n)
        t = ObservationTable(y=y, s=np.ones(n, int), d=d,
                             x=np.zeros((n, 1)), weight=w)
        surf = CellOutcomeSurface(t, CellSpec())
        one = 1.0 - 1e-12
        b = NuisanceBundle(np.full(n, 0.5), np.full(n, one), np.full(n, one),
                           lambda r, dd, u: surf.quantile(t.x[r], dd, u),
                           lambda r, j, dd, u: surf.trunc_mean(t.x[r], j, dd, u),
                           provenance="oracle")
        ate = (np.average(y[d == 1], weights=w[d == 1])
               - np.average(y[d == 0], weights=w[d == 0]))
        sup = SupportBounds.from_table(t)
        for side in ("l", "u"):
            got = sb.unconditional_sharp_bound(t, b, StratumSpec("at", side), sup)
            assert got == pytest.approx(ate, abs=1e-9)


class TestBruteForceEquivalence:
    """Finite covariates, gridded outcome: module output vs direct enumeration."""

    @pytest.mark.parametrize("stratum", ["at", "c", "em"])
    @pytest.mark.parametrize("side", ["l", "u"])
    @pytest.mark.parametrize("dominance", [False, True])
    def test_matches_direct_enumeration(self, stratum, side, dominance):
        points = grid_design()
        bundle, table, support = grid_bundle_and_table(points)
        spec = StratumSpec(stratum, side, dominance=dominance)
        got = sb.unconditional_sharp_bound(table, bundle, spec, support)
        want = direct_grid_bound(points, stratum, side, dominance)
        assert got == pytest.approx(want, abs=1e-10)
