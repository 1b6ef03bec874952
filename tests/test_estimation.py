import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import norm

import strata_bounds as sb
from strata_bounds.data_model import (SHARE_FLOOR, NuisanceBundle,
                                      ObservationTable)
from strata_bounds.errors import (AllTrimmedError, EmptyCellError,
                                  InfiniteMomentError, PartitionError,
                                  ZeroShareError)
from strata_bounds import simulation
from strata_bounds.estimation import (EstimationConfig, _brentq, _estimate,
                                      _normal_quantile,
                                      default_rho, estimate_sharp,
                                      estimate_smooth, estimate_switch,
                                      estimate_trim, im_critical_value,
                                      imbens_manski_interval, moment_rows,
                                      ratio_estimate, smooth_ratio_estimate)
from strata_bounds.influence import SmoothInfluenceRows
from strata_bounds.smoothing import GFamily

from helpers import Pieces, pair_tail, reference_trim_drop
from test_shared_pieces import _crossfit_draw

#: The known-propensity moments.
KNOWN = EstimationConfig(inefficient=True)


class TestRatioEstimate:
    def test_unit_share_reduces_to_weighted_mean(self):
        rng = np.random.default_rng(0)
        psi_b = rng.normal(size=500)
        w = rng.uniform(0.5, 2.0, 500)
        beta, se = ratio_estimate(psi_b, np.ones(500), w)
        assert beta == pytest.approx(np.average(psi_b, weights=w), rel=1e-12)
        wn = w / w.sum()
        want_se = np.sqrt(np.sum((wn * (psi_b - beta)) ** 2))
        assert se == pytest.approx(want_se, rel=1e-12)

    def test_proportional_moments_have_zero_se(self):
        psi_s = np.abs(np.random.default_rng(1).normal(size=100)) + 0.1
        beta, se = ratio_estimate(3.5 * psi_s, psi_s, np.ones(100))
        assert beta == pytest.approx(3.5, rel=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_linearization_residual(self):
        rng = np.random.default_rng(2)
        psi_b = rng.normal(size=300)
        psi_s = rng.uniform(0.2, 1.0, 300)
        w = rng.uniform(0.5, 2.0, 300)
        beta, _ = ratio_estimate(psi_b, psi_s, w)
        resid = np.average(psi_b - beta * psi_s, weights=w)
        assert abs(resid) < 1e-12

    def test_zero_share_error(self):
        with pytest.raises(ZeroShareError):
            ratio_estimate(np.ones(10), np.zeros(10), np.ones(10))

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_standard_errors_scale_exactly_over_the_float_range(self, k):
        # at these scales the squared residuals used to overflow to inf or
        # underflow to 0
        rng = np.random.default_rng(3)
        psi_b, psi_s = rng.normal(size=(2, 400))
        psi_s = np.abs(psi_s) + 0.5
        w = rng.uniform(0.5, 2.0, 400)
        beta, se = ratio_estimate(psi_b, psi_s, w)
        assert ratio_estimate(np.ldexp(psi_b, k), psi_s, w) == (
            math.ldexp(beta, k), math.ldexp(se, k))
        rows = SmoothInfluenceRows(psi_b, psi_s, -psi_b[::-1], psi_s[::-1])
        beta, se = smooth_ratio_estimate(rows, w)
        scaled = SmoothInfluenceRows(np.ldexp(psi_b, k), psi_s,
                                     -np.ldexp(psi_b[::-1], k), psi_s[::-1])
        assert smooth_ratio_estimate(scaled, w) == (math.ldexp(beta, k),
                                                    math.ldexp(se, k))

    def test_an_overflowing_interval_end_raises(self):
        # the standard errors no longer overflow, so a side estimate stands
        # in for one whose interval end does; it raises before the
        # diagnostics read a bundle
        with pytest.raises(InfiniteMomentError, match="sharp: a bound"):
            _estimate(lambda side: (1e308, 1e308), "sharp", 2,
                      EstimationConfig(), bundle=None)

    def test_an_overflowing_gap_raises(self):
        # finite ends and interval ends whose difference is not finite
        with pytest.raises(InfiniteMomentError, match="trim: a bound"):
            _estimate(lambda side: (-1e308 if side is sb.Side.L else 1e308,
                                    0.0), "trim", 2, EstimationConfig(),
                      bundle=None)


class TestImbensManski:
    def test_wide_set_one_sided_limit(self):
        c = im_critical_value(delta=100.0, se=1.0, alpha=0.05)
        assert c == pytest.approx(norm.ppf(0.95), abs=1e-6)

    def test_point_identified_two_sided_limit(self):
        c = im_critical_value(delta=0.0, se=1.0, alpha=0.05)
        assert c == pytest.approx(norm.ppf(0.975), abs=1e-9)

    def test_monotone_in_width(self):
        cs = [im_critical_value(d, 1.0, 0.05) for d in (0.0, 0.5, 1.0, 3.0, 10.0)]
        assert all(a >= b - 1e-12 for a, b in zip(cs, cs[1:]))

    def test_interval_construction(self):
        lo, hi = imbens_manski_interval(0.2, 0.8, 0.05, 0.1, alpha=0.05)
        c = im_critical_value(0.6, 0.1, 0.05)
        assert lo == pytest.approx(0.2 - c * 0.05)
        assert hi == pytest.approx(0.8 + c * 0.1)

    def test_zero_se_degenerate(self):
        lo, hi = imbens_manski_interval(0.2, 0.8, 0.0, 0.0)
        assert (lo, hi) == (0.2, 0.8)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1, 1), st.floats(0, 2), st.floats(0.001, 0.5),
           st.floats(0.001, 0.5), st.floats(0.01, 0.2))
    def test_nesting(self, lower, width, se_l, se_u, alpha):
        upper = lower + width
        eff = imbens_manski_interval(lower, upper, se_l, se_u, alpha=alpha)
        z = norm.ppf(1 - alpha / 2)
        setci = (lower - z * se_l, upper + z * se_u)
        assert eff[0] <= lower + 1e-12 and eff[1] >= upper - 1e-12
        assert eff[0] >= setci[0] - 1e-9 and eff[1] <= setci[1] + 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            imbens_manski_interval(0.0, 1.0, -0.1, 0.1)

    def test_crossed_ends_take_the_zero_width_critical_value(self):
        # the ends of a panel-c sharp record, which cross; the estimators
        # report such ends as estimated and build this interval on them
        lower, upper = 0.0858, 0.0623
        c = im_critical_value(0.0, 0.05)
        assert c == _normal_quantile(0.975)
        assert imbens_manski_interval(lower, upper, 0.05, 0.05) == (
            lower - c * 0.05, upper + c * 0.05)


def _solved(solve, f, a, b, **kwargs) -> str:
    """The root's bytes (as hex), or the error's type and message."""
    try:
        return solve(f, a, b, **kwargs).hex()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestBrentq:
    """The in-package root finder returns what ``scipy.optimize.brentq``
    returns, byte for byte, and raises what it raises."""

    def test_im_brackets(self):
        rng = np.random.default_rng(14)
        for i in range(12000):
            alpha = (0.01, 0.05, 0.1, rng.uniform(0.001, 0.5))[i % 4]
            ratio = 10.0 ** rng.uniform(-4.0, 3.0)
            z_two = float(ndtri(1.0 - alpha / 2.0))

            def f(c):
                return ndtr(c + ratio) - ndtr(-c) - (1.0 - alpha)

            want = _solved(brentq, f, 0.0, z_two, xtol=1e-10)
            assert _solved(_brentq, f, 0.0, z_two, xtol=1e-10) == want
            if f(0.0) < 0.0 < f(z_two):
                assert im_critical_value(ratio, 1.0, alpha).hex() == want

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    @pytest.mark.parametrize("h", [None, 0.05, 0.01])
    @pytest.mark.parametrize("panel", ["a", "b", "c"])
    def test_panel_ends(self, monkeypatch, panel, h, gamma):
        design = sb.BenchmarkDesign(sb.DgpConfig(
            shares=sb.PANEL_SHARES[panel], gamma=gamma))
        ends = design._panel_ends(h)
        assert ends.size > 2
        monkeypatch.setattr(simulation, "_brentq", brentq)
        assert ends.tobytes() == design._panel_ends(h).tobytes()

    def test_random_functions(self):
        # scales down to 1e-300 underflow the extrapolation's denominator
        rng = np.random.default_rng(3)
        for i in range(2000):
            c = rng.normal(size=2)
            r = rng.uniform(-1.0, 1.0)
            scale = 10.0 ** rng.uniform(-300.0, 300.0) if i % 3 == 0 else 1.0
            shape = (lambda x: (x - r) * ((c[0] + c[1] * x * x) ** 2 + 1e-3),
                     lambda x: math.exp(c[0] * x) - math.exp(c[0] * r),
                     lambda x: math.tanh(10.0 * c[1] * (x - r)) + 1e-9 * c[0],
                     lambda x: float(np.sign(x - r)))[i % 4]

            def f(x):
                return scale * shape(x)

            a, b = r - rng.uniform(0.0, 3.0), r + rng.uniform(0.0, 3.0)
            kwargs = {"xtol": (2e-12, 1e-10, 5e-324, 1e-3)[i % 4],
                      "maxiter": int(rng.integers(1, 100))}
            assert _solved(_brentq, f, a, b, **kwargs) == \
                _solved(brentq, f, a, b, **kwargs)

    @pytest.mark.parametrize("f,a,b,kwargs", [
        (lambda x: math.nan, 0.0, 1.0, {}),
        (lambda x: math.nan if 0.4 < x < 0.9 else x - 0.7, 0.0, 1.0, {}),
        (lambda x: x - 2.0, 0, 1, {}),
        (lambda x: 1e-200, 0.0, 1.0, {}),
        (lambda x: x ** 3 - 0.3, 0.0, 1.0, {"maxiter": 2}),
        (lambda x: x - 0.3, 1.0, 0.0, {}),
        (lambda x: -0.0 if x == 0.0 else x, 0.0, 1.0, {}),
        (lambda x: 1e-300 * (x - 0.3) ** 3, 0.0, 1.0, {}),
    ], ids=["nan_at_a", "nan_inside", "no_sign_change",
            "underflowing_product", "no_convergence", "reversed_bracket",
            "negative_zero", "underflowing_step"])
    def test_edge_cases(self, f, a, b, kwargs):
        assert _solved(_brentq, f, a, b, **kwargs) == \
            _solved(brentq, f, a, b, **kwargs)


def oracle_setup(shares=(0.5, 0.0, 0.5), n=4000, seed=8):
    config = sb.DgpConfig(n=n, shares=shares, replications=1, base_seed=seed)
    table = sb.dgp_sample(config, 0)
    bundle = sb.oracle_nuisances(config)(table)
    support = sb.oracle_support(config, table)
    return config, table, bundle, support


def _unselected_sample(n=4):
    """Nobody is ever selected: the selection probabilities clamp to the
    oracle overlap floor, so every stratum share but the never-takers' is
    zero up to that floor."""
    table = ObservationTable(y=np.full(n, np.nan), s=np.zeros(n, int),
                             d=np.arange(n) % 2, x=np.zeros((n, 1)),
                             weight=np.ones(n))
    bundle = NuisanceBundle(np.full(n, 0.5), np.zeros(n), np.zeros(n),
                            lambda r, j, d, u: (np.zeros(len(r)),
                                                np.zeros(len(r))),
                            provenance="oracle")
    return table, bundle


def _ratio_at(share):
    # two rows with weight 1/2 each: the share mean is exactly ``share``
    return ratio_estimate(np.ones(2), np.full(2, share), np.ones(2))


def _smooth_ratio_at(share):
    psi_s = np.full(2, share)
    rows = SmoothInfluenceRows(np.ones(2), psi_s, np.ones(2), psi_s)
    return smooth_ratio_estimate(rows, np.ones(2))


def _trim_retain_zero_share():
    # every row on the negative partition: no complier mass anywhere, and
    # no selection-indifferent row, so nothing is trimmed
    config, table, bundle, support = oracle_setup(shares=(0.0, 0.0, 1.0),
                                                  n=200)
    estimate_trim(table, bundle, EstimationConfig(stratum=sb.Stratum.C),
                  variant="retain", support=support)


def _unconditional_zero_share():
    table, bundle = _unselected_sample()
    sb.unconditional_sharp_bound(table, bundle, sb.StratumSpec("at", "l"))


def _smooth_unconditional_zero_share():
    table, bundle = _unselected_sample()
    sb.smooth_unconditional_bound(table, bundle, "l", GFamily(h=0.05))


# entry point -> (call, whether it takes the share mean as an argument)
_SHARE_FLOOR_CASES = {
    "ratio_estimate": (_ratio_at, True),
    "smooth_ratio_estimate": (_smooth_ratio_at, True),
    "estimate_trim_retain": (_trim_retain_zero_share, False),
    "unconditional_sharp_bound": (_unconditional_zero_share, False),
    "smooth_unconditional_bound": (_smooth_unconditional_zero_share, False),
}


@pytest.mark.parametrize("entry", list(_SHARE_FLOOR_CASES))
def test_share_floor(entry):
    call, takes_share = _SHARE_FLOOR_CASES[entry]
    if takes_share:
        with pytest.raises(ZeroShareError):
            call(SHARE_FLOOR)
        call(2 * SHARE_FLOOR)
    else:
        with pytest.raises(ZeroShareError):
            call()


#: The diagnostics keys of every record; a method adds its own values.
SCHEMA = {"share_xzero", "band", "share_band", "n_clamped", "provenance",
          "crossed", "gap"}


class TestEstimators:
    def test_every_method_reports_one_diagnostics_schema(self):
        config, table, bundle, support = oracle_setup(shares=(0.4, 0.2, 0.4),
                                                      n=600)
        cfg = EstimationConfig()
        nt = EstimationConfig(stratum=sb.Stratum.NT)
        xzero = bundle.labels() == 0
        cases = [  # (estimate, band rule, rows in the band, own values)
            (estimate_sharp(table, bundle, cfg, support), "xzero", xzero, {}),
            (estimate_sharp(table, bundle, KNOWN, support), "xzero", xzero,
             {}),
            (estimate_trim(table, bundle, cfg, support=support), "xzero",
             xzero, {"variant": "drop"}),
            (estimate_trim(table, bundle, cfg, eps_trim=0.05,
                           variant="retain", support=support), "eps_trim",
             xzero | (np.abs(bundle.p0 - 1) <= 0.05), {"variant": "retain"}),
            (estimate_switch(table, bundle, cfg, rho=0.1, support=support),
             "rho", xzero | (np.abs(bundle.p0 - 1) <= 0.1), {"rho": 0.1}),
            (estimate_smooth(table, bundle, GFamily(h=0.05), cfg), "none",
             np.zeros(table.n, bool), {}),
            (estimate_sharp(table, bundle, nt, support), "none",
             np.zeros(table.n, bool), {"plug_in": True}),
        ]
        assert 0 < xzero.mean() < 0.3
        for est, rule, band, own in cases:
            diags = est.diagnostics
            assert set(diags) == SCHEMA | set(own)
            assert diags == dict(diags, **own)
            assert (diags["band"], diags["share_band"]) == (rule, band.mean())
            assert diags["share_xzero"] == xzero.mean()
            assert diags["n_clamped"] == bundle.n_clamped
            assert diags["provenance"] == "oracle"
            assert diags["gap"] == est.upper - est.lower
            assert diags["crossed"] is (est.lower > est.upper)

    def test_switch_with_zero_rho_equals_sharp_on_regular_design(self):
        config, table, bundle, support = oracle_setup()
        cfg = EstimationConfig()
        sharp = estimate_sharp(table, bundle, cfg, support)
        switch = estimate_switch(table, bundle, cfg, rho=0.0, support=support)
        assert switch.lower == pytest.approx(sharp.lower, abs=1e-12)
        assert switch.upper == pytest.approx(sharp.upper, abs=1e-12)

    def test_trim_noop_without_indifferent_rows(self):
        config, table, bundle, support = oracle_setup()
        cfg = EstimationConfig()
        sharp = estimate_sharp(table, bundle, cfg, support)
        for variant in ("drop", "retain"):
            trim = estimate_trim(table, bundle, cfg, variant=variant,
                                 support=support)
            assert trim.lower == pytest.approx(sharp.lower, abs=1e-12)
            assert trim.se_lower == pytest.approx(sharp.se_lower, rel=1e-9)

    def test_methods_agree_in_smooth_limit(self):
        # no rows near the indifference point: trim, switch, and the
        # vanishing-h smoothed estimator coincide
        config, table, bundle, support = oracle_setup()
        away = np.abs(bundle.p0 - 1.0) > 2 * default_rho(table.n)
        table, bundle = table.select(away), bundle.select(away)
        support = sb.oracle_support(config, table)
        assert (np.abs(bundle.p0 - 1.0) > default_rho(table.n)).all()
        cfg = EstimationConfig()
        trim = estimate_trim(table, bundle, cfg, support=support)
        switch = estimate_switch(table, bundle, cfg, support=support)
        smooth = estimate_smooth(table, bundle, GFamily(h=1e-9), cfg)
        assert switch.lower == pytest.approx(trim.lower, abs=1e-6)
        assert smooth.lower == pytest.approx(trim.lower, abs=1e-6)
        assert smooth.upper == pytest.approx(trim.upper, abs=1e-6)

    def test_all_trimmed_error(self):
        config, table, bundle, support = oracle_setup(shares=(0.0, 1.0, 0.0),
                                                      n=200)
        with pytest.raises(AllTrimmedError):
            estimate_trim(table, bundle, EstimationConfig(), support=support)

    @pytest.mark.parametrize("stratum", [sb.Stratum.C, sb.Stratum.EM])
    def test_trim_drop_reads_per_row_support_at_the_survivors(self, stratum):
        # the dropped rows' support limits must not shift onto the survivors
        config, table, bundle, support = oracle_setup(shares=(0.4, 0.2, 0.4),
                                                      n=3000)
        assert np.ndim(support.y1_upper) == 1
        cfg = EstimationConfig(stratum=stratum)
        keep = bundle.labels() != 0
        restricted = sb.SupportBounds(support.y1_lower,
                                      np.asarray(support.y1_upper)[keep],
                                      support.y0_lower, support.y0_upper)
        want = estimate_sharp(table.select(keep), bundle.select(keep), cfg,
                              restricted)
        got = estimate_trim(table, bundle, cfg, variant="drop", support=support)
        assert got.upper == pytest.approx(want.upper, rel=1e-12)
        assert got.lower == pytest.approx(want.lower, rel=1e-12)

    def test_trim_retain_keeps_full_sample_point_estimate(self):
        config, table, bundle, support = oracle_setup(shares=(0.4, 0.2, 0.4))
        cfg = EstimationConfig()
        sharp = estimate_sharp(table, bundle, cfg, support)
        retain = estimate_trim(table, bundle, cfg, variant="retain",
                               support=support)
        drop = estimate_trim(table, bundle, cfg, variant="drop", support=support)
        assert retain.lower == pytest.approx(sharp.lower, abs=1e-12)
        assert retain.se_lower > sharp.se_lower
        assert drop.lower != pytest.approx(sharp.lower, abs=1e-6)
        assert retain.n_effective == drop.n_effective < table.n

    def test_smooth_outer_ordering_on_data(self):
        config, table, bundle, support = oracle_setup(shares=(0.4, 0.2, 0.4))
        cfg = EstimationConfig()
        lows, highs = [], []
        for h in (1e-9, 0.01, 0.05, 0.2):
            est = estimate_smooth(table, bundle, GFamily(h=h), cfg)
            lows.append(est.lower)
            highs.append(est.upper)
        assert all(a >= b - 1e-10 for a, b in zip(lows, lows[1:]))
        assert all(a <= b + 1e-10 for a, b in zip(highs, highs[1:]))

    def test_smooth_requires_always_taker_stratum(self):
        config, table, bundle, support = oracle_setup(n=500)
        with pytest.raises(PartitionError):
            estimate_smooth(table, bundle, GFamily(h=0.05),
                            EstimationConfig(stratum=sb.Stratum.C))

    def test_smooth_has_no_known_propensity_variant(self):
        # the config flag used to be ignored: the efficient record came back
        # labelled smooth
        config, table, bundle, support = oracle_setup(shares=sb.PANEL_SHARES["b"],
                                                      n=500)
        with pytest.raises(PartitionError, match="known-propensity"):
            estimate_smooth(table, bundle, GFamily(h=0.05),
                            EstimationConfig(inefficient=True))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.1, math.nan])
    def test_alpha_outside_the_unit_interval_raises(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            EstimationConfig(alpha=alpha)

    @pytest.mark.parametrize("value", [-1.0, -1e-300, math.nan, math.inf])
    def test_band_widths_are_finite_and_nonnegative(self, value):
        config, table, bundle, support = oracle_setup(n=300)
        with pytest.raises(ValueError, match="rho must be a finite number"):
            estimate_switch(table, bundle, rho=value, support=support)
        with pytest.raises(ValueError, match="eps_trim must be a finite number"):
            estimate_trim(table, bundle, eps_trim=value, support=support)

    def test_ci_nesting_on_estimates(self):
        config, table, bundle, support = oracle_setup(shares=(0.4, 0.2, 0.4))
        cfg = EstimationConfig()
        for est in (estimate_sharp(table, bundle, cfg, support),
                    estimate_switch(table, bundle, cfg, support=support),
                    estimate_smooth(table, bundle, GFamily(h=0.05), cfg)):
            assert est.ci_effect[0] <= est.lower + 1e-12
            assert est.ci_effect[1] >= est.upper - 1e-12
            assert est.ci_set[0] <= est.ci_effect[0] + 1e-9
            assert est.ci_set[1] >= est.ci_effect[1] - 1e-9

    def test_inefficient_requires_known_propensity(self):
        config, table, bundle, support = oracle_setup(n=300)
        cross = NuisanceBundle(bundle.m, bundle.s0, bundle.s1,
                               bundle._tail_fn, provenance="cross_fitted")
        with pytest.raises(PartitionError):
            estimate_sharp(table, cross, KNOWN, support)

    @pytest.mark.parametrize("stratum", ["c", "def", "em", "nt"])
    def test_inefficient_is_for_the_always_taker_stratum_only(self, stratum):
        # the never-taker plug-in has no known-propensity variant either
        config, table, bundle, support = oracle_setup(n=300)
        with pytest.raises(PartitionError, match="always-taker stratum only"):
            estimate_sharp(table, bundle, EstimationConfig(
                stratum=sb.Stratum.parse(stratum), inefficient=True), support)

    def test_dominance_and_known_propensity_moments_cannot_be_combined(self):
        # estimate refuses the pair before it reads data; this is the
        # library's own refusal
        config, table, bundle, support = oracle_setup(n=300)
        with pytest.raises(PartitionError, match="cannot be combined"):
            estimate_sharp(table, bundle, EstimationConfig(
                dominance=True, inefficient=True), support)

    def test_null_effect_design(self):
        # constant outcome, full selection, known propensity: the estimated
        # contrast is noise around zero
        n = 20_000
        rng = np.random.default_rng(5)
        d = (rng.random(n) < 0.5).astype(int)
        t = ObservationTable(y=np.full(n, 2.0), s=np.ones(n, int), d=d,
                             x=np.zeros((n, 1)), weight=np.ones(n))
        dist = Pieces([1.0], [2.0 - 1e-9], [2.0 + 1e-9])
        b = NuisanceBundle(np.full(n, 0.5), np.full(n, 1 - 1e-9),
                           np.full(n, 1 - 1e-9),
                           pair_tail(lambda r, dd, u: np.full(len(r), 2.0),
                                     lambda r, j, dd, u: np.full(len(r), 2.0)),
                           provenance="oracle")
        est = estimate_sharp(t, b, KNOWN)
        assert est.lower == pytest.approx(0.0, abs=4 * max(est.se_lower, 1e-12))

    def test_full_selection_inefficient_is_ipw_contrast(self):
        n = 5000
        rng = np.random.default_rng(6)
        d = (rng.random(n) < 0.4).astype(int)
        y = 1.0 + 0.5 * d + rng.normal(size=n)
        t = ObservationTable(y=y, s=np.ones(n, int), d=d, x=np.zeros((n, 1)),
                             weight=np.ones(n))
        m = np.full(n, 0.4)
        b = NuisanceBundle(m, np.full(n, 1 - 1e-12), np.full(n, 1 - 1e-12),
                           pair_tail(lambda r, dd, u: np.full(len(r), y.max()),
                                     lambda r, j, dd, u: np.full(len(r), 0.0)),
                           provenance="oracle")
        est = estimate_sharp(t, b, KNOWN)
        ht = np.mean(y * d / 0.4) - np.mean(y * (1 - d) / 0.6)
        # the share moment is 1 up to the floor, so the ratio reduces to
        # the plain inverse-propensity contrast
        assert est.lower == pytest.approx(ht, abs=1e-6)


TRIM_CONFIGS = {
    **{f"{stratum}{'_dominance' if dom else ''}":
       EstimationConfig(stratum=sb.Stratum.parse(stratum), dominance=dom)
       for stratum in ("at", "c", "def", "em") for dom in (False, True)},
    "at_known": EstimationConfig(inefficient=True),
}


def _oracle_trim_draw(shares):
    config = sb.DgpConfig(n=1000, shares=shares, replications=1, base_seed=4)
    table = sb.dgp_sample(config, 0)
    return (table, sb.oracle_nuisances(config)(table),
            sb.oracle_support(config, table))


def _crossfit_trim_draw():
    table, make, support = _crossfit_draw()
    return table, make(), support


TRIM_DRAWS = {
    "a": lambda: _oracle_trim_draw(sb.PANEL_SHARES["a"]),
    "b": lambda: _oracle_trim_draw(sb.PANEL_SHARES["b"]),
    "0.4,0.2,0.4": lambda: _oracle_trim_draw((0.4, 0.2, 0.4)),
    "crossfit": _crossfit_trim_draw,
}


@pytest.fixture(scope="module", params=sorted(TRIM_DRAWS))
def trim_draw(request):
    """(table, bundle, per-row support) of one draw, shared by its tests."""
    return TRIM_DRAWS[request.param]()


def _outcome(estimate, *args, **kwargs) -> str:
    """The estimate's exact repr, or the type of the error it raised."""
    try:
        return repr(estimate(*args, **kwargs))
    except sb.StrataBoundsError as exc:
        return f"fail:{type(exc).__name__}"


#: Every moment estimator with the known-propensity moments.
KNOWN_PROPENSITY = {
    "sharp": lambda t, b, s: estimate_sharp(t, b, KNOWN, s),
    "trim_drop": lambda t, b, s: estimate_trim(t, b, KNOWN, support=s),
    "trim_retain": lambda t, b, s: estimate_trim(t, b, KNOWN,
                                                 variant="retain", support=s),
    "switch": lambda t, b, s: estimate_switch(t, b, KNOWN, support=s),
}


class TestKnownPropensityGate:
    """The known-propensity moments drop an augmentation that is mean-zero
    only at the true propensity, so every moment estimator refuses them on
    a bundle whose ``m`` is estimated."""

    def test_a_cross_fitted_bundle_is_refused_by_every_method(self):
        # sharp, trim and switch used to return bounds on this draw
        table, make, support = _crossfit_draw()
        bundle = make()
        assert not bundle.known_propensity
        for name, estimate in KNOWN_PROPENSITY.items():
            with pytest.raises(PartitionError, match="require an oracle or "
                               "externally supplied propensity score"):
                estimate(table, bundle, support)

    @pytest.mark.parametrize("provenance,digest", [
        ("oracle", "2932c82f3289045d7d4baa2dd654ee5a"
                   "0f4c78b912b7d5f3518e607e1d6fce4e"),
        ("external", "601a96da544ae7c9772b3739f10626cd"
                     "83bf1d6b7da853cf833b1727823697ac"),
        ("external_oracle", "10965ab561c4aff1aa99a9820c31e2b4"
                            "83dcfeda655bf5830b1542638e7d10e0"),
    ])
    def test_a_supplied_propensity_gives_the_same_bytes(self, provenance,
                                                        digest):
        # digests of the four records' reprs, recorded before the gate
        config, table, bundle, support = oracle_setup(shares=(0.4, 0.2, 0.4),
                                                      n=600)
        bundle = NuisanceBundle(bundle.m, bundle.s0, bundle.s1,
                                bundle._tail_fn, provenance=provenance)
        assert bundle.known_propensity
        reprs = "\n".join(repr(estimate(table, bundle, support))
                          for estimate in KNOWN_PROPENSITY.values())
        assert hashlib.sha256(reprs.encode()).hexdigest() == digest


class TestTrimDrop:
    """``estimate_trim(variant="drop")`` reduces the survivors' rows of the
    full-sample moments that every estimator shares."""

    @pytest.mark.parametrize("eps_trim", [None, 0.05])
    @pytest.mark.parametrize("name", sorted(TRIM_CONFIGS))
    def test_same_bytes_as_the_survivor_subset(self, trim_draw, name,
                                               eps_trim):
        table, bundle, support = trim_draw
        cfg = TRIM_CONFIGS[name]
        want = _outcome(reference_trim_drop, table, bundle, cfg,
                        eps_trim=eps_trim, support=support)
        if cfg.inefficient and not bundle.known_propensity:
            # the known-propensity moments refuse an estimated propensity
            want = "fail:PartitionError"
        got = _outcome(estimate_trim, table, bundle, cfg, eps_trim=eps_trim,
                       variant="drop", support=support)
        assert got == want

    @pytest.mark.parametrize("cfg", [EstimationConfig(),
                                     EstimationConfig(inefficient=True)],
                             ids=["efficient", "known"])
    def test_reuses_the_tails_of_sharp(self, cfg):
        table, bundle, support = _oracle_trim_draw(sb.PANEL_SHARES["b"])
        calls = []
        evaluate = bundle.tail

        def counted(*args):
            calls.append(args)
            return evaluate(*args)
        bundle.tail = counted
        estimate_sharp(table, bundle, cfg, support)
        assert calls
        calls.clear()
        estimate_trim(table, bundle, cfg, variant="drop", support=support)
        assert calls == []

    def test_empty_cell_on_banded_rows_raises_as_sharp_does(self):
        # a cross-fitted bundle whose surfaces have no cell for the
        # selection-indifferent rows
        n = 60
        rng = np.random.default_rng(3)
        table = ObservationTable(y=rng.uniform(size=n), s=np.ones(n, int),
                                 d=np.arange(n) % 2, x=np.zeros((n, 1)),
                                 weight=np.ones(n))
        banded = np.arange(n) % 3 == 0
        s0 = np.where(banded, 0.6, 0.5)

        def surface(value):
            def fn(rows, *args):
                if banded[rows].any():
                    raise EmptyCellError("no training rows in the cell")
                return value(args[-1])
            return fn

        bundle = NuisanceBundle(
            np.full(n, 0.5), s0, np.full(n, 0.6),
            pair_tail(surface(lambda u: u),
                      surface(lambda u: np.full_like(u, 0.5))),
            provenance="cross_fitted")
        assert (bundle.labels()[banded] == 0).all()
        assert not (bundle.labels()[~banded] == 0).any()
        with pytest.raises(EmptyCellError):
            estimate_sharp(table, bundle)
        with pytest.raises(EmptyCellError):
            estimate_trim(table, bundle, variant="drop")


class TestHeterogeneousBounds:
    """A subgroup bound is the estimator run on the group's rows."""

    def _sample(self):
        config, table, bundle, _ = oracle_setup(shares=(0.4, 0.2, 0.4),
                                                n=6000)
        keep = bundle.labels() != 0
        return config, table.select(keep), bundle.select(keep)

    def _by_group(self, config, table, bundle, groups):
        out = {}
        for gval in np.unique(groups):
            rows = groups == gval
            sub = table.select(rows)
            out[gval] = estimate_sharp(sub, bundle.select(rows),
                                       EstimationConfig(),
                                       sb.oracle_support(config, sub))
        return out

    def test_single_group_equals_unconditional(self):
        config, table, bundle = self._sample()
        out = self._by_group(config, table, bundle, np.zeros(table.n))
        full = estimate_sharp(table, bundle, EstimationConfig(),
                              sb.oracle_support(config, table))
        assert repr(out[0.0]) == repr(full)

    def test_groups_recombine_to_unconditional(self):
        config, table, bundle = self._sample()
        groups = table.x[:, 0]
        out = self._by_group(config, table, bundle, groups)
        support = sb.oracle_support(config, table)
        lower = moment_rows(table, bundle, "l", support=support)
        wn = table.weight / table.weight.sum()
        total_mass = float(np.dot(wn, lower.psi_s))
        combined = 0.0
        for gval, est in out.items():
            mask = groups == gval
            share = float(np.dot(wn[mask], lower.psi_s[mask])) / total_mass
            combined += share * est.lower
        full = estimate_sharp(table, bundle, EstimationConfig(), support)
        assert combined == pytest.approx(full.lower, rel=1e-10)

    def test_group_targets_on_benchmark(self):
        # the effect is concentrated on the positive-monotone category
        config, table, bundle = self._sample()
        out = self._by_group(config, table, bundle, table.x[:, 0])
        assert out[1.0].lower > 0.3
        assert abs(out[-1.0].lower) < 0.1


class TestDefaultRho:
    def test_formula(self):
        assert default_rho(2000) == pytest.approx(2000 ** -0.25 / np.log(2000))

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_is_a_value_error(self, n):
        with pytest.raises(ValueError, match=f"n = {n}"):
            default_rho(n)
