import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import strata_bounds as sb
from strata_bounds.data_model import Side
from strata_bounds.errors import DegenerateTrimError
from strata_bounds.smoothing import GFamily, LOG2

H_GRID = (1e-9, 0.01, 0.05, 0.5, 5.0)


class TestGFamily:
    def test_closed_form_values(self):
        for h in (0.01, 0.15, 1.0):
            fam = GFamily(h=h)
            assert fam.g(1, 1.0) == pytest.approx(1.0 - h * LOG2, rel=1e-12)
            assert fam.g(2, 0.0) == pytest.approx(h * LOG2, rel=1e-12)
            assert fam.g(4, 0.0) == pytest.approx(0.0, abs=1e-15)
            assert fam.g(3, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_sandwich_and_error_bound_at_example_point(self):
        fam = GFamily(h=0.15)
        z = 0.7
        g1 = float(fam.g(1, z))
        assert g1 < min(z, 1.0)
        assert min(z, 1.0) - g1 <= 0.15 * LOG2 + 1e-15

    # inf used to be accepted (its trim levels then fail), None raised a
    # TypeError
    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf, None])
    def test_h_not_positive_raises(self, h):
        with pytest.raises(ValueError, match="h must be positive"):
            GFamily(h=h)

    def test_overflowing_z_over_h_is_the_limit(self):
        # z / h overflows at these h; it used to warn (an error under the
        # test suite's filter) although the result is the h -> 0 limit
        config, table, bundle = _oracle(shares=sb.PANEL_SHARES["b"], n=400)
        z = np.array([-2.0, -1e-300, 0.0, 1e-300, 0.5, 1.0, 3.0])
        want = sb.estimate_smooth(table, bundle, GFamily(h=1e-300))
        for h in (1e-308, 5e-324):
            fam = GFamily(h=h)
            for i in range(1, 7):
                fam.g(i, z)
                fam.g_prime(i, z)
            got = sb.estimate_smooth(table, bundle, fam)
            assert (got.lower, got.upper, got.se_lower, got.se_upper) == \
                (want.lower, want.upper, want.se_lower, want.se_upper)

    def test_mirror_identities(self):
        fam = GFamily(h=0.2)
        z = np.linspace(-4, 4, 101)
        np.testing.assert_allclose(fam.g(5, z), -fam.g(2, -z), rtol=1e-12)
        np.testing.assert_allclose(fam.g(6, z), -fam.g(4, -z), rtol=1e-12)

    @pytest.mark.parametrize("h", H_GRID)
    def test_sandwich_laws_on_grid(self, h):
        fam = GFamily(h=h)
        z = np.linspace(-10, 10, 20001)
        assert (fam.g(1, z) <= np.minimum(z, 1.0) + 1e-12).all()
        assert (fam.g(3, z) >= np.minimum(z, 1.0) - 1e-12).all()
        assert (fam.g(4, z) <= np.maximum(z, 0.0) + 1e-12).all()
        assert (fam.g(2, z) >= np.maximum(z, 0.0) - 1e-12).all()
        for i in (1, 2, 3, 4):
            err = np.abs(fam.g(i, z) - fam.limit(i, z))
            assert err.max() <= h * LOG2 + 1e-12

    def test_tiny_h_does_not_overflow(self):
        fam = GFamily(h=1e-9)
        z = np.array([-1e6, -1.0, 0.0, 1.0, 1e6])
        assert np.isfinite(fam.g(2, z)).all()
        np.testing.assert_allclose(fam.g(2, z), np.maximum(z, 0.0), atol=1e-8)


class TestGDerivative:
    def test_known_points(self):
        fam = GFamily(h=0.1)
        assert fam.g_prime(2, 0.0) == pytest.approx(0.5)
        assert fam.g_prime(1, 1.0) == pytest.approx(0.5)

    def test_limits_and_sign(self):
        fam = GFamily(h=0.05)
        assert fam.g_prime(1, -50.0) == pytest.approx(1.0)
        assert fam.g_prime(1, 50.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("h", [0.01, 0.05, 0.5, 5.0])
    def test_matches_central_differences(self, i, h):
        fam = GFamily(h=h)
        z = np.linspace(-3.0, 3.0, 41)
        step = 1e-5 * np.maximum(1.0, np.abs(z))
        fd = (fam.g(i, z + step) - fam.g(i, z - step)) / (2 * step)
        np.testing.assert_allclose(fam.g_prime(i, z), fd, rtol=1e-6, atol=1e-6)
        assert (fam.g_prime(i, z) >= 0).all() and (fam.g_prime(i, z) <= 1).all()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-10, 10), st.sampled_from([0.01, 0.1, 1.0]))
    def test_derivative_bounded(self, z, h):
        fam = GFamily(h=h)
        for i in range(1, 7):
            assert 0.0 <= float(fam.g_prime(i, z)) <= 1.0


def _oracle(shares=(0.5, 0.0, 0.5), n=4000, seed=5):
    config = sb.DgpConfig(n=n, shares=shares, replications=1, base_seed=seed)
    table = sb.dgp_sample(config, 0)
    bundle = sb.oracle_nuisances(config)(table)
    return config, table, bundle


class TestSmoothBounds:
    def test_sharp_limit_matches_conditional(self):
        config, table, bundle = _oracle()
        fam = GFamily(h=1e-9)
        smooth = sb.smooth_conditional_bound(bundle, Side.L, fam)
        support = sb.oracle_support(config, table)
        sharp = sb.conditional_sharp_bound(bundle, sb.StratumSpec("at", "l"), support)
        np.testing.assert_allclose(smooth, sharp, atol=1e-6)

    def test_trim_depth_at_indifference(self):
        fam = GFamily(h=0.05)
        assert float(fam.g(1, 1.0)) == pytest.approx(1.0 - 0.05 * LOG2)

    def test_conditional_ordering(self):
        config, table, bundle = _oracle()
        fam = GFamily(h=0.05)
        support = sb.oracle_support(config, table)
        smooth = sb.smooth_conditional_bound(bundle, Side.L, fam)
        sharp = sb.conditional_sharp_bound(bundle, sb.StratumSpec("at", "l"), support)
        assert (smooth <= sharp + 1e-10).all()

    def test_degenerate_trim_raises(self):
        _, table, bundle = _oracle(n=500)
        with pytest.raises(DegenerateTrimError):
            sb.smooth_conditional_bound(bundle, Side.L, GFamily(h=50.0))

    def test_constant_nuisance_hand_expansion(self):
        # constant conditional bound c > 0, indifferent selection, share s
        c, s, h = 0.8, 0.6, 0.07
        n = 4
        table = sb.ObservationTable(y=np.full(n, 1.0), s=np.ones(n, int),
                                    d=np.array([0, 1, 0, 1]),
                                    x=np.zeros((n, 1)), weight=np.ones(n))
        bundle = sb.NuisanceBundle(
            np.full(n, 0.5), np.full(n, s), np.full(n, s),
            lambda r, j, d, u: (np.zeros(len(r)), np.full(
                len(r), c if (j, d) == (1, 1) else 0.0)),
            provenance="oracle")
        fam = GFamily(h=h)
        got = sb.smooth_unconditional_bound(table, bundle, Side.L, fam)
        g = fam.g
        want = (float(g(4, c)) * float(g(1, 1.0)) * s) / (float(g(3, 1.0)) * s) \
            - (float(g(2, -c)) * float(g(3, 1.0)) * s) / (float(g(1, 1.0)) * s)
        assert got == pytest.approx(want, rel=1e-12)

    def test_unconditional_limit_and_outer_region(self):
        config, table, bundle = _oracle()
        support = sb.oracle_support(config, table)
        spec_l = sb.StratumSpec("at", "l")
        spec_u = sb.StratumSpec("at", "u")
        sharp_l = sb.unconditional_sharp_bound(table, bundle, spec_l, support)
        sharp_u = sb.unconditional_sharp_bound(table, bundle, spec_u, support)
        tiny = GFamily(h=1e-9)
        assert sb.smooth_unconditional_bound(table, bundle, Side.L, tiny) \
            == pytest.approx(sharp_l, abs=1e-6)
        for h in (0.5, 0.1, 0.05, 0.01):
            fam = GFamily(h=h)
            lo = sb.smooth_unconditional_bound(table, bundle, Side.L, fam)
            hi = sb.smooth_unconditional_bound(table, bundle, Side.U, fam)
            assert lo <= sharp_l + 1e-10
            assert hi >= sharp_u - 1e-10

    def test_population_outer_region_on_design(self):
        design = sb.BenchmarkDesign(sb.DgpConfig(shares=(0.5, 0.0, 0.5)))
        sharp_l = design.sharp_bound("l")
        sharp_u = design.sharp_bound("u")
        for h in (0.5, 0.1, 0.05, 0.01):
            assert design.smooth_bound("l", h) <= sharp_l + 1e-9
            assert design.smooth_bound("u", h) >= sharp_u - 1e-9

    def test_widening_in_h(self):
        design = sb.BenchmarkDesign(sb.DgpConfig(shares=(0.5, 0.0, 0.5)))
        hs = [0.01, 0.05, 0.1, 0.5]
        lows = [design.smooth_bound("l", h) for h in hs]
        highs = [design.smooth_bound("u", h) for h in hs]
        assert all(a >= b - 1e-12 for a, b in zip(lows, lows[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(highs, highs[1:]))


class TestApproximationErrorCurve:
    def test_decay_and_monotonicity(self):
        design = sb.BenchmarkDesign(sb.DgpConfig(shares=(0.5, 0.0, 0.5)))
        curve = dict(sb.approximation_error_curve(design, "l",
                                                  [0.1, 0.05, 1e-9]))
        ratio = curve[0.05] / curve[0.1]
        assert 0.3 <= ratio <= 0.7
        assert curve[1e-9] < 1e-6
        assert curve[1e-9] <= curve[0.05] <= curve[0.1]
