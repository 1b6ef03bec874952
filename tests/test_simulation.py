import hashlib

import numpy as np
import pytest
from scipy.special import ndtr

import strata_bounds as sb
from strata_bounds.simulation import (METHODS, _mix_ppf, _mix_tail,
                                      _replication_worker, dgp_sample,
                                      oracle_target, run_experiment,
                                      write_metrics_csv, write_power_csv)

from helpers import (QuadratureDesign, quadrature_efficiency_bound,
                     quadrature_efficiency_gap)


class TestDgpConfig:
    def test_share_validation(self):
        with pytest.raises(ValueError):
            sb.DgpConfig(shares=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            sb.DgpConfig(shares=(0.5, -0.1, 0.6))
        with pytest.raises(ValueError):
            sb.DgpConfig(gamma=0.0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_sample_size_validation(self, n):
        # -5 used to fail in numpy's sampler, 0 after the oracle target
        with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
            sb.DgpConfig(n=n)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_replications_validation(self, reps):
        with pytest.raises(ValueError, match="replications must be at least 1"):
            sb.DgpConfig(replications=reps)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.1, float("nan")])
    def test_alpha_validation(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            sb.DgpConfig(alpha=alpha)

    @pytest.mark.parametrize("args,message", [
        (("bogus", "bogus"), "unknown method 'bogus'"),
        (("smooth_known", "smooth", "known_ps", 0.05),
         "smoothed moments use the efficient family"),
        (("s", "smooth"), "h must be positive and finite, got None"),
        (("s", "smooth", "efficient", 0.0), "positive and finite, got 0.0"),
        (("s", "smooth", "efficient", float("nan")),
         "positive and finite, got nan"),
        (("s", "smooth", "efficient", float("inf")),
         "positive and finite, got inf"),
        (("t", "trim", "efficient", None, "bogus"),
         "unknown trim variant 'bogus'"),
        (("k", "switch", "known"), "unknown moments 'known'"),
    ], ids=["unknown_method", "smooth_known_ps", "smooth_without_h",
            "smooth_h_zero", "smooth_h_nan", "smooth_h_inf", "bad_variant",
            "bad_moments"])
    def test_bad_roster_entry_fails_where_it_is_built(self, args, message):
        with pytest.raises(ValueError, match=message):
            sb.EstimatorSpec(*args)

    def test_every_method_runs_in_the_roster(self):
        # each entry's record is its estimator's on the replication's draw
        roster = tuple(sb.EstimatorSpec(m, m, h=0.05) for m in METHODS)
        config = sb.DgpConfig(n=300, shares=sb.PANEL_SHARES["b"],
                              replications=1, base_seed=4, estimators=roster)
        table = dgp_sample(config, 0)
        bundle = sb.oracle_nuisances(config)(table)
        support = sb.oracle_support(config, table)
        cfg = sb.EstimationConfig()
        want = {
            "sharp": sb.estimate_sharp(table, bundle, cfg, support),
            "trim": sb.estimate_trim(table, bundle, cfg, support=support),
            "switch": sb.estimate_switch(table, bundle, cfg, support=support),
            "smooth": sb.estimate_smooth(table, bundle, sb.GFamily(h=0.05), cfg),
            "inefficient": sb.estimate_inefficient(table, bundle, cfg, support),
        }
        assert _replication_worker(config, 0) == {
            m: (est.lower, est.upper, est.se_lower, est.se_upper,
                est.ci_effect[0]) for m, est in want.items()}

    def test_separation_flag(self):
        assert sb.DgpConfig(gamma=1.0).separated
        assert not sb.DgpConfig(gamma=0.5).separated


class TestSampler:
    def test_zero_probability_category_never_drawn(self):
        config = sb.DgpConfig(n=5000, shares=(0.5, 0.0, 0.5), replications=1)
        t = dgp_sample(config, 0)
        assert not (t.x[:, 0] == 0.0).any()

    def test_selection_monotone_on_positive_category(self):
        # within one draw, treated-arm selection dominates control-arm
        # selection pointwise when the shift covariate is positive
        config = sb.DgpConfig(n=20_000, shares=(1.0, 0.0, 0.0), replications=1)
        t = dgp_sample(config, 1)
        b = sb.oracle_nuisances(config)(t)
        assert (b.s1 >= b.s0).all()

    def test_empirical_selection_matches_oracle(self):
        config = sb.DgpConfig(n=1_000_000, shares=(0.0, 1.0, 0.0),
                              replications=1, base_seed=5)
        t = dgp_sample(config, 0)
        ctrl = t.d == 0
        edges = np.array([-1.5, -0.5, 0.5, 1.5])
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = ctrl & (t.x[:, 1] >= lo) & (t.x[:, 1] < hi)
            n = int(mask.sum())
            rate = float(t.s[mask].mean())
            center = float(np.mean(ndtr(t.x[mask, 1])))
            se = np.sqrt(center * (1 - center) / n)
            assert abs(rate - center) <= 3.5 * se

    def test_streams_differ_by_rep_and_agree_by_seed(self):
        config = sb.DgpConfig(n=100, shares=(0.5, 0.0, 0.5), replications=2)
        a0 = dgp_sample(config, 0)
        a0b = dgp_sample(config, 0)
        a1 = dgp_sample(config, 1)
        np.testing.assert_array_equal(a0.x, a0b.x)
        assert (a0.x != a1.x).any()

    def test_outcome_rules(self):
        config = sb.DgpConfig(n=50_000, shares=(1 / 3, 1 / 3, 1 / 3),
                              replications=1, gamma=1.0)
        t = dgp_sample(config, 2)
        sel_treated = (t.s == 1) & (t.d == 1)
        off_effect = sel_treated & (t.x[:, 0] != 1.0)
        assert (t.y[off_effect] == 0.0).all()
        on_effect = sel_treated & (t.x[:, 0] == 1.0)
        assert t.y[on_effect].min() >= 0.0
        assert t.y[on_effect].max() <= 2.0
        assert np.isnan(t.y[t.s == 0]).all()


class TestMixture:
    def test_quantile_inverts_cdf(self):
        for gamma in (1.0, 1.7, 0.6):
            p0 = np.array([0.3, 0.6, 0.95])
            u = np.array([0.1, 0.5, 0.97])
            q = _mix_ppf(p0, gamma, u)
            cdf = p0 * np.clip(q, 0, 1) + (1 - p0) * np.clip(q - gamma, 0, 1)
            np.testing.assert_allclose(cdf, u, atol=1e-12)

    def test_tail_means_consistent(self):
        p0, gamma = np.array([0.55]), 1.0
        u = np.array([0.4])
        q, below = _mix_tail(p0, gamma, 1, u)
        q_above, above = _mix_tail(p0, gamma, 0, u)
        np.testing.assert_array_equal(q, _mix_ppf(p0, gamma, u))
        np.testing.assert_array_equal(q_above, q)
        mean = p0 * 0.5 + (1 - p0) * 1.5
        np.testing.assert_allclose(u * below + (1 - u) * above, mean, rtol=1e-12)


class TestOracleTarget:
    def test_degenerate_share_vectors(self):
        assert oracle_target(sb.DgpConfig(shares=(1.0, 0.0, 0.0))).target \
            == pytest.approx(0.5, abs=1e-10)
        assert oracle_target(sb.DgpConfig(shares=(0.0, 1.0, 0.0))).target \
            == pytest.approx(0.0, abs=1e-12)

    def test_target_equals_lower_bound_under_separation(self):
        tgt = oracle_target(sb.DgpConfig(shares=(0.5, 0.0, 0.5), gamma=1.0))
        assert tgt.separated
        assert tgt.target == pytest.approx(tgt.lower, abs=1e-9)

    def test_partial_overlap_bound_below_target(self):
        tgt = oracle_target(sb.DgpConfig(shares=(0.5, 0.0, 0.5), gamma=0.5))
        assert not tgt.separated
        assert tgt.lower < tgt.target

    def test_quadrature_matches_monte_carlo(self):
        config = sb.DgpConfig(n=10_000_000, shares=(0.5, 0.0, 0.5),
                              replications=1, base_seed=123)
        tgt = oracle_target(config)
        t = dgp_sample(config, 0)
        x1, x2 = t.x[:, 0], t.x[:, 1]
        s0 = ndtr(x2)
        s1 = ndtr(x1 + x2)
        w = np.minimum(s0, s1)
        mc = float(np.sum(0.5 * (x1 == 1) * w) / np.sum(w))
        se = float(np.std(0.5 * (x1 == 1) * w - mc * w) / np.sqrt(t.n)
                   / np.mean(w))
        assert abs(mc - tgt.target) <= 3 * se


#: (gamma, panel): the sharp targets have two kinks in x2 for gamma < 1 and
#: one for gamma >= 1; every panel puts mass on the positive-monotone category
REFERENCE_CASES = [(0.5, "b"), (1.0, "a"), (2.0, "c")]
REFERENCE_TOL = 1e-11


@pytest.mark.parametrize("gamma,panel", REFERENCE_CASES,
                         ids=[f"gamma{g:g}-{p}" for g, p in REFERENCE_CASES])
class TestTargetsMatchQuadratureReference:
    """The atom plug-ins against adaptive quadrature of per-point closures."""

    @staticmethod
    def _designs(gamma, panel):
        config = sb.DgpConfig(shares=sb.PANEL_SHARES[panel], gamma=gamma)
        return sb.BenchmarkDesign(config), QuadratureDesign(config)

    def test_sharp_bounds(self, gamma, panel):
        atoms, ref = self._designs(gamma, panel)
        for stratum in ("at", "c", "em"):
            for side in ("l", "u"):
                for dominance in (False, True):
                    assert atoms.sharp_bound(side, stratum, dominance) \
                        == pytest.approx(ref.sharp_bound(side, stratum, dominance),
                                         abs=REFERENCE_TOL), (stratum, side, dominance)

    # h = 0.5 drives g1(p0) below 0 on the x1 = 1 atoms: the clip-edge kink
    @pytest.mark.parametrize("h", [0.5, 0.05])
    def test_smooth_components(self, gamma, panel, h):
        atoms, ref = self._designs(gamma, panel)
        for side in ("l", "u"):
            assert atoms.smooth_component_targets(side, h) == pytest.approx(
                ref.smooth_component_targets(side, h), abs=REFERENCE_TOL)

    def test_efficiency_functionals(self, gamma, panel):
        atoms, ref = self._designs(gamma, panel)
        assert sb.efficiency_bound(atoms) == pytest.approx(
            quadrature_efficiency_bound(ref), abs=REFERENCE_TOL)
        assert sb.efficiency_gap(atoms) == pytest.approx(
            quadrature_efficiency_gap(ref), abs=REFERENCE_TOL)


class TestSingleIndex:
    def test_sampler_and_oracle_agree(self):
        config = sb.DgpConfig(dgp_id="single_index", n=400_000, replications=1,
                              base_seed=9)
        t = dgp_sample(config, 0)
        b = sb.oracle_nuisances(config)(t)
        for d in (0, 1):
            for lvl in (-1.0, 0.0, 1.0):
                mask = (t.d == d) & (t.x[:, 1] == lvl)
                rate = float(t.s[mask].mean())
                pred = float(np.mean((b.s1 if d else b.s0)[mask]))
                n = int(mask.sum())
                assert abs(rate - pred) <= 4 * np.sqrt(pred * (1 - pred) / n)

    def test_indifference_mass_at_middle_level(self):
        config = sb.DgpConfig(dgp_id="single_index", n=10_000, replications=1)
        t = dgp_sample(config, 0)
        b = sb.oracle_nuisances(config)(t)
        labels = b.labels()
        mid = t.x[:, 1] == 0.0
        assert (labels[mid] == 0).all()
        assert (labels[t.x[:, 1] == 1.0] == 1).all()
        assert (labels[t.x[:, 1] == -1.0] == -1).all()

    def test_smooth_estimator_runs_on_demo_process(self):
        config = sb.DgpConfig(dgp_id="single_index", n=4000, replications=1)
        t = dgp_sample(config, 0)
        b = sb.oracle_nuisances(config)(t)
        est = sb.estimate_smooth(t, b, sb.GFamily(h=0.05),
                                 sb.EstimationConfig())
        assert np.isfinite(est.lower) and np.isfinite(est.upper)
        assert est.lower <= est.upper


class TestRunExperiment:
    def test_determinism_across_thread_counts(self):
        config = sb.DgpConfig(n=200, shares=(1 / 3, 1 / 3, 1 / 3),
                              replications=24, base_seed=13,
                              h_grid=(0.05, 1e-9))
        serial = run_experiment(config, threads=1)
        parallel = run_experiment(config, threads=4)
        for name in serial.records:
            np.testing.assert_array_equal(serial.records[name],
                                          parallel.records[name])
        assert serial.metrics == parallel.metrics

    def test_failures_recorded_not_dropped(self):
        config = sb.DgpConfig(n=60, shares=(0.02, 0.98, 0.0), replications=12,
                              base_seed=1, h_grid=(0.05,),
                              estimators=(sb.EstimatorSpec(
                                  "trim_known", "trim", "known_ps",
                                  variant="drop"),))
        res = run_experiment(config, threads=1)
        m = res.metrics[0]
        assert m["reps"] + m["failures"] == config.replications
        assert m["failures"] > 0
        assert all(kind in ("AllTrimmedError", "ZeroShareError")
                   for _, kind in res.failures["trim_known"])

    def test_metric_and_power_csv_layout(self, tmp_path):
        config = sb.DgpConfig(n=150, shares=(0.5, 0.0, 0.5), replications=6,
                              base_seed=2, h_grid=(0.05,), power_points=5)
        res = run_experiment(config, threads=1)
        mpath = tmp_path / "metrics.csv"
        ppath = tmp_path / "power.csv"
        write_metrics_csv(res, mpath)
        write_power_csv(res, ppath)
        header = mpath.read_text().splitlines()[0]
        assert header == "panel,method,n,bias,rmse,size,reps,failures"
        lines = ppath.read_text().splitlines()
        assert lines[0] == "panel,method,n,hypothesis,rejection_rate"
        assert len(lines) == 1 + 5 * len(config.estimators)

    def test_metric_and_power_csv_bytes_are_pinned(self, tmp_path):
        # digests of the files written before `write_csv` existed
        config = sb.DgpConfig(n=150, shares=(0.5, 0.0, 0.5), replications=6,
                              base_seed=2, h_grid=(0.05,), power_points=5)
        res = run_experiment(config, threads=1)
        write_metrics_csv(res, str(tmp_path / "metrics.csv"))
        write_power_csv([res], tmp_path / "power.csv")
        assert [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("metrics.csv", "power.csv")] == [
            "af7e47ec5752f56c8d2bfc0f6c4ab4cd2a3ec40ccf7f71b43137450515faf461",
            "9cffbee1f7c4ccd2f44a4fdcb356a2dea5dc14756bb949f4bfcd7282b43b695b"]

    def test_power_grid_anchored_at_target(self):
        config = sb.DgpConfig(n=150, shares=(0.5, 0.0, 0.5), replications=6,
                              base_seed=2, h_grid=(1e-9,), power_points=5)
        res = run_experiment(config, threads=1)
        hyps = sorted({p["hypothesis"] for p in res.power})
        assert hyps[-1] == pytest.approx(res.target.lower)
        # rejection rates rise as the hypothesized value falls
        for name in res.records:
            series = [p["rejection_rate"] for p in res.power
                      if p["method"] == name]
            assert series == sorted(series, reverse=True)
