import io
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import strata_bounds as sb
from strata_bounds.data_model import XMINUS, XPLUS, XZERO, partition_labels


def make_table(n=12, seed=0, all_selected=False):
    rng = np.random.default_rng(seed)
    s = np.ones(n, dtype=int) if all_selected else (rng.random(n) < 0.7).astype(int)
    d = (rng.random(n) < 0.5).astype(int)
    y = np.where(s == 1, rng.normal(size=n), np.nan)
    x = rng.normal(size=(n, 2))
    return sb.ObservationTable(y=y, s=s, d=d, x=x, weight=np.ones(n))


class TestObservationTable:
    def test_covariates_laid_out_by_column_are_rejected(self):
        # x must be (n, p); a (p, n) array is not transposed behind the caller
        t = make_table()
        with pytest.raises(ValueError, match="column lengths differ"):
            sb.ObservationTable(t.y, t.s, t.d, t.x.T, t.weight)


class TestValidate:
    def test_fully_selected_sample_passes(self):
        report = sb.validate(make_table(all_selected=True))
        assert report.ok

    def test_missing_outcome_under_selection_fails(self):
        t = make_table(all_selected=True)
        y = t.y.copy()
        y[3] = np.nan
        bad = sb.ObservationTable(y=y, s=t.s, d=t.d, x=t.x, weight=t.weight)
        report = sb.validate(bad)
        assert not report.ok
        assert "outcome missing under selection" in report.failures

    def test_dgp_draw_passes(self):
        config = sb.DgpConfig(n=400, shares=(0.5, 0.0, 0.5), replications=1)
        assert sb.validate(sb.dgp_sample(config, 0)).ok

    def test_negative_weights_and_nonbinary_flags(self):
        t = make_table(all_selected=True)
        w = t.weight.copy()
        w[0] = -1.0
        report = sb.validate(sb.ObservationTable(t.y, t.s, t.d, t.x, w))
        assert "nonnegative weights" in report.failures
        d = t.d.astype(int).copy()
        d[0] = 2
        report = sb.validate(sb.ObservationTable(t.y, t.s, d, t.x, t.weight))
        assert "treatment binary" in report.failures

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_covariate_fails(self, value):
        t = make_table(all_selected=True)
        x = t.x.copy()
        x[2, 1] = value
        report = sb.validate(sb.ObservationTable(t.y, t.s, t.d, x, t.weight))
        assert report.failures == ("finite covariates",)

    def test_nan_weight_is_named(self):
        t = make_table(all_selected=True)
        w = t.weight.copy()
        w[4] = np.nan
        report = sb.validate(sb.ObservationTable(t.y, t.s, t.d, t.x, w))
        assert report.failures == ("finite weights",)


class TestClassifyPartition:
    """Partition classification through ``partition_labels``."""

    def test_exact_equality_is_indifferent(self):
        assert partition_labels([0.5], [0.5], 0.0)[0] == XZERO

    def test_benchmark_point_is_positive(self):
        from scipy.special import ndtr
        assert partition_labels([ndtr(0.3)], [ndtr(1.3)], 1e-12)[0] == XPLUS

    def test_within_tolerance_is_indifferent(self):
        assert partition_labels([0.6], [0.5999999], 1e-6)[0] == XZERO

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99),
           st.floats(0.0, 0.1), st.sampled_from((0.25, 0.5, 2.0, 4.0)))
    def test_scale_consistency(self, s0, s1, eps0, scale):
        # the label depends only on sign(s1 - s0) relative to eps0; a
        # power-of-two rescaling of all three is exact, so it keeps the label
        label = partition_labels([s0], [s1], eps0)[0]
        if abs(s1 - s0) <= eps0:
            assert label == XZERO
        elif s1 > s0:
            assert label == XPLUS
        else:
            assert label == XMINUS
        assert partition_labels([scale * s0], [scale * s1], scale * eps0)[0] == label

    def test_labels_partition_the_sample(self):
        rng = np.random.default_rng(1)
        s0 = rng.uniform(0.1, 0.9, size=500)
        s1 = rng.uniform(0.1, 0.9, size=500)
        s1[:100] = s0[:100]
        labels = partition_labels(s0, s1, 0.0)
        counts = [(labels == v).sum() for v in (XMINUS, XZERO, XPLUS)]
        assert sum(counts) == 500
        assert counts[1] >= 100


class TestNuisanceBundle:
    def test_clamping_respects_floors(self):
        n = 50
        m = np.linspace(-0.2, 1.2, n)
        s = np.linspace(0.001, 0.999, n)
        b = sb.NuisanceBundle(m, s, s[::-1], lambda r, d, u: np.zeros(len(r)),
                              lambda r, j, d, u: np.zeros(len(r)),
                              provenance="cross_fitted")
        assert b.m.min() >= 0.01 and b.m.max() <= 0.99
        assert b.s0.min() >= 0.01 and b.s1.max() <= 0.99
        assert b.n_clamped > 0

    def test_oracle_floor_is_effectively_off(self):
        s = np.array([1e-6, 0.5, 1 - 1e-6])
        b = sb.NuisanceBundle(np.full(3, 0.5), s, s,
                              lambda r, d, u: np.zeros(len(r)),
                              lambda r, j, d, u: np.zeros(len(r)),
                              provenance="oracle")
        assert np.allclose(b.s0, s)

    def test_default_eps0_by_provenance(self):
        args = (np.full(3, 0.5), np.full(3, 0.5), np.full(3, 0.5),
                lambda r, d, u: np.zeros(len(r)),
                lambda r, j, d, u: np.zeros(len(r)))
        assert sb.NuisanceBundle(*args, provenance="oracle").default_eps0() == 0.0
        assert sb.NuisanceBundle(*args, provenance="cross_fitted").default_eps0() > 0

    @pytest.mark.parametrize("column", ["m", "s0", "s1"])
    def test_non_finite_probability_raises(self, column):
        cols = {"m": np.full(4, 0.5), "s0": np.full(4, 0.4), "s1": np.full(4, 0.6)}
        cols[column][2] = np.nan
        with pytest.raises(ValueError, match=f"nuisance {column} .* row 2"):
            sb.NuisanceBundle(cols["m"], cols["s0"], cols["s1"],
                              lambda r, d, u: np.zeros(len(r)),
                              lambda r, j, d, u: np.zeros(len(r)))


class TestSentinel:
    def test_unselected_outcome_never_read(self):
        t = make_table()
        filled = t.y_filled
        assert np.isfinite(filled).all()
        assert (filled[t.s == 0] == 0.0).all()


class TestCsv:
    def test_round_trip(self):
        t = make_table(n=9, seed=3)
        buf = io.StringIO()
        t.to_csv(buf)
        buf.seek(0)
        back = sb.ObservationTable.from_csv(buf)
        assert back.n == t.n and back.p == t.p
        sel = t.s == 1
        np.testing.assert_allclose(back.y[sel], t.y[sel])
        assert np.isnan(back.y[~sel]).all()
        np.testing.assert_allclose(back.x, t.x)

    def test_na_token_and_missing_column(self):
        data = "y,s,d,weight,x1\nNA,0,1,1.0,0.3\n2.5,1,0,1.0,-0.1\n"
        t = sb.ObservationTable.from_csv(io.StringIO(data))
        assert np.isnan(t.y[0]) and t.y[1] == 2.5
        with pytest.raises(ValueError):
            sb.ObservationTable.from_csv(io.StringIO("y,s,weight\n1,1,1\n"))

    @pytest.mark.parametrize("body, message", [
        ("1,1,1,1.0,0.3\n\n2.5,1,0,1.0,-0.1\n", "data row 2 is blank"),
        ("1,1,1,1.0,0.3\n2.5,1,0\n", "data row 2 has 3 fields, the header has 5"),
        ("1,1,1,1.0,0.3,7\n", "data row 1 has 6 fields, the header has 5"),
        ("1,1,1,1.0,0.3\n2.5,1,1.0,1.0,-0.1\n",
         "data row 2, column 'd': invalid literal for int()"),
        ("abc,1,1,1.0,0.3\n", "data row 1, column 'y': could not convert"),
        ("1,300,1,1.0,0.3\n", "data row 1, column 's': Python integer 300 out"),
        ("1,1,1,1.0,0.3\n1,1,0,heavy,0.1\n",
         "data row 2, column 'weight': could not convert"),
        ("1,1,1,1.0,0.3\n1,1,0,1.0,0.1\n1,1,0,1.0,x\n",
         "data row 3, column 'x1': could not convert"),
    ], ids=["blank", "short", "long", "d_float", "y_text", "s_overflow",
            "weight_text", "x_text"])
    def test_malformed_row_names_row_and_column(self, body, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sb.ObservationTable.from_csv(io.StringIO("y,s,d,weight,x1\n" + body))

    def test_empty_file(self):
        with pytest.raises(ValueError, match="data file is empty"):
            sb.ObservationTable.from_csv(io.StringIO(""))

    def test_reads_what_it_read_before(self):
        # empty and NA outcomes, an empty weight, quoted and padded fields
        data = ('y,s,d,weight,x2,x1\n,0,1,,0.5,1\nNA,0,0,2, 1e-3 ,-2\n'
                '"3.5",1,1,0.25,-0.0,7\n')
        t = sb.ObservationTable.from_csv(io.StringIO(data))
        assert np.isnan(t.y[:2]).all() and t.y[2] == 3.5
        assert t.weight.tolist() == [1.0, 2.0, 0.25]
        assert t.x.tolist() == [[1.0, 0.5], [-2.0, 1e-3], [7.0, -0.0]]
        assert t.s.tolist() == [0, 0, 1] and t.d.tolist() == [1, 0, 1]
