import contextlib
import csv
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import strata_bounds as sb
from strata_bounds import nuisance
from strata_bounds.cli import main
from strata_bounds.data_model import XMINUS, XPLUS, XZERO, partition_labels
from helpers import reference_from_csv
from test_shared_pieces import CLI_FLAGS, _crossfit_draw


def column_bytes(table):
    return [(col.dtype.str, col.shape, col.tobytes())
            for col in (table.y, table.s, table.d, table.x, table.weight)]


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


def zero_tail(rows, j, d, u):
    return np.zeros(len(rows)), np.zeros(len(rows))


class TestNuisanceBundle:
    def test_clamping_respects_floors(self):
        n = 50
        m = np.linspace(-0.2, 1.2, n)
        s = np.linspace(0.001, 0.999, n)
        b = sb.NuisanceBundle(m, s, s[::-1], zero_tail, provenance="cross_fitted")
        assert b.m.min() >= 0.01 and b.m.max() <= 0.99
        assert b.s0.min() >= 0.01 and b.s1.max() <= 0.99
        assert b.n_clamped > 0

    def test_oracle_floor_is_effectively_off(self):
        s = np.array([1e-6, 0.5, 1 - 1e-6])
        b = sb.NuisanceBundle(np.full(3, 0.5), s, s, zero_tail,
                              provenance="oracle")
        assert np.allclose(b.s0, s)

    def test_default_eps0_by_provenance(self):
        args = (np.full(3, 0.5), np.full(3, 0.5), np.full(3, 0.5), zero_tail)
        assert sb.NuisanceBundle(*args, provenance="oracle").default_eps0() == 0.0
        assert sb.NuisanceBundle(*args, provenance="cross_fitted").default_eps0() > 0

    def test_group_clamp_counts_are_the_groups_own(self, tmp_path,
                                                     monkeypatch):
        table, _, _ = _crossfit_draw()
        path = tmp_path / "d.csv"
        table.to_csv(str(path))
        fitted = []   # (m, s0, s1) as the cross-fit hands them over

        class Recording(sb.NuisanceBundle):
            def __init__(self, m, s0, s1, *args, **kwargs):
                fitted.append((m, s0, s1))
                super().__init__(m, s0, s1, *args, **kwargs)

        monkeypatch.setattr(nuisance, "NuisanceBundle", Recording)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["estimate", str(path), "--method", "sharp",
                         "--group-col", "x1", *CLI_FLAGS]) == 0
        full, *groups = json.loads(out.getvalue())
        (m, s0, s1), = fitted
        values = np.unique(table.x[:, 0])
        assert [rec["group"] for rec in groups] == list(values)
        counts = [rec["diagnostics"]["n_clamped"] for rec in groups]
        assert full["diagnostics"]["n_clamped"] == sum(counts) > max(counts)
        for count, g in zip(counts, values):
            rows = table.x[:, 0] == g
            alone = sb.NuisanceBundle(m[rows], s0[rows], s1[rows], zero_tail,
                                      provenance="cross_fitted")
            assert count == alone.n_clamped

    @pytest.mark.parametrize("column", ["m", "s0", "s1"])
    def test_non_finite_probability_raises(self, column):
        cols = {"m": np.full(4, 0.5), "s0": np.full(4, 0.4), "s1": np.full(4, 0.6)}
        cols[column][2] = np.nan
        with pytest.raises(ValueError, match=f"nuisance {column} .* row 2"):
            sb.NuisanceBundle(cols["m"], cols["s0"], cols["s1"], zero_tail)


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
        assert column_bytes(back) == column_bytes(t)

    # the bytes the package wrote before `write_csv` existed
    PINNED = ("y,s,d,weight,x1,x2\n"
              "-0.0,1,0,1.0,5e-324,-inf\n"
              ",1,1,0.5,nan,1e+308\n"
              "5e-324,1,0,nan,-0.0,0.1\n"
              "1e+308,1,1,inf,0.3333333333333333,-2.0\n"
              "inf,1,0,5e-324,inf,0.0\n"
              ",0,1,2.0,1e-300,7.0\n")

    @pytest.mark.parametrize("target", ["str", "path", "buffer"])
    def test_to_csv_bytes_are_pinned(self, tmp_path, target):
        # a missing y, an unselected row's y, signed zeros, the subnormal
        # and near-overflow ends, infinities and NaNs
        t = sb.ObservationTable(
            y=[-0.0, np.nan, 5e-324, 1e308, np.inf, 2.5], s=[1, 1, 1, 1, 1, 0],
            d=[0, 1, 0, 1, 0, 1],
            x=[[5e-324, -np.inf], [np.nan, 1e308], [-0.0, 0.1],
               [1 / 3, -2.0], [np.inf, 0.0], [1e-300, 7.0]],
            weight=[1.0, 0.5, np.nan, np.inf, 5e-324, 2.0])
        path = tmp_path / "t.csv"
        if target == "buffer":
            buf = io.StringIO()
            t.to_csv(buf)
            assert not buf.closed
            assert buf.getvalue() == self.PINNED
            return
        t.to_csv(str(path) if target == "str" else path)
        assert path.read_bytes() == self.PINNED.encode()
        again = io.StringIO()
        sb.ObservationTable.from_csv(path).to_csv(again)
        assert again.getvalue() == self.PINNED

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

    @pytest.mark.parametrize("header, message", [
        ("y,s,d,weight,x1,x3", "covariate column 'x3' is not one of x1..x2"),
        ("y,s,d,weight,x1,x1", "duplicate column 'x1'"),
        ("y,s,d,weight,x01", "covariate column 'x01' is not one of x1..x1"),
        ("y,s,d,weight,x2,x0", "covariate column 'x0' is not one of x1..x2"),
        ("y,s,d,y,x1,x2", "duplicate column 'y'"),
    ], ids=["gap", "duplicate", "leading_zero", "x0", "duplicate_y"])
    def test_header_names_each_column_once_and_covariates_x1_to_xp(
            self, header, message):
        body = "1,1,1,1.0" + ",0.5" * (header.count(",") - 3) + "\n"
        with pytest.raises(ValueError, match=re.escape(message)):
            sb.ObservationTable.from_csv(io.StringIO(header + "\n" + body))

    def test_empty_file(self):
        with pytest.raises(ValueError, match="data file is empty"):
            sb.ObservationTable.from_csv(io.StringIO(""))

    def test_named_weights_column_must_exist(self, tmp_path, capsys):
        data = "y,s,d,weight,x1\n1,1,1,2.0,0.3\n"
        with pytest.raises(ValueError, match="missing weights column 'wgt'"):
            sb.ObservationTable.from_csv(io.StringIO(data), weights_col="wgt")
        t = sb.ObservationTable.from_csv(io.StringIO(data), weights_col="x1")
        assert t.weight.tolist() == [0.3]
        # the default column stays optional
        t = sb.ObservationTable.from_csv(io.StringIO("y,s,d,x1\n1,1,1,0.3\n"))
        assert t.weight.tolist() == [1.0]
        table, _, _ = _crossfit_draw()
        path = tmp_path / "d.csv"
        table.to_csv(str(path))
        assert main(["estimate", str(path), "--weights-col", "wgt",
                     *CLI_FLAGS]) == 2
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
            "error": "InvalidData", "message": "missing weights column 'wgt'"}

    def test_header_only_file_has_no_data_rows(self, tmp_path, capsys,
                                               recwarn):
        path = tmp_path / "d.csv"
        path.write_text("y,s,d,weight,x1\n")
        with pytest.raises(ValueError, match="^data file has no data rows$"):
            sb.ObservationTable.from_csv(str(path))
        assert main(["estimate", str(path), *CLI_FLAGS]) == 2
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
            "error": "InvalidData", "message": "data file has no data rows"}
        assert not recwarn.list

    def test_reads_what_it_read_before(self):
        # empty and NA outcomes, an empty weight, quoted and padded fields
        data = ('y,s,d,weight,x2,x1\n,0,1,,0.5,1\nNA,0,0,2, 1e-3 ,-2\n'
                '"3.5",1,1,0.25,-0.0,7\n')
        t = sb.ObservationTable.from_csv(io.StringIO(data))
        assert np.isnan(t.y[:2]).all() and t.y[2] == 3.5
        assert t.weight.tolist() == [1.0, 2.0, 0.25]
        assert t.x.tolist() == [[1.0, 0.5], [-2.0, 1e-3], [7.0, -0.0]]
        assert t.s.tolist() == [0, 0, 1] and t.d.tolist() == [1, 0, 1]


# fields that numpy's parser and ``float``/``int`` may read differently:
# quotes, padding, underscores, signs, overflow, NaN signs and infinities
_FIELDS = {
    "y": ["", "NA", " NA ", " ", "1.5", " 2 ", '"3.5"', "-nan", "nan", "inf",
          "-inf", "1_000", "+1", "abc", "1e999", "-0.0", '""'],
    "s": ["0", "1", "+1", " 1 ", "1.0", "300", "-1", "1_0", "", '"1"', "x",
          "-0"],
    "weight": ["1.0", "", " ", "2", "0", "-nan", "inf", "1_000", '"2"', "abc",
               " 0.5 ", "+3"],
    "x": ["0.5", "-1e-3", " 7 ", "-nan", "inf", "1_000", "", '"1"', "abc",
          "-0.0", "+2", "1e999", ' "1"', "1 2"],
}


@st.composite
def csv_files(draw):
    """A data CSV text that is usually valid, with fields drawn from
    ``_FIELDS`` (mostly their first, plain entries), columns in any order,
    sometimes no weight column or an extra one, and sometimes a blank
    line, a ragged row or CRLF/CR line endings."""
    p = draw(st.integers(0, 2))
    names = ["y", "s", "d"] + [f"x{k + 1}" for k in range(p)]
    if draw(st.booleans()):
        names.append("weight")
    if draw(st.integers(0, 4)) == 0:
        names.append("id")
    names = draw(st.permutations(names))
    plain = st.integers(0, 5).map(lambda k: max(k - 3, 0))

    def field(name):
        kind = "s" if name in ("s", "d") else "x" if name[0] == "x" else name
        pool = _FIELDS.get(kind, ["7", "-1.5", "a"])
        if draw(st.integers(0, 5)):
            return pool[draw(plain)]
        return draw(st.sampled_from(pool))

    rows = [[field(name) for name in names]
            for _ in range(draw(st.integers(0, 6)))]
    lines = [",".join(names)] + [",".join(row) for row in rows]
    if rows and draw(st.integers(0, 5)) == 0:
        k = draw(st.integers(1, len(rows)))
        lines[k] = draw(st.sampled_from(["", " ", lines[k] + ",1",
                                         lines[k].rpartition(",")[0]]))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text, draw(st.sampled_from([None, "weight"]))


def read_columns(reader, source, weights_col):
    """The bytes and dtypes of the columns a reader returns, or the type
    and message of what it raises."""
    try:
        out = reader(source, weights_col=weights_col)
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    if isinstance(out, sb.ObservationTable):
        out = (out.y, out.s, out.d, out.x, out.weight)
    return [(col.dtype.str, col.shape, col.tobytes()) for col in out]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "d.csv"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=csv_files())
def test_bulk_reader_parity_with_the_row_loop(csv_path, case):
    text, weights_col = case
    path = csv_path
    path.write_bytes(text.encode())
    for source in (lambda: str(path), lambda: io.StringIO(text, newline=""),
                   lambda: io.StringIO(text)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read_columns(sb.ObservationTable.from_csv, source(),
                               weights_col)
        assert got == read_columns(reference_from_csv, source(), weights_col)


#: values a random draw seldom reaches: signed zeros, the subnormal and
#: overflow ends and infinities
_EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      1e308, -1.7976931348623157e308, np.inf, -np.inf])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.integers(1, 600), p=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_csv_round_trip_is_byte_exact(n, p, seed):
    """``to_csv`` then ``from_csv`` gives back the table's bytes, and
    writing it again gives back the text, for missing outcomes and
    magnitudes across the float range."""
    rng = np.random.default_rng(seed)

    def values(*shape):
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-330, 300, shape)
        return np.where(rng.random(shape) < 0.1, rng.choice(_EXTREMES, shape), v)

    s = rng.integers(0, 2, n)
    y = np.where((s == 1) & (rng.random(n) < 0.9), values(n), np.nan)
    table = sb.ObservationTable(y, s, rng.integers(0, 2, n), values(n, p),
                                values(n))
    text = io.StringIO()
    table.to_csv(text)
    back = sb.ObservationTable.from_csv(io.StringIO(text.getvalue()))
    assert column_bytes(back) == column_bytes(table)
    again = io.StringIO()
    back.to_csv(again)
    assert again.getvalue() == text.getvalue()
