import io
import logging

import numpy as np
import pytest

import strata_bounds as sb
from helpers import (reference_interp, reference_quantile,
                     reference_read_nuisance_csv, reference_trunc_mean)
from strata_bounds.data_model import ObservationTable
from strata_bounds.errors import EmptyCellError, EmptyTailError, SeparationWarning
from strata_bounds.nuisance import (CellOutcomeSurface, CellSpec, LearnerSpec,
                                    crossfit, fit_selection, fold_assignments,
                                    load_external_nuisances, _CellIndex,
                                    _interp_rows, _read_nuisance_csv,
                                    _weighted_quantile)


def simple_table(n=200, seed=0, p=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    d = (rng.random(n) < 0.5).astype(int)
    s = (rng.random(n) < 1 / (1 + np.exp(-(0.3 + 0.8 * x[:, 0])))).astype(int)
    y = np.where(s == 1, 1.0 + x[:, 0] + rng.normal(size=n), np.nan)
    return ObservationTable(y=y, s=s, d=d, x=x, weight=np.ones(n))


class TestLogistic:
    def test_intercept_only_recovers_weighted_rate(self):
        n = 400
        rng = np.random.default_rng(1)
        s = (rng.random(n) < 0.37).astype(int)
        w = rng.uniform(0.5, 2.0, n)
        t = ObservationTable(y=np.where(s == 1, 1.0, np.nan), s=s,
                             d=np.zeros(n, int), x=np.zeros((n, 1)), weight=w)
        pred = fit_selection(t, 0)(np.zeros((1, 1)))
        rate = np.average(s, weights=w)
        assert pred[0] == pytest.approx(rate, abs=1e-6)

    def test_separation_warning(self):
        n = 100
        x = np.linspace(-1, 1, n)[:, None]
        s = (x[:, 0] > 0).astype(int)
        t = ObservationTable(y=np.where(s == 1, 1.0, np.nan), s=s,
                             d=np.zeros(n, int), x=x, weight=np.ones(n))
        with pytest.warns(SeparationWarning):
            fit_selection(t, 0)


class TestWeightedQuantile:
    def test_left_continuous_convention(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.ones(4)
        assert _weighted_quantile(v, w, [0.5])[0] == 2.0
        assert _weighted_quantile(v, w, [0.51])[0] == 3.0
        assert _weighted_quantile(v, w, [1.0])[0] == 4.0
        assert _weighted_quantile(v, w, [1e-9])[0] == 1.0


def single_cell_table(y_vals, d=1):
    n = len(y_vals)
    return ObservationTable(y=np.asarray(y_vals, float), s=np.ones(n, int),
                            d=np.full(n, d), x=np.zeros((n, 1)),
                            weight=np.ones(n))


class TestCellSurface:
    def test_quantile_and_trunc_mean_conventions(self):
        t = single_cell_table([1.0, 2.0, 3.0, 4.0])
        surf = CellOutcomeSurface(t, CellSpec())
        x = np.zeros((1, 1))
        assert surf.quantile(x, 1, np.array([0.5]))[0] == 2.0
        assert surf.quantile(x, 1, np.array([1.0]))[0] == 4.0
        assert surf.trunc_mean(x, 1, 1, np.array([0.5]))[0] == pytest.approx(1.5)
        assert surf.trunc_mean(x, 1, 1, np.array([1.0]))[0] == pytest.approx(2.5)
        assert surf.trunc_mean(x, 0, 1, np.array([0.0]))[0] == pytest.approx(2.5)
        assert surf.trunc_mean(x, 0, 1, np.array([0.5]))[0] == pytest.approx(3.0)

    def test_full_mean_identity_between_surfaces(self):
        # the lower-truncated mean at level 1 equals the upper-truncated
        # mean at level 0 equals the plain cell mean
        rng = np.random.default_rng(3)
        t = single_cell_table(rng.normal(size=57))
        surf = CellOutcomeSurface(t, CellSpec())
        x = np.zeros((1, 1))
        mean = float(t.y.mean())
        assert surf.trunc_mean(x, 1, 1, np.array([1.0]))[0] == pytest.approx(mean)
        assert surf.trunc_mean(x, 0, 1, np.array([0.0]))[0] == pytest.approx(mean)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(4)
        t = single_cell_table(rng.normal(size=101))
        surf = CellOutcomeSurface(t, CellSpec())
        x = np.zeros((50, 1))
        u = np.linspace(0.01, 1.0, 50)
        q = surf.quantile(x, 1, u)
        assert (np.diff(q) >= 0).all()

    def test_unseen_discrete_level_raises(self):
        n = 40
        x = np.column_stack([np.repeat([0.0, 1.0], n // 2)])
        t = ObservationTable(y=np.arange(n, dtype=float), s=np.ones(n, int),
                             d=np.ones(n, int), x=x, weight=np.ones(n))
        surf = CellOutcomeSurface(t, CellSpec(discrete_cols=(0,)))
        with pytest.raises(EmptyCellError):
            surf.quantile(np.array([[2.0]]), 1, np.array([0.5]))

    def test_binned_continuous_cells(self):
        rng = np.random.default_rng(5)
        n = 400
        x = rng.normal(size=(n, 1))
        y = np.where(x[:, 0] > 0, 10.0, 0.0) + rng.normal(size=n) * 0.01
        t = ObservationTable(y=y, s=np.ones(n, int), d=np.ones(n, int),
                             x=x, weight=np.ones(n))
        surf = CellOutcomeSurface(t, CellSpec(n_bins=2))
        hi = surf.trunc_mean(np.array([[1.5]]), 1, 1, np.array([1.0]))[0]
        lo = surf.trunc_mean(np.array([[-1.5]]), 1, 1, np.array([1.0]))[0]
        assert hi > 5.0 > lo


def outcome(fn, *args):
    """The bytes a call returns, or the type and message of what it raises."""
    try:
        return fn(*args).tobytes()
    except (EmptyCellError, EmptyTailError) as exc:
        return type(exc), str(exc)


def tied_cell_table(seed, n=300):
    """Two arms, a discrete column and a binned one, tied outcomes and mixed
    weights that include zeros."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.integers(0, 3, n), rng.normal(size=n)])
    y = np.round(rng.normal(size=n), 1)
    w = rng.choice([0.0, 0.5, 1.0, 2.5], size=n, p=[0.1, 0.3, 0.4, 0.2])
    return ObservationTable(y=y, s=np.ones(n, int), d=rng.integers(0, 2, n),
                            x=x, weight=w)


EDGE_LEVELS = np.array([0.0, 1.0, 1e-13, 1 - 1e-13, 0.5, 0.25])


class TestVectorizedSurfaces:
    """The cell-grouped evaluation against the per-row reference loops."""

    @pytest.mark.parametrize("seed", range(6))
    def test_byte_identical_to_reference(self, seed):
        t = tied_cell_table(seed)
        surf = CellOutcomeSurface(t, CellSpec(discrete_cols=(0,), n_bins=3))
        rng = np.random.default_rng(100 + seed)
        x = t.x[rng.integers(0, t.n, 250)]
        u = np.concatenate([EDGE_LEVELS, rng.integers(0, 21, 94) / 20.0,
                            rng.random(150)])
        for d in (0, 1):
            assert outcome(surf.quantile, x, d, u) == \
                outcome(reference_quantile, surf, x, d, u)
            for j in (0, 1):
                assert outcome(surf.trunc_mean, x, j, d, u) == \
                    outcome(reference_trunc_mean, surf, x, j, d, u)

    def test_unseen_cell_same_error_as_reference(self):
        t = tied_cell_table(1)
        keep = ~((t.x[:, 0] == 2) & (t.d == 1))
        surf = CellOutcomeSurface(t.select(np.flatnonzero(keep)),
                                  CellSpec(discrete_cols=(0,), n_bins=3))
        # column 0 level 2 stays known through arm 0; arm 1 never saw it
        x = np.array([[0.0, 0.1], [2.0, 3.0], [1.0, -0.2], [2.0, -3.0]])
        u = np.full(4, 0.5)
        got = outcome(surf.quantile, x, 1, u)
        assert got[0] is EmptyCellError
        assert got == outcome(reference_quantile, surf, x, 1, u)
        for j in (0, 1):
            assert outcome(surf.trunc_mean, x, j, 1, u) == \
                outcome(reference_trunc_mean, surf, x, j, 1, u)
        # an unseen discrete level fails in the key lookup, for both
        x_new = np.array([[5.0, 0.0]])
        assert outcome(surf.quantile, x_new, 0, u[:1]) == \
            outcome(reference_quantile, surf, x_new, 0, u[:1])


class TestEmptyTails:
    """Zero-weight rows at the bottom of a cell leave its lower tail empty
    at small levels."""

    def _surface(self, lenient):
        t = ObservationTable(y=np.array([1.0, 2.0, 3.0, 4.0]),
                             s=np.ones(4, int), d=np.ones(4, int),
                             x=np.zeros((4, 1)),
                             weight=np.array([0.0, 1.0, 1.0, 1.0]))
        return CellOutcomeSurface(t, CellSpec(lenient_tails=lenient))

    def test_strict_raises(self):
        surf = self._surface(lenient=False)
        with pytest.raises(EmptyTailError, match="arm 1 lower tail"):
            surf.trunc_mean(np.zeros((3, 1)), 1, 1, np.array([0.5, 1e-13, 0.0]))

    def test_lenient_cell_mean_logged_once(self, caplog):
        surf = self._surface(lenient=True)
        u = np.array([0.5, 1e-13, 0.0, 1e-13, 0.0])
        x = np.zeros((5, 1))
        with caplog.at_level(logging.WARNING, logger="strata_bounds"):
            got = surf.trunc_mean(x, 1, 1, u)
        assert got[1:].tolist() == [3.0] * 4   # weighted mean of 2, 3, 4
        assert got[0] == 2.5                   # mean of 2 and 3
        assert got.tobytes() == reference_trunc_mean(surf, x, 1, 1, u).tobytes()
        assert len(caplog.records) == 1
        assert "4 rows" in caplog.records[0].getMessage()

    def test_strict_empty_tail_raises_next_to_unseen_cell(self):
        # cell (0, 0) has an empty lower tail; no training row falls in
        # cell (1, 1), whose rows use the arm-level surface
        x_train = np.array([[0.0, 0.0]] * 3 + [[0.0, 1.0], [1.0, 0.0]])
        t = ObservationTable(y=np.arange(1.0, 6.0), s=np.ones(5, int),
                             d=np.ones(5, int), x=x_train,
                             weight=np.array([0.0, 1.0, 1.0, 1.0, 1.0]))
        surf = CellOutcomeSurface(t, CellSpec(discrete_cols=(0, 1),
                                              lenient_tails=False))
        u = np.full(2, 1e-13)
        for x in ([[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [0.0, 0.0]]):
            got = outcome(surf.trunc_mean, np.array(x), 1, 1, u)
            assert got[0] is EmptyTailError
            assert got == outcome(reference_trunc_mean, surf, np.array(x), 1, 1, u)


class TestUnseenCells:
    """A held-out row whose cell no training row of the arm fell in is
    evaluated on the arm-level surface."""

    def test_arm_level_surface_for_unseen_cell(self, caplog):
        # levels 0 and 1 are seen in both columns, but never together as (1, 1)
        x_train = np.array([[0.0, 0.0]] * 3 + [[0.0, 1.0], [1.0, 0.0]])
        t = ObservationTable(y=np.array([1.0, 2.0, 3.0, 7.0, 9.0]),
                             s=np.ones(5, int), d=np.ones(5, int), x=x_train,
                             weight=np.array([1.0, 2.0, 1.0, 1.0, 0.5]))
        surf = CellOutcomeSurface(t, CellSpec(discrete_cols=(0, 1)))
        pooled = CellOutcomeSurface(t, CellSpec())
        x = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        u = np.array([0.3, 0.3, 0.8])
        unseen = [0, 2]

        def evaluate(surface, j, x, u):
            if j is None:
                return surface.quantile(x, 1, u)
            return surface.trunc_mean(x, j, 1, u)

        for j in (None, 0, 1):
            with caplog.at_level(logging.WARNING, logger="strata_bounds"):
                caplog.clear()
                got = evaluate(surf, j, x, u)
            assert len(caplog.records) == 1
            assert "2 rows" in caplog.records[0].getMessage()
            assert got[unseen].tobytes() == \
                evaluate(pooled, j, x[unseen], u[unseen]).tobytes()
            assert got[1] == evaluate(surf, j, x[[1]], u[[1]])[0]
            want = reference_quantile(surf, x, 1, u) if j is None \
                else reference_trunc_mean(surf, x, j, 1, u)
            assert got.tobytes() == want.tobytes()

    def test_crossfit_draw_with_unseen_held_out_cell(self):
        # a held-out row of this draw falls in a cell (x1 = -1, lowest x2
        # bin) that no selected treated row of the other folds occupies
        config = sb.DgpConfig(n=2000, shares=sb.PANEL_SHARES["b"], base_seed=5,
                              replications=1)
        t = sb.dgp_sample(config, 124)
        spec = LearnerSpec(cells=CellSpec(discrete_cols=(0,), n_bins=3),
                           folds=5, seed=1)
        est = sb.estimate_sharp(t, crossfit(t, spec))
        assert np.isfinite([est.lower, est.upper, est.se_lower,
                            est.se_upper]).all()


class TestCellKeys:
    def test_no_overflow_at_six_columns(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3000, 6))
        index = _CellIndex(x, np.ones(len(x)), CellSpec(n_bins=3))
        keys = index.keys(x)
        assert (keys >= 0).all()
        cells = np.column_stack([np.searchsorted(index.edges[j], x[:, j])
                                 for j in range(6)])
        pairs = np.unique(np.column_stack([cells, keys]), axis=0)
        assert len(pairs) == len(np.unique(cells, axis=0)) == len(np.unique(keys))


class TestFolds:
    def test_balanced_sizes(self):
        folds = fold_assignments(9, 5, seed=1)
        sizes = sorted(np.bincount(folds, minlength=5), reverse=True)
        assert sizes == [2, 2, 2, 2, 1]

    def test_determinism(self):
        a = fold_assignments(100, 5, seed=42)
        b = fold_assignments(100, 5, seed=42)
        assert (a == b).all()
        assert (a != fold_assignments(100, 5, seed=43)).any()

    def test_too_few_folds(self):
        with pytest.raises(ValueError):
            fold_assignments(10, 1, seed=0)


class TestCrossfit:
    def test_same_seed_identical_bundle(self):
        t = simple_table(seed=9)
        spec = LearnerSpec(folds=3, seed=5)
        b1 = crossfit(t, spec)
        b2 = crossfit(t, spec)
        np.testing.assert_array_equal(b1.s0, b2.s0)
        np.testing.assert_array_equal(b1.s1, b2.s1)
        np.testing.assert_array_equal(b1.m, b2.m)
        rows = np.arange(t.n)
        u = np.full(t.n, 0.5)
        np.testing.assert_array_equal(b1.quantile(rows, 1, u),
                                      b2.quantile(rows, 1, u))

    def test_fold_hygiene(self):
        # a row's own extreme outcome must not move its own prediction
        t = simple_table(n=60, seed=2)
        y = t.y.copy()
        idx = int(np.flatnonzero((t.s == 1) & (t.d == 1))[0])
        spec = LearnerSpec(folds=3, seed=7)
        base = crossfit(t, spec)
        y2 = y.copy()
        y2[idx] = 1e6
        t2 = ObservationTable(y=y2, s=t.s, d=t.d, x=t.x, weight=t.weight)
        pert = crossfit(t2, spec)
        rows = np.array([idx])
        u = np.array([1.0])
        own_before = base.trunc_mean(rows, 1, 1, u)[0]
        own_after = pert.trunc_mean(rows, 1, 1, u)[0]
        assert own_after == pytest.approx(own_before)

    def test_known_propensity_constant(self):
        t = simple_table(seed=11)
        spec = LearnerSpec(folds=2, seed=1, propensity_known=0.5)
        b = crossfit(t, spec)
        assert (b.m == 0.5).all()


class TestExternal:
    def _write(self, tmp_path, table, header, rows):
        path = tmp_path / "nuis.csv"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for r in rows:
                fh.write(",".join(repr(float(v)) for v in r) + "\n")
        return str(path)

    def test_round_trip_with_grids(self, tmp_path):
        n = 5
        t = ObservationTable(y=np.ones(n), s=np.ones(n, int),
                             d=np.zeros(n, int), x=np.zeros((n, 1)),
                             weight=np.ones(n))
        header = "m,s0,s1,q_1_u0.25,q_1_u0.75,b_1_1_u0.25,b_1_1_u0.75"
        rows = [[0.5, 0.4, 0.8, 1.0, 3.0, 0.5, 1.5] for _ in range(n)]
        path = self._write(tmp_path, t, header, rows)
        b = load_external_nuisances(path, t)
        assert b.provenance == "external"
        np.testing.assert_allclose(b.s0, 0.4)
        q = b.quantile(np.arange(n), 1, np.full(n, 0.5))
        np.testing.assert_allclose(q, 2.0)  # linear between grid points
        bm = b.trunc_mean(np.arange(n), 1, 1, np.full(n, 0.75))
        np.testing.assert_allclose(bm, 1.5)

    def test_interpolation_byte_identical_to_reference(self, tmp_path):
        rng = np.random.default_rng(12)
        n = 40
        t = ObservationTable(y=np.ones(n), s=np.ones(n, int),
                             d=np.zeros(n, int), x=np.zeros((n, 1)),
                             weight=np.ones(n))
        levels = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
        grid = np.sort(rng.normal(size=(n, len(levels))), axis=1)
        grid[3, 4] = np.inf
        grid[5, 0] = -np.inf
        grid[7, 1:3] = np.inf
        header = "m,s0,s1," + ",".join(f"q_1_u{u}" for u in levels)
        rows = [[0.5, 0.4, 0.8, *g] for g in grid]
        b = load_external_nuisances(self._write(tmp_path, t, header, rows), t)
        u = np.concatenate([[0.0, 1.0, 0.1, 0.9, 0.25, 1e-13, 1 - 1e-13],
                            rng.random(33)])
        idx = rng.permutation(n)
        got = b.quantile(idx, 1, u)
        assert got.tobytes() == reference_interp(levels, grid[idx], u).tobytes()
        # levels outside [0, 1], NaN, and a one-level grid
        wide = np.array([-1.0, 2.0, np.nan, 0.3, 0.5, -np.inf])
        sub = grid[:len(wide)]
        assert _interp_rows(levels, sub, wide).tobytes() == \
            reference_interp(levels, sub, wide).tobytes()
        assert _interp_rows(levels[:1], sub[:, :1], wide).tobytes() == \
            reference_interp(levels[:1], sub[:, :1], wide).tobytes()

    def test_row_count_mismatch_is_hard_error(self, tmp_path):
        t = ObservationTable(y=np.ones(3), s=np.ones(3, int),
                             d=np.zeros(3, int), x=np.zeros((3, 1)),
                             weight=np.ones(3))
        path = self._write(tmp_path, t, "m,s0,s1", [[0.5, 0.4, 0.8]] * 2)
        with pytest.raises(ValueError):
            load_external_nuisances(path, t)

    def test_missing_required_column(self, tmp_path):
        t = ObservationTable(y=np.ones(2), s=np.ones(2, int),
                             d=np.zeros(2, int), x=np.zeros((2, 1)),
                             weight=np.ones(2))
        path = self._write(tmp_path, t, "m,s0", [[0.5, 0.4]] * 2)
        with pytest.raises(ValueError):
            load_external_nuisances(path, t)

    @staticmethod
    def _table(n):
        return ObservationTable(y=np.ones(n), s=np.ones(n, int),
                                d=np.zeros(n, int), x=np.zeros((n, 1)),
                                weight=np.ones(n))

    @staticmethod
    def _grid_csv(path, rng, n):
        """A seeded nuisance CSV written in mixed number spellings: repr,
        padded with spaces, quoted, and exponent forms; some grid values
        are infinite."""
        levels = (0.1, 0.5, 0.9)
        header = ["m", "s0", "s1"] + [f"q_{d}_u{u}" for d in (1, 0)
                                      for u in levels]
        header += [f"b_{j}_{d}_u{u}" for j in (0, 1) for d in (0, 1)
                   for u in levels]
        grids = np.column_stack([
            np.sort(rng.normal(size=(n, 2, 3)) * 10.0 ** rng.integers(
                -8, 8, size=(n, 2, 1)), axis=2).reshape(n, 6),
            rng.normal(size=(n, 12)) * 1e3])
        grids[rng.random(grids.shape) < 0.05] = np.inf
        grids[0, 0], grids[-1, 5] = -np.inf, np.inf
        values = np.column_stack([rng.uniform(0.2, 0.8, size=(n, 3)), grids])
        spellings = [repr, lambda v: f" {v!r} ", lambda v: f'"{v!r}"',
                     lambda v: f'" {v!r}"', lambda v: f"{v:.17e}",
                     lambda v: f"{v:.17E}", lambda v: f"{v:+.3g}"]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in values.tolist():
                fh.write(",".join(spellings[rng.integers(len(spellings))](v)
                                  for v in row) + "\n")
        return levels

    @pytest.mark.parametrize("n", [1, 57])
    def test_reader_byte_identical_to_reference(self, tmp_path, n):
        path = str(tmp_path / "nuis.csv")
        levels = self._grid_csv(path, np.random.default_rng(n), n)
        header, data = _read_nuisance_csv(path)
        ref_header, ref = reference_read_nuisance_csv(path)
        assert header == ref_header
        assert data.shape == ref.shape == (n, 21)
        assert data.tobytes() == ref.tobytes()
        assert np.isinf(data).any()
        b = load_external_nuisances(path, self._table(n))
        for name in ("m", "s0", "s1"):
            assert getattr(b, name).tobytes() == \
                ref[:, header.index(name)].tobytes()
        rows = np.arange(n)
        for u in levels:
            got = b.quantile(rows, 1, np.full(n, u))
            assert got.tobytes() == ref[:, header.index(f"q_1_u{u}")].tobytes()

    @pytest.mark.parametrize("line,message", [
        ("0.5,0.4,0.8,,3.0", "could not convert string ''"),
        ("0.5,0.4,0.8,NA,3.0", "could not convert string 'NA'"),
        ("0.5,0.4,0.8,1.0", "number of columns changed"),
        ("#0.5,0.4,0.8,1.0,3.0", "could not convert string '#0.5'"),
        ("", "blank line at row 2"),
        ("0.5,0.4,0.8,1.0,nan", "q_1_u0.75 is NaN at row 2"),
    ], ids=["empty", "NA", "ragged", "hash", "blank", "nan_grid"])
    def test_malformed_field_is_hard_error(self, tmp_path, line, message):
        lines = ["m,s0,s1,q_1_u0.25,q_1_u0.75"] + ["0.5,0.4,0.8,1.0,3.0"] * 6
        if line:
            lines[3] = line
        else:
            lines.insert(3, line)   # the six data rows stay
        path = tmp_path / "nuis.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_external_nuisances(str(path), self._table(6))
        assert message in str(err.value)

    def test_first_nan_grid_column_and_row_named(self, tmp_path):
        n = 5
        grid = np.tile([1.0, 2.0, 3.0], (n, 1))
        grid[4, 0] = grid[3, 2] = grid[1, 2] = np.nan
        path = self._write(tmp_path, None, "m,s0,s1,q_0_u0.9,b_1_1_u0.1,q_0_u0.5",
                           [[0.5, 0.4, 0.8, *g] for g in grid])
        with pytest.raises(ValueError, match=r"q_0_u0\.9 is NaN at row 4"):
            load_external_nuisances(path, self._table(n))

    def test_header_and_row_widths_must_agree(self, tmp_path):
        path = self._write(tmp_path, None, "m,s0,s1",
                           [[0.5, 0.4, 0.8, 1.0]] * 3)
        with pytest.raises(ValueError, match="4 fields, its header has 3"):
            load_external_nuisances(path, self._table(3))
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_external_nuisances(str(empty), self._table(3))


class TestOracleFidelity:
    def test_matches_numerical_integration_at_random_points(self):
        # truncated means of the treated mixture against direct quadrature
        from scipy.integrate import quad
        config = sb.DgpConfig(n=200, shares=(1.0, 0.0, 0.0), replications=1,
                              gamma=1.0)
        t = sb.dgp_sample(config, 3)
        b = sb.oracle_nuisances(config)(t)
        rng = np.random.default_rng(0)
        rows = rng.choice(t.n, size=200, replace=True)
        levels = rng.uniform(0.05, 0.95, size=200)
        got = b.trunc_mean(rows, 1, 1, levels)
        for i, (r, u) in enumerate(zip(rows, levels)):
            p0 = b.p0[r]
            q = b.quantile(np.array([r]), 1, np.array([u]))[0]

            def dens(y):
                out = p0 * (0.0 <= y <= 1.0)
                out += (1 - p0) * (1.0 <= y <= 2.0)
                return out

            val, _ = quad(lambda y: y * dens(y), 0.0, q,
                          points=[min(1.0, q)], limit=200,
                          epsabs=1e-12, epsrel=1e-12)
            assert got[i] == pytest.approx(val / u, abs=1e-8)
