import io
import logging

import numpy as np
import pytest

import strata_bounds as sb
from helpers import (crossfit_surfaces, grouped_trunc_mean, reference_crossfit,
                     reference_interp, reference_keys, reference_quantile,
                     reference_read_nuisance_csv, reference_surface,
                     reference_trunc_mean)
from strata_bounds.cli import main as cli_main
from strata_bounds.data_model import ObservationTable
from strata_bounds.errors import EmptyCellError, SeparationWarning
from strata_bounds.influence import eif_smooth
from strata_bounds.nuisance import (CellOutcomeSurface, CellSpec, LearnerSpec,
                                    crossfit, fit_selection, fold_assignments,
                                    load_external_nuisances, _CellIndex,
                                    _interp_rows, _isclose, _read_nuisance_csv,
                                    _weighted_quantile)
from strata_bounds.smoothing import GFamily


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


@pytest.mark.parametrize("bins", [0, -3])
def test_cell_spec_needs_one_bin(bins):
    with pytest.raises(ValueError, match=f"n_bins must be at least 1, got {bins}"):
        CellSpec(n_bins=bins)


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
    """The bytes a call returns (a tail's quantiles, then its means), or the
    type and message of what it raises."""
    try:
        out = fn(*args)
        if isinstance(out, tuple):
            return b"".join(part.tobytes() for part in out)
        return out.tobytes()
    except EmptyCellError as exc:
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
        cells = CellSpec(discrete_cols=(0,), n_bins=3)
        surf, ref = CellOutcomeSurface(t, cells), reference_surface(t, cells)
        rng = np.random.default_rng(100 + seed)
        x = t.x[rng.integers(0, t.n, 250)]
        u = np.concatenate([EDGE_LEVELS, rng.integers(0, 21, 94) / 20.0,
                            rng.random(150)])
        for d in (0, 1):
            assert outcome(surf.quantile, x, d, u) == \
                outcome(reference_quantile, ref, x, d, u)
            for j in (0, 1):
                assert outcome(surf.trunc_mean, x, j, d, u) == \
                    outcome(reference_trunc_mean, ref, x, j, d, u)

    def test_unseen_cell_same_error_as_reference(self):
        t = tied_cell_table(1)
        keep = ~((t.x[:, 0] == 2) & (t.d == 1))
        kept = t.select(np.flatnonzero(keep))
        cells = CellSpec(discrete_cols=(0,), n_bins=3)
        surf = CellOutcomeSurface(kept, cells)
        ref = reference_surface(kept, cells)
        # column 0 level 2 stays known through arm 0; arm 1 never saw it
        x = np.array([[0.0, 0.1], [2.0, 3.0], [1.0, -0.2], [2.0, -3.0]])
        u = np.full(4, 0.5)
        got = outcome(surf.quantile, x, 1, u)
        assert got[0] is EmptyCellError
        assert got == outcome(reference_quantile, ref, x, 1, u)
        for j in (0, 1):
            assert outcome(surf.trunc_mean, x, j, 1, u) == \
                outcome(reference_trunc_mean, ref, x, j, 1, u)
        # an unseen discrete level fails in the key lookup, for both
        x_new = np.array([[5.0, 0.0]])
        assert outcome(surf.quantile, x_new, 0, u[:1]) == \
            outcome(reference_quantile, ref, x_new, 0, u[:1])


class TestEmptyTails:
    """Zero-weight rows at the bottom of a cell leave its lower tail empty
    at small levels."""

    def _table(self):
        return ObservationTable(y=np.array([1.0, 2.0, 3.0, 4.0]),
                                s=np.ones(4, int), d=np.ones(4, int),
                                x=np.zeros((4, 1)),
                                weight=np.array([0.0, 1.0, 1.0, 1.0]))

    def test_lenient_cell_mean_logged_once(self, caplog):
        surf = CellOutcomeSurface(self._table(), CellSpec())
        u = np.array([0.5, 1e-13, 0.0, 1e-13, 0.0])
        x = np.zeros((5, 1))
        with caplog.at_level(logging.WARNING, logger="strata_bounds"):
            got = surf.trunc_mean(x, 1, 1, u)
        assert got[1:].tolist() == [3.0] * 4   # weighted mean of 2, 3, 4
        assert got[0] == 2.5                   # mean of 2 and 3
        ref = reference_surface(self._table(), CellSpec())
        assert got.tobytes() == reference_trunc_mean(ref, x, 1, 1, u).tobytes()
        assert len(caplog.records) == 1
        assert "4 rows" in caplog.records[0].getMessage()



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
        ref = reference_surface(t, CellSpec(discrete_cols=(0, 1)))
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
            want = reference_quantile(ref, x, 1, u) if j is None \
                else reference_trunc_mean(ref, x, j, 1, u)
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


class TestZeroWeightCells:
    """Training rows that all weigh zero carry no distribution: their cell
    is left out like an empty one, and an arm of them raises."""

    def _table(self, w):
        return ObservationTable(y=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                                s=np.ones(6, int), d=np.ones(6, int),
                                x=np.array([[0.0], [0.0], [0.0], [1.0], [1.0],
                                            [1.0]]),
                                weight=np.asarray(w, dtype=float))

    def test_zero_weight_cell_uses_arm_level_surface(self, caplog):
        surf = CellOutcomeSurface(self._table([1, 2, 1, 0, 0, 0]),
                                  CellSpec(discrete_cols=(0,)))
        x, u = np.array([[1.0], [0.0]]), np.array([0.5, 0.5])
        with caplog.at_level(logging.WARNING, logger="strata_bounds"):
            means = [surf.trunc_mean(x, j, 1, u) for j in (0, 1)]
        assert surf.quantile(x, 1, u).tolist() == [2.0, 2.0]
        # the arm's rows of positive weight: 1, 2, 2, 3 in weight units
        assert [m.tolist() for m in means] == [[7 / 3, 7 / 3], [5 / 3, 5 / 3]]
        assert "1 rows in arm 1 fall in cells with no training rows" in \
            caplog.records[0].getMessage()

    def test_zero_weight_arm_raises(self):
        surf = CellOutcomeSurface(self._table(np.zeros(6)), CellSpec())
        with pytest.raises(EmptyCellError, match="no selected training rows "
                                                 "in arm 1"):
            surf.trunc_mean(np.zeros((1, 1)), 1, 1, np.array([0.5]))

    def test_bounds_curve_finite_when_a_cell_weighs_zero(self, tmp_path,
                                                         capsys):
        # the treated rows at level 2 all weigh zero; their cell means
        # were 0/0, which made every bound NaN with exit 0
        rng = np.random.default_rng(47)
        n = 120
        x = rng.integers(0, 3, n).astype(float)
        d = rng.integers(0, 2, n)
        t = ObservationTable(y=rng.normal(size=n) + x, s=np.ones(n, int), d=d,
                             x=x[:, None],
                             weight=np.where((x == 2) & (d == 1), 0.0, 1.0))
        path = tmp_path / "zero.csv"
        t.to_csv(str(path))
        code = cli_main(["bounds-curve", "--data", str(path), "--h", "0.05",
                         "--folds", "5", "--cells-discrete", "1"])
        out = capsys.readouterr().out
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert np.isfinite([float(row[1]), float(row[2])]).all()


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

    def test_cell_count_past_the_key_space_is_named(self):
        # p = 40 at 3 bins used to fail on numpy's "invalid dims" when the
        # first keys were read; 3**39 cells still fit
        x = np.random.default_rng(3).normal(size=(50, 40))
        w = np.ones(len(x))
        fits = _CellIndex(x[:, :39], w, CellSpec(n_bins=3))
        assert fits.keys(x[:, :39]).min() >= 0
        with pytest.raises(ValueError) as err:
            _CellIndex(x, w, CellSpec(n_bins=3))
        assert str(err.value) == (
            f"the covariates make {3 ** 40} cells, more than the "
            f"{2 ** 63 - 1} that cell keys can number; lower --cells-bins "
            f"or list fewer --cells-discrete columns")

    def test_discrete_level_tolerance_is_two_sided(self):
        # a value np.isclose to a training level takes that level from
        # either side; a value close to none is unseen (key -2)
        x = np.array([[0.0], [1.0], [2.0]])
        index = _CellIndex(x, np.ones(3), CellSpec(discrete_cols=(0,)))
        x_new = np.array([[1 - 1e-9], [1 + 1e-9], [2 + 1e-9], [-1e-9],
                          [0.5], [3.0]])
        assert index.keys(x_new).tolist() == [1, 1, 2, 0, -2, -2]

    def test_inline_closeness_is_np_isclose(self):
        edge = np.array([0.0, -0.0, 1.0, 1 + 1e-9, 1 + 1e-4, -1.0, 1e-9, 5e-324,
                         1e308, np.inf, -np.inf, np.nan])
        a, b = np.repeat(edge, len(edge)), np.tile(edge, len(edge))
        assert _isclose(a, b).tolist() == np.isclose(a, b).tolist()
        assert _isclose(edge, edge).tolist() == np.isclose(edge, edge).tolist()


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


def panel_b_draw(rep_index):
    config = sb.DgpConfig(n=2000, shares=sb.PANEL_SHARES["b"], base_seed=5,
                          replications=1)
    return sb.dgp_sample(config, rep_index)


PLAN_SPEC = LearnerSpec(cells=CellSpec(discrete_cols=(0,), n_bins=3),
                        folds=5, seed=1)


def evaluations(bundle, rows, u):
    """Every tail on ``rows`` at levels ``u``, as bytes or the error it
    raises."""
    return [outcome(bundle.tail, rows, j, d, u) for d in (0, 1) for j in (0, 1)]


def levels(rng, size):
    return np.concatenate([EDGE_LEVELS, rng.integers(0, 21, 40) / 20.0,
                           rng.random(size - 46)])


def warnings_of(caplog, fn):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="strata_bounds"):
        fn()
    return [rec.getMessage() for rec in caplog.records]


class TestCrossfitPlan:
    """The per-arm (fold, cell) plan against the per-fold loop that
    groups each fold's rows on every call."""

    @pytest.mark.parametrize("rep", [0, 124])   # draw 124 has an unseen cell
    def test_full_rows_byte_identical(self, rep):
        t = panel_b_draw(rep)
        bundle = crossfit(t, PLAN_SPEC)
        ref = reference_crossfit(t, PLAN_SPEC, bundle)
        u = levels(np.random.default_rng(rep), t.n)
        rows = bundle.all_rows()
        assert evaluations(bundle, rows, u) == evaluations(ref, rows, u)

    def test_survivor_subset_byte_identical(self):
        # the rows that trim's drop variant queries
        t = panel_b_draw(124)
        bundle = crossfit(t, PLAN_SPEC)
        ref = reference_crossfit(t, PLAN_SPEC, bundle)
        survivors = np.abs(bundle.p0 - 1.0) > 0.1
        sub, ref_sub = bundle.select(survivors), ref.select(survivors)
        u = levels(np.random.default_rng(3), sub.n)
        rows = sub.all_rows()
        assert evaluations(sub, rows, u) == evaluations(ref_sub, rows, u)

    def test_unsorted_rows_with_repeats_byte_identical(self):
        t = panel_b_draw(124)
        bundle = crossfit(t, PLAN_SPEC)
        ref = reference_crossfit(t, PLAN_SPEC, bundle)
        rng = np.random.default_rng(4)
        rows = rng.integers(0, t.n, 3000)
        assert len(np.unique(rows)) < len(rows)
        u = levels(rng, len(rows))
        assert evaluations(bundle, rows, u) == evaluations(ref, rows, u)

    def test_unseen_cell_warning_on_every_call_that_reads_it(self, caplog):
        t = panel_b_draw(124)
        bundle = crossfit(t, PLAN_SPEC)
        ref = reference_crossfit(t, PLAN_SPEC, bundle)
        folds, surfaces = crossfit_surfaces(t, PLAN_SPEC)
        unseen = [i for i in range(t.n) if int(reference_keys(
            surfaces[folds[i]], 1, t.x[i])[0]) not in surfaces[folds[i]].cells[1]]
        assert unseen
        rows = bundle.all_rows()
        u = np.full(t.n, 0.5)
        for _ in range(2):
            for call in (lambda b: b.quantile(rows, 1, u),
                         lambda b: b.trunc_mean(rows, 1, 1, u)):
                got = warnings_of(caplog, lambda: call(bundle))
                assert got == warnings_of(caplog, lambda: call(ref))
                assert any(f"{len(unseen)} rows in arm 1" in msg for msg in got)
        others = np.setdiff1d(rows, unseen)
        assert warnings_of(caplog, lambda: bundle.quantile(
            others, 1, u[others])) == []

    def test_tail_logs_its_unseen_cell_warning_once(self, caplog):
        # the smoothed moments read one tail per arm; a tail's quantile and
        # mean read the same cells, so each fold's warning shows once
        t = panel_b_draw(124)
        bundle = crossfit(t, PLAN_SPEC)
        rows = bundle.all_rows()
        once = warnings_of(caplog, lambda: bundle.trunc_mean(
            rows, 1, 1, np.full(t.n, 0.5)))
        assert once and all("in arm 1 fall in cells" in msg for msg in once)
        got = warnings_of(caplog, lambda: eif_smooth(t, bundle, GFamily(h=0.05),
                                                     "l"))
        assert [msg for msg in got if "in arm 1" in msg] == once

    def test_cell_error_before_any_empty_tail_warning(self, caplog):
        # zero-weight rows hold each cell's lowest outcomes, so lower tails
        # at tiny levels are empty; level 7 sits on one treated row of the
        # last fold, whose surfaces never saw it
        t = tied_cell_table(3, n=400)
        spec = LearnerSpec(cells=CellSpec(discrete_cols=(0,), n_bins=2),
                           folds=3, seed=4)
        folds = fold_assignments(t.n, spec.folds, spec.seed)
        x = t.x.copy()
        x[np.flatnonzero((t.d == 1) & (folds == 2))[0], 0] = 7.0
        t = ObservationTable(y=np.where(t.weight == 0, -100.0, t.y), s=t.s,
                             d=t.d, x=x, weight=t.weight)
        bundle = crossfit(t, spec)
        u = np.full(t.n, 1e-13)
        first = np.flatnonzero(folds == 0)
        logs = warnings_of(caplog, lambda: bundle.tail(first, 1, 1, u[first]))
        assert any("empty truncation region (arm 1 lower tail)" in msg
                   for msg in logs)
        for call in (bundle.tail, bundle.trunc_mean):
            got = []
            assert warnings_of(caplog, lambda: got.append(
                outcome(call, bundle.all_rows(), 1, 1, u))) == []
            assert got[0][0] is EmptyCellError and "unseen level" in got[0][1]

    def test_unseen_discrete_level_raises_only_where_queried(self):
        # levels 7 and 9 each sit on one selected treated row, so the
        # surfaces of that row's fold never saw them in either arm
        t = tied_cell_table(2, n=400)
        x = t.x.copy()
        picked = np.flatnonzero(t.d == 1)[[3, 40]]
        x[picked, 0] = [7.0, 9.0]
        t = ObservationTable(y=t.y, s=t.s, d=t.d, x=x, weight=t.weight)
        spec = LearnerSpec(cells=CellSpec(discrete_cols=(0,), n_bins=2),
                           folds=3, seed=2)
        bundle = crossfit(t, spec)
        ref = reference_crossfit(t, spec, bundle)
        u = levels(np.random.default_rng(5), t.n)
        rows = bundle.all_rows()
        got = evaluations(bundle, rows, u)
        assert got == evaluations(ref, rows, u)
        assert all(g[0] is EmptyCellError and "unseen level" in g[1]
                   for g in got)
        for one in picked:
            got = evaluations(bundle, np.array([one]), u[:1])
            assert got == evaluations(ref, np.array([one]), u[:1])
            assert got[0][0] is EmptyCellError
        clean = np.setdiff1d(rows, picked)
        got = evaluations(bundle, clean, u[clean])
        assert got == evaluations(ref, clean, u[clean])
        assert all(isinstance(g, bytes) for g in got)

    def test_empty_tails_match(self, caplog):
        # the zero-weight rows hold the lowest outcomes, so lower tails at
        # tiny levels are empty
        t = tied_cell_table(3, n=400)
        y = np.where(t.weight == 0, -100.0, t.y)
        t = ObservationTable(y=y, s=t.s, d=t.d, x=t.x, weight=t.weight)
        spec = LearnerSpec(cells=CellSpec(discrete_cols=(0,), n_bins=2),
                           folds=3, seed=4)
        bundle = crossfit(t, spec)
        ref = reference_crossfit(t, spec, bundle)
        rows = bundle.all_rows()
        u = np.full(t.n, 1e-13)
        got = warnings_of(caplog, lambda: evaluations(bundle, rows, u))
        assert got == warnings_of(caplog, lambda: evaluations(ref, rows, u))
        assert evaluations(bundle, rows, u) == evaluations(ref, rows, u)
        assert any("empty truncation region" in msg for msg in got)


CONTROL_SPEC = LearnerSpec(cells=CellSpec(discrete_cols=(0,), n_bins=2),
                           folds=3, seed=2)


def control_arm_table(seed, control_rows_in_one_fold):
    """A draw whose outcomes vary in both arms, with ties (rounded
    outcomes) and zero weights. Level 3 of the discrete covariate sits on
    four selected rows of fold 0, in the lowest bin, and two of fold 1, in
    the highest bin, half of them treated. Fold 1 holds no selected
    control row or, with ``control_rows_in_one_fold``, fold 2 holds every
    selected control row, so its training folds hold none. So the control
    cells of fold 0 never saw level 3, and the treated cells of folds 0
    and 1 saw it, but not in the bin of their own rows of level 3."""
    rng = np.random.default_rng(seed)
    n = 360
    folds = fold_assignments(n, CONTROL_SPEC.folds, CONTROL_SPEC.seed)
    x = np.column_stack([rng.integers(0, 3, n), rng.normal(size=n)])
    d = rng.integers(0, 2, n)
    s = (rng.random(n) < 0.7).astype(int)
    w = rng.choice([0.0, 0.5, 1.0, 2.5], n, p=[0.1, 0.3, 0.4, 0.2])
    for k, rows, x2 in ((0, 4, -5.0), (1, 2, 5.0)):
        rare = np.flatnonzero(folds == k)[:rows]
        x[rare] = [3.0, x2]
        d[rare], s[rare], w[rare] = np.arange(rows) % 2, 1, 1.0
    control = d == 0
    s[control & (folds != 2 if control_rows_in_one_fold else folds == 1)] = 0
    y = np.round(rng.normal(size=n) + x[:, 0] - 0.5 * control, 1)
    return ObservationTable(y=np.where(s == 1, y, np.nan), s=s, d=d, x=x,
                            weight=w), folds


class TestControlArmParity:
    """The benchmark design's control outcome is identically 0, so its
    digests cannot see a control-arm mistake; here both arms vary."""

    @pytest.mark.parametrize("one_fold", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_both_arms_byte_identical_to_reference(self, caplog, seed,
                                                   one_fold):
        t, folds = control_arm_table(seed, one_fold)
        assert len(np.unique(t.y[(t.s == 1) & (t.d == 0)])) > 10
        bundle = crossfit(t, CONTROL_SPEC)
        ref = reference_crossfit(t, CONTROL_SPEC, bundle)
        rng = np.random.default_rng(seed)
        rows = bundle.all_rows()
        unseen = (folds == 0) & (t.x[:, 0] == 3.0)
        clean = np.flatnonzero(~unseen)
        repeats = rng.choice(clean, 500)
        edge = np.array([0.0, 1e-13, 0.3, 1.0, np.nan])
        for u in [np.resize(edge, t.n)] + [np.full(t.n, v) for v in edge]:
            for r in (rows, clean, repeats):
                uu = np.resize(u, len(r))
                got = warnings_of(caplog, lambda: evaluations(bundle, r, uu))
                assert got == warnings_of(caplog,
                                          lambda: evaluations(ref, r, uu))
                assert evaluations(bundle, r, uu) == evaluations(ref, r, uu)
        # the control tails raise on the unseen level, and the treated
        # tails read the arm-level surface for the rows of level 3
        u = np.full(t.n, 0.3)
        logs = warnings_of(caplog, lambda: bundle.tail(rows, 1, 1, u))
        assert logs == ["4 rows in arm 1 fall in cells with no training rows; "
                        "using the arm-level surface",
                        "2 rows in arm 1 fall in cells with no training rows; "
                        "using the arm-level surface"]
        got = evaluations(bundle, rows, u)
        assert [isinstance(g, tuple) for g in got] == [True, True, False,
                                                       False]
        assert "unseen level" in got[0][1]
        # with one fold holding every control row, that fold's rows raise
        fold2 = np.flatnonzero(folds == 2)
        control = evaluations(bundle, fold2, u[fold2])[:2]
        assert all(isinstance(g, tuple) == one_fold for g in control)


def surface_outcomes(table, cells, x, u):
    """Every call of the ``CellOutcomeSurface`` fitted on ``table`` on
    ``x`` at levels ``u``, and of the per-row reference loops on its
    reference surface, as bytes or the error raised."""
    surface = CellOutcomeSurface(table, cells)
    ref = reference_surface(table, cells)

    def reference_tail(x, j, d, u):
        return (reference_quantile(ref, x, d, u),
                reference_trunc_mean(ref, x, j, d, u))

    got, want = [], []
    for d in (0, 1):
        for j in (0, 1):
            got.append(outcome(surface.tail, x, j, d, u))
            want.append(outcome(reference_tail, x, j, d, u))
    return got, want


def assert_matches_references(caplog, table, cells, u, folds=3):
    """The surface fitted on ``table`` against the per-row loops on all its
    rows, and ``crossfit`` against the per-fold loop (values, errors and
    log lines), at levels ``u``."""
    got, want = surface_outcomes(table, cells, table.x, u)
    assert got == want
    spec = LearnerSpec(cells=cells, folds=folds, seed=3)
    bundle = crossfit(table, spec)
    ref = reference_crossfit(table, spec, bundle)
    rows = bundle.all_rows()
    got = warnings_of(caplog, lambda: evaluations(bundle, rows, u))
    assert got == warnings_of(caplog, lambda: evaluations(ref, rows, u))
    assert evaluations(bundle, rows, u) == evaluations(ref, rows, u)


def two_arm_table(y, w, x, seed=0):
    n = len(y)
    d = np.random.default_rng(seed).integers(0, 2, n)
    return ObservationTable(y=np.asarray(y, dtype=float), s=np.ones(n, int),
                            d=d, x=np.asarray(x, dtype=float).reshape(n, -1),
                            weight=np.asarray(w, dtype=float))


class TestSegmentedSearch:
    """The one-pass search over all (fold, cell) groups on inputs where a
    per-row search is easy to get subtly wrong."""

    def test_heavy_ties(self, caplog):
        rng = np.random.default_rng(11)
        n = 300
        t = two_arm_table(rng.integers(0, 3, n), rng.choice([0.5, 1.0, 2.0], n),
                          np.column_stack([rng.integers(0, 2, n),
                                           rng.normal(size=n)]))
        u = np.concatenate([EDGE_LEVELS, rng.integers(0, 9, 94) / 8.0,
                            rng.random(n - 100)])
        assert_matches_references(caplog, t, CellSpec(discrete_cols=(0,),
                                                      n_bins=2), u)

    def test_tie_run_stops_at_cell_boundary(self, caplog):
        # cell 0 ends with 3.0 and cell 1 starts with 3.0: they sit next to
        # each other in the flat arrays, but are different cells
        y = [1.0, 2.0, 3.0, 3.0, 4.0, 5.0]
        x = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        t = ObservationTable(y=np.array(y), s=np.ones(6, int),
                             d=np.ones(6, int), x=np.array(x)[:, None],
                             weight=np.ones(6))
        surf = CellOutcomeSurface(t, CellSpec(discrete_cols=(0,)))
        xq = np.array([[0.0], [1.0], [0.0], [1.0]])
        u = np.array([1.0 - 1e-13, 1e-13, 0.9, 0.2])
        assert surf.trunc_mean(xq, 1, 1, u)[0] == 2.0
        assert surf.trunc_mean(xq, 0, 1, u)[1] == 4.0
        got, want = surface_outcomes(t, CellSpec(discrete_cols=(0,)), xq, u)
        assert got == want
        # and the same layout across the folds of a cross-fit
        big = ObservationTable(y=np.tile(y, 12), s=np.ones(72, int),
                               d=np.repeat([1, 0], [60, 12]),
                               x=np.tile(x, 12)[:, None], weight=np.ones(72))
        spec = LearnerSpec(cells=CellSpec(discrete_cols=(0,)), folds=2, seed=0)
        bundle = crossfit(big, spec)
        ref = reference_crossfit(big, spec, bundle)
        rows = bundle.all_rows()
        uu = np.resize(u, 72)
        assert evaluations(bundle, rows, uu) == evaluations(ref, rows, uu)

    def test_zero_weight_rows_flat_cumulative_weights(self, caplog):
        # zero-weight rows leave cumulative weights flat, at 0 when they
        # come first; level 3 carries no weight at all, so its rows read
        # the arm-level surface
        rng = np.random.default_rng(12)
        n = 240
        x = rng.integers(0, 4, n)
        w = np.where(x == 3, 0.0, rng.choice([0.0, 1.0, 3.0], n, p=[0.4, 0.4, 0.2]))
        t = two_arm_table(np.round(rng.normal(size=n), 1), w, x)
        u = np.concatenate([EDGE_LEVELS, rng.integers(0, 11, 94) / 10.0,
                            rng.random(n - 100)])
        assert_matches_references(caplog, t, CellSpec(discrete_cols=(0,)), u)

    def test_levels_at_cumulative_weight_steps(self):
        # one cell per arm and fold, so each row's cell is known here; the
        # levels sit at cw[k] / total, and at the levels whose search target
        # u * total - 1e-12 * total is cw[k] itself, where the search must
        # stop at the first of a run of equal cumulative weights
        rng = np.random.default_rng(13)
        n = 200
        w = rng.choice([0.0, 0.125, 0.25, 1.0], n)
        t = two_arm_table(rng.integers(0, 6, n) / 2.0, w, np.zeros(n))

        def step_levels(cw, size):
            total = cw[-1]
            hits = [c for c in (cw / total + 1e-12).tolist()
                    for c in (c, np.nextafter(c, 0.0), np.nextafter(c, 2.0))
                    if c * total - 1e-12 * total in cw]
            assert len(hits) > 10
            return rng.choice(np.concatenate([cw / total, hits]), size)

        cells = CellSpec()
        ref = reference_surface(t, cells)
        got, want = surface_outcomes(t, cells, t.x,
                                     step_levels(ref.cells[1][0][1], n))
        assert got == want
        spec = LearnerSpec(cells=cells, folds=2, seed=3)
        folds, surfaces = crossfit_surfaces(t, spec)
        bundle = crossfit(t, spec)
        ref = reference_crossfit(t, spec, bundle)
        rows = bundle.all_rows()
        for d in (0, 1):
            u = np.empty(n)
            for k, fold_surface in enumerate(surfaces):
                here = folds == k
                u[here] = step_levels(fold_surface.cells[d][0][1], here.sum())
            assert outcome(bundle.quantile, rows, d, u) == \
                outcome(ref.quantile, rows, d, u)
            for j in (0, 1):
                assert outcome(bundle.trunc_mean, rows, j, d, u) == \
                    outcome(ref.trunc_mean, rows, j, d, u)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1e-13, 1 - 1e-13, np.nan])
    def test_edge_levels(self, caplog, level):
        t = tied_cell_table(7)
        assert_matches_references(caplog, t, CellSpec(discrete_cols=(0,),
                                                      n_bins=3),
                                  np.full(t.n, level))

    def test_single_row_cells(self, caplog):
        # every discrete level holds one selected row per arm
        rng = np.random.default_rng(14)
        y = rng.normal(size=8)
        t = ObservationTable(y=y, s=np.ones(8, int),
                             d=np.array([0, 1] * 4),
                             x=np.repeat(np.arange(4.0), 2)[:, None],
                             weight=np.array([1.0, 2.0] * 4))
        u = np.array([0.0, 1e-13, 0.3, 0.5, 0.7, 1 - 1e-13, 1.0, 0.5])
        got, want = surface_outcomes(t, CellSpec(discrete_cols=(0,)), t.x, u)
        assert got == want
        assert all(isinstance(g, bytes) for g in got)
        # cross-fitted bins that hold one or two training rows each
        n = 48
        t = two_arm_table(rng.normal(size=n), rng.choice([0.5, 1.0], n),
                          rng.normal(size=n))
        assert_matches_references(caplog, t, CellSpec(n_bins=12),
                                  np.concatenate([EDGE_LEVELS,
                                                  rng.random(n - 6)]), folds=2)

    def test_empty_rows(self):
        t = tied_cell_table(8)
        surf = CellOutcomeSurface(t, CellSpec(discrete_cols=(0,), n_bins=3))
        spec = LearnerSpec(cells=CellSpec(discrete_cols=(0,), n_bins=3),
                           folds=3, seed=1)
        bundle = crossfit(t, spec)
        none, u = np.array([], dtype=np.int64), np.array([])
        for d in (0, 1):
            assert surf.quantile(np.empty((0, 2)), d, u).shape == (0,)
            assert bundle.quantile(none, d, u).shape == (0,)
            for j in (0, 1):
                assert surf.trunc_mean(np.empty((0, 2)), j, d, u).shape == (0,)
                assert bundle.trunc_mean(none, j, d, u).shape == (0,)

    def test_arm_level_warning_then_empty_tail_warning(self, caplog):
        # the rows of cell (1, 1), which no training row holds, read the
        # arm-level surface (key -1), laid out before cell (0, 0); both
        # hold the zero-weight lowest outcome, so their lower tails are
        # empty: the arm-level warnings come first, whatever the row order
        x_train = np.array([[0.0, 0.0]] * 3 + [[0.0, 1.0], [1.0, 0.0]])
        t = ObservationTable(y=np.arange(1.0, 6.0), s=np.ones(5, int),
                             d=np.ones(5, int), x=x_train,
                             weight=np.array([0.0, 1.0, 1.0, 1.0, 1.0]))
        cells = CellSpec(discrete_cols=(0, 1))
        surf = CellOutcomeSurface(t, cells)
        x = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        u = np.full(3, 1e-13)
        got = []
        logs = warnings_of(caplog, lambda: got.append(
            outcome(surf.trunc_mean, x, 1, 1, u)))
        assert isinstance(got[0], bytes)
        assert logs == ["2 rows in arm 1 fall in cells with no training "
                        "rows; using the arm-level surface",
                        "empty truncation region (arm 1 lower tail) in cell "
                        "-1 for 2 rows; using the cell mean",
                        "empty truncation region (arm 1 lower tail) in cell "
                        "0 for 1 rows; using the cell mean"]
        want = []
        assert warnings_of(caplog, lambda: want.append(
            outcome(grouped_trunc_mean, reference_surface(t, cells), x, 1, 1,
                    u))) == logs
        assert want == got


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
        means = rng.normal(size=(n, len(levels)))
        header = "m,s0,s1," + ",".join(f"{kind}_u{u}" for kind in ("q_1", "b_1_1")
                                       for u in levels)
        rows = [[0.5, 0.4, 0.8, *g, *m] for g, m in zip(grid, means)]
        b = load_external_nuisances(self._write(tmp_path, t, header, rows), t)
        u = np.concatenate([[0.0, 1.0, 0.1, 0.9, 0.25, 1e-13, 1 - 1e-13],
                            rng.random(33)])
        idx = rng.permutation(n)
        q, bm = b.tail(idx, 1, 1, u)
        assert q.tobytes() == reference_interp(levels, grid[idx], u).tobytes()
        assert bm.tobytes() == reference_interp(levels, means[idx], u).tobytes()
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

    @pytest.mark.parametrize("columns,bad", [
        # the first two used to raise KeyError, the third said nothing of
        # the column, and the last four were read as grid columns
        ("q_2_u0.5", "q_2_u0.5"),
        ("b_0_5_u0.5", "b_0_5_u0.5"),
        ("q_1_uabc", "q_1_uabc"),
        ("q_1_0_u0.5", "q_1_0_u0.5"),
        ("b_1_u0.5", "b_1_u0.5"),
        ("q_1_u1.5", "q_1_u1.5"),
        ("q_1_u-0.25", "q_1_u-0.25"),
        ("q_1_unan", "q_1_unan"),
        ("q_1_u0.5,q_1_u0.50", "q_1_u0.50"),
        ("b_0_1_u0.5,q_1_u0.25,b_0_1_u5e-1", "b_0_1_u5e-1"),
    ], ids=["arm_2", "arm_5", "level_abc", "q_with_tail", "b_without_arm",
            "level_above_1", "level_below_0", "level_nan", "same_level",
            "same_level_spelled_apart"])
    def test_grid_column_name_is_checked(self, tmp_path, columns, bad):
        k = columns.count(",") + 1
        path = self._write(tmp_path, None, "m,s0,s1," + columns,
                           [[0.5, 0.4, 0.8] + [1.0] * k] * 3)
        with pytest.raises(ValueError) as err:
            load_external_nuisances(path, self._table(3))
        assert str(err.value).startswith(f"nuisance column {bad!r} ")

    def test_other_columns_are_ignored(self, tmp_path):
        path = self._write(tmp_path, None, "m,s0,s1,q_hat,id,b_x_u0.5",
                           [[0.5, 0.4, 0.8, 1.0, 2.0, 3.0]] * 3)
        assert load_external_nuisances(path, self._table(3)).n == 3

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
