"""Nuisance learners, cross-fitting, and externally supplied predictions.

Built-in learners are deliberately simple: a damped-Newton logistic model
for the probability surfaces and cell-based weighted empirical quantiles
and truncated means for the outcome surfaces. Flexible machine-learning
predictions enter through the external CSV channel instead.
"""

from __future__ import annotations

import csv
import logging
import math
import re
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._special import expit
from .data_model import NuisanceBundle, ObservationTable
from .errors import EmptyCellError, SeparationWarning

logger = logging.getLogger("strata_bounds")


# ---------------------------------------------------------------------------
# logistic probability learner

def _design(x) -> np.ndarray:
    """The logistic design matrix ``[1, x]`` of covariate rows ``x``."""
    return np.column_stack([np.ones(len(x)), x])


def _fit_logistic(Xd, y, w, tol: float = 1e-8, max_iter: int = 100):
    """Weighted logistic regression of ``y`` on the design matrix ``Xd``
    (see ``_design``) by damped Newton iterations.

    Stops at gradient norm <= tol * total weight or after max_iter steps;
    warns on quasi-separation (fitted index beyond +-30). The tolerance,
    the line search's slack and the ridge all scale with the total weight,
    so weights times a power of two give the same coefficients. The norm
    test scales both sides by ``2 ** -e``, where ``2 ** e`` bounds the
    total, so ``grad @ grad`` cannot overflow or underflow at any scale.
    """
    coef = np.zeros(Xd.shape[1])
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    total = float(np.sum(w))
    ridge = 1e-10 * total * np.eye(Xd.shape[1])
    e = math.frexp(total)[1]
    limit = tol * math.ldexp(total, -e)

    def nll(eta):
        return float((w * (np.logaddexp(0.0, eta) - y * eta)).sum())

    eta = Xd @ coef
    loss = nll(eta)
    for _ in range(max_iter):
        p = expit(eta)
        grad = Xd.T @ (w * (p - y))
        unit_grad = np.ldexp(grad, -e)
        if math.sqrt(unit_grad @ unit_grad) <= limit:
            break
        hess = Xd.T @ (Xd * (w * p * (1.0 - p))[:, None])
        hess += ridge
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        while scale > 1e-6:
            cand = coef - scale * step
            cand_eta = Xd @ cand
            cand_loss = nll(cand_eta)
            if cand_loss <= loss + 1e-12 * total:
                coef, eta, loss = cand, cand_eta, cand_loss
                break
            scale /= 2.0
        else:
            break
    if np.max(np.abs(eta)) > 30.0:
        warnings.warn("fitted logistic index exceeds +-30 (quasi-separation)",
                      SeparationWarning)
    return coef


def _fit_selection(Xd, table: ObservationTable, rows, arm: int):
    """Coefficients of P(S=1 | X) on the ``rows`` (indices) of ``table``,
    which are its rows of arm ``arm`` that a fit reads; ``Xd`` is the
    table's design matrix."""
    if not len(rows):
        raise EmptyCellError(f"no rows in treatment arm {arm}")
    return _fit_logistic(Xd.take(rows, axis=0), table.s.take(rows),
                         table.weight.take(rows))


def fit_selection(table: ObservationTable, arm: int):
    """Fit P(S=1 | X) on one treatment arm; returns an x -> probability map."""
    coef = _fit_selection(_design(table.x), table,
                          np.flatnonzero(table.d == arm), arm)
    return lambda X: expit(_design(np.atleast_2d(X)) @ coef)


# ---------------------------------------------------------------------------
# cell-based outcome surfaces

@dataclass(frozen=True)
class CellSpec:
    """How to partition the covariate space into evaluation cells.

    ``discrete_cols`` are used as-is; every other column is cut at its
    weighted training quantiles into ``n_bins`` bins, at least one.
    """

    discrete_cols: tuple = ()
    n_bins: int = 1

    def __post_init__(self):
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be at least 1, got {self.n_bins}")


#: Cell key of a row with a discrete level that the arm's training rows
#: never showed; evaluating the row raises ``EmptyCellError``.
_UNSEEN_LEVEL = -2
#: Cell key of the arm-level surface, which serves the rows of a cell that
#: holds no training rows of the arm.
_ARM_LEVEL = -1


class _CellIndex:
    """Maps covariate rows to training-defined cells."""

    def __init__(self, x_train, w_train, spec: CellSpec):
        self.spec = spec
        p = x_train.shape[1]
        self.cont_cols = tuple(j for j in range(p) if j not in spec.discrete_cols)
        self.levels = {j: np.unique(x_train[:, j]) for j in spec.discrete_cols}
        self.edges = {}
        for j in self.cont_cols:
            if spec.n_bins <= 1:
                self.edges[j] = np.array([])
            else:
                qs = np.linspace(0, 1, spec.n_bins + 1)[1:-1]
                self.edges[j] = _weighted_quantile(x_train[:, j], w_train, qs)
        cells = math.prod([len(lv) for lv in self.levels.values()]
                          + [len(e) + 1 for e in self.edges.values()])
        if cells > np.iinfo(np.intp).max:   # the keys' flat index overflows
            raise ValueError(
                f"the covariates make {cells} cells, more than the "
                f"{np.iinfo(np.intp).max} that cell keys can number; lower "
                f"--cells-bins or list fewer --cells-discrete columns")

    def _level_index(self, j, col):
        """Index of each value of discrete column ``j`` among its training
        levels, and whether the value is one of them: ``np.isclose`` to the
        first level not below it or, failing that, to the level before."""
        lv = self.levels[j]
        hi = np.minimum(np.searchsorted(lv, col), len(lv) - 1)
        close = _isclose(lv[hi], col)
        if close.all():
            return hi, close
        idx = np.where(close, hi, np.maximum(hi - 1, 0))
        return idx, _isclose(lv[idx], col)

    def keys(self, x) -> np.ndarray:
        """Cell ids: the row-major flat index of each row's per-column
        level/bin indices (distinct cells, distinct non-negative ids), or
        ``_UNSEEN_LEVEL`` for a row with a discrete level never seen in
        training."""
        x = np.atleast_2d(x)
        parts, dims = [], []
        unseen = np.zeros(x.shape[0], dtype=bool)
        for j in self.spec.discrete_cols:
            idx, ok = self._level_index(j, x[:, j])
            unseen |= ~ok
            parts.append(idx)
            dims.append(len(self.levels[j]))
        for j in self.cont_cols:
            parts.append(np.searchsorted(self.edges[j], x[:, j]))
            dims.append(len(self.edges[j]) + 1)
        if not parts:
            return np.zeros(x.shape[0], dtype=np.int64)
        keys = np.ravel_multi_index(parts, dims).astype(np.int64, copy=False)
        keys[unseen] = _UNSEEN_LEVEL
        return keys

    def unseen_level_error(self, x) -> EmptyCellError:
        """The error for rows ``x``, some of which hold a discrete level never
        seen in training: it names the first such column and its unseen
        values."""
        x = np.atleast_2d(x)
        for j in self.spec.discrete_cols:
            _, ok = self._level_index(j, x[:, j])
            if not ok.all():
                return EmptyCellError(f"unseen level in discrete column {j}: "
                                      f"{np.unique(x[~ok, j])[:5]}")


def _isclose(a, b):
    """``np.isclose(a, b)`` for float arrays, by its own formula; equal
    values, the usual case, are close."""
    equal = a == b
    if equal.all():
        return equal
    with np.errstate(invalid="ignore"):
        close = np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b)
    return close & np.isfinite(b) | equal


def _weighted_quantile(values, weights, qs):
    """Left-continuous weighted empirical quantiles (smallest y with F(y) >= q)."""
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=float)[order]
    cw = np.cumsum(np.asarray(weights, dtype=float)[order])
    return v[_quantile_pos(cw, np.atleast_1d(np.asarray(qs, dtype=float)))]


def _quantile_pos(cw, u):
    """Sorted-order index of the left-continuous weighted quantile at each
    level ``u``, given the cumulative weights ``cw`` of the sorted values."""
    total = cw[-1]
    pos = np.searchsorted(cw, u * total - 1e-12 * total, side="left")
    return np.minimum(pos, len(cw) - 1)


class _Cells:
    """Sorted cells laid end to end in flat arrays.

    Segment ``k`` holds the outcomes of cell ``key[k]`` (``_ARM_LEVEL`` for
    an arm-level surface) in ascending order, each with its cumulative
    weight and cumulative weighted outcome, at flat indices ``start[k]`` to
    ``start[k] + length[k] - 1`` of ``y``, ``cw`` and ``cy``; ``total_w[k]``
    and ``total_y[k]`` are its last cumulative sums. ``first[i]`` and
    ``last[i]`` are the flat indices where the run of outcomes tied with
    ``y[i]`` begins and ends; a run never leaves its segment, so they are
    ``np.searchsorted(yv, yv[i], "left")`` and
    ``np.searchsorted(yv, yv[i], "right") - 1`` within the cell (NaNs tie
    with each other, as in numpy's sort order).
    """

    def __init__(self, y, w, keys, segments):
        """The cells with keys ``keys`` whose table rows, in ascending
        outcome order, are the index arrays ``segments``; ``y`` and ``w``
        are the table's outcomes and weights. Each segment's cumulative sums
        are taken on that segment alone."""
        self.key = np.array(keys, dtype=np.int64)
        length = np.array([len(seg) for seg in segments], dtype=np.int64)
        start = np.cumsum(length) - length
        rows = np.concatenate(segments + [np.zeros(0, dtype=np.int64)])
        self.y = y.take(rows)
        wv = w.take(rows)
        wy = wv * self.y
        self.cw, self.cy = np.empty_like(wv), np.empty_like(wv)
        for a, b in zip(start.tolist(), (start + length).tolist()):
            wv[a:b].cumsum(out=self.cw[a:b])
            wy[a:b].cumsum(out=self.cy[a:b])
        self.start, self.length = start, length
        end = start + length - 1
        self.total_w, self.total_y = self.cw[end], self.cy[end]
        y = self.y
        new = np.ones(len(y), dtype=bool)
        new[1:] = (y[1:] != y[:-1]) & ~(np.isnan(y[1:]) & np.isnan(y[:-1]))
        new[start] = True
        idx = np.arange(len(y))
        self.first = np.maximum.accumulate(np.where(new, idx, 0))
        ends = np.append(new[1:], True)
        self.last = np.minimum.accumulate(
            np.where(ends, idx, len(y))[::-1])[::-1]


@dataclass(frozen=True)
class _CellFit:
    """The cells that one training set fits for one arm: the cell index
    (``None`` when the arm holds no training row of positive weight), the
    segment of each training cell in the arm's ``_Cells`` by key, the
    arm-level surface under key -1, and the cell key of every table row."""

    index: Optional[_CellIndex]
    segs: dict
    keys: np.ndarray

    def segments(self, keys) -> np.ndarray:
        """The segment that serves each row of cell ``keys``: its cell's,
        the arm-level surface's for a cell with no training rows of the arm,
        or -1 for a row that raises ``EmptyCellError`` (key -2: a discrete
        level never seen in training, or an arm without training rows)."""
        uniq, inverse = np.unique(keys, return_inverse=True)
        arm_level = self.segs.get(_ARM_LEVEL)
        seg = [-1 if key == _UNSEEN_LEVEL else self.segs.get(key, arm_level)
               for key in uniq.tolist()]
        return np.array(seg, dtype=np.int64)[inverse]


def _arm_cells(table: ObservationTable, d: int, spec: CellSpec,
               trains) -> tuple:
    """The ``_CellFit`` of arm ``d`` on each training set, and one
    ``_Cells`` with the cells of all of them.

    ``trains`` are boolean masks over the table's rows; a set's training
    rows are its selected rows of arm ``d``. The cell index is fitted on
    them in table order (its weighted-quantile edges depend on the order of
    tied covariate values). All the set's rows, in outcome order, make the
    arm-level surface, laid out first. Then each cell, in ascending key
    order, is the set's rows of that key taken from one stable sort of the
    arm by outcome, which is the stable sort of the cell by outcome; a cell
    whose rows all weigh zero is left out.
    """
    w = table.weight
    arm = np.flatnonzero((table.s == 1) & (table.d == d))
    by_y = arm.take(np.argsort(table.y.take(arm), kind="stable"))
    fits, seg_keys, segments = [], [], []
    for train in trains:
        rows = arm.compress(train.take(arm))
        w_rows = w.take(rows)
        if not (w_rows > 0).any():
            # the error waits for evaluation: a fold's fit may never be
            # asked about the arm it lacks
            fits.append(_CellFit(None, {}, np.full(table.n, _UNSEEN_LEVEL)))
            continue
        index = _CellIndex(table.x.take(rows, axis=0), w_rows, spec)
        keys = index.keys(table.x)
        ordered = by_y.compress(train.take(by_y))
        segs = {_ARM_LEVEL: len(segments)}
        seg_keys.append(_ARM_LEVEL)
        segments.append(ordered)
        cells = ordered.take(np.argsort(keys.take(ordered), kind="stable"))
        cell_keys = keys.take(cells)
        # a key below every cell key starts the first cell
        firsts = np.flatnonzero(np.diff(cell_keys, prepend=_UNSEEN_LEVEL - 1))
        weighed = np.logical_or.reduceat(w.take(cells) > 0, firsts)
        for key, a, b, keep in zip(cell_keys[firsts].tolist(), firsts.tolist(),
                                   firsts[1:].tolist() + [len(cells)],
                                   weighed.tolist()):
            if keep:
                segs[key] = len(segments)
                seg_keys.append(key)
                segments.append(cells[a:b])
        fits.append(_CellFit(index, segs, keys))
    return fits, _Cells(table.y, w, seg_keys, segments)


class _Plan:
    """The segment of arm ``d``'s ``cells`` that serves each row of ``x``:
    row ``i``, held out in fold ``fold[i]``, reads segment ``seg[i]`` (see
    ``_CellFit.segments``), or raises ``EmptyCellError`` when ``seg[i]`` is
    -1; ``fits`` are the arm's ``_CellFit`` of each fold.

    A call first raises for the lowest fold among its rows that raise.
    Otherwise it evaluates one tail of all its rows in one vectorized pass:
    a binary search that runs in every row's segment at once finds the
    quantile positions, and the tie runs give the truncation boundaries.
    Last it logs, in segment order, which is (fold, cell) order, the
    arm-level surfaces and the empty tails it read.
    """

    def __init__(self, cells: _Cells, d: int, fits, fold, seg, x):
        self.cells, self.d, self.fits = cells, d, fits
        self.fold, self.seg, self.x = fold, seg, x

    def _locate(self, seg, u):
        """The flat index of the left-continuous quantile at level ``u`` of
        each row of segment ``seg``: the row's cell position
        ``np.searchsorted(cw, u * total - 1e-12 * total, side="left")``,
        capped at the cell's last index.

        The search halves every row's window ``[base, base + n]`` in step
        until ``n`` is 1, keeping the first cumulative weight not below the
        target inside it. Cumulative weights never decrease (weights are
        non-negative), so with numpy's comparison, which puts NaN above
        every number, it lands where ``np.searchsorted`` does."""
        cells = self.cells
        start, length = cells.start[seg], cells.length[seg]
        total = cells.total_w[seg]
        v = u * total - 1e-12 * total
        nan = np.isnan(v)
        nan = nan if nan.any() else None
        cw = cells.cw

        def below(idx):
            probe = cw.take(idx)
            if nan is None:
                return probe < v
            return (probe < v) | (nan & ~np.isnan(probe))

        base, n = start, length
        for _ in range(int(length.max(initial=1) - 1).bit_length()):
            mid = base + (n >> 1)
            base = np.where(below(mid), mid, base)
            n = n - (n >> 1)
        return np.minimum(base + below(base), start + length - 1)

    def _log(self, seg, j, empty):
        """Log in segment order one warning for each arm-level surface that
        the rows read and one for each segment where the ``empty`` rows of
        tail ``j`` found no observation in the truncation region."""
        keys = self.cells.key
        counts = np.bincount(seg, minlength=len(keys))
        n_empty = np.bincount(seg[empty], minlength=len(keys))
        for k in np.flatnonzero(counts * (keys == _ARM_LEVEL) + n_empty).tolist():
            key = int(keys[k])
            if key == _ARM_LEVEL:
                logger.warning("%d rows in arm %d fall in cells with no "
                               "training rows; using the arm-level surface",
                               int(counts[k]), self.d)
            if n_empty[k]:
                what = f"arm {self.d} {'lower' if j == 1 else 'upper'} tail"
                logger.warning("empty truncation region (%s) in cell %d for "
                               "%d rows; using the cell mean", what, key,
                               int(n_empty[k]))

    def tail(self, rows, j: int, u) -> tuple:
        """Left-continuous quantiles of the queried rows' cells at levels
        ``u``, one level per row, and the truncated means below (``j=1``) or
        above (``j=0``) them, every tied observation at the threshold
        included. An empty truncation region takes the cell mean, with a
        log entry."""
        seg = self.seg[rows]
        cell_less = seg < 0
        if cell_less.any():
            fold = self.fold[rows]
            k = int(fold[cell_less].min())
            index = self.fits[k].index
            if index is None:
                raise EmptyCellError(
                    f"no selected training rows in arm {self.d}")
            raise index.unseen_level_error(self.x[rows[cell_less
                                                       & (fold == k)]])
        pos = self._locate(seg, u)
        cells = self.cells
        total_w, total_y = cells.total_w[seg], cells.total_y[seg]
        if j == 1:
            hi = cells.last[pos]
            num, den = cells.cy[hi], cells.cw[hi]
            full = u >= 1.0
        else:
            lo = cells.first[pos]
            below = lo > cells.start[seg]
            num = total_y - np.where(below, cells.cy[lo - 1], 0.0)
            den = total_w - np.where(below, cells.cw[lo - 1], 0.0)
            full = u <= 0.0
        empty = ~full & (den <= 0)
        self._log(seg, j, empty)
        ok = ~(full | empty)
        b = total_y / total_w
        b[ok] = num[ok] / den[ok]
        return cells.y[pos], b


class CellOutcomeSurface:
    """Weighted empirical quantile and truncated-mean surfaces on cells.

    Monotonicity in the quantile level holds by construction (one sorted
    copy per cell). Conventions at the edges: the level-1 quantile is the
    cell maximum; the lower truncated mean at level 1 and the upper one at
    level 0 both return the full cell mean. A row whose cell holds no
    training rows of the arm (its levels and bins were each seen, but not
    together) is evaluated on the arm-level surface, stored under cell key
    -1, with one warning per call; a discrete level never seen in the arm
    raises ``EmptyCellError``. Training rows count only in a cell or arm
    that holds positive weight: a cell whose rows all weigh zero is left
    out like an empty one, and so is an arm, whose rows then raise.

    Each arm's cells are laid out as ``crossfit`` lays out one fold's, and
    a call evaluates its rows through the same ``_Plan``.
    """

    def __init__(self, table: ObservationTable, spec: CellSpec):
        every = [np.ones(table.n, dtype=bool)]
        self.arms = {d: _arm_cells(table, d, spec, every) for d in (0, 1)}

    def tail(self, x, j, d, u) -> tuple:
        """Quantiles and ``j`` truncated means of arm ``d`` at the rows of
        ``x`` and levels ``u``, all of them held out in fold 0."""
        x = np.atleast_2d(x)
        (fit,), cells = self.arms[d]
        keys = (np.full(len(x), _UNSEEN_LEVEL) if fit.index is None
                else fit.index.keys(x))
        plan = _Plan(cells, d, [fit], np.zeros(len(x), dtype=np.int64),
                     fit.segments(keys), x)
        return plan.tail(np.arange(len(x)), j, np.asarray(u, dtype=float))

    def quantile(self, x, d, u) -> np.ndarray:
        return self.tail(x, 1, d, u)[0]

    def trunc_mean(self, x, j, d, u) -> np.ndarray:
        return self.tail(x, j, d, u)[1]


# ---------------------------------------------------------------------------
# learner specification and cross-fitting

@dataclass(frozen=True)
class LearnerSpec:
    """Which learners produce the bundle and how folds are formed."""

    cells: CellSpec = field(default_factory=CellSpec)
    folds: int = 5
    seed: int = 0
    propensity_known: Optional[float] = None   # fix m(x) to a constant if given


def fold_assignments(n: int, k: int, seed: int) -> np.ndarray:
    """Balanced fold ids from a seeded permutation (sizes differ by <= 1)."""
    if k < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    perm = rng.permutation(n)
    folds = np.empty(n, dtype=np.int64)
    folds[perm] = np.arange(n) % k
    return folds


def crossfit(table: ObservationTable, spec: LearnerSpec) -> NuisanceBundle:
    """Cross-fitted nuisance bundle: each row is scored by models trained on
    the complementary folds; truncated-mean surfaces reuse the quantile
    surface fitted on the same training folds.

    The table's design matrix ``[1, x]`` is built once; each fold's three
    logistic fits and their held-out predictions read its rows. Each arm's
    cells of every fold are laid out in one ``_Cells`` (see
    ``_arm_cells``): the arm's selected rows are sorted by outcome once,
    and each fold's cell index is fitted once and keys every row, training
    and held-out alike. The outcome surfaces are evaluated through one plan
    per arm, built on the first call for the arm: every held-out row's
    segment among the cells of its fold, with rows of an unseen cell on
    that fold's arm-level surface. A call then evaluates all its rows in
    one vectorized pass and reports the segments it read in (fold, cell)
    order.
    """
    n = table.n
    folds = fold_assignments(n, spec.folds, spec.seed)
    m = np.empty(n)
    s0 = np.empty(n)
    s1 = np.empty(n)
    design = _design(table.x)
    in_arm = [table.d == arm for arm in (0, 1)]
    held_out, trains = [], []
    for k in range(spec.folds):
        train = folds != k
        hold = np.flatnonzero(~train)
        x_hold = design.take(hold, axis=0)
        for arm, out in ((0, s0), (1, s1)):
            rows = np.flatnonzero(train & in_arm[arm])
            coef = _fit_selection(design, table, rows, arm)
            out[hold] = expit(x_hold @ coef)
        if spec.propensity_known is not None:
            m[hold] = spec.propensity_known
        else:
            rows = np.flatnonzero(train)
            coef = _fit_logistic(design.take(rows, axis=0), table.d.take(rows),
                                 table.weight.take(rows))
            m[hold] = expit(x_hold @ coef)
        held_out.append(hold)
        trains.append(train)
    arms = {d: _arm_cells(table, d, spec.cells, trains) for d in (0, 1)}
    plans = {}

    def tail_fn(rows, j, d, u):
        if d not in plans:
            fits, cells = arms[d]
            seg = np.empty(n, dtype=np.int64)
            for fit, hold in zip(fits, held_out):
                seg[hold] = fit.segments(fit.keys[hold])
            plans[d] = _Plan(cells, d, fits, folds, seg, table.x)
        return plans[d].tail(rows, j, u)

    return NuisanceBundle(m, s0, s1, tail_fn, provenance="cross_fitted")


# ---------------------------------------------------------------------------
# externally supplied predictions

def _interp_rows(xp, fp, x):
    """Row-wise ``np.interp(x[i], xp, fp[i])`` for levels ``xp`` shared by
    every row, with numpy's own arithmetic: a level at or beyond a grid end
    takes that end's value, a level on a grid point takes its value, and a
    NaN from the slope formula is retried from the right-hand point."""
    r = np.arange(len(fp))
    x = np.asarray(x, dtype=float)[r]
    if len(xp) == 1:
        return fp[:, 0].copy()
    j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, len(xp) - 2)
    x_lo, x_hi = xp[j], xp[j + 1]
    f_lo, f_hi = fp[r, j], fp[r, j + 1]
    with np.errstate(all="ignore"):
        slope = (f_hi - f_lo) / (x_hi - x_lo)
        out = slope * (x - x_lo) + f_lo
        retry = np.isnan(out)
        out[retry] = slope[retry] * (x[retry] - x_hi[retry]) + f_hi[retry]
    flat = np.isnan(out) & (f_lo == f_hi)
    out[flat] = f_lo[flat]
    at_point = x == x_lo
    out[at_point] = f_lo[at_point]
    out[x < xp[0]] = fp[x < xp[0], 0]
    out[x >= xp[-1]] = fp[x >= xp[-1], -1]
    nan = np.isnan(x)
    out[nan] = x[nan]
    return out


_GRID_COL = re.compile(r"^(q|b)_(\d)(?:_(\d))?_u(.+)$")


def _data_lines(fh):
    """The lines after the header; a blank one is an error, where
    ``np.loadtxt`` would skip it and shift every later row."""
    for i, line in enumerate(fh):
        if not line.strip():
            raise ValueError(f"nuisance file has a blank line at row {i}")
        yield line


def _read_nuisance_csv(path):
    """Header names and the float matrix of a nuisance CSV, parsed by
    numpy's C reader. A field that is not a number (quotes and surrounding
    spaces are allowed), a ragged row or a blank line is a ``ValueError``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError("nuisance file is empty")
        data = np.loadtxt(_data_lines(fh), delimiter=",", quotechar='"',
                          comments=None, ndmin=2, dtype=float)
    return header, data


def load_external_nuisances(path, table: ObservationTable,
                            provenance: str = "external") -> NuisanceBundle:
    """Bundle from a CSV of per-row predictions, row-aligned with the data.

    Required columns ``m,s0,s1``; optional per-level surface grids with
    columns ``q_<d>_u<level>`` and ``b_<j>_<d>_u<level>``, ``j`` and ``d``
    in {0, 1}, one column per level in [0, 1]. Surfaces are
    piecewise-linear in the level between grid points and clamped at the
    grid ends. Grid values are used as supplied: a quantile grid that
    decreases in the level is not monotonized.

    Every field must be numeric: an empty or ``NA`` field, a ragged row or
    a blank line raises ``ValueError``, as does a non-finite ``m``, ``s0``
    or ``s1``, a NaN grid value, and a ``q_``/``b_`` column that breaks
    the pattern (names of another shape are ignored). Grid values of ``inf``/``-inf`` are
    allowed (end-of-grid quantiles of an unbounded outcome).
    """
    header, data = _read_nuisance_csv(path)
    if data.shape[0] != table.n:
        raise ValueError(f"nuisance file has {data.shape[0]} rows, "
                         f"data has {table.n}")
    if data.shape[1] != len(header):
        raise ValueError(f"nuisance file rows have {data.shape[1]} fields, "
                         f"its header has {len(header)}")
    cols = {name: j for j, name in enumerate(header)}
    for required in ("m", "s0", "s1"):
        if required not in cols:
            raise ValueError(f"nuisance file missing column {required!r}")

    q_grids = {0: {}, 1: {}}
    b_grids = {(j, d): {} for j in (0, 1) for d in (0, 1)}
    nan_cols = np.isnan(data).any(axis=0)
    for name, jcol in cols.items():
        match = _GRID_COL.match(name)
        if not match:
            continue
        kind, first, second, level = match.groups()
        try:
            u = float(level)
        except ValueError:
            u = math.nan
        if ((second is None) != (kind == "q") or not 0.0 <= u <= 1.0
                or not {first, second} <= {"0", "1", None}):
            raise ValueError(
                f"nuisance column {name!r} is neither q_<d>_u<level> nor "
                f"b_<j>_<d>_u<level> with j and d in 0, 1 and a level in "
                f"[0, 1]")
        grid = (q_grids[int(first)] if kind == "q"
                else b_grids[(int(first), int(second))])
        if u in grid:
            raise ValueError(f"nuisance column {name!r} repeats the level of "
                             f"column {header[grid[u]]!r}")
        if nan_cols[jcol]:
            row = np.flatnonzero(np.isnan(data[:, jcol]))[0]
            raise ValueError(f"nuisance {name} is NaN at row {row}")
        grid[u] = jcol

    def make_interp(grid):
        if not grid:
            return None
        levels = np.array(sorted(grid))
        values = data[:, [grid[u] for u in levels]]

        def interp(rows_idx, u):
            return _interp_rows(levels, values[rows_idx], u)

        return interp

    q_interp = {d: make_interp(grid) for d, grid in q_grids.items()}
    b_interp = {key: make_interp(grid) for key, grid in b_grids.items()}

    def tail_fn(rows, j, d, u):
        q_fn, b_fn = q_interp[d], b_interp[(j, d)]
        if q_fn is None:
            raise ValueError(f"no quantile grid supplied for arm {d}")
        if b_fn is None:
            raise ValueError(f"no truncated-mean grid for (j={j}, d={d})")
        return q_fn(rows, u), b_fn(rows, u)

    return NuisanceBundle(data[:, cols["m"]], data[:, cols["s0"]],
                          data[:, cols["s1"]], tail_fn, provenance=provenance)
