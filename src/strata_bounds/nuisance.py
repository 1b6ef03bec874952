"""Nuisance learners, cross-fitting, and externally supplied predictions.

Built-in learners are deliberately simple: a damped-Newton logistic model
for the probability surfaces and cell-based weighted empirical quantiles
and truncated means for the outcome surfaces. Flexible machine-learning
predictions enter through the external CSV channel instead.
"""

from __future__ import annotations

import csv
import logging
import re
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.special import expit

from .data_model import NuisanceBundle, ObservationTable
from .errors import EmptyCellError, EmptyTailError, SeparationWarning

logger = logging.getLogger("strata_bounds")


# ---------------------------------------------------------------------------
# logistic probability learner

def _fit_logistic(X, y, w, tol: float = 1e-8, max_iter: int = 100):
    """Weighted logistic regression by damped Newton iterations.

    Stops at gradient norm <= tol or after max_iter steps; warns on
    quasi-separation (fitted index beyond +-30).
    """
    Xd = np.column_stack([np.ones(len(y)), X])
    coef = np.zeros(Xd.shape[1])
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)

    def nll(c):
        eta = Xd @ c
        return float(np.sum(w * (np.logaddexp(0.0, eta) - y * eta)))

    loss = nll(coef)
    for _ in range(max_iter):
        eta = Xd @ coef
        p = expit(eta)
        grad = Xd.T @ (w * (p - y))
        if np.linalg.norm(grad) <= tol:
            break
        hess = Xd.T @ (Xd * (w * p * (1.0 - p))[:, None])
        hess += 1e-10 * np.eye(Xd.shape[1])
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        while scale > 1e-6:
            cand = coef - scale * step
            cand_loss = nll(cand)
            if cand_loss <= loss + 1e-12:
                coef, loss = cand, cand_loss
                break
            scale /= 2.0
        else:
            break
    if np.max(np.abs(Xd @ coef)) > 30.0:
        warnings.warn("fitted logistic index exceeds +-30 (quasi-separation)",
                      SeparationWarning)
    return coef


def logistic_predict(coef, X):
    Xd = np.column_stack([np.ones(X.shape[0]), X])
    return expit(Xd @ coef)


def fit_selection(table: ObservationTable, arm: int):
    """Fit P(S=1 | X) on one treatment arm; returns an x -> probability map."""
    mask = table.d == arm
    if not mask.any():
        raise EmptyCellError(f"no rows in treatment arm {arm}")
    coef = _fit_logistic(table.x[mask], table.s[mask], table.weight[mask])
    return lambda X: logistic_predict(coef, np.atleast_2d(X))


def fit_propensity(table: ObservationTable):
    """Fit P(D=1 | X) on the full sample."""
    coef = _fit_logistic(table.x, table.d, table.weight)
    return lambda X: logistic_predict(coef, np.atleast_2d(X))


# ---------------------------------------------------------------------------
# cell-based outcome surfaces

@dataclass(frozen=True)
class CellSpec:
    """How to partition the covariate space into evaluation cells.

    ``discrete_cols`` are used as-is; every other column is cut at its
    weighted training quantiles into ``n_bins`` bins. ``lenient_tails``
    substitutes the cell mean (with a log entry) when a truncation region
    contains no training mass instead of raising.
    """

    discrete_cols: tuple = ()
    n_bins: int = 1
    lenient_tails: bool = True


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

    def _level_index(self, j, col):
        """Index of each value of discrete column ``j`` among its training
        levels, and whether the value is one of them."""
        lv = self.levels[j]
        idx = np.clip(np.searchsorted(lv, col), 0, len(lv) - 1)
        return idx, np.isclose(lv[idx], col)

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
        keys = np.ravel_multi_index(parts, dims).astype(np.int64)
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


def _sorted_cell(y, w):
    """Outcomes in ascending order with their cumulative weights and
    cumulative weighted outcomes."""
    order = np.argsort(y, kind="stable")
    yv, wv = y[order], w[order]
    return yv, np.cumsum(wv), np.cumsum(wv * yv)


#: The one-row segment that ends every ``_Cells``. The rows of a group that
#: raises ``EmptyCellError`` read it, so a call can evaluate all its rows
#: before it walks the groups.
_PLACEHOLDER = (np.zeros(1), np.ones(1), np.zeros(1))


class _Cells:
    """Sorted cells laid end to end in flat arrays.

    Segment ``k`` holds one cell's ``_sorted_cell`` triple at flat indices
    ``start[k]`` to ``start[k] + length[k] - 1`` of ``y``, ``cw`` and
    ``cy``. ``first[i]`` and ``last[i]`` are the flat indices where the run
    of outcomes tied with ``y[i]`` begins and ends; a run never leaves its
    segment, so they are ``np.searchsorted(yv, yv[i], "left")`` and
    ``np.searchsorted(yv, yv[i], "right") - 1`` within the cell (NaNs tie
    with each other, as in numpy's sort order). The last segment is always
    ``_PLACEHOLDER``.
    """

    def __init__(self, y, cw, cy, start, length, first, last):
        self.y, self.cw, self.cy = y, cw, cy
        self.start, self.length = start, length
        self.first, self.last = first, last

    @classmethod
    def of(cls, cells) -> "_Cells":
        """The ``_sorted_cell`` triples ``cells`` in order, then the
        placeholder."""
        y, cw, cy = (np.concatenate(col) for col in zip(*cells, _PLACEHOLDER))
        length = np.array([len(cell[0]) for cell in cells] + [1])
        start = np.cumsum(length) - length
        new = np.ones(len(y), dtype=bool)
        new[1:] = (y[1:] != y[:-1]) & ~(np.isnan(y[1:]) & np.isnan(y[:-1]))
        new[start] = True
        idx = np.arange(len(y))
        first = np.maximum.accumulate(np.where(new, idx, 0))
        ends = np.append(new[1:], True)
        last = np.minimum.accumulate(np.where(ends, idx, len(y))[::-1])[::-1]
        return cls(y, cw, cy, start, length, first, last)

    @classmethod
    def concat(cls, parts) -> tuple:
        """``parts`` end to end, and the index of each part's first segment."""
        flat = np.cumsum([0] + [len(p.y) for p in parts])
        segs = np.cumsum([0] + [len(p.start) for p in parts])

        def join(name):
            return np.concatenate([getattr(p, name) for p in parts])

        def shifted(name):
            return np.concatenate([getattr(p, name) + flat[k]
                                   for k, p in enumerate(parts)])

        return (cls(join("y"), join("cw"), join("cy"), shifted("start"),
                    join("length"), shifted("first"), shifted("last")),
                segs[:-1].tolist())


@dataclass(frozen=True)
class _Group:
    """The rows of an evaluation plan that one cell of arm ``d`` serves.

    ``seg`` is the cell's segment in the plan's ``_Cells``, or ``None`` when
    evaluating the rows raises ``EmptyCellError``: through ``index`` for
    an unseen discrete level, or because the arm had no training rows
    (``index`` is ``None``).
    """

    d: int
    key: int
    seg: Optional[int]
    index: Optional[_CellIndex]
    lenient: bool


class _Plan:
    """Rows grouped by training cell: row ``i`` of ``x`` belongs to
    ``groups[gid[i]]``, whose outcomes are a segment of ``cells``.

    A call evaluates all its rows in one vectorized pass: a binary search
    that runs in every row's segment at once finds the quantile positions,
    and the tie runs give the truncation boundaries. It then walks the
    groups it read in their order, which is evaluation order, to log the
    arm-level surface and empty tails and to raise the first error. Rows
    whose group raises read the placeholder segment until then.
    """

    def __init__(self, gid: np.ndarray, groups: list, x: np.ndarray,
                 cells: _Cells):
        self.gid = gid
        self.groups = groups
        self.x = x
        self.cells = cells
        placeholder = len(cells.start) - 1
        seg = np.array([placeholder if g.seg is None else g.seg
                        for g in groups], dtype=np.int64)
        self.start = cells.start[seg]
        self.length = cells.length[seg]
        end = self.start + self.length - 1
        self.total_w = cells.cw[end]
        self.total_y = cells.cy[end]
        self.noisy = np.array([g.seg is None or g.key == _ARM_LEVEL
                               for g in groups])

    def _locate(self, rows, u):
        """The group of each queried row and the flat index of its
        left-continuous quantile at level ``u``: the row's cell position
        ``np.searchsorted(cw, u * total - 1e-12 * total, side="left")``,
        capped at the cell's last index.

        The search halves every row's window ``[base, base + n]`` in step
        until ``n`` is 1, keeping the first cumulative weight not below the
        target inside it. Cumulative weights never decrease (weights are
        non-negative), so with numpy's comparison, which puts NaN above
        every number, it lands where ``np.searchsorted`` does."""
        g = self.gid[rows]
        start, length, total = self.start[g], self.length[g], self.total_w[g]
        v = u * total - 1e-12 * total
        nan = np.isnan(v)
        nan = nan if nan.any() else None
        cw = self.cells.cw

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
        return g, np.minimum(base + below(base), start + length - 1)

    def _walk(self, rows, g, j=None, empty=None):
        """Log or raise for the groups that the rows read, in group order:
        ``EmptyCellError`` for a group without a cell, one warning for each
        arm-level group, and for truncated means (``j``) with ``empty``
        rows an ``EmptyTailError`` when the group is strict or a warning."""
        counts = np.bincount(g, minlength=len(self.groups))
        flagged = counts * self.noisy
        if empty is not None:
            n_empty = np.bincount(g[empty], minlength=len(self.groups))
            flagged = flagged + n_empty
        for k in np.flatnonzero(flagged).tolist():
            group = self.groups[k]
            if group.seg is None:
                if group.index is None:
                    raise EmptyCellError(
                        f"no selected training rows in arm {group.d}")
                raise group.index.unseen_level_error(self.x[rows[g == k]])
            if group.key == _ARM_LEVEL:
                logger.warning("%d rows in arm %d fall in cells with no "
                               "training rows; using the arm-level surface",
                               int(counts[k]), group.d)
            if empty is not None and n_empty[k]:
                what = f"arm {group.d} {'lower' if j == 1 else 'upper'} tail"
                if not group.lenient:
                    raise EmptyTailError(
                        f"no observation in truncation region ({what})")
                logger.warning("empty truncation region (%s) in cell %d for "
                               "%d rows; using the cell mean", what, group.key,
                               int(n_empty[k]))

    def quantile(self, rows, u) -> np.ndarray:
        """Left-continuous quantiles of the queried rows' cells at levels
        ``u``, one level per row."""
        g, pos = self._locate(rows, u)
        self._walk(rows, g)
        return self.cells.y[pos]

    def trunc_mean(self, rows, j: int, u) -> np.ndarray:
        """Truncated means of the queried rows' cells at levels ``u``, below
        (``j=1``) or above (``j=0``) the ``u``-quantile, every tied
        observation at the threshold included. An empty truncation region
        takes the cell mean (with a log entry), or raises ``EmptyTailError``
        when the cell spec is strict."""
        g, pos = self._locate(rows, u)
        cells = self.cells
        total_w, total_y = self.total_w[g], self.total_y[g]
        if j == 1:
            hi = cells.last[pos]
            num, den = cells.cy[hi], cells.cw[hi]
            full = u >= 1.0
        else:
            lo = cells.first[pos]
            below = lo > self.start[g]
            num = total_y - np.where(below, cells.cy[lo - 1], 0.0)
            den = total_w - np.where(below, cells.cw[lo - 1], 0.0)
            full = u <= 0.0
        empty = ~full & (den <= 0)
        self._walk(rows, g, j, empty)
        ok = ~(full | empty)
        out = total_y / total_w
        out[ok] = num[ok] / den[ok]
        return out


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

    Each arm's cells are laid out once, at construction, in one ``_Cells``;
    a call groups its rows by cell and evaluates them in one pass.
    """

    def __init__(self, table: ObservationTable, spec: CellSpec):
        self.spec = spec
        sel = table.s == 1
        self.index = {}
        self.cells = {}
        self.flat = {}
        self.segs = {}
        for d in (0, 1):
            mask = sel & (table.d == d)
            if not (table.weight[mask] > 0).any():
                # error deferred to evaluation time: half-sample fits may
                # legitimately never be asked about the missing arm
                self.index[d] = None
                self.cells[d] = None
                self.flat[d] = _Cells.of([])
                self.segs[d] = {}
                continue
            xi = table.x[mask]
            wi = table.weight[mask]
            yi = table.y[mask]
            cidx = _CellIndex(xi, wi, spec)
            keys = cidx.keys(xi)
            cells = {int(key): _sorted_cell(yi[keys == key], wi[keys == key])
                     for key in np.unique(keys) if (wi[keys == key] > 0).any()}
            cells[_ARM_LEVEL] = _sorted_cell(yi, wi)
            self.index[d] = cidx
            self.cells[d] = cells
            self.flat[d] = _Cells.of(list(cells.values()))
            self.segs[d] = {key: k for k, key in enumerate(cells)}

    def groups(self, d, x) -> tuple:
        """Each row's group id, and the groups of the rows of ``x`` by
        training cell of arm ``d``, in cell-key order: rows with an unseen
        discrete level (key -2, which raises), rows of a cell with no
        training rows of the arm (the arm-level surface, key -1), then the
        cells in ascending key order."""
        x = np.atleast_2d(x)
        lenient = self.spec.lenient_tails
        index = self.index[d]
        if index is None:
            return (np.zeros(x.shape[0], dtype=np.int64),
                    [_Group(d, _UNSEEN_LEVEL, None, None, lenient)])
        segs = self.segs[d]
        keys = index.keys(x)
        uniq, gid = np.unique(keys, return_inverse=True)
        seen = np.array([key in segs or key == _UNSEEN_LEVEL
                         for key in uniq.tolist()])
        if not seen.all():
            uniq, gid = np.unique(np.where(seen[gid], keys, _ARM_LEVEL),
                                  return_inverse=True)
        return gid, [_Group(d, key, segs.get(key), index, lenient)
                     for key in uniq.tolist()]

    def plan(self, d, x) -> _Plan:
        """The rows of ``x`` grouped as ``groups`` does, on arm ``d``'s
        cells."""
        x = np.atleast_2d(x)
        return _Plan(*self.groups(d, x), x, self.flat[d])

    def quantile(self, x, d, u) -> np.ndarray:
        plan = self.plan(d, x)
        return plan.quantile(np.arange(len(plan.gid)),
                             np.asarray(u, dtype=float))

    def trunc_mean(self, x, j, d, u) -> np.ndarray:
        plan = self.plan(d, x)
        return plan.trunc_mean(np.arange(len(plan.gid)), j,
                               np.asarray(u, dtype=float))


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

    The outcome surfaces are evaluated through one plan per arm, built on
    the first call for the arm: every row's group over (fold, training
    cell of that fold), with rows of an unseen cell on that fold's
    arm-level surface, and the folds' flat cell arrays joined end to end.
    A call then evaluates all its rows in one vectorized pass and reports
    the groups it read in (fold, cell) order.
    """
    n = table.n
    folds = fold_assignments(n, spec.folds, spec.seed)
    m = np.empty(n)
    s0 = np.empty(n)
    s1 = np.empty(n)
    held_out = []
    surfaces = []
    for k in range(spec.folds):
        hold = folds == k
        train = table.select(~hold)
        sel0 = fit_selection(train, 0)
        sel1 = fit_selection(train, 1)
        s0[hold] = sel0(table.x[hold])
        s1[hold] = sel1(table.x[hold])
        if spec.propensity_known is not None:
            m[hold] = spec.propensity_known
        else:
            prop = fit_propensity(train)
            m[hold] = prop(table.x[hold])
        held_out.append(np.flatnonzero(hold))
        surfaces.append(CellOutcomeSurface(train, spec.cells))
    plans = {}

    def plan(d):
        if d not in plans:
            cells, offsets = _Cells.concat([s.flat[d] for s in surfaces])
            gid = np.empty(n, dtype=np.int64)
            groups = []
            for hold, surface, offset in zip(held_out, surfaces, offsets):
                fold_gid, fold_groups = surface.groups(d, table.x[hold])
                gid[hold] = fold_gid + len(groups)
                groups += [g if g.seg is None else replace(g, seg=g.seg + offset)
                           for g in fold_groups]
            plans[d] = _Plan(gid, groups, table.x, cells)
        return plans[d]

    def quantile_fn(rows, d, u):
        return plan(d).quantile(rows, u)

    def trunc_mean_fn(rows, j, d, u):
        return plan(d).trunc_mean(rows, j, u)

    return NuisanceBundle(m, s0, s1, quantile_fn, trunc_mean_fn,
                          provenance="cross_fitted")


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
    columns ``q_<d>_u<level>`` and ``b_<j>_<d>_u<level>``. Surfaces are
    piecewise-linear in the level between grid points and clamped at the
    grid ends. Grid values are used as supplied: a quantile grid that
    decreases in the level is not monotonized.

    Every field must be numeric: an empty or ``NA`` field, a ragged row or
    a blank line raises ``ValueError``, as does a non-finite ``m``, ``s0``
    or ``s1`` and a NaN grid value. Grid values of ``inf``/``-inf`` are
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
        if nan_cols[jcol]:
            row = np.flatnonzero(np.isnan(data[:, jcol]))[0]
            raise ValueError(f"nuisance {name} is NaN at row {row}")
        kind, first, second, level = match.groups()
        u = float(level)
        if kind == "q":
            q_grids[int(first)][u] = jcol
        else:
            if second is None:
                raise ValueError(f"bad truncated-mean column {name!r}")
            b_grids[(int(first), int(second))][u] = jcol

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

    def quantile_fn(rows, d, u):
        fn = q_interp[d]
        if fn is None:
            raise ValueError(f"no quantile grid supplied for arm {d}")
        return fn(rows, u)

    def trunc_mean_fn(rows, j, d, u):
        fn = b_interp[(j, d)]
        if fn is None:
            raise ValueError(f"no truncated-mean grid for (j={j}, d={d})")
        return fn(rows, u)

    return NuisanceBundle(data[:, cols["m"]], data[:, cols["s0"]],
                          data[:, cols["s1"]], quantile_fn, trunc_mean_fn,
                          provenance=provenance)
