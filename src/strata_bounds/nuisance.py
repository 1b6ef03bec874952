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
from dataclasses import dataclass, field
from functools import partial
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


@dataclass(frozen=True)
class _Group:
    """The rows of an evaluation plan that one cell of arm ``d`` serves.

    ``cell`` is the cell's ``_sorted_cell`` triple, or ``None`` when
    evaluating the rows raises ``EmptyCellError``: through ``index`` for
    an unseen discrete level, or because the arm had no training rows
    (``index`` is ``None``).
    """

    d: int
    key: int
    cell: Optional[tuple]
    index: Optional[_CellIndex]
    lenient: bool


class _Plan:
    """Rows grouped by training cell: row ``i`` of ``x`` belongs to
    ``groups[gid[i]]``. Groups are in evaluation order, so errors and
    warnings come in the order of the groups a query reads."""

    def __init__(self, gid: np.ndarray, groups: list, x: np.ndarray):
        self.gid = gid
        self.groups = groups
        self.x = x

    def evaluate(self, rows, u, kernel) -> np.ndarray:
        """``kernel(group, u)`` on the queried ``rows`` of each non-empty
        group, with ``u`` holding one level per queried row."""
        gid = self.gid[rows]
        order = np.argsort(gid, kind="stable")
        counts = np.bincount(gid, minlength=len(self.groups))
        ends = np.cumsum(counts)
        out = np.empty(len(rows))
        for g in np.flatnonzero(counts).tolist():
            group = self.groups[g]
            sel = order[ends[g] - counts[g]:ends[g]]
            if group.cell is None:
                if group.index is None:
                    raise EmptyCellError(
                        f"no selected training rows in arm {group.d}")
                raise group.index.unseen_level_error(self.x[rows[sel]])
            if group.key == _ARM_LEVEL:
                logger.warning("%d rows in arm %d fall in cells with no "
                               "training rows; using the arm-level surface",
                               len(sel), group.d)
            out[sel] = kernel(group, u[sel])
        return out


def _quantile_cell(group: _Group, u) -> np.ndarray:
    """Left-continuous quantiles of one cell at levels ``u``."""
    yv, cw, _ = group.cell
    return yv[_quantile_pos(cw, u)]


def _trunc_mean_cell(j: int, group: _Group, u) -> np.ndarray:
    """Truncated means of one cell at levels ``u``, below (``j=1``) or above
    (``j=0``) the ``u``-quantile, every tied observation at the threshold
    included. An empty truncation region takes the cell mean (with a log
    entry), or raises ``EmptyTailError`` when the cell spec is strict."""
    yv, cw, cy = group.cell
    q = yv[_quantile_pos(cw, u)]
    total_w, total_y = cw[-1], cy[-1]
    if j == 1:
        hi = np.searchsorted(yv, q, side="right") - 1
        num, den = cy[hi], cw[hi]
        full = u >= 1.0
    else:
        lo = np.searchsorted(yv, q, side="left")
        num = total_y - np.where(lo > 0, cy[lo - 1], 0.0)
        den = total_w - np.where(lo > 0, cw[lo - 1], 0.0)
        full = u <= 0.0
    empty = ~full & (den <= 0)
    if empty.any():
        what = f"arm {group.d} {'lower' if j == 1 else 'upper'} tail"
        if not group.lenient:
            raise EmptyTailError(f"no observation in truncation region ({what})")
        logger.warning("empty truncation region (%s) in cell %d for %d rows; "
                       "using the cell mean", what, group.key, int(empty.sum()))
    ok = ~(full | empty)
    out = np.full(len(u), total_y / total_w)
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
    raises ``EmptyCellError``.
    """

    def __init__(self, table: ObservationTable, spec: CellSpec):
        self.spec = spec
        sel = table.s == 1
        self.index = {}
        self.cells = {}
        for d in (0, 1):
            mask = sel & (table.d == d)
            if not mask.any():
                # error deferred to evaluation time: half-sample fits may
                # legitimately never be asked about the missing arm
                self.index[d] = None
                self.cells[d] = None
                continue
            xi = table.x[mask]
            wi = table.weight[mask]
            yi = table.y[mask]
            cidx = _CellIndex(xi, wi, spec)
            keys = cidx.keys(xi)
            cells = {int(key): _sorted_cell(yi[keys == key], wi[keys == key])
                     for key in np.unique(keys)}
            cells[_ARM_LEVEL] = _sorted_cell(yi, wi)
            self.index[d] = cidx
            self.cells[d] = cells

    def plan(self, d, x) -> _Plan:
        """Group the rows of ``x`` by training cell of arm ``d``, in cell-key
        order: rows with an unseen discrete level (key -2, which raises),
        rows of a cell with no training rows of the arm (the arm-level
        surface, key -1), then the cells in ascending key order."""
        x = np.atleast_2d(x)
        lenient = self.spec.lenient_tails
        index = self.index[d]
        if index is None:
            return _Plan(np.zeros(x.shape[0], dtype=np.int64),
                         [_Group(d, _UNSEEN_LEVEL, None, None, lenient)], x)
        cells = self.cells[d]
        keys = index.keys(x)
        uniq, gid = np.unique(keys, return_inverse=True)
        seen = np.array([key in cells or key == _UNSEEN_LEVEL
                         for key in uniq.tolist()])
        if not seen.all():
            uniq, gid = np.unique(np.where(seen[gid], keys, _ARM_LEVEL),
                                  return_inverse=True)
        groups = [_Group(d, key, cells.get(key), index, lenient)
                  for key in uniq.tolist()]
        return _Plan(gid, groups, x)

    def quantile(self, x, d, u) -> np.ndarray:
        plan = self.plan(d, x)
        return plan.evaluate(np.arange(len(plan.gid)),
                             np.asarray(u, dtype=float), _quantile_cell)

    def trunc_mean(self, x, j, d, u) -> np.ndarray:
        plan = self.plan(d, x)
        return plan.evaluate(np.arange(len(plan.gid)),
                             np.asarray(u, dtype=float),
                             partial(_trunc_mean_cell, j))


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
    arm-level surface. A call then sorts its rows by group once and runs
    the per-cell kernel once per group it reads, in (fold, cell) order.
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
            gid = np.empty(n, dtype=np.int64)
            groups = []
            for hold, surface in zip(held_out, surfaces):
                fold_plan = surface.plan(d, table.x[hold])
                gid[hold] = fold_plan.gid + len(groups)
                groups += fold_plan.groups
            plans[d] = _Plan(gid, groups, table.x)
        return plans[d]

    def quantile_fn(rows, d, u):
        return plan(d).evaluate(rows, u, _quantile_cell)

    def trunc_mean_fn(rows, j, d, u):
        return plan(d).evaluate(rows, u, partial(_trunc_mean_cell, j))

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
