"""Shared test machinery: closed-form outcome mixtures, a discrete design
with exact conditional-moment enumeration, a discrete-grid process for
brute-force bound checks, reference loops for the cell outcome surfaces
(per row, and the per-fold cross-fitted loop), the data CSV reader and the
nuisance CSV reader, the survivor-subset trim estimator, and a scalar
quadrature reference for the benchmark design's population targets."""

import csv
import logging
import math
import re
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import ndtr

from strata_bounds.data_model import (XMINUS, XPLUS, XZERO, NuisanceBundle,
                                      ObservationTable, Side, Stratum)
from strata_bounds.errors import AllTrimmedError, EmptyCellError
from strata_bounds.estimation import _estimate, ratio_estimate
from strata_bounds.influence import eif_regular
from strata_bounds.identification import SupportBounds
from strata_bounds.nuisance import (CellSpec, LearnerSpec, _CellIndex,
                                    _quantile_pos, crossfit, fold_assignments)
from strata_bounds.simulation import (PANEL_SHARES, TRUNC_HI, TRUNC_LO,
                                      _TRUNC_MASN, DesignAtoms, DgpConfig,
                                      dgp_sample,
                                      _mix_censored_var, _mix_ppf, _mix_tail)
from strata_bounds.smoothing import GFamily


def pair_tail(qfn, bfn):
    """A ``NuisanceBundle`` tail evaluator from a quantile closure
    ``qfn(rows, d, u)`` and a truncated-mean closure ``bfn(rows, j, d, u)``,
    called in that order."""
    return lambda rows, j, d, u: (qfn(rows, d, u), bfn(rows, j, d, u))


class Pieces:
    """Piecewise-uniform outcome mixture with exact tail means."""

    def __init__(self, weights, lows, highs):
        w = np.asarray(weights, float)
        self.w = w / w.sum()
        self.lo = np.asarray(lows, float)
        self.hi = np.asarray(highs, float)

    @property
    def support(self):
        return float(self.lo.min()), float(self.hi.max())

    def cdf(self, y):
        return float(np.sum(self.w * np.clip((y - self.lo) / (self.hi - self.lo),
                                             0.0, 1.0)))

    def ppf(self, u):
        if u <= 0.0:
            return self.support[0]
        if u >= 1.0:
            return self.support[1]
        lo, hi = self.support
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) >= u:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def partial(self, q, k=1):
        b = np.clip(q, self.lo, self.hi)
        return float(np.sum(self.w * (b ** (k + 1) - self.lo ** (k + 1))
                            / ((k + 1) * (self.hi - self.lo))))

    def mean(self):
        return float(np.sum(self.w * (self.lo + self.hi) / 2.0))

    def trunc_below(self, u):
        if u <= 0.0:
            return self.support[0]
        if u >= 1.0:
            return self.mean()
        return self.partial(self.ppf(u)) / u

    def trunc_above(self, u):
        if u >= 1.0:
            return self.support[1]
        if u <= 0.0:
            return self.mean()
        return (self.mean() - self.partial(self.ppf(u))) / (1.0 - u)

    def censored_var_below(self, level):
        q = self.ppf(level)
        return self.partial(q, 2) - self.partial(q, 1) ** 2

    def nodes(self, extra_breaks=(), order=8):
        """Integration nodes exact for piecewise polynomials between breaks."""
        xs, ws = leggauss(order)
        ys, wts = [], []
        for w, lo, hi in zip(self.w, self.lo, self.hi):
            breaks = sorted({lo, hi, *[b for b in extra_breaks if lo < b < hi]})
            dens = w / (hi - lo)
            for a, b in zip(breaks[:-1], breaks[1:]):
                ys.append(0.5 * (b - a) * xs + 0.5 * (a + b))
                wts.append(0.5 * (b - a) * ws * dens)
        return np.concatenate(ys), np.concatenate(wts)


class DPoint:
    """One covariate point of a discrete design with continuous outcomes."""

    def __init__(self, m, s0, s1, dist1: Pieces, dist0: Pieces, prob=1.0):
        self.m, self.s0, self.s1, self.prob = m, s0, s1, prob
        self.dist = {1: dist1, 0: dist0}

    @property
    def p0(self):
        return self.s0 / self.s1

    @property
    def label(self):
        diff = self.s1 - self.s0
        return 0 if diff == 0 else (1 if diff > 0 else -1)

    def bundle(self, n) -> NuisanceBundle:
        def qfn(rows, d, u):
            dist = self.dist[d]
            return np.array([dist.ppf(ui) for ui in np.atleast_1d(u)])

        def bfn(rows, j, d, u):
            dist = self.dist[d]
            f = dist.trunc_below if j == 1 else dist.trunc_above
            return np.array([f(ui) for ui in np.atleast_1d(u)])

        return NuisanceBundle(np.full(n, self.m), np.full(n, self.s0),
                              np.full(n, self.s1), pair_tail(qfn, bfn),
                              provenance="oracle")

    def support(self) -> SupportBounds:
        lo1, hi1 = self.dist[1].support
        lo0, hi0 = self.dist[0].support
        return SupportBounds(y1_lower=lo1, y1_upper=hi1,
                             y0_lower=lo0, y0_upper=hi0)

    def enumerate(self, moment_fn, u_breaks=None):
        """Exact E[psi-components | X = this point] over (D, S, Y).

        ``moment_fn(table, bundle)`` returns moment rows; ``u_breaks`` maps
        each arm to the quantile levels whose thresholds the moment uses,
        so integration pieces split exactly at the indicator jumps.
        """
        u_breaks = u_breaks or {}
        cells = []
        for d in (0, 1):
            pd = self.m if d == 1 else 1.0 - self.m
            sd = self.s1 if d == 1 else self.s0
            cells.append((np.array([np.nan]), np.array([pd * (1.0 - sd)]), 0, d))
            breaks = [self.dist[d].ppf(u) for u in u_breaks.get(d, ())]
            ys, ws = self.dist[d].nodes(breaks)
            cells.append((ys, ws * pd * sd, 1, d))
        totals = None
        for ys, ws, s, d in cells:
            n = len(ys)
            table = ObservationTable(y=ys if s else np.full(n, np.nan),
                                     s=np.full(n, s), d=np.full(n, d),
                                     x=np.zeros((n, 1)), weight=np.ones(n))
            rows = moment_fn(table, self.bundle(n))
            if hasattr(rows, "psi_b_plus"):
                comps = (rows.psi_b_plus, rows.psi_s_plus,
                         rows.psi_b_minus, rows.psi_s_minus)
            else:
                comps = (rows.psi_b, rows.psi_s)
            vals = [float(np.sum(ws * c)) for c in comps]
            totals = vals if totals is None else [a + b for a, b in zip(totals, vals)]
        return totals


def standard_points():
    """One point per partition, with mixture outcomes on both arms."""
    plus = DPoint(m=0.4, s0=0.55, s1=0.8, prob=0.45,
                  dist1=Pieces([0.5, 0.5], [0.0, 1.2], [1.0, 2.6]),
                  dist0=Pieces([1.0], [-0.5], [1.3]))
    minus = DPoint(m=0.65, s0=0.7, s1=0.45, prob=0.35,
                   dist1=Pieces([1.0], [0.2], [1.6]),
                   dist0=Pieces([0.4, 0.6], [-1.0, 0.5], [0.4, 2.0]))
    zero = DPoint(m=0.5, s0=0.6, s1=0.6, prob=0.2,
                  dist1=Pieces([1.0], [0.0], [2.0]),
                  dist0=Pieces([1.0], [-1.0], [1.0]))
    return plus, minus, zero


# ---------------------------------------------------------------------------
# discrete-outcome process for brute-force bound enumeration

class GridPmf:
    """Outcome pmf on a finite grid with fractional-mass trimming."""

    def __init__(self, values, probs):
        order = np.argsort(values)
        self.v = np.asarray(values, float)[order]
        p = np.asarray(probs, float)[order]
        self.p = p / p.sum()
        self.cum = np.cumsum(self.p)

    def mean(self):
        return float(np.dot(self.v, self.p))

    def quantile(self, u):
        """Smallest grid value with cdf >= u."""
        if u <= 0.0:
            return float(self.v[0])
        idx = int(np.searchsorted(self.cum, min(u, 1.0) - 1e-13))
        return float(self.v[min(idx, len(self.v) - 1)])

    def trunc_below(self, u):
        """Mean of the bottom-u mass, splitting the threshold atom."""
        if u <= 0.0:
            return float(self.v[0])
        if u >= 1.0:
            return self.mean()
        q = self.quantile(u)
        below = self.v < q
        mass_below = float(self.p[below].sum())
        total = float(np.dot(self.v[below], self.p[below]))
        total += q * (u - mass_below)
        return total / u

    def trunc_above(self, u):
        if u >= 1.0:
            return float(self.v[-1])
        if u <= 0.0:
            return self.mean()
        return (self.mean() - u * self.trunc_below(u)) / (1.0 - u)


def grid_design(seed=7, n_grid=100):
    """Three covariate points with outcome pmfs on a shared finite grid."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(-1.0, 2.0, n_grid)
    points = []
    for m, s0, s1, prob in ((0.4, 0.5, 0.8, 0.5), (0.6, 0.75, 0.5, 0.3),
                            (0.5, 0.6, 0.6, 0.2)):
        points.append({"m": m, "s0": s0, "s1": s1, "prob": prob,
                       "pmf": {1: GridPmf(grid, rng.dirichlet(np.ones(n_grid))),
                               0: GridPmf(grid, rng.dirichlet(np.ones(n_grid)))},
                       "support": (float(grid[0]), float(grid[-1]))})
    return points


def grid_bundle_and_table(points):
    """Package-facing inputs whose surfaces carry the grid pmfs."""
    n = len(points)
    s0 = np.array([p["s0"] for p in points])
    s1 = np.array([p["s1"] for p in points])
    m = np.array([p["m"] for p in points])

    def qfn(rows, d, u):
        return np.array([points[r]["pmf"][d].quantile(ui)
                         for r, ui in zip(np.atleast_1d(rows), u)])

    def bfn(rows, j, d, u):
        out = []
        for r, ui in zip(np.atleast_1d(rows), u):
            pmf = points[r]["pmf"][d]
            out.append(pmf.trunc_below(ui) if j == 1 else pmf.trunc_above(ui))
        return np.array(out)

    bundle = NuisanceBundle(m, s0, s1, pair_tail(qfn, bfn), provenance="oracle")
    table = ObservationTable(y=np.ones(n), s=np.ones(n, int),
                             d=np.zeros(n, int), x=np.arange(n)[:, None],
                             weight=np.array([p["prob"] for p in points]))
    lo, hi = points[0]["support"]
    support = SupportBounds(y1_lower=lo, y1_upper=hi, y0_lower=lo, y0_upper=hi)
    return bundle, table, support


def dpoint_atoms(points, sigma1_sq, sigma0_sq) -> DesignAtoms:
    """A discrete design as covariate atoms: one row per ``DPoint`` with its
    ``prob`` as weight, surfaces and supports from the points' outcome
    laws, and the given per-point censored outcome variances."""
    n = len(points)

    def qfn(rows, d, u):
        return np.array([points[r].dist[d].ppf(ui)
                         for r, ui in zip(np.atleast_1d(rows), u)])

    def bfn(rows, j, d, u):
        out = []
        for r, ui in zip(np.atleast_1d(rows), u):
            dist = points[r].dist[d]
            out.append(dist.trunc_below(ui) if j == 1 else dist.trunc_above(ui))
        return np.array(out)

    bundle = NuisanceBundle(np.array([p.m for p in points]),
                            np.array([p.s0 for p in points]),
                            np.array([p.s1 for p in points]),
                            pair_tail(qfn, bfn), provenance="oracle")
    table = ObservationTable(y=np.ones(n), s=np.ones(n, int),
                             d=np.zeros(n, int), x=np.arange(n)[:, None],
                             weight=np.array([p.prob for p in points]))
    limits = np.array([[*p.dist[1].support, *p.dist[0].support] for p in points])
    support = SupportBounds(*limits.T)
    return DesignAtoms(table, bundle, support, np.asarray(sigma1_sq, float),
                       np.asarray(sigma0_sq, float))


def direct_grid_bound(points, stratum, side, dominance):
    """From-scratch enumeration of the trimmed-mean bound formulas."""
    lo, hi = points[0]["support"]
    num = den = 0.0
    for p in points:
        s0, s1 = p["s0"], p["s1"]
        p0 = s0 / s1
        t1, r0 = min(p0, 1.0), min(1.0 / p0, 1.0)
        pmf1, pmf0 = p["pmf"][1], p["pmf"][0]
        if stratum == "at":
            w = min(s0, s1)
            if side == "l":
                bx = (pmf1.mean() if dominance else pmf1.trunc_below(t1)) \
                    - pmf0.trunc_above(1.0 - r0)
            else:
                bx = pmf1.trunc_above(1.0 - t1) \
                    - (pmf0.mean() if dominance else pmf0.trunc_below(r0))
        else:
            w_c = max(0.0, s1 - s0)
            w_d = max(0.0, s0 - s1)
            w = w_c if stratum == "c" else w_c + w_d
            if w == 0.0:
                bx = 0.0
            elif w_c > 0:
                if side == "l":
                    bx = pmf1.trunc_below(1.0 - t1) \
                        - (pmf0.mean() if dominance else hi)
                else:
                    bx = (pmf1.mean() if dominance else pmf1.trunc_above(t1)) \
                        - pmf0.trunc_below(1.0 - r0)
            else:
                if side == "l":
                    bx = lo - (pmf0.mean() if dominance
                               else pmf0.trunc_above(r0))
                else:
                    bx = (pmf1.mean() if dominance else hi) \
                        - pmf0.trunc_below(1.0 - r0)
        num += p["prob"] * bx * w
        den += p["prob"] * w
    return num / den


# ---------------------------------------------------------------------------
# reference evaluations of the cell outcome surfaces: cells sorted one at a
# time, per-row loops, and the per-fold cross-fitted loop that groups each
# fold's rows per call

def _sorted_cell(y, w):
    """Outcomes in ascending order with their cumulative weights and
    cumulative weighted outcomes."""
    order = np.argsort(y, kind="stable")
    yv, wv = y[order], w[order]
    return yv, np.cumsum(wv), np.cumsum(wv * yv)


def reference_surface(table, spec):
    """The cells of ``CellOutcomeSurface(table, spec)``, each arm's sorted
    one cell at a time: ``index[d]``, the arm's cell index (``None`` when
    no selected row of the arm weighs more than zero), and ``cells[d]``,
    each cell key's ``_sorted_cell`` triple over the arm's training rows
    of that key (left out when they all weigh zero), then the arm-level
    surface of all the arm's rows under key -1."""
    index, cells = {}, {}
    for d in (0, 1):
        mask = (table.s == 1) & (table.d == d)
        xi, wi, yi = table.x[mask], table.weight[mask], table.y[mask]
        if not (wi > 0).any():
            index[d], cells[d] = None, {}
            continue
        index[d] = _CellIndex(xi, wi, spec)
        keys = index[d].keys(xi)
        cells[d] = {int(key): _sorted_cell(yi[keys == key], wi[keys == key])
                    for key in np.unique(keys) if (wi[keys == key] > 0).any()}
        cells[d][-1] = _sorted_cell(yi, wi)
    return SimpleNamespace(index=index, cells=cells)


def reference_keys(surface, d, x):
    """Cell keys of the rows of ``x`` in arm ``d``, recomputed column by
    column; ``EmptyCellError`` when the arm has no training rows or a row
    holds a discrete level that the arm never showed."""
    index = surface.index[d]
    if index is None:
        raise EmptyCellError(f"no selected training rows in arm {d}")
    x = np.atleast_2d(x)
    parts, dims = [], []
    for j in index.spec.discrete_cols:
        lv = index.levels[j]
        idx = np.clip(np.searchsorted(lv, x[:, j]), 0, len(lv) - 1)
        ok = np.isclose(lv[idx], x[:, j])
        if not ok.all():
            raise EmptyCellError(f"unseen level in discrete column {j}: "
                                 f"{np.unique(x[~ok, j])[:5]}")
        parts.append(idx)
        dims.append(len(lv))
    for j in index.cont_cols:
        parts.append(np.searchsorted(index.edges[j], x[:, j]))
        dims.append(len(index.edges[j]) + 1)
    if not parts:
        return np.zeros(x.shape[0], dtype=np.int64)
    return np.ravel_multi_index(parts, dims).astype(np.int64)


def _reference_cell(surface, d, key):
    """The row's training cell, or the arm-level surface when none."""
    return surface.cells[d].get(int(key), surface.cells[d][-1])


def reference_quantile(surface, x, d, u):
    """``CellOutcomeSurface.quantile`` evaluated one row at a time."""
    x = np.atleast_2d(x)
    u = np.asarray(u, dtype=float)
    keys = reference_keys(surface, d, x)
    out = np.empty(len(keys))
    for i, key in enumerate(keys):
        yv, cw, _ = _reference_cell(surface, d, key)
        total = cw[-1]
        pos = np.searchsorted(cw, u[i] * total - 1e-12 * total, side="left")
        out[i] = yv[min(pos, len(yv) - 1)]
    return out


def reference_trunc_mean(surface, x, j, d, u):
    """``CellOutcomeSurface.trunc_mean`` evaluated one row at a time (an
    empty truncation region takes the cell mean)."""
    x = np.atleast_2d(x)
    u = np.asarray(u, dtype=float)
    keys = reference_keys(surface, d, x)
    out = np.empty(len(keys))
    for i, key in enumerate(keys):
        yv, cw, cy = _reference_cell(surface, d, key)
        total_w, total_y = cw[-1], cy[-1]
        pos = np.searchsorted(cw, u[i] * total_w - 1e-12 * total_w, side="left")
        pos = min(pos, len(yv) - 1)
        q = yv[pos]
        hi = np.searchsorted(yv, q, side="right") - 1
        lo = np.searchsorted(yv, q, side="left")
        if j == 1:
            w_at, y_at = cw[hi], cy[hi]
            if u[i] >= 1.0 or w_at <= 0:
                out[i] = total_y / total_w
            else:
                out[i] = y_at / w_at
        else:
            w_above = total_w - (cw[lo - 1] if lo > 0 else 0.0)
            y_above = total_y - (cy[lo - 1] if lo > 0 else 0.0)
            if u[i] <= 0.0 or w_above <= 0:
                out[i] = total_y / total_w
            else:
                out[i] = y_above / w_above
    return out


def _grouped(surface, d, x):
    """The rows of ``x`` split by training cell of arm ``d`` into ``(key,
    cell, rows)`` triples, keys ascending; rows of a cell with no training
    rows go to the arm-level surface (key -1) with one warning."""
    keys = reference_keys(surface, d, x)
    uniq, inverse = np.unique(keys, return_inverse=True)
    seen = np.array([key in surface.cells[d] for key in uniq.tolist()])[inverse]
    if not seen.all():
        logging.getLogger("strata_bounds").warning(
            "%d rows in arm %d fall in cells with no training rows; using "
            "the arm-level surface", int((~seen).sum()), d)
        uniq, inverse = np.unique(np.where(seen, keys, -1), return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    bounds = np.cumsum(np.bincount(inverse))[:-1]
    return [(key, surface.cells[d][key], rows)
            for key, rows in zip(uniq.tolist(), np.split(order, bounds))]


def grouped_quantile(surface, x, d, u):
    """``CellOutcomeSurface.quantile`` with the rows grouped per call."""
    x = np.atleast_2d(x)
    out = np.empty(x.shape[0])
    for _, (yv, cw, _), rows in _grouped(surface, d, x):
        out[rows] = yv[_quantile_pos(cw, u[rows])]
    return out


def grouped_trunc_mean(surface, x, j, d, u):
    """``CellOutcomeSurface.trunc_mean`` with the rows grouped per call."""
    x = np.atleast_2d(x)
    what = f"arm {d} {'lower' if j == 1 else 'upper'} tail"
    out = np.empty(x.shape[0])
    for key, (yv, cw, cy), rows in _grouped(surface, d, x):
        uc = u[rows]
        q = yv[_quantile_pos(cw, uc)]
        total_w, total_y = cw[-1], cy[-1]
        if j == 1:
            hi = np.searchsorted(yv, q, side="right") - 1
            num, den = cy[hi], cw[hi]
            full = uc >= 1.0
        else:
            lo = np.searchsorted(yv, q, side="left")
            num = total_y - np.where(lo > 0, cy[lo - 1], 0.0)
            den = total_w - np.where(lo > 0, cw[lo - 1], 0.0)
            full = uc <= 0.0
        empty = ~full & (den <= 0)
        if empty.any():
            logging.getLogger("strata_bounds").warning(
                "empty truncation region (%s) in cell %d for %d rows; using "
                "the cell mean", what, key, int(empty.sum()))
        ok = ~(full | empty)
        out[rows[ok]] = num[ok] / den[ok]
        if not ok.all():
            out[rows[~ok]] = total_y / total_w
    return out


def crossfit_panel_b():
    """A panel-b draw (n = 2,000, seed 5) with cross-fitted nuisances (the
    benchmark's cells) and its sample support.

    The design's control outcome is 0, which would make every control-arm
    surface constant, so the selected control rows get a standard normal
    outcome instead."""
    table = dgp_sample(DgpConfig(n=2000, shares=PANEL_SHARES["b"],
                                 base_seed=5, replications=1), 0)
    y0 = np.random.default_rng(5).standard_normal(table.n)
    table = replace(table, y=np.where(
        table.s == 1, np.where(table.d == 0, y0, table.y), np.nan))
    spec = LearnerSpec(cells=CellSpec(discrete_cols=(0,), n_bins=3), folds=5,
                       seed=1)
    return table, crossfit(table, spec), SupportBounds.from_table(table)


def crossfit_surfaces(table, spec):
    """The fold ids and the per-fold reference surfaces of ``crossfit``."""
    folds = fold_assignments(table.n, spec.folds, spec.seed)
    return folds, [reference_surface(table.select(folds != k), spec.cells)
                   for k in range(spec.folds)]


def _quietly(fn):
    """``fn`` with the package's log records dropped."""
    def quiet(*args):
        log = logging.getLogger("strata_bounds")
        was, log.disabled = log.disabled, True
        try:
            return fn(*args)
        finally:
            log.disabled = was
    return quiet


def reference_crossfit(table, spec, bundle) -> NuisanceBundle:
    """``bundle = crossfit(table, spec)`` with its outcome surfaces
    evaluated fold by fold: each call masks the rows of every fold and
    groups them by cell on that fold's surface. A tail logs what its
    truncated-mean loop logs, once; the quantile loop before it reads the
    same cells and only raises."""
    folds, surfaces = crossfit_surfaces(table, spec)

    def per_fold(evaluate):
        def fn(rows, *args):
            *head, u = args
            f, x = folds[rows], table.x[rows]
            out = np.empty(len(rows))
            for k in range(spec.folds):
                here = f == k
                if here.any():
                    out[here] = evaluate(surfaces[k], x[here], *head, u[here])
            return out
        return fn

    return NuisanceBundle(bundle.m, bundle.s0, bundle.s1,
                          pair_tail(_quietly(per_fold(grouped_quantile)),
                                    per_fold(grouped_trunc_mean)),
                          provenance=bundle.provenance)


def reference_trim_drop(table, bundle, config, eps_trim=None, support=None):
    """``estimate_trim(..., variant="drop")`` re-estimated on the survivor
    subset: the survivors' table and bundle, their labels, and the
    survivors' rows of every per-row support limit."""
    if support is None:
        support = SupportBounds.from_table(table)
    labels = bundle.labels()
    band = labels == XZERO
    if eps_trim is not None:
        band = band | (np.abs(bundle.p0 - 1.0) <= eps_trim)
    survivors = ~band
    n_surv = int(survivors.sum())
    if n_surv == 0:
        raise AllTrimmedError("every row lies inside the trimming band")

    sub_table = table.select(survivors)
    sub_bundle = bundle.select(survivors)
    sub_labels = labels[survivors]
    sub_support = SupportBounds(*(np.asarray(v, dtype=float)[survivors]
                                  if np.ndim(v) else v
                                  for v in (support.y1_lower, support.y1_upper,
                                            support.y0_lower, support.y0_upper)))

    def side_estimate(side):
        rows = eif_regular(sub_table, sub_bundle, sub_labels,
                           config.spec(side), sub_support,
                           inefficient=config.inefficient)
        return ratio_estimate(rows.psi_b, rows.psi_s, sub_table.weight)
    return _estimate(side_estimate, "trim", n_surv, config, bundle, band,
                     "xzero" if eps_trim is None else "eps_trim",
                     variant="drop")


def reference_interp(levels, values, u):
    """Row ``i`` interpolated at ``u[i]`` over the shared ``levels``, one
    ``np.interp`` call per row."""
    out = np.empty(len(values))
    for i in range(len(values)):
        out[i] = np.interp(u[i], levels, values[i])
    return out


def reference_from_csv(path_or_buffer, weights_col=None):
    """``ObservationTable.from_csv`` as one loop over ``csv.reader`` rows
    that parses each field with ``float`` or ``int``: the columns ``(y, s,
    d, x, w)``, or the ``ValueError`` for the header, for a file without
    data rows, or for the first bad row or field."""
    close = False
    if isinstance(path_or_buffer, (str, bytes)):
        fh = open(path_or_buffer, "r", encoding="utf-8", newline="")
        close = True
    else:
        fh = path_or_buffer
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("data file is empty")
        cols = {name: j for j, name in enumerate(header)}
        if len(cols) < len(header):
            dup = next(c for j, c in enumerate(header) if cols[c] != j)
            raise ValueError(f"duplicate column {dup!r} in the header")
        for required in ("y", "s", "d"):
            if required not in cols:
                raise ValueError(f"missing required column {required!r}")
        if weights_col is None:
            weights_col = "weight"
        elif weights_col not in cols:
            raise ValueError(f"missing weights column {weights_col!r}")
        xnames = [c for c in header if re.fullmatch("x[0-9]+", c)]
        xcols = [f"x{k}" for k in range(1, len(xnames) + 1)]
        for c in xnames:
            if c not in xcols:
                raise ValueError(f"covariate column {c!r} is not one of "
                                 f"x1..x{len(xcols)}: covariates are named "
                                 f"x1..xp with none missing")
        rows = list(reader)
    finally:
        if close:
            fh.close()
    if not rows:
        raise ValueError("data file has no data rows")
    n = len(rows)
    y = np.full(n, np.nan)
    s = np.zeros(n, dtype=np.int8)
    d = np.zeros(n, dtype=np.int8)
    w = np.ones(n)
    x = np.zeros((n, len(xcols)))
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"data row {i + 1} is blank" if not row else
                             f"data row {i + 1} has {len(row)} fields, "
                             f"the header has {width}")
        try:
            raw_y = row[cols["y"]].strip()
            if raw_y not in ("", "NA"):
                y[i] = float(raw_y)
            s[i] = int(row[cols["s"]])
            d[i] = int(row[cols["d"]])
            if weights_col in cols and row[cols[weights_col]].strip() != "":
                w[i] = float(row[cols[weights_col]])
            for j, c in enumerate(xcols):
                x[i, j] = float(row[cols[c]])
        except (ValueError, OverflowError):
            parsers = [("y", lambda v: v.strip() in ("", "NA") or float(v)),
                       ("s", lambda v: np.int8(int(v))),
                       ("d", lambda v: np.int8(int(v)))]
            if weights_col in cols:
                parsers.append((weights_col,
                                lambda v: v.strip() == "" or float(v)))
            parsers += [(c, float) for c in xcols]
            for name, parse in parsers:
                try:
                    parse(row[cols[name]])
                except (ValueError, OverflowError) as exc:
                    raise ValueError(f"data row {i + 1}, column {name!r}: "
                                     f"{exc}") from None
    return y, s, d, x, w


def reference_read_nuisance_csv(path):
    """A nuisance CSV parsed one cell at a time with ``csv.reader`` and
    ``float`` (an empty or ``NA`` field gives NaN here)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) if v.strip() not in ("", "NA") else np.nan for v in row]
                for row in reader]
    return header, np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# scalar quadrature reference for the benchmark design's population targets:
# per-point closures integrated by adaptive ``quad``, independent of the
# package's plug-ins and of the atoms' kink placement

@dataclass
class PointValues:
    """Everything the variance/bound functionals need at one covariate point."""

    m: float
    s0: float
    s1: float
    label: int
    beta_x: float
    q1: Callable[[float], float]
    q0: Callable[[float], float]
    b11: Callable[[float], float]
    b00: Callable[[float], float]
    b01: Callable[[float], float]
    b10: Callable[[float], float]
    sigma1_sq: float
    sigma0_sq: float


class QuadratureDesign:
    """Quadrature access to the primary benchmark design's population values."""

    def __init__(self, config: DgpConfig):
        if config.dgp_id != "benchmark":
            raise ValueError("closed-form design functionals exist for the "
                             "primary benchmark process only")
        self.config = config

    def _pdf(self, x2):
        return math.exp(-0.5 * x2 * x2) / math.sqrt(2.0 * math.pi) / _TRUNC_MASN

    def expectation(self, fn) -> float:
        total = 0.0
        for x1, share in zip((1.0, 0.0, -1.0), self.config.shares):
            if share == 0.0:
                continue
            val, _ = quad(lambda x2: fn(self.point(x1, x2)) * self._pdf(x2),
                          TRUNC_LO, TRUNC_HI, epsabs=1e-11, epsrel=1e-11,
                          limit=300)
            total += share * val
        return total

    def point(self, x1: float, x2: float) -> PointValues:
        gamma = self.config.gamma
        s0 = float(ndtr(x2))
        s1 = float(ndtr(x1 + x2))
        p0 = s0 / s1
        zero = lambda u: 0.0
        if x1 == 1.0:
            q1 = lambda u: float(_mix_ppf(p0, gamma, u))
            b11 = lambda u: float(_mix_tail(p0, gamma, 1, u)[1])
            b01 = lambda u: float(_mix_tail(p0, gamma, 0, u)[1])
            sigma1 = float(_mix_censored_var(p0, gamma, min(p0, 1.0)))
            beta_x = b11(min(p0, 1.0))
            label = 1
        else:
            q1, b11, b01 = zero, zero, zero
            sigma1 = 0.0
            beta_x = 0.0
            label = 0 if x1 == 0.0 else -1
        return PointValues(m=0.5, s0=s0, s1=s1, label=label, beta_x=beta_x,
                           q1=q1, q0=zero, b11=b11, b00=zero, b01=b01,
                           b10=zero, sigma1_sq=sigma1, sigma0_sq=0.0)

    # -- population bounds ---------------------------------------------------

    def _cond_bound(self, pt: PointValues, stratum: Stratum, side: Side,
                    dominance: bool) -> float:
        p0 = pt.s0 / pt.s1
        t1 = min(p0, 1.0)
        r0 = min(1.0 / p0, 1.0)
        if stratum is Stratum.AT:
            if side is Side.L:
                return (pt.b11(1.0) if dominance else pt.b11(t1)) - pt.b00(1.0 - r0)
            return pt.b01(1.0 - t1) - (pt.b10(1.0) if dominance else pt.b10(r0))
        if stratum in (Stratum.C, Stratum.EM):
            # both strata carry zero outcome mass off the positive region here
            if side is Side.L:
                return pt.b11(1.0 - t1) - (pt.b00(0.0) if dominance else 0.0)
            return (pt.b01(0.0) if dominance else pt.b01(t1)) - pt.b10(1.0 - r0)
        raise ValueError(stratum)

    def _weight(self, pt: PointValues, stratum: Stratum) -> float:
        if stratum is Stratum.AT:
            return min(pt.s0, pt.s1)
        if stratum is Stratum.C:
            return max(0.0, pt.s1 - pt.s0)
        if stratum is Stratum.EM:
            return abs(pt.s1 - pt.s0)
        raise ValueError(stratum)

    def sharp_bound(self, side, stratum=Stratum.AT, dominance: bool = False) -> float:
        side = Side.parse(side)
        stratum = Stratum.parse(stratum)
        num = self.expectation(
            lambda pt: self._cond_bound(pt, stratum, side, dominance)
            * self._weight(pt, stratum))
        den = self.expectation(lambda pt: self._weight(pt, stratum))
        return num / den

    def smooth_bound(self, side, h: float) -> float:
        """Population smoothed outer bound: since ``g5(z) = -g2(-z)`` and
        ``g6(z) = -g4(-z)`` it is the sum of the two component targets."""
        plus, minus = self.smooth_component_targets(side, h)
        return plus + minus

    def smooth_component_targets(self, side, h: float) -> tuple:
        """(plus, minus) population values of the two smoothed ratio pieces."""
        side = Side.parse(side)
        fam = GFamily(h=float(h))
        g = fam.g

        def beta_h(pt):
            p0 = pt.s0 / pt.s1
            if side is Side.L:
                return pt.b11(float(g(1, p0))) - pt.b00(1.0 - float(g(1, 1.0 / p0)))
            return pt.b01(1.0 - float(g(1, p0))) - pt.b10(float(g(1, 1.0 / p0)))

        den1 = self.expectation(lambda pt: float(g(1, pt.s0 / pt.s1)) * pt.s1)
        den3 = self.expectation(lambda pt: float(g(3, pt.s0 / pt.s1)) * pt.s1)
        if side is Side.L:
            plus = self.expectation(lambda pt: float(g(4, beta_h(pt)))
                                    * float(g(1, pt.s0 / pt.s1)) * pt.s1) / den3
            minus = self.expectation(lambda pt: float(g(5, beta_h(pt)))
                                     * float(g(3, pt.s0 / pt.s1)) * pt.s1) / den1
        else:
            plus = self.expectation(lambda pt: float(g(2, beta_h(pt)))
                                    * float(g(3, pt.s0 / pt.s1)) * pt.s1) / den1
            minus = self.expectation(lambda pt: float(g(6, beta_h(pt)))
                                     * float(g(1, pt.s0 / pt.s1)) * pt.s1) / den3
        return plus, minus


def quadrature_efficiency_bound(design, side=Side.L) -> float:
    """Semiparametric variance bound for the always-taker lower bound.

    Evaluates every variance and cross-moment summand by quadrature over
    the design's covariate law and divides by the squared always-taker
    share. Valid on designs with no selection-indifferent mass.
    """
    side = Side.parse(side)
    if side is not Side.L:
        raise ValueError("the variance bound is evaluated for the lower bound")
    beta = design.sharp_bound(Side.L)

    def integrand(pt):
        m, s0, s1 = pt.m, pt.s0, pt.s1
        p0 = s0 / s1
        total = s1 * pt.sigma1_sq / m + s0 * pt.sigma0_sq / (1.0 - m)
        if pt.label == XPLUS:
            q1 = pt.q1(min(p0, 1.0))
            b1 = pt.b11(min(p0, 1.0))
            bx = pt.beta_x
            total += (bx - beta) ** 2 * s0 * (1.0 - s0 * m) / (1.0 - m)
            total += s1 * q1 ** 2 * p0 * (1.0 - p0) / m
            total += (q1 - b1) ** 2 * (s0 * (1.0 - s0) / (1.0 - m)
                                       + p0 ** 2 * s1 * (1.0 - s1) / m)
            total += -2.0 * q1 * b1 * s1 * p0 * (1.0 - p0) / m
            total += 2.0 * (bx - beta) * (q1 - b1) * s0 * (1.0 - s0) / (1.0 - m)
        elif pt.label == XMINUS:
            r = 1.0 / p0
            q0 = pt.q0(1.0 - r)
            b0 = pt.b00(1.0 - r)
            bx = pt.beta_x
            total += (bx - beta) ** 2 * s1 * (1.0 - s1 + s1 * m) / m
            total += s0 * q0 ** 2 * r * (1.0 - r) / (1.0 - m)
            total += (q0 - b0) ** 2 * (r ** 2 * s0 * (1.0 - s0) / (1.0 - m)
                                       + s1 * (1.0 - s1) / m)
            total += -2.0 * q0 * b0 * s0 * r * (1.0 - r) / (1.0 - m)
            total += -2.0 * (bx - beta) * (q0 - b0) * s1 * (1.0 - s1) / m
        return total

    denom = design.expectation(lambda pt: min(pt.s0, pt.s1))
    return design.expectation(integrand) / denom ** 2


def quadrature_efficiency_gap(design) -> float:
    """Excess asymptotic variance of the known-propensity moment estimator."""

    def integrand(pt):
        m, s0, s1 = pt.m, pt.s0, pt.s1
        p0 = s0 / s1
        w1 = np.sqrt((1.0 - m) / m)
        w0 = np.sqrt(m / (1.0 - m))
        if pt.label == XPLUS:
            return s0 ** 2 * (pt.b11(min(p0, 1.0)) * w1 - pt.b00(0.0) * w0) ** 2
        if pt.label == XMINUS:
            return s1 ** 2 * (pt.b11(1.0) * w1 - pt.b00(1.0 - 1.0 / p0) * w0) ** 2
        return 0.0

    denom = design.expectation(lambda pt: min(pt.s0, pt.s1))
    return design.expectation(integrand) / denom ** 2
