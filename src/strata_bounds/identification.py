"""Population-level sharp bounds per stratum and their aggregation.

Conditional bounds are differences of quantile-truncated conditional means
evaluated against a nuisance bundle; unconditional bounds integrate them
with the stratum-specific covariate weights. All evaluations are pure
functions over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data_model import (SHARE_FLOOR, NuisanceBundle, ObservationTable, Side,
                         Stratum, StratumSpec)
from .errors import ZeroShareError


@dataclass(frozen=True)
class SupportBounds:
    """Outcome support limits per treatment arm, possibly infinite.

    Scalars or per-row arrays. Defaults come from the empirical min/max of
    the observed outcome in each arm (no estimator for conditional support
    limits is provided; never-taker bounds are support-driven constants).
    """

    y1_lower: np.ndarray | float = -np.inf
    y1_upper: np.ndarray | float = np.inf
    y0_lower: np.ndarray | float = -np.inf
    y0_upper: np.ndarray | float = np.inf

    @classmethod
    def from_table(cls, table: ObservationTable) -> "SupportBounds":
        vals = {}
        for d, key in ((1, "y1"), (0, "y0")):
            mask = (table.s == 1) & (table.d == d)
            if mask.any():
                obs = table.y[mask]
                vals[key + "_lower"], vals[key + "_upper"] = float(np.min(obs)), float(np.max(obs))
            else:
                vals[key + "_lower"], vals[key + "_upper"] = -np.inf, np.inf
        return cls(**vals)

    def lower(self, d: int, rows=None):
        v = self.y1_lower if d == 1 else self.y0_lower
        return self._pick(v, rows)

    def upper(self, d: int, rows=None):
        v = self.y1_upper if d == 1 else self.y0_upper
        return self._pick(v, rows)

    @staticmethod
    def _pick(v, rows):
        arr = np.asarray(v, dtype=float)
        if arr.ndim == 0 or rows is None:
            return arr
        rows = np.asarray(rows)
        if arr.shape[0] != rows.shape[0]:
            raise ValueError(f"per-row support has {arr.shape[0]} rows but "
                             f"{rows.shape[0]} rows are evaluated; select it "
                             "with the table")
        return arr[rows]

    def select(self, idx) -> "SupportBounds":
        """Support for ``ObservationTable.select(idx)``; scalars are kept."""
        return SupportBounds(*(np.asarray(v, dtype=float)[idx] if np.ndim(v) else v
                               for v in (self.y1_lower, self.y1_upper,
                                         self.y0_lower, self.y0_upper)))

    def with_negated_outcome(self) -> "SupportBounds":
        return SupportBounds(y1_lower=-np.asarray(self.y1_upper, dtype=float),
                             y1_upper=-np.asarray(self.y1_lower, dtype=float),
                             y0_lower=-np.asarray(self.y0_upper, dtype=float),
                             y0_upper=-np.asarray(self.y0_lower, dtype=float))

    def with_swapped_arms(self) -> "SupportBounds":
        return SupportBounds(y1_lower=self.y0_lower, y1_upper=self.y0_upper,
                             y0_lower=self.y1_lower, y0_upper=self.y1_upper)


def stratum_weight(s0, s1, stratum) -> np.ndarray:
    """Covariate weight of a stratum: the conditional probability of membership."""
    stratum = Stratum.parse(stratum)
    s0 = np.asarray(s0, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    if stratum is Stratum.AT:
        return np.minimum(s0, s1)
    if stratum is Stratum.C:
        return np.maximum(0.0, s1 - s0)
    if stratum is Stratum.DEF:
        return np.maximum(0.0, s0 - s1)
    if stratum is Stratum.NT:
        return 1.0 - np.maximum(s0, s1)
    if stratum is Stratum.EM:
        return np.abs(s1 - s0)
    raise ValueError(stratum)


def trim_levels(p0):
    """(min(p0,1), min(1/p0,1)) with estimated p0 allowed to wander; clipped."""
    p0 = np.asarray(p0, dtype=float)
    return np.clip(p0, 0.0, 1.0), np.clip(1.0 / p0, 0.0, 1.0)


def at_tails(side, t1, r0) -> tuple:
    """``((j, level), (j, level))`` of the treated and then the control arm's
    truncated means in the always-taker bound, given the treated-arm
    keep-mass ``t1`` and the control-arm keep-mass ``r0``: the lower bound
    keeps the treated arm's lowest ``t1`` and the control arm's highest
    ``r0``, the upper bound the reverse."""
    if side is Side.L:
        return (1, t1), (0, 1.0 - r0)
    return (0, 1.0 - t1), (1, r0)


def _edge_trunc_mean(bundle, rows, j, d, u, support: SupportBounds):
    """Truncated mean with the degenerate trim levels routed to support limits.

    j=1 at u=0 collapses to the lower support limit, j=0 at u=1 to the
    upper one; interior levels go to the bundle surface.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    if j == 1:
        deg = u <= 0.0
        edge_val = support.lower(d, rows)
    else:
        deg = u >= 1.0
        edge_val = support.upper(d, rows)
    edge = np.broadcast_to(np.asarray(edge_val, dtype=float), u.shape)
    out[deg] = edge[deg]
    if (~deg).any():
        interior = np.flatnonzero(~deg)
        out[interior] = bundle.trunc_mean(np.asarray(rows)[interior], j, d, u[interior])
    return out


def conditional_sharp_bound(bundle: NuisanceBundle, spec: StratumSpec,
                            support: SupportBounds) -> np.ndarray:
    """Per-row sharp bound for the requested stratum, refined by mean
    dominance (intensive over extensive margin) when ``spec.dominance``.

    Results can be non-finite where they depend on infinite support limits;
    those rows are flagged by the value itself rather than an exception
    (zero-weight strata make the product well-defined downstream).
    """
    rows = bundle.all_rows()
    p0 = bundle.p0
    u1, r0 = trim_levels(p0)   # treated-arm keep-mass, control-arm keep-mass
    st, side, dom = spec.stratum, spec.side, spec.dominance

    if st is Stratum.NT:
        if side is Side.L:
            return np.broadcast_to(
                support.lower(1, rows) - support.upper(0, rows), rows.shape).astype(float)
        return np.broadcast_to(
            support.upper(1, rows) - support.lower(0, rows), rows.shape).astype(float)

    if st is Stratum.AT:
        (j1, t1), (j0, t0) = at_tails(side, u1, r0)
        if dom:  # mean dominance: the arm kept below its quantile is untrimmed
            t1, t0 = (np.ones_like(t1), t0) if j1 == 1 else (t1, np.ones_like(t0))
        return (_edge_trunc_mean(bundle, rows, j1, 1, t1, support)
                - _edge_trunc_mean(bundle, rows, j0, 0, t0, support))

    if st in (Stratum.C, Stratum.DEF, Stratum.EM):
        # shared trimming formulas for the s0 != s1 strata
        if side is Side.L:
            b1 = _edge_trunc_mean(bundle, rows, 1, 1, 1.0 - u1, support)
            b0 = (_edge_trunc_mean(bundle, rows, 0, 0, np.zeros_like(r0), support)
                  if dom else _edge_trunc_mean(bundle, rows, 0, 0, r0, support))
        else:
            b1 = (_edge_trunc_mean(bundle, rows, 0, 1, np.zeros_like(u1), support)
                  if dom else _edge_trunc_mean(bundle, rows, 0, 1, u1, support))
            b0 = _edge_trunc_mean(bundle, rows, 1, 0, 1.0 - r0, support)
        return b1 - b0

    raise ValueError(st)


def unconditional_sharp_bound(table: ObservationTable, bundle: NuisanceBundle,
                              spec: StratumSpec,
                              support: Optional[SupportBounds] = None) -> float:
    """Weight-normalized aggregation of conditional bounds over the stratum.

    Rows with zero stratum weight contribute exactly zero even when their
    conditional bound is infinite (measure-zero stratum convention).
    """
    if support is None:
        support = SupportBounds.from_table(table)
    w = table.weight
    g = stratum_weight(bundle.s0, bundle.s1, spec.stratum)
    beta_x = conditional_sharp_bound(bundle, spec, support)
    num_terms = np.where(g > 0, beta_x * g, 0.0)
    denom = float((w * g).sum() / w.sum())
    if denom <= SHARE_FLOOR:
        raise ZeroShareError(
            f"stratum share {denom:.3e} at or below floor {SHARE_FLOOR:.1e}")
    return float((w * num_terms).sum() / w.sum()) / denom
