"""Per-row moment (influence-function) evaluations for every estimand.

Each moment family is expressed through its numerator and share components
``psi_b`` and ``psi_s``: the estimand solves ``E[psi_b - beta * psi_s] = 0``,
so the point estimator is the ratio of their weighted means. Conditional on
covariates, ``E[psi_b | X] = beta(x) * weight(x)`` and
``E[psi_s | X] = weight(x)`` where ``weight`` is the stratum share.

Directly assembled families: always-taker lower/upper and complier lower,
plus the smoothed always-taker pair and the known-propensity (uncorrected)
variant. The remaining strata/sides come from two exact symmetry
transforms (outcome negation and treatment-arm relabeling) rather than
hand-copied formulas, and the extensive margin joins the complier rows on
the positive partition to the defier rows on the negative one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data_model import (NuisanceBundle, ObservationTable, Side, Stratum,
                         StratumSpec, XMINUS, XPLUS, XZERO)
from .errors import PartitionError
from .identification import (SupportBounds, at_tails, conditional_sharp_bound,
                             stratum_weight, trim_levels,
                             unconditional_sharp_bound)
from .smoothing import LOG2, SMOOTH_RECIPE, GFamily, _smooth_trim_levels


@dataclass(frozen=True)
class InfluenceRows:
    """Numerator and share contributions per row."""

    psi_b: np.ndarray
    psi_s: np.ndarray

    def negated_numerator(self) -> "InfluenceRows":
        return InfluenceRows(-self.psi_b, self.psi_s)


@dataclass(frozen=True)
class SmoothInfluenceRows:
    """The four per-row components of a smoothed bound (two ratio pairs)."""

    psi_b_plus: np.ndarray
    psi_s_plus: np.ndarray
    psi_b_minus: np.ndarray
    psi_s_minus: np.ndarray


def _ipw_pieces(table: ObservationTable, bundle: NuisanceBundle):
    """Outcome, treatment, inverse-probability weights and selection
    corrections per row; built once per (table, bundle), read-only."""
    return bundle.per_table(table, "ipw", lambda: _build_ipw_pieces(table, bundle))


def _build_ipw_pieces(table, bundle):
    s = table.s.astype(float)
    d = table.d.astype(float)
    yy = table.y_filled
    m, s0, s1 = bundle.m, bundle.s0, bundle.s1
    ipw1 = s * d / m
    ipw0 = s * (1.0 - d) / (1.0 - m)
    c0 = (1.0 - d) / (1.0 - m) * (s - s0)
    c1 = d / m * (s - s1)
    for arr in (d, ipw1, ipw0, c0, c1):
        arr.setflags(write=False)
    return yy, d, ipw1, ipw0, c0, c1


def _tail(bundle, rows, yy, d, j, level):
    """Arm ``d``'s quantile and ``j`` truncated mean at ``level``, and the
    indicator of the tail the mean keeps (at or below the quantile for
    ``j=1``, at or above it for ``j=0``)."""
    q, b = bundle.tail(rows, j, d, level)
    return q, b, (yy <= q if j == 1 else yy >= q).astype(float)


def _at_branches(table, bundle, side: Side):
    """Both partition branches of the always-taker moments on ``side``: the
    two truncated means ``b1``, ``b0``, and the numerator and share rows as
    they read on the positive and on the negative partition. Built once per
    (table, bundle, side) and shared by every estimator; read-only."""
    return bundle.per_table(table, ("at", side),
                            lambda: _build_at_branches(table, bundle, side))


def _build_at_branches(table, bundle, side):
    yy, d, ipw1, ipw0, c0, c1 = _ipw_pieces(table, bundle)
    s0, s1, p0 = bundle.s0, bundle.s1, bundle.p0
    rows = bundle.all_rows()

    t1, r0 = trim_levels(p0)   # treated-arm and control-arm mass kept
    treated, control = at_tails(side, t1, r0)
    q1, b1, i1 = _tail(bundle, rows, yy, 1, *treated)
    q0, b0, i0 = _tail(bundle, rows, yy, 0, *control)

    m1 = ipw1 * (yy * i1 - t1 * b1)
    m2 = -ipw0 * (yy * i0 - r0 * b0)
    m12 = m1 + m2
    beta_x = b1 - b0
    ps_plus = s0 + c0
    ps_minus = s1 + c1
    # each branch adds (m1 + m2), m4, m5 and beta_x * psi_s in that order,
    # so a row's selected branch is the bytes of the per-row formula
    pb_plus = (m12 + -ipw1 * q1 * (i1 - p0)
               + (q1 - b1) * (c0 - p0 * c1) + beta_x * ps_plus)
    pb_minus = (m12 + ipw0 * q0 * (i0 - 1.0 / p0)
                + (q0 - b0) * (c0 / p0 - c1) + beta_x * ps_minus)
    out = (b1, b0, pb_plus, pb_minus, ps_plus, ps_minus)
    for arr in out:
        arr.setflags(write=False)
    return out


def _at_moments(table, bundle, labels, side: Side, inefficient: bool,
                dominance: bool) -> InfluenceRows:
    if dominance and inefficient:
        raise PartitionError("dominance and known-propensity moments "
                             "cannot be combined")
    b1, b0, pb_plus, pb_minus, ps_plus, ps_minus = _at_branches(
        table, bundle, side)
    plus = labels == XPLUS
    psi_s = np.where(plus, ps_plus, ps_minus)
    psi_b = np.where(plus, pb_plus, pb_minus)

    yy, d, ipw1, ipw0, c0, c1 = _ipw_pieces(table, bundle)
    m, s0, s1, p0 = bundle.m, bundle.s0, bundle.s1, bundle.p0
    if dominance:
        rows = bundle.all_rows()
        # under mean dominance one trimmed component drops its truncation:
        # replace it (and its quantile corrections) by the plain augmented
        # IPW moment of the untruncated conditional mean
        mu1 = bundle.trunc_mean(rows, 1, 1, np.ones(bundle.n))
        mu0 = bundle.trunc_mean(rows, 0, 0, np.zeros(bundle.n))
        if side is Side.L:
            # the treated arm is untrimmed on the positive partition; the
            # control component there is already untrimmed (b0 == mu0)
            treated = s0 * mu1 + mu1 * c0 + p0 * ipw1 * (yy - mu1)
            control = s0 * b0 + b0 * c0 + ipw0 * (yy - b0)
            psi_b = np.where(plus, treated - control, psi_b)
        else:
            # the control arm is untrimmed on the negative partition; the
            # treated component there is already untrimmed (b1 == mu1)
            treated = s1 * b1 + b1 * c1 + ipw1 * (yy - b1)
            control = s1 * mu0 + mu0 * c1 + (s1 / s0) * ipw0 * (yy - mu0)
            psi_b = np.where(plus, psi_b, treated - control)

    if inefficient:
        psi_b = psi_b - _augmentation(np.where(plus, s0, s1), b1, b0, d, m)
    return InfluenceRows(psi_b=psi_b, psi_s=psi_s)


def _augmentation(share, b1, b0, d, m) -> np.ndarray:
    """Share-scaled mean-zero truncated-mean augmentation of the moments.

    The known-propensity moments drop it, so they consume quantiles but no
    truncated-mean surfaces.
    """
    return share * (b1 * (1.0 - d / m) - b0 * (1.0 - (1.0 - d) / (1.0 - m)))


def degenerate_at_moments(table, bundle, inefficient: bool = False) -> InfluenceRows:
    """Point-identified limit moment used where selection is treatment-indifferent.

    The trimming thresholds collapse, leaving an augmented IPW contrast of
    the untruncated conditional means; the share plug-in is the smaller of
    the two selection probabilities with the matching-arm correction.
    Computed once per (table, bundle, ``inefficient``); read-only.
    """
    return bundle.per_table(
        table, ("degenerate", inefficient),
        lambda: _build_degenerate_at_moments(table, bundle, inefficient))


def _build_degenerate_at_moments(table, bundle, inefficient):
    yy, d, ipw1, ipw0, c0, c1 = _ipw_pieces(table, bundle)
    m, s0, s1 = bundle.m, bundle.s0, bundle.s1
    rows = bundle.all_rows()
    sbar = np.minimum(s0, s1)
    psi_s = sbar + np.where(s0 <= s1, c0, c1)
    psi_b = ipw1 * yy - ipw0 * yy
    if not inefficient:
        b1 = bundle.trunc_mean(rows, 1, 1, np.ones(bundle.n))
        b0 = bundle.trunc_mean(rows, 0, 0, np.zeros(bundle.n))
        psi_b = psi_b + _augmentation(sbar, b1, b0, d, m)
    for arr in (psi_b, psi_s):
        arr.setflags(write=False)
    return InfluenceRows(psi_b=psi_b, psi_s=psi_s)


def _cm_moments(table, bundle, labels, support: SupportBounds,
                dominance: bool) -> InfluenceRows:
    """Lower-bound moments for the compliers, who live on the positive
    partition only; every other complier, defier and extensive-margin
    family is built from these through the symmetry transforms.
    """
    yy, _, ipw1, ipw0, c0, c1 = _ipw_pieces(table, bundle)
    s0, s1, p0 = bundle.s0, bundle.s1, bundle.p0
    rows = bundle.all_rows()
    plus = np.asarray(labels) == XPLUS
    if not plus.any():
        return InfluenceRows(psi_b=np.zeros(bundle.n), psi_s=np.zeros(bundle.n))

    # off the positive partition 1 - p0 clips to level 0, where an unbounded
    # tail is infinite; those rows are discarded, so read them at level 0.5
    u = np.where(plus, np.clip(1.0 - p0, 0.0, 1.0), 0.5)
    q1, b1 = bundle.tail(rows, 1, 1, u)
    i1 = (yy <= q1).astype(float)
    k = c0 - p0 * c1
    share_p = (s1 - s0) + c1 - c0
    m1 = ipw1 * (yy * i1 - u * b1)
    m4 = -ipw1 * q1 * (i1 - u)
    m5 = -(q1 - b1) * k
    if dominance:
        mu0 = bundle.trunc_mean(rows, 0, 0, np.zeros(bundle.n))
        control = (s1 - s0) * mu0 + mu0 * (c1 - c0) \
            + ((s1 - s0) / s0) * ipw0 * (yy - mu0)
        pb = m1 + m4 + m5 + b1 * share_p - control
    else:
        ybar0 = np.broadcast_to(support.upper(0, rows), p0.shape)
        pb = m1 + m4 + m5 + (b1 - ybar0) * share_p
    return InfluenceRows(psi_b=np.where(plus, pb, 0.0),
                         psi_s=np.where(plus, share_p, 0.0))


def eif_regular(table: ObservationTable, bundle: NuisanceBundle, labels,
                spec: StratumSpec, support: Optional[SupportBounds] = None,
                inefficient: bool = False) -> InfluenceRows:
    """Moment rows for a sharp bound on the requested stratum and side.

    Mirrored cases reduce to the directly assembled ones through outcome
    negation (swaps lower and upper) and treatment-arm relabeling (swaps
    compliers and defiers); both transforms are exact under a continuous
    outcome distribution. The extensive margin is the compliers on the
    positive partition and the defiers on the negative one.
    """
    labels = np.asarray(labels)
    if (labels == XZERO).any():
        raise PartitionError(
            "regular moments are undefined on selection-indifferent rows; "
            "trim, switch, or smooth before evaluating")
    if support is None:
        support = SupportBounds.from_table(table)
    st, side = spec.stratum, spec.side

    if st is Stratum.AT:
        return _at_moments(table, bundle, labels, side, inefficient, spec.dominance)
    if inefficient:
        raise PartitionError("known-propensity moments are provided for the "
                             "always-taker stratum only")
    if st is Stratum.NT:
        raise PartitionError("never-taker bounds are support-driven constants "
                             "with no moment representation")
    if st is Stratum.C:
        if side is Side.L:
            return _cm_moments(table, bundle, labels, support, spec.dominance)
        neg = eif_regular(table.with_negated_outcome(), bundle.with_negated_outcome(),
                          labels, StratumSpec(st, Side.L, spec.dominance),
                          support.with_negated_outcome())
        return neg.negated_numerator()
    if st is Stratum.DEF:
        # a defier bound is minus the complier bound on the other side after
        # swapping the arms, which flips the effect's sign
        other = Side.U if side is Side.L else Side.L
        return eif_regular(table.with_swapped_arms(), bundle.with_swapped_arms(),
                           -labels, StratumSpec(Stratum.C, other, spec.dominance),
                           support.with_swapped_arms()).negated_numerator()
    if st is Stratum.EM:
        comp, dfr = (eif_regular(table, bundle, labels,
                                 StratumSpec(part, side, spec.dominance), support)
                     for part in (Stratum.C, Stratum.DEF))
        minus = labels == XMINUS
        return InfluenceRows(np.where(minus, dfr.psi_b, comp.psi_b),
                             np.where(minus, dfr.psi_s, comp.psi_s))
    raise ValueError(st)


def _smooth_pieces(table, bundle, family: GFamily):
    """The side-independent pieces of the smoothed moments: g1(p0), g1(1/p0),
    p0^2 g1(1/p0), the slopes g1'(p0) and g1'(1/p0), the selection
    correction ``k``, and per level j of ``SMOOTH_RECIPE`` gj(p0), its
    ratios to g1(p0) and to p0 g1(1/p0), and its share factor.
    Built once per (table, bundle) and kept for the last ``family`` only:
    ``estimate_smooth`` runs both sides at one h before the next, and one
    entry keeps memory flat. Read-only."""
    slot = bundle.per_table(table, "smooth", dict)
    if family not in slot:
        pieces = _build_smooth_pieces(table, bundle, family)
        slot.clear()
        slot[family] = pieces
    return slot[family]


def _build_smooth_pieces(table, bundle, family):
    _, _, _, _, c0, c1 = _ipw_pieces(table, bundle)
    s1, p0 = bundle.s1, bundle.p0
    inv_p0 = 1.0 / p0
    u1, u0 = _smooth_trim_levels(family, p0, inv_p0)   # g1(p0), g1(1/p0)
    gp1 = family.g_prime(1, p0)   # g3' = g1'
    pu0 = p0 * u0

    def per_level(level):
        return (level, level / u1, level / pu0,
                level * s1 + gp1 * c0 + (level - p0 * gp1) * c1)

    # the strict check leaves u1 unclipped, so u1 + h log 2 is g3(p0)
    levels = {1: per_level(u1), 3: per_level(u1 + family.h * LOG2)}
    out = (u1, u0, u0 * p0 ** 2, gp1, family.g_prime(1, inv_p0), c0 - p0 * c1)
    for arr in (*out, *levels[1], *levels[3]):
        arr.setflags(write=False)
    return (*out, levels)


def eif_smooth(table: ObservationTable, bundle: NuisanceBundle,
               family: GFamily, side) -> SmoothInfluenceRows:
    """Four-component moment rows for the smoothed always-taker bound.

    No partition labels enter: the smooth surrogates make every term well
    defined and differentiable through the selection-indifference point.
    """
    side = Side.parse(side)
    yy, _, ipw1, ipw0, _, _ = _ipw_pieces(table, bundle)
    rows = bundle.all_rows()
    u1, u0, u0p2, gp1, gp1_inv, k, levels = _smooth_pieces(table, bundle,
                                                           family)

    treated, control = at_tails(side, u1, u0)
    q1, b1, i1 = _tail(bundle, rows, yy, 1, *treated)
    q0, b0, i0 = _tail(bundle, rows, yy, 0, *control)

    beta_h = b1 - b0
    # an infinite quantile means the trimming level degenerated to an end
    # of an unbounded support; every term it enters vanishes in that limit
    # (the indicator residual is exactly zero, the slope decays faster
    # than the quantile grows), so zero it before forming products
    fin1, fin0 = np.isfinite(q1), np.isfinite(q0)
    q1 = np.where(fin1, q1, 0.0)
    q0 = np.where(fin0, q0, 0.0)
    # the quantile gaps times the slopes of their trim levels
    gap1 = np.where(fin1, q1 - b1, 0.0) * gp1
    gap0 = np.where(fin0, q0 - b0, 0.0) * gp1_inv
    a1 = ipw1 * (yy * i1 - u1 * b1)
    a2 = ipw0 * (yy * i0 - u0 * b0)
    a4 = ipw1 * q1 * (i1 - u1)
    a4b = ipw0 * q0 * (i0 - u0)

    def component(outer_i, num, den):
        level, ratio, ratio0, carry = levels[num]
        psi = family.g_prime(outer_i, beta_h) * (
            ratio * a1 - ratio0 * a2 - ratio * a4 + ratio0 * a4b
            + (gap1 * ratio + gap0 * level / u0p2) * k)
        return psi + family.g(outer_i, beta_h) * carry, levels[den][3]

    plus, minus = (component(*piece) for piece in SMOOTH_RECIPE[side])
    return SmoothInfluenceRows(*plus, *minus)


# ---------------------------------------------------------------------------
# variance functionals for oracle designs, on the design's covariate atoms

def efficiency_bound(design) -> float:
    """Semiparametric variance bound for the always-taker lower bound.

    Averages every variance and cross-moment summand over the atoms of
    ``design.atoms()`` (a weighted covariate sample with the true nuisances
    and the censored outcome variances) and divides by the squared
    always-taker share. Valid on designs with no selection-indifferent mass.
    """
    atoms = design.atoms()
    bundle, w = atoms.bundle, atoms.table.weight
    spec = StratumSpec(Stratum.AT, Side.L)
    beta = unconditional_sharp_bound(atoms.table, bundle, spec, atoms.support)
    bx = conditional_sharp_bound(bundle, spec, atoms.support)
    m, s0, s1, p0 = bundle.m, bundle.s0, bundle.s1, bundle.p0
    rows = bundle.all_rows()
    t1, r0 = trim_levels(p0)
    (j1, l1), (j0, l0) = at_tails(Side.L, t1, r0)

    def trimmed(m, s_keep, s_trim, p, q, b, dev):
        # the treated arm trimmed to mass p; the negative partition is the
        # arm-swapped mirror (m -> 1 - m, s0 <-> s1, p0 -> 1/p0, dev -> -dev)
        return (dev ** 2 * s_keep * (1.0 - s_keep * m) / (1.0 - m)
                + s_trim * q ** 2 * p * (1.0 - p) / m
                + (q - b) ** 2 * (s_keep * (1.0 - s_keep) / (1.0 - m)
                                  + p ** 2 * s_trim * (1.0 - s_trim) / m)
                - 2.0 * q * b * s_trim * p * (1.0 - p) / m
                + 2.0 * dev * (q - b) * s_keep * (1.0 - s_keep) / (1.0 - m))

    plus = trimmed(m, s0, s1, p0, *bundle.tail(rows, j1, 1, l1), bx - beta)
    minus = trimmed(1.0 - m, s1, s0, r0, *bundle.tail(rows, j0, 0, l0),
                    beta - bx)
    labels = bundle.labels()
    total = s1 * atoms.sigma1_sq / m + s0 * atoms.sigma0_sq / (1.0 - m) \
        + np.where(labels == XPLUS, plus, np.where(labels == XMINUS, minus, 0.0))
    share = stratum_weight(s0, s1, Stratum.AT)
    return np.average(total, weights=w) / np.average(share, weights=w) ** 2


def efficiency_gap(design) -> float:
    """Excess asymptotic variance of the known-propensity moment estimator,
    averaged over the atoms of ``design.atoms()``."""
    atoms = design.atoms()
    bundle, w = atoms.bundle, atoms.table.weight
    m, s0, s1, p0 = bundle.m, bundle.s0, bundle.s1, bundle.p0
    rows = bundle.all_rows()
    # the always-taker lower-bound trimming levels: the treated arm is
    # trimmed on the positive partition, the control arm on the negative
    (j1, l1), (j0, l0) = at_tails(Side.L, *trim_levels(p0))
    b1 = bundle.trunc_mean(rows, j1, 1, l1)
    b0 = bundle.trunc_mean(rows, j0, 0, l0)
    share = stratum_weight(s0, s1, Stratum.AT)
    vals = share ** 2 * (b1 * np.sqrt((1.0 - m) / m) - b0 * np.sqrt(m / (1.0 - m))) ** 2
    vals = np.where(bundle.labels() == XZERO, 0.0, vals)
    return np.average(vals, weights=w) / np.average(share, weights=w) ** 2
