"""Smooth surrogates for min/max and the outer (smoothed) bounds.

The family is built from the scaled softplus ``g(z) = h*log(1 + exp(z/h))``:

    g1(z) = 1 - g(1 - z)            ≤ min(z, 1)
    g2(z) = g(z)                    ≥ max(z, 0)
    g3(z) = g1(z) + h*log(2)        ≥ min(z, 1)
    g4(z) = g2(z) - h*log(2)        ≤ max(z, 0)
    g5(z) = -g2(-z),  g6(z) = -g4(-z)

Every member stays within ``h*log(2)`` of its non-smooth limit, so the
outer bounds built from them shrink linearly onto the sharp bounds as
``h -> 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._special import expit
from .data_model import SHARE_FLOOR, NuisanceBundle, Side
from .errors import DegenerateTrimError, ZeroShareError
from .identification import at_tails

LOG2 = float(np.log(2.0))


def _softplus(z, h):
    """Overflow-safe h*log(1 + exp(z/h)); exact max(z, 0) in the h -> 0
    limit. A ``z / h`` that overflows is that limit, so it passes silently."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        return np.maximum(z, 0.0) + h * np.log1p(np.exp(-np.abs(z) / h))


@dataclass(frozen=True)
class GFamily:
    """Evaluators and derivatives for the softplus approximation family."""

    h: float

    def __post_init__(self):
        if not (isinstance(self.h, (int, float)) and 0.0 < self.h < np.inf):
            raise ValueError(f"h must be positive and finite, got {self.h!r}")

    def g(self, i: int, z):
        h = self.h
        if i == 1:
            return 1.0 - _softplus(1.0 - np.asarray(z, dtype=float), h)
        if i == 2:
            return _softplus(z, h)
        if i == 3:
            return self.g(1, z) + h * LOG2
        if i == 4:
            return self.g(2, z) - h * LOG2
        if i == 5:
            return -self.g(2, -np.asarray(z, dtype=float))
        if i == 6:
            return -self.g(4, -np.asarray(z, dtype=float))
        raise ValueError(f"no member g{i}")

    def g_prime(self, i: int, z):
        h = self.h
        z = np.asarray(z, dtype=float)
        # an overflowed z / h is the h -> 0 limit, as in ``_softplus``
        with np.errstate(over="ignore"):
            if i in (1, 3):
                return expit((1.0 - z) / h)
            if i in (2, 4):
                return expit(z / h)
            if i in (5, 6):
                return expit(-z / h)
        raise ValueError(f"no member g{i}")

    def limit(self, i: int, z):
        """Non-smooth limit each member approximates."""
        z = np.asarray(z, dtype=float)
        if i in (1, 3):
            return np.minimum(z, 1.0)
        if i in (2, 4):
            return np.maximum(z, 0.0)
        if i in (5, 6):
            return np.minimum(z, 0.0)
        raise ValueError(f"no member g{i}")


def _smooth_trim_levels(family: GFamily, p0: np.ndarray, strict: bool = True):
    """(g1(p0), g1(1/p0)) trim levels.

    With ``strict`` a nonpositive level raises: the moment evaluations
    divide by it. Without, levels clip to zero, which keeps the plug-in
    bounds valid (the trimmed mean degenerates to its support limit and
    the clipped member still brackets its non-smooth target).
    """
    u1 = family.g(1, p0)
    u0 = family.g(1, 1.0 / p0)
    if strict and (np.min(u1) <= 0.0 or np.min(u0) <= 0.0):
        raise DegenerateTrimError(
            f"g1 trimming level not positive at h={family.h}; reduce h")
    return np.maximum(u1, 0.0), np.maximum(u0, 0.0)


def smooth_conditional_bound(bundle: NuisanceBundle, side, family: GFamily,
                             strict: bool = True) -> np.ndarray:
    """Per-row smoothed conditional bound for the always-taker effect.

    The lower side trims each arm slightly deeper than the sharp bound
    (fraction g1 of the relevant tail), so the result brackets the sharp
    conditional bound from outside for every h.
    """
    side = Side.parse(side)
    rows = bundle.all_rows()
    u1, u0 = _smooth_trim_levels(family, bundle.p0, strict=strict)
    (j1, t1), (j0, t0) = at_tails(side, u1, u0)
    return bundle.trunc_mean(rows, j1, 1, t1) - bundle.trunc_mean(rows, j0, 0, t0)


def smooth_unconditional_components(table, bundle: NuisanceBundle, side,
                                    family: GFamily) -> tuple:
    """(plus, minus) ratio pieces of the weight-normalized smoothed outer
    bound for the always-taker effect, by plug-in; the orthogonalized
    estimator lives in :mod:`strata_bounds.estimation`."""
    side = Side.parse(side)
    w = table.weight
    wsum = w.sum()
    p0 = bundle.p0
    s1 = bundle.s1
    beta_h = smooth_conditional_bound(bundle, side, family, strict=False)
    g = family.g
    den_a = float((w * g(3, p0) * s1).sum() / wsum)
    den_b = float((w * g(1, p0) * s1).sum() / wsum)
    if min(den_a, den_b) <= SHARE_FLOOR:
        raise ZeroShareError("smoothed share denominator at or below floor")
    if side is Side.L:
        num_a = float((w * g(4, beta_h) * g(1, p0) * s1).sum() / wsum)
        num_b = float((w * g(2, -beta_h) * g(3, p0) * s1).sum() / wsum)
        return num_a / den_a, -(num_b / den_b)
    num_a = float((w * g(2, beta_h) * g(3, p0) * s1).sum() / wsum)
    num_b = float((w * g(4, -beta_h) * g(1, p0) * s1).sum() / wsum)
    return num_a / den_b, -(num_b / den_a)


def smooth_unconditional_bound(table, bundle: NuisanceBundle, side,
                               family: GFamily) -> float:
    """Weight-normalized smoothed outer bound for the always-taker effect."""
    plus, minus = smooth_unconditional_components(table, bundle, side, family)
    return plus + minus


def approximation_error_curve(design, side, h_grid: Sequence[float]):
    """|smoothed - sharp| unconditional bound per h on a closed-form design.

    ``design`` must expose the population values ``sharp_bound(side)`` and
    ``smooth_bound(side, h)``, as ``BenchmarkDesign`` does with the
    package's plug-ins on its covariate atoms.
    """
    side = Side.parse(side)
    sharp = design.sharp_bound(side)
    return [(float(h), abs(design.smooth_bound(side, h) - sharp)) for h in h_grid]
