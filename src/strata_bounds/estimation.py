"""Estimators, variance estimates, and confidence intervals.

Four strategies for the irregularity at selection-indifferent covariate
points: evaluate the moments straight through their point-identified limit
(``sharp``), physically drop the indifference band (``trim``, drop
variant), substitute the point-identified moment inside a shrinking band
(``switch``), or smooth the whole functional (``smooth``). The
known-propensity variant (``inefficient_known_ps``) drops the
truncated-mean augmentation from the moments.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._special import ndtr_float, ndtri
from .data_model import (SHARE_FLOOR, BoundsEstimate, NuisanceBundle,
                         ObservationTable, Side, Stratum, StratumSpec, XPLUS,
                         XZERO)
from .errors import (AllTrimmedError, InfiniteMomentError, PartitionError,
                     ZeroShareError)
from .identification import (SupportBounds, conditional_sharp_bound,
                             stratum_weight)
from .influence import (InfluenceRows, degenerate_at_moments, eif_regular,
                        eif_smooth)
from .smoothing import GFamily


def default_rho(n: int) -> float:
    """Shrinking half-width of the moment-switching band; ``ValueError``
    for fewer than two rows, where ``log(n)`` is not positive."""
    if n < 2:
        raise ValueError(f"the default switching band needs n >= 2 rows, "
                         f"got n = {n}")
    return n ** (-0.25) / math.log(n)


def _band_width(name, value) -> float:
    """``value`` as a float; ``ValueError`` naming ``name`` unless it is a
    finite number >= 0."""
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {value}")
    return value


def _normalized(w: np.ndarray) -> np.ndarray:
    """Weights scaled to sum to one; a total that is not positive (zero,
    or NaN) raises ``ZeroShareError``."""
    total = w.sum()
    if not total > 0:
        raise ZeroShareError(f"the kept rows' weights sum to {total:.3e}")
    return w / total


def _finite(*moments) -> None:
    """Raise ``InfiniteMomentError`` unless every moment row is finite."""
    for psi in moments:
        if not np.isfinite(psi).all():
            raise InfiniteMomentError(
                f"{int((~np.isfinite(psi)).sum())} moment rows are not "
                "finite; the bound reads an infinite support limit or quantile")


def _finite_ends(method, *values) -> None:
    """Raise ``InfiniteMomentError`` unless every bound, standard error
    and interval end in ``values`` is finite."""
    if not np.isfinite(values).all():
        raise InfiniteMomentError(
            f"{method}: a bound, standard error or interval end is not "
            f"finite ({', '.join(repr(float(v)) for v in values)})")


def _norm(v) -> float:
    """``sqrt(sum(v ** 2))`` summed on ``v`` times ``2 ** -e``, where
    ``2 ** e`` bounds ``max |v|``: no square overflows, and only negligible
    ones underflow (LAPACK's ``dnrm2``, Blue 1978). Powers of two scale
    exactly, so in the normal range this equals the unscaled formula."""
    e = math.frexp(float(np.max(np.abs(v))))[1]
    root = math.sqrt(float(np.sum(np.ldexp(v, -e) ** 2)))
    return 2.0 * root * 2.0 ** (e - 1)   # 2.0 ** 1024 raises; this gives inf


def _solve(wn, psi_b, psi_s):
    """``(beta, den, resid)`` of the moment equation under the normalized
    weights ``wn``: the share mean ``den``, the ratio ``beta`` and the
    linearized residual ``psi_b - beta * psi_s``."""
    _finite(psi_b, psi_s)
    den = float(np.dot(wn, psi_s))
    if not den > SHARE_FLOOR:
        raise ZeroShareError(f"share moment mean {den:.3e} at or below floor")
    beta = float(np.dot(wn, psi_b)) / den
    return beta, den, psi_b - beta * psi_s


def ratio_estimate(psi_b, psi_s, weights):
    """Solve the linear moment equation; returns (estimate, standard error).

    The estimate is the ratio of weighted means; the standard error comes
    from the plug-in variance of the linearized residual
    ``psi_b - beta * psi_s`` scaled by the share mean.
    """
    psi_b = np.asarray(psi_b, dtype=float)
    psi_s = np.asarray(psi_s, dtype=float)
    wn = _normalized(np.asarray(weights, dtype=float))
    beta, den, resid = _solve(wn, psi_b, psi_s)
    return beta, _norm(wn * resid) / den


def _brentq(f, a, b, xtol=2e-12, rtol=4 * sys.float_info.epsilon, maxiter=100,
            fa=None, fb=None):
    """Root of ``f`` in the bracket ``[a, b]`` by Brent's (1973) method.

    A transcription of scipy's C ``brentq`` (the same branch order, the
    same sign-bit test, each ``f`` value taken as a C double), so it
    returns the same root bytes and raises the same errors: ``ValueError``
    for a NaN value or a bracket without a sign change, ``RuntimeError``
    when ``maxiter`` steps do not converge. A caller that has already
    evaluated ``f(a)`` or ``f(b)`` passes it as ``fa`` or ``fb``.
    """
    def call(x, fx=None):
        if fx is None:
            fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return float(fx)

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre, fa), call(xcur, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # an underflowed denominator: C's step is inf or NaN,
                # which fails the test below and bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


@functools.lru_cache(maxsize=8)
def _normal_quantile(p: float) -> float:
    """``ndtri(p)`` as a float, kept for the few levels every estimate
    asks for again."""
    return float(ndtri(p))


def im_critical_value(delta: float, se: float, alpha: float = 0.05) -> float:
    """Critical value interpolating one- and two-sided coverage.

    Solves ``Phi(C + delta/se) - Phi(-C) = 1 - alpha`` by Brent's method
    (``xtol=1e-10``) on ``[0, z_{1-alpha/2}]``; the point-identified limit
    gives the two-sided value and a wide identified set the one-sided one.
    """
    z_two = _normal_quantile(1.0 - alpha / 2.0)
    delta = max(float(delta), 0.0)
    if not np.isfinite(delta):
        return _normal_quantile(1.0 - alpha)
    if se <= 0.0:
        return _normal_quantile(1.0 - alpha) if delta > 0 else z_two
    ratio = float(delta / se)

    def f(c):
        return ndtr_float(c + ratio) - ndtr_float(-c) - (1.0 - alpha)

    f_zero, f_two = f(0.0), f(z_two)
    if f_zero >= 0.0:
        return 0.0
    if f_two <= 0.0:  # point-identified limit: the root sits at the end
        return z_two
    return _brentq(f, 0.0, z_two, xtol=1e-10, fa=f_zero, fb=f_two)


def _effect_interval(lower, upper, se_lower, se_upper, alpha):
    c = im_critical_value(upper - lower, max(se_lower, se_upper), alpha=alpha)
    return lower - c * se_lower, upper + c * se_upper


def imbens_manski_interval(lower: float, upper: float, se_lower: float,
                           se_upper: float, alpha: float = 0.05):
    """Effect confidence interval for a partially identified parameter.

    ``se_lower``/``se_upper`` are per-estimate standard errors (any sample
    size scaling already applied). The conservative variant with the
    larger of the two standard errors enters the critical-value equation.
    """
    if upper < lower:
        raise ValueError("upper bound below lower bound")
    if se_lower < 0 or se_upper < 0:
        raise ValueError("standard errors must be nonnegative")
    return _effect_interval(lower, upper, se_lower, se_upper, alpha)


def _regular_rows(table, bundle, labels, spec, support, inefficient,
                  degenerate_mask) -> InfluenceRows:
    """Regular moments with the point-identified limit on the masked rows."""
    degenerate_mask = np.asarray(degenerate_mask, dtype=bool)
    # give masked rows a harmless branch for vectorized evaluation,
    # then overwrite their contributions
    safe_labels = np.where(degenerate_mask, 1, labels)
    rows = eif_regular(table, bundle, safe_labels, spec, support,
                       inefficient=inefficient)
    if not degenerate_mask.any():
        return rows
    if spec.stratum is Stratum.AT:
        deg = degenerate_at_moments(table, bundle, inefficient=inefficient)
        psi_b = np.where(degenerate_mask, deg.psi_b, rows.psi_b)
        psi_s = np.where(degenerate_mask, deg.psi_s, rows.psi_s)
    else:
        # zero stratum mass at indifference: the rows contribute nothing
        psi_b = np.where(degenerate_mask, 0.0, rows.psi_b)
        psi_s = np.where(degenerate_mask, 0.0, rows.psi_s)
    return InfluenceRows(psi_b=psi_b, psi_s=psi_s)


@dataclass(frozen=True)
class EstimationConfig:
    """Shared knobs for the bound estimators."""

    stratum: Stratum = Stratum.AT
    alpha: float = 0.05
    dominance: bool = False
    inefficient: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    def spec(self, side: Side) -> StratumSpec:
        return StratumSpec(self.stratum, side, self.dominance)


def moment_rows(table: ObservationTable, bundle: NuisanceBundle, side,
                config: EstimationConfig = EstimationConfig(),
                support: Optional[SupportBounds] = None) -> InfluenceRows:
    """Per-row moments as the plain estimator consumes them: regular on the
    monotone partitions, the point-identified limit on indifferent rows."""
    if support is None:
        support = SupportBounds.from_table(table)
    labels = bundle.labels()
    mask = labels == XZERO
    return _regular_rows(table, bundle, labels, config.spec(Side.parse(side)),
                         support, config.inefficient, mask)


def _estimate(side_estimate, method, n_effective, config, h=None,
              diagnostics=None) -> BoundsEstimate:
    """Package ``side_estimate(side) -> (estimate, se)`` for the lower and
    then the upper side, with the pointwise interval for the identified set
    and the effect interval."""
    lower, se_lower = side_estimate(Side.L)
    upper, se_upper = side_estimate(Side.U)
    if upper < lower and upper - lower > -1e-10:
        upper = lower  # numerical guard at point identification
    alpha = config.alpha
    z = _normal_quantile(1.0 - alpha / 2.0)
    ci_set = (lower - z * se_lower, upper + z * se_upper)
    # the effect interval lies inside ci_set, so this covers it too
    _finite_ends(method, lower, upper, se_lower, se_upper, *ci_set)
    # estimated ends can cross on degenerate samples; the critical value
    # then uses the point-identified (zero-width) limit
    return BoundsEstimate(
        lower=lower, upper=upper, se_lower=se_lower, se_upper=se_upper,
        ci_set=ci_set,
        ci_effect=_effect_interval(lower, upper, se_lower, se_upper, alpha),
        method=method, n_effective=int(n_effective), alpha=alpha, h=h,
        stratum=config.stratum.value, diagnostics=diagnostics or {})


def estimate_sharp(table: ObservationTable, bundle: NuisanceBundle,
                   config: EstimationConfig = EstimationConfig(),
                   support: Optional[SupportBounds] = None) -> BoundsEstimate:
    """Plug the regular moments straight in, with the point-identified limit
    on selection-indifferent rows.

    Never-taker bounds have no moment representation (they are support
    constants), so that stratum aggregates the conditional bounds directly;
    its standard error reflects the sampling of the plug-in only. The
    plug-in has no known-propensity variant: with ``config.inefficient``
    the never-taker stratum takes the moment path, which raises
    ``PartitionError`` as every stratum but the always-takers' does.
    """
    if support is None:
        support = SupportBounds.from_table(table)
    if config.stratum is Stratum.NT and not config.inefficient:
        w_nt = stratum_weight(bundle.s0, bundle.s1, Stratum.NT)

        def plug_in(side):
            beta_x = conditional_sharp_bound(bundle, config.spec(side), support)
            return ratio_estimate(beta_x * w_nt, w_nt, table.weight)

        return _estimate(plug_in, "sharp", table.n, config,
                         diagnostics={"plug_in": True})

    def side_estimate(side):
        rows = moment_rows(table, bundle, side, config, support)
        return ratio_estimate(rows.psi_b, rows.psi_s, table.weight)

    method = "inefficient_known_ps" if config.inefficient else "sharp"
    diags = {"share_xzero": float((bundle.labels() == XZERO).mean()),
             "n_clamped": bundle.n_clamped}
    return _estimate(side_estimate, method, table.n, config, diagnostics=diags)


def estimate_inefficient(table, bundle, config: EstimationConfig = EstimationConfig(),
                         support: Optional[SupportBounds] = None) -> BoundsEstimate:
    """Known-propensity moment estimator (no truncated-mean surfaces consumed)."""
    if bundle.provenance not in ("oracle", "external", "external_oracle"):
        raise PartitionError("known-propensity moments require an oracle or "
                             "externally supplied propensity score")
    return estimate_sharp(table, bundle, replace(config, inefficient=True),
                          support)


def estimate_trim(table: ObservationTable, bundle: NuisanceBundle,
                  config: EstimationConfig = EstimationConfig(),
                  eps_trim: Optional[float] = None, variant: str = "drop",
                  support: Optional[SupportBounds] = None) -> BoundsEstimate:
    """Handle the indifference band by trimming.

    ``variant="drop"`` removes the banded rows and re-estimates on the
    survivors (share renormalized to the trimmed subpopulation, so the
    estimand shifts whenever the removed rows carry stratum mass). It reads
    the survivors' rows of the full-sample moments that the other
    estimators share, so it evaluates every row's nuisances as they do.
    ``variant="retain"`` keeps the full-sample point estimate, routing
    banded rows through their point-identified limit, but bases the
    standard error on the regular subsample only (its residual spread and
    its count), which is deliberately conservative.
    """
    if support is None:
        support = SupportBounds.from_table(table)
    labels = bundle.labels()
    band = labels == XZERO
    if eps_trim is not None:
        band = band | (np.abs(bundle.p0 - 1.0) <= _band_width("eps_trim", eps_trim))
    survivors = ~band
    n_surv = int(survivors.sum())
    if n_surv == 0:
        raise AllTrimmedError("every row lies inside the trimming band")
    diags = {"share_trimmed": float(band.mean()), "variant": variant}

    if variant == "drop":
        # banded rows take a harmless branch; the moments are elementwise,
        # so the survivors' rows equal those of the survivor subset
        safe_labels = np.where(band, XPLUS, labels)
        w_surv = table.weight[survivors]

        def side_estimate(side):
            rows = eif_regular(table, bundle, safe_labels, config.spec(side),
                               support, inefficient=config.inefficient)
            return ratio_estimate(rows.psi_b[survivors],
                                  rows.psi_s[survivors], w_surv)
    elif variant == "retain":
        wn_all = _normalized(table.weight)
        wn_surv = _normalized(np.where(survivors, table.weight, 0.0))

        def side_estimate(side):
            rows = _regular_rows(table, bundle, labels, config.spec(side),
                                 support, config.inefficient, band)
            beta, den, resid = _solve(wn_all, rows.psi_b, rows.psi_s)
            return beta, _norm(wn_surv * resid) / den
    else:
        raise ValueError(f"unknown trim variant {variant!r}")
    return _estimate(side_estimate, "trim", n_surv, config, diagnostics=diags)


def estimate_switch(table: ObservationTable, bundle: NuisanceBundle,
                    config: EstimationConfig = EstimationConfig(),
                    rho: float | str = "auto",
                    support: Optional[SupportBounds] = None) -> BoundsEstimate:
    """Swap in the point-identified moment inside the shrinking band."""
    if support is None:
        support = SupportBounds.from_table(table)
    rho = _band_width("rho", default_rho(table.n) if rho == "auto" else rho)
    labels = bundle.labels()
    band = (labels == XZERO) | (np.abs(bundle.p0 - 1.0) <= rho)

    def side_estimate(side):
        rows = _regular_rows(table, bundle, labels, config.spec(side), support,
                             config.inefficient, band)
        return ratio_estimate(rows.psi_b, rows.psi_s, table.weight)

    diags = {"rho": rho, "share_switched": float(band.mean())}
    return _estimate(side_estimate, "switch", table.n, config, diagnostics=diags)


def smooth_ratio_estimate(rows, weights):
    """Sum of two moment ratios with the joint delta-method standard error.

    The four per-row components share observations, so the variance uses
    the combined linearized residual rather than independent ratios.
    """
    wn = _normalized(np.asarray(weights, dtype=float))
    beta_p, den_p, resid_p = _solve(wn, rows.psi_b_plus, rows.psi_s_plus)
    beta_m, den_m, resid_m = _solve(wn, rows.psi_b_minus, rows.psi_s_minus)
    return beta_p + beta_m, _norm(wn * (resid_p / den_p + resid_m / den_m))


def estimate_smooth(table: ObservationTable, bundle: NuisanceBundle,
                    family: GFamily,
                    config: EstimationConfig = EstimationConfig()) -> BoundsEstimate:
    """Smoothed outer-bound estimator; defined for the always-taker stratum
    and the efficient moments only (``PartitionError`` otherwise)."""
    if config.stratum is not Stratum.AT:
        raise PartitionError("smoothed moments are provided for the "
                             "always-taker stratum")
    if config.inefficient:
        raise PartitionError("smoothed moments have no known-propensity "
                             "variant")

    def side_estimate(side):
        return smooth_ratio_estimate(eif_smooth(table, bundle, family, side),
                                     table.weight)

    return _estimate(side_estimate, "smooth", table.n, config, h=family.h)
