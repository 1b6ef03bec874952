"""Benchmark data-generating processes, their closed-form oracles, and the
Monte Carlo replication engine.

The primary design draws a three-category covariate that splits the
population into positively monotone, selection-indifferent, and negatively
monotone regions, with a treated outcome that mixes the always-taker and
complier laws on the positive region. All of its nuisance surfaces have
closed forms, so estimators can be benchmarked against exact targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._special import ndtr, ndtri
from .data_model import (XPLUS, NuisanceBundle, ObservationTable, Side, Stratum,
                         StratumSpec, write_csv)
from .errors import StrataBoundsError
from .estimation import (EstimationConfig, _brentq, estimate_inefficient,
                         estimate_sharp, estimate_smooth, estimate_switch,
                         estimate_trim)
from .identification import (SupportBounds, stratum_weight,
                             unconditional_sharp_bound)
from .smoothing import GFamily, smooth_unconditional_components

TRUNC_LO, TRUNC_HI = -4.0, 4.0
_TRUNC_CDF_LO, _TRUNC_CDF_HI = ndtr(TRUNC_LO), ndtr(TRUNC_HI)
_TRUNC_MASN = float(_TRUNC_CDF_HI - _TRUNC_CDF_LO)

PANEL_SHARES = {
    "a": (0.5, 0.0, 0.5),
    "b": (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    "c": (0.05, 0.95, 0.0),
}


# ---------------------------------------------------------------------------
# treated-arm outcome mixture on the positive-monotone region

def _mix_ppf(p0, gamma, u):
    """Left-continuous quantile of the two-component uniform mixture."""
    p0 = np.asarray(p0, dtype=float)
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = u / p0
        upper = gamma + (u - p0) / np.where(p0 < 1.0, 1.0 - p0, np.inf)
    if gamma >= 1.0:
        return np.where(u <= p0, lower, upper)
    f_gamma = p0 * gamma
    f_one = p0 + (1.0 - p0) * (1.0 - gamma)
    middle = u + (1.0 - p0) * gamma
    return np.where(u <= f_gamma, lower, np.where(u <= f_one, middle, upper))


def _mix_partial(q, p0, gamma, k):
    """Integral of y^k over [0, q] under the mixture."""
    q = np.asarray(q, dtype=float)
    a = np.clip(q, 0.0, 1.0)
    b = np.clip(q, gamma, 1.0 + gamma)
    return (p0 * a ** (k + 1) + (1.0 - p0) * (b ** (k + 1) - gamma ** (k + 1))) / (k + 1)


def _mix_mean(p0, gamma):
    return p0 * 0.5 + (1.0 - p0) * (0.5 + gamma)


def _mix_tail(p0, gamma, j, u):
    """Left-continuous quantile of the mixture at ``u`` and the mean below
    (``j=1``) or above (``j=0``) it."""
    u = np.asarray(u, dtype=float)
    q = _mix_ppf(p0, gamma, u)
    below = _mix_partial(q, p0, gamma, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if j == 1:
            return q, np.where(u > 0.0, below / u, 0.0)
        val = (_mix_mean(p0, gamma) - below) / (1.0 - u)
    return q, np.where(u < 1.0, val, 1.0 + gamma)


def _mix_censored_var(p0, gamma, level):
    """Variance of Y * 1{Y <= q(level)} under the mixture."""
    q = _mix_ppf(p0, gamma, np.asarray(level, dtype=float))
    m1 = _mix_partial(q, p0, gamma, 1)
    m2 = _mix_partial(q, p0, gamma, 2)
    return m2 - m1 ** 2


# ---------------------------------------------------------------------------
# configuration

#: Every estimation method, each mapping the ``estimate`` knobs it reads to
#: its estimator's keyword arguments.
METHODS = {"sharp": {}, "trim": {"eps_trim": "eps_trim", "trim_variant": "variant"},
           "switch": {"rho": "rho"}, "smooth": {"h": "h"}, "inefficient": {}}


def run_method(method, table, bundle, config, support, **knobs):
    """``method``'s record, its estimator called with ``knobs``. Estimators
    are looked up in this module's namespace at call time, where the
    benchmark tracer patches them: that is why the dispatch lives here."""
    if method == "sharp":
        return estimate_sharp(table, bundle, config, support)
    if method == "trim":
        return estimate_trim(table, bundle, config, support=support, **knobs)
    if method == "switch":
        return estimate_switch(table, bundle, config, support=support, **knobs)
    if method == "smooth":
        return estimate_smooth(table, bundle, GFamily(h=float(knobs["h"])), config)
    return estimate_inefficient(table, bundle, config, support)


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator configuration in the benchmarking roster."""

    name: str
    method: str                       # a ``METHODS`` key
    moments: str = "efficient"        # efficient | known_ps
    h: Optional[float] = None
    variant: str = "drop"             # trim only

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.moments not in ("efficient", "known_ps"):
            raise ValueError(f"unknown moments {self.moments!r}")
        if self.variant not in ("drop", "retain"):
            raise ValueError(f"unknown trim variant {self.variant!r}")
        if self.method == "smooth" and self.moments == "known_ps":
            raise ValueError("smoothed moments use the efficient family")
        if self.method == "smooth":
            GFamily(self.h)   # a finite h > 0


def paper_roster(h_grid: Sequence[float] = (0.05, 0.01, 1e-9)) -> tuple:
    """The six benchmark configurations reported by the harness.

    The two trimming variants deliberately differ: with known propensities
    the banded rows are physically dropped (shifting the estimand whenever
    they carry stratum mass), while the efficient variant keeps the
    full-sample point estimate and prices only the regular subsample into
    the standard error.
    """
    roster = [
        EstimatorSpec("switch_known", "switch", "known_ps"),
        EstimatorSpec("switch_unknown", "switch", "efficient"),
        EstimatorSpec("trim_known", "trim", "known_ps", variant="drop"),
        EstimatorSpec("trim_unknown", "trim", "efficient", variant="retain"),
    ]
    roster += [EstimatorSpec(f"smooth_h{h:g}", "smooth", h=float(h)) for h in h_grid]
    return tuple(roster)


@dataclass(frozen=True)
class DgpConfig:
    """Design and replication settings for one experiment."""

    dgp_id: str = "benchmark"
    n: int = 2000
    shares: tuple = (0.5, 0.0, 0.5)
    gamma: float = 1.0
    base_seed: int = 0
    replications: int = 2000
    alpha: float = 0.05
    h_grid: tuple = (0.05, 0.01, 1e-9)
    estimators: tuple = ()
    power_points: int = 21
    label: str = ""

    def __post_init__(self):
        if self.dgp_id not in ("benchmark", "single_index"):
            raise ValueError(f"unknown dgp {self.dgp_id!r}")
        shares = tuple(float(v) for v in self.shares)
        if len(shares) != 3 or min(shares) < 0 or abs(sum(shares) - 1.0) > 1e-12:
            raise ValueError("shares must be three nonnegative values summing to 1")
        object.__setattr__(self, "shares", shares)
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1, got "
                             f"{self.replications}")
        EstimationConfig(alpha=self.alpha)  # raises unless 0 < alpha < 1
        if not self.estimators:
            object.__setattr__(self, "estimators", paper_roster(self.h_grid))

    @property
    def separated(self) -> bool:
        """Whether the two treated-outcome components have disjoint supports."""
        return self.gamma >= 1.0


# ---------------------------------------------------------------------------
# sampling

def _rng(base_seed: int, rep_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(base_seed), int(rep_index)])))


def _truncnorm_ppf(u):
    return ndtri(_TRUNC_CDF_LO + u * (_TRUNC_CDF_HI - _TRUNC_CDF_LO))


def dgp_sample(config: DgpConfig, rep_index: int) -> ObservationTable:
    """Draw one replication sample with its deterministic per-rep stream."""
    if config.dgp_id == "single_index":
        return _dgp_sample_single_index(config, rep_index)
    rng = _rng(config.base_seed, rep_index)
    n = config.n
    p_plus, p_zero, _ = config.shares
    u_cat = rng.random(n)
    x1 = np.where(u_cat < p_plus, 1.0,
                  np.where(u_cat < p_plus + p_zero, 0.0, -1.0))
    x2 = _truncnorm_ppf(rng.random(n))
    v = rng.standard_normal(n)
    d = (rng.random(n) < 0.5).astype(np.int8)
    u = rng.random(n)
    s0 = (x2 >= v)
    s1 = (x1 + x2 >= v)
    at = s0 & s1
    comp = (~s0) & s1
    y1 = (u * at + (u + config.gamma) * comp) * (x1 == 1.0)
    s = np.where(d == 1, s1, s0).astype(np.int8)
    y = np.where(d == 1, y1, 0.0)
    y = np.where(s == 1, y, np.nan)
    return ObservationTable(y=y, s=s, d=d, x=np.column_stack([x1, x2]),
                            weight=np.ones(n))


def oracle_nuisances(config: DgpConfig) -> Callable[[ObservationTable], NuisanceBundle]:
    """Factory producing the true-nuisance bundle for a sampled table."""
    if config.dgp_id == "single_index":
        return partial(_single_index_bundle, config)
    return partial(_benchmark_bundle, config)


def _benchmark_bundle(config: DgpConfig, table: ObservationTable) -> NuisanceBundle:
    gamma = config.gamma
    x1 = table.x[:, 0]
    x2 = table.x[:, 1]
    # one ndtr call; where x1 = 0, s1 is s0 bit for bit
    shifted = np.flatnonzero(x1 != 0.0)
    both = ndtr(np.concatenate([x2, x1[shifted] + x2[shifted]]))
    s0 = both[:table.n]
    s1 = s0.copy()
    s1[shifted] = both[table.n:]
    m = np.full(table.n, 0.5)
    is_mix = x1 == 1.0
    p0_row = s0 / s1

    def tail_fn(rows, j, d, u):
        q, b = np.zeros(len(rows)), np.zeros(len(rows))
        if d == 1:
            mix = np.flatnonzero(is_mix[rows])
            q[mix], b[mix] = _mix_tail(p0_row[rows[mix]], gamma, j, u[mix])
        return q, b

    return NuisanceBundle(m, s0, s1, tail_fn, provenance="oracle")


def oracle_support(config: DgpConfig, table: ObservationTable) -> SupportBounds:
    if config.dgp_id == "single_index":
        return SupportBounds()  # unbounded outcome
    # only the treated upper limit varies by row
    x1 = table.x[:, 0]
    return SupportBounds(y1_lower=0.0,
                         y1_upper=np.where(x1 == 1.0, 1.0 + config.gamma, 0.0),
                         y0_lower=0.0, y0_upper=0.0)


# -- the single-index demonstration process --------------------------------

_SI_SIGMA = 0.5
#: Selection index: intercept, x1 slope, treated shifts at x2 = -1 and +1.
_SI_PARAMS = (0.2, 0.7, -0.6, 0.8)


def _si_mu(x1, d):
    return 0.5 * d + 0.3 * x1 + 0.2 * d * x1


def _dgp_sample_single_index(config: DgpConfig, rep_index: int) -> ObservationTable:
    g0, g1, g2, g3 = _SI_PARAMS
    rng = _rng(config.base_seed, rep_index)
    n = config.n
    lo, hi = ndtr(-2.0), ndtr(2.0)
    x1 = ndtri(lo + rng.random(n) * (hi - lo))
    x2 = rng.integers(-1, 2, size=n).astype(float)
    d = (rng.random(n) < 0.5).astype(np.int8)
    index = g0 + g1 * x1 + g2 * d * (x2 == -1.0) + g3 * d * (x2 == 1.0)
    s = (index + rng.standard_normal(n) >= 0).astype(np.int8)
    y = _si_mu(x1, d) + _SI_SIGMA * rng.standard_normal(n)
    y = np.where(s == 1, y, np.nan)
    return ObservationTable(y=y, s=s, d=d, x=np.column_stack([x1, x2]),
                            weight=np.ones(n))


def _single_index_bundle(config: DgpConfig, table: ObservationTable) -> NuisanceBundle:
    g0, g1, g2, g3 = _SI_PARAMS
    x1 = table.x[:, 0]
    x2 = table.x[:, 1]

    def sel(d):
        return ndtr(g0 + g1 * x1 + g2 * d * (x2 == -1.0) + g3 * d * (x2 == 1.0))

    mu = {d: _si_mu(x1, d) for d in (0, 1)}

    def tail_fn(rows, j, d, u):
        base = mu[d][rows]
        # unbounded support: edge levels of the quantile map to +-7 sigma
        # rather than infinities, which the moment evaluations never weight
        q = base + _SI_SIGMA * ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
        # selection is independent of the outcome given (D, X), so the
        # conditional law is the plain Gaussian and tail means are exact
        z = ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
        phi = np.exp(-0.5 * z ** 2) / np.sqrt(2.0 * np.pi)
        with np.errstate(divide="ignore", invalid="ignore"):
            if j == 1:
                return q, np.where(u >= 1.0, base, base - _SI_SIGMA * phi / u)
            val = base + _SI_SIGMA * phi / (1.0 - u)
        return q, np.where(u <= 0.0, base, val)

    return NuisanceBundle(np.full(table.n, 0.5), sel(0), sel(1), tail_fn,
                          provenance="oracle")


# ---------------------------------------------------------------------------
# population targets: the package's plug-ins on the design's covariate atoms

#: Gauss–Legendre nodes per x2 panel of the covariate atoms.
_ATOM_NODES = 64


@dataclass(frozen=True)
class DesignAtoms:
    """A design's covariate law as a weighted sample: one ``table`` row per
    atom, weighted by its probability, the true ``bundle`` and ``support``
    there, and the per-atom censored outcome variances no bundle carries."""

    table: ObservationTable
    bundle: NuisanceBundle
    support: SupportBounds
    sigma1_sq: np.ndarray
    sigma0_sq: np.ndarray


class BenchmarkDesign:
    """Population values of the primary benchmark design as the package's
    weighted plug-ins on covariate atoms: x1 in {1, 0, -1} (zero shares
    skipped) times Gauss–Legendre nodes in x2, weighted by share x
    truncated-normal density x node weight. The x2 panels split at the
    integrand's kinks, so the rule is exact to rounding. One atom sample
    per ``h`` (``None`` for the sharp targets) is built and cached."""

    def __init__(self, config: DgpConfig):
        if config.dgp_id != "benchmark":
            raise ValueError("closed-form design functionals exist for the "
                             "primary benchmark process only")
        self.config = config
        self._atoms = {}

    def atoms(self, h: Optional[float] = None) -> DesignAtoms:
        """Atom sample for the sharp targets (``h=None``) or the smoothed
        targets at ``h``."""
        if h not in self._atoms:
            self._atoms[h] = self._build_atoms(h)
        return self._atoms[h]

    def _build_atoms(self, h) -> DesignAtoms:
        nodes, node_w = leggauss(_ATOM_NODES)
        ends = self._panel_ends(h)
        half = 0.5 * np.diff(ends)[:, None]
        x2 = (half * nodes + 0.5 * (ends[1:] + ends[:-1])[:, None]).ravel()
        w2 = (half * node_w).ravel() * np.exp(-0.5 * x2 * x2) \
            / math.sqrt(2.0 * math.pi) / _TRUNC_MASN
        shares = np.array(self.config.shares)
        keep = shares != 0.0
        x1 = np.repeat(np.array([1.0, 0.0, -1.0])[keep], x2.size)
        n = x1.size
        table = ObservationTable(y=np.full(n, np.nan), s=np.zeros(n), d=np.zeros(n),
                                 x=np.column_stack([x1, np.tile(x2, keep.sum())]),
                                 weight=np.outer(shares[keep], w2).ravel())
        bundle = _benchmark_bundle(self.config, table)
        p0 = bundle.p0
        sigma1 = np.where(x1 == 1.0, _mix_censored_var(p0, self.config.gamma,
                                                       np.minimum(p0, 1.0)), 0.0)
        return DesignAtoms(table, bundle, oracle_support(self.config, table),
                           sigma1, np.zeros(n))

    def _panel_ends(self, h) -> np.ndarray:
        """The truncation limits plus each x2 where a trimming level read on
        the x1 = 1 atoms (p0 and 1 - p0 for the sharp targets, g1(p0) and
        1 - g1(p0) for the smoothed ones) crosses a branch point of
        ``_mix_ppf`` or a clip edge of [0, 1]."""
        gamma = self.config.gamma
        family = None if h is None else GFamily(h=h)

        def gaps(x2):
            p0 = ndtr(x2) / ndtr(1.0 + x2)
            level = p0 if family is None else family.g(1, p0)
            points = [p0] if gamma >= 1.0 else [gamma * p0,
                                                p0 + (1.0 - p0) * (1.0 - gamma)]
            points += [np.zeros_like(p0), np.ones_like(p0)]
            return np.array([lv - pt for lv in (level, 1.0 - level) for pt in points])

        # each gap is monotone, concave or convex in p0, which rises with
        # x2, so it has at most two roots; only a pair closer than one
        # bracket (1/8 in x2) would go unsplit
        grid = np.linspace(TRUNC_LO, TRUNC_HI, 65)
        sign = np.sign(gaps(grid))
        kinks = [_brentq(lambda x2: gaps(x2)[k], grid[i], grid[i + 1])
                 for k, i in zip(*np.nonzero(sign[:, :-1] != sign[:, 1:]))]
        return np.unique([TRUNC_LO, TRUNC_HI, *kinks])

    def sharp_bound(self, side, stratum=Stratum.AT, dominance: bool = False) -> float:
        atoms = self.atoms()
        return unconditional_sharp_bound(atoms.table, atoms.bundle,
                                         StratumSpec(stratum, side, dominance),
                                         atoms.support)

    def smooth_bound(self, side, h: float) -> float:
        """Population smoothed outer bound: the sum of the two component
        targets."""
        plus, minus = self.smooth_component_targets(side, h)
        return plus + minus

    def smooth_component_targets(self, side, h: float) -> tuple:
        """(plus, minus) population values of the two smoothed ratio pieces."""
        atoms = self.atoms(float(h))
        return smooth_unconditional_components(atoms.table, atoms.bundle, side,
                                               GFamily(h=float(h)))


@dataclass(frozen=True)
class OracleTarget:
    """True effect and identified-set ends for a benchmark configuration."""

    target: float
    lower: float
    upper: float
    separated: bool


def oracle_target(config: DgpConfig) -> OracleTarget:
    """True always-taker effect and sharp set ends on the design's atoms.

    Under full separation of the outcome components the effect coincides
    with the lower end of the identified set; otherwise both are reported.
    """
    design = BenchmarkDesign(config)
    atoms = design.atoms()
    w = atoms.table.weight
    share = stratum_weight(atoms.bundle.s0, atoms.bundle.s1, Stratum.AT)
    effect = np.where(atoms.bundle.labels() == XPLUS, 0.5, 0.0)
    return OracleTarget(target=float(np.dot(w, effect * share) / np.dot(w, share)),
                        lower=design.sharp_bound(Side.L),
                        upper=design.sharp_bound(Side.U),
                        separated=config.separated)


# ---------------------------------------------------------------------------
# replication engine

_REC_FIELDS = ("lower", "upper", "se_lower", "se_upper", "ci_lo")


def _replication_worker(config: DgpConfig, rep_index: int) -> dict:
    table = dgp_sample(config, rep_index)
    bundle = oracle_nuisances(config)(table)
    support = oracle_support(config, table)
    out = {}
    for est in config.estimators:
        cfg = EstimationConfig(alpha=config.alpha, inefficient=est.moments == "known_ps")
        knobs = {a: getattr(est, a) for a in METHODS[est.method].values()
                 if hasattr(est, a)}   # the spec's fields the method reads
        try:
            be = run_method(est.method, table, bundle, cfg, support, **knobs)
            out[est.name] = (be.lower, be.upper, be.se_lower, be.se_upper,
                             be.ci_effect[0])
        except StrataBoundsError as exc:
            out[est.name] = ("fail", type(exc).__name__)
    return out


@dataclass
class ExperimentResult:
    config: DgpConfig
    target: OracleTarget
    records: dict            # estimator name -> structured array over reps
    failures: dict           # estimator name -> list of (rep, error)
    metrics: list = field(default_factory=list)
    power: list = field(default_factory=list)


def run_experiment(config: DgpConfig, threads: int = 1) -> ExperimentResult:
    """Replicate the design, estimate every roster entry, and tabulate
    bias, root-mean-squared error, size, and the power curve.

    Deterministic for a fixed configuration and seed regardless of the
    thread count: per-replication streams are keyed by the replication
    index and results are reduced in replication order. Called from Python
    rather than through ``cli.main`` (whose freed 16 MiB block keeps glibc's
    heap), it churns the heap: about 7,100 minor faults per 50 replications
    at n = 2,000."""
    if config.dgp_id != "benchmark":
        raise ValueError("the replication harness targets the primary design")
    target = oracle_target(config)
    reps = range(config.replications)
    worker = partial(_replication_worker, config)
    if threads and threads > 1:
        # imported here: the pool's modules cost start-up that a
        # single-threaded run never uses
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, config.replications // (8 * threads))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            raw = list(pool.map(worker, reps, chunksize=chunk))
    else:
        raw = [worker(r) for r in reps]

    records = {}
    failures = {}
    for est in config.estimators:
        vals = np.full((config.replications, len(_REC_FIELDS)), np.nan)
        fails = []
        for r, rec in enumerate(raw):
            entry = rec[est.name]
            if entry[0] == "fail":
                fails.append((r, entry[1]))
            else:
                vals[r] = entry
        records[est.name] = vals
        failures[est.name] = fails

    result = ExperimentResult(config=config, target=target, records=records,
                              failures=failures)
    beta_star = target.lower
    # the power grid spans ten Monte Carlo standard deviations of the
    # efficient switching estimator (or the first roster entry without it)
    ref = records.get("switch_unknown")
    if ref is None:
        ref = records[config.estimators[0].name]
    ok_ref = ~np.isnan(ref[:, 0])
    se_ref = float(np.std(ref[ok_ref, 0], ddof=1)) if ok_ref.sum() > 1 else 0.0
    grid = np.linspace(beta_star - 10.0 * se_ref, beta_star, config.power_points)

    for est in config.estimators:
        vals = records[est.name]
        ok = ~np.isnan(vals[:, 0])
        lower = vals[ok, 0]
        ci_lo = vals[ok, 4]
        bias = float(np.mean(lower) - beta_star) if ok.any() else np.nan
        rmse = float(np.sqrt(np.mean((lower - beta_star) ** 2))) if ok.any() else np.nan
        size = float(np.mean(ci_lo > beta_star)) if ok.any() else np.nan
        result.metrics.append({
            "panel": config.label or _share_label(config.shares),
            "method": est.name,
            "n": config.n,
            "bias": bias,
            "rmse": rmse,
            "size": size,
            "reps": int(ok.sum()),
            "failures": len(failures[est.name]),
        })
        for b in grid:
            result.power.append({
                "panel": config.label or _share_label(config.shares),
                "method": est.name,
                "n": config.n,
                "hypothesis": float(b),
                "rejection_rate": float(np.mean(ci_lo > b)) if ok.any() else np.nan,
            })
    return result


def _share_label(shares) -> str:
    return "(" + ",".join(f"{v:g}" for v in shares) + ")"


def write_metrics_csv(results, path) -> None:
    """Metrics rows (one per estimator and sample size) to CSV."""
    _write_rows(path, ["panel", "method", "n", "bias", "rmse", "size",
                       "reps", "failures"],
                [m for r in _as_list(results) for m in r.metrics])


def write_power_csv(results, path) -> None:
    _write_rows(path, ["panel", "method", "n", "hypothesis", "rejection_rate"],
                [p for r in _as_list(results) for p in r.power])


def _as_list(results):
    return results if isinstance(results, (list, tuple)) else [results]


def _write_rows(path, columns, rows) -> None:
    write_csv(path, columns, ([row[c] for c in columns] for row in rows))
