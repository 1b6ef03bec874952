"""Core domain types: observation tables, nuisance bundles, partition labels.

All types are immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

import csv
import enum
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

logger = logging.getLogger("strata_bounds")

XPLUS = 1
XZERO = 0
XMINUS = -1

DEFAULT_OVERLAP_FLOOR = 0.01
#: Floor used for oracle / externally supplied probabilities, where the
#: generating process already guarantees strict overlap pointwise.
ORACLE_OVERLAP_FLOOR = 1e-12
#: Tolerance for classifying a row as selection-indifferent when the
#: probabilities are estimated rather than exact.
DEFAULT_EPS0_ESTIMATED = 1e-12
#: A stratum share (denominator moment) at or below this is treated as zero.
SHARE_FLOOR = 1e-12
#: Provenances whose probabilities are exact rather than estimated.
_EXACT_PROVENANCES = ("oracle", "external_oracle")


class Stratum(enum.Enum):
    """Latent subgroup defined by the potential selection pair."""

    AT = "at"     # selected under both arms
    C = "c"       # selected under treatment only
    DEF = "def"   # selected under control only
    NT = "nt"     # never selected
    EM = "em"     # extensive margin: C and DEF combined

    @classmethod
    def parse(cls, value) -> "Stratum":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


class Side(enum.Enum):
    L = "l"
    U = "u"

    @classmethod
    def parse(cls, value) -> "Side":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


@dataclass(frozen=True)
class StratumSpec:
    """Which estimand: stratum, bound side, and the mean-dominance refinement."""

    stratum: Stratum
    side: Side
    dominance: bool = False

    def __post_init__(self):
        object.__setattr__(self, "stratum", Stratum.parse(self.stratum))
        object.__setattr__(self, "side", Side.parse(self.side))


@dataclass(frozen=True)
class ObservationTable:
    """Estimation sample: outcome, selection, treatment, covariates, weights.

    ``x`` holds one row per observation, shape (n, p).

    ``y`` is only defined on rows with ``s == 1``; unselected rows carry a
    quiet-NaN sentinel which downstream formulas never read (every outcome
    term is multiplied by ``s``).
    """

    y: np.ndarray
    s: np.ndarray
    d: np.ndarray
    x: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        s = np.asarray(self.s, dtype=np.int8)
        d = np.asarray(self.d, dtype=np.int8)
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        w = np.ones_like(y) if self.weight is None else np.asarray(self.weight, dtype=float)
        for name, arr in (("y", y), ("s", s), ("d", d), ("x", x), ("weight", w)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        if not (len(y) == len(s) == len(d) == len(w) == x.shape[0]):
            raise ValueError("column lengths differ")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @cached_property
    def y_filled(self) -> np.ndarray:
        """Outcome with the unselected sentinel replaced by 0 (computed
        once, read-only).

        Safe because every formula multiplies outcome terms by ``s``; the
        sentinel value itself is provably never read.
        """
        return _read_only(np.where(self.s == 1,
                                   np.where(np.isnan(self.y), 0.0, self.y), 0.0))

    def select(self, idx) -> "ObservationTable":
        return ObservationTable(self.y[idx], self.s[idx], self.d[idx],
                                self.x[idx], self.weight[idx])

    def with_negated_outcome(self) -> "ObservationTable":
        return ObservationTable(-self.y, self.s, self.d, self.x, self.weight)

    def with_swapped_arms(self) -> "ObservationTable":
        return ObservationTable(self.y, self.s, 1 - self.d, self.x, self.weight)

    # -- CSV interface -----------------------------------------------------
    # Header: y,s,d,weight,x1..xp. Missing y is an empty field or "NA".

    @classmethod
    def from_csv(cls, path_or_buffer, weights_col: str = "weight") -> "ObservationTable":
        """Table from a CSV with the header above. A blank line, a row whose
        field count differs from the header's, or a field that does not
        parse (``s`` and ``d`` as 8-bit integers, the rest as floats) raises
        ``ValueError`` naming the data row (counted from 1 below the header)
        and, for a field, its column."""
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
            for required in ("y", "s", "d"):
                if required not in cols:
                    raise ValueError(f"missing required column {required!r}")
            xcols = sorted((c for c in cols if c.startswith("x") and c[1:].isdigit()),
                           key=lambda c: int(c[1:]))
            rows = list(reader)
        finally:
            if close:
                fh.close()
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
                raise _field_error(i, row, cols, weights_col, xcols) from None
        return cls(y, s, d, x, w)

    def to_csv(self, path_or_buffer) -> None:
        close = False
        if isinstance(path_or_buffer, (str, bytes)):
            fh = open(path_or_buffer, "w", encoding="utf-8", newline="")
            close = True
        else:
            fh = path_or_buffer
        try:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["y", "s", "d", "weight"] + [f"x{j + 1}" for j in range(self.p)])
            for i in range(self.n):
                y_str = "" if self.s[i] == 0 or math.isnan(self.y[i]) else repr(float(self.y[i]))
                writer.writerow([y_str, int(self.s[i]), int(self.d[i]),
                                 repr(float(self.weight[i]))]
                                + [repr(float(v)) for v in self.x[i]])
        finally:
            if close:
                fh.close()


def _field_error(i, row, cols, weights_col, xcols) -> ValueError:
    """The error for data row ``i`` of ``ObservationTable.from_csv``: the
    first field, in the order the row is read, that does not parse."""
    parsers = [("y", lambda v: v.strip() in ("", "NA") or float(v)),
               ("s", lambda v: np.int8(int(v))),
               ("d", lambda v: np.int8(int(v)))]
    if weights_col in cols:
        parsers.append((weights_col, lambda v: v.strip() == "" or float(v)))
    parsers += [(c, float) for c in xcols]
    for name, parse in parsers:
        try:
            parse(row[cols[name]])
        except (ValueError, OverflowError) as exc:
            return ValueError(f"data row {i + 1}, column {name!r}: {exc}")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple
    messages: tuple

    def __bool__(self):
        return self.ok


def validate(table: ObservationTable) -> ValidationReport:
    """Check an observation table against the input contract.

    Returns a report object; rule violations are collected rather than
    raised so callers can surface all problems at once.
    """
    failures = []
    msgs = []

    def fail(rule, msg):
        failures.append(rule)
        msgs.append(f"{rule}: {msg}")

    if not np.isin(table.s, (0, 1)).all():
        fail("selection binary", "s contains values outside {0,1}")
    if not np.isin(table.d, (0, 1)).all():
        fail("treatment binary", "d contains values outside {0,1}")
    selected = table.s == 1
    if np.isnan(table.y[selected]).any():
        fail("outcome missing under selection",
             f"{int(np.isnan(table.y[selected]).sum())} selected rows have missing y")
    if np.isinf(table.y[selected]).any():
        fail("outcome finite under selection", "selected rows have non-finite y")
    if (table.weight < 0).any():
        fail("nonnegative weights", "negative weights present")
    if not np.isfinite(table.weight).all():
        fail("finite weights", "NaN or infinite weights present")
    elif not table.weight.sum() > 0:
        fail("positive total weight", "weights sum to zero")
    if not np.isfinite(table.x).all():
        fail("finite covariates", "NaN or infinite covariates present")
    return ValidationReport(ok=not failures, failures=tuple(failures), messages=tuple(msgs))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def partition_labels(s0: np.ndarray, s1: np.ndarray, eps0: float = 0.0) -> np.ndarray:
    """Partition labels in {-1, 0, +1} (int8) by the sign of ``s1 - s0``;
    a point is indifferent (0) when ``|s1 - s0| <= eps0``."""
    diff = np.asarray(s1, dtype=float) - np.asarray(s0, dtype=float)
    labels = np.where(np.abs(diff) <= eps0, XZERO, np.where(diff > 0, XPLUS, XMINUS))
    return labels.astype(np.int8)


class NuisanceBundle:
    """Per-row nuisance evaluations packaged together.

    Holds the treatment propensity ``m``, the conditional selection
    probabilities ``s0``/``s1`` (clamped once at assembly to the overlap
    floor of the provenance), plus evaluators for the conditional quantile
    and truncated-mean surfaces. ``quantile(d, u)`` and
    ``trunc_mean(j, d, u)`` accept a row index array and per-row ``u``
    values; ``j=1`` means the mean of the outcome below its ``u``-quantile,
    ``j=0`` the mean above it.

    ``p0`` and ``labels()`` are computed once per bundle, and
    ``per_table`` keeps what is built from one (table, bundle) pair; every
    cached array is read-only.
    """

    def __init__(self, m, s0, s1, quantile_fn: Callable, trunc_mean_fn: Callable,
                 provenance: str = "oracle"):
        floor = (ORACLE_OVERLAP_FLOOR if provenance in _EXACT_PROVENANCES
                 else DEFAULT_OVERLAP_FLOOR)
        m, s0, s1 = (np.asarray(arr, dtype=float) for arr in (m, s0, s1))
        for name, arr in (("m", m), ("s0", s0), ("s1", s1)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise ValueError(f"nuisance {name} is not finite at row {bad[0]}")
        clamped = int(sum(((arr < floor) | (arr > 1 - floor)).sum()
                          for arr in (m, s0, s1)))
        if clamped:
            logger.info("clamped %d nuisance values to the overlap floors", clamped)
        self.m, self.s0, self.s1 = (np.clip(arr, floor, 1 - floor)
                                    for arr in (m, s0, s1))
        for arr in (self.m, self.s0, self.s1):
            arr.setflags(write=False)
        self._quantile_fn = quantile_fn
        self._trunc_mean_fn = trunc_mean_fn
        self.provenance = provenance
        self.n_clamped = clamped
        self._table_slot = None

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @cached_property
    def p0(self) -> np.ndarray:
        return _read_only(self.s0 / self.s1)

    def default_eps0(self) -> float:
        if self.provenance in _EXACT_PROVENANCES:
            return 0.0
        return DEFAULT_EPS0_ESTIMATED

    def labels(self) -> np.ndarray:
        return self._labels

    @cached_property
    def _labels(self) -> np.ndarray:
        return _read_only(partition_labels(self.s0, self.s1, self.default_eps0()))

    def per_table(self, table: ObservationTable, key, build: Callable):
        """``build()``, computed once per (``table``, this bundle, ``key``).

        The results live in a one-entry slot keyed by the identity of
        ``table``: a different table, derived ones included, starts a new
        slot and never sees these results. A ``build`` that raises stores
        nothing. The keys in use (all in :mod:`strata_bounds.influence`):

        - ``"ipw"``: outcome, treatment, IPW weights and selection
          corrections per row;
        - ``("degenerate", inefficient)``: the point-identified moments;
        - ``("at", side)``: the always-taker tails of one side and both
          partition branches of its moments, shared by every estimator;
        - ``"smooth"``: the side-independent smoothing pieces, for the
          last h only.
        """
        slot = self._table_slot
        if slot is None or slot[0] is not table:
            slot = self._table_slot = (table, {})
        memo = slot[1]
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def quantile(self, rows: np.ndarray, d: int, u: np.ndarray) -> np.ndarray:
        """q_d(u_i, x_i) for each row index i, with u clipped to [0, 1]."""
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        return np.asarray(self._quantile_fn(np.asarray(rows), int(d), u), dtype=float)

    def trunc_mean(self, rows: np.ndarray, j: int, d: int, u: np.ndarray) -> np.ndarray:
        """beta_{j,d}(u_i, x_i) for each row index i, with u clipped to [0, 1]."""
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        return np.asarray(self._trunc_mean_fn(np.asarray(rows), int(j), int(d), u), dtype=float)

    def all_rows(self) -> np.ndarray:
        return np.arange(self.n)

    # -- transforms used to derive mirrored strata moments ------------------

    def _derive(self, m, s0, s1, quantile_fn: Callable,
                trunc_mean_fn: Callable) -> "NuisanceBundle":
        """Bundle with already clamped probabilities and new evaluators that
        keeps this bundle's provenance and clamp count."""
        out = NuisanceBundle.__new__(NuisanceBundle)
        out.m, out.s0, out.s1 = m, s0, s1
        for arr in (m, s0, s1):
            arr.setflags(write=False)
        out._quantile_fn = quantile_fn
        out._trunc_mean_fn = trunc_mean_fn
        out.provenance = self.provenance
        out.n_clamped = self.n_clamped
        out._table_slot = None
        return out

    def with_negated_outcome(self) -> "NuisanceBundle":
        """Bundle for the sign-flipped outcome -Y.

        Quantiles satisfy q_{-Y}(u) = -q_Y(1-u) and the two truncated-mean
        surfaces swap roles (exact under a continuous outcome distribution).
        """
        return self._derive(
            self.m, self.s0, self.s1,
            lambda rows, d, u: -self.quantile(rows, d, 1.0 - u),
            lambda rows, j, d, u: -self.trunc_mean(rows, 1 - j, d, 1.0 - u))

    def with_swapped_arms(self) -> "NuisanceBundle":
        """Bundle for the relabeled treatment 1-D: swaps m and the two arms."""
        return self._derive(
            np.asarray(1.0 - self.m), self.s1, self.s0,
            lambda rows, d, u: self.quantile(rows, 1 - d, u),
            lambda rows, j, d, u: self.trunc_mean(rows, j, 1 - d, u))

    def select(self, idx: np.ndarray) -> "NuisanceBundle":
        """View of the bundle restricted to a row subset."""
        idx = np.asarray(idx)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        return self._derive(
            self.m[idx], self.s0[idx], self.s1[idx],
            lambda rows, d, u: self.quantile(idx[rows], d, u),
            lambda rows, j, d, u: self.trunc_mean(idx[rows], j, d, u))


@dataclass(frozen=True)
class BoundsEstimate:
    """Point estimates, standard errors, and confidence intervals for a bound pair."""

    lower: float
    upper: float
    se_lower: float
    se_upper: float
    ci_set: tuple
    ci_effect: tuple
    method: str
    n_effective: int
    alpha: float = 0.05
    h: Optional[float] = None
    stratum: str = "at"
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "stratum": self.stratum,
            "estimate_lower": self.lower,
            "estimate_upper": self.upper,
            "se_lower": self.se_lower,
            "se_upper": self.se_upper,
            "ci_set": list(self.ci_set),
            "ci_effect": list(self.ci_effect),
            "h": self.h,
            "alpha": self.alpha,
            "n": self.n_effective,
            "diagnostics": self.diagnostics,
        }
