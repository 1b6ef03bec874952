"""Core domain types: observation tables, nuisance bundles, partition labels.

All types are immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import logging
import math
import os
import re
import warnings
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
#: Provenances whose ``m`` is the true propensity: supplied, not fitted.
_KNOWN_PROPENSITIES = ("oracle", "external", "external_oracle")


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
    def from_csv(cls, path_or_buffer,
                 weights_col: Optional[str] = None) -> "ObservationTable":
        """Table from a CSV with the header above, at a path or in an open
        text buffer (see ``_opened``). Column names are unique, and the
        covariates (the columns named ``x`` and digits) are exactly
        ``x1..xp``, in any order; a duplicate, a gap or a name such as
        ``x01`` raises ``ValueError`` naming the column. The weights are
        read from ``weights_col``, which the header must hold, or without
        it from a column named ``weight`` if there is one; an empty weight
        field, or no weights column, weighs 1. A file without data rows, a
        blank line, a row whose field count differs from the header's, or a
        field that does not parse (``s`` and ``d`` as 8-bit integers, the
        rest as floats) raises ``ValueError`` naming the data row (counted
        from 1 below the header) and, for a field, its column.

        One ``np.loadtxt`` call parses the rows. Where it fails (on a field
        it does not accept, such as a quoted one, an empty weight or
        ``1_000``, which ``float`` reads), a loop over ``csv.reader`` rows
        reads the file instead: it raises the error above or returns the
        values that ``float`` and ``int`` give."""
        with _opened(path_or_buffer, "r") as fh:
            lines = iter(fh)
            header = next(csv.reader(lines), None)
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
            lines = list(lines)
        if not lines:
            raise ValueError("data file has no data rows")
        try:
            columns = _parse_bulk(lines, header, cols, weights_col, xcols)
        except (ValueError, OverflowError, Warning):
            columns = _parse_rows(csv.reader(lines), header, cols, weights_col,
                                  xcols)
        return cls(*columns)

    def to_csv(self, path_or_buffer) -> None:
        """Write the table with the header above through ``write_csv``."""
        y = np.where((self.s == 0) | np.isnan(self.y), None, self.y)
        write_csv(path_or_buffer,
                  ["y", "s", "d", "weight"] + [f"x{j + 1}" for j in range(self.p)],
                  zip(y.tolist(), self.s.tolist(), self.d.tolist(),
                      self.weight.tolist(), *self.x.T.tolist()))


def _opened(path_or_buffer, mode: str):
    """A context manager for a CSV's text: a ``str``, ``bytes`` or
    ``os.PathLike`` path is opened as UTF-8 with ``newline=""`` and closed
    on exit; anything else is an open text buffer, left open."""
    if isinstance(path_or_buffer, (str, bytes, os.PathLike)):
        return open(path_or_buffer, mode, encoding="utf-8", newline="")
    return contextlib.nullcontext(path_or_buffer)


def write_csv(path_or_buffer, header, rows) -> None:
    """``header`` and then ``rows`` as CSV lines ending in ``"\\n"``, to a
    path or an open text buffer (see ``_opened``). ``csv`` writes a float
    as its ``repr`` and ``None`` as an empty field."""
    with _opened(path_or_buffer, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


#: Lines that ``csv.reader`` reads as an empty row and ``np.loadtxt`` skips.
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))


def _missing_y(field: str) -> float:
    """A ``y`` field's value; an empty or ``NA`` field is missing (NaN)."""
    return math.nan if field.strip() in ("", "NA") else float(field)


def _weight(field: str) -> float:
    """A weight field's value; an empty field weighs 1."""
    return 1.0 if field.strip() == "" else float(field)


def _parse_bulk(lines, header, cols, weights_col, xcols) -> tuple:
    """``(y, s, d, x, w)`` of the data ``lines`` from one ``np.loadtxt``
    call: ``y`` as ``_missing_y`` reads it, ``s`` and ``d`` as 8-bit
    integers, every other column as floats. Where numpy's parser and
    ``float``/``int`` with ``csv.reader`` could disagree, it raises
    (``ValueError``, or an older numpy's ``Warning`` for an integer written
    as a float): on a quoted field (quoting is off), a blank line, a ragged
    row, an empty weight, a field it does not parse, and a weights column
    that is also ``y``, ``s`` or ``d``."""
    if not _BLANK_LINES.isdisjoint(lines):
        raise ValueError("blank line")
    if weights_col in ("y", "s", "d"):
        raise ValueError("weights read from an outcome or flag column")
    ints = (cols["s"], cols["d"])
    dtype = np.dtype([(f"f{j}", np.int8 if j in ints else float)
                      for j in range(len(header))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                          converters={cols["y"]: _missing_y}, ndmin=1)

    def column(name):
        return np.ascontiguousarray(data[f"f{cols[name]}"])

    x = np.empty((len(data), len(xcols)))
    for j, c in enumerate(xcols):
        x[:, j] = data[f"f{cols[c]}"]
    w = column(weights_col) if weights_col in cols else np.ones(len(data))
    return column("y"), column("s"), column("d"), x, w


def _parse_rows(rows, header, cols, weights_col, xcols) -> tuple:
    """``(y, s, d, x, w)`` of the ``csv.reader`` data ``rows``, one field
    at a time; raises ``ValueError`` for the first bad row or field."""
    rows = list(rows)
    n = len(rows)
    y = np.full(n, np.nan)
    s = np.zeros(n, dtype=np.int8)
    d = np.zeros(n, dtype=np.int8)
    w = np.ones(n)
    x = np.zeros((n, len(xcols)))
    # (column, rule, output array) per field
    fields = [(cols["y"], _missing_y, y), (cols["s"], int, s), (cols["d"], int, d)]
    if weights_col in cols:
        fields.append((cols[weights_col], _weight, w))
    fields += [(cols[c], float, x[:, k]) for k, c in enumerate(xcols)]
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"data row {i + 1} is blank" if not row else
                             f"data row {i + 1} has {len(row)} fields, "
                             f"the header has {width}")
        for j, rule, out in fields:
            try:
                out[i] = rule(row[j])
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"data row {i + 1}, column {header[j]!r}: "
                                 f"{exc}") from None
    return y, s, d, x, w


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
    floor of the provenance), plus one tail evaluator for the conditional
    outcome surfaces. ``tail_fn(rows, j, d, u)`` takes a row index array,
    the tail ``j``, the arm ``d`` and per-row levels ``u`` in [0, 1], and
    returns ``(q, b)``: arm ``d``'s ``u``-quantile and the mean of the
    outcome below it (``j=1``) or above it (``j=0``), both from one
    evaluation. ``quantile`` and ``trunc_mean`` are views of ``tail``: the
    quantile is read from the ``j=1`` tail, so on a cross-fitted bundle it
    reports (logs or raises for) that tail as ``trunc_mean`` does.

    ``p0`` and ``labels()`` are computed once per bundle, and
    ``per_table`` keeps what is built from one (table, bundle) pair; every
    cached array is read-only.
    """

    def __init__(self, m, s0, s1, tail_fn: Callable, provenance: str = "oracle"):
        floor = (ORACLE_OVERLAP_FLOOR if provenance in _EXACT_PROVENANCES
                 else DEFAULT_OVERLAP_FLOOR)
        m, s0, s1 = (np.asarray(arr, dtype=float) for arr in (m, s0, s1))
        for name, arr in (("m", m), ("s0", s0), ("s1", s1)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise ValueError(f"nuisance {name} is not finite at row {bad[0]}")
        # per row, how many of the three values the floor clamps
        self._clamps = sum(((arr < floor) | (arr > 1 - floor)).astype(np.int8)
                           for arr in (m, s0, s1))
        if self.n_clamped:
            logger.info("clamped %d nuisance values to the overlap floors",
                        self.n_clamped)
        self.m, self.s0, self.s1 = (np.clip(arr, floor, 1 - floor)
                                    for arr in (m, s0, s1))
        for arr in (self.m, self.s0, self.s1, self._clamps):
            arr.setflags(write=False)
        self._tail_fn = tail_fn
        self.provenance = provenance
        self._table_slot = None

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @property
    def n_clamped(self) -> int:
        """Nuisance values (of ``m``, ``s0`` and ``s1``) clamped to the
        overlap floor on this bundle's rows."""
        return int(self._clamps.sum())

    @property
    def known_propensity(self) -> bool:
        """Whether ``m`` is the true propensity rather than an estimate."""
        return self.provenance in _KNOWN_PROPENSITIES

    @cached_property
    def p0(self) -> np.ndarray:
        return _read_only(self.s0 / self.s1)

    def default_eps0(self) -> float:
        return (0.0 if self.provenance in _EXACT_PROVENANCES
                else DEFAULT_EPS0_ESTIMATED)

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

    def tail(self, rows: np.ndarray, j: int, d: int, u: np.ndarray) -> tuple:
        """(q_d(u_i, x_i), beta_{j,d}(u_i, x_i)) for each row index i, from
        one evaluation, with u clipped to [0, 1]."""
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        q, b = self._tail_fn(np.asarray(rows), int(j), int(d), u)
        return np.asarray(q, dtype=float), np.asarray(b, dtype=float)

    def quantile(self, rows: np.ndarray, d: int, u: np.ndarray) -> np.ndarray:
        """q_d(u_i, x_i), read from the ``j=1`` tail."""
        return self.tail(rows, 1, d, u)[0]

    def trunc_mean(self, rows: np.ndarray, j: int, d: int, u: np.ndarray) -> np.ndarray:
        """beta_{j,d}(u_i, x_i), read from the ``j`` tail."""
        return self.tail(rows, j, d, u)[1]

    def all_rows(self) -> np.ndarray:
        return np.arange(self.n)

    # -- transforms used to derive mirrored strata moments ------------------

    def _derive(self, m, s0, s1, clamps, tail_fn: Callable) -> "NuisanceBundle":
        """Bundle with already clamped probabilities, their per-row clamp
        counts and a new tail evaluator that keeps this bundle's
        provenance."""
        out = NuisanceBundle.__new__(NuisanceBundle)
        out.m, out.s0, out.s1, out._clamps = m, s0, s1, clamps
        for arr in (m, s0, s1, clamps):
            arr.setflags(write=False)
        out._tail_fn = tail_fn
        out.provenance = self.provenance
        out._table_slot = None
        return out

    def with_negated_outcome(self) -> "NuisanceBundle":
        """Bundle for the sign-flipped outcome -Y.

        Quantiles satisfy q_{-Y}(u) = -q_Y(1-u) and the two truncated-mean
        surfaces swap roles (exact under a continuous outcome distribution).
        """
        def tail_fn(rows, j, d, u):
            q, b = self.tail(rows, 1 - j, d, 1.0 - u)
            return -q, -b

        return self._derive(self.m, self.s0, self.s1, self._clamps, tail_fn)

    def with_swapped_arms(self) -> "NuisanceBundle":
        """Bundle for the relabeled treatment 1-D: swaps m and the two arms."""
        return self._derive(np.asarray(1.0 - self.m), self.s1, self.s0,
                            self._clamps,
                            lambda rows, j, d, u: self.tail(rows, j, 1 - d, u))

    def select(self, idx: np.ndarray) -> "NuisanceBundle":
        """View of the bundle restricted to a row subset."""
        idx = np.asarray(idx)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        return self._derive(self.m[idx], self.s0[idx], self.s1[idx],
                            self._clamps[idx],
                            lambda rows, j, d, u: self.tail(idx[rows], j, d, u))


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
