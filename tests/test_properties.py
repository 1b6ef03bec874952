"""Invariances the estimators claim, checked on seeded oracle draws and,
for weight units, outcome units and one-valued groups, on cross-fitted
``estimate`` runs.

Oracle bundles keep cross-fitting folds out of the comparisons. The
standard error treats ``weight`` as a sampling weight, so an integer
weight k is not equivalent to k duplicate rows for the SEs; only the
point estimates would agree, and no test asserts that equivalence.
"""

import contextlib
import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import strata_bounds as sb
from strata_bounds import EstimationConfig, Side, Stratum, StratumSpec
from strata_bounds.cli import main

from test_cli import write_nuisance_csv

PANELS = ((0.5, 0.0, 0.5), (1 / 3, 1 / 3, 1 / 3), (0.4, 0.2, 0.4))
N = 300

seeds = st.integers(min_value=0, max_value=2 ** 16)
panels = st.sampled_from(PANELS)


def _config(shares, seed):
    return sb.DgpConfig(n=N, shares=shares, replications=1, base_seed=seed)


def _draw(shares, seed):
    config = _config(shares, seed)
    table = sb.dgp_sample(config, 0)
    return table, sb.oracle_nuisances(config)(table), sb.oracle_support(config, table)


def _with_weight(table, weight):
    return sb.ObservationTable(table.y, table.s, table.d, table.x, weight)


def _summary(est):
    return (est.lower, est.upper, est.se_lower, est.se_upper)


def _close(a, b):
    return pytest.approx(b, rel=1e-12, abs=1e-14) == a


@settings(max_examples=25, deadline=None)
@given(shares=panels, seed=seeds,
       scale=st.floats(min_value=1e-3, max_value=1e3))
def test_weight_scaling_leaves_estimates_and_ses_unchanged(shares, seed, scale):
    table, bundle, support = _draw(shares, seed)
    w = np.random.default_rng(seed).uniform(0.5, 2.0, table.n)
    base = _with_weight(table, w)
    scaled = _with_weight(table, w * scale)
    cfg = EstimationConfig()
    for fit in (lambda t: sb.estimate_sharp(t, bundle, cfg, support),
                lambda t: sb.estimate_switch(t, bundle, cfg, support=support),
                lambda t: sb.estimate_smooth(t, bundle, sb.GFamily(h=0.05), cfg)):
        assert _close(_summary(fit(scaled)), _summary(fit(base)))


ALL_METHODS = ("--method", "sharp,trim,switch,smooth", "--h", "0.05")
CROSSFIT = ("--cells-discrete", "1", "--cells-bins", "3", "--folds", "3",
            "--seed", "1")


def _estimate_stdout(table, directory, name, flags=ALL_METHODS,
                     nuisances=CROSSFIT):
    """``estimate``'s exit code, stdout and, on a failure, the JSON error
    object on stderr (``None`` on success); ``nuisances`` are the flags
    that fit or read the nuisance bundle."""
    path = f"{directory}/{name}.csv"
    table.to_csv(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", path, *flags, *nuisances])
    error = json.loads(err.getvalue().splitlines()[-1]) if code else None
    return code, out.getvalue(), error


# A fold whose training rows lack a level of the discrete covariate makes
# ``estimate`` exit 3 with EmptyCellError, as documented; such a draw checks
# that the other run fails the same way. These two draws do so.
UNSEEN_LEVEL_DRAWS = (dict(shares=PANELS[1], seed=18219, n=310),
                      dict(shares=PANELS[1], seed=378, n=201))


def _unseen_level(run) -> bool:
    """Whether an ``_estimate_stdout`` run failed with the documented
    unseen-level error; a run that exits 0 gives False, any other failure
    fails the test."""
    if run[0] == 0:
        return False
    assert run[:2] == (3, "") and run[2]["error"] == "EmptyCellError", run
    return True


def _varied_draw(shares, seed, n):
    """A draw with a standard normal control outcome (the design's is
    constant, so a control-arm surface would read one value) and uneven
    weights."""
    config = sb.DgpConfig(n=n, shares=shares, replications=1, base_seed=seed)
    table = sb.dgp_sample(config, 0)
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal(n)
    return sb.ObservationTable(
        np.where(table.s == 1, np.where(table.d == 0, y0, table.y), np.nan),
        table.s, table.d, table.x, rng.uniform(0.5, 2.0, n))


crossfit_sizes = st.integers(min_value=200, max_value=600)
#: the levels of the external nuisance grids
LEVELS = np.linspace(0.0, 1.0, 21)
powers = st.integers(min_value=-1000, max_value=1000)


@settings(max_examples=15, deadline=None)
@given(shares=panels, seed=seeds, n=crossfit_sizes, k=powers)
@example(**UNSEEN_LEVEL_DRAWS[0], k=3)
@example(**UNSEEN_LEVEL_DRAWS[1], k=-2)
def test_weight_power_of_two_leaves_crossfit_stdout_unchanged(shares, seed,
                                                              n, k):
    # the logistic fits' stopping rule is relative to the total weight, so
    # rescaling by a power of two changes no bit anywhere in the chain
    table = _varied_draw(shares, seed, n)
    with tempfile.TemporaryDirectory() as directory:
        base = _estimate_stdout(table, directory, "base")
        scaled = _estimate_stdout(_with_weight(table, table.weight * 2.0 ** k),
                                  directory, "scaled")
    _unseen_level(base)
    assert scaled == base


@settings(max_examples=15, deadline=None)
@given(shares=panels, seed=seeds, n=crossfit_sizes, k=powers)
@example(**UNSEEN_LEVEL_DRAWS[1], k=5)
def test_outcome_power_of_two_scales_crossfit_estimates_exactly(shares, seed,
                                                                n, k):
    # the cells sort, sum and search the outcomes, so a power of two scales
    # every quantile and truncated mean, and the moments built on them,
    # without rounding, and the gap between the ends with them; smooth is
    # left out, its h acts on the outcome scale
    table = _varied_draw(shares, seed, n)
    scaled = sb.ObservationTable(table.y * 2.0 ** k, table.s, table.d,
                                 table.x, table.weight)
    flags = ("--method", "sharp,trim,switch")
    with tempfile.TemporaryDirectory() as directory:
        base = _estimate_stdout(table, directory, "base", flags)
        got = _estimate_stdout(scaled, directory, "scaled", flags)
    if _unseen_level(base):
        assert got == base
        return
    _assert_scaled(base, got, k, 3)


def _assert_scaled(base, got, k, methods):
    """Both runs exit 0 with ``methods`` records each, and ``got``'s are
    ``base``'s with every bound, standard error, interval end and gap
    times ``2 ** k`` exactly, and every other field equal."""
    assert base[0] == got[0] == 0, (base[2], got[2])
    base, got = json.loads(base[1]), json.loads(got[1])
    assert len(got) == len(base) == methods

    def scale(v):
        return None if v is None else v * 2.0 ** k
    for rec, want in zip(got, base):
        for key in ("estimate_lower", "estimate_upper", "se_lower", "se_upper"):
            assert rec.pop(key) == scale(want.pop(key))
        for key in ("ci_set", "ci_effect"):
            assert rec.pop(key) == [scale(v) for v in want.pop(key)]
        gap = rec["diagnostics"].pop("gap")
        assert gap == scale(want["diagnostics"].pop("gap"))
        assert rec == want


def _scaled_tails(bundle, k):
    """``bundle`` with every quantile and truncated mean times ``2 ** k``."""
    def tail(rows, j, d, u):
        return tuple(np.ldexp(v, k) for v in bundle.tail(rows, j, d, u))
    return sb.NuisanceBundle(bundle.m, bundle.s0, bundle.s1, tail,
                             provenance=bundle.provenance)


@settings(max_examples=15, deadline=None)
@given(shares=panels, seed=seeds, n=crossfit_sizes, k=powers)
def test_outcome_power_of_two_scales_external_estimates_exactly(shares, seed,
                                                                n, k):
    # a nuisance file whose quantiles and truncated means are scaled with
    # the outcomes: the surfaces interpolate linearly in the grid values,
    # so every record scales as on cross-fitted runs, inefficient (which
    # reads external and oracle bundles only) included
    table = _varied_draw(shares, seed, n)
    bundle = sb.oracle_nuisances(_config(shares, seed))(table)
    scaled = sb.ObservationTable(table.y * 2.0 ** k, table.s, table.d,
                                 table.x, table.weight)
    flags = ("--method", "sharp,trim,switch,inefficient")
    runs = []
    with tempfile.TemporaryDirectory() as directory:
        for name, rows, tails in (("base", table, bundle),
                                  ("scaled", scaled, _scaled_tails(bundle, k))):
            grid = f"{directory}/{name}-nuisances.csv"
            write_nuisance_csv(grid, rows, tails, u_grid=LEVELS)
            runs.append(_estimate_stdout(rows, directory, name, flags,
                                         ("--nuisance-file", grid)))
    _assert_scaled(*runs, k, 4)


@settings(max_examples=15, deadline=None)
@given(shares=st.sampled_from(PANELS + (sb.PANEL_SHARES["c"],)), seed=seeds,
       n=crossfit_sizes)
@example(shares=sb.PANEL_SHARES["c"], seed=5, n=400)
def test_crossed_ends_are_flagged_with_their_gap(shares, seed, n):
    # ends are never reordered or clipped: a record whose lower end lies
    # above its upper end says so (the example crosses on sharp and trim);
    # a small panel-c draw may instead fail as documented, with exit 3
    table = sb.dgp_sample(sb.DgpConfig(n=n, shares=shares, replications=1,
                                       base_seed=seed), 0)
    with tempfile.TemporaryDirectory() as directory:
        code, out, error = _estimate_stdout(table, directory, "draw",
                                            nuisances=("--folds", "2"))
    assert code in (0, 3) and (out == "") == (code == 3), error
    for rec in json.loads(out) if code == 0 else ():
        lower, upper = rec["estimate_lower"], rec["estimate_upper"]
        assert rec["diagnostics"]["gap"] == upper - lower
        assert rec["diagnostics"]["crossed"] is (lower > upper)


@settings(max_examples=15, deadline=None)
@given(shares=panels, seed=seeds, n=crossfit_sizes,
       value=st.integers(min_value=-5, max_value=5))
@example(**UNSEEN_LEVEL_DRAWS[0], value=2)
@example(**UNSEEN_LEVEL_DRAWS[1], value=-1)
def test_one_valued_group_records_equal_full_sample_records(shares, seed, n,
                                                            value):
    table = _varied_draw(shares, seed, n)
    table = sb.ObservationTable(table.y, table.s, table.d,
                                np.column_stack([table.x, np.full(n, value)]),
                                table.weight)
    with tempfile.TemporaryDirectory() as directory:
        grouped = _estimate_stdout(table, directory, "grouped",
                                   ALL_METHODS + ("--group-col", "x3"))
        if _unseen_level(grouped):
            # the same run without --group-col
            assert _estimate_stdout(table, directory, "full") == grouped
            return
    records = json.loads(grouped[1])
    assert len(records) == 8
    full, groups = records[:4], records[4:]
    assert [rec.pop("group") for rec in groups] == [value] * 4
    assert groups == full


@settings(max_examples=25, deadline=None)
@given(shares=panels, seed=seeds)
def test_row_permutation_leaves_estimates_unchanged(shares, seed):
    table, bundle, support = _draw(shares, seed)
    perm = np.random.default_rng(seed).permutation(table.n)
    ptable, pbundle = table.select(perm), bundle.select(perm)
    psupport = sb.oracle_support(_config(shares, seed), ptable)
    cfg = EstimationConfig()
    want = sb.estimate_sharp(table, bundle, cfg, support)
    got = sb.estimate_sharp(ptable, pbundle, cfg, psupport)
    assert _close((got.lower, got.upper), (want.lower, want.upper))
    want = sb.estimate_trim(table, bundle, cfg, variant="retain", support=support)
    got = sb.estimate_trim(ptable, pbundle, cfg, variant="retain",
                           support=psupport)
    assert _close((got.lower, got.upper), (want.lower, want.upper))


@settings(max_examples=25, deadline=None)
@given(shares=panels, seed=seeds)
def test_outcome_negation_mirrors_always_taker_bounds(shares, seed):
    table, bundle, support = _draw(shares, seed)
    cfg = EstimationConfig()
    est = sb.estimate_sharp(table, bundle, cfg, support)
    neg = sb.estimate_sharp(table.with_negated_outcome(),
                            bundle.with_negated_outcome(), cfg,
                            support.with_negated_outcome())
    assert _close((neg.lower, neg.upper), (-est.upper, -est.lower))
    assert _close((neg.se_lower, neg.se_upper), (est.se_upper, est.se_lower))


@settings(max_examples=25, deadline=None)
@given(shares=panels, seed=seeds)
def test_complier_bounds_equal_defier_bounds_of_mirrored_data(shares, seed):
    table, bundle, support = _draw(shares, seed)
    mtable = table.with_negated_outcome().with_swapped_arms()
    mbundle = bundle.with_negated_outcome().with_swapped_arms()
    msupport = support.with_negated_outcome().with_swapped_arms()
    comp = sb.estimate_sharp(table, bundle, EstimationConfig(stratum=Stratum.C),
                             support)
    dfr = sb.estimate_sharp(mtable, mbundle, EstimationConfig(stratum=Stratum.DEF),
                            msupport)
    assert _close(_summary(dfr), _summary(comp))
    for side in (Side.L, Side.U):
        want = sb.unconditional_sharp_bound(
            table, bundle, StratumSpec(Stratum.C, side), support)
        got = sb.unconditional_sharp_bound(
            mtable, mbundle, StratumSpec(Stratum.DEF, side), msupport)
        assert _close(got, want)


@settings(max_examples=15, deadline=None)
@given(shares=panels, seed=seeds, n=crossfit_sizes,
       value=st.integers(min_value=-5, max_value=5))
def test_one_valued_group_records_equal_full_sample_records_on_external_bundles(
        shares, seed, n, value):
    # a group that holds every row reads every row of the nuisance file, so
    # its records are the full sample's, the known-propensity ones included
    table = _varied_draw(shares, seed, n)
    bundle = sb.oracle_nuisances(_config(shares, seed))(table)
    table = sb.ObservationTable(table.y, table.s, table.d,
                                np.column_stack([table.x, np.full(n, value)]),
                                table.weight)
    flags = ("--method", "sharp,trim,switch,smooth,inefficient", "--h", "0.05",
             "--group-col", "x3")
    with tempfile.TemporaryDirectory() as directory:
        grid = f"{directory}/nuisances.csv"
        write_nuisance_csv(grid, table, bundle, u_grid=LEVELS)
        code, out, error = _estimate_stdout(table, directory, "grouped", flags,
                                            ("--nuisance-file", grid))
    assert code == 0, error
    records = json.loads(out)
    assert len(records) == 10
    full, groups = records[:5], records[5:]
    assert [rec.pop("group") for rec in groups] == [value] * 5
    assert groups == full
