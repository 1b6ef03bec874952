import dataclasses

import numpy as np
import pytest

import strata_bounds as sb
from strata_bounds.data_model import (XMINUS, XPLUS, XZERO, NuisanceBundle,
                                      ObservationTable, Side, Stratum,
                                      StratumSpec)
from strata_bounds.errors import PartitionError
from strata_bounds.estimation import EstimationConfig, moment_rows
from strata_bounds.identification import (conditional_sharp_bound,
                                          unconditional_sharp_bound)
from strata_bounds.influence import (_at_branches, _build_ipw_pieces,
                                     _ipw_pieces, degenerate_at_moments,
                                     efficiency_bound, efficiency_gap,
                                     eif_regular, eif_smooth)
from strata_bounds.simulation import _replication_worker
from strata_bounds.smoothing import GFamily

from helpers import (DPoint, Pieces, crossfit_panel_b, dpoint_atoms,
                     standard_points)

TOL = 1e-8


def at_spec(side, **kw):
    return StratumSpec(Stratum.AT, side, **kw)


def enum_regular(pt, spec, inefficient=False):
    lab = pt.label
    sup = pt.support()

    def fn(table, bundle):
        return eif_regular(table, bundle, np.full(table.n, lab, np.int8),
                           spec, sup, inefficient=inefficient)

    p0 = pt.p0
    breaks = {1: (min(p0, 1.0), 1.0 - min(p0, 1.0)),
              0: (1.0 - min(1.0 / p0, 1.0), min(1.0 / p0, 1.0))}
    return pt.enumerate(fn, breaks)


@pytest.fixture(scope="module")
def points():
    plus, minus, zero = standard_points()
    return {"plus": plus, "minus": minus, "zero": zero}


MEAN_ZERO_N = 200_000


@pytest.fixture(scope="module")
def draw():
    config = sb.DgpConfig(n=MEAN_ZERO_N, shares=(1 / 3, 1 / 3, 1 / 3),
                          replications=1, base_seed=77)
    table = sb.dgp_sample(config, 0)
    bundle = sb.oracle_nuisances(config)(table)
    support = sb.oracle_support(config, table)
    design = sb.BenchmarkDesign(config)
    return config, table, bundle, support, design


class TestConditionalIdentityRegular:
    """Exact enumeration: E[psi_b | X] = bound(x) * weight(x), E[psi_s | X] = weight(x)."""

    @pytest.mark.parametrize("which", ["plus", "minus"])
    @pytest.mark.parametrize("side", [Side.L, Side.U])
    def test_always_takers(self, points, which, side):
        pt = points[which]
        p0 = pt.p0
        if side is Side.L:
            bx = pt.dist[1].trunc_below(min(p0, 1)) \
                - pt.dist[0].trunc_above(1 - min(1 / p0, 1))
        else:
            bx = pt.dist[1].trunc_above(1 - min(p0, 1)) \
                - pt.dist[0].trunc_below(min(1 / p0, 1))
        w = min(pt.s0, pt.s1)
        got = enum_regular(pt, at_spec(side))
        assert got[0] == pytest.approx(bx * w, abs=TOL)
        assert got[1] == pytest.approx(w, abs=TOL)

    @pytest.mark.parametrize("which", ["plus", "minus"])
    @pytest.mark.parametrize("side", [Side.L, Side.U])
    def test_always_takers_dominance(self, points, which, side):
        pt = points[which]
        p0 = pt.p0
        if side is Side.L:
            bx = pt.dist[1].mean() - pt.dist[0].trunc_above(1 - min(1 / p0, 1))
        else:
            bx = pt.dist[1].trunc_above(1 - min(p0, 1)) - pt.dist[0].mean()
        got = enum_regular(pt, at_spec(side, dominance=True))
        assert got[0] == pytest.approx(bx * min(pt.s0, pt.s1), abs=TOL)

    @pytest.mark.parametrize("which", ["plus", "minus"])
    def test_known_propensity_variant(self, points, which):
        pt = points[which]
        p0 = pt.p0
        bx = pt.dist[1].trunc_below(min(p0, 1)) \
            - pt.dist[0].trunc_above(1 - min(1 / p0, 1))
        got = enum_regular(pt, at_spec(Side.L), inefficient=True)
        assert got[0] == pytest.approx(bx * min(pt.s0, pt.s1), abs=TOL)
        assert got[1] == pytest.approx(min(pt.s0, pt.s1), abs=TOL)

    @pytest.mark.parametrize("which,stratum", [
        ("plus", Stratum.C), ("plus", Stratum.EM),
        ("minus", Stratum.C), ("minus", Stratum.EM),
        ("minus", Stratum.DEF), ("plus", Stratum.DEF)])
    def test_margin_strata_lower(self, points, which, stratum):
        pt = points[which]
        p0 = pt.p0
        lo1 = pt.dist[1].support[0]
        hi0 = pt.dist[0].support[1]
        w_c = max(0.0, pt.s1 - pt.s0)
        w_d = max(0.0, pt.s0 - pt.s1)
        if stratum is Stratum.C:
            w = w_c
            bx = pt.dist[1].trunc_below(1 - p0) - hi0 if w_c > 0 else 0.0
        elif stratum is Stratum.DEF:
            w = w_d
            bx = lo1 - pt.dist[0].trunc_above(1.0 / p0) if w_d > 0 else 0.0
        else:
            w = w_c + w_d
            bx = (pt.dist[1].trunc_below(1 - p0) - hi0 if w_c > 0
                  else lo1 - pt.dist[0].trunc_above(1.0 / p0))
        got = enum_regular(pt, StratumSpec(stratum, Side.L))
        assert got[0] == pytest.approx(bx * w, abs=TOL)
        assert got[1] == pytest.approx(w, abs=TOL)

    @pytest.mark.parametrize("which,stratum", [
        ("plus", Stratum.C), ("minus", Stratum.EM), ("minus", Stratum.DEF)])
    def test_margin_strata_upper(self, points, which, stratum):
        pt = points[which]
        p0 = pt.p0
        hi1 = pt.dist[1].support[1]
        lo0 = pt.dist[0].support[0]
        w_c = max(0.0, pt.s1 - pt.s0)
        w_d = max(0.0, pt.s0 - pt.s1)
        if stratum is Stratum.C:
            w = w_c
            bx = pt.dist[1].trunc_above(p0) - lo0 if w_c > 0 else 0.0
        elif stratum is Stratum.DEF:
            w = w_d
            bx = hi1 - pt.dist[0].trunc_below(1 - 1.0 / p0) if w_d > 0 else 0.0
        else:
            w = w_c + w_d
            bx = (pt.dist[1].trunc_above(p0) - lo0 if w_c > 0
                  else hi1 - pt.dist[0].trunc_below(1 - 1.0 / p0))
        got = enum_regular(pt, StratumSpec(stratum, Side.U))
        assert got[0] == pytest.approx(bx * w, abs=TOL)
        assert got[1] == pytest.approx(w, abs=TOL)

    def test_share_branch_pairing(self, points):
        # the complier share moment must average to (s1-s0)+ and the
        # extensive-margin one to |s1-s0| on each partition separately
        for which in ("plus", "minus"):
            pt = points[which]
            got_c = enum_regular(pt, StratumSpec(Stratum.C, Side.L))
            got_em = enum_regular(pt, StratumSpec(Stratum.EM, Side.L))
            assert got_c[1] == pytest.approx(max(0.0, pt.s1 - pt.s0), abs=TOL)
            assert got_em[1] == pytest.approx(abs(pt.s1 - pt.s0), abs=TOL)

    def test_degenerate_moment_at_indifference(self, points):
        pt = points["zero"]
        got = pt.enumerate(lambda t, b: degenerate_at_moments(t, b))
        bx = pt.dist[1].mean() - pt.dist[0].mean()
        assert got[0] == pytest.approx(bx * min(pt.s0, pt.s1), abs=TOL)
        assert got[1] == pytest.approx(min(pt.s0, pt.s1), abs=TOL)

    def test_xzero_rejected_by_regular_moments(self, points):
        pt = points["zero"]
        table = ObservationTable(y=np.array([0.5]), s=np.array([1]),
                                 d=np.array([1]), x=np.zeros((1, 1)),
                                 weight=np.ones(1))
        with pytest.raises(PartitionError):
            eif_regular(table, pt.bundle(1), np.zeros(1, np.int8),
                        at_spec(Side.L), pt.support())


class TestConditionalIdentitySmooth:
    @pytest.mark.parametrize("which", ["plus", "minus", "zero"])
    @pytest.mark.parametrize("side", [Side.L, Side.U])
    @pytest.mark.parametrize("h", [0.3, 0.02])
    def test_component_identities(self, which, side, h):
        plus, minus, zero = standard_points()
        pt = {"plus": plus, "minus": minus, "zero": zero}[which]
        fam = GFamily(h=h)
        g = fam.g
        p0 = pt.p0
        u1 = float(g(1, p0))
        u0 = float(g(1, 1.0 / p0))
        if side is Side.L:
            bh = pt.dist[1].trunc_below(u1) - pt.dist[0].trunc_above(1 - u0)
            want = (float(g(4, bh)) * u1 * pt.s1, float(g(3, p0)) * pt.s1,
                    float(g(5, bh)) * float(g(3, p0)) * pt.s1, u1 * pt.s1)
            breaks = {1: (u1,), 0: (1 - u0,)}
        else:
            bh = pt.dist[1].trunc_above(1 - u1) - pt.dist[0].trunc_below(u0)
            want = (float(g(2, bh)) * float(g(3, p0)) * pt.s1, u1 * pt.s1,
                    float(g(6, bh)) * u1 * pt.s1, float(g(3, p0)) * pt.s1)
            breaks = {1: (1 - u1,), 0: (u0,)}
        got = pt.enumerate(lambda t, b: eif_smooth(t, b, fam, side), breaks)
        for g_i, w_i in zip(got, want):
            assert g_i == pytest.approx(w_i, abs=TOL)


class TestStructure:
    def test_assembled_moment_is_affine_in_beta(self):
        config = sb.DgpConfig(n=300, shares=(0.5, 0.0, 0.5), replications=1)
        table = sb.dgp_sample(config, 4)
        bundle = sb.oracle_nuisances(config)(table)
        support = sb.oracle_support(config, table)
        rows = eif_regular(table, bundle, bundle.labels(), at_spec(Side.L), support)

        def psi(beta):
            return rows.psi_b - beta * rows.psi_s

        np.testing.assert_allclose(psi(1.0) - psi(0.0), -rows.psi_s, rtol=1e-12)

    def test_unselected_row_reduction(self):
        # outcome terms vanish on unselected rows; only the centering
        # corrections and the share moment remain
        pt, _, _ = standard_points()
        table = ObservationTable(y=np.array([np.nan]), s=np.array([0]),
                                 d=np.array([0]), x=np.zeros((1, 1)),
                                 weight=np.ones(1))
        bundle = pt.bundle(1)
        rows = eif_regular(table, bundle, np.ones(1, np.int8),
                           at_spec(Side.L), pt.support())
        m, s0, p0 = pt.m, pt.s0, pt.p0
        c0 = (0.0 - s0) / (1.0 - m)
        want_s = s0 + c0
        assert rows.psi_s[0] == pytest.approx(want_s, rel=1e-12)
        b1 = pt.dist[1].trunc_below(p0)
        b0 = pt.dist[0].trunc_above(0.0)
        q1 = pt.dist[1].ppf(p0)
        want_b = (q1 - b1) * c0 + (b1 - b0) * want_s
        assert rows.psi_b[0] == pytest.approx(want_b, rel=1e-10)

    def test_smooth_limit_matches_regular_rows(self):
        # positive-monotone-only design, tiny h: the smoothed per-row
        # influence values converge to the regular ones
        config = sb.DgpConfig(n=2000, shares=(1.0, 0.0, 0.0), replications=1)
        table = sb.dgp_sample(config, 1)
        bundle = sb.oracle_nuisances(config)(table)
        support = sb.oracle_support(config, table)
        keep = np.abs(bundle.p0 - 1.0) > 0.05
        reg = eif_regular(table, bundle, bundle.labels(), at_spec(Side.L), support)
        smo = eif_smooth(table, bundle, GFamily(h=1e-9), Side.L)
        beta_reg, _ = sb.ratio_estimate(reg.psi_b, reg.psi_s, table.weight)
        bp, _ = sb.ratio_estimate(smo.psi_b_plus, smo.psi_s_plus, table.weight)
        bm, _ = sb.ratio_estimate(smo.psi_b_minus, smo.psi_s_minus, table.weight)
        w = table.weight / table.weight.sum()
        reg_if = (reg.psi_b - beta_reg * reg.psi_s) / np.dot(w, reg.psi_s)
        smo_if = ((smo.psi_b_plus - bp * smo.psi_s_plus)
                  / np.dot(w, smo.psi_s_plus)
                  + (smo.psi_b_minus - bm * smo.psi_s_minus)
                  / np.dot(w, smo.psi_s_minus))
        np.testing.assert_allclose(smo_if[keep], reg_if[keep], atol=1e-4)


def pieces_bytes(pieces):
    return [arr.tobytes() for arr in pieces]


class TestPerTableCaches:
    """What is built once per (table, bundle) is read-only and never
    reaches another table."""

    @pytest.fixture()
    def panel_b(self):
        config = sb.DgpConfig(n=600, shares=sb.PANEL_SHARES["b"],
                              replications=1, base_seed=8)
        table = sb.dgp_sample(config, 0)
        return config, table, sb.oracle_nuisances(config)(table)

    def test_cached_arrays_are_read_only(self, panel_b):
        _, table, bundle = panel_b
        deg = degenerate_at_moments(table, bundle)
        cached = [table.y_filled, bundle.p0, bundle.labels(),
                  *_ipw_pieces(table, bundle), deg.psi_b, deg.psi_s]
        for arr in cached:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert table.y_filled is table.y_filled
        assert bundle.p0 is bundle.p0 and bundle.labels() is bundle.labels()
        assert _ipw_pieces(table, bundle) is _ipw_pieces(table, bundle)

    def test_derived_tables_get_their_own_pieces(self, panel_b):
        _, table, bundle = panel_b
        base = _ipw_pieces(table, bundle)
        survivors = np.flatnonzero(bundle.labels() != 0)
        derived = [(table.with_negated_outcome(), bundle),
                   (table.with_swapped_arms(), bundle),
                   (table.with_negated_outcome(), bundle.with_negated_outcome()),
                   (table.with_swapped_arms(), bundle.with_swapped_arms()),
                   (table.select(survivors), bundle.select(survivors))]
        for t2, b2 in derived:
            got = _ipw_pieces(t2, b2)
            assert got is not base
            assert pieces_bytes(got) == pieces_bytes(_build_ipw_pieces(t2, b2))
            assert pieces_bytes(got) != pieces_bytes(base)
        # the base pair rebuilds its pieces after a derived table took the slot
        assert pieces_bytes(_ipw_pieces(table, bundle)) == pieces_bytes(base)

    def test_degenerate_moments_per_inefficient_flag(self, panel_b):
        _, table, bundle = panel_b
        eff = degenerate_at_moments(table, bundle)
        known = degenerate_at_moments(table, bundle, inefficient=True)
        assert eff.psi_b.tobytes() != known.psi_b.tobytes()
        assert degenerate_at_moments(table, bundle) is eff
        assert degenerate_at_moments(table, bundle, inefficient=True) is known
        neg = degenerate_at_moments(table.with_negated_outcome(), bundle)
        assert neg is not eff and neg.psi_b.tobytes() != eff.psi_b.tobytes()

    def test_replication_records_do_not_depend_on_roster_order(self, panel_b):
        config = panel_b[0]
        full = _replication_worker(config, 3)
        reverse = dataclasses.replace(
            config, estimators=tuple(reversed(config.estimators)))
        assert repr(_replication_worker(reverse, 3)) == \
            repr(dict(reversed(list(full.items()))))
        for est in config.estimators:
            alone = dataclasses.replace(config, estimators=(est,))
            assert repr(_replication_worker(alone, 3)) == \
                repr({est.name: full[est.name]})


def counted_tails(bundle) -> list:
    """Record the (j, d) of every call of ``bundle``'s tail provider."""
    calls, evaluate = [], bundle._tail_fn

    def tail_fn(rows, j, d, u):
        calls.append((j, d))
        return evaluate(rows, j, d, u)
    bundle._tail_fn = tail_fn
    return calls


class TestOneEvaluationPerTail:
    """Each quantile and its truncated mean come from one provider call."""

    @pytest.fixture()
    def panel_a(self):
        config = sb.DgpConfig(n=600, shares=sb.PANEL_SHARES["a"],
                              replications=1, base_seed=8)
        table = sb.dgp_sample(config, 0)
        return (table, sb.oracle_nuisances(config)(table),
                sb.oracle_support(config, table))

    @pytest.mark.parametrize("side", [Side.L, Side.U])
    def test_always_taker_branches(self, panel_a, side):
        table, bundle, _ = panel_a
        calls = counted_tails(bundle)
        _at_branches(table, bundle, side)
        assert [d for _, d in calls] == [1, 0]

    @pytest.mark.parametrize("side", ["l", "u"])
    def test_smoothed_moments(self, panel_a, side):
        table, bundle, _ = panel_a
        calls = counted_tails(bundle)
        eif_smooth(table, bundle, GFamily(h=0.05), side)
        assert [d for _, d in calls] == [1, 0]

    @pytest.mark.parametrize("stratum,side,tails", [
        (Stratum.C, Side.L, [(1, 1)]),
        (Stratum.EM, Side.L, [(1, 1), (0, 0)]),
        (Stratum.EM, Side.U, [(0, 1), (1, 0)])])   # through the negation
    def test_complier_moments(self, panel_a, stratum, side, tails):
        table, bundle, support = panel_a
        calls = counted_tails(bundle)
        eif_regular(table, bundle, bundle.labels(), StratumSpec(stratum, side),
                    support)
        assert calls == tails

    def test_efficiency_bound(self):
        design = sb.BenchmarkDesign(sb.DgpConfig(shares=sb.PANEL_SHARES["a"]))
        atoms = design.atoms()
        calls = counted_tails(atoms.bundle)
        spec = at_spec(Side.L)
        unconditional_sharp_bound(atoms.table, atoms.bundle, spec, atoms.support)
        conditional_sharp_bound(atoms.bundle, spec, atoms.support)
        bounds = list(calls)
        calls.clear()
        efficiency_bound(design)
        assert calls == bounds + [(1, 1), (0, 0)]


class TestMeanZeroMonteCarlo:
    """Sample averages of assembled moments vanish at the truth."""

    def _assert_mean_zero(self, psi, w):
        z = abs(np.average(psi, weights=w)) \
            / (np.std(psi) / np.sqrt(len(psi)))
        assert z <= 4.0, f"|mean|/se = {z:.2f}"

    @pytest.mark.parametrize("stratum,side", [
        ("at", "l"), ("at", "u"), ("c", "l"), ("em", "l")])
    def test_regular_families(self, draw, stratum, side):
        config, table, bundle, support, design = draw
        labels = bundle.labels()
        keep = labels != 0
        truth = design.sharp_bound(side, stratum)
        rows = eif_regular(table.select(keep), bundle.select(keep),
                           labels[keep], StratumSpec(stratum, side), support)
        psi_b = np.zeros(table.n)
        psi_s = np.zeros(table.n)
        psi_b[keep], psi_s[keep] = rows.psi_b, rows.psi_s
        if stratum == "at":
            deg = degenerate_at_moments(table.select(~keep), bundle.select(~keep))
            psi_b[~keep], psi_s[~keep] = deg.psi_b, deg.psi_s
        self._assert_mean_zero(psi_b - truth * psi_s, table.weight)

    @pytest.mark.parametrize("side", ["l", "u"])
    @pytest.mark.parametrize("h", [0.05, 1e-9])
    def test_smooth_families(self, draw, side, h):
        config, table, bundle, support, design = draw
        fam = GFamily(h=h)
        plus, minus = design.smooth_component_targets(side, h)
        rows = eif_smooth(table, bundle, fam, side)
        self._assert_mean_zero(rows.psi_b_plus - plus * rows.psi_s_plus,
                               table.weight)
        self._assert_mean_zero(rows.psi_b_minus - minus * rows.psi_s_minus,
                               table.weight)

    def test_known_propensity_family_and_delta(self, draw):
        config, table, bundle, support, design = draw
        labels = bundle.labels()
        keep = labels != 0
        truth = design.sharp_bound("l", "at")
        reg = eif_regular(table.select(keep), bundle.select(keep), labels[keep],
                          at_spec(Side.L), support)
        ineff = eif_regular(table.select(keep), bundle.select(keep), labels[keep],
                            at_spec(Side.L), support, inefficient=True)
        delta_scaled = reg.psi_b - ineff.psi_b
        self._assert_mean_zero(delta_scaled, table.weight[keep])
        psi = ineff.psi_b - truth * ineff.psi_s
        deg = degenerate_at_moments(table.select(~keep), bundle.select(~keep),
                                    inefficient=True)
        full = np.concatenate([psi, deg.psi_b - truth * deg.psi_s])
        self._assert_mean_zero(full, np.ones(table.n))
        # the simpler moment pays in variance
        psi_eff = reg.psi_b - truth * reg.psi_s
        assert np.var(psi) >= np.var(psi_eff)


REGULAR_FAMILIES = [StratumSpec(st, side, dom)
                    for st in (Stratum.AT, Stratum.C, Stratum.DEF, Stratum.EM)
                    for side in (Side.L, Side.U) for dom in (False, True)]
ORTHOGONALITY_N = 50_000
ORTHOGONALITY_EPS = 1e-3
#: |d beta / d eps| per nuisance reads at most 0.04 for every family at
#: n = 400k and at most 0.081 at this n (seeds 0-3); a selection
#: correction of the wrong sign reads 0.53-0.62
ORTHOGONALITY_TOL = 0.2


@pytest.fixture(scope="module")
def single_index_regular():
    """A single-index draw (Gaussian outcomes in both arms) without its
    selection-indifferent rows, with oracle nuisances and the sample's
    support."""
    config = sb.DgpConfig(dgp_id="single_index", n=ORTHOGONALITY_N,
                          base_seed=0, replications=1)
    table = sb.dgp_sample(config, 0)
    bundle = sb.oracle_nuisances(config)(table)
    keep = bundle.labels() != XZERO
    table, bundle = table.select(keep), bundle.select(keep)
    return table, bundle, sb.SupportBounds.from_table(table)


class TestNeymanOrthogonality:
    """Scaling one probability nuisance by 1 + eps, with the partition held
    fixed, moves the sharp estimate only at second order."""

    @pytest.mark.parametrize("spec", REGULAR_FAMILIES,
                             ids=lambda s: f"{s.stratum.value}-{s.side.value}"
                                           f"{'-dom' if s.dominance else ''}")
    def test_estimate_is_flat_in_each_probability(self, single_index_regular,
                                                  spec):
        table, bundle, support = single_index_regular
        labels = bundle.labels()

        def estimate(b):
            # the complier moments are evaluated on every row and kept on
            # the positive partition; elsewhere the level-0 tail of this
            # unbounded design is infinite, and 0 * inf there is discarded
            with np.errstate(invalid="ignore"):
                rows = eif_regular(table, b, labels, spec, support)
            return sb.ratio_estimate(rows.psi_b, rows.psi_s, table.weight)[0]

        base = estimate(bundle)
        assert np.isfinite(base)
        for name in ("m", "s0", "s1"):
            probs = {"m": bundle.m, "s0": bundle.s0, "s1": bundle.s1}
            probs[name] = probs[name] * (1.0 + ORTHOGONALITY_EPS)
            scaled = NuisanceBundle(**probs, tail_fn=bundle._tail_fn,
                                    provenance=bundle.provenance)
            slope = (estimate(scaled) - base) / ORTHOGONALITY_EPS
            assert abs(slope) <= ORTHOGONALITY_TOL, f"{name}: {slope:+.3f}"


@pytest.fixture(scope="module")
def crossfit_b():
    return crossfit_panel_b()


@pytest.mark.parametrize("side", ["l", "u"])
@pytest.mark.parametrize("dominance", [False, True])
def test_extensive_margin_joins_complier_and_defier_rows(crossfit_b, side,
                                                         dominance):
    """On a cross-fitted draw with a non-constant control outcome, the
    extensive-margin rows are the complier rows on the positive partition
    and the defier rows on the negative one, byte for byte."""
    table, bundle, support = crossfit_b
    labels = bundle.labels()

    def rows(stratum):
        config = EstimationConfig(stratum=stratum, dominance=dominance)
        out = moment_rows(table, bundle, side, config, support)
        return np.stack([out.psi_b, out.psi_s])

    em = rows(Stratum.EM)
    for stratum, part in ((Stratum.C, XPLUS), (Stratum.DEF, XMINUS)):
        on = labels == part
        assert on.any()
        assert em[:, on].tobytes() == rows(stratum)[:, on].tobytes()


def _hahn_design():
    """Near-full selection on the positive partition: two covariate points."""
    pts = [DPoint(m=0.35, s0=1 - 2e-9, s1=1 - 1e-9, prob=0.5,
                  dist1=Pieces([1.0], [0.4], [1.6]),
                  dist0=Pieces([1.0], [-0.2], [0.6])),
           DPoint(m=0.6, s0=1 - 2e-9, s1=1 - 1e-9, prob=0.5,
                  dist1=Pieces([1.0], [0.0], [2.4]),
                  dist0=Pieces([1.0], [0.1], [0.9]))]

    def beta_x(pt):
        return pt.dist[1].trunc_below(min(pt.p0, 1.0)) \
            - pt.dist[0].trunc_above(1 - min(1 / pt.p0, 1.0))

    def _upper_censored_var(pt):
        # Var[Y 1{Y >= lower-support}] = plain variance at full selection
        d = pt.dist[0]
        return d.partial(d.support[1], 2) - d.mean() ** 2

    class Design:
        def atoms(self):
            return dpoint_atoms(
                pts, [pt.dist[1].censored_var_below(min(pt.p0, 1.0)) for pt in pts],
                [_upper_censored_var(pt) for pt in pts])

        def sharp_bound(self, side):
            num = sum(pt.prob * beta_x(pt) * min(pt.s0, pt.s1) for pt in pts)
            den = sum(pt.prob * min(pt.s0, pt.s1) for pt in pts)
            return num / den

    return pts, Design()


class TestEfficiencyFunctionals:
    def test_full_selection_reduces_to_classic_ate_bound(self):
        pts, design = _hahn_design()
        got = efficiency_bound(design)
        beta = design.sharp_bound(Side.L)
        want = 0.0
        for pt in pts:
            v1 = pt.dist[1].partial(pt.dist[1].support[1], 2) - pt.dist[1].mean() ** 2
            v0 = pt.dist[0].partial(pt.dist[0].support[1], 2) - pt.dist[0].mean() ** 2
            bx = pt.dist[1].mean() - pt.dist[0].mean()
            want += pt.prob * (v1 / pt.m + v0 / (1 - pt.m) + (bx - beta) ** 2)
        assert got == pytest.approx(want, rel=1e-4)

    def test_full_selection_gap_display(self):
        pts, design = _hahn_design()
        got = efficiency_gap(design)
        want = 0.0
        for pt in pts:
            mu1, mu0 = pt.dist[1].mean(), pt.dist[0].mean()
            want += pt.prob * (mu1 * np.sqrt((1 - pt.m) / pt.m)
                               - mu0 * np.sqrt(pt.m / (1 - pt.m))) ** 2
        assert got == pytest.approx(want, rel=1e-4)

    def test_knife_edge_gap_is_zero(self):
        pt = DPoint(m=0.5, s0=0.6, s1=0.8, prob=1.0,
                    dist1=Pieces([1.0], [-1.0], [1.0]),
                    dist0=Pieces([1.0], [-0.5], [0.5]))
        # symmetric outcome laws: the trimmed treated mean at level p0 must
        # equal the untrimmed control mean for the contribution to vanish
        p0 = pt.p0
        shift = pt.dist[1].trunc_below(p0) - pt.dist[0].mean()
        pt_shifted = DPoint(m=0.5, s0=0.6, s1=0.8, prob=1.0,
                            dist1=Pieces([1.0], [-1.0 - shift], [1.0 - shift]),
                            dist0=Pieces([1.0], [-0.5], [0.5]))

        class Design:
            def atoms(self):
                return dpoint_atoms([pt_shifted], [0.0], [0.0])

        # b11(p0) == b00(0): the squared difference inside the gap vanishes
        assert efficiency_gap(Design()) == pytest.approx(0.0, abs=1e-10)

    def test_benchmark_bound_and_gap_positive(self):
        design = sb.BenchmarkDesign(sb.DgpConfig(shares=(0.5, 0.0, 0.5)))
        assert efficiency_bound(design) > 0
        assert efficiency_gap(design) >= 0
