"""Byte-level golden digests of the estimator core.

Each case hashes the raw bytes (``tobytes()``) of an estimator-core output
on a fixed draw: the regular moments for every directly assembled and
mirrored stratum and side, the plain-estimator moments and conditional
bounds on a cross-fitted bundle, the smoothed moments and bounds, the
plug-in smoothed targets of every panel, the oracle variance functionals,
the Monte Carlo records of three replications on each panel, and every
provider's tails with their transforms. The CLI digests of
``TestGoldenOutput`` only reach the always-taker bound without dominance;
these reach the rest. The digests were recorded with numpy 2.4 on x86-64.
A change to them needs a line in ``CHANGES.md`` that says why the outputs
changed.
"""

import hashlib

import numpy as np
import pytest

import strata_bounds as sb
from strata_bounds.data_model import Side, Stratum, StratumSpec
from strata_bounds.estimation import EstimationConfig, moment_rows
from strata_bounds.identification import conditional_sharp_bound
from strata_bounds.influence import (efficiency_bound, efficiency_gap,
                                     eif_regular, eif_smooth)
from strata_bounds.nuisance import load_external_nuisances
from strata_bounds.simulation import _replication_worker
from strata_bounds.smoothing import GFamily, smooth_conditional_bound

from helpers import crossfit_panel_b

STRATA = ("at", "c", "def", "em")
SIDES = ("l", "u")
H_GRID = (0.05, 0.5)
#: h values of the plug-in smoothed targets, from coarse to the sharp limit.
TARGET_H_GRID = (0.5, 0.05, 0.01, 1e-9)


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for arr in arrays:
        sha.update(np.asarray(arr, dtype=float).tobytes())
    return sha.hexdigest()


def _panel(shares, base_seed):
    config = sb.DgpConfig(n=2000, shares=shares, base_seed=base_seed,
                          replications=1)
    return config, sb.dgp_sample(config, 0)


@pytest.fixture(scope="module")
def panel_a():
    """A panel-a draw with its oracle nuisances and support."""
    config, table = _panel(sb.PANEL_SHARES["a"], 11)
    return table, sb.oracle_nuisances(config)(table), sb.oracle_support(config, table)


@pytest.fixture(scope="module")
def panel_b():
    """A panel-b draw with cross-fitted nuisances and a non-constant
    control outcome."""
    return crossfit_panel_b()


@pytest.fixture(scope="module")
def designs():
    """Each panel's benchmark design: panel a's for the oracle variance
    functionals, all three for the plug-in smoothed targets."""
    return {panel: sb.BenchmarkDesign(sb.DgpConfig(shares=sb.PANEL_SHARES[panel]))
            for panel in "abc"}


def _regular(panel, stratum, side, dominance, inefficient=False):
    table, bundle, support = panel
    rows = eif_regular(table, bundle, bundle.labels(),
                       StratumSpec(Stratum.parse(stratum), Side.parse(side),
                                   dominance),
                       support, inefficient=inefficient)
    return rows.psi_b, rows.psi_s


def _plain(panel, stratum, side, dominance):
    table, bundle, support = panel
    config = EstimationConfig(stratum=Stratum.parse(stratum),
                              dominance=dominance)
    rows = moment_rows(table, bundle, side, config, support)
    return rows.psi_b, rows.psi_s


def _sharp(panel, side, dominance):
    _, bundle, support = panel
    return (conditional_sharp_bound(
        bundle, StratumSpec(Stratum.AT, Side.parse(side), dominance), support),)


def _smooth(panel, side, h):
    table, bundle, _ = panel
    rows = eif_smooth(table, bundle, GFamily(h), side)
    return (rows.psi_b_plus, rows.psi_s_plus, rows.psi_b_minus,
            rows.psi_s_minus,
            smooth_conditional_bound(bundle, side, GFamily(h), strict=False))


def _smooth_targets(design):
    return [part for side in SIDES for h in TARGET_H_GRID
            for part in design.smooth_component_targets(side, h)]


def _cases() -> dict:
    """Case name -> (fixture name, outputs as a function of the fixture)."""
    cases = {}
    for st in STRATA:
        for side in SIDES:
            for dom in (False, True):
                name = f"{st}-{side}{'-dom' if dom else ''}"
                cases[f"eif_regular/a/{name}"] = (
                    "panel_a", lambda p, st=st, side=side, dom=dom:
                    _regular(p, st, side, dom))
                cases[f"moment_rows/b/{name}"] = (
                    "panel_b", lambda p, st=st, side=side, dom=dom:
                    _plain(p, st, side, dom))
    for side in SIDES:
        cases[f"eif_regular/a/at-{side}-inefficient"] = (
            "panel_a", lambda p, side=side: _regular(p, "at", side, False, True))
        for dom in (False, True):
            cases[f"conditional_sharp_bound/b/at-{side}{'-dom' if dom else ''}"] = (
                "panel_b", lambda p, side=side, dom=dom: _sharp(p, side, dom))
        for h in H_GRID:
            cases[f"smooth/b/{side}-h{h}"] = (
                "panel_b", lambda p, side=side, h=h: _smooth(p, side, h))
    for panel in "abc":
        cases[f"smooth_component_targets/{panel}"] = (
            "designs", lambda d, panel=panel: _smooth_targets(d[panel]))
    cases["efficiency_bound/a"] = ("designs", lambda d: (efficiency_bound(d["a"]),))
    cases["efficiency_gap/a"] = ("designs", lambda d: (efficiency_gap(d["a"]),))
    return cases


CASES = _cases()

DIGESTS = {
    "conditional_sharp_bound/b/at-l":
        "9778ee065bbc2ba6b4f402bdce5bd18a513e3487eecb80dbd5cfb1716e855900",
    "conditional_sharp_bound/b/at-l-dom":
        "f3e96db429c9d5db451b3bb10ff1c9fc528013cc6ffb392828dc0f622f54fc4a",
    "conditional_sharp_bound/b/at-u":
        "5defd2c82d1a53c7e0264711d4bba8443c60075d62da9c899e0ea05ef317dd17",
    "conditional_sharp_bound/b/at-u-dom":
        "1d244d90a0989c65baf513f8208f78d95547a61173af70f0355595e36a63fbd7",
    "efficiency_bound/a":
        "1cc3695ca726d72fd6e765810355706b28020d13dbcbae60819874c81d94f0a0",
    "efficiency_gap/a":
        "4a0343611fc7c9722acc0c2ea9051a565e4aa95477847bbeb1406b98947be644",
    "eif_regular/a/at-l":
        "88932c4acd1b82f4c5b6d6411f81b1711e763628ac655f467587257520103009",
    "eif_regular/a/at-l-dom":
        "484f12893aef0863b552d989d7608aea12a648f3a7a7b5474bbd7f58f19d02c1",
    "eif_regular/a/at-l-inefficient":
        "3a445b5d28d8cc295c126c48c62554ac34abfa1e65c676e231db86d1eff51e53",
    "eif_regular/a/at-u":
        "8e175e342beac3658d37ea0d89320da2c12b0dacf82c440d9c6859e36b230008",
    "eif_regular/a/at-u-dom":
        "8e175e342beac3658d37ea0d89320da2c12b0dacf82c440d9c6859e36b230008",
    "eif_regular/a/at-u-inefficient":
        "aa0daebb4e5e7477fdbae384636876e3d05f7e5c4e6bf05f05027f5beb699053",
    "eif_regular/a/c-l":
        "72158810a6758dd57e630d933f242fef661f4e5353ce0f994e56cb583aac8bfe",
    "eif_regular/a/c-l-dom":
        "72158810a6758dd57e630d933f242fef661f4e5353ce0f994e56cb583aac8bfe",
    "eif_regular/a/c-u":
        "2653f706d552e3bbcd4238f5f5a01ee171ed94fb293970878cef513c5a93de5c",
    "eif_regular/a/c-u-dom":
        "2653f706d552e3bbcd4238f5f5a01ee171ed94fb293970878cef513c5a93de5c",
    "eif_regular/a/def-l":
        "3a9fe61d3961ec66dad9b21d992d2ef4b4194c0dad88a5d20ea14bfacd55be7c",
    "eif_regular/a/def-l-dom":
        "3a9fe61d3961ec66dad9b21d992d2ef4b4194c0dad88a5d20ea14bfacd55be7c",
    "eif_regular/a/def-u":
        "87479709749b856478b2b8d5e52bd11255f623227b4700d1e24795ce27e5401c",
    "eif_regular/a/def-u-dom":
        "87479709749b856478b2b8d5e52bd11255f623227b4700d1e24795ce27e5401c",
    "eif_regular/a/em-l":
        "c79701722d99ce0cd62414ca24f1ec9441d4e831ffe02bd39891bfd33e3952d9",
    "eif_regular/a/em-l-dom":
        "c79701722d99ce0cd62414ca24f1ec9441d4e831ffe02bd39891bfd33e3952d9",
    "eif_regular/a/em-u":
        "65245750e43ca78846ba80c559e935028361ee26fac5db87403e027ab382087a",
    "eif_regular/a/em-u-dom":
        "65245750e43ca78846ba80c559e935028361ee26fac5db87403e027ab382087a",
    "moment_rows/b/at-l":
        "4dc51980fa1564f67a30fcd83d9caddaaed51c95331b6d65f9f22bdea9bb4832",
    "moment_rows/b/at-l-dom":
        "5855fc9590dae9c7cc78a122de6133dbf518bcb8758b26d535ff20bfc988be72",
    "moment_rows/b/at-u":
        "1cb0ece66c1d44c22a4f3f0f816e957b889c7d33c2570bbb4143d26aa86bdd13",
    "moment_rows/b/at-u-dom":
        "367983340e0cd86965d7ffd8e0146509b9952eb56ceb0057e0f302fcb85ea626",
    "moment_rows/b/c-l":
        "baeb6e4a16d891e78cc34d225aa3f9be1f95af4553cddd7f8e525277f5e55e17",
    "moment_rows/b/c-l-dom":
        "88abb35e5bb0779cb047838becea567adadfe275efe7d7939106583521b7d33f",
    "moment_rows/b/c-u":
        "27319306432813a841d1ff7ded7736cbab04d2a6014390c9b903a8d1e25bbad2",
    "moment_rows/b/c-u-dom":
        "b17967532cd09a54653a1d41aa5e3074420857ffbf652ba4031623fda7ccd730",
    "moment_rows/b/def-l":
        "3be10ca817e77f3d60efbc26a5a6b1653cebe76fe92e07e2a1c1a68a54cdd6e2",
    "moment_rows/b/def-l-dom":
        "3be10ca817e77f3d60efbc26a5a6b1653cebe76fe92e07e2a1c1a68a54cdd6e2",
    "moment_rows/b/def-u":
        "337552ab948bb50963a0edd1b73ac70d3ef67a03d9f29f21af75c08c1b143680",
    "moment_rows/b/def-u-dom":
        "756fd4c24669386f28b6a231aa1a595c818b5823ef50cd829c091d9f21f108e5",
    "moment_rows/b/em-l":
        "3044e9872f7fff47dc1ed9b6782978cf04ce4f623a44f1e124d244b15a91156b",
    "moment_rows/b/em-l-dom":
        "dc05cdf7dab0a9a29df92a7e14618a1e2302aeb7852a4d7aef8292f9badd9c19",
    "moment_rows/b/em-u":
        "2fd21b45959a2281aeede90172b9fa23334ad03a530fc571a595aa93930c29e8",
    "moment_rows/b/em-u-dom":
        "855be3f0e28ae165caf9bb5758ef804b19e5431a7604bc4b3da44fb0d82774ba",
    "smooth_component_targets/a":
        "fbd76f8a58491957394f9260b6224c7126c66bb9523be74bc25f578b90877579",
    "smooth_component_targets/b":
        "deeb3d9d1f310c61ff626026fd50f32810dbaab6a24e6c412751ee26687d94a8",
    "smooth_component_targets/c":
        "7c29ccf5f77d14b1844f9d5a2b27975a17ab33410b26a401ebe480ee5d55d5d0",
    "smooth/b/l-h0.05":
        "b1dc3f91726f0e1c6be82760573246fece398de6b6a483505c74464061271f7b",
    "smooth/b/l-h0.5":
        "4d3289e1d9437a44aa99ada30b93291710825a8bfe1a80c3f230baa9b12a5e02",
    "smooth/b/u-h0.05":
        "78a50d9ad92d432ed9ac8732b01d30250b2bff8af6a1756fddfccee88e7d2473",
    "smooth/b/u-h0.5":
        "64d3ba74968f8b66a64af38019c1ae00970486e17dad5de9e895389dfa6a0f07",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_core_digest(request, name):
    fixture, outputs = CASES[name]
    assert _digest(*outputs(request.getfixturevalue(fixture))) == DIGESTS[name]


def _record_digest(record) -> str:
    """Digest of one ``_replication_worker`` record: per estimator, in name
    order, its name and either its five floats or its failure's type."""
    sha = hashlib.sha256()
    for name in sorted(record):
        entry = record[name]
        sha.update(name.encode())
        if entry[0] == "fail":
            sha.update(("fail:" + entry[1]).encode())
        else:
            sha.update(np.asarray(entry, dtype=float).tobytes())
    return sha.hexdigest()


#: ``_replication_worker`` records on n = 400 draws of each panel (the
#: paper's roster with oracle nuisances): the path ``simulate`` runs.
REPLICATION_DIGESTS = {
    ("a", 0): "4111cfaed1afdd49fa925b62b0ad703cb635e49a92d4c4885119539ccf4b8e10",
    ("a", 1): "5df3e932f0f2a74ce4846d92e48fc495be6e14366c35d2533d3de88e7aaf27c2",
    ("a", 2): "8c581ec76633bfd1595a2d26a2a6360179b1d2c8176f111bce4bfa435fe13200",
    ("b", 0): "66998b72be765abf807187978c20378f8136b2b328d9d5d00921f8fb18491b65",
    ("b", 1): "7d32efa7b21dbe4613e1668b9b2752e184a13e07922c60db30c52336a7722ce2",
    ("b", 2): "bf616797c612afeb95d90bb77ea8ab65043b177bfe454467eea034bc31979572",
    ("c", 0): "144b9e8903fc818287535620563daa0993305291364e63679ee4d38583697c4d",
    ("c", 1): "2bc4ef6c8b5c0249d9d575ddfeb80152a6344f42645929dad9734b85a3024700",
    ("c", 2): "cb2288e1c9188c2735e0f1cf2dd7d0bf0ccb655bfb12d5750de69dcacf5a11e7",
}


@pytest.mark.parametrize("panel,rep", sorted(REPLICATION_DIGESTS))
def test_replication_record_digest(panel, rep):
    config = sb.DgpConfig(n=400, shares=sb.PANEL_SHARES[panel],
                          replications=3)
    record = _replication_worker(config, rep)
    assert not [name for name, entry in record.items() if entry[0] == "fail"]
    assert _record_digest(record) == REPLICATION_DIGESTS[(panel, rep)]


# ---------------------------------------------------------------------------
# tails: each provider's quantile and truncated mean, and its transforms

def _tail_levels(n):
    u = np.random.default_rng(8).random(n)
    u[:6] = (0.0, 1.0, 1e-13, 1.0 - 1e-13, 0.5, 0.25)
    return u


def _write_grid(path, table, bundle, levels):
    """A nuisance CSV of ``bundle``'s probabilities and its tails at
    ``levels``."""
    rows = bundle.all_rows()
    cols = {"m": bundle.m, "s0": bundle.s0, "s1": bundle.s1}
    for u in levels:
        uu = np.full(table.n, u)
        for d in (0, 1):
            for j in (0, 1):
                q, b = bundle.tail(rows, j, d, uu)
                cols[f"q_{d}_u{u!r}"] = q
                cols[f"b_{j}_{d}_u{u!r}"] = b
    data = np.column_stack(list(cols.values()))
    path.write_text(",".join(cols) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in data.tolist()))
    return str(path)


@pytest.fixture(scope="module")
def tail_providers(panel_a, panel_b, tmp_path_factory):
    """Provider name -> bundle: both oracles (the single-index one has a
    Gaussian outcome in each arm), the cross-fitted panel-b draw, and an
    external grid of the single-index oracle's tails."""
    config = sb.DgpConfig(dgp_id="single_index", n=600, base_seed=3,
                          replications=1)
    table = sb.dgp_sample(config, 0)
    oracle = sb.oracle_nuisances(config)(table)
    grid = _write_grid(tmp_path_factory.mktemp("tails") / "grid.csv", table,
                       oracle, np.linspace(0.02, 0.98, 13).tolist())
    return {"benchmark": panel_a[1], "single_index": oracle,
            "cross_fitted": panel_b[1],
            "external": load_external_nuisances(grid, table)}


TRANSFORMS = {
    "root": lambda b: b,
    "negated": lambda b: b.with_negated_outcome(),
    "swapped": lambda b: b.with_swapped_arms(),
    "select": lambda b: b.select(
        np.random.default_rng(9).permutation(b.n)[:b.n // 2]),
}


def _tails(bundle):
    """Every tail (j, d) of ``bundle`` on all its rows: quantiles, then
    means."""
    rows, u = bundle.all_rows(), _tail_levels(bundle.n)
    return [part for j in (0, 1) for d in (0, 1)
            for part in bundle.tail(rows, j, d, u)]


#: Recorded from each provider's separate quantile and truncated-mean
#: evaluations, ``(quantile(rows, d, u), trunc_mean(rows, j, d, u))``.
TAIL_DIGESTS = {
    ("benchmark", "negated"):
        "1d444957fdf3e7eb1cc17beb695e470c15033138f27cc16d43d75445e6a88760",
    ("benchmark", "root"):
        "2b18cdc5e18ec37bebd6c56272772224d5a23d5a3b9fb6ab54e1a972a105fc61",
    ("benchmark", "select"):
        "f6d388d35d6c40f80b22a289792c699c728d1fd4a81e9add3a46236806eb6bfc",
    ("benchmark", "swapped"):
        "90e194544b39594012a21d16b200fa94b869559220724fb57555f4ff616f9483",
    ("cross_fitted", "negated"):
        "21ee61a330f849f6fdc5016785468ee5a71169dcb621156a674ad84c224d29da",
    ("cross_fitted", "root"):
        "a01765f0dc901adb729b010f0e33cb8a042bb9597d39e25b752238167b3f482d",
    ("cross_fitted", "select"):
        "dbcbaec96b9f3ab99885c49a5f7732aeb52050515aea6f7a22b60b755079c2a0",
    ("cross_fitted", "swapped"):
        "22682243ef9d7b4350eb306cffd2cf01d19586b73e401fe504b3d2d49cd6a284",
    ("external", "negated"):
        "d30024134146ef19f3762260c2205b5da6bd4344fdb6ea742867e66f85cf27f5",
    ("external", "root"):
        "cc2ae85088576deef53a860e2475d20e727d803d2e4c9b7ff7fd7a69d774df74",
    ("external", "select"):
        "fc741500e1f3851b333f023b307cc13b28af1b95dfdfaffefa5ebd3a3fc88b0f",
    ("external", "swapped"):
        "2be2a37d4da3f4ad020e182edee467b9f1ce35173b8e0f7ebc1545f726be6c05",
    ("single_index", "negated"):
        "5cae0d237fdbaa1c05e128025422e136f55551878d8dd130ed0c081d1d387aae",
    ("single_index", "root"):
        "5932374adddf2bcadcafce09ab472a2217939f49cccc05a081eac0cf24a75992",
    ("single_index", "select"):
        "309bcc898c7db31125669cb399d678ca97d76b8c49947f84ab51ed8ef8fa5951",
    ("single_index", "swapped"):
        "a93a7d5640ad354fc392058d4ce772d6351127584e81d995ef230e088529a814",
}


@pytest.mark.parametrize("provider,transform",
                         [(p, t) for p in ("benchmark", "cross_fitted",
                                           "external", "single_index")
                          for t in TRANSFORMS])
def test_tail_digest(tail_providers, provider, transform):
    bundle = TRANSFORMS[transform](tail_providers[provider])
    assert _digest(*_tails(bundle)) == TAIL_DIGESTS[(provider, transform)]
