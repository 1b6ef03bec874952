"""Byte-level golden digests of the estimator core.

Each case hashes the raw bytes (``tobytes()``) of an estimator-core output
on a fixed draw: the regular moments for every directly assembled and
mirrored stratum and side, the plain-estimator moments and conditional
bounds on a cross-fitted bundle, the smoothed moments and bounds, the
oracle variance functionals, and the Monte Carlo records of three
replications on each panel. The CLI digests of ``TestGoldenOutput`` only
reach the always-taker bound without dominance; these reach the rest. The
digests were recorded with numpy 2.4 on x86-64. A change to them needs a
line in ``CHANGES.md`` that says why the outputs changed.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

import strata_bounds as sb
from strata_bounds.data_model import Side, Stratum, StratumSpec
from strata_bounds.estimation import EstimationConfig, moment_rows
from strata_bounds.identification import conditional_sharp_bound
from strata_bounds.influence import (efficiency_bound, efficiency_gap,
                                     eif_regular, eif_smooth)
from strata_bounds.nuisance import CellSpec, LearnerSpec, crossfit
from strata_bounds.simulation import _replication_worker
from strata_bounds.smoothing import GFamily, smooth_conditional_bound

STRATA = ("at", "c", "def", "em")
SIDES = ("l", "u")
H_GRID = (0.05, 0.5)


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
    """A panel-b draw with cross-fitted nuisances (the benchmark's cells).

    The design's control outcome is 0, which would make every control-arm
    surface constant, so the selected control rows get a standard normal
    outcome instead."""
    _, table = _panel(sb.PANEL_SHARES["b"], 5)
    y0 = np.random.default_rng(5).standard_normal(table.n)
    table = dataclasses.replace(table, y=np.where(
        table.s == 1, np.where(table.d == 0, y0, table.y), np.nan))
    spec = LearnerSpec(cells=CellSpec(discrete_cols=(0,), n_bins=3), folds=5,
                       seed=1)
    return table, crossfit(table, spec), sb.SupportBounds.from_table(table)


@pytest.fixture(scope="module")
def design_a():
    """The panel-a benchmark design, for the oracle variance functionals."""
    return sb.BenchmarkDesign(sb.DgpConfig(shares=sb.PANEL_SHARES["a"]))


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
    cases["efficiency_bound/a"] = ("design_a", lambda d: (efficiency_bound(d),))
    cases["efficiency_gap/a"] = ("design_a", lambda d: (efficiency_gap(d),))
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
        "246730a3428b3b4fbd022f20d97b5996200829bb09bb9e002416e38017e97bb9",
    "eif_regular/a/em-u-dom":
        "65245750e43ca78846ba80c559e935028361ee26fac5db87403e027ab382087a",
    "moment_rows/b/at-l":
        "3794a09033df5071b82526e385644913ac322f12374f51a751a7c559bf04c66a",
    "moment_rows/b/at-l-dom":
        "a8e25547d10a60646fd5bd0604a43d3624202554d5ad09856af5ebcd9efc2728",
    "moment_rows/b/at-u":
        "6efbe917d5fe76803c24eb6ff77e61db4f587488ff98ecd0d7f5c3639f6c8bd0",
    "moment_rows/b/at-u-dom":
        "0b391175c4ec8c3bb94bed30713235d0b71b2b3fc1361225f2fcfd843761ca07",
    "moment_rows/b/c-l":
        "29bf09e2d3257270312c8b4e62c3f100f84cd65b51e3f8b15118013e75471d47",
    "moment_rows/b/c-l-dom":
        "93dd56ac8c38bef1064912500b0b3fea5ac906112ae6abccfcb5757c2bbaf0b5",
    "moment_rows/b/c-u":
        "b553ec70b58ec0c4f1c5831993452c1e3cea2872289896248bcdb73a898f34d0",
    "moment_rows/b/c-u-dom":
        "82a817fecee6a99a8e1331157aa65cb00d0ce5b38bc03ec52f7f10fb1c2a6e62",
    "moment_rows/b/def-l":
        "1f34ac4494fdfd7d2d23d7946dd6f22154de37b4a47f10e1ddbee226fa12f33e",
    "moment_rows/b/def-l-dom":
        "1f34ac4494fdfd7d2d23d7946dd6f22154de37b4a47f10e1ddbee226fa12f33e",
    "moment_rows/b/def-u":
        "aec6a262807845529be46cc4858c8195c8348d2433065df04981db7efac89e41",
    "moment_rows/b/def-u-dom":
        "dc2819546bb340d4cff3b193556a3d830c67e39cbee703c435339b3161819241",
    "moment_rows/b/em-l":
        "92f27d7fe73df9882edfce2a6d7cc105908e5bebb791a6673fc6d4d613b2cebf",
    "moment_rows/b/em-l-dom":
        "ee5d58b8b584a6f8f73d0c08e6d9cf83ecb553a6424b81104876ac399facde94",
    "moment_rows/b/em-u":
        "827e579fcebc990353ddda6d0864e298d414594bbb0540beb984e111205a91eb",
    "moment_rows/b/em-u-dom":
        "7e5b8745a7cc58414a01e18c873a93d2bb12510cc5cd447e03f1f7ae2edce73a",
    "smooth/b/l-h0.05":
        "6697f9e982d0e961f61e86031014c15ff80e6e6182d50efef2ffa8bc0ac3405c",
    "smooth/b/l-h0.5":
        "a8f406283c1f2f34771d0f1756fba8ba53b2ef0b6671bda0bd526eecdbe7481d",
    "smooth/b/u-h0.05":
        "1eedf83d0215d851099cdd6b2c17096c0b9813277d2d9ad87eb61565b3b0239a",
    "smooth/b/u-h0.5":
        "cefa23157f1450416bebfb9824cd73ff728afa1248cbd2e2ba70e5d0907b86dc",
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
