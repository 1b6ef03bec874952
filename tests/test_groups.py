"""Subgroup bounds: ``estimate --group-col`` runs every listed method on
each covariate group's rows.

The sharp group records are pinned, in every field but ``diagnostics``, by
digests recorded with numpy 2.4 on x86-64 before the group path ran the
estimators on each group's rows (it then re-solved full-sample sharp
moments by group). Every other method's group records must equal a
standalone ``estimate`` on a CSV of only that group's rows.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

import strata_bounds as sb
from strata_bounds.cli import main
from test_cli import write_nuisance_csv
from test_shared_pieces import CLI_FLAGS, _crossfit_draw, _oracle_draw

STRATA = ("at", "c", "def", "em")


def run(*argv):
    """``(exit code, stdout, stderr)`` of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def draw_flags(name, directory):
    """Write one panel-b draw as a CSV under ``directory``; return the
    ``estimate`` arguments that read it: cross-fitted with the benchmark's
    cells, or an external-oracle grid of 19 levels. The oracle draw has a
    third covariate, ``x3``, the row number's parity: every stratum has mass
    in both of its groups, while some x1 group has no mass in the c, def and
    em strata, so their sharp group runs exit 3."""
    make_draw = {"crossfit": _crossfit_draw, "oracle": _oracle_draw}[name]
    table, make, _ = make_draw()
    path = f"{directory}/{name}.csv"
    if name == "crossfit":
        table.to_csv(path)
        return (path, *CLI_FLAGS)
    parity = np.arange(table.n) % 2
    sb.ObservationTable(table.y, table.s, table.d,
                        np.column_stack([table.x, parity]),
                        table.weight).to_csv(path)
    npath = f"{directory}/{name}_grid.csv"
    write_nuisance_csv(npath, table, make(), u_grid=np.linspace(0.05, 0.95, 19))
    return (path, "--nuisance-file", npath, "--nuisance-oracle")


def sharp_group_digest(flags, col, stratum, dominance) -> str:
    """Digest of the ``--group-col col --method sharp`` group records
    without their diagnostics, or of the exit code and error kind."""
    code, out, err = run("estimate", *flags, "--method", "sharp",
                         "--group-col", col, "--stratum", stratum,
                         *(("--dominance",) if dominance else ()))
    if code != 0:
        text = f"exit {code} {json.loads(err.splitlines()[-1])['error']}"
    else:
        groups = [{k: v for k, v in rec.items() if k != "diagnostics"}
                  for rec in json.loads(out) if "group" in rec]
        text = json.dumps(groups, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


#: (draw, group column) -> the cases of ``SHARP_GROUP_DIGESTS``
CASES = (("crossfit", "x1"), ("oracle", "x1"), ("oracle", "x3"))

SHARP_GROUP_DIGESTS = {
    "crossfit/x1/at":
        "251658ba491bea760b87aac0cfe1a9ec17d19400aec8540886379a2461a68417",
    "crossfit/x1/at/dom":
        "191d0d93cecd1886b6250f39ac432b8eabbb3e6c60cbf7531a2434a7aab31146",
    "crossfit/x1/c":
        "c4f54dafda4acd09d4029208c0ba771646fb5c5a4ff370b2989bb51ad77023c6",
    "crossfit/x1/c/dom":
        "c4f54dafda4acd09d4029208c0ba771646fb5c5a4ff370b2989bb51ad77023c6",
    "crossfit/x1/def":
        "c4f54dafda4acd09d4029208c0ba771646fb5c5a4ff370b2989bb51ad77023c6",
    "crossfit/x1/def/dom":
        "c4f54dafda4acd09d4029208c0ba771646fb5c5a4ff370b2989bb51ad77023c6",
    "crossfit/x1/em":
        "c4f54dafda4acd09d4029208c0ba771646fb5c5a4ff370b2989bb51ad77023c6",
    "crossfit/x1/em/dom":
        "c4f54dafda4acd09d4029208c0ba771646fb5c5a4ff370b2989bb51ad77023c6",
    "oracle/x1/at":
        "e7350b98d2d57b62ca1405390f1aba41468961e49847467b1157484f4a2e88ff",
    "oracle/x1/at/dom":
        "9d1da1f3185752127136125afd6cd997db8b4900225e4368054f637090c1a477",
    "oracle/x1/c":
        "c4f54dafda4acd09d4029208c0ba771646fb5c5a4ff370b2989bb51ad77023c6",
    "oracle/x1/c/dom":
        "c4f54dafda4acd09d4029208c0ba771646fb5c5a4ff370b2989bb51ad77023c6",
    "oracle/x1/def":
        "c4f54dafda4acd09d4029208c0ba771646fb5c5a4ff370b2989bb51ad77023c6",
    "oracle/x1/def/dom":
        "c4f54dafda4acd09d4029208c0ba771646fb5c5a4ff370b2989bb51ad77023c6",
    "oracle/x1/em":
        "c4f54dafda4acd09d4029208c0ba771646fb5c5a4ff370b2989bb51ad77023c6",
    "oracle/x1/em/dom":
        "c4f54dafda4acd09d4029208c0ba771646fb5c5a4ff370b2989bb51ad77023c6",
    "oracle/x3/at":
        "ca037febee0a9bd4994b74054f9042af74afefa63f3c6a5ec90e63491a5915cf",
    "oracle/x3/at/dom":
        "bc9d592b1353ce07736445263b494af74773936ec291be69aab51f84a32863e6",
    "oracle/x3/c":
        "17ac1ed59dde5ead33a54fc4df8b55a0c6f91dddada51cfca047dc54f204c62f",
    "oracle/x3/c/dom":
        "17ac1ed59dde5ead33a54fc4df8b55a0c6f91dddada51cfca047dc54f204c62f",
    "oracle/x3/def":
        "9ae417e4137a218476ba42fa15d7eec100b5f5fd14fca2ad88d2ae274a463397",
    "oracle/x3/def/dom":
        "c350ef47c41b836d7f8aef965b29bec534d885ace685e23741fc4777f74467e8",
    "oracle/x3/em":
        "ddfaf8b52c636a1f93a9ec053d4e730a08a74a948f2f49981bc46be913654ed5",
    "oracle/x3/em/dom":
        "d5b2954e8ed296a1e5c2a0441d3b7d150492782ff93ee82fcabfc7bccc356ad3",
}


@pytest.fixture(scope="module")
def draws(tmp_path_factory):
    directory = tmp_path_factory.mktemp("groups")
    return {name: draw_flags(name, directory) for name in ("crossfit", "oracle")}


@pytest.mark.parametrize("dominance", [False, True])
@pytest.mark.parametrize("stratum", STRATA)
@pytest.mark.parametrize("case", CASES, ids="/".join)
def test_sharp_group_records_unchanged(draws, case, stratum, dominance):
    name, col = case
    key = f"{name}/{col}/{stratum}{'/dom' if dominance else ''}"
    assert sharp_group_digest(draws[name], col, stratum, dominance) == \
        SHARP_GROUP_DIGESTS[key]


def _rows_of(path, keep):
    """The header and the kept data rows of a CSV file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return "\n".join([lines[0]] + [ln for ln, k in zip(lines[1:], keep) if k]) + "\n"


def test_group_records_equal_standalone_runs_on_the_group(tmp_path):
    config = sb.DgpConfig(n=1500, shares=sb.PANEL_SHARES["a"], base_seed=9,
                          replications=1)
    table = sb.dgp_sample(config, 0)
    dpath, npath = tmp_path / "d.csv", tmp_path / "n.csv"
    table.to_csv(str(dpath))
    write_nuisance_csv(str(npath), table, sb.oracle_nuisances(config)(table),
                       u_grid=np.linspace(0.05, 0.95, 19))
    flags = ("--method", "sharp,trim,switch,smooth,inefficient",
             "--h", "0.05,0.01", "--nuisance-oracle")
    code, out, _ = run("estimate", dpath, "--nuisance-file", npath,
                       "--group-col", "x1", *flags)
    assert code == 0
    records = json.loads(out)
    methods = ["sharp", "trim", "switch", "smooth", "smooth",
               "inefficient_known_ps"]
    x1 = table.x[:, 0]
    values = np.unique(x1)
    assert len(values) >= 2
    assert [rec["method"] for rec in records] == methods * (1 + len(values))
    assert "group" not in records[0]
    for i, g in enumerate(values, start=1):
        mine = records[i * len(methods):(i + 1) * len(methods)]
        assert {rec.pop("group") for rec in mine} == {float(g)}
        gd, gn = tmp_path / f"d{i}.csv", tmp_path / f"n{i}.csv"
        gd.write_text(_rows_of(dpath, x1 == g))
        gn.write_text(_rows_of(npath, x1 == g))
        code, alone, _ = run("estimate", gd, "--nuisance-file", gn, *flags)
        assert code == 0
        assert mine == json.loads(alone)
        assert {rec["n"] for rec in mine
                if rec["method"] != "trim"} == {int((x1 == g).sum())}


def test_smooth_group_records_are_smooth(tmp_path):
    flags = draw_flags("oracle", tmp_path)
    code, out, _ = run("estimate", *flags, "--method", "smooth",
                       "--h", "0.05", "--group-col", "x1")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 4
    assert {(rec["method"], rec["h"]) for rec in records} == {("smooth", 0.05)}


def _regrouped(tmp_path, x1_of):
    """A panel-b draw whose x1 is ``x1_of(oracle bundle)``, written with
    its oracle nuisance grid; the ``estimate`` arguments that read it."""
    config = sb.DgpConfig(n=600, shares=sb.PANEL_SHARES["b"], base_seed=4,
                          replications=1)
    table = sb.dgp_sample(config, 0)
    bundle = sb.oracle_nuisances(config)(table)
    x = table.x.copy()
    x[:, 0] = x1_of(bundle)
    table = sb.ObservationTable(table.y, table.s, table.d, x, table.weight)
    dpath, npath = tmp_path / "d.csv", tmp_path / "n.csv"
    table.to_csv(str(dpath))
    write_nuisance_csv(str(npath), table, bundle,
                       u_grid=np.linspace(0.05, 0.95, 19))
    return (dpath, "--nuisance-file", npath, "--nuisance-oracle",
            "--group-col", "x1")


def test_failing_group_exits_3_and_names_it(tmp_path):
    # group 2.0 holds the rows at selection indifference only, so trimming
    # leaves it nothing
    flags = _regrouped(tmp_path,
                       lambda b: np.where(b.labels() == 0, 2.0, 1.0))
    code, out, err = run("estimate", *flags, "--method", "trim")
    assert code == 3 and out == ""
    failure = json.loads(err.splitlines()[-1])
    assert failure["error"] == "AllTrimmedError"
    assert failure["message"].startswith("group x1=2.0: ")


def test_switch_on_a_one_row_group_exits_2(tmp_path):
    flags = _regrouped(tmp_path, lambda b: np.where(np.arange(len(b.m)) == 17,
                                                    5.0, 1.0))
    code, out, err = run("estimate", *flags, "--method", "switch")
    assert code == 2 and out == ""
    failure = json.loads(err.splitlines()[-1])
    assert failure["error"] == "ValueError"
    assert failure["message"].startswith("group x1=5.0: ")
    assert "n = 1" in failure["message"]
