import csv
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpuniform.cli import _build_parser, main
from fpuniform.errors import RetryLimitError, reported_count
from fpuniform.linear_forms import (
    FlaggedSystem,
    LinearSystem,
    arithmetic_progression_system,
)
from fpuniform.polynomials import Polynomial
from fpuniform.tables import FunctionTable, phase_table, random_real_table
from fpuniform.testers import uniformity_tester_spec

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def files(tmp_path):
    def put(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    quad = Polynomial(2, 2, {(1, 1): 1})
    lin4 = Polynomial(2, 4, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1})
    return {
        "phase": put("phase.json", phase_table(quad).to_json_dict()),
        "ap4": put("ap4.json", arithmetic_progression_system(5, 4).to_json_dict()),
        "ap3": put("ap3.json", arithmetic_progression_system(3, 3).to_json_dict()),
        "two": put("two.json", LinearSystem(3, 2, [(1, 0), (1, 1)]).to_json_dict()),
        "tri": put("tri.json", LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)]).to_json_dict()),
        "f24": put("f24.json", random_real_table(2, 4, seed=1).to_json_dict()),
        "F01": put("F01.json", random_real_table(2, 4, seed=0, low=0.0, high=1.0).to_json_dict()),
        "lin4": put(
            "lin4.json",
            FunctionTable(2, 4, lin4.value_table(), codomain="real").to_json_dict(),
        ),
        "poly": put(
            "poly.json", Polynomial(2, 3, {(1, 1, 0): 1, (0, 0, 1): 1}).to_json_dict()
        ),
        "spec": put("spec.json", uniformity_tester_spec(2, 4, 1).to_json_dict()),
        "flag_a": put(
            "fla.json", FlaggedSystem(2, 2, [(1, 0), (0, 1)], (1, 1)).to_json_dict()
        ),
        "flag_b": put(
            "flb.json", FlaggedSystem(2, 2, [(1, 0), (1, 1)], (0, 1)).to_json_dict()
        ),
        "big": put("big.json", FunctionTable.constant(2, 4, 1.0).to_json_dict()),
        "f52": put("f52.json", random_real_table(5, 2, seed=2).to_json_dict()),
        "quad5": put(
            "quad5.json", LinearSystem(5, 2, [(1, 0), (0, 1), (1, 1), (1, 2)]).to_json_dict()
        ),
        "tmp": tmp_path,
    }


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- happy paths

def test_gowers_exact_report(files, capsys):
    rc, out, _ = run(["gowers", "--table", files["phase"], "--k", "2"], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["value"] == pytest.approx(2 ** -0.5)
    assert rep["mode"] == "exact" and rep["samples"] is None
    assert rep["tolerance"]["kind"] == "float-rounding"
    assert rep["seed"] == 0 and rep["path"] == "direct"
    digest = hashlib.sha256(open(files["phase"], "rb").read()).hexdigest()
    assert rep["inputs"]["table"]["sha256"] == digest


def test_gowers_mc_tracks_exact(files, capsys):
    rc, out, _ = run(
        ["gowers", "--table", files["phase"], "--k", "2", "--mc", "2000", "--seed", "4"],
        capsys,
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["mode"] == "mc" and rep["samples"] == 2000
    assert rep["tolerance"] == {"kind": "mc-stderr", "value": rep["stderr"]}
    assert abs(rep["value"] - 2 ** -0.5) <= 4 * rep["stderr"]


def test_reruns_are_byte_identical(files, capsys):
    argv = ["gowers", "--table", files["phase"], "--k", "2", "--mc", "500", "--seed", "9"]
    rc1, out1, _ = run(argv, capsys)
    rc2, out2, _ = run(argv, capsys)
    assert rc1 == rc2 == 0 and out1 == out2


def test_average_command(files, capsys):
    rc, out, _ = run(
        ["average", "--system", files["tri"], "--tables", files["f24"]], capsys
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["value"][1] == pytest.approx(0.0)  # real table, real average
    assert rep["mode"] == "exact" and rep["abs"] >= 0
    # {x, y, x+y}: 3 forms of rank 2, so the dual side sums over N = 16 points
    # after one transform of 16 points of the one table
    assert rep["path"] == "dual" and rep["cost"] == 16 + 16
    rc, out, _ = run(
        [
            "average", "--system", files["tri"], "--tables", files["f24"],
            "--conjugations", "1,0,1",
        ],
        capsys,
    )
    assert rc == 0  # conjugating a real table changes nothing
    assert json.loads(out)["value"] == pytest.approx(rep["value"])


def test_system_cs_complexity_is_charged_to_the_budget(tmp_path, capsys):
    forms = [f for f in itertools.product(range(2), repeat=4) if any(f)]
    path = tmp_path / "all15.json"
    path.write_text(json.dumps(LinearSystem(2, 4, forms).to_json_dict()))
    argv = ["system", "complexity", "--file", str(path), "--kind", "cs"]
    rc, out, _ = run(argv + ["--budget", "100"], capsys)
    rep = json.loads(out)
    assert rc == 0 and rep["bound_only"] is True and rep["value"] == 13
    rc, out, _ = run(argv, capsys)  # the default budget covers the search
    rep = json.loads(out)
    assert rc == 0 and rep["bound_only"] is False and rep["value"] == 3


def test_system_commands(files, capsys):
    rc, out, _ = run(
        ["system", "complexity", "--file", files["ap4"], "--kind", "true"], capsys
    )
    assert rc == 0 and json.loads(out)["value"] == 2
    rc, out, _ = run(
        ["system", "complexity", "--file", files["tri"], "--kind", "cs"], capsys
    )
    assert rc == 0 and json.loads(out)["value"] == 1
    rc, out, _ = run(["system", "components", "--file", files["two"]], capsys)
    assert rc == 0 and json.loads(out)["components"] == [[0], [1]]
    rc, out, _ = run(
        ["system", "isomorphism", "--file", files["tri"], "--other", files["tri"]],
        capsys,
    )
    rep = json.loads(out)
    assert rc == 0 and rep["isomorphic"] and "decided" not in rep
    rc, out, _ = run(
        ["system", "product", "--file", files["flag_a"], "--other", files["flag_b"]],
        capsys,
    )
    rep = json.loads(out)
    assert rc == 0 and rep["product"]["kind"] == "flagged-system"
    # product requires flags on both sides
    rc, _, err = run(
        ["system", "product", "--file", files["tri"], "--other", files["flag_b"]],
        capsys,
    )
    assert rc == 2 and "flagged" in err


def test_fourier_json_and_csv(files, capsys):
    rc, out, _ = run(["fourier", "--table", files["phase"]], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert len(rep["coefficients"]) == 4
    mass = sum(re**2 + im**2 for re, im in rep["coefficients"])
    assert mass == pytest.approx(1.0)  # Parseval for a unit-modulus table
    rc, out, _ = run(["fourier", "--table", files["phase"], "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert rc == 0 and lines[0] == "a1,a2,re,im" and len(lines) == 5


def test_fourier_budget_exit_66(files, capsys):
    # the transform is charged its 25 points
    rc, out, err = run(["fourier", "--table", files["f52"], "--budget", "24"], capsys)
    assert rc == 66 and out == ""
    diag = json.loads(err)
    assert diag["type"] == "budget" and (diag["cost"], diag["budget"]) == (25, 24)
    rc, out, _ = run(["fourier", "--table", files["f52"], "--budget", "25"], capsys)
    assert rc == 0 and json.loads(out)["cost"] == 25


def test_isomorphism_budget_exit_66(files, capsys):
    # AP4 over F_5: 4 forms of rank 2, so the search is charged 4 * 3 * 4 = 48
    argv = ["system", "isomorphism", "--file", files["ap4"], "--other", files["quad5"]]
    rc, out, err = run(argv + ["--budget", "47"], capsys)
    assert rc == 66 and out == ""
    diag = json.loads(err)
    assert diag["type"] == "budget" and (diag["cost"], diag["budget"]) == (48, 47)
    rc, out, _ = run(argv + ["--budget", "48"], capsys)
    rep = json.loads(out)
    assert rc == 0 and rep["isomorphic"] is False and rep["mapping"] is None


def test_interior_isomorphism_budget_exit_66(files, capsys):
    # the 5-point table fits the budget, the check that AP4 and the other
    # 4-form system are not isomorphic (charged 48) does not
    argv = ["interior", "--systems", files["ap4"], files["quad5"], "--p", "5", "--n", "1"]
    rc, out, err = run(argv + ["--budget", "47"], capsys)
    assert rc == 66 and out == ""
    diag = json.loads(err)
    assert diag["type"] == "budget" and diag["cost"] == 48
    assert "isomorphism" in diag["error"]
    rc, out, _ = run(argv, capsys)
    assert rc == 0 and json.loads(out)["independent"]


def test_budget_covers_the_whole_command(files, capsys):
    # per trial, the boundary functions of {x}, the triangle and the square on
    # F_2^1 charge 2 + 14 + 18 = 34 points, each within the budget; three
    # trials (none passes the threshold) charge 102 to the one ledger, the
    # last step the square's 18
    systems = [
        LinearSystem(2, 1, [(1,)]),
        LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)]),
        LinearSystem(2, 3, [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]),
    ]
    paths = []
    for i, system in enumerate(systems):
        paths.append(str(files["tmp"] / f"sys{i}.json"))
        Path(paths[-1]).write_text(json.dumps(system.to_json_dict()))
    argv = ["interior", "--systems", *paths, "--p", "2", "--n", "1", "--trials", "3"]
    rc, out, err = run(argv + ["--budget", "101"], capsys)
    assert rc == 66 and out == ""
    diag = json.loads(err)
    assert diag["type"] == "budget" and (diag["cost"], diag["budget"]) == (102, 101)
    assert "boundary function needs 18 points, bringing the command to 102," in diag["error"]
    rc, out, _ = run(argv + ["--budget", "102"], capsys)
    assert rc == 0 and json.loads(out)["trials_run"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["fourier", "--format", "csv", "--budget", "1000"],
        ["decompose", "--degree", "1", "--delta", "0.01", "--budget", "100000"],
    ],
)
def test_budget_reaches_every_enumeration(files, capsys, monkeypatch, argv):
    # with a default budget below N = 16, --budget still covers the CSV
    # writer's digit table and the factor's value tables
    monkeypatch.setattr("fpuniform.config.DEFAULT_BUDGET", 8)
    rc, out, err = run(argv + ["--table", files["f24"]], capsys)
    assert rc == 0 and err == ""


def test_csv_flat_report(files, capsys):
    rc, out, _ = run(
        ["gowers", "--table", files["phase"], "--k", "2", "--format", "csv"], capsys
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert {"value", "mode", "seed", "inputs.table.sha256"} <= keys


def _cell(value) -> str:
    return json.dumps(value, separators=(",", ":"))


@pytest.mark.parametrize(
    "argv, pinned",
    [(["average", "--system", "{tri}", "--tables", "{f24}"],
      lambda rep: {"inputs.tables.0.sha256": rep["inputs"]["tables"][0]["sha256"],
                   "value": "[{!r},{!r}]".format(*rep["value"])}),
     (["system", "components", "--file", "{two}"],
      lambda rep: {"components.0": "[0]", "components.1": "[1]", "count": "2"}),
     (["decompose", "--table", "{f24}", "--degree", "2", "--delta", "0.25"],
      lambda rep: {"history": _cell(rep["history"]), "polynomials": _cell(rep["polynomials"])})],
    ids=["average", "components", "decompose"],
)
def test_csv_of_reports_that_hold_lists(files, capsys, argv, pinned):
    # a list that holds lists or objects becomes indexed keys, any other list
    # one JSON cell
    argv = [a.format(**files) for a in argv]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    expected = pinned(json.loads(out))
    rc, out, _ = run(argv + ["--format", "csv"], capsys)
    assert rc == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["key", "value"]
    keys = [key for key, _ in rows]
    assert keys == sorted(set(keys))
    assert not any(k.startswith(f"{j}.") for j in keys for k in keys)  # leaves only
    assert {key: dict(rows)[key] for key in expected} == expected


def test_out_writes_file(files, capsys):
    target = str(files["tmp"] / "report.json")
    rc, out, _ = run(
        ["gowers", "--table", files["phase"], "--k", "2", "--out", target], capsys
    )
    assert rc == 0 and out == ""
    rep = json.loads(open(target).read())
    assert rep["command"] == "gowers"


@pytest.mark.parametrize("target", ["absent/report.json", "."], ids=["no-directory", "directory"])
def test_unwritable_out_exit_2(files, capsys, target):
    target = str(files["tmp"] / target)
    rc, out, err = run(["fourier", "--table", files["phase"], "--out", target], capsys)
    assert (rc, out) == (2, "")
    diag = json.loads(err)  # one JSON object, no traceback
    assert diag["type"] == "validation" and target in diag["error"]


_GOWERS_KEYS = ["command", "cost", "inputs", "k", "mode", "n", "p", "path", "power",
                "samples", "seed", "stderr", "tolerance", "value"]
_AVERAGE_KEYS = ["abs", "command", "cost", "inputs", "mode", "path", "samples", "seed",
                 "stderr", "tolerance", "value"]
_TESTER_KEYS = ["acceptance", "action", "command", "inputs", "mode", "seed", "stderr",
                "symmetrized", "thresholds", "tolerance", "trials"]


@pytest.mark.parametrize(
    "argv,keys",
    [
        (["gowers", "--table", "{phase}", "--k", "3"], _GOWERS_KEYS),
        (["gowers", "--table", "{phase}", "--k", "3", "--mc", "50"], _GOWERS_KEYS),
        (["average", "--system", "{tri}", "--tables", "{f24}"], _AVERAGE_KEYS),
        (["distributional", "--table", "{F01}", "--system", "{tri}", "--beta", "1,1,1"],
         sorted(_AVERAGE_KEYS + ["beta"])),
        (["fourier", "--table", "{phase}"],
         ["coefficients", "command", "cost", "inputs", "mode", "n", "p", "seed", "tolerance"]),
        (["system", "complexity", "--file", "{ap4}"],
         ["action", "bound_only", "certificate", "command", "inputs", "kind", "mode", "seed",
          "tolerance", "value"]),
        (["system", "components", "--file", "{two}"],
         ["action", "command", "components", "count", "inputs", "mode", "seed", "tolerance"]),
        (["system", "isomorphism", "--file", "{tri}", "--other", "{tri}"],
         ["action", "command", "inputs", "isomorphic", "mapping", "mode", "seed", "tolerance"]),
        (["system", "product", "--file", "{flag_a}", "--other", "{flag_b}"],
         ["action", "command", "inputs", "mode", "product", "seed", "tolerance"]),
        (["decompose", "--table", "{f24}", "--degree", "2", "--delta", "0.25"],
         ["achieved_norm", "command", "complexity", "degree", "flagged", "history", "inputs",
          "mode", "polynomials", "rank_floor", "rank_meets_floor", "rounds", "seed", "target",
          "tolerance"]),
        (["rank", "--polys", "{poly}"],
         ["certificate", "command", "inputs", "kind", "mode", "refuted_up_to", "seed",
          "tolerance", "value"]),
        (["interior", "--systems", "{ap3}", "{two}", "--p", "3", "--n", "3"],
         ["command", "gram", "independent", "inputs", "min_singular_value", "mode", "seed",
          "tolerance", "trials_run", "witness"]),
        (["test", "uniformity", "--table", "{lin4}", "--degree", "1", "--samples", "300"],
         ["accept", "action", "command", "d", "estimate", "inputs", "mode", "points_queried",
          "queries_per_sample", "samples", "seed", "stderr", "threshold", "tolerance"]),
        (["test", "generic", "--table", "{lin4}", "--spec", "{spec}", "--exact"], _TESTER_KEYS),
        (["test", "symmetrize", "--table", "{lin4}", "--spec", "{spec}", "--trials", "30"],
         _TESTER_KEYS),
    ],
    ids=["gowers", "gowers-mc", "average", "distributional", "fourier", "complexity",
         "components", "isomorphism", "product", "decompose", "rank", "interior",
         "uniformity", "generic", "symmetrize"],
)
def test_report_keys_are_pinned(files, capsys, argv, keys):
    # a report is its result type's fields plus what the handler adds, so a
    # field added to a result type shows up in the report; these lists pin
    # each report's schema.  The mode is mc where the command samples, and
    # the tolerance follows from it and the stderr, but for the integer
    # results of system and rank
    rc, out, _ = run([a.format(**files) for a in argv], capsys)
    rep = json.loads(out)
    assert rc == 0 and sorted(rep) == keys
    sampled = {"--mc", "--trials", "uniformity", "interior"} & set(argv)
    assert rep["mode"] == ("mc" if sampled else "exact")
    if argv[0] in ("system", "rank"):
        tolerance = {"kind": "integer-exact", "value": 0}
    elif rep["mode"] == "exact":
        tolerance = {"kind": "float-rounding", "value": 1e-12}
    else:
        tolerance = {"kind": "mc-stderr", "value": rep.get("stderr")}
    assert rep["tolerance"] == tolerance


def test_decompose_command(files, capsys):
    rc, out, _ = run(
        ["decompose", "--table", files["f24"], "--degree", "2", "--delta", "0.25"],
        capsys,
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["flagged"] or rep["achieved_norm"] <= 0.25 + 1e-9
    assert rep["complexity"] == len(rep["polynomials"])
    assert rep["mode"] == "exact"


def test_decompose_rank_floor(files, capsys):
    rc, out, err = run(
        ["decompose", "--table", files["f24"], "--degree", "2", "--delta", "0.25",
         "--rank-floor", "1"],
        capsys,
    )
    assert rc == 0, err
    assert json.loads(out)["rank_floor"] == 1


def test_decompose_homogeneous_command(files, capsys):
    rc, out, err = run(
        ["decompose", "--table", files["f24"], "--degree", "2", "--delta", "0.25",
         "--homogeneous"],
        capsys,
    )
    assert rc == 0, err
    polys = json.loads(out)["polynomials"]
    assert polys
    assert all(Polynomial.from_text(2, 4, text).is_homogeneous() for text in polys)


def test_rank_command(files, capsys):
    rc, out, _ = run(["rank", "--polys", files["poly"]], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["value"] == 3 and rep["kind"] == "quadratic-closed-form"
    assert rep["refuted_up_to"] == 2 and "checks" not in rep


def test_rank_budget_ends_the_search(files, capsys):
    # x1x2x3 on F_2^4 (rank 2): its r = 1 conflict masks are charged
    # 2^11 · (16 + 28) = 90,112 for 11 monomials of degree <= 2 and 28
    # conflict pairs
    cubic = Polynomial(2, 4, {(1, 1, 1, 0): 1})
    path = files["tmp"] / "cubic.json"
    path.write_text(json.dumps(cubic.to_json_dict()))
    argv = ["rank", "--polys", str(path)]
    rc, out, err = run(argv + ["--budget", "90111"], capsys)
    assert rc == 0, err
    rep = json.loads(out)
    assert (rep["kind"], rep["value"], rep["refuted_up_to"]) == ("lower-bound-only", None, 0)
    rc, out, err = run(argv, capsys)
    assert rc == 0, err
    rep = json.loads(out)
    assert (rep["kind"], rep["value"], rep["refuted_up_to"]) == ("exact-exhaustive", 2, 1)
    assert rep["certificate"] is not None


def test_rank_on_a_space_past_the_budget(files, capsys):
    # x1x2x3 on F_2^25: the r = 1 masks are refused before the space is
    # enumerated, at the default budget and at a larger explicit one
    cubic = Polynomial(2, 25, {(1, 1, 1) + (0,) * 22: 1})
    path = files["tmp"] / "cubic25.json"
    path.write_text(json.dumps(cubic.to_json_dict()))
    for extra in ([], ["--budget", str(2**40)]):
        rc, out, err = run(["rank", "--polys", str(path)] + extra, capsys)
        assert rc == 0, err
        rep = json.loads(out)
        assert (rep["kind"], rep["value"], rep["refuted_up_to"]) == ("lower-bound-only", None, 0)


@pytest.mark.parametrize("huge", [10**7, 10**9])
def test_huge_rmax_and_rank_floor_on_affine_input(files, capsys, huge):
    x1 = Polynomial(2, 4, {(1, 0, 0, 0): 1})
    poly = files["tmp"] / "x1.json"
    poly.write_text(json.dumps(x1.to_json_dict()))
    table = files["tmp"] / "x1-phase.json"
    table.write_text(json.dumps(phase_table(x1).to_json_dict()))
    start = time.perf_counter()
    rc, out, err = run(["rank", "--polys", str(poly), "--rmax", str(huge)], capsys)
    assert rc == 0, err
    rep = json.loads(out)
    assert (rep["value"], rep["refuted_up_to"]) == (None, huge)
    rc, out, err = run(
        ["decompose", "--table", str(table), "--degree", "1", "--delta", "0.1",
         "--rank-floor", str(huge)],
        capsys,
    )
    assert rc == 0, err
    rep = json.loads(out)
    assert rep["polynomials"] and (rep["rank_floor"], rep["rank_meets_floor"]) == (huge, True)
    assert time.perf_counter() - start < 1.0


def test_test_commands(files, capsys):
    rc, out, _ = run(
        ["test", "uniformity", "--table", files["lin4"], "--degree", "1",
         "--samples", "300"],
        capsys,
    )
    rep = json.loads(out)
    assert rc == 0 and rep["estimate"] == 1.0 and rep["accept"]
    assert rep["queries_per_sample"] == 4
    rc, out, _ = run(
        ["test", "generic", "--table", files["lin4"], "--spec", files["spec"],
         "--exact"],
        capsys,
    )
    rep = json.loads(out)
    assert rc == 0 and rep["acceptance"] == 1.0 and rep["mode"] == "exact"
    rc, out, _ = run(
        ["test", "symmetrize", "--table", files["lin4"], "--spec", files["spec"],
         "--trials", "300", "--seed", "3"],
        capsys,
    )
    rep = json.loads(out)
    assert rc == 0 and rep["acceptance"] == 1.0 and rep["symmetrized"]
    # estimate mode without --trials
    rc, _, err = run(
        ["test", "generic", "--table", files["lin4"], "--spec", files["spec"]], capsys
    )
    assert rc == 2 and "trials" in err
    rc, _, err = run(["test", "generic", "--table", files["lin4"]], capsys)
    assert rc == 2 and "spec" in err


def test_interior_command(files, capsys):
    rc, out, _ = run(
        ["interior", "--systems", files["ap3"], files["two"], "--p", "3", "--n", "3"],
        capsys,
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["independent"] and rep["trials_run"] == 1
    assert rep["min_singular_value"] == pytest.approx(0.004854778246066949)
    assert len(rep["witness"]) == 27
    rc, out, err = run(
        ["interior", "--systems", files["ap3"], "--p", "3", "--n", "3", "--trials", "0"],
        capsys,
    )
    assert rc == 2 and out == "" and "trials" in json.loads(err)["error"]
    # 3^40 table values are refused before any is drawn
    rc, out, err = run(["interior", "--systems", files["ap3"], "--p", "3", "--n", "40"], capsys)
    assert rc == 66 and json.loads(err)["cost"] == 3**40


def test_interior_huge_n_refused_without_building_p_to_the_n(files, capsys):
    # 2^(10^10) would take gigabytes to build; n alone is enough to refuse it
    start = time.perf_counter()
    rc, out, err = run(
        ["interior", "--systems", files["tri"], "--p", "2", "--n", "10000000000"], capsys
    )
    assert time.perf_counter() - start < 2
    assert rc == 66 and out == ""
    diag = json.loads(err)  # one JSON object
    assert diag["type"] == "budget" and diag["cost"] > diag["budget"]


def test_distributional_command(files, capsys):
    rc, out, _ = run(
        ["distributional", "--table", files["F01"], "--system", files["tri"],
         "--beta", "1,1,1"],
        capsys,
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["beta"] == [1, 1, 1] and rep["mode"] == "exact"
    # one a_1 table for the three equal exponents, so one transform
    assert rep["path"] == "dual" and rep["cost"] == 16 + 16
    assert rep["abs"] == pytest.approx(
        abs(complex(rep["value"][0], rep["value"][1]))
    )
    rc, _, err = run(
        ["distributional", "--table", files["F01"], "--system", files["tri"],
         "--beta", "1,x,1"],
        capsys,
    )
    assert rc == 2 and "beta" in err


@pytest.mark.parametrize(
    "beta,code",
    [("nan,1,1", 2), ("inf,1,1", 2), ("1e400,1,1", 2), ("1.5,1,1", 2), ("1,1", 2),
     ("1,,1", 2), ("-1,-1,-1", 0), ("0,0,0", 0), (",".join([str(10**35)] * 3), 0), ("2,2,2", 0)],
    ids=["nan", "inf", "1e400", "1.5", "length", "empty-entry", "negative", "zero",
         "1e35", "two"],
)
def test_distributional_beta_exit_codes(files, capsys, beta, code):
    # beta is a list of integers, one per form of {x, y, x+y}: a float, a
    # non-finite or a missing entry exits 2 with one JSON diagnostic, and any
    # integer, however large or negative, is accepted.  "--beta X" and
    # "--beta=X" give the same output, also where X starts with "-", which
    # argparse alone would read as an option
    argv = ["distributional", "--table", files["F01"], "--system", files["tri"]]
    rc, out, err = run(argv + [f"--beta={beta}"], capsys)
    assert rc == code
    if code:
        assert out == "" and json.loads(err)["type"] == "validation"
    else:
        assert err == "" and len(json.loads(out)["beta"]) == 3
    assert run(argv + ["--beta", beta], capsys) == (rc, out, err)


# ---------------------------------------------------------------- exit codes

#: every command with its help line and its own flags; each also takes
#: --seed, --budget, --out, --format and --help
CLI_COMMANDS = {
    "gowers": ("U^k norm of a function table", ["--table", "--k", "--mc", "--exact"]),
    "average": ("t_L average over a linear-form system",
                ["--system", "--tables", "--conjugations", "--mc", "--exact"]),
    "system": ("complexity / isomorphism / components / product",
               ["--file", "--other", "--kind"]),
    "fourier": ("full Fourier spectrum of a table", ["--table"]),
    "decompose": ("degree-d factor + small-norm residual split",
                  ["--table", "--degree", "--delta", "--rank-floor", "--homogeneous"]),
    "rank": ("rank of a polynomial collection", ["--polys", "--rmax"]),
    "test": ("uniformity / generic / symmetrize testers",
             ["--table", "--spec", "--degree", "--samples", "--threshold", "--trials",
              "--exact"]),
    "interior": ("boundary-function independence experiment",
                 ["--systems", "--p", "--n", "--trials"]),
    "distributional": ("t* average of a lifted [0,1] table",
                       ["--table", "--system", "--beta", "--mc", "--exact"]),
}


def help_text(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_command_with_its_summary(capsys):
    out = help_text(["-h"], capsys)
    listed = re.findall(r"^    (\w+) +(.+)$", out, re.M)
    assert listed == [(name, summary) for name, (summary, _) in CLI_COMMANDS.items()]


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_command_help_lists_its_flags(capsys, command):
    # the parser adds only the run command's arguments, and all of them
    flags = set(re.findall(r"--[a-z-]+", help_text([command, "-h"], capsys)))
    common = {"--seed", "--budget", "--out", "--format", "--help"}
    assert flags == {*CLI_COMMANDS[command][1], *common}


def test_parser_builds_the_arguments_of_the_run_command_only():
    [subs] = [a for a in _build_parser("fourier")._actions if a.dest == "command"]
    built = [name for name, sub in subs.choices.items() if len(sub._actions) > 1]  # beyond -h
    assert built == ["fourier"]


def test_unknown_command_exit_64(capsys):
    [subs] = [a for a in _build_parser()._actions if a.dest == "command"]
    assert list(subs.choices) == list(CLI_COMMANDS)
    rc, _, err = run(["frobnicate"], capsys)
    assert rc == 64 and json.loads(err)["commands"] == sorted(subs.choices)
    rc, _, err = run([], capsys)
    assert rc == 64 and json.loads(err)["commands"] == sorted(subs.choices)


def test_malformed_input_exit_65(files, capsys):
    bad = files["tmp"] / "bad.json"
    bad.write_text("{nope")
    rc, _, err = run(["gowers", "--table", str(bad), "--k", "2"], capsys)
    assert rc == 65 and "JSON" in err
    # an integer too long for Python to read from text is malformed JSON too
    bad.write_text('{"p": ' + "9" * 5000 + "}")
    rc, _, err = run(["gowers", "--table", str(bad), "--k", "2"], capsys)
    assert rc == 65 and "JSON" in json.loads(err)["error"]
    rc, _, err = run(
        ["gowers", "--table", str(files["tmp"] / "absent.json"), "--k", "2"], capsys
    )
    assert rc == 65 and "cannot read" in err
    # a structurally wrong file carries a JSON pointer
    rc, _, err = run(["gowers", "--table", files["tri"], "--k", "2"], capsys)
    assert rc == 65 and json.loads(err)["pointer"] == "/n"


def test_validation_exit_2(files, capsys):
    rc, _, err = run(["gowers", "--table", files["phase"], "--k", "0"], capsys)
    assert rc == 2 and json.loads(err)["type"] == "validation"
    rc, _, err = run(
        ["gowers", "--table", files["phase"], "--k", "2", "--mc", "10", "--exact"],
        capsys,
    )
    assert rc == 2 and "exclusive" in err
    table = ["gowers", "--table", files["phase"], "--k", "2"]
    system = ["--file", files["flag_a"]]
    for argv, message in [
        (table + ["--mc", "0"], "--mc needs a positive sample count"),
        (table + ["--mc", "-1"], "--mc needs a positive sample count"),
        (["system", "isomorphism"] + system, "isomorphism needs --other"),
        (["system", "product"] + system, "product needs --other"),
    ]:
        rc, out, err = run(argv, capsys)
        assert (rc, out) == (2, "")
        assert json.loads(err) == {"type": "validation", "error": message}


def test_non_finite_table_exit_65(files, capsys):
    path = files["tmp"] / "nan.json"
    obj = FunctionTable.constant(2, 2, 1.0).to_json_dict()
    obj["values"][1] = float("nan")
    path.write_text(json.dumps(obj))
    rc, out, err = run(["gowers", "--table", str(path), "--k", "2"], capsys)
    assert rc == 65 and out == ""
    assert json.loads(err)["pointer"] == "/values"


@pytest.mark.parametrize(
    "argv",
    [["gowers", "--k", "1"], ["gowers", "--k", "3"], ["gowers", "--k", "2", "--mc", "10"],
     ["fourier"]],
)
def test_non_finite_result_exit_2(files, capsys, argv):
    path = files["tmp"] / "huge.json"
    path.write_text(json.dumps(FunctionTable.constant(2, 2, 1e308).to_json_dict()))
    rc, out, err = run(argv[:1] + ["--table", str(path)] + argv[1:], capsys)
    assert rc == 2 and out == ""
    assert json.loads(err)["type"] == "validation"  # stderr is one JSON object


def test_retry_limit_exit_70(files, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RetryLimitError("no invertible draw in 1000 attempts")

    monkeypatch.setattr("fpuniform.analysis.gowers_norm", broken)
    rc, out, err = run(["gowers", "--table", files["phase"], "--k", "2"], capsys)
    assert rc == 70 and out == ""
    assert json.loads(err)["type"] == "internal"


def loaded_modules(files, argv, names) -> list[str]:
    """The modules among `names` (last dotted part) that a fresh interpreter
    has loaded after running the command `argv`."""
    script = (
        "import json, sys\n"
        "from fpuniform.cli import main\n"
        f"assert main({[a.format(**files) for a in argv]!r}) == 0\n"
        f"loaded = {set(names)!r} & {{m.split('.')[-1] for m in sys.modules}}\n"
        "sys.stderr.write(json.dumps(sorted(loaded)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr)


@pytest.mark.parametrize(
    "argv",
    [["fourier", "--table", "{phase}"],
     ["gowers", "--table", "{phase}", "--k", "3"],
     ["average", "--system", "{tri}", "--tables", "{f24}"],
     ["system", "components", "--file", "{tri}"],
     ["rank", "--polys", "{poly}"],
     ["decompose", "--table", "{f24}", "--degree", "1", "--delta", "0.5"]],
    ids=["fourier", "gowers", "average", "components", "rank", "decompose"],
)
def test_exact_commands_do_not_load_openssl(files, argv):
    # input digests use the interpreter's SHA-256, so `_hashlib` (OpenSSL's
    # libcrypto) never loads
    assert loaded_modules(files, argv, ["_hashlib"]) == []


#: every command that draws random numbers, and so imports numpy.random
DRAWING_COMMANDS = {
    "gowers": ["gowers", "--table", "{phase}", "--k", "3", "--mc", "50", "--seed", "2"],
    "average": ["average", "--system", "{tri}", "--tables", "{f24}", "--mc", "50"],
    "distributional": [
        "distributional", "--table", "{F01}", "--system", "{tri}", "--beta", "1,1,1",
        "--mc", "50",
    ],
    "uniformity": ["test", "uniformity", "--table", "{lin4}", "--seed", "3"],
    "generic": ["test", "generic", "--table", "{lin4}", "--spec", "{spec}", "--trials", "30"],
    "symmetrize": [
        "test", "symmetrize", "--table", "{lin4}", "--spec", "{spec}", "--trials", "30",
    ],
    "interior": ["interior", "--systems", "{ap3}", "{two}", "--p", "3", "--n", "3"],
}


def program_run(files, argv, launch: str) -> tuple[int | None, str, set[str]]:
    """(exit code, stdout, the names of the modules loaded) of `launch` run in
    a fresh interpreter with `argv` as its command line; the exit code is None
    where `launch` does not exit.  A module marked missing, as `_hashlib` is
    by the program, is not loaded."""
    script = (
        "import json, runpy, sys\n"
        f"sys.argv = ['fpuniform', *{[a.format(**files) for a in argv]!r}]\n"
        "code = None\n"
        "try:\n"
        f"    {launch}\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.stdout.flush()\n"
        "loaded = sorted(name for name, module in sys.modules.items() if module)\n"
        "sys.stderr.write(json.dumps([code, loaded]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stderr)
    return code, done.stdout, set(loaded)


#: how `python -m fpuniform.cli` runs the program
AS_PROGRAM = 'runpy.run_module("fpuniform.cli", run_name="__main__")'


@pytest.mark.parametrize("argv", DRAWING_COMMANDS.values(), ids=DRAWING_COMMANDS.keys())
def test_drawing_commands_run_as_the_program_do_not_load_openssl(files, capsys, argv):
    # `python -m fpuniform.cli` marks `_hashlib` missing before numpy.random
    # imports `secrets`; the seeded report is the one `main` gives in-process
    code, out, loaded = program_run(files, argv, AS_PROGRAM)
    assert (code, "_hashlib" in loaded) == (0, False)
    assert run([a.format(**files) for a in argv], capsys)[:2] == (0, out)


def test_the_console_script_does_not_load_openssl(files, capsys):
    # the `fpuniform` script of pyproject.toml calls cli.entry_point
    argv = DRAWING_COMMANDS["gowers"]
    launch = "from fpuniform.cli import entry_point; sys.exit(entry_point())"
    code, out, loaded = program_run(files, argv, launch)
    assert (code, "_hashlib" in loaded) == (0, False)
    assert run([a.format(**files) for a in argv], capsys)[:2] == (0, out)


def test_the_program_keeps_an_openssl_already_loaded(files):
    launch = "import hashlib; " + AS_PROGRAM
    code, _, loaded = program_run(files, DRAWING_COMMANDS["gowers"], launch)
    assert (code, "_hashlib" in loaded) == (0, True)


def test_in_process_main_leaves_hashlib_alone(files):
    # only the program's own process goes without OpenSSL; `main` called from
    # other code imports numpy.random as numpy does
    launch = "from fpuniform.cli import main; sys.exit(main(sys.argv[1:]))"
    code, _, loaded = program_run(files, DRAWING_COMMANDS["gowers"], launch)
    assert (code, "_hashlib" in loaded) == (0, True)


def test_library_draws_leave_hashlib_alone(files):
    launch = "from fpuniform.tables import random_unit_table; random_unit_table(2, 3, seed=1)"
    code, _, loaded = program_run(files, [], launch)
    assert (code, "_hashlib" in loaded) == (None, True)


#: the package modules every command loads: the CLI's own imports
BASE_MODULES = {"errors", "config", "rng", "field", "linalg"}

#: the analysis commands, and the modules each loads besides BASE_MODULES
ANALYSIS_MODULES = {
    "fourier": (["fourier", "--table", "{phase}"], {"tables", "analysis"}),
    "gowers": (["gowers", "--table", "{phase}", "--k", "3", "--mc", "50"],
               {"tables", "analysis", "linear_forms"}),
    "average": (["average", "--system", "{tri}", "--tables", "{f24}"],
                {"tables", "analysis", "linear_forms"}),
    "gowers-exact": (["gowers", "--table", "{phase}", "--k", "3"], {"tables", "analysis"}),
}

_TESTER_MODULES = {"tables", "analysis", "linear_forms", "testers"}

#: every other command, and the modules each loads besides BASE_MODULES
OTHER_MODULES = {
    # delta 0.3 takes one round, so the factor is refined and its atoms counted
    "decompose": (["decompose", "--table", "{f24}", "--degree", "1", "--delta", "0.3"],
                  {"tables", "analysis", "polynomials", "factors"}),
    "decompose-rank-floor": (
        ["decompose", "--table", "{f24}", "--degree", "2", "--delta", "0.25",
         "--rank-floor", "2"],
        {"tables", "analysis", "polynomials", "factors", "polyrank"},
    ),
    **{name: (argv, _TESTER_MODULES) for name, argv in DRAWING_COMMANDS.items()
       if name not in ANALYSIS_MODULES},
    "generic-exact": (["test", "generic", "--table", "{lin4}", "--spec", "{spec}", "--exact"],
                      _TESTER_MODULES),
    "components": (["system", "components", "--file", "{tri}"], {"linear_forms"}),
    "rank": (["rank", "--polys", "{poly}"], {"polynomials", "polyrank"}),
}


def check_loaded_modules(files, argv, modules) -> None:
    """Run as the program, `argv` loads the package modules BASE_MODULES |
    `modules` and no others, `csv` only when it writes CSV, and never
    `numpy.ma` (a plain np.unique imports it)."""
    for fmt in ("json", "csv"):
        code, _, loaded = program_run(files, argv + ["--format", fmt], AS_PROGRAM)
        assert code == 0
        package = {name.split(".")[1] for name in loaded if name.startswith("fpuniform.")}
        assert package == BASE_MODULES | modules
        assert ("csv" in loaded) == (fmt == "csv")
        assert "numpy.ma" not in loaded


@pytest.mark.parametrize(
    "argv,modules", ANALYSIS_MODULES.values(), ids=ANALYSIS_MODULES.keys()
)
def test_analysis_commands_do_not_import_testers_factors_or_polyrank(files, argv, modules):
    # each handler imports what it uses, and analysis imports linear_forms and
    # polynomials only in the functions that run them
    check_loaded_modules(files, argv, modules)


@pytest.mark.parametrize("argv,modules", OTHER_MODULES.values(), ids=OTHER_MODULES.keys())
def test_other_commands_load_only_the_modules_they_run(files, argv, modules):
    check_loaded_modules(files, argv, modules)


def test_sampled_command_digests_its_inputs(files, capsys):
    rc, out, _ = run(
        ["average", "--system", files["tri"], "--tables", files["f24"], "--mc", "50"], capsys
    )
    assert rc == 0
    inputs = json.loads(out)["inputs"]
    for meta in [inputs["system"], *inputs["tables"]]:
        with open(meta["path"], "rb") as fh:
            assert meta["sha256"] == hashlib.sha256(fh.read()).hexdigest()


def test_budget_exceeded_exit_66(files, capsys):
    # exact U^4 on F_2^4 costs C(17, 2) * 16 = 2176 points, one row per orbit
    rc, _, err = run(
        ["gowers", "--table", files["big"], "--k", "4", "--budget", "1000"], capsys
    )
    assert rc == 66
    diag = json.loads(err)
    assert diag["type"] == "budget" and "--mc" in diag["hint"]
    # the suggested fallback works within the same budget: 50 samples of the
    # 16 cube forms are 800 points, while 200 samples (3200 points) are refused
    rc, out, _ = run(
        ["gowers", "--table", files["big"], "--k", "4", "--budget", "1000",
         "--mc", "50"],
        capsys,
    )
    assert rc == 0 and json.loads(out)["value"] == pytest.approx(1.0)
    assert json.loads(out)["cost"] == 800
    rc, out, err = run(
        ["gowers", "--table", files["big"], "--k", "4", "--budget", "1000",
         "--mc", "200"],
        capsys,
    )
    assert rc == 66 and out == ""
    diag = json.loads(err)
    assert diag["cost"] == 3200 and "hint" not in diag


@pytest.mark.parametrize(
    "argv, cost",
    [
        (["gowers", "--k", "64", "--mc", "10"], 2**64),
        (["test", "uniformity", "--degree", "63", "--samples", "10"], 2**64),
        (["gowers", "--k", "4", "--mc", "10", "--budget", "8"], 16),
        (["test", "uniformity", "--degree", "3", "--samples", "10", "--budget", "8"], 16),
    ],
)
def test_cube_system_over_budget_exit_66(files, capsys, argv, cost):
    # the 2^k cube forms are charged against the budget before any is built
    rc, out, err = run(argv + ["--table", files["lin4"]], capsys)
    assert rc == 66 and out == ""
    diag = json.loads(err)
    assert diag["type"] == "budget" and diag["cost"] == cost


@pytest.mark.parametrize(
    "argv, per_draw",
    [
        (["gowers", "--k", "4", "--mc"], 16),
        (["average", "--system", "tri", "--mc"], 3),
        (["distributional", "--system", "tri", "--beta", "1,1,1", "--mc"], 3),
        (["test", "uniformity", "--degree", "2", "--samples"], 8),
        (["test", "generic", "--spec", "spec12", "--trials"], 4),
        (["test", "symmetrize", "--spec", "spec12", "--trials"], 4),
    ],
)
def test_sample_count_is_charged_before_drawing(files, capsys, argv, per_draw):
    # samples (or trials) times the points each reads are checked against the
    # budget before the first draw, so a huge count exits 66 at once on a
    # 4,096-point table, and the hint never suggests the --mc already given
    tmp = files["tmp"]
    path = tmp / "t12.json"
    path.write_text(json.dumps(FunctionTable(2, 12, np.arange(4096) % 2, "real").to_json_dict()))
    (tmp / "spec12.json").write_text(json.dumps(uniformity_tester_spec(2, 12, 1).to_json_dict()))
    files = {**files, "spec12": str(tmp / "spec12.json")}
    argv = [files.get(a, a) for a in argv]
    table_flag = "--tables" if argv[0] == "average" else "--table"
    # 10^5 draws fit the default budget, so only the explicit one refuses them
    refused = ((10**22, []), (10**8, ["--budget", "1000"]), (10**5, ["--budget", "1000"]))
    for count, budget in refused:
        start = time.perf_counter()
        rc, out, err = run(argv + [str(count), table_flag, str(path)] + budget, capsys)
        assert time.perf_counter() - start < 1.0
        assert rc == 66 and out == ""
        diag = json.loads(err)
        assert diag["type"] == "budget" and "hint" not in diag
        assert diag["cost"] == reported_count(count * per_draw)
    rc, out, _ = run(argv + ["250", table_flag, str(path), "--budget", str(250 * per_draw)], capsys)
    assert rc == 0


def test_gowers_reports_its_path(files, capsys):
    # U^3 on F_2^4 runs one shift y per orbit: C(16, 1) = 16 rows of 16 points
    rc, out, _ = run(["gowers", "--table", files["lin4"], "--k", "3"], capsys)
    rep = json.loads(out)
    assert rc == 0 and rep["path"] == "orbit" and rep["cost"] == 16 * 16
    rc, out, _ = run(["gowers", "--table", files["lin4"], "--k", "3", "--mc", "50"], capsys)
    assert rc == 0 and json.loads(out)["path"] == "sampled"


@pytest.mark.parametrize(
    "argv",
    [
        ["gowers", "--k", "100000"],
        ["test", "uniformity", "--degree", "1000000", "--samples", "10"],
    ],
)
def test_huge_cost_is_a_lower_bound(files, capsys, argv):
    # a cost of hundreds of thousands of digits is refused quickly and never
    # formatted: messages and JSON give the bound ">2^64"
    start = time.perf_counter()
    rc, out, err = run(argv + ["--table", files["lin4"]], capsys)
    assert time.perf_counter() - start < 1.0
    assert rc == 66 and out == ""
    diag = json.loads(err)
    assert diag["type"] == "budget" and diag["cost"] == ">2^64"
    assert "needs >2^64 points" in diag["error"]


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--mc", "10", "--seed", "-1"], "--seed"),
        (["--budget", "0"], "--budget"),
        (["--budget", "-5"], "--budget"),
    ],
)
def test_seed_and_budget_out_of_range_exit_64(files, capsys, flags, name):
    rc, out, err = run(["gowers", "--table", files["lin4"], "--k", "3"] + flags, capsys)
    assert rc == 64 and out == ""
    diag = json.loads(err)
    assert diag["type"] == "usage" and name in diag["error"]


def test_budget_hint_only_without_mc(files, capsys):
    # the refused cost is the cube system's 2^64 forms, which --mc cannot avoid
    rc, out, err = run(["gowers", "--table", files["lin4"], "--mc", "10", "--k", "64"], capsys)
    assert rc == 66 and out == ""
    assert "hint" not in json.loads(err)
    rc, _, err = run(
        ["average", "--system", files["tri"], "--tables", files["f24"], "--budget", "8"],
        capsys,
    )
    assert rc == 66 and "--mc" in json.loads(err)["hint"]


def test_decompose_homogeneous_over_budget_exit_66(files, capsys):
    # on F_2^4 the homogeneous family costs 16 (linear forms) + 2^6 * 16
    # (quadratics) = 1040 points; each part alone fits in 1030, the whole does not
    rc, out, err = run(
        ["decompose", "--table", files["f24"], "--degree", "2", "--delta", "0.25",
         "--homogeneous", "--budget", "1030"],
        capsys,
    )
    assert rc == 66 and out == ""
    diag = json.loads(err)
    assert diag["type"] == "budget" and diag["cost"] == 1040
    assert "hint" not in diag


@pytest.mark.parametrize(
    "argv, name",
    [
        (["decompose", "--degree", "2", "--delta", "nan"], "delta"),
        (["decompose", "--degree", "2", "--delta", "inf"], "delta"),
        (["test", "uniformity", "--threshold", "nan"], "threshold"),
        (["test", "uniformity", "--threshold", "inf"], "threshold"),
        (["test", "uniformity", "--threshold=-inf"], "threshold"),
    ],
)
def test_non_finite_parameter_exit_2(files, capsys, argv, name):
    # the parameter is refused up front, not blamed on the table at output time
    rc, out, err = run(argv + ["--table", files["lin4"]], capsys)
    assert rc == 2 and out == ""
    diag = json.loads(err)
    assert diag["type"] == "validation" and name in diag["error"]


def test_missing_required_flag_exits_2(files):
    with pytest.raises(SystemExit) as exc:
        main(["gowers", "--table", files["phase"]])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["distributional", "--table", "{F01}", "--system", "{tri}", "--bet=1,1,1"],
        ["distributional", "--table", "{F01}", "--system", "{tri}", "--bet", "-1,-1,-1"],
        ["average", "--system", "{tri}", "--table", "{lin4}"],
        ["decompose", "--table", "{f24}", "--degree", "1", "--delta", "0.5", "--rank", "1"],
        ["test", "uniformity", "--table", "{lin4}", "--thresh", "0.5"],
    ],
    ids=["bet=", "bet-negative", "average-table", "decompose-rank", "test-thresh"],
)
def test_abbreviated_flags_exit_2(files, argv):
    # every flag is spelled in full, so a prefix is refused however its value
    # is written; test_distributional_beta_exit_codes pins that "--beta X"
    # and "--beta=X" keep one report
    with pytest.raises(SystemExit) as exc:
        main([a.format(**files) for a in argv])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "extra", [["--exact"], ["--trials", "10"], ["--spec", "{spec}"]], ids=lambda e: e[0]
)
def test_uniformity_refuses_flags_it_does_not_use(files, capsys, extra):
    # --exact, --trials and --spec belong to generic and symmetrize testers;
    # test uniformity refuses them instead of running a sampled test anyway
    argv = ["test", "uniformity", "--table", files["lin4"], "--samples", "50"]
    rc, out, err = run(argv + [e.format(**files) for e in extra], capsys)
    assert rc == 2 and out == ""
    diag = json.loads(err)
    assert diag["type"] == "validation" and extra[0] in diag["error"]
    assert run(argv, capsys)[0] == 0


@pytest.mark.parametrize("action", ["generic", "symmetrize"])
@pytest.mark.parametrize(
    "extra", [["--degree", "7"], ["--samples", "5"], ["--threshold", "0.9"]],
    ids=lambda e: e[0],
)
def test_spec_testers_refuse_uniformity_flags(files, capsys, action, extra):
    # --degree, --samples and --threshold belong to test uniformity; the spec
    # testers refuse them instead of ignoring them
    argv = ["test", action, "--table", files["lin4"], "--spec", files["spec"], "--exact"]
    rc, out, err = run(argv + extra, capsys)
    assert rc == 2 and out == ""
    diag = json.loads(err)
    assert diag["type"] == "validation" and extra[0] in diag["error"]
    assert run(argv, capsys)[0] == 0


def test_uniformity_defaults_apply_when_flags_are_left_out(files, capsys):
    argv = ["test", "uniformity", "--table", files["lin4"]]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    rep = json.loads(out)
    assert (rep["d"], rep["samples"], rep["threshold"]) == (1, 1000, 0.5)
    defaults = ["--degree", "1", "--samples", "1000", "--threshold", "0.5"]
    assert run(argv + defaults, capsys)[:2] == (0, out)


@pytest.mark.parametrize(
    "bad", ["0.5", None, [0.5], [0.5, 0.0, 0.0], [0.5, [0.0]]],
    ids=["string", "null", "short-pair", "long-pair", "ragged"],
)
def test_malformed_table_value_exits_65_at_its_pointer(files, capsys, bad):
    values = [[1.0, 0.0], [0.5, 0.0], bad, [1.0, 0.0]]
    path = files["tmp"] / "bad.json"
    path.write_text(json.dumps({"schema": "fpuniform/v1", "p": 2, "n": 2, "values": values}))
    rc, out, err = run(["fourier", "--table", str(path)], capsys)
    assert rc == 65 and out == ""
    assert json.loads(err)["pointer"] == "/values/2"


# ------------------------------------------------------- malformed input fields

VALID_INPUTS = {
    "table": FunctionTable(2, 2, [0.0, 1.0, 1.0, 0.0], codomain="real").to_json_dict(),
    "system": LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)]).to_json_dict(),
    "flagged": FlaggedSystem(2, 2, [(1, 0), (0, 1)], (1, 1)).to_json_dict(),
    "poly": Polynomial(2, 2, {(1, 1): 1}).to_json_dict(),
    "spec": {
        **uniformity_tester_spec(2, 2, 1).to_json_dict(), "epsilon": 0.5, "delta": 0.25,
    },
}

# each kind's input goes to the command in place of INPUT; `valid.json` is
# the valid table, field-valued so that testers can read it
COMMANDS = {
    "table": ["gowers", "--table", "INPUT", "--k", "2"],
    "system": ["average", "--system", "INPUT", "--tables", "valid.json"],
    "flagged": ["average", "--system", "INPUT", "--tables", "valid.json"],
    "poly": ["rank", "--polys", "INPUT"],
    "spec": ["test", "generic", "--table", "valid.json", "--spec", "INPUT", "--exact"],
}


def run_with_field(tmp_path, capsys, kind, path, value):
    """Run kind's command on its valid input with the field at `path` (a
    tuple of keys and indices) replaced by `value`."""
    obj = json.loads(json.dumps(VALID_INPUTS[kind]))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    (tmp_path / "input.json").write_text(json.dumps(obj))
    (tmp_path / "valid.json").write_text(json.dumps(VALID_INPUTS["table"]))
    paths = {"INPUT": str(tmp_path / "input.json"), "valid.json": str(tmp_path / "valid.json")}
    argv = [paths.get(a, a) for a in COMMANDS[kind]]
    return run(argv + ["--budget", "4096"], capsys)


@pytest.mark.parametrize(
    "kind, path, value",
    [
        ("table", ("p",), "x"),
        ("table", ("p",), None),
        ("system", ("k",), "a"),
        ("system", ("forms",), None),
        ("system", ("forms",), [[1, [0]]]),
        ("system", ("forms",), []),
        ("flagged", ("flag",), "x"),
        ("flagged", ("multiplicities",), 3),
        ("flagged", ("multiplicities",), ["a"]),
        ("poly", ("p",), "a"),
        ("poly", ("n",), "a"),
        ("spec", ("q",), "a"),
        ("spec", ("thresholds",), [0]),
        ("spec", ("support", 0, "points"), "ab"),
        ("spec", ("support", 0, "prob"), "a"),
        ("spec", ("decision_table",), ["a", "b"]),
        ("spec", ("epsilon",), "a"),
        # a string is not read character by character as a list of integers
        ("system", ("forms",), ["10", "01", "11"]),
        ("flagged", ("flag",), "10"),
        ("flagged", ("multiplicities",), "12"),
        ("poly", ("terms", 0, "exps"), "11"),
    ],
)
def test_wrong_field_type_exit_65(tmp_path, capsys, kind, path, value):
    rc, out, err = run_with_field(tmp_path, capsys, kind, path, value)
    assert rc == 65 and out == ""
    assert json.loads(err)["type"] == "format"


@pytest.mark.parametrize(
    "kind, path, value, pointer",
    [
        ("table", ("p",), 2.9, "/p"),
        ("table", ("n",), 1.5, "/n"),
        ("system", ("p",), 3.7, "/p"),
        ("system", ("k",), 2.2, "/k"),
        ("system", ("forms", 0, 0), 1.5, "/forms"),
        ("flagged", ("flag", 1), 0.5, "/forms"),
        ("flagged", ("multiplicities", 0), 1.5, "/forms"),
        ("poly", ("n",), 2.5, "/n"),
        ("poly", ("terms", 0, "exps", 0), 1.9, "/terms/0"),
        ("poly", ("terms", 0, "coeff"), 1.5, "/terms/0"),
        ("spec", ("q",), 4.5, "/q"),
        ("spec", ("support", 0, "points", 1, 0), 0.5, "/support/0"),
    ],
)
def test_fractional_integer_field_exit_65(tmp_path, capsys, kind, path, value, pointer):
    # an integer field with a fraction is refused at its pointer, not truncated
    rc, out, err = run_with_field(tmp_path, capsys, kind, path, value)
    assert (rc, out) == (65, "")
    diag = json.loads(err)
    assert diag["type"] == "format" and diag["pointer"] == pointer
    assert str(value) in diag["error"]


HUGE = 2305843009213693951  # far above the prime cap; never trial-divided


@pytest.mark.parametrize(
    "kind, key, value, pointer",
    [
        ("table", "p", HUGE, "/p"),
        ("table", "p", 4, "/p"),
        ("table", "n", 0, "/n"),
        ("table", "values", [0.0, 1.0], "/values"),
        ("system", "p", HUGE, "/p"),
        ("system", "k", 0, "/k"),
        ("system", "forms", [[1, 0], [1, 0]], "/forms"),
        ("flagged", "p", HUGE, "/p"),
        ("flagged", "k", -1, "/k"),
        ("poly", "p", HUGE, "/p"),
        ("poly", "n", 0, "/n"),
        ("spec", "p", 4, "/p"),
        ("spec", "p", HUGE, "/p"),
    ],
)
def test_format_error_points_at_its_field(tmp_path, capsys, kind, key, value, pointer):
    rc, out, err = run_with_field(tmp_path, capsys, kind, (key,), value)
    assert rc == 65 and out == ""
    diag = json.loads(err)
    assert diag["type"] == "format" and diag["pointer"] == pointer


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def field_paths(obj, path=()) -> list[tuple]:
    """The path of keys and indices to every field nested in `obj`, such as
    ("forms", 1, 0) for the second entry of a system's second form."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return []
    return [q for key, value in items for q in [(*path, key), *field_paths(value, (*path, key))]]


def test_field_paths_reach_every_nesting_level():
    paths = {kind: set(field_paths(obj)) for kind, obj in VALID_INPUTS.items()}
    assert {("values",), ("values", 3, 1)} < paths["table"]
    assert ("forms", 2, 1) in paths["system"]
    assert {("forms", 1, 0), ("flag", 1), ("multiplicities", 0)} < paths["flagged"]
    assert {("terms", 0, "exps", 1), ("terms", 0, "coeff")} < paths["poly"]
    assert {("support", 0, "points", 3, 1), ("support", 0, "prob"), ("decision_table", 15),
            ("thresholds", 1), ("epsilon",)} < paths["spec"]


@given(data=st.data())
@settings(
    max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_field_value_keeps_the_exit_code_contract(tmp_path, capsys, data):
    # any field at any depth: a top-level key, a form's entry, a polynomial
    # term's exponent, a support point's coordinate, a decision-table entry
    kind = data.draw(st.sampled_from(sorted(VALID_INPUTS)))
    path = data.draw(st.sampled_from(field_paths(VALID_INPUTS[kind])))
    rc, _, err = run_with_field(tmp_path, capsys, kind, path, data.draw(JSON_VALUES))
    assert rc in (0, 2, 64, 65, 66, 70)
    for line in err.splitlines():
        assert isinstance(json.loads(line), dict)
