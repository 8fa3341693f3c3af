import hashlib
import json

import numpy as np
import pytest

from fpuniform import cli
from fpuniform.cli import main
from fpuniform.errors import RetryLimitError
from fpuniform.linear_forms import (
    FlaggedSystem,
    LinearSystem,
    arithmetic_progression_system,
)
from fpuniform.polynomials import Polynomial
from fpuniform.tables import FunctionTable, phase_table, random_real_table
from fpuniform.testers import uniformity_tester_spec


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
    assert rep["seed"] == 0
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
    rc, out, _ = run(
        [
            "average", "--system", files["tri"], "--tables", files["f24"],
            "--conjugations", "1,0,1",
        ],
        capsys,
    )
    assert rc == 0  # conjugating a real table changes nothing
    assert json.loads(out)["value"] == pytest.approx(rep["value"])


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
    assert rc == 0 and rep["decided"] and rep["isomorphic"]
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


def test_csv_flat_report(files, capsys):
    rc, out, _ = run(
        ["gowers", "--table", files["phase"], "--k", "2", "--format", "csv"], capsys
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert {"value", "mode", "seed", "inputs.table.sha256"} <= keys


def test_out_writes_file(files, capsys):
    target = str(files["tmp"] / "report.json")
    rc, out, _ = run(
        ["gowers", "--table", files["phase"], "--k", "2", "--out", target], capsys
    )
    assert rc == 0 and out == ""
    rep = json.loads(open(target).read())
    assert rep["command"] == "gowers"


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


def test_rank_command(files, capsys):
    rc, out, _ = run(["rank", "--polys", files["poly"]], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["value"] == 3 and rep["kind"] == "quadratic-closed-form"
    assert rep["checks"] == {"0": True, "1": True, "2": True}


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


def test_distributional_command(files, capsys):
    rc, out, _ = run(
        ["distributional", "--table", files["F01"], "--system", files["tri"],
         "--beta", "1,1,1"],
        capsys,
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["beta"] == [1, 1, 1] and rep["mode"] == "exact"
    assert rep["abs"] == pytest.approx(
        abs(complex(rep["value"][0], rep["value"][1]))
    )
    rc, _, err = run(
        ["distributional", "--table", files["F01"], "--system", files["tri"],
         "--beta", "1,x,1"],
        capsys,
    )
    assert rc == 2 and "beta" in err


# ---------------------------------------------------------------- exit codes

def test_unknown_command_exit_64(capsys):
    rc, _, err = run(["frobnicate"], capsys)
    assert rc == 64 and "commands" in err
    rc, _, err = run([], capsys)
    assert rc == 64


def test_malformed_input_exit_65(files, capsys):
    bad = files["tmp"] / "bad.json"
    bad.write_text("{nope")
    rc, _, err = run(["gowers", "--table", str(bad), "--k", "2"], capsys)
    assert rc == 65 and "JSON" in err
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

    monkeypatch.setattr(cli, "gowers_norm", broken)
    rc, out, err = run(["gowers", "--table", files["phase"], "--k", "2"], capsys)
    assert rc == 70 and out == ""
    assert json.loads(err)["type"] == "internal"


def test_budget_exceeded_exit_66(files, capsys):
    rc, _, err = run(
        ["gowers", "--table", files["big"], "--k", "3", "--budget", "1000"], capsys
    )
    assert rc == 66
    diag = json.loads(err)
    assert diag["type"] == "budget" and "--mc" in diag["hint"]
    # the suggested fallback works
    rc, out, _ = run(
        ["gowers", "--table", files["big"], "--k", "3", "--budget", "1000",
         "--mc", "200"],
        capsys,
    )
    assert rc == 0 and json.loads(out)["value"] == pytest.approx(1.0)


def test_missing_required_flag_exits_2(files):
    with pytest.raises(SystemExit) as exc:
        main(["gowers", "--table", files["phase"]])
    assert exc.value.code == 2
