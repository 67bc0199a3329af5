import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fracdim
from fracdim.cli import main

TENT = {"data": [[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]], "alpha": [0.75, 0.75]}
TENT_SPEC = {
    "branch": "affine",
    "knots": [0.0, 0.5, 1.0],
    "ys": [0.0, 1.0, 0.0],
    "alpha": [0.5, 0.5],
}


def run(*args):
    """Run one command in-process: its exit code and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(list(args), "main")
    return SimpleNamespace(exit_code=exc.value.code, stdout=out.getvalue(), stderr=err.getvalue())


class TestPredictDim:
    def test_supercritical_tent(self):
        res = run("predict-dim", "--spec", json.dumps(TENT))
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert abs(payload["predicted"] - (1 + np.log2(1.5))) < 1e-9
        assert payload["predicted_kind"] == "box"

    def test_subcritical_is_one(self):
        spec = dict(TENT, alpha=[0.3, 0.3])
        res = run("predict-dim", "--spec", json.dumps(spec))
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["predicted"] == 1.0
        assert payload["predicted_kind"] == "degenerate_one"

    def test_collinear_exits_two(self):
        spec = {"data": [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]], "alpha": [0.75, 0.75]}
        res = run("predict-dim", "--spec", json.dumps(spec))
        assert res.exit_code == 2
        assert "collinear" in res.stderr

    def test_full_spec_input(self):
        res = run("predict-dim", "--spec", json.dumps(TENT_SPEC))
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["predicted"] == 1.0  # sum |alpha| = 1 is not supercritical

    def test_hausdorff_mode(self):
        spec = {
            "data": [[i / 4, (i / 4) * (1 - i / 4)] for i in range(5)],
            "alpha": [0.5] * 4,
        }
        res = run("predict-dim", "--spec", json.dumps(spec), "--mode", "hausdorff")
        assert res.exit_code == 0
        assert abs(json.loads(res.stdout)["predicted"] - 1.5) < 1e-9

    def test_malformed_json_exits_one(self):
        res = run("predict-dim", "--spec", "{not json")
        assert res.exit_code == 1

    @pytest.mark.parametrize(
        "data, alpha",
        [
            ([1, 2, 3], [0.5, 0.5]),
            ([[0, 0, 0], [0.5, 1, 0], [1, 0, 0]], [0.5, 0.5]),
            ({"a": 1}, [0.5, 0.5]),
            (TENT["data"], {"a": 1}),
        ],
        ids=["flat", "three-columns", "data-object", "alpha-object"],
    )
    def test_data_not_pairs_exits_one(self, data, alpha):
        res = run("predict-dim", "--spec", json.dumps({"data": data, "alpha": alpha}))
        assert res.exit_code == 1
        assert res.stderr.startswith("input error:")

    def test_nan_alpha_exits_one(self):
        res = run("predict-dim", "--spec",
                  '{"data": [[0, 0], [0.5, 1], [1, 0]], "alpha": [NaN, 0.7]}')
        assert res.exit_code == 1

    def test_spec_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TENT))
        res = run("predict-dim", "--spec", str(path))
        assert res.exit_code == 0

    def test_spec_file_not_an_object_exits_one(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("5")
        res = run("predict-dim", "--spec", str(path))
        assert res.exit_code == 1
        assert res.stderr.startswith("input error:")

    @pytest.mark.parametrize("alpha", [0.7, [0.7] * 5], ids=["scalar", "five-on-four"])
    def test_hausdorff_alpha_count_mismatch_exits_one(self, alpha):
        data = [[i / 4, (i / 4) * (1 - i / 4)] for i in range(5)]
        res = run("predict-dim", "--spec", json.dumps({"data": data, "alpha": alpha}), "--mode", "hausdorff")
        assert res.exit_code == 1
        assert res.stderr == "input error: alpha length must equal interval count\n"

    def test_alpha_fractal_ys_off_its_seed_exits_one(self):
        # the seed and base are the line y = x, so ys [0, 5, 0] describes no FIF of this spec;
        # without "ys" the same spec is collinear and exits 2
        line = {"kind": "polynomial", "coeffs": [0, 1]}
        spec = {"branch": "alpha_fractal", "knots": [0, 0.5, 1], "alpha": [0.8, 0.8], "seed": line, "base": line}
        res = run("predict-dim", "--spec", json.dumps(dict(spec, ys=[0, 5, 0])))
        assert res.exit_code == 1
        assert res.stderr == "input error: seed must interpolate ys at the knots\n"
        assert run("predict-dim", "--spec", json.dumps(spec)).exit_code == 2


class TestEstimateDim:
    IDENTITY = json.dumps({"kind": "polynomial", "coeffs": [0, 1]})

    def test_identity_near_one(self):
        res = run("estimate-dim", "--func", self.IDENTITY, "--m", str(2 ** 16),
                  "--jmin", "3", "--jmax", "10")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert 0.95 <= payload["raw_slope"] <= 1.05

    def test_jmax_beyond_resolution_exits_two(self):
        res = run("estimate-dim", "--func", self.IDENTITY, "--m", str(2 ** 8),
                  "--jmax", "12")
        assert res.exit_code == 2

    def test_requires_exactly_one_source(self):
        assert run("estimate-dim").exit_code == 1

    def test_any_resolution_matches_the_library(self):
        res = run("estimate-dim", "--func", self.IDENTITY, "--m", "100000")
        assert res.exit_code == 0
        f = fracdim.func_from_json(json.loads(self.IDENTITY))
        report = fracdim.estimate_box_dim(fracdim.sample(f, 100000), 4, 12)
        assert res.stdout == json.dumps(report.to_json(), indent=2) + "\n"

    def test_csv_roundtrip_and_scales_out(self, tmp_path):
        gen = run("generate", "weierstrass", "--m", str(2 ** 14),
                  "--out", str(tmp_path / "w.csv"))
        assert gen.exit_code == 0
        out = tmp_path / "scales.csv"
        res = run("estimate-dim", "--csv", str(tmp_path / "w.csv"),
                  "--jmin", "3", "--jmax", "9", "--out", str(out))
        assert res.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "j,delta,count"
        assert len(lines) == 8

    def test_csv_shuffled_rows_exit_one(self, tmp_path):
        path = tmp_path / "w.csv"
        assert run("generate", "weierstrass", "--m", str(2 ** 10), "--out", str(path)).exit_code == 0
        header, *rows = path.read_text().splitlines()
        rows = [rows[k] for k in np.random.default_rng(0).permutation(len(rows))]
        path.write_text("\n".join([header, *rows]) + "\n")
        res = run("estimate-dim", "--csv", str(path), "--jmin", "3", "--jmax", "8")
        assert res.exit_code == 1
        assert "x column" in res.stderr

    @pytest.mark.parametrize("text", ["x,y\n", "x\n0\n1\n", "x,y,z\n0,1,2\n1,2,3\n", "x,y\n0,1\n"],
                             ids=["header-only", "one-column", "three-columns", "one-row"])
    def test_csv_of_other_shape_exits_one(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        res = run("estimate-dim", "--csv", str(path), "--jmin", "0", "--jmax", "2")
        assert res.exit_code == 1
        assert res.stderr.startswith("input error:")


class TestApproximate:
    QUAD = json.dumps({"kind": "polynomial", "coeffs": [0, 0, 1]})

    def test_box_mode(self):
        res = run("approximate", "--func", self.QUAD, "--beta", "1.5",
                  "--mode", "box", "--n", "4", "--m", str(2 ** 12))
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert abs(payload["predicted"] - 1.5) < 1e-9
        assert payload["holds"]
        assert payload["sup_err"] <= payload["error_bound"] + 1e-9

    def test_box_collinear_exits_two(self):
        affine = json.dumps({"kind": "polynomial", "coeffs": [0, 1]})
        res = run("approximate", "--func", affine, "--beta", "1.5",
                  "--mode", "box", "--n", "4", "--m", str(2 ** 12))
        assert res.exit_code == 2

    def test_hausdorff_mode_perturbs_constant(self):
        const = json.dumps({"kind": "polynomial", "coeffs": [3.0]})
        res = run("approximate", "--func", const, "--beta", "1.5",
                  "--mode", "hausdorff", "--n", "4", "--m", str(2 ** 12))
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["perturbed"] is True
        assert abs(payload["alpha"] - 0.5) < 1e-12
        assert abs(payload["predicted"] - 1.5) < 1e-9

    @pytest.mark.parametrize("m_arg, rows", [(None, 3 ** 10 + 1), ("4096", 4097)])
    def test_hausdorff_default_m_is_a_power_of_n(self, tmp_path, m_arg, rows):
        out = tmp_path / "haus.csv"
        args = ["approximate", "--func", self.QUAD, "--beta", "1.5",
                "--mode", "hausdorff", "--n", "3", "--out", str(out)]
        res = run(*args, *(["--m", m_arg] if m_arg else []))
        assert res.exit_code == 0
        assert len(np.loadtxt(out, delimiter=",", skiprows=1)) == rows
        if m_arg is None:
            residual = json.loads(res.stdout)["residual"]
            assert residual <= 1e-12
            assert not np.signbit(residual)

    def test_dense_mode(self, tmp_path):
        out = tmp_path / "dense.csv"
        res = run("approximate", "--func", self.QUAD, "--beta", "1.5",
                  "--mode", "dense", "--n", "3", "--m", str(2 ** 10),
                  "--out", str(out))
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["sup_err"] >= 0.0
        assert out.read_text().startswith("x,y\n")

    def test_derivative_mode(self):
        one = json.dumps({"kind": "polynomial", "coeffs": [1.0]})
        res = run("approximate", "--func", one, "--beta", "1.5",
                  "--mode", "derivative", "--n", "3", "--m", str(2 ** 10),
                  "--nonneg")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["primitive_at_0"] == 0.0
        # F(1) = 1 + integral of the rescaled anchor, which is below 1
        assert abs(payload["primitive_at_1"] - 1.0) <= 1.0
        assert payload["min_primitive"] >= -1e-9

    def test_beta_gate_exits_two(self):
        res = run("approximate", "--func", self.QUAD, "--beta", "2.5",
                  "--mode", "dense", "--n", "2")
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "func",
        [
            {"kind": "scaled", "factor": None, "inner": {"kind": "polynomial", "coeffs": [1.0]}},
            {"kind": "weierstrass", "a": "x", "b": 3},
            {"kind": "sum", "terms": 5},
        ],
        ids=["null-factor", "string-a", "int-terms"],
    )
    def test_func_field_of_the_wrong_type_exits_one(self, func):
        res = run("approximate", "--func", json.dumps(func), "--beta", "1.5",
                  "--mode", "box", "--n", "4", "--m", str(2 ** 10))
        assert res.exit_code == 1
        assert res.stderr.startswith("input error:")
        assert func["kind"] in res.stderr

    def test_box_resolution_below_one_exits_one(self):
        res = run("approximate", "--func", self.QUAD, "--beta", "1.5",
                  "--mode", "box", "--n", "4", "--m", "0")
        assert res.exit_code == 1
        assert res.stderr.startswith("input error:")

    def test_hausdorff_mode_accepts_large_ordinates(self):
        cubic = json.dumps({"kind": "polynomial", "coeffs": [
            -83021.0455669064, -61294.48370689712, -57226.60186157056, 71728.38643318087]})
        res = run("approximate", "--func", cubic, "--beta", "1.5",
                  "--mode", "hausdorff", "--n", "4")
        assert res.exit_code == 0, res.stderr


class TestGenerate:
    def test_weierstrass_row_count(self, tmp_path):
        out = tmp_path / "w.csv"
        res = run("generate", "weierstrass", "--m", str(2 ** 10), "--out", str(out))
        assert res.exit_code == 0
        assert len(out.read_text().strip().splitlines()) == 2 ** 10 + 2  # header + m+1

    def test_weierstrass_top_frequency_overflow_exits_one(self, tmp_path):
        out = tmp_path / "w.csv"
        res = run("generate", "weierstrass", "--k", "700", "--m", "16", "--out", str(out))
        assert res.exit_code == 1
        assert res.stderr.startswith("input error:")
        assert not out.exists()

    def test_fif_zero_alpha_is_broken_line(self, tmp_path):
        spec = {
            "branch": "affine",
            "knots": [0.0, 0.5, 1.0],
            "ys": [0.0, 1.0, 0.0],
            "alpha": [0.0, 0.0],
        }
        out = tmp_path / "fif.csv"
        res = run("generate", "fif", "--spec", json.dumps(spec),
                  "--m", str(2 ** 8), "--out", str(out))
        assert res.exit_code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        tent = 1.0 - np.abs(2.0 * rows[:, 0] - 1.0)
        assert np.max(np.abs(rows[:, 1] - tent)) <= 1e-12

    def test_fif_one_interval(self, tmp_path):
        # one branch maps [0, 1] onto itself; the fixed point is the chord
        spec = {"branch": "affine", "knots": [0.0, 1.0], "ys": [0.0, 1.0], "alpha": [0.5]}
        out = tmp_path / "fif.csv"
        res = run("generate", "fif", "--spec", json.dumps(spec), "--out", str(out))
        assert res.exit_code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert len(rows) == 2 ** 16 + 1
        assert np.max(np.abs(rows[:, 1] - rows[:, 0])) <= 1e-12

    def test_chaos_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            res = run("generate", "chaos", "--spec", json.dumps(TENT_SPEC),
                      "--n-points", "2000", "--seed", "7", "--out", str(out))
            assert res.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fif_requires_spec(self, tmp_path):
        res = run("generate", "fif", "--out", str(tmp_path / "x.csv"))
        assert res.exit_code == 1

    def test_fif_convergence_failure_exits_three(self, tmp_path):
        # the iteration stalls at round-off, far above tol
        spec = {"branch": "affine", "knots": [0, 0.3, 1], "ys": [0.1, -0.7, 0.4],
                "alpha": [0.6, -0.6]}
        out = tmp_path / "fif.csv"
        res = run("generate", "fif", "--spec", json.dumps(spec), "--m", "1000",
                  "--tol", "1e-300", "--out", str(out))
        assert res.exit_code == 3
        assert "convergence failure" in res.stderr
        assert not out.exists()


    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_fif_non_finite_tol_exits_one(self, tmp_path, tol):
        out = tmp_path / "fif.csv"
        res = run("generate", "fif", "--spec", json.dumps(TENT_SPEC), "--m", "4096",
                  "--tol", tol, "--out", str(out))
        assert res.exit_code == 1
        assert not out.exists()

    # (0, .5, 1) would refine at a power of two, (0, .3, 1) iterates
    @pytest.mark.parametrize("knots", [[0.0, 0.5, 1.0], [0.0, 0.3, 1.0]])
    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_fif_resolution_below_one_exits_one(self, tmp_path, knots, m):
        out = tmp_path / "fif.csv"
        spec = dict(TENT_SPEC, knots=knots)
        res = run("generate", "fif", "--spec", json.dumps(spec), "--m", m, "--out", str(out))
        assert res.exit_code == 1
        assert res.stderr.startswith("input error:")
        assert not out.exists()


class TestExtend:
    DOMAIN = {
        "intervals": [[0.0, 0.4], [0.6, 1.0]],
        "values": {"kind": "polynomial", "coeffs": [0, 0, 1]},
    }

    def test_extension_is_continuous(self, tmp_path):
        out = tmp_path / "ext.csv"
        res = run("extend", "--domain", json.dumps(self.DOMAIN), "--beta", "1.5",
                  "--m", str(2 ** 16), "--jmin", "3", "--jmax", "10",
                  "--out", str(out))
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["max_jump"] <= 1e-9
        assert payload["raw_slope"] > 1.0
        assert out.exists()

    def test_beta_gate(self):
        res = run("extend", "--domain", json.dumps(self.DOMAIN), "--beta", "2.0")
        assert res.exit_code == 2

    def test_bad_domain_exits_one(self):
        bad = {"intervals": [[0.1, 0.4]], "values": {"kind": "polynomial", "coeffs": [0]}}
        res = run("extend", "--domain", json.dumps(bad), "--beta", "1.5")
        assert res.exit_code == 1

    @pytest.mark.parametrize("intervals", [5, [5], [[None, 1.0]]], ids=["number", "list-of-numbers", "null-end"])
    def test_intervals_not_pairs_exit_one(self, intervals):
        bad = {"intervals": intervals, "values": {"kind": "polynomial", "coeffs": [0]}}
        res = run("extend", "--domain", json.dumps(bad), "--beta", "1.5")
        assert res.exit_code == 1
        assert res.stderr.startswith("input error:")


QUAD = TestApproximate.QUAD
GROUP_HELP = run("--help").stdout


@pytest.mark.parametrize(
    "args, code, stdout_start, stderr_start",
    [
        (["approximate", "--func", QUAD, "--beta", "1.5", "--mode", "foo"], 1, "", "input error:"),
        (["generate", "fif", "--m", "abc", "--out", "x.csv"], 1, "", "input error:"),
        (["approximate", "--no-such-option"], 1, "", "input error:"),
        (["approximate", "--func", QUAD, "--mode", "box"], 1, "", "input error:"),
        (["estimate-dim", "--csv", "no-such-file.csv"], 1, "", "input error:"),
        (["--help"], 0, "Usage:", ""),
        (["approximate", "--help"], 0, "Usage:", ""),
        (["--version"], 0, f"main, version {fracdim.__version__}\n", ""),
        ([], 1, GROUP_HELP, ""),
        (["generate", "weierstrass", "--n-p", "5", "--out", "x.csv"], 1, "", "input error:"),
        (["predict-dim", "--spec", "[5]"], 1, "", "input error:"),
        (["extend", "--domain", "[1]", "--beta", "1.5"], 1, "", "input error:"),
        (["approximate", "--func", QUAD, "--beta", "nan", "--mode", "box", "--n", "4"], 1, "", "input error:"),
        (["approximate", "--func", QUAD, "--beta", "inf", "--mode", "box", "--n", "4"], 1, "", "input error:"),
        (["extend", "--domain", json.dumps(TestExtend.DOMAIN), "--beta", "nan"], 1, "", "input error:"),
        # 2^40 + 1 doubles are 8 TiB: refused before sampling, or by the allocator
        (["approximate", "--func", QUAD, "--beta", "1.5", "--mode", "dense", "--n", "40"], 1, "", "input error:"),
        (["approximate", "--func", QUAD, "--beta", "1.5", "--mode", "derivative", "--n", "40"], 1, "",
         "input error:"),
        (["estimate-dim", "--func", '{"kind": "polynomial", "coeffs": [0, 1]}', "--m", str(2 ** 40)], 1, "",
         "input error:"),
    ],
    ids=["bad-choice", "bad-type", "unknown-option", "missing-option", "missing-csv",
         "help", "command-help", "version", "bare", "abbreviated-option", "spec-not-an-object",
         "domain-not-an-object", "nan-beta", "inf-beta", "extend-nan-beta", "dense-exponent-too-large",
         "derivative-exponent-too-large", "unallocatable-resolution"],
)
def test_exit_code_contract(args, code, stdout_start, stderr_start):
    # README's table: 0 success, 1 malformed input, usage errors included
    res = run(*args)
    assert res.exit_code == code
    assert res.stdout.startswith(stdout_start)
    assert res.stderr.startswith(stderr_start)


@pytest.mark.parametrize(
    "args",
    [
        ["estimate-dim", "--func", '{"kind": "polynomial", "coeffs": [0, 1]}', "--m", "4096", "--jmax", "10"],
        ["approximate", "--func", QUAD, "--beta", "1.5", "--mode", "box", "--n", "8", "--m", "1024"],
        ["extend", "--domain", json.dumps(TestExtend.DOMAIN), "--beta", "1.5", "--m", "4096", "--jmax", "10"],
    ],
    ids=["estimate-dim", "approximate", "extend"],
)
def test_unwritable_out_prints_no_payload(tmp_path, args):
    # the CSV is written before the report, so a failed write leaves stdout empty
    res = run(*args, "--out", str(tmp_path / "no-such-dir" / "x.csv"))
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith("input error:")
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "spec, words",
    [(dict(TENT_SPEC, alpha={"a": 1}), "has a field of the wrong type"),
     ({k: v for k, v in TENT_SPEC.items() if k != "alpha"}, "is missing the field 'alpha'")],
    ids=["object-alpha", "no-alpha"],
)
@pytest.mark.parametrize(
    "args",
    [["generate", "fif", "--m", "64", "--out", "x.csv"], ["generate", "chaos", "--n-points", "10", "--out", "x.csv"],
     ["predict-dim"]],
    ids=["generate-fif", "generate-chaos", "predict-dim"],
)
def test_malformed_spec_exits_one(tmp_path, monkeypatch, args, spec, words):
    # an input error, not a TypeError traceback or a bare "'alpha'"
    monkeypatch.chdir(tmp_path)
    res = run(*args, "--spec", json.dumps(spec))
    assert res.exit_code == 1
    assert res.stderr.startswith(f"input error: 'affine' spec JSON {words}")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "args, line",
    [(["predict-dim", "--spec", json.dumps({"data": TENT["data"]})], "missing the field 'alpha'"),
     (["estimate-dim", "--func", '{"kind": "polynomial"}'], "'polynomial' function JSON is missing the field 'coeffs'"),
     (["extend", "--domain", json.dumps({"values": TestExtend.DOMAIN["values"]}), "--beta", "1.5"],
      "missing the field 'intervals'")],
    ids=["predict-dim", "estimate-dim", "extend"],
)
def test_missing_json_field_is_named(args, line):
    # a missing field is named as one, not printed as a bare key
    res = run(*args)
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == f"input error: {line}\n"


def readme_cli_commands():
    """Each `fracdim` command of README's CLI block as an argument list."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "fracdim " in b)
    tokens = shlex.split(block.replace("\\\n", " "))
    starts = [i for i, t in enumerate(tokens) if t == "fracdim"]
    return [tokens[a + 1:b] for a, b in zip(starts, starts[1:] + [len(tokens)])]


README_CLI = readme_cli_commands()


@pytest.mark.parametrize("args", README_CLI, ids=[f"{i}-{args[0]}" for i, args in enumerate(README_CLI)])
def test_readme_cli_block_runs(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    # the block reads spec.json; it holds the library example's tent spec
    a = 2.0 ** -0.5
    (tmp_path / "spec.json").write_text(json.dumps(fracdim.spec_to_json(
        fracdim.make_affine_spec([0, 0.5, 1], [0, 1, 0], [a, a]))))
    res = run(*args)
    assert res.exit_code == 0, res.stderr
    if args[0] == "generate":
        assert res.stdout == ""
    else:
        assert isinstance(json.loads(res.stdout), dict)
    if "--out" in args:
        rows = (tmp_path / args[args.index("--out") + 1]).read_text().splitlines()
        assert rows[0] == "x,y" and len(rows) > 1


def python(*args):
    """Run a fresh interpreter on this source tree."""
    src = str(Path(fracdim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize(
    "args, code, stdout_start, stderr_start",
    [
        (["approximate", "--func", QUAD, "--beta", "1.5", "--mode", "foo"], 1, "", "input error:"),
        (["--version"], 0, f"fracdim, version {fracdim.__version__}\n", ""),
        ([], 1, "Usage: fracdim ", ""),
    ],
    ids=["bad-choice", "version", "bare"],
)
def test_module_entry_point(args, code, stdout_start, stderr_start):
    # the in-process runner skips the module's __main__ block and the default program name
    res = python("-m", "fracdim.cli", *args)
    assert res.returncode == code
    assert res.stdout.startswith(stdout_start)
    assert res.stderr.startswith(stderr_start)


@pytest.mark.parametrize("module", ["scipy", "click", "mpmath", "hypothesis"])
def test_import_leaves_scipy_out(module):
    # scipy costs about a second of start-up for every command, click about 20 ms, and the
    # test oracles mpmath and hypothesis about 30 and 170 ms; keep all of them out
    res = python("-c", f"import fracdim.cli, sys; print({module!r} in sys.modules)")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
