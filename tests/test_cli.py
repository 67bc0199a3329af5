import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

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
    return CliRunner().invoke(main, list(args))


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

    def test_nan_alpha_exits_one(self):
        res = run("predict-dim", "--spec",
                  '{"data": [[0, 0], [0.5, 1], [1, 0]], "alpha": [NaN, 0.7]}')
        assert res.exit_code == 1

    def test_spec_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TENT))
        res = run("predict-dim", "--spec", str(path))
        assert res.exit_code == 0


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

    def test_non_power_of_two_rejected(self):
        res = run("estimate-dim", "--func", self.IDENTITY, "--m", "1000")
        assert res.exit_code == 1

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


class TestGenerate:
    def test_weierstrass_row_count(self, tmp_path):
        out = tmp_path / "w.csv"
        res = run("generate", "weierstrass", "--m", str(2 ** 10), "--out", str(out))
        assert res.exit_code == 0
        assert len(out.read_text().strip().splitlines()) == 2 ** 10 + 2  # header + m+1

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


def test_import_leaves_scipy_out():
    # scipy costs about a second of start-up for every command; keep it out
    src = str(Path(fracdim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run(
        [sys.executable, "-c", "import fracdim.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert res.stdout.strip() == "False"
