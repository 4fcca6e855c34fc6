import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import nardf
from nardf.bsms import rate_loss_bound, rna_bsms
from nardf.cli import DEFAULT_SEED, UsageError, _parse_grid, main
from nardf.modelfile import ModelFormatError, load_model, parse_model_text
from nardf.numerics import BITS_PER_NAT

MODEL_TEXT = """\
# two-state partially observed source
m 2
k 2
p 2
d 2
A  0.6 0.2
   0.0 0.5
B  1 0
   0 1
C  1.0 0.0
   0.3 0.9
N  0.4 0.0
   0.0 0.4
"""


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(MODEL_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------ model files


def test_parse_model_text():
    model = parse_model_text(MODEL_TEXT)
    assert model.dims == (2, 2, 2, 2)
    assert model.A[0, 1] == 0.2
    assert model.C[1, 0] == 0.3
    assert model.N[1, 1] == 0.4


def test_parse_model_without_observation_noise():
    text = "m 1\nk 1\np 1\nd 0\nA 0.5\nB 1\nC 1\n"
    model = parse_model_text(text)
    assert model.dims == (1, 1, 1, 0)
    assert model.N.shape == (1, 0)


@pytest.mark.parametrize(
    "text,match",
    [
        ("m 1\nk 1\np 1\nd 0\nA 0.5\nB 1\nC 1\nZ 3\n", "unknown key"),
        ("m 1\nk 1\np 1\nA 0.5\nB 1\nC 1\n", "missing dimension 'd'"),
        ("m 1\nk 1\np 1\nd 0\nA 0.5\nB 1\n", "missing matrix 'C'"),
        ("m 2\nk 1\np 1\nd 0\nB 1 1\nC 1 1\nA 0.5 0.1 0.2\n", "needs 4 entries"),
        ("m 1\nk 1\np 1\nd 0\nA 0.5\nB 1\nC 1\nN\n", "d = 0"),
        ("m 1\nk 1\np 1\nd 1\nA 0.5\nB 1\nC 1\n", "required when d > 0"),
        ("A 0.5\nm 1\nk 1\np 1\nd 0\nB 1\nC 1\n", "declared first"),
        ("m 1\nk 1\np 1\nd 0\nA x\nB 1\nC 1\n", "expects a number"),
        ("m 1\nk 1\nm 1\np 1\nd 0\nA 0.5\nB 1\nC 1\n", "declared twice"),
        ("m 0\nk 1\np 1\nd 0\nA\nB\nC\n", "at least 1"),
        ("m 1.5\nk 1\np 1\nd 0\nA 0.5\nB 1\nC 1\n", "expects an integer"),
        ("m 1\nk 1\np 1\nd\n", "has no value"),
    ],
)
def test_parse_model_errors(text, match):
    with pytest.raises(ModelFormatError, match=match):
        parse_model_text(text)


def test_load_model(model_file, tmp_path):
    model = load_model(model_file)
    assert model.dims == (2, 2, 2, 2)
    with pytest.raises(ModelFormatError, match="cannot read"):
        load_model(str(tmp_path / "absent.txt"))


# ------------------------------------------------------------------ bsms-curve


def test_bsms_curve_csv(capsys):
    code, out, _ = run(
        capsys, ["bsms-curve", "--p", "0.25", "--d-grid", "0.02:0.22:0.05", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "D,rna,gray,gray_exact,rate_loss_bound"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.02, abs=1e-12)
    # 12 significant digits survive the round trip
    assert float(first[1]) == pytest.approx(rna_bsms(0.25, 0.02), rel=1e-11)
    assert first[3] == "true"  # 0.02 is inside the exactness region
    assert lines[2].split(",")[3] == "false"  # 0.07 is not


def test_bsms_curve_json(capsys):
    code, out, _ = run(
        capsys, ["bsms-curve", "--p", "0.25", "--d", "0.1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "nardf/bsms-curve/v1"
    assert payload["p"] == 0.25
    assert payload["rows"][0]["rna"] == pytest.approx(rna_bsms(0.25, 0.1), rel=1e-14)
    assert payload["rows"][0]["gray_exact"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["bsms-curve", "--d", "0.1"],  # missing --p
        ["bsms-curve", "--p", "0.25"],  # no distortion given
        ["bsms-curve", "--p", "0.25", "--d", "0.1", "--d-grid", "0.1:0.2:0.1"],
        ["bsms-curve", "--p", "0.25", "--d-grid", "0.3:0.1:0.1"],  # hi < lo
        ["bsms-curve", "--p", "0.25", "--d-grid", "0.1:0.2:0"],  # bad step
        ["bsms-curve", "--p", "0.25", "--d-grid", "0.1:0.2"],  # not lo:hi:step
        ["no-such-command"],
        [],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, _ = run(capsys, argv)
    assert code == 2


def test_domain_error_exit_4(capsys):
    code, _, err = run(capsys, ["bsms-curve", "--p", "1.5", "--d", "0.1"])
    assert code == 4
    assert "domain error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gauss-rate", "--d", "nan"],
        ["jscc-sim", "--mode", "vector", "--d", "nan", "--steps", "100"],
    ],
)
def test_nan_distortion_exit_4(capsys, model_file, argv):
    code, _, err = run(capsys, argv + ["--model", model_file])
    assert code == 4
    assert "domain error" in err


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; importing the CLI must not pull it in
    src = os.path.dirname(os.path.dirname(nardf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, nardf.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------------ gauss-rate


def test_gauss_rate_json(capsys, model_file):
    code, out, _ = run(
        capsys, ["gauss-rate", "--model", model_file, "--d", "1.2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "nardf/gauss-rate/v1"
    assert payload["dims"] == {"m": 2, "k": 2, "p": 2, "d": 2}
    row = payload["rows"][0]
    assert row["rate"] == pytest.approx(1.0556672772317302, abs=1e-9)
    assert row["saturated"] is False
    assert row["lambda_1"] == pytest.approx(1.70433334, abs=1e-7)
    assert row["delta_2"] == pytest.approx(0.6, abs=1e-9)


def test_gauss_rate_csv_grid(capsys, model_file):
    code, out, _ = run(
        capsys,
        ["gauss-rate", "--model", model_file, "--d-grid", "0.8:1.6:0.4", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[:3] == ["D", "rate", "xi"]
    assert "lambda_1" in header and "delta_2" in header
    assert len(lines) == 4
    rates = [float(line.split(",")[1]) for line in lines[1:]]
    assert rates[0] > rates[1] > rates[2]  # nonincreasing in D


def test_gauss_rate_errors(capsys, tmp_path, model_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("m 1\nk 1\np 1\nd 0\nA 1.2\nB 1\nC 0.0\n")
    code, _, err = run(capsys, ["gauss-rate", "--model", str(bad), "--d", "0.5"])
    assert code == 3
    assert "numeric error" in err
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("m 2\nk 1\np 1\nd 0\nA 1 2 3\nB 1 1\nC 1 1\n")
    code, _, _ = run(capsys, ["gauss-rate", "--model", str(malformed), "--d", "0.5"])
    assert code == 2
    code, _, _ = run(capsys, ["gauss-rate", "--d", "0.5"])
    assert code == 2
    code, _, _ = run(capsys, ["gauss-rate", "--model", str(tmp_path / "nope.txt"), "--d", "0.5"])
    assert code == 2


# ------------------------------------------------------------------- jscc-sim


def test_jscc_sim_feedback(capsys):
    argv = ["jscc-sim", "--mode", "fb", "--alpha", "0.5", "--steps", "20000", "--seed", "42"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "nardf/jscc-sim/v1"
    assert payload["mode"] == "fb"
    assert payload["seed"] == 42
    ana = payload["analytic"]
    assert ana["D_min"] == pytest.approx(4.0 / 7.0, rel=1e-12)
    assert ana["capacity"] == pytest.approx(0.5, abs=1e-12)
    assert ana["matched_rate"] == pytest.approx(ana["capacity"], abs=1e-12)
    emp = payload["empirical"]
    assert emp["samples"] >= 20000
    assert emp["distortion"] == pytest.approx(4.0 / 7.0, abs=0.03)
    assert emp["power"] == pytest.approx(1.0, abs=0.05)


def test_jscc_sim_deterministic_and_seeded(capsys, monkeypatch):
    argv = ["jscc-sim", "--mode", "iid", "--steps", "5000"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    assert json.loads(out1)["seed"] == DEFAULT_SEED
    monkeypatch.setenv("NARDF_SEED", "77")
    _, out3, _ = run(capsys, argv)
    assert json.loads(out3)["seed"] == 77
    assert out3 != out1
    _, out4, _ = run(capsys, argv + ["--seed", "42"])
    assert json.loads(out4)["seed"] == 42  # flag beats environment
    monkeypatch.setenv("NARDF_SEED", "not-a-number")
    code5, _, _ = run(capsys, argv)
    assert code5 == 2


def test_jscc_sim_sk(capsys):
    argv = [
        "jscc-sim", "--mode", "sk", "--steps", "5", "--trials", "4000", "--seed", "11",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    ana = payload["analytic"]
    assert ana["capacity"] == pytest.approx(0.5, abs=1e-12)
    assert ana["mse_per_step"] == pytest.approx([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125])
    emp = payload["empirical"]
    assert len(emp["mse_per_step"]) == 6
    assert emp["mse_per_step"][0] == pytest.approx(1.0, abs=0.1)


def test_jscc_sim_vector(capsys, model_file):
    argv = [
        "jscc-sim", "--mode", "vector", "--model", model_file, "--d", "1.2",
        "--steps", "8000", "--seed", "5",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    ana = payload["analytic"]
    assert ana["rate"] == pytest.approx(1.0556672772317302, abs=1e-9)
    assert ana["matched"] is False  # identity channel noise does not water-fill
    assert len(ana["per_channel_power"]) == 2
    emp = payload["empirical"]
    assert emp["distortion"] == pytest.approx(1.2, abs=0.1)
    assert np.asarray(emp["cov_K"]).shape == (2, 2)


def test_jscc_sim_csv_flattens(capsys):
    argv = [
        "jscc-sim", "--mode", "iid", "--steps", "2000", "--seed", "3", "--format", "csv",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "analytic.D_min" in keys
    assert "empirical.distortion" in keys
    assert "schema" in keys


@pytest.mark.parametrize(
    "argv",
    [
        ["jscc-sim", "--mode", "fb", "--steps", "100"],  # missing --alpha
        ["jscc-sim", "--mode", "fb", "--alpha", "0.5", "--steps", "0"],
        ["jscc-sim", "--mode", "sk", "--steps", "5", "--trials", "1"],
        ["jscc-sim", "--mode", "vector", "--d", "1.0"],  # missing --model
        ["jscc-sim", "--mode", "nope"],
    ],
)
def test_jscc_sim_usage_errors(capsys, argv):
    code, _, _ = run(capsys, argv)
    assert code == 2


def test_jscc_sim_domain_error(capsys):
    argv = ["jscc-sim", "--mode", "fb", "--alpha", "1.0", "--steps", "100"]
    code, _, _ = run(capsys, argv)
    assert code == 4


# --------------------------------------------------------------------- excess


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "iid", "--power", "inf"],
        ["--mode", "nfb", "--alpha", "0.5", "--power", "inf"],
        ["--mode", "fb", "--alpha", "0.5", "--power", "nan"],
        ["--mode", "fb", "--alpha", "0.5", "--sigma-w", "nan"],
        ["--mode", "sk", "--power", "nan"],
    ],
)
def test_jscc_sim_non_finite_input_exit_4(capsys, argv):
    code, out, err = run(capsys, ["jscc-sim", *argv, "--steps", "100"])
    assert code == 4
    assert out == ""
    assert "domain error" in err


def test_jscc_sim_sk_underflowing_mse_exit_3(capsys):
    # lambda_t underflows to 0 from the second use on; a NaN per-use rate
    # must not pass as "equal to capacity"
    for steps in ("2", "4"):
        code, out, err = run(capsys, ["jscc-sim", "--mode", "sk", "--power", "1e308",
                                      "--steps", steps])
        assert code == 3
        assert out == ""
        assert "numeric error" in err


@pytest.mark.parametrize("mode", ["fb", "nfb", "iid"])
def test_jscc_sim_single_shard_note(capsys, mode):
    argv = ["jscc-sim", "--mode", mode, "--alpha", "0.5", "--seed", "3"]
    code, out, err = run(capsys, argv + ["--steps", "100"])
    assert code == 0
    emp = json.loads(out)["empirical"]
    assert emp["distortion_se"] is None and emp["power_se"] is None
    assert err.count("\n") == 1
    assert "one shard" in err and "--steps 400 " in err
    code, out, err = run(capsys, argv + ["--steps", "1000"])
    assert code == 0
    assert err == ""
    assert json.loads(out)["empirical"]["distortion_se"] > 0.0


def test_grid_cap_is_a_usage_error(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["bsms-curve", "--p", "0.3", "--d-grid", "0:0.5:1e-12"])
    assert code == 2
    assert out == "" and "exceeds" in err
    assert time.perf_counter() - t0 < 1.0  # refused before any list is built
    assert len(_parse_grid("0:0.999999:1e-6", "--d-grid")) == 10**6
    with pytest.raises(UsageError):
        _parse_grid("0:1:1e-6", "--d-grid")  # 10^6 + 1 points


def test_excess_theta_grid(capsys):
    argv = [
        "excess", "--p", "0.3", "--d", "0.1", "--theta-grid", "0.1:0.3:0.1",
        "--format", "csv",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,rate_nats,rate_bits,lambda_star"
    assert len(lines) == 4
    for line in lines[1:]:
        _, nats, bits, _ = (float(x) for x in line.split(","))
        assert bits == pytest.approx(nats * BITS_PER_NAT, rel=1e-10, abs=1e-12)


def test_excess_bounds(capsys):
    argv = [
        "excess", "--p", "0.3", "--d", "0.1", "--gamma", "0.1",
        "--n-grid", "1000:3000:1000", "--format", "json",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "nardf/excess-bounds/v2"
    assert payload["hoeffding_threshold_n"] == pytest.approx(1466.666666, abs=1e-4)
    assert payload["lumped_lambda_2"] == pytest.approx(0.06417112299465248, abs=1e-12)
    rows = payload["rows"]
    assert [r["n"] for r in rows] == [1000, 2000, 3000]
    assert rows[0]["hoeffding"] is None and rows[0]["hoeffding_valid"] is False
    assert rows[1]["hoeffding_valid"] is True
    assert rows[1]["hoeffding"] == pytest.approx(
        math.exp(-(0.3 / 22.0) ** 2 * (2000 * 0.1 - 2.0 / (0.3 / 22.0)) ** 2 / 4000.0),
        rel=1e-10,
    )
    assert 0.0 < rows[1]["reversible"] < 1.0
    assert "empirical" not in rows[0]
    assert rows[0]["I_d"] == pytest.approx(0.03800311946851247, abs=1e-9)


def test_excess_bounds_with_trials_csv(capsys):
    argv = [
        "excess", "--p", "0.3", "--d", "0.1", "--gamma", "0.1",
        "--n-grid", "1400:1900:500", "--trials", "300", "--seed", "9",
        "--format", "csv",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,hoeffding,hoeffding_valid,reversible,empirical,I_d"
    first = lines[1].split(",")
    # n = 1400 sits below the validity threshold 2/(lambda gamma) ~ 1466.7
    assert first[0] == "1400" and first[1] == "nan" and first[2] == "false"
    assert lines[2].split(",")[2] == "true"
    emp = float(lines[2].split(",")[4])
    assert 0.0 <= emp <= 1.0
    # same seed reproduces the report byte for byte
    _, out2, _ = run(capsys, argv)
    assert out2 == out


@pytest.mark.parametrize(
    "argv",
    [
        ["excess", "--p", "0.3", "--d", "0.1"],  # neither theta-grid nor gamma
        ["excess", "--p", "0.3", "--d", "0.1", "--gamma", "0.1"],  # missing n-grid
        ["excess", "--p", "0.3", "--d", "0.1", "--gamma", "-1", "--n-grid", "100:200:100"],
        ["excess", "--p", "0.3", "--d", "0.1", "--gamma", "0.1", "--n-grid", "0:100:50"],
        ["excess", "--p", "0.3", "--d", "0.1", "--gamma", "0.1", "--n-grid", "100.5:200:50"],
        ["excess", "--p", "0.3", "--d", "0.1", "--gamma", "0.1",
         "--n-grid", "1500:2000:500", "--trials", "-1"],
    ],
)
def test_excess_usage_errors(capsys, argv):
    code, _, _ = run(capsys, argv)
    assert code == 2


# ------------------------------------------------------------------ rate-loss


def test_rate_loss_maximizer(capsys):
    code, out, _ = run(capsys, ["rate-loss", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "nardf/rate-loss/v1"
    assert payload["maximizer"] is True
    row = payload["rows"][0]
    assert row["rate_loss_bound"] == pytest.approx(0.2144176, abs=2e-6)
    assert row["p"] == pytest.approx(0.1211, abs=2e-4)
    assert row["D"] == pytest.approx(row["p"], abs=2e-4)


def test_rate_loss_points(capsys):
    code, out, _ = run(
        capsys, ["rate-loss", "--p", "0.25", "--d", "0.1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["maximizer"] is False
    assert payload["rows"][0]["rate_loss_bound"] == pytest.approx(
        rate_loss_bound(0.25, 0.1), rel=1e-14
    )
    code, out, _ = run(
        capsys, ["rate-loss", "--p", "0.25", "--d-grid", "0.05:0.45:0.1", "--format", "csv"]
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 6


# ------------------------------------------------------------------ output file


def test_out_file(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    argv = [
        "bsms-curve", "--p", "0.25", "--d", "0.1", "--format", "csv", "--out", str(target),
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == ""  # nothing on stdout when writing to a file
    content = target.read_text()
    code, out, _ = run(capsys, argv[:-2])
    assert content == out
