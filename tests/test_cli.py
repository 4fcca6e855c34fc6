import hashlib
import json
import math
import os
import re
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

# alpha = 0.9, sigma_W = 1, c = 1, sigma_V = 0.5: saturated from
# D = 1/(1 - 0.81) + 0.25 = 5.513 on
SCALAR_MODEL_TEXT = """\
m 1
k 1
p 1
d 1
A 0.9
B 1
C 1
N 0.5
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
        ("m 1\nk 1\np 1\nd 0\nA 0.5\nB 1\nA 0.4\nC 1\n", "matrix 'A' declared twice"),
        ("m 1\nk -1\np 1\nd 0\nA 0.5\nB\nC 1\n", "'k' must be nonnegative"),
    ],
)
def test_parse_model_errors(capsys, tmp_path, text, match):
    with pytest.raises(ModelFormatError, match=match):
        parse_model_text(text)
    # the CLI reports a malformed model file as a usage error
    path = tmp_path / "model.txt"
    path.write_text(text)
    code, out, err = run(capsys, ["gauss-rate", "--model", str(path), "--d", "0.5"])
    assert (code, out) == (2, "")
    assert err.startswith("nardf: error:") and re.search(match, err)


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
    assert payload["schema"] == "nardf/gauss-rate/v4"
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


@pytest.mark.parametrize(
    "argv",
    [
        ["gauss-rate", "--d", "1.2"],
        ["jscc-sim", "--mode", "vector", "--d", "1.2", "--steps", "100"],
    ],
)
def test_overflowing_model_exit_4_with_one_line(capsys, tmp_path, argv):
    # BB' = 1e308 overflows in the first sweep: one error line, no RuntimeWarning
    huge = tmp_path / "huge.txt"
    huge.write_text(MODEL_TEXT.replace("B  1 0", "B  1e154 0"))
    code, out, err = run(capsys, argv + ["--model", str(huge)])
    assert code == 4
    assert out == ""
    assert err.startswith("nardf: domain error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["excess", "--p", "0.3", "--d", "0.1", "--gamma", "0.1", "--n-grid", "100:100:1",
     "--trials", "1000000000"],
    ["jscc-sim", "--mode", "sk", "--steps", "8", "--trials", "1000000000"],
    ["jscc-sim", "--mode", "sk", "--steps", "10000000000", "--trials", "100"],
    ["jscc-sim", "--mode", "fb", "--alpha", "0.5", "--steps", "1000000000000"],
    ["jscc-sim", "--mode", "vector", "--model", "MODEL", "--d", "1.2",
     "--steps", "100000001"],
    ["excess", "--p", "0.3", "--d", "0.1", "--gamma", "0.1",
     "--n-grid", "100000000:100000000:1", "--trials", "10000000"],
    ["jscc-sim", "--mode", "sk", "--steps", "10000000", "--trials", "10000000"],
], ids=["excess-trials", "sk-trials", "sk-steps", "fb-steps", "vector-steps",
        "excess-trial-steps", "sk-trial-steps"])
def test_oversize_monte_carlo_request_exit_4_with_one_line(capsys, model_file, argv):
    # each asks for more memory than a run may hold (a 477 MiB draw per
    # block, or 74.5 GiB of analytic MSEs), or for hours of simulation (more
    # than 10^8 steps, or more than 10^10 trials x steps, each count within
    # its own cap); refused before any allocation
    argv = [model_file if a == "MODEL" else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err.startswith("nardf: domain error:") and err.count("\n") == 1


def _scaled_model_text(s):
    # MODEL_TEXT with B and N scaled by s
    return MODEL_TEXT.replace("B  1 0\n   0 1", f"B  {s!r} 0\n   0 {s!r}").replace(
        "N  0.4 0.0\n   0.0 0.4", f"N  {0.4 * s!r} 0.0\n   0.0 {0.4 * s!r}")


@pytest.mark.parametrize("s", [1e-6, 1e6])
def test_gauss_rate_is_unit_free(capsys, tmp_path, model_file, s):
    # B, N scaled by s and the D grid by s^2 (crossing saturation near 3.37):
    # the same rates; an absolute stop or cap would end early or diverge
    grid = (0.2, 3.4, 0.8)
    unit = run(capsys, ["gauss-rate", "--model", model_file, "--d-grid", "%r:%r:%r" % grid])
    path = tmp_path / "scaled.txt"
    path.write_text(_scaled_model_text(s))
    scaled = run(capsys, ["gauss-rate", "--model", str(path),
                          "--d-grid", ":".join(repr(x * s * s) for x in grid)])
    assert unit[0] == scaled[0] == 0
    unit_rows = [line.split(",") for line in unit[1].splitlines()[1:]]
    scaled_rows = [line.split(",") for line in scaled[1].splitlines()[1:]]
    assert len(unit_rows) == len(scaled_rows) == 5
    for u, v in zip(unit_rows, scaled_rows):
        assert abs(float(v[1]) - float(u[1])) <= 1e-11
        assert v[5] == u[5]  # saturated


# ------------------------------------------------------------------- jscc-sim


def test_jscc_sim_feedback(capsys):
    argv = ["jscc-sim", "--mode", "fb", "--alpha", "0.5", "--steps", "20000", "--seed", "42"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "nardf/jscc-sim/v9"
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


@pytest.mark.parametrize("argv", [
    ["bsms-curve", "--p", "0.3", "--d", "0.1"],
    ["gauss-rate", "--model", "MODEL", "--d", "1.2"],
    ["rate-loss", "--p", "0.3", "--d", "0.1"],
], ids=lambda argv: argv[0])
def test_seed_is_refused_where_no_seed_is_read(capsys, model_file, argv):
    argv = [model_file if a == "MODEL" else a for a in argv]
    assert run(capsys, argv)[0] == 0
    code, out, err = run(capsys, argv + ["--seed", "5"])
    assert code == 2 and out == "" and "--seed" in err


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


def test_jscc_sim_vector_unstable_source_with_a_stable_loop(capsys, tmp_path):
    # rho(A) = 1.05: the filter error is stationary even though the source is not
    path = tmp_path / "unstable.txt"
    path.write_text("m 1\nk 1\np 1\nd 1\nA 1.05\nB 1\nC 1\nN 0.4\n")
    code, out, err = run(capsys, ["jscc-sim", "--mode", "vector", "--model", str(path),
                                  "--d", "0.5", "--steps", "40000", "--seed", "7"])
    assert code == 0 and err == ""
    emp = json.loads(out)["empirical"]
    assert abs(emp["distortion"] - 0.5) <= 4.0 * emp["distortion_se"]


def _flat_json(obj, prefix=""):
    # dotted keys of a JSON payload, list entries by index
    if isinstance(obj, dict):
        items = sorted(obj.items())
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [(prefix, obj)]
    return [pair for k, v in items for pair in _flat_json(v, f"{prefix}.{k}" if prefix else str(k))]


def _csv_cell(v):
    if v is None:  # a NaN, null in JSON
        return "nan"
    if isinstance(v, bool):
        return "true" if v else "false"
    return "%.12g" % v if isinstance(v, float) else str(v)


_CSV_CASES = [
    (["--mode", "iid", "--steps", "2000"], ["analytic.D_min", "empirical.distortion"]),
    (["--mode", "sk", "--steps", "5", "--trials", "200"],
     ["analytic.mse_per_step.3", "empirical.mse_se.5"]),
    # one shard: the standard errors are NaN
    (["--mode", "vector", "--model", "MODEL", "--d", "1.2", "--steps", "300"],
     ["analytic.Lambda_inf.0.1", "empirical.cov_K_se.1.0"]),
]


def test_jscc_sim_csv_flattens(capsys, model_file):
    for argv, keys in _CSV_CASES:
        argv = ["jscc-sim", "--seed", "3"] + [model_file if a == "MODEL" else a for a in argv]
        code, out, _ = run(capsys, argv + ["--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "key,value"
        code, payload, _ = run(capsys, argv)
        assert code == 0
        expect = [f"{k},{_csv_cell(v)}" for k, v in _flat_json(json.loads(payload))]
        assert lines[1:] == expect
        assert {"schema", *keys} <= {line.split(",", 1)[0] for line in lines[1:]}


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "nfb", "--alpha", "0.99999999"],
        ["--mode", "fb", "--alpha", "0.99999999", "--power", "1e-12"],
    ],
)
def test_jscc_sim_near_unit_root_runs_from_the_stationary_law(capsys, argv):
    # a chain that forgets its start at rate 1 - 1e-8 per step starts at its
    # stationary law, so two 200-step shards give finite standard errors
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["jscc-sim", *argv, "--steps", "400"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and err == ""
    emp = json.loads(out)["empirical"]
    assert all(math.isfinite(emp[key]) for key in ("distortion", "distortion_se",
                                                   "power", "power_se"))


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


def test_jscc_sim_subnormal_d_min_exit_4(capsys):
    # D_min = sW^2 q / P is about 5e-319 here: a subnormal D_min has lost the
    # digits that the rate = capacity check needs, so the design is refused
    # as out of range rather than failing that check (exit 3)
    code, out, err = run(capsys, [
        "jscc-sim", "--mode", "fb", "--alpha", "0", "--sigma-w", "2.38671054170664e-114",
        "--sigma-vc", "2.1517138380066456e-07", "--power", "5.573756994826617e+77",
        "--steps", "400", "--seed", "1"])
    assert code == 4
    assert out == ""
    assert "domain error" in err and "D_min" in err


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


def test_jscc_sim_vector_single_shard_note(capsys, model_file):
    argv = ["jscc-sim", "--mode", "vector", "--model", model_file, "--d", "1.2", "--seed", "3"]
    code, out, err = run(capsys, argv + ["--steps", "100"])
    assert code == 0
    emp = json.loads(out)["empirical"]
    assert emp["distortion_se"] is None
    assert all(v is None for v in emp["per_coordinate_distortion_se"])
    assert err.count("\n") == 1
    assert "one shard" in err and "--steps 400 " in err
    code, out, err = run(capsys, argv + ["--steps", "400"])
    assert code == 0
    assert err == ""
    assert json.loads(out)["empirical"]["distortion_se"] > 0.0


def _non_finite_paths(obj, path=""):
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite_paths(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for v in obj for p in _non_finite_paths(v, path)]
    if obj is None or (isinstance(obj, float) and not math.isfinite(obj)):
        return [path]
    return []


@pytest.mark.parametrize("value", ["1e-320", "1e-300", "1e-160", "1e160", "1e300", "1e308"])
@pytest.mark.parametrize("param", ["source", "--sigma-vc", "--power"])
@pytest.mark.parametrize("mode", ["fb", "nfb", "iid", "sk"])
def test_jscc_sim_scalar_extremes_end_in_an_exit_code(capsys, mode, param, value):
    # parameters whose squares, ratios or simulated sums under- or overflow
    # exit 0, 3 or 4; on exit 0 only the documented one-shard SEs may be null
    source = "--sigma-w" if mode in ("fb", "nfb") else "--sigma-x"
    extra = {"fb": ["--alpha", "0.5"], "nfb": ["--alpha", "0.5"], "iid": [],
             "sk": ["--trials", "2000"]}[mode]
    flag = source if param == "source" else param
    code, out, err = run(capsys, ["jscc-sim", "--mode", mode, *extra, flag, value,
                                  "--steps", "500"])
    assert code in (0, 2, 3, 4)
    if code == 0:
        allowed = {".empirical.distortion_se", ".empirical.power_se"} if "one shard" in err else set()
        assert set(_non_finite_paths(json.loads(out))) <= allowed
    else:
        assert out == ""


# In-process fuzz of every subcommand: one flag at a time takes each value
# below.  Every run ends in exit 0, 2, 3 or 4 with no traceback; on exit 0
# the JSON holds no Infinity, and null only where documented: the one-shard
# SEs of jscc-sim, and excess's Hoeffding bound on rows below its validity
# threshold.  A grid flag replaces the base's single --d.
FUZZ_FLOATS = ("nan", "inf", "-inf", "0", "-0.3", "1e300", "-1e300", "x")
FUZZ_INTS = ("0", "-3", "1e3", "x", "10000000000000")
FUZZ_GRIDS = ("nan:1:0.1", "0.1:inf:0.1", "0.1:0.2:0", "0.2:0.1:0.1", "-1:1:0.5",
              "0.1:0.2", "a:b:c", "0:1e300:1e-300", "1e300:1e300:1")
FUZZ_BASES = {
    "bsms-curve": (["bsms-curve", "--p", "0.3", "--d", "0.1"], ["--p", "--d"], [], ["--d-grid"]),
    "gauss-rate": (["gauss-rate", "--model", "MODEL", "--d", "1.2"], ["--d"], [], ["--d-grid"]),
    "jscc-fb": (["jscc-sim", "--mode", "fb", "--alpha", "0.5", "--steps", "100"],
                ["--alpha", "--sigma-w", "--sigma-vc", "--power"], ["--steps", "--seed"], []),
    "jscc-iid": (["jscc-sim", "--mode", "iid", "--steps", "100"],
                 ["--sigma-x", "--sigma-vc", "--power"], ["--steps"], []),
    "jscc-sk": (["jscc-sim", "--mode", "sk", "--steps", "4", "--trials", "100"],
                ["--sigma-x", "--sigma-vc", "--power"], ["--steps", "--trials"], []),
    "jscc-vector": (["jscc-sim", "--mode", "vector", "--model", "MODEL", "--d", "1.2",
                     "--steps", "100"], ["--d"], ["--steps"], []),
    "excess-bounds": (["excess", "--p", "0.3", "--d", "0.1", "--gamma", "0.1",
                       "--n-grid", "10:20:10", "--trials", "20"],
                      ["--p", "--d", "--gamma"], ["--trials", "--seed"], ["--n-grid"]),
    "excess-theta": (["excess", "--p", "0.3", "--d", "0.1", "--theta-grid", "0.1:0.9:0.4"],
                     ["--p", "--d"], [], ["--theta-grid"]),
    "rate-loss": (["rate-loss", "--p", "0.3", "--d", "0.1"], ["--p", "--d"], [], ["--d-grid"]),
}


def _with_flag(argv, flag, value):
    argv = list(argv)
    if flag == "--d-grid":  # in place of the single --d
        del argv[argv.index("--d"):argv.index("--d") + 2]
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


def _undocumented_non_finite(payload, err):
    one_shard = "one shard" in err
    hoeffding_ok = all(
        (row["hoeffding"] is None and not row["hoeffding_valid"])
        or (row["hoeffding"] is not None and math.isfinite(row["hoeffding"]))
        for row in payload.get("rows", []) if "hoeffding" in row)
    return [p for p in _non_finite_paths(payload)
            if not (one_shard and p.startswith(".empirical.") and p.endswith("_se"))
            and not (p == ".rows.hoeffding" and hoeffding_ok)]


@pytest.mark.parametrize("base", list(FUZZ_BASES))
def test_cli_fuzz_ends_in_an_exit_code_with_finite_output(capsys, model_file, base):
    argv, floats, ints, grids = FUZZ_BASES[base]
    argv = [model_file if a == "MODEL" else a for a in argv] + ["--format", "json"]
    cases = ([(f, v) for f in floats for v in FUZZ_FLOATS]
             + [(f, v) for f in ints for v in FUZZ_INTS]
             + [(f, v) for f in grids for v in FUZZ_GRIDS])
    bad = []
    for flag, value in cases:
        case = _with_flag(argv, flag, value)
        code, out, err = run(capsys, case)
        if code not in (0, 2, 3, 4) or "Traceback" in err:
            bad.append((case, code, err))
        elif code != 0 and out != "":
            bad.append((case, code, out))
        elif code == 0 and _undocumented_non_finite(json.loads(out), err):
            bad.append((case, out))
    assert not bad, f"{len(bad)} bad runs, e.g. {bad[:3]}"


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_excess_theta_grid_edges_print_finite_numbers(capsys, fmt):
    # lambda* is -inf / +inf at theta = 0 / 1; the output holds the finite
    # point where the search stopped, never Infinity or NaN
    argv = ["excess", "--p", "0.3", "--d", "0.1", "--theta-grid", "0:1:0.25", "--format", fmt]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert not any(word in out.lower() for word in ("inf", "nan"))
    if fmt == "json":
        payload = json.loads(out)
        assert payload["schema"] == "nardf/excess-rate-function/v3"
        assert [row["theta"] for row in payload["rows"]] == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_excess_bounds(capsys):
    argv = [
        "excess", "--p", "0.3", "--d", "0.1", "--gamma", "0.1",
        "--n-grid", "1000:3000:1000", "--format", "json",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "nardf/excess-bounds/v4"
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


def test_excess_bounds_at_a_nearly_reducible_chain(capsys):
    # p = 1e-12 barely mixes the joint chain; its stationary law is exact
    argv = ["excess", "--p", "1e-12", "--d", "0.1", "--gamma", "0.1",
            "--n-grid", "100:200:100", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert 0.0 < row["reversible"] <= 1.0 and row["I_d"] >= 0.0


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
    assert payload["schema"] == "nardf/rate-loss/v2"
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


# Seeded stdout of the BSMS closed forms, recorded before binary_entropy
# gained its 0-d path: 713 grid points at two p, csv and json, and the
# maximiser.  A scalar entropy that rounds differently (math.log2 in place
# of np.log2) moves the printed digits and fails this test.
BSMS_GRID = "0.0005:0.4995:0.0007"
# Stdout of gauss-rate (a D grid that crosses saturation near 3.37) and of
# excess (a theta grid, and the bounds without --trials), recorded before
# the Picard sweep and the tilted-Perron search checked their invariants once
# per call instead of once per iteration.  The model file is written to the
# working directory, since its path is printed.  The theta-grid pins were
# recorded again for schema v3, when the tilted Perron root moved from the
# 4-state eigensolve to the closed form on the two-state lump: I moves by
# ~1e-14 and lambda_star by ~4e-7, which the printed digits show.  The
# bounds json pin moved only by its schema string (v2 -> v3): its I_d kept
# its bits here, but moves in the 16th digit on other inputs.  It was
# recorded again for v4, when the lump's lambda_2 moved from an eigensolve
# of the symmetrised chain to the closed form 1 - a - b: lumped_lambda_2
# reads 0.1071428571428571 where v3 printed 0.10714285714285714 (3/28
# rounded), and the reversible column keeps its bytes here.  The gauss-rate
# pins were recorded again for its schema v3, when the Picard stop rule
# became relative to max|Sigma|: 854 -> 837 sweeps over the 50 rows, the
# rate within 1.3e-11 relative and the spectrum within 4.4e-12.  Its json
# pin moved by the schema string only for v4 (the 2x2 rows keep their
# bytes), and v4 added the scalar pins: a grid that crosses saturation near
# D = 5.51, where Sigma_inf is in closed form and each row is one sweep.  The
# jscc-sim pins, one per mode, were recorded for its schema v8: seed 7 and
# 400 steps (two shards, so stderr stays empty), or 4 uses x 100 trials for
# sk.  A seeded draw, gain or sum that rounds differently fails them.  They
# were recorded again for v9, which moved them by the schema string only,
# and v9 added the fb-power pin: there the fb matched_rate, now taken
# through the partially observed closed form, moves in its last digit
# (json 0.6609640474436812 -> ...813; csv prints 12 digits).
GOLDEN_ARGV = {
    ("gauss-rate", "model"): ["gauss-rate", "--model", "model.txt", "--d-grid", "0.1:5.0:0.1"],
    ("gauss-rate", "scalar"): ["gauss-rate", "--model", "scalar.txt", "--d-grid", "0.5:8.0:0.5"],
    ("excess", "theta-grid"): ["excess", "--p", "0.25", "--d", "0.1",
                               "--theta-grid", "0.05:0.95:0.05"],
    ("excess", "bounds"): ["excess", "--p", "0.25", "--d", "0.1", "--gamma", "0.1",
                           "--n-grid", "100:1000:100"],
    ("jscc-sim", "fb"): ["jscc-sim", "--mode", "fb", "--alpha", "0.5", "--steps", "400",
                         "--seed", "7"],
    ("jscc-sim", "nfb"): ["jscc-sim", "--mode", "nfb", "--alpha", "-0.6", "--power", "1.5",
                          "--steps", "400", "--seed", "7"],
    ("jscc-sim", "iid"): ["jscc-sim", "--mode", "iid", "--sigma-x", "1.3", "--steps", "400",
                          "--seed", "7"],
    ("jscc-sim", "vector"): ["jscc-sim", "--mode", "vector", "--model", "model.txt",
                             "--d", "1.2", "--steps", "400", "--seed", "7"],
    ("jscc-sim", "sk"): ["jscc-sim", "--mode", "sk", "--steps", "4", "--trials", "100",
                         "--seed", "7"],
    ("jscc-sim", "fb-power"): ["jscc-sim", "--mode", "fb", "--alpha", "0.3", "--power", "1.5",
                               "--steps", "400", "--seed", "7"],
}
BSMS_GOLDEN_SHA256 = {
    ("bsms-curve", "0.1", "csv"): "313ec45b2b9235eee914aa72a5f9d3976be47ad1b57377bdb68fda0137622566",
    ("bsms-curve", "0.1", "json"): "33b9abdb288ba0b75e15673852108fa207a428d5f260b5c14e0d2bbea9ebbdc8",
    ("bsms-curve", "0.3333", "csv"): "543be6e8e7a41528fdf3799dcb9c18b752c044e5983bb8cf1b923ed708c9317e",
    ("bsms-curve", "0.3333", "json"): "fb5faa4597905c7a0763bae354ebfdec3ff3116764405f674a7bffad6f3e4156",
    ("rate-loss", "0.1", "csv"): "8b5a7b25aa7a6ff5834526513c6b00d60d97af0d8df3e21dae5dd8538a1a2137",
    ("rate-loss", "0.1", "json"): "86cc2487ed42eff9586015090ab3d8abf484de6a72a59ce9e3e14cf07e9cac8f",
    ("rate-loss", "0.3333", "csv"): "10fb611fd6eb3affbc204f9c5da5eb696b6c58f666f550f4ea040fa2fbcf70db",
    ("rate-loss", "0.3333", "json"): "0ce2469266fbc8836ebd38020ac5deb697ff625971c75a218cd118609f4ddc68",
    ("rate-loss", None, "csv"): "066553d547285f5d792cb36495b98e7f79bb6f1a15b5a78e3586ac09df02afae",
    ("rate-loss", None, "json"): "1f3c6e31d21be6f306fcbcf13f7ca3dfe7f472afb43e78e5b2af6c522a657260",
    ("gauss-rate", "model", "csv"): "09a405be93f90129c92b2916d4d8e578bf8c666e94e0f700c1dfc043c7d72529",
    ("gauss-rate", "model", "json"): "53fb475d8ce208035e8c7acab30152e6a0e666259afcdb8117918e4e0611c5d9",
    ("gauss-rate", "scalar", "csv"): "2609dd44c93a6595902faeb9740bdb8079da11d2f620dc0f8a0c2d1cb0eb3c7a",
    ("gauss-rate", "scalar", "json"): "e563af209e464b900eb28fc1b0f25530e9c8a8ec90a9a244dd9005f7852c341f",
    ("excess", "theta-grid", "csv"): "0938bd7c1df193c2f8a6145f8065ec783f35f690bc0afac04917f2ba8bc4aae4",
    ("excess", "theta-grid", "json"): "652102bf794f50bc9427d920586c16c50780b3b4387b8ff15bc225b4c2e39d32",
    ("excess", "bounds", "csv"): "91d8f2510dfbf03aec7389e4d27edf7b02ac24f233004e7bf332d0899fd68655",
    ("excess", "bounds", "json"): "4c0802b420b581c295abe1bbaa9f491059799b6d384686ea4961b144cfd0ebb7",
    ("jscc-sim", "fb", "csv"): "4727b6e22bfd184de9ee97897f49801f93a44b76e27c3086e44e6c60d6b3b826",
    ("jscc-sim", "fb", "json"): "984694b55244bfc6aaf55be134da350320c78c97a0665e378975b794b843aa1e",
    ("jscc-sim", "nfb", "csv"): "eb9872d65f25d68bfa53801b8e1764b00a6f22ff762fd25d4264a03a53f4b4f6",
    ("jscc-sim", "nfb", "json"): "0280ffa5d9acab245f26b3aa605bf075b4459dbcda81f009eb0596af7bb9eaf8",
    ("jscc-sim", "iid", "csv"): "3b25aa62a9ded5d2c7fd4063ea225ce8791e42a50056598be3359fdb4fc5b1f4",
    ("jscc-sim", "iid", "json"): "22a9e487054aa9ec79255e8cfbb346a85d2a5d6351169c6370775c5c06b8f49e",
    ("jscc-sim", "vector", "csv"): "d3460ed4fda534da3faca61e40cf950509fa09725c226e4881db6948b7a0c611",
    ("jscc-sim", "vector", "json"): "c24457651498f6ecbe4d7472415836937aa7f7255c058bcacf9cfecb1cdf62ba",
    ("jscc-sim", "sk", "csv"): "c61925f01d93cb6a97d8392563245bd0db3776e691a9cc1f6152e628403faeaa",
    ("jscc-sim", "sk", "json"): "c307241ee7fe4ece06f70db1301cbe2a7d110c933263d5bff03293533b0ec672",
    ("jscc-sim", "fb-power", "csv"): "9f8c0ea89175a8e41064288500e7f6104c0ae6623346a0cb764feb24f3e1e555",
    ("jscc-sim", "fb-power", "json"): "ca097a7d71005536360109c18de805d421735c1944a86c85bcd1a775412c7c07",
}


@pytest.mark.parametrize("key", list(BSMS_GOLDEN_SHA256),
                         ids=lambda key: "-".join(str(part) for part in key))
def test_bsms_outputs_match_golden_bytes(capsys, monkeypatch, tmp_path, key):
    command, variant, fmt = key
    if (command, variant) in GOLDEN_ARGV:
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.txt").write_text(MODEL_TEXT)
        (tmp_path / "scalar.txt").write_text(SCALAR_MODEL_TEXT)
        argv = GOLDEN_ARGV[command, variant] + ["--format", fmt]
    else:
        argv = [command, "--format", fmt]
        if variant is not None:
            argv += ["--p", variant, "--d-grid", BSMS_GRID]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BSMS_GOLDEN_SHA256[key]


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
