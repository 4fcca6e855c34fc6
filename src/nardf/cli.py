"""Command-line interface for the nonanticipative-RDF toolkit.

Subcommands
-----------
bsms-curve   rate-distortion curve of the binary symmetric Markov source,
             with the classical lower bound and the rate-loss upper bound
gauss-rate   nonanticipative RDF of a state-space Gaussian source read
             from a model file, with realization diagnostics
jscc-sim     matched zero-delay JSCC designs over AWGN channels and their
             Monte Carlo validation (modes: fb, nfb, iid, vector, sk)
excess       excess-distortion bounds (Hoeffding / reversible-chain),
             empirical exceedance, and the large-deviations rate function
rate-loss    the BSMS rate-loss upper bound and its maximizer

Exit codes: 0 success, 2 usage error, 3 numeric non-convergence, 4 domain
error.  jscc-sim and excess take --seed; without it the seed comes from
the NARDF_SEED environment variable, falling back to DEFAULT_SEED.  Output
under a fixed seed is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bsms, excess, gauss, jscc
from .errors import DomainError, NumericError
from .modelfile import ModelFormatError, load_model
from .numerics import BITS_PER_NAT, RngStream

DEFAULT_SEED = 1729
SEED_ENV_VAR = "NARDF_SEED"
MAX_GRID_POINTS = 10**6


class UsageError(Exception):
    pass


# ---------------------------------------------------------------- output


def _fmt_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    return str(value)


def _emit_csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return None if math.isnan(v) else v
    return obj


def _emit_json(payload):
    return json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n"


def _flatten(obj, prefix=""):
    # dotted key/value pairs for rendering a nested report as CSV
    if isinstance(obj, dict):
        out = []
        for key in sorted(obj):
            out.extend(_flatten(obj[key], f"{prefix}{key}."))
        return out
    if isinstance(obj, (list, tuple)):
        out = []
        for i, item in enumerate(obj):
            out.extend(_flatten(item, f"{prefix}{i}."))
        return out
    return [(prefix[:-1], obj)]


def _emit_report(payload, fmt):
    if fmt == "json":
        return _emit_json(payload)
    pairs = _flatten(_jsonify(payload))
    return _emit_csv(
        ("key", "value"),
        [(k, "nan" if v is None else v) for k, v in pairs],
    )


def _table(header, rows, meta, schema, fmt):
    if fmt == "json":
        payload = dict(meta)
        payload["schema"] = schema
        payload["rows"] = [dict(zip(header, row)) for row in rows]
        return _emit_json(payload)
    return _emit_csv(header, rows)


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- parsing


def _parse_grid(spec, flag):
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"{flag} expects lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(x) for x in parts)
    except ValueError:
        raise UsageError(f"{flag} expects numeric lo:hi:step, got {spec!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise UsageError(f"{flag}: entries must be finite")
    if step <= 0.0:
        raise UsageError(f"{flag}: step must be positive")
    if hi < lo:
        raise UsageError(f"{flag}: empty grid (hi < lo)")
    span = (hi - lo) / step + 1e-9  # may be inf; the grid has floor(span) + 1 points
    if span >= MAX_GRID_POINTS:
        raise UsageError(f"{flag}: grid exceeds {MAX_GRID_POINTS} points")
    return [lo + i * step for i in range(int(span) + 1)]


def _parse_int_grid(spec, flag):
    values = []
    for v in _parse_grid(spec, flag):
        n = int(round(v))
        if abs(v - n) > 1e-9 or n < 1:
            raise UsageError(f"{flag}: entries must be positive integers, got {v!r}")
        values.append(n)
    return values


def _require(value, flag):
    if value is None:
        raise UsageError(f"{flag} is required for this command")
    return value


def _distortion_grid(args):
    if args.d is not None and args.d_grid is not None:
        raise UsageError("--d and --d-grid are mutually exclusive")
    if args.d is not None:
        return [args.d]
    if args.d_grid is not None:
        return _parse_grid(args.d_grid, "--d-grid")
    raise UsageError("one of --d or --d-grid is required")


def _resolve_seed(args):
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_SEED


# ---------------------------------------------------------------- commands


def _cmd_bsms_curve(args):
    p = _require(args.p, "--p")
    ds = _distortion_grid(args)
    header = ("D", "rna", "gray", "gray_exact", "rate_loss_bound")
    rows = []
    for D in ds:
        rate = bsms.rna_bsms(p, D)
        gray, exact = bsms.classical_gray(p, D)
        rows.append((D, rate, gray, exact, bsms.rate_loss_bound(p, D)))
    return _table(header, rows, {"p": p}, "nardf/bsms-curve/v1", args.format)


def _cmd_gauss_rate(args):
    path = _require(args.model, "--model")
    model = load_model(path)
    ds = _distortion_grid(args)
    pdim = model.dims[2]
    header = (
        ["D", "rate", "xi", "iterations", "residual", "saturated", "closed_loop_radius"]
        + [f"lambda_{i + 1}" for i in range(pdim)]
        + [f"delta_{i + 1}" for i in range(pdim)]
    )
    rows = []
    for D in ds:
        sol = gauss.solve_realization(model, D)
        rows.append(
            [D, sol.rate, sol.xi, sol.iterations, sol.residual, sol.saturated,
             sol.closed_loop_radius]
            + [float(v) for v in sol.spectrum]
            + [float(v) for v in sol.delta]
        )
    meta = {"model": path, "dims": dict(zip(("m", "k", "p", "d"), model.dims))}
    return _table(header, rows, meta, "nardf/gauss-rate/v4", args.format)


def _scalar_design_payload(design):
    return {
        "D_min": design.D_min,
        "capacity": design.capacity,
        "matched_rate": design.matched_rate,
        "encoder_gain": design.encoder_gain,
        "decoder_gain": design.decoder_gain,
        "source_var": design.source_var,
        "input_var": design.input_var,
    }


def _scalar_report_payload(report):
    return {
        "samples": report.samples,
        "distortion": report.distortion,
        "distortion_se": report.distortion_se,
        "power": report.power,
        "power_se": report.power_se,
    }


def _note_single_shard(steps):
    if steps < jscc.MIN_STEPS_WITH_SE:
        print(f"nardf: note: --steps {steps} runs one shard, so the standard errors are "
              f"null; --steps {jscc.MIN_STEPS_WITH_SE} or more gives two shards",
              file=sys.stderr)


def _cmd_jscc_sim(args):
    mode = args.mode
    seed = _resolve_seed(args)
    rng = RngStream(seed)
    steps = args.steps
    if steps < 1:
        raise UsageError("--steps must be at least 1")
    payload = {
        "schema": "nardf/jscc-sim/v9",
        "mode": mode,
        "seed": seed,
    }

    if mode in ("fb", "nfb", "iid"):
        if mode == "iid":
            design = jscc.design_iid_scalar(args.sigma_x, args.sigma_vc, args.power)
            payload["parameters"] = {"sigma_x": args.sigma_x}
        else:
            alpha = _require(args.alpha, "--alpha")
            make = jscc.design_feedback_scalar if mode == "fb" else jscc.design_nofeedback_scalar
            design = make(alpha, args.sigma_w, args.sigma_vc, args.power)
            payload["parameters"] = {"alpha": alpha, "sigma_w": args.sigma_w}
        payload["parameters"].update(sigma_vc=args.sigma_vc, power=args.power, steps=steps)
        report = jscc.simulate_scalar(design, steps, rng)
        payload["analytic"] = _scalar_design_payload(design)
        payload["empirical"] = _scalar_report_payload(report)
    elif mode == "sk":
        trials = args.trials if args.trials is not None else 100_000
        if trials < 2:
            raise UsageError("--trials must be at least 2 for mode sk")
        res = jscc.schalkwijk_kailath(
            args.sigma_x, args.sigma_vc, args.power, steps, rng, trials=trials
        )
        payload["parameters"] = {
            "sigma_x": args.sigma_x, "sigma_vc": args.sigma_vc,
            "power": args.power, "steps": steps, "trials": trials,
        }
        payload["analytic"] = {
            "mse_per_step": list(res.analytic_mse),
            "capacity": res.capacity,
            "rate_per_use": res.capacity,
        }
        payload["empirical"] = {
            "mse_per_step": list(res.empirical_mse),
            "mse_se": list(res.empirical_se),
        }
    else:  # vector
        path = _require(args.model, "--model")
        D = _require(args.d, "--d")
        model = load_model(path)
        sol = gauss.solve_realization(model, D)
        pm = jscc.match_power(sol)
        report = jscc.simulate_vector(model, sol, steps, rng)
        payload["parameters"] = {"model": path, "D": D, "steps": steps}
        payload["analytic"] = {
            "distortion": sol.D,
            "rate": sol.rate,
            "xi": sol.xi,
            "spectrum": list(sol.spectrum),
            "delta": list(sol.delta),
            "total_power": pm.P,
            "per_channel_power": list(pm.allocation),
            "capacity": pm.capacity,
            "matched": pm.matched,
            "Lambda_inf": sol.Lambda_inf,
        }
        payload["empirical"] = {
            "samples": report.samples,
            "distortion": report.distortion,
            "distortion_se": report.distortion_se,
            "per_coordinate_distortion": report.per_coordinate_distortion,
            "per_coordinate_distortion_se": report.per_coordinate_distortion_se,
            "per_channel_power": report.per_channel_power,
            "per_channel_power_se": report.per_channel_power_se,
            "cov_K": report.cov_K,
            "cov_K_se": report.cov_K_se,
        }
    if mode != "sk":
        _note_single_shard(steps)
    return _emit_report(payload, args.format)


def _cmd_excess(args):
    p = _require(args.p, "--p")
    D = _require(args.d, "--d")
    design = bsms.optimal_reproduction(p, D)
    chain = bsms.joint_chain(design)

    if args.theta_grid is not None:
        thetas = _parse_grid(args.theta_grid, "--theta-grid")
        curve = excess.rate_function_curve(chain, thetas)
        header = ("theta", "rate_nats", "rate_bits", "lambda_star")
        rows = [
            (float(t), float(v), float(v) * BITS_PER_NAT, float(ls))
            for t, v, ls in zip(curve.thetas, curve.values, curve.lambda_star)
        ]
        meta = {"p": p, "D": D}
        return _table(header, rows, meta, "nardf/excess-rate-function/v3", args.format)

    gamma = _require(args.gamma, "--gamma (or --theta-grid)")
    if not 0.0 < gamma < math.inf:
        raise UsageError("--gamma must be positive and finite")
    ns = _parse_int_grid(_require(args.n_grid, "--n-grid"), "--n-grid")
    trials = args.trials if args.trials is not None else 0
    if trials < 0:
        raise UsageError("--trials must be nonnegative")
    seed = _resolve_seed(args)
    rng = RngStream(seed)
    d = D + gamma
    lam = excess.hoeffding_constants(design)
    lumped = excess.lumped_distortion_chain(chain)
    I_d = excess.exceedance_exponent(chain, d)

    header = ["n", "hoeffding", "hoeffding_valid", "reversible"]
    if trials > 0:
        header.append("empirical")
    header.append("I_d")
    rows = []
    for i, n in enumerate(ns):
        valid = lam > 0.0 and n * gamma > 2.0 / lam
        h = excess.hoeffding_bound(chain, design, n, gamma) if valid else float("nan")
        row = [n, h, valid, excess.reversible_bound(lumped, n, gamma)]
        if trials > 0:
            row.append(excess.simulate_excess_bsms(p, D, n, d, trials, rng.shard(i)))
        row.append(I_d)
        rows.append(row)
    meta = {
        "p": p, "D": D, "gamma": gamma, "d": d, "trials": trials, "seed": seed,
        "hoeffding_lambda": lam,
        "hoeffding_threshold_n": 2.0 / (lam * gamma) if lam > 0.0 else None,
        "lumped_lambda_2": excess.second_eigenvalue(lumped),
    }
    return _table(header, rows, meta, "nardf/excess-bounds/v4", args.format)


def _cmd_rate_loss(args):
    if args.p is None and args.d is None and args.d_grid is None:
        p_star, d_star, value = bsms.max_rate_loss()
        header = ("p", "D", "rate_loss_bound")
        rows = [(p_star, d_star, value)]
        meta = {"maximizer": True}
        return _table(header, rows, meta, "nardf/rate-loss/v2", args.format)
    p = _require(args.p, "--p")
    ds = _distortion_grid(args)
    header = ("p", "D", "rate_loss_bound")
    rows = [(p, D, bsms.rate_loss_bound(p, D)) for D in ds]
    return _table(header, rows, {"maximizer": False}, "nardf/rate-loss/v1", args.format)


# ---------------------------------------------------------------- parser


def _add_common(sp, default_format, seeded=False):
    sp.add_argument("--format", choices=("csv", "json"), default=default_format,
                    help=f"output format (default: {default_format})")
    sp.add_argument("--out", metavar="PATH", default=None,
                    help="write output to PATH instead of stdout")
    if seeded:
        sp.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nardf",
        description="Nonanticipative rate-distortion toolkit",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sp = sub.add_parser("bsms-curve", help="BSMS rate-distortion curve and bounds")
    sp.add_argument("--p", type=float, help="source flip probability")
    sp.add_argument("--d", type=float, help="single distortion level")
    sp.add_argument("--d-grid", metavar="LO:HI:STEP", help="distortion grid")
    _add_common(sp, "csv")
    sp.set_defaults(func=_cmd_bsms_curve)

    about = ("rate of the paper's Gaussian realization from a model file: achievable, "
             "not always the infimum of the sequential RDF program")
    sp = sub.add_parser("gauss-rate", help=about, description=about)
    sp.add_argument("--model", metavar="FILE", help="state-space model file")
    sp.add_argument("--d", type=float, help="single distortion level")
    sp.add_argument("--d-grid", metavar="LO:HI:STEP", help="distortion grid")
    _add_common(sp, "csv")
    sp.set_defaults(func=_cmd_gauss_rate)

    sp = sub.add_parser("jscc-sim", help="matched JSCC design + Monte Carlo validation")
    sp.add_argument("--mode", required=True, choices=("fb", "nfb", "iid", "vector", "sk"))
    sp.add_argument("--alpha", type=float, help="source pole (fb/nfb)")
    sp.add_argument("--sigma-w", type=float, default=1.0, help="process noise std (fb/nfb)")
    sp.add_argument("--sigma-x", type=float, default=1.0, help="source std (iid/sk)")
    sp.add_argument("--sigma-vc", type=float, default=1.0, help="channel noise std")
    sp.add_argument("--power", type=float, default=1.0, help="channel input power budget")
    sp.add_argument("--steps", type=int, default=100_000,
                    help="simulated steps (channel uses for sk)")
    sp.add_argument("--trials", type=int, default=None, help="Monte Carlo trials (sk)")
    sp.add_argument("--model", metavar="FILE", help="state-space model file (vector)")
    sp.add_argument("--d", type=float, help="distortion level (vector)")
    _add_common(sp, "json", seeded=True)
    sp.set_defaults(func=_cmd_jscc_sim)

    sp = sub.add_parser("excess", help="excess-distortion bounds and rate function")
    sp.add_argument("--p", type=float, help="source flip probability")
    sp.add_argument("--d", type=float, help="design distortion D")
    sp.add_argument("--gamma", type=float, help="excess margin (threshold d = D + gamma)")
    sp.add_argument("--n-grid", metavar="LO:HI:STEP", help="block-length grid")
    sp.add_argument("--theta-grid", metavar="LO:HI:STEP",
                    help="emit the rate-function curve on this grid instead of bounds")
    sp.add_argument("--trials", type=int, default=None,
                    help="Monte Carlo trials per n (0 omits the empirical column)")
    _add_common(sp, "csv", seeded=True)
    sp.set_defaults(func=_cmd_excess)

    sp = sub.add_parser("rate-loss", help="BSMS rate-loss bound (point, curve, or maximizer)")
    sp.add_argument("--p", type=float, help="source flip probability")
    sp.add_argument("--d", type=float, help="single distortion level")
    sp.add_argument("--d-grid", metavar="LO:HI:STEP", help="distortion grid")
    _add_common(sp, "csv")
    sp.set_defaults(func=_cmd_rate_loss)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        text = args.func(args)
        _write_output(text, args.out)
    except (UsageError, ModelFormatError) as exc:
        print(f"nardf: error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"nardf: numeric error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"nardf: domain error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
