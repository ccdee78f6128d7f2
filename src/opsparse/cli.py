"""Command-line driver: plans, transforms, synthesis, recovery experiments.

Signal files are JSON wrappers around a base64 little-endian float64 payload,
so they stay greppable while round-tripping exactly.  Experiment output is a
fixed-column CSV (or JSON); everything a trial reports is derived from its
seed, so identical invocations produce byte-identical CSV.
"""

from __future__ import annotations

import argparse
import base64
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .dct import chebyshev_transform_direct, chebyshev_via_fourier
from .jacobi import JacobiParams
from .ksparse import QueryOracle, ReductionConfig, large, recover
from .onesparse import RecoveryError, solve_one_sparse
from .plan import PlanFormatError, TransformPlan, build_plan, load_plan, save_plan

SIGNAL_FORMAT = "opsparse-signal"
SIGNAL_VERSION = 1


@dataclass
class TrialRecord:
    trial: int
    support: list[int]
    values: list[float]
    rec_support: list[int]
    rec_values: list[float]
    rel_l2_error: float
    queries: int
    wall_time: float
    success: bool

    CSV_FIELDS = ("trial", "support", "values", "rec_support", "rec_values",
                  "rel_l2_error", "queries", "success")

    def csv_row(self) -> list[str]:
        # wall time is deliberately absent: CSV must be seed-deterministic
        return [
            str(self.trial),
            ";".join(str(h) for h in self.support),
            ";".join(repr(v) for v in self.values),
            ";".join(str(h) for h in self.rec_support),
            ";".join(repr(v) for v in self.rec_values),
            repr(self.rel_l2_error),
            str(self.queries),
            str(int(self.success)),
        ]


# ---------------------------------------------------------------------------
# signal file helpers


def _encode_vector(x: np.ndarray) -> str:
    return base64.b64encode(np.asarray(x, dtype="<f8").tobytes()).decode("ascii")


def _decode_vector(blob: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(blob), dtype="<f8").copy()


def write_signal(path, vector: np.ndarray, alpha: float, beta: float,
                 truth: dict | None = None) -> None:
    doc = {
        "format": SIGNAL_FORMAT,
        "version": SIGNAL_VERSION,
        "n": int(len(vector)),
        "alpha": float(alpha),
        "beta": float(beta),
        "data": _encode_vector(vector),
    }
    if truth is not None:
        doc["truth"] = truth
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_signal(path) -> dict:
    """Decode a signal file; malformed files raise ValueError or KeyError."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != SIGNAL_FORMAT:
        raise ValueError(f"{path}: not an {SIGNAL_FORMAT} file")
    if doc.get("version") != SIGNAL_VERSION:
        raise ValueError(f"{path}: unsupported signal version {doc.get('version')}")
    if type(doc["n"]) is not int or doc["n"] < 0:
        raise ValueError(f"{path}: n must be a non-negative integer, got {doc['n']!r}")
    for name in ("alpha", "beta"):
        value = doc[name]
        # false for NaN, infinities and ints beyond the float range
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"{path}: {name} must be a finite number, got {value!r}")
        doc[name] = float(value)
    if not isinstance(doc["data"], str):
        raise ValueError(f"{path}: data must be a base64 string")
    truth = doc.get("truth")
    if truth is not None and not (isinstance(truth, dict)
                                  and isinstance(truth.get("support"), list)):
        raise ValueError(f"{path}: truth must be an object with a support list")
    vec = _decode_vector(doc["data"])
    if len(vec) != doc["n"]:
        raise ValueError(f"{path}: payload length {len(vec)} != n={doc['n']}")
    doc["vector"] = vec
    return doc


# ---------------------------------------------------------------------------
# synthesis


def synth_spectrum(n: int, k: int, sigma: float, noise: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random separated k-sparse spectrum; returns (support, values, noisy).

    Raises ValueError unless sigma and noise are finite and >= 0.
    """
    for name, val in (("sigma", sigma), ("noise", noise)):
        if not 0.0 <= val < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {val}")
    min_sep = int(math.ceil(sigma * n))
    if (k - 1) * min_sep >= n:
        raise ValueError(f"cannot place {k} spikes {min_sep} indices apart in [0, {n})")
    while True:
        support = np.sort(rng.choice(n, size=k, replace=False))
        if k == 1 or int(np.diff(support).min()) > min_sep:
            break
    values = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    spectrum = np.zeros(n)
    spectrum[support] = values
    noisy = spectrum
    if noise > 0.0:
        w = rng.standard_normal(n)
        w *= noise * large(k, spectrum) / np.linalg.norm(w)
        noisy = spectrum + w
    return support, values, noisy


# ---------------------------------------------------------------------------
# subcommands


def _plan_from_args(args) -> TransformPlan:
    return build_plan(JacobiParams(args.alpha, args.beta), args.n)


def cmd_plan(args) -> int:
    plan = _plan_from_args(args)
    save_plan(plan, args.out)
    print(json.dumps({
        "path": args.out,
        "n": plan.n,
        "alpha": plan.params.alpha,
        "beta": plan.params.beta,
        "flatness": plan.U,
    }))
    return 0


def cmd_transform(args) -> int:
    doc = read_signal(args.input)
    if args.plan:
        plan = load_plan(args.plan)
        if plan.n != doc["n"]:
            raise ValueError(f"plan N={plan.n} does not match signal n={doc['n']}")
        if (plan.params.alpha, plan.params.beta) != (doc["alpha"], doc["beta"]):
            raise ValueError(
                f"plan (alpha, beta)=({plan.params.alpha}, {plan.params.beta}) does not "
                f"match signal ({doc['alpha']}, {doc['beta']})")
    else:
        plan = build_plan(JacobiParams(doc["alpha"], doc["beta"]), doc["n"])
    vec = doc["vector"]
    out = plan.inverse(vec) if args.inverse else plan.forward(vec)
    write_signal(args.out, out, doc["alpha"], doc["beta"])
    print(json.dumps({"path": args.out, "n": plan.n,
                      "direction": "inverse" if args.inverse else "forward"}))
    return 0


def cmd_synth(args) -> int:
    if args.k < 1:
        raise ValueError(f"k must be >= 1, got {args.k}")
    rng = np.random.default_rng(args.seed)
    sigma = args.sigma if args.sigma is not None else 1.0 / (4.0 * args.k * args.k)
    support, values, spectrum = synth_spectrum(args.n, args.k, sigma,
                                               args.noise, rng)
    plan = _plan_from_args(args)
    vector = plan.inverse(spectrum)
    truth = {"support": [int(h) for h in support],
             "values": [float(v) for v in values],
             "sigma": sigma, "noise": args.noise, "seed": args.seed}
    write_signal(args.out, vector, args.alpha, args.beta, truth)
    print(json.dumps({"path": args.out, "n": args.n, "support": truth["support"]}))
    return 0


def cmd_recover1(args) -> int:
    doc = read_signal(args.input)
    plan = build_plan(JacobiParams(doc["alpha"], doc["beta"]), doc["n"])
    oracle = QueryOracle(doc["vector"])
    rng = np.random.default_rng(args.seed)
    try:
        result = solve_one_sparse(plan, oracle, args.eps, args.mu, rng)
    except RecoveryError as exc:
        print(json.dumps({"error": "recovery-failed", "message": str(exc),
                          "queries": oracle.count}), file=sys.stderr)
        return 3
    out = {"index": result.index, "value": result.value, "queries": oracle.count}
    truth = doc.get("truth")
    if truth:
        out["true_support"] = truth["support"]
        out["matched"] = result.index in truth["support"]
    print(json.dumps(out))
    return 0


def _run_trial(plan, cfg: ReductionConfig, sigma: float, noise: float,
               trial: int, seed_seq: np.random.SeedSequence) -> TrialRecord:
    rng = np.random.default_rng(seed_seq)
    support, values, spectrum = synth_spectrum(plan.n, cfg.k, sigma, noise, rng)
    clean = np.zeros(plan.n)
    clean[support] = values
    oracle = QueryOracle(plan.inverse(spectrum))
    start = time.perf_counter()
    zhat = recover(plan, oracle, cfg, rng=rng)
    wall = time.perf_counter() - start
    err = float(np.linalg.norm(zhat.to_dense(plan.n) - clean) / np.linalg.norm(clean))
    rec = sorted(zhat.items())
    return TrialRecord(
        trial=trial,
        support=[int(h) for h in support],
        values=[float(v) for v in values],
        rec_support=[int(h) for h, _ in rec],
        rec_values=[float(v) for _, v in rec],
        rel_l2_error=err,
        queries=oracle.count,
        wall_time=wall,
        success=err <= 3.0 * cfg.delta,
    )


def _worker_count(trials: int) -> int:
    """Worker processes: OPSPARSE_THREADS if set, else the CPU count, at most trials."""
    cap = os.environ.get("OPSPARSE_THREADS")
    if not cap:
        return min(os.cpu_count() or 1, trials)
    if not (cap.strip().isdecimal() and int(cap) >= 1):
        raise ValueError(f"OPSPARSE_THREADS must be an integer >= 1, got {cap!r}")
    return min(int(cap), trials)


def cmd_recover(args) -> int:
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    sigma = args.sigma
    gamma = args.gamma
    if gamma is None:
        if sigma is None:
            sigma = 1.0 / (4.0 * args.k * args.k)
        gamma = 2.0 * math.pi * sigma / 3.0
    elif sigma is None:
        # separation that backs the angular gap: 3*gamma/(2*pi) of the indices
        sigma = 3.0 * gamma / (2.0 * math.pi)
    cfg = ReductionConfig(args.k, args.delta, args.mu, gamma)
    workers = _worker_count(args.trials)
    plan = _plan_from_args(args)
    seqs = np.random.SeedSequence(args.seed).spawn(args.trials)

    records: list[TrialRecord] = []
    if workers == 1:
        for t in range(args.trials):
            records.append(_run_trial(plan, cfg, sigma, args.noise, t, seqs[t]))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            futures = [pool.submit(_run_trial, plan, cfg, sigma, args.noise,
                                   t, seqs[t]) for t in range(args.trials)]
            records = [f.result() for f in futures]
    records.sort(key=lambda r: r.trial)
    rate = sum(r.success for r in records) / len(records)

    if args.format == "json":
        payload = {
            "config": {
                "alpha": args.alpha, "beta": args.beta, "n": args.n, "k": args.k,
                "delta": args.delta, "mu": args.mu, "gamma": gamma,
                "sigma": sigma, "noise": args.noise, "seed": args.seed,
            },
            "trials": [asdict(r) for r in records],
            "success_rate": rate,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TrialRecord.CSV_FIELDS)
        for r in records:
            writer.writerow(r.csv_row())
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(json.dumps({"path": args.out, "trials": args.trials,
                          "success_rate": rate}))
    else:
        sys.stdout.write(text)
    return 0


def cmd_dct(args) -> int:
    doc = read_signal(args.input)
    vec = doc["vector"]
    out = chebyshev_via_fourier(vec)
    report = {"n": len(vec)}
    if args.check:
        direct = chebyshev_transform_direct(vec)
        report["max_deviation"] = float(np.abs(out - direct).max())
    write_signal(args.out, out, doc["alpha"], doc["beta"])
    report["path"] = args.out
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_basis_args(p):
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsparse",
        description="Sparse recovery experiments for Jacobi polynomial transforms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="build and save a transform plan")
    _add_basis_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("transform", help="apply the transform to a signal file")
    p.add_argument("--input", required=True)
    p.add_argument("--plan", help="plan file (otherwise built from the signal header)")
    p.add_argument("--inverse", action="store_true",
                   help="apply the inverse (adjoint) instead of the forward map")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("synth", help="synthesize a sparse-spectrum signal file")
    _add_basis_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma", type=float, default=None,
                   help="min index separation as a fraction of N (default 1/(4k^2))")
    p.add_argument("--noise", type=float, default=0.0,
                   help="noise norm relative to the k-th largest spike")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("recover1", help="run the 1-sparse solver on a signal file")
    p.add_argument("--input", required=True)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--mu", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_recover1)

    p = sub.add_parser("recover", help="run seeded k-sparse recovery trials")
    _add_basis_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mu", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=None,
                   help="angular spike separation (default derived from --sigma)")
    p.add_argument("--sigma", type=float, default=None,
                   help="index separation fraction (default 1/(4k^2))")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("dct", help="Chebyshev transform via the Fourier embedding")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--check", action="store_true",
                   help="also compare against the dense direct transform")
    p.set_defaults(func=cmd_dct)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, PlanFormatError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
