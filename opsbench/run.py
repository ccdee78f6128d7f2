#!/usr/bin/env python3
"""opsparse benchmark: entries read and seconds, end to end and per layer.

    python3 opsbench/run.py --workload ksparse-legendre-n2048 --seed 1 \\
        --seconds 10 --trace 0
    python3 opsbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ``src/``.  One run
builds the plan the workload's ``setup_reps`` times (setup_s is the median),
renders the inputs for ``--seconds`` worth of ops from ``--seed``, warms up on
inputs from a disjoint seed stream, then times each op and checks its output.
``--trace 1`` reports per-layer metrics instead: it first runs the same
workload untraced in a child process to measure tracing overhead, then runs
it once more, with one set-up and every layer boundary wrapped.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("ksparse-legendre-n2048", "onesparse-legendre-n8192",
                  "transform-jacobi-n4096")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


# One BLAS thread per process (at most the cores we may use): on a shared
# machine a second thread made run-to-run times several times noisier.
BLAS_THREADS = 1


def bootstrap() -> int:
    """Pin BLAS threads and put ``src/`` on the path; returns the core count.

    Must run before numpy is imported.
    """
    if not (ROOT / "src" / "opsparse" / "__init__.py").is_file():
        raise SystemExit(f"opsbench: no opsparse sources under {ROOT / 'src'}")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy
    from opsparse import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "backend": _kernels.BACKEND,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "python": sys.version.split()[0],
    }


def run_workload(wl, seed: int, seconds: float, tracer, setup_reps: int) -> dict:
    """Set up, generate, warm up and time one workload in this process.

    With a tracer, spans are recorded in the last set-up and in the timed ops
    only; input generation, warm-up and the checks run untraced.
    """
    import numpy as np
    from opsparse.ksparse import QueryOracle
    from tracing import CountingOracle
    from workloads import plan_arrays

    workdir = ROOT / ".opsbench"
    workdir.mkdir(exist_ok=True)
    setup_s = []
    for rep in range(setup_reps):
        plan = None  # let the previous plan go before building the next
        gc.collect()
        if tracer is not None:
            tracer.active = rep == setup_reps - 1
        t0 = time.perf_counter()
        plan, setup_ok, file_mb = wl.setup(str(workdir))
        setup_s.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.active = False

    timed_root, warm_root = np.random.SeedSequence(seed).spawn(2)
    count = wl.op_count(seconds)
    inputs = [wl.make_input(plan, s, i) for i, s in enumerate(timed_root.spawn(count))]
    warm = [wl.make_input(plan, s, i)
            for i, s in enumerate(warm_root.spawn(wl.warmup_ops))]

    def feed(inp, traced):
        if not wl.sparse:
            return inp.values
        if traced:
            return CountingOracle(inp.values, tracer)
        return QueryOracle(inp.values)

    for inp in warm:
        wl.op(plan, feed(inp, False), np.random.default_rng(inp.algo_seq))

    gc.collect()  # start the timed phase with no garbage from set-up pending
    ops = []
    traced = tracer is not None
    loop_start = time.perf_counter()
    for i, inp in enumerate(inputs):
        source = feed(inp, traced)
        rng = np.random.default_rng(inp.algo_seq)
        if traced:
            tracer.current_op = i
            tracer.active = True
        t0 = time.perf_counter()
        out = wl.op(plan, source, rng)
        op_s = time.perf_counter() - t0
        if traced:
            tracer.active = False
        rec = {"op_s": op_s, "ok": wl.check(inp, out), "noisy": inp.noisy,
               "out": wl.describe(out),
               "queries": source.count if wl.sparse else wl.n}
        if traced and wl.sparse:
            rec["by_caller"] = dict(source.by_caller)
            rec["distinct"] = source.distinct()
            rec["note_s"] = source.note_s
        ops.append(rec)
    loop_s = time.perf_counter() - loop_start

    return {
        "setup_s": setup_s, "setup_ok": setup_ok, "file_mb": file_mb,
        "ops": ops, "loop_s": loop_s,
        "plan_mb": sum(a.nbytes for a in plan_arrays(plan)) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def ops_digest(ops: list) -> str:
    """Hash of every op's entries read, check result and output."""
    record = [[r["queries"], r["ok"], r["out"]] for r in ops]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def passed(wl, res: dict) -> bool:
    """Set-up checks held and each input class met its success floor."""
    if not res["setup_ok"]:
        return False
    for noisy in (False, True):
        oks = [r["ok"] for r in res["ops"] if r["noisy"] == noisy]
        if oks and sum(oks) < wl.min_success(noisy) * len(oks):
            return False
    return True


def end_to_end(wl, res: dict) -> dict:
    ops = res["ops"]
    return {
        "setup_s": (statistics.median(res["setup_s"]), "s"),
        "op_s.mean": (statistics.fmean(r["op_s"] for r in ops), "s"),
        "ops_per_s": (len(ops) / res["loop_s"], "1/s"),
        "queries_per_n.mean": (
            statistics.fmean(r["queries"] / wl.n for r in ops), "entries/N"),
        "success_rate": (sum(r["ok"] for r in ops) / len(ops), "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(wl, res: dict, tracer, untraced_loop_s: float) -> dict:
    from tracing import summarize

    m = summarize(tracer, wl.n)
    ops = res["ops"]
    traced_op_s = sum(r["op_s"] for r in ops)
    m["plan.mb"] = res["plan_mb"]
    m["plan.file_mb"] = res["file_mb"]
    m["ksparse.queries.solver"] = sum(
        r.get("by_caller", {}).get("solver", 0) for r in ops)
    m["ksparse.queries.verify"] = sum(
        r.get("by_caller", {}).get("verify", 0) for r in ops)
    m["ksparse.QueryOracle.distinct_per_n"] = (
        statistics.median(r["distinct"] / wl.n for r in ops) if wl.sparse else 0.0)
    m["trace.wall_s"] = res["loop_s"]
    m["trace.untraced_wall_s"] = untraced_loop_s
    m["trace.overhead_s"] = res["loop_s"] - untraced_loop_s
    m["trace.overhead_est_s"] = (m.pop("trace.op_spans") * tracer.span_cost()
                                 + sum(r.get("note_s", 0.0) for r in ops))
    m["trace.unattributed_s"] = traced_op_s - m.pop("trace.op_self_s")
    return {name: (value, layer_unit(name)) for name, value in m.items()}


def layer_unit(name: str) -> str:
    special = {"boxcar.degree.p50": "degree", "ksparse.commit_ratio": "ratio",
               "ksparse.QueryOracle.distinct_per_n": "entries/N"}
    if name in special:
        return special[name]
    for suffix, unit in (("_s", "s"), ("mb", "MB"), (".gflop_computed", "GFLOP")):
        if name.endswith(suffix):
            return unit
    return "count"


def untraced_child(args) -> tuple[float, str, dict]:
    """Run the workload untraced in a fresh process.

    Returns its timed phase's wall time, its ``ops_digest`` and its JSON.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    lines = done.stdout.strip().splitlines()
    tagged = dict(line.split(maxsplit=1) for line in lines
                  if line.startswith(("loop_s ", "ops_digest ")))
    return float(tagged["loop_s"]), tagged["ops_digest"], json.loads(lines[-1])


def run_one(args, env: dict) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    print(f"opsbench workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    if not args.trace:
        res = run_workload(wl, args.seed, args.seconds, None, wl.setup_reps)
        metrics = end_to_end(wl, res)
        print(f"loop_s {res['loop_s']!r}")
        print(f"ops_digest {ops_digest(res['ops'])}")
        correct = passed(wl, res)
    else:
        untraced_loop_s, untraced_digest, untraced = untraced_child(args)
        tracer = Tracer()
        with tracer.installed():
            res = run_workload(wl, args.seed, args.seconds, tracer, 1)
        tracer.save(ROOT / ".opsbench" / f"spans-{wl.name}.npz")
        metrics = per_layer(wl, res, tracer, untraced_loop_s)
        # The traced run must read exactly what the untraced run read, op by
        # op, and give the same outputs.
        digest = ops_digest(res["ops"])
        print(f"ops_digest {digest} untraced {untraced_digest}")
        correct = passed(wl, res) and digest == untraced_digest and untraced["correct"]
    ops = res["ops"]
    print(f"ops {len(ops)} (clean {sum(not r['noisy'] for r in ops)}, "
          f"noisy {sum(r['noisy'] for r in ops)}), passed {sum(r['ok'] for r in ops)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": sum(not r["ok"] for r in ops),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=2 * CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="nominal length of the timed phase; fixes the op count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    nproc = bootstrap()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, environment(nproc))


if __name__ == "__main__":
    sys.exit(main())
