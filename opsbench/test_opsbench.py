"""Tests of the benchmark itself, on shrunken copies of its workloads.

    PYTHONPATH=src python -m pytest -q opsbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from opsparse import ksparse  # noqa: E402
from tracing import STAGES, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OPS = 4
SMALL = {
    "ksparse": dataclasses.replace(WORKLOADS["ksparse-legendre-n2048"], n=256),
    "onesparse": dataclasses.replace(WORKLOADS["onesparse-legendre-n8192"], n=512),
    "transform": dataclasses.replace(WORKLOADS["transform-jacobi-n4096"], n=256),
}
SPARSE = ("ksparse", "onesparse")


def _run(kind, seed=7, traced=False):
    wl = SMALL[kind]
    seconds = OPS * wl.op_s_nominal
    if not traced:
        return run.run_workload(wl, seed, seconds, None, 1), None
    tracer = Tracer()
    with tracer.installed():
        res = run.run_workload(wl, seed, seconds, tracer, 1)
    return res, tracer


def _counts_and_supports(res):
    return [(r["queries"], _support(r["out"]), r["ok"]) for r in res["ops"]]


def _support(out):
    if out and isinstance(out[0], tuple):  # k-sparse: ((index, value), ...)
        return tuple(h for h, _ in out)
    return out[:1]  # one-sparse: (index, value) or ()


@pytest.fixture(scope="module")
def traced_ksparse():
    return _run("ksparse", traced=True)


@pytest.mark.parametrize("kind", SPARSE)
def test_counts_and_supports_repeat_at_fixed_seed(kind):
    first, _ = _run(kind)
    second, _ = _run(kind)
    assert len(first["ops"]) == OPS
    assert _counts_and_supports(first) == _counts_and_supports(second)
    assert all(r["ok"] for r in first["ops"])


@pytest.mark.parametrize("kind", SPARSE + ("transform",))
def test_traced_and_untraced_runs_agree(kind):
    plain, _ = _run(kind)
    traced, tracer = _run(kind, traced=True)
    assert len(tracer) > 0
    for a, b in zip(plain["ops"], traced["ops"], strict=True):
        assert (a["queries"], a["ok"], a["out"]) == (b["queries"], b["ok"], b["out"])
    assert run.ops_digest(plain["ops"]) == run.ops_digest(traced["ops"])


def test_solver_and_verify_queries_sum_to_oracle_count(traced_ksparse):
    res, _ = traced_ksparse
    for r in res["ops"]:
        assert r["by_caller"]["verify"] > 0
        assert r["by_caller"]["solver"] + r["by_caller"]["verify"] == r["queries"]
        assert 0 < r["distinct"] <= SMALL["ksparse"].n


def test_draw_and_stage_counters_add_up(traced_ksparse):
    _, tracer = traced_ksparse
    m = summarize(tracer, SMALL["ksparse"].n)
    draws = m["ksparse.draws"]
    assert draws == m["boxcar.build_boxcar.calls"] == m["onesparse.solve_one_sparse.calls"]
    verifies = sum(n == "ksparse.verify" for n in tracer.names)
    assert draws == m["onesparse.recovery_errors"] + m["ksparse.passband_rejects"] + verifies
    assert m["ksparse.verify_rejects"] <= verifies
    assert sum(m[f"onesparse.stage.{s}"] for s in STAGES) == draws
    assert m["onesparse.stage.failed"] == m["onesparse.recovery_errors"]
    assert 0 < m["ksparse.commits"] <= draws


def test_span_self_times_account_for_op_wall(traced_ksparse):
    res, tracer = traced_ksparse
    m = summarize(tracer, SMALL["ksparse"].n)
    op_wall = sum(r["op_s"] for r in res["ops"])
    gap = op_wall - m["trace.op_self_s"]
    assert 0.0 <= gap <= 1e-3 * len(res["ops"])
    layers = run.per_layer(SMALL["ksparse"], res, tracer, untraced_loop_s=res["loop_s"])
    assert layers["trace.unattributed_s"][0] <= layers["trace.overhead_est_s"][0]
    # every timed span belongs to an op, and setup spans do not
    assert {tracer.op[i] for i in range(len(tracer))} == {-1, *range(OPS)}


def test_tracer_restores_every_name():
    before = (ksparse.peeler, ksparse.SimulatedAccess.query_many,
              ksparse.SparseApprox.add)
    with Tracer().installed():
        assert ksparse.peeler is not before[0]
    assert (ksparse.peeler, ksparse.SimulatedAccess.query_many,
            ksparse.SparseApprox.add) == before


def test_transform_checks_catch_a_bad_round_trip():
    wl = SMALL["transform"]
    res, _ = _run("transform")
    assert res["setup_ok"] and res["file_mb"] > 0
    assert all(r["ok"] for r in res["ops"])
    plan, _, _ = wl.setup(str(ROOT / ".opsbench"))
    inp = wl.make_input(plan, np.random.SeedSequence(3), 0)
    back, chat = wl.op(plan, inp.values, None)
    assert wl.check(inp, (back, chat))
    assert not wl.check(inp, (back + 1e-8, chat))
    assert not wl.check(inp, (back, None))


def test_metric_names_match_benchmark_json(traced_ksparse):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res, tracer = traced_ksparse
    wl = SMALL["ksparse"]
    e2e = run.end_to_end(wl, res)
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = run.per_layer(wl, res, tracer, untraced_loop_s=res["loop_s"])
    assert {k: u for k, (_, u) in layers.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(v > 0 for v, _ in e2e.values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "transform-jacobi-n4096",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
