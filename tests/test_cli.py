"""End-to-end tests of the command-line driver, run in-process."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opsparse import TransformPlan, load_plan
from opsparse.cli import main, read_signal, synth_spectrum, write_signal


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# signal files


def test_signal_roundtrip_is_exact(tmp_path, rng):
    vec = rng.standard_normal(100)
    path = tmp_path / "sig.json"
    truth = {"support": [3, 9], "values": [1.0, -2.0], "sigma": 0.1,
             "noise": 0.0, "seed": 4}
    write_signal(path, vec, 0.5, -0.25, truth)
    doc = read_signal(path)
    np.testing.assert_array_equal(doc["vector"], vec)
    assert doc["alpha"] == 0.5 and doc["beta"] == -0.25
    assert doc["truth"] == truth


def test_signal_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else", "version": 1}\n')
    with pytest.raises(ValueError, match="not an opsparse-signal file"):
        read_signal(path)
    path.write_text('[1, 2, 3]\n')
    with pytest.raises(ValueError, match="not an opsparse-signal file"):
        read_signal(path)


def test_signal_header_checks(tmp_path):
    path = tmp_path / "sig.json"
    write_signal(path, np.ones(4), 0.5, -0.25)
    good = json.loads(path.read_text())
    for key, value, match in (("n", -1, "n must be"), ("n", 4.0, "n must be"),
                              ("n", True, "n must be"), ("alpha", "0", "alpha must be"),
                              ("beta", 10**400, "beta must be"),
                              ("data", 7, "data must be"),
                              ("truth", [1], "truth must be")):
        path.write_text(json.dumps({**good, key: value}))
        with pytest.raises(ValueError, match=match):
            read_signal(path)
    path.write_text(json.dumps(good).replace("0.5", "NaN"))
    with pytest.raises(ValueError, match="alpha must be"):
        read_signal(path)


@pytest.fixture(scope="module")
def small_signal_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("sig") / "s.json"
    write_signal(path, np.arange(3.0), 0.5, -0.25,
                 {"support": [1], "values": [2.0], "sigma": 0.1, "noise": 0.0,
                  "seed": 1})
    return path.read_bytes()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@given(data=st.data())
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_signal_fuzz_raises_only_reported_errors(tmp_path, small_signal_text, data):
    """Random JSON documents and fields, truncations and byte flips of a small
    signal file decode or raise only the errors `main` reports."""
    blob = bytearray(small_signal_text)
    kind = data.draw(st.sampled_from(["document", "field", "truncate", "flip"]))
    if kind == "document":
        blob = json.dumps(data.draw(JSON_VALUES)).encode("ascii")
    elif kind == "field":
        doc = json.loads(blob)
        doc[data.draw(st.sampled_from(sorted(doc)))] = data.draw(JSON_VALUES)
        blob = json.dumps(doc).encode("ascii")
    elif kind == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    else:
        for pos in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1,
                                      max_size=4)):
            blob[pos] ^= data.draw(st.integers(1, 255))
    path = tmp_path / "fuzz.json"
    path.write_bytes(bytes(blob))
    try:
        doc = read_signal(path)
    except (ValueError, KeyError):
        return
    assert doc["vector"].shape == (doc["n"],)
    assert np.isfinite([doc["alpha"], doc["beta"]]).all() and np.isfinite(doc["vector"]).all()


def test_synth_spectrum_separation_and_noise(rng):
    support, values, noisy = synth_spectrum(256, 3, 0.05, 0.02, rng)
    assert np.all(np.diff(support) > int(np.ceil(0.05 * 256)))
    assert np.all((0.5 <= np.abs(values)) & (np.abs(values) <= 2.0))
    clean = np.zeros(256)
    clean[support] = values
    assert np.linalg.norm(noisy - clean) == pytest.approx(
        0.02 * np.abs(values).min(), rel=1e-12)


class BoundedDraws:
    """A generator whose ``choice`` fails after ``limit`` calls, so a
    rejection loop that cannot end fails a test instead of hanging it."""

    def __init__(self, rng, limit=1000):
        self.rng, self.left = rng, limit

    def choice(self, *args, **kwargs):
        self.left -= 1
        if self.left < 0:
            raise AssertionError("the rejection loop did not end")
        return self.rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_synth_spectrum_rejects_impossible_packing(rng):
    with pytest.raises(ValueError, match="cannot place"):
        synth_spectrum(256, 5, 0.5, 0.0, rng)
    # two spikes more than ceil(0.85 * 10) = 9 apart do not fit in [0, 10)
    with pytest.raises(ValueError, match="cannot place"):
        synth_spectrum(10, 2, 0.85, 0.0, BoundedDraws(rng))


def test_synth_spectrum_places_the_tightest_feasible_packing(rng):
    # more than ceil(0.8 * 11) = 9 apart in [0, 11): only {0, 10} fits
    support, _, _ = synth_spectrum(11, 2, 0.8, 0.0, BoundedDraws(rng))
    assert support.tolist() == [0, 10]


def test_synth_refuses_infeasible_separation(tmp_path, capsys):
    out = tmp_path / "s.json"
    code, _, stderr = run_cli(capsys, "synth", "--alpha", "0", "--beta", "0", "--n", "10",
                              "--k", "2", "--sigma", "0.85", "--out", str(out))
    assert code == 2
    assert "cannot place 2 spikes 9 indices apart" in json.loads(stderr)["message"]
    assert not out.exists()


@pytest.mark.parametrize("sigma, noise", [(0.05, -1.0), (0.05, math.nan), (0.05, math.inf),
                                          (-3.0, 0.0), (math.nan, 0.0)])
def test_synth_spectrum_rejects_bad_sigma_and_noise(rng, sigma, noise):
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        synth_spectrum(256, 2, sigma, noise, rng)


# ---------------------------------------------------------------------------
# plan / synth / transform subcommands


def test_plan_build_and_save(tmp_path, capsys):
    out = tmp_path / "plan.bin"
    code, stdout, _ = run_cli(capsys, "plan", "--alpha", "0", "--beta", "0",
                              "--n", "64", "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["n"] == 64 and "degree" not in report
    assert report["flatness"] > 0
    plan = load_plan(out)
    assert plan.n == 64 and plan.U == report["flatness"]


def test_plan_rejects_bad_parameters(tmp_path, capsys):
    out = tmp_path / "plan.bin"
    code, _, stderr = run_cli(capsys, "plan", "--alpha", "-1.5", "--beta", "0",
                              "--n", "16", "--out", str(out))
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "ValueError"
    assert not out.exists()
    code, _, stderr = run_cli(capsys, "plan", "--alpha", "0", "--beta", "0",
                              "--n", "0", "--out", str(out))
    assert code == 2
    assert "n must be >= 1" in json.loads(stderr)["message"]
    assert not out.exists()


def test_plan_reports_a_failed_root_gate(tmp_path, capsys):
    # at alpha = beta = -0.99 the first root sits at theta ~ 5e-5, where
    # float64 cos(theta) cannot bring p_n below the 1e-12 residual gate
    out = tmp_path / "plan.bin"
    code, _, stderr = run_cli(capsys, "plan", "--alpha", "-0.99", "--beta", "-0.99",
                              "--n", "4096", "--out", str(out))
    assert code == 2
    lines = stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert "root residual" in err["message"]
    assert "alpha=-0.99, beta=-0.99, N=4096" in err["message"]
    assert not out.exists()


def test_synth_then_transform_roundtrip(tmp_path, capsys):
    sig = tmp_path / "sig.json"
    code, stdout, _ = run_cli(capsys, "synth", "--alpha", "0", "--beta", "0",
                              "--n", "256", "--k", "2", "--seed", "3",
                              "--out", str(sig))
    assert code == 0
    truth = read_signal(sig)["truth"]
    assert json.loads(stdout)["support"] == truth["support"]

    spec = tmp_path / "spec.json"
    code, _, _ = run_cli(capsys, "transform", "--input", str(sig),
                         "--out", str(spec))
    assert code == 0
    spectrum = read_signal(spec)["vector"]
    dense = np.zeros(256)
    dense[truth["support"]] = truth["values"]
    np.testing.assert_allclose(spectrum, dense, atol=1e-10)

    back = tmp_path / "back.json"
    code, _, _ = run_cli(capsys, "transform", "--input", str(spec),
                         "--inverse", "--out", str(back))
    assert code == 0
    np.testing.assert_allclose(read_signal(back)["vector"],
                               read_signal(sig)["vector"], atol=1e-10)


def test_transform_rejects_mismatched_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.bin"
    run_cli(capsys, "plan", "--alpha", "0", "--beta", "0", "--n", "64",
            "--out", str(plan_path))
    sig = tmp_path / "sig.json"
    run_cli(capsys, "synth", "--alpha", "0", "--beta", "0", "--n", "256",
            "--k", "1", "--out", str(sig))
    code, _, stderr = run_cli(capsys, "transform", "--input", str(sig),
                              "--plan", str(plan_path), "--out",
                              str(tmp_path / "out.json"))
    assert code == 2
    assert "does not match" in json.loads(stderr)["message"]


def test_transform_rejects_plan_with_other_alpha_beta(tmp_path, capsys):
    plan_path = tmp_path / "plan.bin"
    run_cli(capsys, "plan", "--alpha", "0", "--beta", "0", "--n", "64",
            "--out", str(plan_path))
    sig = tmp_path / "sig.json"
    run_cli(capsys, "synth", "--alpha", "0.5", "--beta", "0", "--n", "64",
            "--k", "1", "--out", str(sig))
    code, _, stderr = run_cli(capsys, "transform", "--input", str(sig),
                              "--plan", str(plan_path), "--out",
                              str(tmp_path / "out.json"))
    assert code == 2
    assert "(alpha, beta)" in json.loads(stderr)["message"]
    assert not (tmp_path / "out.json").exists()


def test_transform_reports_bad_plan_file(tmp_path, capsys):
    sig = tmp_path / "sig.json"
    run_cli(capsys, "synth", "--alpha", "0", "--beta", "0", "--n", "64",
            "--k", "1", "--out", str(sig))
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"garbage")
    plan_v1 = tmp_path / "v1.bin"
    run_cli(capsys, "plan", "--alpha", "0", "--beta", "0", "--n", "64",
            "--out", str(plan_v1))
    blob = bytearray(plan_v1.read_bytes())
    blob[4:8] = struct.pack("<I", 1)
    plan_v1.write_bytes(blob)
    for path, error in ((garbage, "PlanMagicError"), (plan_v1, "PlanVersionError")):
        code, _, stderr = run_cli(capsys, "transform", "--input", str(sig),
                                  "--plan", str(path), "--out",
                                  str(tmp_path / "out.json"))
        assert code == 2
        assert json.loads(stderr)["error"] == error
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# recovery subcommands


def test_recover1_finds_synthesized_spike(tmp_path, capsys):
    sig = tmp_path / "sig.json"
    run_cli(capsys, "synth", "--alpha", "0", "--beta", "0", "--n", "256",
            "--k", "1", "--seed", "12", "--out", str(sig))
    code, stdout, _ = run_cli(capsys, "recover1", "--input", str(sig),
                              "--seed", "1")
    assert code == 0
    report = json.loads(stdout)
    assert report["matched"] is True
    assert report["index"] == read_signal(sig)["truth"]["support"][0]
    assert report["queries"] > 0


def test_recover1_reports_failure_on_empty_signal(tmp_path, capsys):
    sig = tmp_path / "zero.json"
    write_signal(sig, np.zeros(256), 0.0, 0.0)
    code, _, stderr = run_cli(capsys, "recover1", "--input", str(sig))
    assert code == 3
    assert json.loads(stderr)["error"] == "recovery-failed"


@pytest.mark.parametrize("argv, match", [
    (("recover1", "--input", "{sig}", "--eps", "0"), "eps must lie in"),
    (("recover1", "--input", "{sig}", "--eps", "-1"), "eps must lie in"),
    (("recover1", "--input", "{sig}", "--mu", "0"), "mu must lie in"),
    (("recover", "--alpha", "0", "--beta", "0", "--n", "64", "--k", "1",
      "--delta", "0.05", "--trials", "0", "--format", "json"), "trials must be"),
    (("recover", "--alpha", "0", "--beta", "0", "--n", "64", "--k", "1",
      "--delta", "0.05", "--trials", "-1"), "trials must be"),
    (("synth", "--alpha", "0", "--beta", "0", "--n", "64", "--k", "0",
      "--out", "{out}"), "k must be"),
    (("synth", "--alpha", "0", "--beta", "0", "--n", "64", "--k", "2",
      "--noise", "-1", "--sigma", "-3", "--out", "{out}"), "must be finite and >= 0"),
    (("synth", "--alpha", "0", "--beta", "0", "--n", "64", "--k", "2",
      "--noise", "nan", "--out", "{out}"), "noise must be finite and >= 0"),
    (("recover", "--alpha", "0", "--beta", "0", "--n", "64", "--k", "1",
      "--delta", "0.05", "--gamma", "1", "--trials", "1", "--noise", "-1"),
     "noise must be finite and >= 0"),
    (("recover", "--alpha", "0", "--beta", "0", "--n", "64", "--k", "1",
      "--delta", "0.05", "--gamma", "1", "--trials", "1", "--sigma", "-3"),
     "sigma must be finite and >= 0"),
    (("OPSPARSE_THREADS=abc", "recover", "--alpha", "0", "--beta", "0", "--n", "64",
      "--k", "1", "--delta", "0.05", "--gamma", "1"), "OPSPARSE_THREADS must be"),
    (("OPSPARSE_THREADS=0", "recover", "--alpha", "0", "--beta", "0", "--n", "64",
      "--k", "1", "--delta", "0.05", "--gamma", "1"), "OPSPARSE_THREADS must be"),
    (("recover", "--alpha", "0", "--beta", "0", "--n", "64", "--k", "1",
      "--delta", "nan", "--gamma", "1"), "delta must be positive and finite"),
    (("recover", "--alpha", "0", "--beta", "0", "--n", "64", "--k", "1",
      "--delta", "0.05", "--mu", "nan", "--gamma", "1"),
     "mu must be positive and finite"),
    (("recover", "--alpha", "0", "--beta", "0", "--n", "64", "--k", "1",
      "--delta", "0.05", "--mu", "1", "--gamma", "1"), "mu must lie in (0, 1)"),
    (("OPSPARSE_THREADS=-3", "recover", "--alpha", "0", "--beta", "0", "--n", "64",
      "--k", "1", "--delta", "0.05", "--gamma", "1"), "OPSPARSE_THREADS must be"),
    (("recover1", "--input", "{sig1}"), "needs N >= 2, got N = 1"),
    (("recover", "--alpha", "0", "--beta", "0", "--n", "1", "--k", "1",
      "--delta", "0.05", "--gamma", "1", "--trials", "1"), "needs N >= 2, got N = 1"),
    (("recover", "--alpha", "0", "--beta", "0", "--n", "32", "--k", "1",
      "--delta", "0.05", "--gamma", "1", "--trials", "1"),
     "filter degree 43 must be < N = 32"),
    (("dct", "--input", "{sig0}", "--out", "{out}"), "n must be >= 1"),
    # non-finite payloads are refused before a single entry is read
    (("recover1", "--input", "{nan}"), "payload entry 0 is nan, not a finite number"),
    (("transform", "--input", "{inf}", "--out", "{out}"),
     "payload entry 0 is inf, not a finite number"),
    (("dct", "--input", "{nan5}", "--out", "{out}", "--check"), "payload entry 5 is nan"),
])
def test_bad_arguments_are_reported(tmp_path, capsys, monkeypatch, argv, match):
    signals = {"sig": (np.zeros(64), 0.0), "sig1": (np.zeros(1), 0.0), "sig0": (np.zeros(0), 0.0),
               "nan": (np.full(64, np.nan), 0.0), "inf": (np.full(64, np.inf), 0.5),
               "nan5": (np.where(np.isin(np.arange(64), (5, 9)), np.nan, 1.0), 0.0)}
    paths = {name: tmp_path / f"{name}.json" for name in signals}
    for name, (vector, ab) in signals.items():
        write_signal(paths[name], vector, ab, ab)
    argv = [a.format(**paths, out=tmp_path / "out.json") for a in argv]
    if "=" in argv[0]:  # a leading NAME=value sets the environment, as in a shell
        name, value = argv.pop(0).split("=", 1)
        monkeypatch.setenv(name, value)
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "ValueError"
    assert match in err["message"]
    assert not (tmp_path / "out.json").exists()


def test_recover_reports_an_unbuildable_boxcar(tmp_path, capsys, monkeypatch):
    # gamma = 0.01 at N = 256 asks for boxcars float64 cannot verify: a
    # reported error with rc 2, not a traceback
    monkeypatch.setenv("OPSPARSE_THREADS", "1")
    out = tmp_path / "out.csv"
    code, stdout, stderr = run_cli(capsys, "recover", "--alpha", "0", "--beta", "0",
                                   "--n", "256", "--k", "2", "--delta", "0.05",
                                   "--gamma", "0.01", "--sigma", "0.01",
                                   "--trials", "1", "--out", str(out))
    assert code == 2
    assert stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "BoxcarConstructionError"
    assert "boxcar verification failed" in err["message"]
    assert not out.exists()


RECOVER_ARGS = ("recover", "--alpha", "0", "--beta", "0", "--n", "256",
                "--k", "2", "--delta", "0.05", "--gamma", "1.0",
                "--trials", "2", "--seed", "9")


def test_recover_csv_is_seed_deterministic(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPSPARSE_THREADS", "1")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    code, stdout, _ = run_cli(capsys, *RECOVER_ARGS, "--out", str(first))
    assert code == 0
    assert json.loads(stdout)["trials"] == 2
    code, _, _ = run_cli(capsys, *RECOVER_ARGS, "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()

    lines = first.read_text().splitlines()
    assert lines[0] == "trial,support,values,rec_support,rec_values,rel_l2_error,queries,success"
    assert len(lines) == 3
    for t, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert fields[0] == str(t)
        assert fields[-1] in ("0", "1")
        assert int(fields[-2]) > 0


def test_readme_default_gamma_trial_row_is_pinned(capsys, monkeypatch):
    # README's default-gamma trial: support, values and error are fixed by
    # the seed; the reads are the solver's memo and verify's, N entries each
    monkeypatch.setenv("OPSPARSE_THREADS", "1")
    code, stdout, _ = run_cli(capsys, "recover", "--alpha", "0", "--beta", "0",
                              "--n", "2048", "--k", "2", "--delta", "0.05",
                              "--trials", "1", "--seed", "7")
    assert code == 0
    assert stdout.splitlines() == [
        "trial,support,values,rec_support,rec_values,rel_l2_error,queries,success",
        "0,625;1634,-1.387026676144845;1.8032377150253531,625;1634,"
        "-1.3699086128826292;1.8044092871172397,0.007542109838496894,4096,1",
    ]


def test_recover_csv_identical_under_worker_pool(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPSPARSE_THREADS", "1")
    serial = tmp_path / "serial.csv"
    run_cli(capsys, *RECOVER_ARGS, "--out", str(serial))
    monkeypatch.setenv("OPSPARSE_THREADS", "2")
    pooled = tmp_path / "pooled.csv"
    code, _, _ = run_cli(capsys, *RECOVER_ARGS, "--out", str(pooled))
    assert code == 0
    assert serial.read_bytes() == pooled.read_bytes()


def test_pooled_recover_sends_the_plan_once_per_worker(capsys, monkeypatch):
    # a pickled plan drops its dense F, so each plan sent is one F rebuilt:
    # send it to each worker once, not with each trial
    sent = []
    getstate = TransformPlan.__getstate__

    def counted(plan):
        sent.append(plan.n)
        return getstate(plan)

    monkeypatch.setattr(TransformPlan, "__getstate__", counted)
    monkeypatch.setenv("OPSPARSE_THREADS", "2")
    args = list(RECOVER_ARGS)
    args[args.index("--trials") + 1] = "4"
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    assert 1 <= len(sent) <= 2


def test_recover_json_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPSPARSE_THREADS", "1")
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, *RECOVER_ARGS, "--format", "json",
                         "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["gamma"] == 1.0
    assert "c_d" not in payload["config"]
    assert len(payload["trials"]) == 2
    for rec in payload["trials"]:
        assert rec["wall_time"] >= 0.0  # timing lives only in the JSON report
        assert set(rec["support"]) == set(rec["rec_support"]) or not rec["success"]
    assert 0.0 <= payload["success_rate"] <= 1.0


def test_recover_k1_runs_inside_the_degree_budget(capsys, monkeypatch):
    # this setting's boxcars have degree 43 at every centre, budget 60
    monkeypatch.setenv("OPSPARSE_THREADS", "1")
    code, stdout, _ = run_cli(capsys, "recover", "--alpha", "0", "--beta", "0",
                              "--n", "256", "--k", "1", "--delta", "0.05",
                              "--gamma", "1", "--trials", "1", "--format", "json")
    assert code == 0
    assert len(json.loads(stdout)["trials"]) == 1


@pytest.mark.parametrize("flag", [("--profile", "stock"), ("--c-t0", "1"),
                                  ("--c-big", "2"), ("--c-d", "2")])
def test_recover_refuses_removed_multiplier_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--alpha", "0", "--beta", "0", "--n", "64", "--k", "1",
              "--delta", "0.05", "--gamma", "1", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dct subcommand


def test_dct_subcommand_checks_against_direct(tmp_path, capsys):
    sig = tmp_path / "sig.json"
    run_cli(capsys, "synth", "--alpha", "0", "--beta", "0", "--n", "256",
            "--k", "2", "--seed", "5", "--out", str(sig))
    out = tmp_path / "coeffs.json"
    code, stdout, _ = run_cli(capsys, "dct", "--input", str(sig), "--check",
                              "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["max_deviation"] <= 1e-9
    assert len(read_signal(out)["vector"]) == 256
