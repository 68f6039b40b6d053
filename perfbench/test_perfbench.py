"""Self-test of the benchmark: tiny smoke passes, oracle rejection, output contract.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostref  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import hodgelap  # noqa: E402
from hodgelap import _kernels, operators, spectra  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}
RP2 = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1],
       [1, 2, 4], [2, 3, 5], [3, 4, 1], [4, 5, 2], [5, 1, 3]]


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


# -- the declared metrics are the emitted ones ----------------------------


def test_benchmark_json_names_and_units():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert name.match(m["name"]), m["name"]
        assert m["unit"] == run.unit_of(m["name"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    emitted = set(tracer.layer_metrics([], [])) | {
        "setup.import_s", "setup.inputs_s", "setup.warmup_s", "trace.overhead_ratio"}
    assert PER_LAYER == emitted


# -- oracles accept right answers and reject corrupted ones ----------------


def test_rank_is_over_the_rationals():
    # RP^2 has no rational homology but b~_1 = b~_2 = 1 over GF(2).
    assert oracles.reduced_betti(RP2) == [0, 0, 0, 0]
    fbd = oracles.faces_by_dim(RP2)
    d1 = oracles.signed_coboundary(fbd[1], fbd[2])
    assert oracles.rank_mod_p(d1, 2) == 9
    assert oracles.rank_over_q(d1) == 10
    assert oracles.reduced_betti([[0, 1], [1, 2], [0, 2]]) == [0, 0, 1]
    assert oracles.skeleton_betti(5, 1) == [0, 0, 6]


def test_betti_oracle_rejects_off_by_one():
    facets = [[0, 1, 2], [2, 3], [3, 4], [4, 2], [5, 6]]
    expected = oracles.reduced_betti(facets)
    counts = [len(fs) for fs in oracles.faces_by_dim(facets).values()]
    good = {f"b~{j}": b for j, b in zip(range(-1, 3), expected)}
    assert oracles.check_betti_output(json.dumps(good), expected, counts) == []
    for key in good:
        bad = dict(good, **{key: good[key] + 1})
        assert oracles.check_betti_output(json.dumps(bad), expected, counts)


def test_spectrum_oracle_rejects_dropped_eigenvalue():
    tris = workloads.random_2complex(np.random.default_rng(1), 12, 20, 40)
    expect = workloads.LargeSpectrum._expectations(tris)
    k = hodgelap.from_facets(tris)
    for kind in ("normalized", "combinatorial"):
        for i in (0, 1):
            vals = spectra.spectrum(operators.laplacian(k, i, "up", operators.WeightScheme(kind))).values
            args = (expect["counts"][i], expect["traces"][(kind, i)],
                    float(i + 2) if kind == "normalized" else None)
            assert oracles.check_spectrum(vals, *args) == []
            assert oracles.check_spectrum(vals[1:], *args)
            assert oracles.check_spectrum(vals[:-1], *args)


def test_verify_oracle_rejects_failed_or_missing_reports():
    rc, out, err = workloads.run_cli(["verify", "--suite", "join"])
    counts = oracles.JOIN_SUITE_COUNTS
    assert oracles.check_verify_output(rc, out, err, counts)[0] == []
    lines = out.splitlines()
    failed = json.loads(lines[0])
    failed["status"] = "fail"
    corrupt = "\n".join([json.dumps(failed)] + lines[1:]) + "\n"
    assert oracles.check_verify_output(rc, corrupt, err, counts)[0]
    assert oracles.check_verify_output(rc, "\n".join(lines[1:]) + "\n", err, counts)[0]
    assert oracles.check_verify_output(1, out, err, counts)[0]


def test_random_complex_has_exact_counts_and_follows_the_seed():
    tris = workloads.random_2complex(np.random.default_rng(7), 30, 200, 330)
    fbd = oracles.faces_by_dim(tris)
    assert [len(fbd[d]) for d in (0, 1, 2)] == [30, 330, 200]
    assert tris == workloads.random_2complex(np.random.default_rng(7), 30, 200, 330)
    assert tris != workloads.random_2complex(np.random.default_rng(8), 30, 200, 330)


# -- host clock ------------------------------------------------------------


def test_host_clock_time_is_not_counted_in_operations():
    def spin():
        end = time.perf_counter() + 0.8
        while time.perf_counter() < end:
            pass

    clock, res = hostref.CLOCK, workloads.PassResult()
    first, paused = len(clock.samples), clock.paused_s
    clock.start()
    try:
        start = time.perf_counter()
        res.op("spin", spin, lambda _: [])
        wall = time.perf_counter() - start
    finally:
        clock.stop()
    taken = clock.samples[first:]
    assert len(taken) >= 2
    assert clock.paused_s - paused >= sum(taken)
    assert res.seconds == pytest.approx(wall - (clock.paused_s - paused), abs=1e-3)


def test_scale_divides_by_the_reference():
    slow = [2 * hostref.REF_QUIET_S] * 3
    assert hostref.scale(10.0, slow) == pytest.approx(5.0)
    assert hostref.scale(10.0, [hostref.REF_QUIET_S]) == pytest.approx(10.0)


# -- tracer ----------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    tr = tracer.Tracer()
    tr.spans = [["a", 0, 100, -1, None], ["b", 10, 40, 0, None], ["c", 15, 20, 1, None]]
    assert tr.self_times() == [70, 25, 5]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_smoke_pass_runs_clean_traced_and_untraced(name, tmp_path):
    work = workloads.WORKLOADS[name](3, tmp_path, tiny=True)
    try:
        work.warmup()
        plain = workloads.PassResult()
        work.run_pass(plain)
        traced = workloads.PassResult()
        with tracer.Tracer() as tr:
            work.run_pass(traced)
    finally:
        work.close()
    assert plain.failed == traced.failed == 0, plain.failures + traced.failures
    assert plain.attempted == traced.attempted > 0
    assert tr.spans
    assert spectra.exact_rank is _kernels.exact_rank
    assert not hasattr(spectra.exact_rank, "__wrapped__")
    m = tracer.layer_metrics(tr.spans, tr.self_times())
    if name == "corpus_verify":
        assert m["suites.join.reports"] == 20 and m["theorems.check_join.calls"] == 10
    elif name == "homology_ladder":
        assert m["spectra.betti.calls"] == 4 and m["kernels.exact_rank.calls"] > 0
        assert m["spectra.eigensolver.calls"] == 0
    else:
        assert m["spectra.eigensolver.calls"] == 4 and m["kernels.exact_rank.calls"] == 0
        assert m["cli.document_dict.calls"] == m["core.facets.calls"] == 1


# -- command-line contract -------------------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_contract(trace):
    proc = _run("--workload", "homology_ladder", "--seed", "2", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (PER_LAYER if trace == "1" else END_TO_END)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_all_workloads_table():
    proc = _run("--workload", "all", "--seed", "1", "--seconds", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    for name in run.WORKLOAD_NAMES:
        for metric in ("setup_s", "wall_s", "peak_rss_mb", "fail_ratio"):
            assert re.search(rf"^{name}\s+{metric}\s", proc.stdout, re.M), (name, metric)


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "corpus_verify", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
