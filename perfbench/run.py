"""Layered benchmark of hodgelap: end-to-end runs and a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus_verify --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload, one table

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 0 only when every
operation passed its check.  Run records and trace spans go to
``.bench_out/`` in the checkout.

How runs are isolated and warmed:

* BLAS runs on one thread, fixed here before numpy loads, so dense
  eigensolver times do not depend on what else holds the second core.
* The shared host runs the same work up to half as fast again for minutes
  at a time.  ``hostref.py`` times a fixed pure-Python reference load in
  this process every 0.25 s during each untraced pass (and around each
  set-up probe), and ``setup_s`` and, on the interpreter-bound workloads,
  ``wall_s`` are scaled by it to seconds on a quiet host; time spent
  sampling is not counted.  Raw times stay in the run record.
* ``setup_s`` is the median scaled time of ``SETUP_PROBES`` fresh interpreters, each
  timed by this process from spawn until the child has imported the
  package, made its inputs and finished one warm-up call.  The probes run
  one at a time, before any timed pass.
* In this process the same set-up runs once, then passes repeat until the
  next one would end after ``--seconds`` (at least ``MIN_PASSES``).  Each
  pass starts from plain inputs, so every memo table in the package starts
  cold, and from a collected heap (``gc.collect()``).  ``wall_s`` is the
  median pass; ``peak_rss_mb`` is the process's high-water mark at the end
  of pass ``MIN_PASSES``.
* ``--trace 1`` alternates untraced and traced passes; per-layer numbers
  are medians over traced passes, which run without the host clock, and
  ``trace.overhead_ratio`` is the median traced pass over the median
  untraced pass, both unscaled.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("corpus_verify", "homology_ladder", "large_spectrum")
SETUP_PROBES = 3
REF_SAMPLES = 8
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 900


def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the benchmark's self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
        "loadavg": list(os.getloadavg()),
    }


def setup(args, workdir: Path):
    """Import the package, make the inputs from the seed, run one warm-up call."""
    t0 = time.perf_counter()
    import hodgelap.cli

    t1 = time.perf_counter()
    if not Path(hodgelap.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported hodgelap from {hodgelap.cli.__file__}, not {SRC}")
    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed, workdir, args.size == "tiny")
    t2 = time.perf_counter()
    work.warmup()
    t3 = time.perf_counter()
    return work, {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2}


def probe_main(args) -> int:
    work, parts = setup(args, OUT / f"tmp-{os.getpid()}")
    try:
        print(json.dumps(parts), flush=True)
    finally:
        work.close()
    return 0


def probe_setups(args, clock) -> list[dict]:
    """Time ``SETUP_PROBES`` set-ups in fresh interpreters, one after another.

    The host clock is sampled just before and after each probe.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    probes = []
    for _ in range(SETUP_PROBES):
        refs = clock.sample(REF_SAMPLES)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        parts = json.loads(line)
        parts["setup_s"] = elapsed
        parts["refs"] = refs + clock.sample(REF_SAMPLES)
        probes.append(parts)
    return probes


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    work, own_setup = setup(args, OUT / f"tmp-{os.getpid()}")
    import hostref
    import tracer
    import workloads

    facts = machine_facts(args.seed)
    print("facts: " + json.dumps(facts), file=sys.stderr)
    clock = hostref.CLOCK
    try:
        probes = probe_setups(args, clock)
        untraced, traced, tracers, pass_refs = [], [], [], []
        attempted = failed = 0
        failures: list[str] = []
        begin = time.perf_counter()
        while True:
            trace_this = bool(args.trace) and len(traced) < len(untraced)
            gc.collect()
            res = workloads.PassResult()
            if trace_this:
                tr = tracer.Tracer()
                with tr, tr.span(f"pass.{args.workload}"):
                    work.run_pass(res)
                traced.append(res.seconds)
                tracers.append(tr)
            else:
                first = len(clock.samples)
                clock.start()
                try:
                    work.run_pass(res)
                finally:
                    clock.stop()
                pass_refs.append(clock.samples[first:] or clock.sample(REF_SAMPLES))
                untraced.append(res.seconds)
                if len(untraced) == MIN_PASSES:
                    # The high-water mark creeps up with later passes; read it
                    # at a fixed pass so that it does not depend on host speed.
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            attempted += res.attempted
            failed += res.failed
            failures += res.failures
            elapsed = time.perf_counter() - begin
            if args.trace:
                enough = bool(traced)
            else:
                enough = len(untraced) >= MIN_PASSES
            if enough and elapsed + statistics.median(untraced + traced) > args.seconds:
                break
    finally:
        clock.stop()
        work.close()

    median = statistics.median
    setup_parts = {k: median(p[k] for p in probes) for k in ("import_s", "inputs_s", "warmup_s")}
    if args.trace:
        per_pass = [tracer.layer_metrics(tr.spans, tr.self_times()) for tr in tracers]
        metrics = {k: median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics.update({f"setup.{k}": v for k, v in setup_parts.items()})
        metrics["trace.overhead_ratio"] = median(traced) / median(untraced)
        with open(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl", "w") as handle:
            for k, tr in enumerate(tracers):
                for span in tr.spans:
                    handle.write(json.dumps([k] + span) + "\n")
    else:
        metrics = {
            "wall_s": median(hostref.scale(s, r) for s, r in zip(untraced, pass_refs))
            if work.scaled else median(untraced),
            "setup_s": median(hostref.scale(p["setup_s"], p["refs"]) for p in probes),
            "peak_rss_mb": peak_rss_mb,
        }
    raw = {"wall_s": median(untraced), "setup_s": median(p["setup_s"] for p in probes)}
    host_ref_s = median(clock.samples)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "facts": facts,
        "own_setup": own_setup, "setup_probes": probes, "raw": raw,
        "ref_quiet_s": hostref.REF_QUIET_S, "pass_refs": pass_refs,
        "untraced_pass_s": untraced, "traced_pass_s": traced,
        "attempted": attempted, "failed": failed, "failures": failures, "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for problem in failures[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    shown = ("wall_s", "setup_s", "peak_rss_mb") if not args.trace else (
        "trace.overhead_ratio", "kernels.exact_rank.self_s", "spectra.eigensolver.self_s")
    print(f"{args.workload} seed={args.seed} passes={len(untraced)}+{len(traced)}traced: "
          + " ".join(f"{k}={metrics[k]:.6g} {unit_of(k)}" for k in shown)
          + f" fail_ratio={failed / attempted:.6g} ratio ({failed}/{attempted} operations)"
          + f" raw_wall_s={raw['wall_s']:.6g} raw_setup_s={raw['setup_s']:.6g}"
          + f" host_ref_s={host_ref_s:.4g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit code {proc.returncode})")
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "fail_ratio", result["failed"] / result["attempted"], "ratio"))
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:34s} {value:14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hodgelap" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'hodgelap'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return probe_main(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
