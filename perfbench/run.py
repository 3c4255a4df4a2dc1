#!/usr/bin/env python3
"""formulaflow benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload witness-sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's job list runs back to back, in whole
passes, until ``--seconds`` have gone by, and the end-to-end metrics are
printed.  With ``--trace 1`` the job list runs once untraced and once
traced, and the per-layer metrics are printed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See perfbench/README.md for the workloads and every metric.
"""

import os
import sys

# one BLAS/OpenMP thread, set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("witness-sweep", "large-network", "domain-sweep", "approx-witness")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs beyond it
UNBUILT = object()


class SetupError(RuntimeError):
    """The library could not be imported from the checkout's ``src``."""


def setup(name: str, seed: int):
    """Import formulaflow, generate the workload and run one warm-up job.

    Returns (workload, seconds taken)."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import formulaflow
    except ImportError as exc:
        raise SetupError(f"cannot import formulaflow from {SRC}: {exc}") from exc
    if Path(formulaflow.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"formulaflow was imported from {formulaflow.__file__}, "
                         f"not from {SRC}")
    from check import Checker
    from tracing import plain_lib
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    group = wl.warmup
    run_job(group, [UNBUILT], plain_lib(), Checker(), group.inputs[0])
    return wl, perf_counter() - start


def run_job(group, state, lib, chk, x):
    """One job: the group's set-up on its first job, then the job itself."""
    if state[0] is UNBUILT:
        state[0] = group.build(lib, chk)
    return group.run(lib, chk, state[0], x)


def run_pass(groups, lib, chk, latencies, job=run_job, tracer=None):
    """Every job of the groups once, in order; returns items completed."""
    items = 0
    index = 0
    for group in groups:
        state = [UNBUILT]
        chk.job_name = group.name
        for x in group.inputs:
            if tracer is not None:
                tracer.job = index
            error = None
            start = perf_counter()
            try:
                items += job(group, state, lib, chk, x)
            except Exception as exc:  # every unexpected error is a failed job
                error = exc
            latencies[index].append(perf_counter() - start)
            chk.end_job(error)
            index += 1
    return items


def timed_passes(wl, lib, chk, seconds):
    """Whole passes until ``seconds`` have gone by.

    Returns (items per pass, each pass's seconds, each job's latencies)."""
    latencies = [[] for _ in range(wl.n_jobs)]
    pass_seconds = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        items = run_pass(wl.groups, lib, chk, latencies)
        pass_seconds.append(perf_counter() - pass_start)
        if perf_counter() - start >= seconds:
            return items, pass_seconds, latencies


def self_test(wl) -> None:
    """Prove the checks are live: corrupt one library result by a hair in
    the warm-up group and require that the checker counts a failed job."""
    from check import Checker, self_test as checker_self_test
    from tracing import plain_lib

    checker_self_test()
    attr, corrupt = wl.tamper
    lib = plain_lib()
    original = getattr(lib, attr)
    setattr(lib, attr, lambda *args, **kwargs: corrupt(original(*args, **kwargs)))
    chk = Checker()
    group = wl.warmup
    run_pass([group], lib, chk, [[] for _ in group.inputs])
    if chk.failed == 0:
        raise AssertionError(f"a corrupted {attr} result passed every check")


def around(ordered, pos: float, half: float) -> float:
    """Mean of the sorted values ranked within ``half`` of position ``pos``.

    A quantile read from one order statistic jumps when two jobs of unlike
    cost swap ranks; averaging the few ranks around it does not."""
    window = [v for i, v in enumerate(ordered) if abs(i - pos) <= half]
    return statistics.fmean(window)


def job_latency_ms(latencies):
    """Each job's mean latency over its passes; then the median job and the
    job at the highest percentile with ``TAIL_BEYOND`` jobs beyond it, each
    averaged with the jobs ranked near it.

    Returns (p50 ms, tail ms, tail percentile, job count)."""
    per_job = sorted(statistics.fmean(samples) * 1e3 for samples in latencies)
    n = len(per_job)
    half = max(2, n // 40)
    p50 = around(per_job, (n - 1) / 2, half)
    if n <= 2 * TAIL_BEYOND:
        return p50, per_job[-1], 100.0, n
    # the window stays clear of the slowest TAIL_BEYOND // 2 jobs
    tail = around(per_job, n - 1 - TAIL_BEYOND, min(half, TAIL_BEYOND // 2))
    return p50, tail, 100.0 * (n - TAIL_BEYOND) / n, n


def setup_probes(name: str, seed: int, count: int) -> list:
    """Set-up time measured in ``count`` fresh interpreters, one at a time."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def calibration_ms() -> float:
    """Time of a fixed pure-Python ``Fraction`` loop, independent of the
    library: it tells a slow spell of the host apart from a slower program."""
    from fractions import Fraction

    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(1, i)
    return (perf_counter() - start) * 1e3


def environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, wl, setup_main):
    from check import Checker
    from tracing import plain_lib

    chk = Checker()
    calibration = [calibration_ms()]
    items, pass_seconds, latencies = timed_passes(wl, plain_lib(), chk, args.seconds)
    calibration.append(calibration_ms())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p50, tail, pct, n_jobs = job_latency_ms(latencies)
    setups = [setup_main] + setup_probes(args.workload, args.seed, SETUP_SAMPLES - 1)
    info = {
        "workload": wl.name, "seed": args.seed, "env": environment(),
        "items_per_pass": items, "pass_seconds": pass_seconds,
        "calibration_ms": calibration,
        "job_tail_percentile": pct, "job_tail_jobs": n_jobs, "setup_samples_s": setups,
        "margins": chk.margins(),
    }
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "items_per_s": metric(items * len(pass_seconds) / sum(pass_seconds), "1/s"),
        "job_p50_ms": metric(p50, "ms"),
        "job_tail_ms": metric(tail, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "pass_frac": metric(1.0 - chk.failed / chk.attempted, "fraction"),
    }
    return chk, info, metrics


def scale_points(chk) -> dict:
    """Single calls at fixed sizes, untraced: graph build of NAND trees with
    1024 and 4096 leaves, and the exact positive witness at 64 and 128."""
    from formulaflow import build_nand_tree, formula_resistance
    from tracing import plain_lib

    lib = plain_lib()
    out = {}
    for d in (10, 12):
        f = build_nand_tree(d)
        start = perf_counter()
        net = lib.formula_graph(f)
        out[f"scale.formula_graph.N{1 << d}_ms"] = (perf_counter() - start) * 1e3
        chk.exact("scale graph edges", len(net.edges), 1 << d)
    for d in (6, 7):
        f = build_nand_tree(d)
        program = lib.build_span_program(lib.formula_graph(f))
        ones = (1,) * (1 << d)
        start = perf_counter()
        report = lib.positive_witness(program, ones)
        out[f"scale.positive_witness.N{1 << d}_ms"] = (perf_counter() - start) * 1e3
        chk.exact("scale w+ = R/2", report.size, formula_resistance(f, ones) / 2)
    chk.end_job()
    return out


def traced(args, wl):
    from check import Checker
    from tracing import COUNTERS, REPORTED, Tracer, plain_lib

    chk = Checker()
    start = perf_counter()
    items = run_pass(wl.groups, plain_lib(), chk, [[] for _ in range(wl.n_jobs)])
    untraced_ips = items / (perf_counter() - start)

    tracer = Tracer()
    lib = tracer.lib()
    job = tracer.wrap("bench.job", run_job)
    saved = tracer.patch()
    try:
        start = perf_counter()
        items = run_pass(wl.groups, lib, chk, [[] for _ in range(wl.n_jobs)], job, tracer)
        traced_ips = items / (perf_counter() - start)
    finally:
        tracer.unpatch(saved)

    summary = tracer.summary()
    metrics = {}
    for name in REPORTED:
        metrics[f"{name}.calls"] = metric(summary["calls"].get(name, 0), "count")
        metrics[f"{name}.self_s"] = metric(summary["self_s"].get(name, 0.0), "s")
    for name in COUNTERS:
        metrics[name] = metric(tracer.counts[name], "count")
    for name, value in scale_points(chk).items():
        metrics[name] = metric(value, "ms")
    for name, value in chk.margins().items():
        metrics[name] = metric(value, "ratio")
    metrics["trace.overhead_frac"] = metric(1.0 - traced_ips / untraced_ips, "fraction")
    metrics["fail_frac"] = metric(chk.failed / chk.attempted, "fraction")
    info = {"workload": wl.name, "seed": args.seed, "env": environment(),
            "untraced_items_per_s": untraced_ips, "traced_items_per_s": traced_ips,
            "spans": len(tracer.spans)}
    write_trace(wl.name, info, summary, tracer.spans)
    return chk, info, metrics


def write_trace(name, info, summary, spans) -> None:
    """Spans as [name, start_us, end_us, parent, job], times from the first span."""
    OUT.mkdir(exist_ok=True)
    origin = spans[0][1] if spans else 0.0
    doc = {
        "info": info,
        "summary": summary,
        "spans": [[s[0], round((s[1] - origin) * 1e6, 1), round((s[2] - origin) * 1e6, 1),
                   s[3], s[4]] for s in spans],
    }
    with open(OUT / f"trace-{name}.json", "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        wl, setup_s = setup(args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    try:
        self_test(wl)
    except AssertionError as exc:
        print(f"error: self-test failed: {exc}", file=sys.stderr)
        return 3
    if args.trace:
        chk, info, metrics = traced(args, wl)
    else:
        chk, info, metrics = end_to_end(args, wl, setup_s)
    chk.report()
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": chk.failed == 0, "attempted": chk.attempted,
                      "failed": chk.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
