"""Benchmark of cubicalg: per-item timings on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are q5-derive, q5-catalog and fd-levels (see
workloads.py and README.md).  A run sets up, repeats
whole rounds of items one at a time until S seconds have passed and at
least three rounds are done, then checks every output.  The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  A traced run also
writes its spans to perfbench/out/trace-NAME-seedN.json.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

import layertrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUTDIR = os.path.join(HERE, "out")
MIN_ROUNDS = 3
SETUP_SAMPLES = 5
WATCHDOG_S = 170
# one thread per process, set before numpy is imported here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class WatchdogExpired(BaseException):
    """Raised by SIGALRM so that no item-level handler can swallow it."""


def _expire(signum, frame):
    raise WatchdogExpired("run exceeded %d s" % WATCHDOG_S)


def time_setup(workload, seed):
    """Seconds from starting a fresh interpreter to a finished set-up."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "setup",
           workload, str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError("set-up child exited %d" % code)
    return elapsed


def run_rounds(workload, seconds, tracer, setup_sample):
    """Whole rounds of items until `seconds` have passed and at least
    MIN_ROUNDS are done.

    `setup_sample()` is called before each of the first rounds, outside
    the timed phase, so that the set-up samples are spread over the run
    rather than bunched in one stretch of it.  Also returns the items
    completed per second in each round, and the peak resident set (KB)
    at the end of the first round, before the outputs kept for checking
    pile up.
    """
    times, outputs, failed, rates, phase = [], [], 0, [], 0.0
    while True:
        setup_sample()
        start = time.perf_counter()
        done = len(times)
        for label, fn in workload.items:
            if tracer:
                tracer.item = len(times) + failed
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception:
                out = None
                print("item %s failed:" % label, file=sys.stderr)
                traceback.print_exc()
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.active = False
            if out is None:
                failed += 1
            else:
                times.append(elapsed)
                outputs.append((label, out))
        elapsed = time.perf_counter() - start
        phase += elapsed
        rates.append((len(times) - done) / elapsed)
        if len(rates) == 1:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if phase >= seconds and len(rates) >= MIN_ROUNDS:
            break
    return times, outputs, failed, rates, phase, peak_kb


def merge_child_spans(outputs):
    """Spans of q5-derive's child processes, one item id per child."""
    spans = []
    counts = {}
    for item, (_, out) in enumerate(outputs):
        offset = len(spans)
        for name, layer, start, end, parent, _ in out.pop("spans"):
            spans.append([name, layer, start, end,
                          parent + offset if parent >= 0 else -1, item])
        for name, value in out.pop("counts").items():
            counts[name] = counts.get(name, 0) + value
    return spans, counts


def per_round(total, rounds):
    if isinstance(total, int) and total % rounds == 0:
        return total // rounds
    return total / rounds


def per_layer_metrics(summary, rounds):
    inclusive = summary["inclusive_s"]
    calls = summary["calls"]
    counts = summary["counts"]
    tries = counts.get("exactnum.try_div_calls", 0)
    misses = counts.get("exactnum.try_div_failed", 0)
    values = {
        "exactnum.try_div_calls": ("count", tries),
        "exactnum.try_div_failed": ("count", misses),
        "exactnum.polyfraction_builds":
            ("count", counts.get("exactnum.polyfraction_builds", 0)),
        "exactnum.multipoly_mul_calls":
            ("count", counts.get("exactnum.multipoly_mul_calls", 0)),
        "weylop.diffop_mul_calls":
            ("count", counts.get("weylop.diffop_mul_calls", 0)),
        "spectrum.unitarity_verdict_calls":
            ("count", calls.get("spectrum.unitarity_verdict", 0)),
        "schrodinger.sturm_count_calls":
            ("count", counts.get("schrodinger.sturm_count_calls", 0)),
        "algebra.q5_algebra_self_s":
            ("s", summary["self_s"].get("algebra.q5_algebra", 0.0)),
        "cli.self_s": ("s", summary["layer_self_s"].get("cli", 0.0)),
    }
    for name in (
        "exactnum.solve_exact", "weylop.suite", "weylop.express_in_basis",
        "casimir.casimir_coefficients", "casimir.realize",
        "ladder.derive_structure_function", "spectrum.energy_families",
        "spectrum.unitarity_verdict",
        "repcheck.matrix_module", "repcheck.relation_residuals",
        "repcheck.symmetric_gauge_residual", "schrodinger.q5_levels",
        "schrodinger.refined_levels",
    ):
        values[name + "_s"] = ("s", inclusive.get(name, 0.0))
    metrics = {
        name: {"value": per_round(value, rounds), "unit": unit}
        for name, (unit, value) in values.items()
    }
    # a ratio of totals, so not divided by the rounds
    metrics["exactnum.try_div_hit_ratio"] = {
        "value": (tries - misses) / tries if tries else 0.0, "unit": "ratio"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "cubicalg", "__init__.py")):
        print("run from a cubicalg checkout: %s/cubicalg is missing" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    signal.signal(signal.SIGALRM, _expire)
    signal.alarm(WATCHDOG_S)
    os.makedirs(OUTDIR, exist_ok=True)

    workload = workloads.SETUPS[args.workload](args.seed, OUTDIR, args.trace)
    tracer = None
    if args.trace and args.workload != "q5-derive":
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    setup_times = []

    def setup_sample():
        if len(setup_times) < SETUP_SAMPLES:
            setup_times.append(time_setup(args.workload, args.seed))

    times, outputs, failed, rates, phase, peak_kb = run_rounds(
        workload, args.seconds, tracer, setup_sample)
    rounds = len(rates)
    while len(setup_times) < SETUP_SAMPLES:
        setup_sample()
    if args.workload == "q5-derive":
        peak_kb = statistics.median(out["maxrss_kb"] for _, out in outputs)
    if args.trace:
        if tracer:
            spans, counts = tracer.spans, dict(tracer.counts)
        else:
            spans, counts = merge_child_spans(outputs)

    problems = workload.check(outputs)
    for problem in problems[:20]:
        print("check failed: %s" % problem, file=sys.stderr)

    attempted = len(times) + failed
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "attempted": attempted, "failed": failed,
        "item_times_s": times,
        "item_labels": [label for label, _ in outputs],
        "item_phase_s": phase, "item_p50_s": statistics.median(times),
        "round_items_per_s": rates,
        "setup_times_s": setup_times, "problems": problems,
    }
    if args.trace:
        summary = layertrace.summarize(spans, counts)
        metrics = per_layer_metrics(summary, rounds)
        record.update(summary=summary, spans=spans)
        path = "trace-%s-seed%d.json" % (args.workload, args.seed)
    else:
        metrics = {
            "item_p50_s": {"value": statistics.median(times), "unit": "s"},
            "items_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        path = "run-%s-seed%d.json" % (args.workload, args.seed)
    record["metrics"] = metrics
    with open(os.path.join(OUTDIR, path), "w") as fh:
        json.dump(record, fh)
    signal.alarm(0)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
