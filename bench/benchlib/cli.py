"""Command line of the benchmark: run one workload, print every metric.

``BENCHMARK.json`` at the repository root is the catalogue: the names,
units and directions printed here come from it, and a workload that
produces a name it does not list is a bug.
"""

from __future__ import annotations

import argparse
import atexit
import cProfile
import json
import math
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import harness
from .harness import Run

CATALOGUE_PATH = os.path.join(harness.REPO_ROOT, "BENCHMARK.json")

PASSES = ("flatten", "partition", "segment", "allocate", "fixed_fallback", "refine", "codegen")


def load_catalogue() -> Dict:
    with open(CATALOGUE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def workload_classes() -> Dict[str, type]:
    """Name → workload class.  Imported late: these modules import the program."""
    from .wl_compile import CompileCold, CompileDiskWarm, CompileWarm
    from .wl_dse import DseCold, DseWarm
    from .wl_replay import ReplaySim
    from .wl_serve import ServeWarm

    classes = (CompileCold, CompileWarm, CompileDiskWarm, ServeWarm, DseCold, DseWarm, ReplaySim)
    return {cls.name: cls for cls in classes}


# ---------------------------------------------------------------------- #
# per-layer numbers every workload derives from its spans the same way
# ---------------------------------------------------------------------- #
def span_layer_metrics(tracer, ops: int) -> Dict[str, float]:
    """Counts and times per operation of the traced section, from the spans."""
    counts = tracer.counts

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: Dict[str, float] = {}
    for name in PASSES:
        metrics[f"pipeline.{name}_ms"] = per_op(tracer.total_ms(f"pipeline.{name}"))
    compile_ms = tracer.total_ms("compiler.compile")
    passes_ms = sum(tracer.total_ms(f"pipeline.{name}") for name in PASSES)
    metrics["pipeline.unattributed_share"] = ratio(compile_ms - passes_ms, compile_ms)

    solves = tracer.calls("allocation.solve")
    windows = tracer.calls("segmentation.window")
    metrics["allocation.solves"] = per_op(solves)
    metrics["allocation.solve_total_ms"] = per_op(tracer.total_ms("allocation.solve"))
    metrics["allocation.solve_mean_ms"] = ratio(tracer.total_ms("allocation.solve"), solves)
    metrics["allocation.infeasible_share"] = ratio(counts["segmentation.window.flagged"], windows)
    metrics["allocation.candidates_calls"] = per_op(tracer.calls("allocation.candidates"))
    metrics["allocation.candidates_total_ms"] = per_op(tracer.total_ms("allocation.candidates"))
    metrics["allocation.refine_calls"] = per_op(tracer.calls("allocation.refine"))
    metrics["allocation.refine_total_ms"] = per_op(tracer.total_ms("allocation.refine"))
    metrics["segmentation.windows_probed"] = per_op(windows)
    # Both passes run the same DP; what their spans do not hand to a
    # window allocation is the DP's own bookkeeping.
    metrics["segmentation.self_ms"] = per_op(
        tracer.self_ms(("pipeline.segment", "pipeline.fixed_fallback"))
    )
    metrics["cost.latency_calls"] = per_op(counts["cost.latency"])

    lookups = tracer.calls("cache.lookup")
    metrics["cache.lookups"] = per_op(lookups)
    metrics["cache.hit_rate"] = ratio(counts["cache.lookup.flagged"], lookups)
    metrics["cache.lookup_mean_us"] = tracer.mean_us("cache.lookup")
    metrics["memo.hits"] = per_op(counts["memo.lookup.flagged"])
    metrics["store.get_mean_us"] = tracer.mean_us("store.get")
    metrics["store.put_mean_us"] = tracer.mean_us("store.put")
    metrics["store.disk_hits"] = per_op(counts["store.get.flagged"])

    metrics["wire.decode_ms"] = tracer.mean_us("wire.decode") / 1000.0
    metrics["replay.compile_pool_ms"] = per_op(tracer.total_ms("replay.compile_pool"))
    metrics["replay.schedule_ms"] = per_op(tracer.total_ms("replay.schedule"))
    return metrics


def count_python_calls(workload) -> int:
    """Python-level calls one operation makes on this thread (repeats exactly)."""
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        workload.op(lambda: None)
    finally:
        profile.disable()
    workload.after_op()
    return sum(entry.callcount for entry in profile.getstats())


# ---------------------------------------------------------------------- #
# one run
# ---------------------------------------------------------------------- #
def execute(run: Run, catalogue: Dict, save_dir: Optional[str]) -> int:
    from .tracing import Tracer, install_layer_wrappers

    workload = workload_classes()[run.workload](run)
    end_to_end: Dict[str, float] = {}
    per_layer: Dict[str, float] = {}
    detail: Dict[str, object] = {}
    try:
        workload.setup()
        run.lap()
        calib_before = run.setup_watch.calibrations[-1]
        if not run.trace:
            timings = workload.measure(run.seconds)
        else:
            # Half the budget untraced, half with the wrappers installed:
            # the gap between the two is what tracing costs.  One block
            # each: these numbers attribute time, they are not compared.
            timings = workload.measure(run.seconds / 2.0, blocks=1)
            tracer = Tracer()
            install_layer_wrappers(tracer)
            try:
                traced = workload.measure(run.seconds / 2.0, blocks=1)
            finally:
                tracer.uninstall()
            py_calls = count_python_calls(workload)
        calib_after = harness.calibrate()

        workload.check()
        end_to_end.update(workload.quality())
        end_to_end["setup_s"] = run.setup_watch.normalised
        end_to_end["op_p50_ms"] = timings.p50_ms
        end_to_end["throughput_per_s"] = timings.throughput_per_s

        calibrations = [calib_before, *timings.calibrations, calib_after]
        c1, calib_median, c3 = harness.quartiles(calibrations)
        q1, median, q3 = harness.quartiles(timings.samples)
        detail.update(
            {
                "setup": {
                    "raw_s": run.setup_watch.raw,
                    "stages": len(run.setup_watch.calibrations) - 1,
                },
                "op": {
                    "items": workload.items, "samples": len(timings.samples),
                    "median_ms": median * 1000.0, "q1_ms": q1 * 1000.0, "q3_ms": q3 * 1000.0,
                    "raw_median_ms": harness.quartiles(timings.raw_samples)[1] * 1000.0,
                    "blocks": [len(block) for block in timings.blocks],
                },
                "calibration": {
                    "samples": len(calibrations), "median_ms": calib_median,
                    "q1_ms": c1, "q3_ms": c3,
                },
                "noisy": (c3 - c1) > harness.CALIBRATION_TOLERANCE * calib_median,
            }
        )

        if run.trace:
            ops = len(traced.samples)
            per_layer.update(span_layer_metrics(tracer, ops))
            per_layer.update(workload.layer_metrics(tracer))
            per_layer.update(workload.layer)
            per_layer["store.bytes"] = float(harness.dir_bytes(workload.cache_dir()))
            per_layer["machine.calib_ms"] = calib_median
            per_layer["py_calls"] = float(py_calls)
            per_layer["trace.overhead_share"] = traced.p50_ms / timings.p50_ms - 1.0
            per_layer["op.samples"] = float(len(traced.samples))
            per_layer["op.p95_ms"] = harness.percentile(traced.samples, 95.0) * 1000.0
            os.makedirs(harness.OUT_DIR, exist_ok=True)
            span_file = os.path.join(
                harness.OUT_DIR, f"spans-{run.workload}-seed{run.seed}.jsonl"
            )
            tracer.write(span_file, {"workload": run.workload, "seed": run.seed, "ops": ops})
            detail["span_file"] = os.path.relpath(span_file, harness.REPO_ROOT)
            detail["spans"] = len(tracer.spans)
    finally:
        workload.close()
        # The daemon's peak only shows once it is reaped.
        run.reap()
        end_to_end["peak_rss_mb"] = harness.peak_rss_mb()
        run.cleanup()

    section = "per_layer" if run.trace else "end_to_end"
    produced = per_layer if run.trace else end_to_end
    listed = {entry["name"]: entry for entry in catalogue[section]}
    unknown = sorted(set(produced) - set(listed))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json {section}: {unknown}")
    metrics = {}
    for name, entry in listed.items():
        # A layer the workload never entered did no work: 0, not absent.
        value = produced.get(name, 0.0) if run.trace else produced[name]
        if not math.isfinite(value):
            run.fail(f"metric {name} is not finite ({value})")
            value = 0.0
        metrics[name] = {"value": value, "unit": entry["unit"]}

    report(run, workload, metrics, end_to_end, detail)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    if save_dir:
        os.makedirs(save_dir, exist_ok=True)
        name = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
        with open(os.path.join(save_dir, name), "w", encoding="utf-8") as handle:
            json.dump(
                {"workload": run.workload, "seed": run.seed, "seconds": run.seconds,
                 "trace": run.trace, "machine": harness.machine_block(),
                 "detail": detail, "result": result,
                 # A traced run still measured these, on its untraced half.
                 "end_to_end": end_to_end},
                handle, indent=1, sort_keys=True,
            )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(run: Run, workload, metrics: Dict, end_to_end: Dict, detail: Dict) -> None:
    """The human-readable part: every metric by name with its unit."""
    machine = harness.machine_block()
    print(
        f"workload {run.workload} seed {run.seed} seconds {run.seconds:g} "
        f"trace {int(run.trace)}{' smoke' if run.smoke else ''}"
    )
    print(
        f"machine cores={machine['cores']} python={machine['python']} "
        f"numpy={machine['numpy']} scipy={machine['scipy']}"
    )
    op = detail.get("op")
    if op:
        print(
            f"op ({op['items']}): n={op['samples']} median={op['median_ms']:.3f} ms "
            f"q1={op['q1_ms']:.3f} ms q3={op['q3_ms']:.3f} ms blocks={op['blocks']} "
            f"(plain wall median {op['raw_median_ms']:.3f} ms)"
        )
        calib = detail["calibration"]
        print(
            f"calibration kernel: n={calib['samples']} median={calib['median_ms']:.3f} ms "
            f"q1={calib['q1_ms']:.3f} ms q3={calib['q3_ms']:.3f} ms "
            f"(nominal {harness.CALIBRATION_NOMINAL_MS:g} ms)"
            f"{'  NOISY (quartiles > 10% apart)' if detail['noisy'] else ''}"
        )
    if run.trace:
        print(f"spans {detail.get('spans', 0)} written to {detail.get('span_file')}")
        for name in ("op_p50_ms", "throughput_per_s", "setup_s", "peak_rss_mb"):
            if name in end_to_end:
                print(f"  (untraced half) {name} = {end_to_end[name]:.6g}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"operations attempted={run.attempted} failed={len(run.failures)}")
    for failure in run.failures[:20]:
        print(f"  FAILED {failure}")


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def parse_args(argv: List[str], catalogue: Dict) -> argparse.Namespace:
    names = [entry["name"] for entry in catalogue["workloads"]]
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", choices=names, help="workload to run")
    parser.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"length of the timed section (default {catalogue['run_seconds']})",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="minimal budgets and tiny models: checks the harness, measures nothing")
    parser.add_argument("--save", metavar="DIR", default=None,
                        help="also write the run document here (input of bench/compare.py)")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(catalogue["run_seconds"])
    args.trace = bool(args.trace or args.traced)
    return args


def run_all(args: argparse.Namespace, catalogue: Dict) -> int:
    """Each workload in its own process, so set-up time and peak RSS are its own."""
    script = os.path.join(harness.BENCH_DIR, "run.py")
    worst = 0
    for entry in catalogue["workloads"]:
        command = [sys.executable, script, "--workload", entry["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        if args.smoke:
            command.append("--smoke")
        if args.save:
            command += ["--save", args.save]
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv: List[str], started: Optional[float] = None, handle_signals: bool = False) -> int:
    if not os.path.isdir(os.path.join(harness.SRC_DIR, "repro")):
        print(f"bench: the program under test is missing ({harness.SRC_DIR}/repro)", file=sys.stderr)
        return 2
    catalogue = load_catalogue()
    args = parse_args(argv, catalogue)
    if args.all:
        return run_all(args, catalogue)
    run = Run(
        args.workload, args.seed, args.seconds, args.trace, args.smoke,
        started if started is not None else time.perf_counter(),
    )
    atexit.register(run.cleanup)
    if handle_signals:
        # Turn a kill into an ordinary exit so ``finally`` and atexit
        # reap the daemon and remove the scratch directory.
        def _exit(signum, _frame) -> None:
            sys.exit(128 + signum)

        signal.signal(signal.SIGTERM, _exit)
        signal.signal(signal.SIGINT, _exit)
    try:
        return execute(run, catalogue, args.save)
    finally:
        run.cleanup()
        atexit.unregister(run.cleanup)
