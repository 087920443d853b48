"""Command-line interface for the CMSwitch reproduction.

Installed as ``python -m repro.cli`` (or used programmatically through
:func:`main`).  Every compile-shaped sub-command is a thin shim over
:class:`repro.api.Session` — the CLI builds one session (hardware,
cache directory) and routes the work through it,
so the command line and the Python API cannot drift apart.  Unknown
model names exit with code 2 and the list of registered models, never
a raw traceback.  Sub-commands:

* ``models`` — list the registered benchmark networks.
* ``hardware`` — show a hardware preset's DEHA parameters.
* ``compile`` — compile one model for one hardware preset and print the
  plan summary (optionally the meta-operator flow and per-segment table).
* ``compile-batch`` — compile many models through the
  :class:`repro.service.CompileService` (shared allocation cache, jobs
  in order) and print per-job statistics including the cache hit rate.
  ``--cache-dir`` persists every compiled program so later invocations
  (and other ``repro`` processes running beside this one) read it back
  instead of compiling it again.
* ``compare`` — compile with CMSwitch and the baselines and print speedups.
* ``experiment`` — run one of the paper-figure experiments.
* ``dse`` — explore a design space (models x workloads x array counts x
  mode splits) through :mod:`repro.dse`: pluggable search strategies,
  structural dedup, resumable run directories, Pareto reports.
  ``--objective trace-p99 --trace FILE`` optimises tail latency under a
  request trace instead of single-inference latency.
* ``replay`` — replay a request trace (file or seeded synthetic
  traffic) through the serving simulator (:mod:`repro.sim.replay`) and
  report throughput, p50/p99 latency, utilisation and switch share.
* ``cache`` — inspect and maintain a ``--cache-dir`` program-store
  directory (``stats`` / ``prune`` / ``clear``).
* ``serve`` — run the compile daemon (:mod:`repro.serve`): a long-lived
  HTTP service over one shared cache, coalescing concurrent identical
  requests into single compiles.  SIGTERM drains gracefully.

Examples::

    python -m repro.cli compile llama2-7b --hardware dynaplasia --batch 1 --seq-len 128
    python -m repro.cli compile-batch resnet18 bert vgg16 --repeat 2
    python -m repro.cli compile-batch resnet18 bert --cache-dir ~/.cache/repro-programs
    python -m repro.cli compare resnet18 --batch 8
    python -m repro.cli experiment fig14 --batch-sizes 1 8
    python -m repro.cli dse resnet18 --hardware dynaplasia --arrays 64 96 128 \
        --modes dual fixed --strategy grid --cache-dir /tmp/ac
    python -m repro.cli cache stats --cache-dir /tmp/ac
    python -m repro.cli cache prune --cache-dir /tmp/ac --max-age 7d --max-bytes 64MB
    python -m repro.cli serve --cache-dir /tmp/ac --port 8740
    python -m repro.cli compile-batch resnet18 --json-out stats.json
"""

from __future__ import annotations

import argparse
import logging
import re
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .api import Session
from .baselines import CIMMLCCompiler, OCCCompiler, PUMACompiler
from .core.compiler import CompilerOptions
from .hardware.presets import PRESETS, get_preset
from .models.registry import is_transformer, list_models
from .models.workload import Phase, Workload

LOGGER = logging.getLogger("repro")


def _configure_logging(verbosity: int) -> None:
    """Route ``repro`` status logging to stderr at the requested level.

    The CLI is quiet by default (WARNING): stdout carries only results
    and machine-checkable summary lines, never progress chatter.  ``-v``
    surfaces status lines (INFO), ``-vv`` debug detail.  The handler is
    re-created on every call so repeated in-process invocations (tests,
    notebooks) always write to the *current* ``sys.stderr``.
    """
    if verbosity <= 0:
        level = logging.WARNING
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.DEBUG
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_cli", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler._repro_cli = True
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.setLevel(level)


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared observability flags of the compile-shaped sub-commands."""
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "record a hierarchical span trace of this run and write it "
            "as Chrome/Perfetto trace_event JSON (open in chrome://tracing "
            "or ui.perfetto.dev)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a wall-time profile (top spans + metric counters) at the end",
    )


def _session_trace(args: argparse.Namespace):
    """The ``Session(trace=...)`` value implied by --trace-out/--profile."""
    if args.trace_out:
        return args.trace_out
    return True if args.profile else None


def _finish_obs(session: Session, args: argparse.Namespace) -> None:
    """Export the trace / print the profile after a traced command."""
    if args.trace_out:
        path = session.export_trace()
        print(f"chrome trace: {path}")
    if args.profile:
        print(session.profile_report())


def _reject_unknown_models(models: Sequence[str]) -> Optional[int]:
    """Shared unknown-model handling: exit code 2 + the available names.

    Every sub-command that accepts model names calls this before doing
    any work, so a typo produces the same two-line error (and the list
    of registered models) everywhere instead of a command-specific
    traceback.

    Returns:
        ``2`` when any name is unknown (after printing the error to
        stderr), ``None`` when all names are registered.
    """
    known = set(list_models())
    unknown = [name for name in models if name not in known]
    if not unknown:
        return None
    print(
        f"error: unknown model name(s): {', '.join(unknown)}\n"
        f"available models: {', '.join(list_models())}",
        file=sys.stderr,
    )
    return 2


def _workload_for_model(model: str, args: argparse.Namespace) -> Workload:
    """Build a workload for ``model`` from the shared CLI arguments."""
    phase = Phase(args.phase) if args.phase else (
        Phase.ENCODE if is_transformer(model) else Phase.PREFILL
    )
    return Workload(
        batch_size=args.batch,
        seq_len=args.seq_len,
        output_len=args.output_len,
        phase=phase,
    )


def _workload_from_args(args: argparse.Namespace) -> Workload:
    """Build a workload from the shared CLI arguments (single-model commands)."""
    return _workload_for_model(args.model, args)


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", help="registered model name (see the 'models' command)")
    parser.add_argument("--hardware", default="dynaplasia", choices=sorted(PRESETS))
    parser.add_argument("--batch", type=int, default=1, help="batch size")
    parser.add_argument("--seq-len", type=int, default=64, help="input sequence length")
    parser.add_argument("--output-len", type=int, default=64, help="generated tokens")
    parser.add_argument(
        "--phase",
        choices=[phase.value for phase in Phase],
        default=None,
        help="transformer phase (default: encode for transformers)",
    )


def cmd_models(_: argparse.Namespace) -> int:
    """List registered models."""
    for name in list_models():
        print(name)
    return 0


def cmd_hardware(args: argparse.Namespace) -> int:
    """Print a hardware preset summary."""
    print(get_preset(args.preset).summary())
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    """Compile one model and print the plan."""
    failure = _reject_unknown_models([args.model])
    if failure is not None:
        return failure
    session = Session(hardware=args.hardware)
    program = session.compile(
        args.model,
        workload=_workload_from_args(args),
        options=CompilerOptions(generate_code=args.show_metaops),
    )
    print(program.summary())
    if args.show_segments:
        print()
        for segment in program.segments:
            print(segment.describe())
    if args.show_metaops and program.meta_program is not None:
        print()
        print(program.meta_program.render())
    return 0


def cmd_compile_batch(args: argparse.Namespace) -> int:
    """Compile several models through a session and print stats."""
    if not args.models:
        print(
            "error: compile-batch requires at least one model name\n"
            "usage: repro compile-batch MODEL [MODEL ...] [--cache-dir DIR]\n"
            "       (run 'repro models' to list the registered models)",
            file=sys.stderr,
        )
        return 2
    failure = _reject_unknown_models(args.models)
    if failure is not None:
        return failure

    session = Session(
        hardware=args.hardware,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        trace=_session_trace(args),
    )
    jobs = []
    for round_index in range(max(1, args.repeat)):
        for model in args.models:
            workload = _workload_for_model(model, args)
            label = model if args.repeat <= 1 else f"{model}#{round_index + 1}"
            jobs.append(session.job(model, workload=workload, label=label))

    results = session.compile_batch(jobs)

    header = (
        f"{'job':16s} {'latency (ms)':>13s} {'segments':>9s} {'solves':>7s} "
        f"{'cache hits':>11s} {'disk hits':>10s} {'hit rate':>9s} {'wall (s)':>9s}"
    )
    print(header)
    failures = 0
    total_solves = 0
    total_disk_hits = 0
    for result in results:
        stats = result.stats
        # Failed jobs may still have solved (NoFeasiblePlanError keeps its
        # pre-failure statistics); the totals must reflect that work.
        total_solves += stats.get("allocator_solves", 0)
        total_disk_hits += stats.get("allocation_disk_hits", 0)
        if not result.ok:
            failures += 1
            print(f"{result.job.name:16s} FAILED: {result.error}")
            continue
        print(
            f"{result.job.name:16s} {result.program.end_to_end_ms:13.3f} "
            f"{result.program.num_segments:9d} {stats.get('allocator_solves', 0):7d} "
            f"{stats.get('allocation_cache_hits', 0):11d} "
            f"{stats.get('allocation_disk_hits', 0):10d} "
            f"{100.0 * stats.get('allocation_cache_hit_rate', 0.0):8.1f}% "
            f"{result.wall_seconds:9.3f}"
        )
    pass_totals: dict = {}
    for result in results:
        for pass_name, seconds in (result.stats.get("pass_seconds") or {}).items():
            pass_totals[pass_name] = pass_totals.get(pass_name, 0.0) + seconds
    if pass_totals:
        print(
            "pass wall time: "
            + " | ".join(
                f"{name} {seconds:.3f}s" for name, seconds in pass_totals.items()
            )
        )
    aggregate = session.cache_stats
    print(
        f"cache: {aggregate.hits} hits / {aggregate.lookups} lookups "
        f"({100.0 * aggregate.hit_rate:.1f}%), {aggregate.evictions} evictions"
    )
    if session.store is not None:
        disk = session.store.stats
        print(
            f"disk store: {disk.hits} hits, {disk.stores} stores, "
            f"{disk.evictions} evictions ({session.store.root})"
        )
    # Machine-checkable summary: CI smoke greps these lines to assert a
    # disk-warm second invocation performs zero solves (and that the
    # warm-start behaviour is visible as program-store hits).
    print(f"total allocator solves: {total_solves}")
    print(f"total disk hits: {total_disk_hits}")
    if args.json_out:
        import json

        report = {
            "jobs": [
                {
                    "label": result.job.name,
                    "ok": result.ok,
                    "error": result.error,
                    "latency_ms": result.program.end_to_end_ms if result.ok else None,
                    "segments": result.program.num_segments if result.ok else None,
                    "allocator_solves": result.stats.get("allocator_solves", 0),
                    "cache_hits": result.stats.get("allocation_cache_hits", 0),
                    "disk_hits": result.stats.get("allocation_disk_hits", 0),
                    "hit_rate": result.stats.get("allocation_cache_hit_rate", 0.0),
                    "wall_seconds": result.wall_seconds,
                }
                for result in results
            ],
            "totals": {
                "jobs": len(results),
                "failures": failures,
                "allocator_solves": total_solves,
                "disk_hits": total_disk_hits,
            },
        }
        report["cache"] = session.cache_stats.to_dict()
        out = Path(args.json_out).expanduser()
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        LOGGER.info("json report: %s", out)
    _finish_obs(session, args)
    session.close()
    return 1 if failures else 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Compile with every compiler and print normalised latencies."""
    failure = _reject_unknown_models([args.model])
    if failure is not None:
        return failure
    session = Session(
        hardware=args.hardware, options=CompilerOptions(generate_code=False)
    )
    hardware = session.hardware
    workload = _workload_from_args(args)
    compilers = {
        "puma": PUMACompiler(hardware),
        "occ": OCCCompiler(hardware),
        "cim-mlc": CIMMLCCompiler(hardware),
    }
    graph = session.job(args.model, workload=workload).resolve_graph()
    results = {name: compiler.compile(graph) for name, compiler in compilers.items()}
    results["cmswitch"] = session.compile(graph)
    baseline = results["cim-mlc"].end_to_end_cycles
    print(f"{'compiler':10s} {'latency (ms)':>14s} {'vs CIM-MLC':>12s} {'memory arrays':>14s}")
    for name, program in results.items():
        print(
            f"{name:10s} {program.end_to_end_ms:14.3f} "
            f"{baseline / program.end_to_end_cycles:11.2f}x "
            f"{100 * program.mean_memory_array_ratio:13.1f}%"
        )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one of the paper-figure experiments and print its report."""
    from .experiments import end_to_end, generative, workload_scale
    from .experiments import compile_time, overheads

    # Names, not the module: ``from .experiments import allocation_report``
    # binds the *function* the package re-exports under the module's name.
    from .experiments.allocation_report import (
        allocation_report,
        render_report as render_allocation,
    )
    from .hardware.presets import dynaplasia

    hardware = get_preset(args.hardware)
    if args.figure == "fig14":
        rows = end_to_end.run_end_to_end(
            hardware=hardware, batch_sizes=tuple(args.batch_sizes)
        )
        print(end_to_end.render_report(rows))
    elif args.figure == "fig16":
        rows = workload_scale.run_workload_scale(
            hardware=hardware,
            batch_sizes=tuple(args.batch_sizes),
            sequence_lengths=tuple(args.sequence_lengths),
        )
        print(workload_scale.render_report(rows))
    elif args.figure == "fig17":
        rows = generative.run_generative(
            hardware=hardware, lengths=tuple(args.sequence_lengths)
        )
        print(generative.render_report(rows))
    elif args.figure == "fig15":
        for model in ("vgg16", "opt-6.7b"):
            rows = allocation_report(model, hardware=hardware)
            print(render_allocation(model, rows))
            print()
    elif args.figure == "fig18":
        rows = compile_time.measure_compile_time(hardware=hardware)
        print(compile_time.render_report(rows))
    elif args.figure == "serving":
        from .experiments import serving

        rows = serving.run_slo_curve(
            presets=tuple(args.presets),
            num_requests=args.requests,
            seed=args.seed,
        )
        print(serving.render_report(rows))
    elif args.figure == "sec5.5":
        print(
            overheads.render_switch_report(
                overheads.switch_overhead(hardware=hardware)
            )
        )
        print()
        print(overheads.render_prime_report(overheads.prime_scalability()))
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown figure {args.figure!r}")
    return 0


def _load_trace_or_none(path: str, usage: str):
    """Load a trace file, printing the CLI error contract on failure.

    A nonexistent/unreadable path or a malformed/newer-format file
    prints a two-line error (reason + usage) to stderr and returns
    ``None`` — callers exit 2, matching the unknown-model convention —
    never a raw traceback.
    """
    from .sim.traces import TraceFormatError, load_trace

    try:
        return load_trace(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        print(f"error: cannot read trace file {path!r}: {reason}\n{usage}", file=sys.stderr)
        return None
    except TraceFormatError as exc:
        print(f"error: invalid trace file: {exc}\n{usage}", file=sys.stderr)
        return None


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a request trace through the serving simulator."""
    import json

    from .sim.traces import save_trace, synthetic_trace

    usage = (
        "usage: repro replay --preset CHIP [--trace FILE | --synthetic "
        "{poisson,bursty,diurnal}] [--models M ...] [--requests N] "
        "[--rate RPS] [--seed N]"
    )
    if args.trace is not None:
        trace = _load_trace_or_none(args.trace, usage)
        if trace is None:
            return 2
        failure = _reject_unknown_models(trace.models)
        if failure is not None:
            return failure
    else:
        models = args.models or ["tiny-mlp", "tiny-cnn"]
        failure = _reject_unknown_models(models)
        if failure is not None:
            return failure
        # One --rate knob parameterises every generator: it is the mean
        # (poisson), the quiet-state base (bursty, bursts run 10x) or
        # the peak (diurnal, trough at a tenth).
        kwargs = {"poisson": {"rate_rps": args.rate},
                  "bursty": {"base_rate_rps": args.rate,
                             "burst_rate_rps": 10.0 * args.rate},
                  "diurnal": {"peak_rate_rps": args.rate,
                              "trough_rate_rps": args.rate / 10.0}}[args.synthetic]
        trace = synthetic_trace(
            args.synthetic,
            models,
            num_requests=args.requests,
            seed=args.seed,
            seq_len_buckets=tuple(args.seq_lens),
            batch_size=args.batch,
            **kwargs,
        )
    if args.save_trace:
        path = save_trace(trace, args.save_trace)
        LOGGER.info("trace written: %s", path)

    session = Session(
        hardware=args.preset,
        cache_dir=args.cache_dir,
        trace=_session_trace(args),
    )
    result = session.replay(trace)
    print(result.render_report())
    metrics = result.metrics
    # Machine-checkable summary lines (the CI replay-smoke job greps
    # these, like compile-batch's solver totals).
    print(f"replay throughput: {metrics.throughput_rps:.6f} req/s")
    print(f"replay p50: {metrics.latency_p50_ms:.6f} ms")
    print(f"replay p99: {metrics.latency_p99_ms:.6f} ms")
    print(f"replay switch share: {metrics.switch_share:.6f}")
    print(f"total allocator solves: {result.allocator_solves}")
    print(f"total disk hits: {result.allocation_disk_hits}")
    if args.json_out:
        out = Path(args.json_out).expanduser()
        out.write_text(
            json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        LOGGER.info("json report: %s", out)
    _finish_obs(session, args)
    return 1 if result.compile_errors else 0


def _parse_size(text: str) -> int:
    """Parse a byte size with an optional KB/MB/GB suffix (``"64MB"``)."""
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([kKmMgG][bB]?|[bB])?\s*", text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (expected e.g. 1048576, 512KB, 64MB, 2GB)"
        )
    value = float(match.group(1))
    unit = (match.group(2) or "b").lower().rstrip("b")
    scale = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3}[unit]
    return int(value * scale)


def _parse_age(text: str) -> float:
    """Parse an age with an optional s/m/h/d suffix (``"7d"``, ``"90m"``).

    Case-insensitive, matching :func:`_parse_size`.
    """
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([smhdSMHD])?\s*", text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"invalid age {text!r} (expected e.g. 3600, 90m, 12h, 7d)"
        )
    unit = (match.group(2) or "s").lower()
    scale = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}[unit]
    return float(match.group(1)) * scale


def cmd_dse(args: argparse.Namespace) -> int:
    """Explore a design space and print/persist the Pareto report."""
    from .dse import DesignSpace, RunState, RunStateError, make_strategy

    models = args.models or ["tiny-cnn"]
    failure = _reject_unknown_models(models)
    if failure is not None:
        return failure
    # The CLI spells the trace objective "trace-p99" (dashes, like every
    # other flag value); the library spells it "trace_p99".
    objective = args.objective.replace("-", "_")
    usage = (
        "usage: repro dse MODEL [MODEL ...] --objective trace-p99 --trace FILE "
        "[--fidelity compile]"
    )
    trace = None
    if args.trace is not None:
        trace = _load_trace_or_none(args.trace, usage)
        if trace is None:
            return 2
        failure = _reject_unknown_models(trace.models)
        if failure is not None:
            return failure
    if objective == "trace_p99":
        if trace is None:
            print(
                f"error: --objective trace-p99 requires --trace FILE\n{usage}",
                file=sys.stderr,
            )
            return 2
        if args.fidelity in ("analytical", "auto"):
            print(
                "error: --objective trace-p99 needs real compiled plans; "
                f"--fidelity {args.fidelity} is not supported\n{usage}",
                file=sys.stderr,
            )
            return 2
    hardware = get_preset(args.hardware)
    arrays = args.arrays
    if arrays is None:
        # A tiny default sweep around the preset, so the bare command
        # demonstrates the engine without minutes of solves.
        arrays = sorted({max(1, hardware.num_arrays // 2), hardware.num_arrays})
    phase = Phase(args.phase) if args.phase else Phase.PREFILL
    workloads = [
        Workload(batch_size=batch, seq_len=seq_len, output_len=args.output_len, phase=phase)
        for batch in args.batch
        for seq_len in args.seq_len
    ]
    option_axes = {}
    if args.modes:
        option_axes["allow_memory_mode"] = [mode == "dual" for mode in args.modes]
    space = DesignSpace(
        models=models,
        base_hardware=hardware,
        workloads=workloads,
        hardware_axes={"num_arrays": [int(n) for n in arrays]},
        option_axes=option_axes,
    )

    run_dir = Path(args.run_dir) if args.run_dir else (
        Path(args.cache_dir).expanduser() / "_dse" if args.cache_dir else Path("dse-run")
    )
    try:
        state = RunState.open(
            run_dir,
            space.to_spec(),
            space.fingerprint(),
            objective=objective,
            strategy=args.strategy,
            resume=args.resume,
        )
    except (RunStateError, OSError) as exc:
        # OSError covers mistyped paths (a run dir that exists as a
        # regular file, an unwritable parent) — same clean exit as a
        # state-level refusal, never a raw traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    LOGGER.info(
        "dse: %s, strategy %s, objective %s, fidelity %s, run dir %s",
        space.describe(), args.strategy, objective, args.fidelity, run_dir,
    )
    if trace is not None:
        LOGGER.info("trace: %s", trace.describe())
    if args.fidelity == "auto" and args.strategy != "successive-halving":
        # Stays on stdout: this changes the strategy the user asked for.
        print(
            "note: --fidelity auto schedules rungs itself; using the "
            "successive-halving strategy (analytical rung 0, survivors "
            "compiled)"
        )
    if state.space_changed:
        LOGGER.info(
            "note: resuming with a different design space; overlapping "
            "points are skipped by key"
        )
    if state.completed:
        LOGGER.info("resume: %d completed point(s) on record", len(state.completed))

    session = Session(
        hardware=hardware,
        cache_dir=args.cache_dir,
        trace=_session_trace(args),
    )
    with state:
        result = session.explore(
            space,
            strategy=make_strategy(args.strategy, seed=args.seed),
            objective=objective,
            fidelity=args.fidelity,
            budget=args.budget,
            state=state,
            seed=args.seed,
            trace=trace,
        )

    # Infeasible design points (feasible=False, failed=False) are a
    # legitimate exploration outcome, not a failure exit.
    failures = [r for r in result.new_records if r.failed]
    for record in result.new_records:
        if record.feasible:
            marker = "ok"
        else:
            marker = "ERR" if record.failed else "infeasible"
        print(
            f"  {record.model:16s} arrays={record.num_arrays:<5d} "
            f"{'dual' if record.allow_memory_mode else 'fixed':5s} "
            f"latency={record.latency_ms:10.3f} ms energy={record.energy_mj:8.3f} mJ "
            f"solves={record.allocator_solves:4d} disk={record.disk_hits:4d} "
            f"[{record.fidelity}/{record.status}/{marker}]"
        )

    report = result.render_report()
    print(report)
    report_path = run_dir / "report.txt"
    report_path.write_text(report + "\n" + result.summary() + "\n", encoding="utf-8")
    csv_path = result.write_csv(run_dir / "pareto.csv")
    print(result.summary())
    LOGGER.info("report: %s", report_path)
    LOGGER.info("pareto csv: %s", csv_path)
    _finish_obs(session, args)
    return 1 if failures else 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect / prune / clear a ``cache_dir`` program-store directory."""
    from .core.store import DiskCacheStore

    root = Path(args.cache_dir).expanduser()
    if not root.is_dir():
        # Constructing the store would mkdir the path — a query on a
        # mistyped (or non-directory) path must not create or crash.
        # For the read-only `stats` a directory that was never created
        # simply holds nothing: report empty usage and exit 0, the same
        # answer a just-cleared cache gives (scripts can poll a cache
        # dir before its first run without special-casing the error).
        if args.cache_command == "stats" and not root.exists():
            print(f"cache: 0 entries, 0.00 MB ({root})")
            return 0
        print(f"error: cache directory {root} does not exist", file=sys.stderr)
        return 2
    store = DiskCacheStore(root)

    def _print_usage(prefix: str = "") -> None:
        usage = store.usage()
        line = (
            f"{prefix}{usage['files']} entries, "
            f"{usage['bytes'] / (1024 * 1024):.2f} MB ({store.root})"
        )
        print(line)
        if usage["files"]:
            # Ages come off the store's clock, not a second ad-hoc
            # time source — tests drive the display with a ManualClock.
            now = store.clock.now()
            print(
                f"  oldest entry: {(now - usage['oldest_mtime']) / 3600.0:.2f} h, "
                f"newest entry: {(now - usage['newest_mtime']) / 3600.0:.2f} h"
            )

    if args.cache_command == "stats":
        _print_usage("cache: ")
        return 0
    if args.cache_command == "prune":
        if args.max_bytes is None and args.max_age is None:
            print(
                "error: prune requires --max-bytes and/or --max-age",
                file=sys.stderr,
            )
            return 2
        outcome = store.prune(max_bytes=args.max_bytes, max_age_seconds=args.max_age)
        print(
            f"pruned: {outcome['removed_files']} entries, "
            f"{outcome['removed_bytes'] / (1024 * 1024):.2f} MB removed; "
            f"{outcome['remaining_files']} entries, "
            f"{outcome['remaining_bytes'] / (1024 * 1024):.2f} MB remain"
        )
        return 0
    if args.cache_command == "clear":
        before = store.usage()
        store.clear()
        print(
            f"cleared: {before['files']} entries, "
            f"{before['bytes'] / (1024 * 1024):.2f} MB removed ({store.root})"
        )
        return 0
    raise ValueError(f"unknown cache command {args.cache_command!r}")  # pragma: no cover


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the compile daemon until SIGTERM, then drain and exit 0.

    Blocks in the daemon's accept loop until SIGTERM/SIGINT (or a normal
    shutdown), drains gracefully, and exits 0 — the contract systemd,
    Kubernetes and the CI smoke rely on.  ``--port-file`` publishes the
    bound (possibly ephemeral) port for whoever started the process.
    """
    import signal
    import threading

    from .serve import CompileDaemon

    daemon = CompileDaemon(
        cache_dir=args.cache_dir,
        workers=args.workers,
        queue_limit=args.queue_limit,
        wait_timeout=args.timeout,
        host=args.host,
        port=args.port,
    )
    if args.port_file:
        Path(args.port_file).expanduser().write_text(
            f"{daemon.bound_port}\n", encoding="utf-8"
        )
    # The machine-checkable line scripts wait for (stdout, flushed).
    print(f"compile daemon listening on {daemon.url}", flush=True)

    def _drain(signum, _frame) -> None:
        LOGGER.info("compile daemon: received signal %d, draining", signum)
        # shutdown() blocks until serve_forever() returns; it must run on
        # another thread because this handler interrupts that very loop.
        threading.Thread(target=daemon.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - direct ^C fallback
        daemon.shutdown()
    print("compile daemon drained cleanly", flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="CMSwitch dual-mode CIM compiler (paper reproduction)"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="status logging on stderr (-v progress, -vv debug); default is quiet",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    models = sub.add_parser("models", help="list registered models")
    models.set_defaults(func=cmd_models)

    hardware = sub.add_parser("hardware", help="show a hardware preset")
    hardware.add_argument("preset", choices=sorted(PRESETS))
    hardware.set_defaults(func=cmd_hardware)

    compile_cmd = sub.add_parser("compile", help="compile a model with CMSwitch")
    _add_workload_arguments(compile_cmd)
    compile_cmd.add_argument("--show-segments", action="store_true", help="print segment plans")
    compile_cmd.add_argument("--show-metaops", action="store_true", help="print the DMO flow")
    compile_cmd.set_defaults(func=cmd_compile)

    batch = sub.add_parser(
        "compile-batch",
        help="compile many models concurrently with a shared allocation cache",
    )
    batch.add_argument("models", nargs="*", help="registered model names (at least one)")
    batch.add_argument("--hardware", default="dynaplasia", choices=sorted(PRESETS))
    batch.add_argument("--batch", type=int, default=1, help="batch size")
    batch.add_argument("--seq-len", type=int, default=64, help="input sequence length")
    batch.add_argument("--output-len", type=int, default=64, help="generated tokens")
    batch.add_argument(
        "--phase",
        choices=[phase.value for phase in Phase],
        default=None,
        help="transformer phase (default: encode for transformers)",
    )
    batch.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="compile the model list this many times (shows warm-cache speedups)",
    )
    batch.add_argument(
        "--no-cache", action="store_true", help="disable the shared allocation cache"
    )
    batch.add_argument(
        "--cache-dir",
        default=None,
        help="program-store directory (compiled programs shared across runs and processes)",
    )
    batch.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="also write the per-job statistics as a JSON report",
    )
    _add_obs_arguments(batch)
    batch.set_defaults(func=cmd_compile_batch)

    compare = sub.add_parser("compare", help="compare CMSwitch against the baselines")
    _add_workload_arguments(compare)
    compare.set_defaults(func=cmd_compare)

    experiment = sub.add_parser("experiment", help="run a paper-figure experiment")
    experiment.add_argument(
        "figure",
        choices=["fig14", "fig15", "fig16", "fig17", "fig18", "sec5.5", "serving"],
    )
    experiment.add_argument("--hardware", default="dynaplasia", choices=sorted(PRESETS))
    experiment.add_argument("--batch-sizes", type=int, nargs="+", default=[1])
    experiment.add_argument("--sequence-lengths", type=int, nargs="+", default=[32, 256])
    experiment.add_argument(
        "--presets",
        nargs="+",
        choices=sorted(PRESETS),
        default=["dynaplasia", "prime"],
        help="hardware presets the serving SLO sweep compares",
    )
    experiment.add_argument(
        "--requests",
        type=int,
        default=24,
        help="requests per synthetic trace (serving experiment)",
    )
    experiment.add_argument(
        "--seed", type=int, default=0, help="trace seed (serving experiment)"
    )
    experiment.set_defaults(func=cmd_experiment)

    dse = sub.add_parser(
        "dse",
        help="explore a hardware/allocation design space (deduplicating, resumable)",
    )
    dse.add_argument(
        "models",
        nargs="*",
        help="registered model names (default: tiny-cnn, a fast demo space)",
    )
    dse.add_argument(
        "--hardware",
        default="small-test-chip",
        choices=sorted(PRESETS),
        help="base hardware preset the axes override (default: small-test-chip)",
    )
    dse.add_argument(
        "--arrays",
        type=int,
        nargs="+",
        default=None,
        help="num_arrays axis values (default: half and full preset size)",
    )
    dse.add_argument(
        "--modes",
        nargs="+",
        choices=["dual", "fixed"],
        default=None,
        help="mode-split axis: dual (memory mode allowed) and/or fixed",
    )
    dse.add_argument("--batch", type=int, nargs="+", default=[1], help="batch-size axis")
    dse.add_argument(
        "--seq-len", type=int, nargs="+", default=[32], help="sequence-length axis"
    )
    dse.add_argument("--output-len", type=int, default=32, help="generated tokens")
    dse.add_argument(
        "--phase",
        choices=[phase.value for phase in Phase],
        default=None,
        help="transformer phase for every workload (default: prefill)",
    )
    dse.add_argument(
        "--strategy",
        choices=["grid", "random", "greedy", "successive-halving"],
        default="grid",
        help="search strategy (see docs/dse.md)",
    )
    dse.add_argument(
        "--fidelity",
        choices=["analytical", "compile", "auto"],
        default="compile",
        help=(
            "evaluation tier: compile (full pipeline), analytical "
            "(closed-form lower bounds, zero solves), auto (successive "
            "halving: analytical rung 0, survivors compiled; see "
            "docs/dse.md)"
        ),
    )
    dse.add_argument("--seed", type=int, default=0, help="RNG seed for random/greedy")
    dse.add_argument(
        "--budget",
        type=int,
        default=None,
        help="max design points to cover this run (default: the whole space)",
    )
    dse.add_argument(
        "--objective",
        choices=["latency", "energy", "trace-p99"],
        default="latency",
        help=(
            "what adaptive strategies minimise and reports highlight; "
            "trace-p99 replays --trace per candidate and minimises its "
            "p99 latency"
        ),
    )
    dse.add_argument(
        "--trace",
        default=None,
        help="request-trace file (JSONL) backing the trace-p99 objective",
    )
    dse.add_argument(
        "--cache-dir",
        default=None,
        help="program-store directory (a point compiled by an earlier run is read back)",
    )
    dse.add_argument(
        "--run-dir",
        default=None,
        help="resumable run directory (default: <cache-dir>/_dse, else ./dse-run)",
    )
    dse.add_argument(
        "--resume",
        action="store_true",
        help="continue the run directory, skipping already-evaluated points",
    )
    _add_obs_arguments(dse)
    dse.set_defaults(func=cmd_dse)

    replay = sub.add_parser(
        "replay",
        help="replay a request trace through the serving simulator",
    )
    replay.add_argument(
        "--preset",
        default="dynaplasia",
        choices=sorted(PRESETS),
        help="hardware preset the trace is served on",
    )
    replay.add_argument(
        "--trace",
        default=None,
        help="trace file (JSONL; see docs/simulator.md for the format)",
    )
    replay.add_argument(
        "--synthetic",
        choices=["poisson", "bursty", "diurnal"],
        default="poisson",
        help="synthetic generator used when --trace is not given",
    )
    replay.add_argument(
        "--models",
        nargs="+",
        default=None,
        help="traffic mix for synthetic traces (default: tiny-mlp tiny-cnn)",
    )
    replay.add_argument(
        "--requests", type=int, default=32, help="synthetic trace length"
    )
    replay.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="arrival rate in req/s (mean / base / peak by generator)",
    )
    replay.add_argument("--seed", type=int, default=0, help="trace generator seed")
    replay.add_argument(
        "--seq-lens",
        type=int,
        nargs="+",
        default=[32, 64],
        help="sequence-length buckets of synthetic traffic",
    )
    replay.add_argument(
        "--batch", type=int, default=1, help="batch size of synthetic requests"
    )
    replay.add_argument(
        "--cache-dir",
        default=None,
        help="program-store directory (warm replays solve nothing)",
    )
    replay.add_argument(
        "--json-out", default=None, help="write the full JSON report here"
    )
    replay.add_argument(
        "--save-trace", default=None, help="also write the replayed trace here"
    )
    _add_obs_arguments(replay)
    replay.set_defaults(func=cmd_replay)

    cache = sub.add_parser(
        "cache", help="inspect and maintain a cache_dir program-store directory"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser("stats", help="show entry count, size and age")
    cache_prune = cache_sub.add_parser(
        "prune", help="expire old entries (TTL) and/or shrink to a size budget"
    )
    cache_prune.add_argument(
        "--max-bytes",
        type=_parse_size,
        default=None,
        help="size budget, oldest entries evicted first (e.g. 64MB)",
    )
    cache_prune.add_argument(
        "--max-age",
        type=_parse_age,
        default=None,
        help="drop entries older than this (e.g. 7d, 12h, 3600)",
    )
    cache_clear = cache_sub.add_parser("clear", help="delete every cache entry")
    for cache_cmd in (cache_stats, cache_prune, cache_clear):
        cache_cmd.add_argument(
            "--cache-dir", required=True, help="program-store directory"
        )
    cache.set_defaults(func=cmd_cache)

    serve = sub.add_parser(
        "serve",
        help="run the compile daemon (coalescing HTTP compile-as-a-service)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (loopback by default)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = ephemeral; see --port-file)",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound port here once listening (for scripts using --port 0)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="program-store directory behind the daemon's in-memory tiers",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="compile worker threads"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="pending-request bound; beyond it requests get a structured 503",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-request wait bound in seconds (504 on expiry)",
    )
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
