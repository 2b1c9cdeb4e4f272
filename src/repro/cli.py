"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment <id>``
    Run one paper experiment (``fig3`` .. ``fig11``, ``complexity``,
    ``regret``, ``ablations``) at ``--scale quick`` or ``--scale paper``.
``compare``
    Run every algorithm on one training environment and print the
    cross-algorithm summary table (optionally ``--csv out.csv``).
``export``
    Run the experiments and write every data series as CSV files
    (``--jobs N`` fans realization sweeps over a process pool).
``bench``
    Run the engine benchmarks, write ``BENCH_results.json`` and fail on
    speedup regressions against the committed baseline.
``figures``
    Render the reproduced figures as dependency-free SVG files.
``chaos``
    Replay a fault schedule (``--spec`` JSON/YAML, seeded random, or
    the built-in ``--scenario rolling-restart``) against the protocol
    architectures and print the invariant-check summary (exit 1 on any
    violation). ``--checkpoint-every K --checkpoint-dir D`` makes the
    soak durable; ``--resume`` continues a killed soak bit-identically.
``ckpt``
    Checkpoint a canonical protocol run at round boundaries
    (``ckpt save``), summarize a checkpoint directory (``ckpt
    inspect``), or resume a checkpointed run to its full horizon
    (``ckpt resume``) — see ``docs/checkpointing.md``.
``trace``
    Record a canonical scenario as deterministic JSONL
    (``trace record``), summarize a trace file (``trace show``), or
    compare two traces field-by-field (``trace diff``, exit 1 when they
    differ) — see ``docs/observability.md``.
``serve``
    Run the open-loop serving dispatcher on a seeded arrival trace:
    one or more routing policies over a heterogeneous fleet, reporting
    p50/p99/p999 latency and SLO attainment (optionally the JSONL
    serving trace) — see ``docs/serving.md``.
``profile``
    Run an instrumented workload and print the per-span wall/CPU table.
``list``
    Show available experiments, algorithms and models.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro import __version__
from repro.analysis.compare import compare_runs, comparison_table, export_comparison_csv
from repro.baselines.registry import ALGORITHMS
from repro.core.loop import RunResult, run_online
from repro.experiments import (
    ablations,
    aggregation_experiment,
    complexity,
    edge_scenario,
    fig3_per_round_latency,
    fig4_latency_ci,
    fig5_cumulative_latency,
    fig6to8_accuracy,
    fig9_worker_latency,
    fig10_batch_size,
    fig11_utilization,
    regret_experiment,
    resilience,
    sensitivity,
    serving_experiment,
)
from repro.experiments.config import PAPER, QUICK, ExperimentScale, paper_balancer
from repro.mlsim.environment import TrainingEnvironment
from repro.mlsim.models import MODEL_CATALOG

__all__ = ["main", "build_parser", "EXPERIMENTS"]

#: Experiment id -> module with a ``main(scale)`` entry point.
EXPERIMENTS: dict[str, Callable[[ExperimentScale], object]] = {
    "fig3": fig3_per_round_latency.main,
    "fig4": fig4_latency_ci.main,
    "fig5": fig5_cumulative_latency.main,
    "fig6to8": fig6to8_accuracy.main,
    "fig9": fig9_worker_latency.main,
    "fig10": fig10_batch_size.main,
    "fig11": fig11_utilization.main,
    "complexity": complexity.main,
    "regret": regret_experiment.main,
    "aggregation": aggregation_experiment.main,
    "ablations": ablations.main,
    "edge": edge_scenario.main,
    "sensitivity": sensitivity.main,
    "resilience": resilience.main,
    "serving": serving_experiment.main,
}

_SCALES = {"quick": QUICK, "paper": PAPER}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DOLBIE reproduction (Wang & Liang, ICDCS 2023)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run one paper experiment")
    exp.add_argument("id", choices=sorted(EXPERIMENTS))
    exp.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    exp.add_argument(
        "--jobs", type=int, default=None,
        help="processes for realization sweeps (default: scale.jobs)",
    )
    exp.add_argument(
        "--checkpoint-dir", default=None,
        help="persist finished sweep realizations here and resume an "
        "interrupted sweep from them (see docs/checkpointing.md)",
    )

    cmp_parser = sub.add_parser(
        "compare", help="run all algorithms on one environment and summarize"
    )
    cmp_parser.add_argument("--model", default="ResNet18", choices=sorted(MODEL_CATALOG))
    cmp_parser.add_argument("--workers", type=int, default=30)
    cmp_parser.add_argument("--rounds", type=int, default=100)
    cmp_parser.add_argument("--seed", type=int, default=0)
    cmp_parser.add_argument(
        "--algorithms",
        nargs="+",
        default=["EQU", "OGD", "LB-BSP", "ABS", "EG", "DOLBIE", "OPT"],
        choices=sorted(ALGORITHMS),
    )
    cmp_parser.add_argument("--csv", default=None, help="also write a CSV file")

    export = sub.add_parser(
        "export", help="run experiments and write their data series as CSV"
    )
    export.add_argument("--out", default="results", help="output directory")
    export.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    export.add_argument(
        "--only", nargs="+", default=None,
        help="subset of exports (default: all)",
    )
    export.add_argument(
        "--jobs", type=int, default=None,
        help="processes for realization sweeps (default: scale.jobs)",
    )

    bench = sub.add_parser(
        "bench", help="run engine benchmarks and gate on speedup regressions"
    )
    bench.add_argument(
        "--out", default="BENCH_results.json", help="results file to write"
    )
    bench.add_argument(
        "--baseline", default="BENCH_results.json",
        help="committed baseline to compare against",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.3,
        help="allowed fractional speedup drop before failing (default 0.3)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="single repetition per benchmark (CI smoke mode)",
    )
    bench.add_argument(
        "--update-baseline", action="store_true",
        help="overwrite the baseline with this run instead of comparing",
    )
    bench.add_argument(
        "--only", nargs="+", default=None,
        help="run a named subset of benchmarks (e.g. proto_fd_n100); "
        "the results file then holds just that subset, so pair with "
        "a non-default --out",
    )
    bench.add_argument("--jobs", type=int, default=1)

    figures = sub.add_parser(
        "figures", help="render the reproduced figures as SVG files"
    )
    figures.add_argument("--out", default="results/figures")
    figures.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    figures.add_argument("--only", nargs="+", default=None)

    chaos = sub.add_parser(
        "chaos",
        help="replay a fault schedule against a protocol and check invariants",
    )
    chaos.add_argument(
        "--spec", default=None,
        help="JSON/YAML fault-schedule spec (see repro.chaos.faults); "
        "omit to generate a random schedule from --seed",
    )
    chaos.add_argument(
        "--protocol", choices=["mw", "fd", "both"], default="both",
        help="mw = master-worker (§IV-B1), fd = fully-distributed (§IV-B2)",
    )
    chaos.add_argument(
        "--topology", choices=["complete", "ring", "star", "line"],
        default="ring", help="connectivity of the fully-distributed run",
    )
    chaos.add_argument("--workers", type=int, default=8)
    chaos.add_argument("--rounds", type=int, default=200)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--scenario", choices=["random", "rolling-restart"], default="random",
        help="random = seeded mixed faults; rolling-restart = staggered "
        "restart sweep over the fleet (ignored when --spec is given)",
    )
    chaos.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="K",
        help="snapshot the full soak state every K rounds "
        "(requires --checkpoint-dir)",
    )
    chaos.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for soak checkpoints (see docs/checkpointing.md)",
    )
    chaos.add_argument(
        "--resume", action="store_true",
        help="resume from the latest intact checkpoint in --checkpoint-dir",
    )
    chaos.add_argument(
        "--kill-at-round", type=int, default=0, metavar="T",
        help="SIGKILL this process right after round T's checkpoint is "
        "durable (the CI kill-resume smoke uses this)",
    )
    chaos.add_argument(
        "--trace-out", default=None,
        help="record the soak's structured trace and write it as JSONL",
    )

    ckpt = sub.add_parser(
        "ckpt",
        help="checkpoint / inspect / resume protocol runs (repro.ckpt)",
    )
    ckpt_sub = ckpt.add_subparsers(dest="ckpt_command", required=True)

    ckpt_save = ckpt_sub.add_parser(
        "save", help="run a scenario and checkpoint it at round boundaries"
    )
    ckpt_save.add_argument("--dir", required=True, help="checkpoint directory")
    ckpt_save.add_argument(
        "--architecture", choices=["mw", "fd"], default="mw"
    )
    ckpt_save.add_argument(
        "--engine", choices=["auto", "fast", "event"], default="auto"
    )
    ckpt_save.add_argument("--workers", type=int, default=None)
    ckpt_save.add_argument("--rounds", type=int, default=None)
    ckpt_save.add_argument("--seed", type=int, default=None)
    ckpt_save.add_argument(
        "--every", type=int, default=0, metavar="K",
        help="checkpoint every K rounds",
    )
    ckpt_save.add_argument(
        "--at", type=int, nargs="+", default=[], metavar="T",
        help="additionally checkpoint after these rounds",
    )
    ckpt_save.add_argument(
        "--trace-out", default=None, help="also write the run's trace JSONL"
    )
    ckpt_save.add_argument(
        "--csv-out", default=None, help="also write the trajectory CSV"
    )

    ckpt_inspect = ckpt_sub.add_parser(
        "inspect", help="summarize a checkpoint directory"
    )
    ckpt_inspect.add_argument("--dir", required=True)
    ckpt_inspect.add_argument(
        "--round", type=int, default=None,
        help="inspect this round's snapshot (default: the latest)",
    )

    ckpt_resume = ckpt_sub.add_parser(
        "resume", help="resume a checkpointed run to its full horizon"
    )
    ckpt_resume.add_argument("--dir", required=True)
    ckpt_resume.add_argument(
        "--round", type=int, default=None,
        help="resume from this round's snapshot (default: the latest)",
    )
    ckpt_resume.add_argument(
        "--rounds", type=int, default=None,
        help="run to this horizon (default: the original run's)",
    )
    ckpt_resume.add_argument(
        "--trace-out", default=None,
        help="write the merged (prefix + resumed) trace JSONL",
    )
    ckpt_resume.add_argument(
        "--csv-out", default=None, help="write the merged trajectory CSV"
    )

    trace = sub.add_parser(
        "trace", help="record / inspect / diff structured round traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser(
        "record", help="record a canonical scenario as deterministic JSONL"
    )
    record.add_argument(
        "scenario", choices=["mw", "fd", "loop", "trainer", "serving"],
        help="mw/fd = protocol architectures, loop = centralized "
        "reference, trainer = training simulator, serving = open-loop "
        "dispatcher",
    )
    record.add_argument("--out", required=True, help="JSONL file to write")
    record.add_argument(
        "--engine", choices=["auto", "fast", "event"], default="auto",
        help="protocol execution path (fast = batched, event = "
        "discrete-event engine; ignored by loop/trainer)",
    )
    record.add_argument("--workers", type=int, default=None)
    record.add_argument("--rounds", type=int, default=None)
    record.add_argument("--seed", type=int, default=None)

    show = trace_sub.add_parser("show", help="summarize a trace file")
    show.add_argument("path", help="JSONL trace file")

    diff = trace_sub.add_parser(
        "diff", help="compare two traces field-by-field (exit 1 on diff)"
    )
    diff.add_argument("left")
    diff.add_argument("right")
    diff.add_argument(
        "--include-header", action="store_true",
        help="also compare the header records (engine/seed context)",
    )
    diff.add_argument(
        "--out", default=None,
        help="also write the diff summary to a file (CI artifact)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the open-loop serving dispatcher and report tail latency",
    )
    serve.add_argument(
        "--policy", nargs="+", default=["dolbie"],
        help="routing policies to run (or 'all'); see docs/serving.md",
    )
    serve.add_argument("--workers", type=int, default=8)
    serve.add_argument("--requests", type=int, default=50_000)
    serve.add_argument(
        "--arrival", choices=["poisson", "bursty", "diurnal"],
        default="poisson",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--control-period", type=float, default=None,
        help="seconds between weight updates (default: ~25N arrivals)",
    )
    serve.add_argument(
        "--slo", type=float, default=None,
        help="latency SLO in seconds (default: 3x the equalized sojourn)",
    )
    serve.add_argument(
        "--quantiles", choices=["sketch", "exact"], default="sketch",
        help="sketch = bounded-memory streaming summary, exact = full sort",
    )
    serve.add_argument(
        "--trace-out", default=None,
        help="write the serving trace (per-period records) as JSONL; "
        "with multiple policies, the policy name is suffixed to the stem",
    )

    profile = sub.add_parser(
        "profile", help="profile an instrumented workload (wall/CPU spans)"
    )
    profile.add_argument(
        "scenario", choices=["mw", "fd", "loop", "trainer"], nargs="?",
        default="mw",
    )
    profile.add_argument("--workers", type=int, default=30)
    profile.add_argument("--rounds", type=int, default=100)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--engine", choices=["auto", "fast", "event"], default="auto",
    )

    sub.add_parser("list", help="show experiments, algorithms and models")
    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    from dataclasses import replace

    scale = _SCALES[args.scale]
    if args.jobs is not None:
        scale = replace(scale, jobs=args.jobs)
    if args.checkpoint_dir is not None:
        scale = replace(scale, checkpoint_dir=args.checkpoint_dir)
    EXPERIMENTS[args.id](scale)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    env = TrainingEnvironment(args.model, num_workers=args.workers, seed=args.seed)
    runs: dict[str, RunResult] = {}
    for name in args.algorithms:
        balancer = paper_balancer(name, args.workers)
        runs[name] = run_online(balancer, env, args.rounds)
    summaries = compare_runs(runs)
    print(comparison_table(summaries))
    if args.csv:
        path = export_comparison_csv(summaries, args.csv)
        print(f"\nwrote {path}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export_all import export_all

    written = export_all(
        args.out, _SCALES[args.scale], only=args.only, jobs=args.jobs
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import main as bench_main

    return bench_main(
        out=args.out,
        baseline=args.baseline,
        tolerance=args.tolerance,
        quick=args.quick,
        update_baseline=args.update_baseline,
        jobs=args.jobs,
        only=args.only,
    )


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.viz.figures import render_all

    written = render_all(args.out, _SCALES[args.scale], only=args.only)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.chaos import FaultSchedule, load_schedule, run_soak
    from repro.chaos.faults import _topology_by_name
    from repro.costs.timevarying import RandomAffineProcess
    from repro.net.links import ConstantLatency, Link
    from repro.obs.tracer import Tracer
    from repro.protocols.fully_distributed import FullyDistributedDolbie
    from repro.protocols.master_worker import MasterWorkerDolbie

    topology = _topology_by_name(args.topology, args.workers)
    if args.spec:
        schedule = load_schedule(args.spec)
        rounds = max(args.rounds, schedule.horizon)
    elif args.scenario == "rolling-restart":
        schedule = FaultSchedule.rolling_restart(args.workers, args.rounds)
        rounds = args.rounds
    else:
        schedule = FaultSchedule.random(
            args.workers, args.rounds, seed=args.seed, topology=topology
        )
        rounds = args.rounds
    durable = bool(
        args.checkpoint_every or args.checkpoint_dir or args.resume
        or args.kill_at_round or args.trace_out
    )
    if durable and args.protocol == "both":
        print(
            "chaos: checkpoint/trace options need a single protocol "
            "(--protocol mw or fd)",
            file=sys.stderr,
        )
        return 2
    store = None
    if args.checkpoint_dir:
        from repro.ckpt import CheckpointStore

        store = CheckpointStore(args.checkpoint_dir)
    if (args.checkpoint_every or args.resume or args.kill_at_round) and store is None:
        print(
            "chaos: --checkpoint-every/--resume/--kill-at-round need "
            "--checkpoint-dir",
            file=sys.stderr,
        )
        return 2
    resume_from = None
    if args.resume:
        resume_from = store.latest()
        if resume_from is None:
            print(
                f"chaos: no intact checkpoint under {args.checkpoint_dir}",
                file=sys.stderr,
            )
            return 2
        print(f"resuming from round {resume_from.round_index}")
    round_hook = None
    if args.kill_at_round:
        import os
        import signal

        def round_hook(t: int, _protocol) -> None:
            if t == args.kill_at_round:
                # The checkpoint for round t is already durable; dying
                # here is exactly the failure the resume path must
                # survive bit-identically.
                os.kill(os.getpid(), signal.SIGKILL)

    print(f"schedule: {schedule!r}")
    process = RandomAffineProcess(
        speeds=np.linspace(1.0, 2.0, args.workers), seed=args.seed
    )
    trace_sink: list[Tracer] = []

    def _with_tracer(build):
        def factory():
            protocol = build()
            if args.trace_out:
                protocol.tracer = Tracer()
                protocol.cluster.tracer = protocol.tracer
                trace_sink.append(protocol.tracer)
            return protocol

        return factory

    factories = {
        "mw": _with_tracer(
            lambda: MasterWorkerDolbie(
                args.workers, link=Link(ConstantLatency(0.001))
            )
        ),
        "fd": _with_tracer(
            lambda: FullyDistributedDolbie(
                args.workers,
                link=Link(ConstantLatency(0.001)),
                topology=topology,
            )
        ),
    }
    selected = ["mw", "fd"] if args.protocol == "both" else [args.protocol]
    all_ok = True
    for key in selected:
        report = run_soak(
            factories[key], schedule, process, rounds,
            checkpoint_every=args.checkpoint_every,
            checkpoint_store=store,
            resume_from=resume_from,
            round_hook=round_hook,
        )
        print(report.summary())
        all_ok = all_ok and report.ok
    if args.trace_out and trace_sink:
        from repro.io import save_trace

        path = save_trace(trace_sink[-1].trace, args.trace_out)
        print(f"wrote {path}")
    return 0 if all_ok else 1


def _cmd_ckpt(args: argparse.Namespace) -> int:
    import json

    from repro.ckpt import CheckpointStore, resume_run, run_with_checkpoints
    from repro.obs import scenarios

    store = CheckpointStore(args.dir)
    if args.ckpt_command == "save":
        trace, result = run_with_checkpoints(
            args.architecture,
            args.engine,
            args.workers or scenarios.GOLDEN_WORKERS,
            args.rounds or scenarios.GOLDEN_ROUNDS,
            args.seed if args.seed is not None else scenarios.GOLDEN_SEED,
            store=store,
            checkpoint_every=args.every,
            checkpoint_at=args.at,
        )
        for round_index in store.rounds():
            print(f"checkpoint: {store.path_for(round_index)}")
        _write_run_outputs(trace, result, args.trace_out, args.csv_out)
        return 0
    if args.ckpt_command == "inspect":
        summary = store.inspect(args.round)
        if summary is None:
            print(f"no intact checkpoint under {args.dir}", file=sys.stderr)
            return 1
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    # resume
    snapshot = store.latest() if args.round is None else store.load(args.round)
    if snapshot is None:
        print(f"no intact checkpoint under {args.dir}", file=sys.stderr)
        return 1
    print(f"resuming {snapshot.kind!r} run from round {snapshot.round_index}")
    trace, result = resume_run(snapshot, rounds=args.rounds)
    print(
        f"completed {result.horizon} rounds "
        f"({result.horizon - snapshot.round_index} resumed)"
    )
    _write_run_outputs(trace, result, args.trace_out, args.csv_out)
    return 0


def _write_run_outputs(trace, result, trace_out, csv_out) -> None:
    from pathlib import Path

    from repro.ckpt import run_result_to_csv
    from repro.io import save_trace

    if trace_out:
        path = save_trace(trace, trace_out)
        print(f"wrote {path}")
    if csv_out:
        out = Path(csv_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(run_result_to_csv(result))
        print(f"wrote {out}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.io import load_trace, save_trace
    from repro.obs import diff_traces
    from repro.obs import scenarios

    if args.trace_command == "record":
        trace = scenarios.build_trace(
            args.scenario,
            engine=args.engine,
            num_workers=args.workers or scenarios.GOLDEN_WORKERS,
            rounds=args.rounds or scenarios.GOLDEN_ROUNDS,
            seed=args.seed if args.seed is not None else scenarios.GOLDEN_SEED,
        )
        path = save_trace(trace, args.out)
        print(f"wrote {path} ({len(trace.records)} records)")
        return 0
    if args.trace_command == "show":
        trace = load_trace(args.path)
        print(trace.summary())
        return 0
    # diff
    left = load_trace(args.left)
    right = load_trace(args.right)
    diff = diff_traces(left, right, include_header=args.include_header)
    summary = diff.summary()
    print(summary)
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(summary + "\n")
        print(f"wrote {out}")
    return 0 if diff.empty else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.reporting import print_table
    from repro.experiments.serving_experiment import fleet_service_rates
    from repro.io import save_trace
    from repro.obs.tracer import Tracer
    from repro.serving import (
        SERVING_POLICIES,
        ServingSimulator,
        make_arrivals,
        make_policy,
    )

    policies = list(args.policy)
    if policies == ["all"]:
        policies = sorted(SERVING_POLICIES)
    unknown = [name for name in policies if name not in SERVING_POLICIES]
    if unknown:
        print(
            f"serve: unknown policies {unknown}; choose from "
            f"{sorted(SERVING_POLICIES)}",
            file=sys.stderr,
        )
        return 2
    mu = fleet_service_rates(args.workers)
    rate = 0.85 * float(mu.sum())
    rows = []
    slo = None
    for name in policies:
        arrivals = make_arrivals(args.arrival, rate, seed=args.seed)
        tracer = Tracer() if args.trace_out else None
        if tracer is not None:
            tracer.header(
                "serving",
                args.workers,
                args.requests,
                seed=args.seed,
                policy=name,
                arrivals=args.arrival,
            )
        simulator = ServingSimulator(
            arrivals,
            make_policy(name, args.workers, mu, seed=args.seed),
            mu,
            seed=args.seed,
            control_period=args.control_period,
            slo=args.slo,
            quantile_mode=args.quantiles,
            tracer=tracer,
        )
        summary = simulator.run(args.requests)
        slo = summary.slo
        rows.append(
            [
                name,
                f"{summary.p50:.3f}",
                f"{summary.p99:.3f}",
                f"{summary.p999:.3f}",
                f"{summary.mean_latency:.3f}",
                f"{100.0 * summary.slo_attainment:.2f}%",
                summary.completed,
                summary.failed,
            ]
        )
        if tracer is not None:
            out = Path(args.trace_out)
            if len(policies) > 1:
                out = out.with_name(f"{out.stem}-{name}{out.suffix}")
            path = save_trace(tracer.trace, out)
            print(f"wrote {path}")
    print_table(
        f"serving: N={args.workers}, {args.requests} {args.arrival} "
        f"requests at rate {rate:.2f}/s, SLO={slo:.2f}s "
        f"({args.quantiles} quantiles)",
        ["policy", "p50", "p99", "p999", "mean", "SLO att.", "completed",
         "failed"],
        rows,
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import Profiler
    from repro.obs import scenarios

    profiler = Profiler()
    if args.scenario in ("mw", "fd"):
        from repro.protocols.fully_distributed import FullyDistributedDolbie
        from repro.protocols.master_worker import MasterWorkerDolbie

        cls = MasterWorkerDolbie if args.scenario == "mw" else FullyDistributedDolbie
        protocol = cls(
            args.workers,
            alpha_1=0.001,
            use_fast_path=args.engine != "event",
            profiler=profiler,
        )
        protocol.run(
            scenarios._cost_process(args.workers, args.seed), args.rounds
        )
        detections = (
            f" ({protocol.detect_rounds} failure detection)"
            if args.scenario == "fd" else ""
        )
        label = f"{protocol.name}: {protocol.fast_rounds} fast{detections} " \
                f"/ {protocol.fallback_rounds} event rounds"
    elif args.scenario == "loop":
        from repro.core.dolbie import Dolbie
        from repro.core.loop import run_online

        balancer = Dolbie(args.workers, alpha_1=0.001)
        run_online(
            balancer,
            scenarios._cost_process(args.workers, args.seed),
            args.rounds,
            profiler=profiler,
        )
        label = balancer.name
    else:  # trainer
        from repro.core.dolbie import Dolbie
        from repro.mlsim.environment import TrainingEnvironment
        from repro.mlsim.trainer import SyncTrainer

        env = TrainingEnvironment(
            "ResNet18", num_workers=args.workers, seed=args.seed
        )
        SyncTrainer(env).train(
            Dolbie(args.workers, alpha_1=0.001), args.rounds,
            profiler=profiler,
        )
        label = "SyncTrainer/DOLBIE"
    print(f"{label} — {args.workers} workers, {args.rounds} rounds")
    print(profiler.summary_table())
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:", ", ".join(sorted(EXPERIMENTS)))
    print("algorithms: ", ", ".join(sorted(ALGORITHMS)))
    print("models:     ", ", ".join(sorted(MODEL_CATALOG)))
    print("scales:     ", ", ".join(sorted(_SCALES)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "compare": _cmd_compare,
        "export": _cmd_export,
        "bench": _cmd_bench,
        "figures": _cmd_figures,
        "chaos": _cmd_chaos,
        "ckpt": _cmd_ckpt,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "profile": _cmd_profile,
        "list": _cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
