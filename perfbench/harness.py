"""One workload run in a fresh interpreter (started by ``run.py``).

Sets the workload up several times back to back (``setup_s`` is the
median; each repetition includes the warm-up op), then runs ops on the
last set-up's state until their timed total reaches ``--seconds``, and
prints the result. With ``--trace 1`` the layer tracer is installed
first, set-up runs once and traced, and ops run in pairs of one traced
and one untraced op.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import resource
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

import layers
import workloads
from config import WORKLOADS
from run import OUT, parse_args
from tracing import SETUP_OP, UNTIMED, LayerTracer, numba_present

#: Ops whose outputs feed the printed digest.
DIGEST_OPS = 3
#: Set-up repeats until it has run ``SETUP_MIN_REPS`` times and taken
#: ``SETUP_SECONDS`` in total, or has run ``SETUP_MAX_REPS`` times: two
#: ~10 s set-ups on fd_tree_1m, a dozen or more of the short ones.
SETUP_MIN_REPS = 2
SETUP_MAX_REPS = 15
SETUP_SECONDS = 3.0
#: The end-to-end metrics of the result line. ``throughput_ops_s`` and
#: ``op_p50_s`` are printed with the others but left out of it: on the
#: measuring box their spread between runs exceeds the bound (README.md).
END_TO_END = ("setup_s", "op_p90_s", "peak_rss_mib")
#: Ops stop once wall time, output checks included, reaches this many
#: times ``--seconds``, so a run always ends in bounded time.
WALL_CAP = 2.5


class OpClock:
    """Times one set-up or op minus its ``untimed()`` sections, during
    which tracing is switched off."""

    def __init__(self, tracer: LayerTracer | None) -> None:
        self.tracer = tracer
        self.untimed_s = 0.0

    @contextmanager
    def untimed(self):
        tracer = self.tracer
        if tracer is not None:
            span = tracer.open(UNTIMED)
            tracer.enabled = False
        start = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = True
                tracer.close(span)


def timed(fn, tracer: LayerTracer | None = None, op: int = SETUP_OP):
    """Run ``fn(clock)``; return (timed seconds, failed checks). With a
    tracer the call is recorded as op ``op``."""
    clock = OpClock(tracer)
    if tracer is not None:
        tracer.enabled = True
        root = tracer.begin_op(op)
    start = time.perf_counter()
    try:
        problems = fn(clock)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op(root)
            tracer.enabled = False
    return wall - clock.untimed_s, problems


def net_snapshot(workload):
    """(messages, bytes, rounds) so far on the workload's protocol, or
    ``None`` when it has none."""
    protocol = workload.protocol
    if protocol is None:
        return None
    metrics = protocol.metrics
    return (metrics.messages_total, metrics.bytes_total,
            protocol.fast_rounds + protocol.fallback_rounds)


def machine_context(workload) -> dict:
    protocol = workload.protocol
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "numba": numba_present(),
        "backend": None if protocol is None else protocol.backend.name,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv) -> int:
    args = parse_args(argv)
    row = WORKLOADS[args.workload]
    workload = getattr(workloads, row["class"])(args.seed, **row["params"])
    tracer = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install()

    problems: list[str] = []
    setup_times, setup_digests = [], []
    while not setup_times or (
        tracer is None and len(setup_times) < SETUP_MAX_REPS
        and (len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_SECONDS)
    ):
        if setup_times:
            workload.release()  # untimed: free the previous state first
            gc.collect()
        elapsed, failed = timed(workload.setup, tracer)
        problems.extend(f"set-up {len(setup_times)}: {p}" for p in failed)
        setup_times.append(elapsed)
        setup_digests.append(workload.digest())
    if len(set(setup_digests)) > 1:
        problems.append("set-up repetitions produced different outputs")

    digest = hashlib.blake2b(setup_digests[0], digest_size=16)
    times, traced_times, untraced_times, traced_ops = [], [], [], set()
    # Traced runs take ops in pairs, one traced and one not, in an order a
    # seeded coin picks. Strict alternation would put op costs that repeat
    # with period two (fd_tree_1m's do) all on one side and bias
    # trace.overhead_share.
    coin = random.Random(args.seed)
    first_traced = True
    attempted = failed_ops = 0
    net = [0, 0, 0]
    wall_start = time.perf_counter()
    while (sum(times) < args.seconds
           and time.perf_counter() - wall_start < WALL_CAP * args.seconds):
        if attempted % 2 == 0:
            first_traced = coin.random() < 0.5
        traced = tracer is not None and first_traced == (attempted % 2 == 0)
        before = net_snapshot(workload) if traced else None
        attempted += 1
        try:
            elapsed, failed = timed(workload.op, tracer if traced else None, attempted - 1)
        except Exception:  # a raising op fails the run; report what ran
            traceback.print_exc()
            failed_ops += 1
            problems.append(f"op {attempted - 1} raised")
            break
        if before is not None:
            net = [t + a - b for t, a, b in zip(net, net_snapshot(workload), before)]
        times.append(elapsed)
        if traced:
            traced_ops.add(attempted - 1)
            traced_times.append(elapsed)
        else:
            untraced_times.append(elapsed)
        if failed:
            failed_ops += 1
            problems += [f"op {attempted - 1}: {p}" for p in failed[:3]]
        if attempted <= DIGEST_OPS:
            digest.update(workload.digest())
    if not times:
        print("no op completed", file=sys.stderr)
        return 1

    correct = not problems
    reported = None
    if tracer is None:
        reported = END_TO_END
        rows = [
            ("setup_s", float(np.median(setup_times)), "s", len(setup_times)),
            ("throughput_ops_s", len(times) / sum(times), "1/s", len(times)),
            ("op_p50_s", float(np.percentile(times, 50)), "s", len(times)),
            ("op_p90_s", float(np.percentile(times, 90)), "s", len(times)),
            ("peak_rss_mib",
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1),
        ]
    else:
        rows = layers.per_layer_rows(
            tracer, workload, traced_ops=traced_ops,
            traced_times=traced_times, untraced_times=untraced_times, net=net,
        )
        tracer.dump(OUT / f"trace-{args.workload}.json")

    print("context: " + json.dumps(machine_context(workload), sort_keys=True))
    print(f"digest: {digest.hexdigest()}")
    for line in problems[:20]:
        print(f"check failed: {line}")
    print(f"ops: {attempted} attempted, {failed_ops} failed "
          f"(failed share {failed_ops / attempted:.4f})")
    for name, value, unit, samples in rows:
        print(f"metric {name} = {value!r} {unit} (samples {samples})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows
                    if reported is None or name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
