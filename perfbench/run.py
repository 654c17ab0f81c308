"""structsum benchmark: one workload, one closed loop, one caller.

    python3 perfbench/run.py --workload duc-train-pairwise --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The inputs are generated from ``--seed`` into
``.perfbench_run/<workload>-seed<n>/``, loaded (set-up, repeated and timed),
and then operations run one after another, single-threaded, until the next
one would end past ``--seconds``. Every operation's outputs are checked after
its timed part. Operation 0 runs on evaluation sets that are the same for
every seed, and its F values give ``heldout_f``, which is therefore exact.
The outputs of the first ``min_ops`` operations, which every run performs,
give the output digest; those of operation 0 alone give the evaluation
digest, which is comparable across seeds.

``ops_per_s`` is the number of operations divided by their total time. It is
reported instead of a median because on a shared host the CPU can run up to
half slower for tens of seconds at a time, and a median over a few operations
then jumps between the fast and the slow speed. The median and the tail
percentile are printed above the result for people.

Workloads and the unit operation ``ops_per_s`` counts (on duc-summarize it
is the number of sets summarized per second):
  duc-train-pairwise    train_on one DUC-shaped set (pairwise, 2 iterations,
                        train-F on), then predict one held-out set
  duc-summarize         summarize one held-out set with the pairwise, split
                        and coverage models and the tf-idf baseline
  small-cgrid-coverage  select_c for the coverage model over C in {1, 10, 100}
                        on 12 small training sets (at most 3
                        iterations) and 3 validation sets

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each
operation twice, once plain and once with spans at the layer boundaries in
``perfbench/tracing.py``, prints the per-layer table (calls, busy and self
seconds) and reports the traced minus the plain wall time as the tracing
overhead. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9

# (name, unit, better, bound); every workload reports all of them
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("heldout_f", "F", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def per_layer_specs():
    """(name, unit, better) of every metric a traced run reports."""
    from perfbench.tracing import LAYERS

    specs = []
    for layer in LAYERS:
        specs += [
            (layer.metric("s"), "s", "lower"),
            (layer.metric("self_s"), "s", "lower"),
            (layer.calls_name, "count", "lower"),
        ]
    specs += [
        ("corpus.sentences", "count", "higher"),
        ("features.builds_per_set", "ratio", "lower"),
        ("greedy.gain_evals", "count", "lower"),
        ("greedy.accepted", "count", "higher"),
        ("learner.iterations", "count", "lower"),
        ("learner.constraints", "count", "lower"),
        ("learner.added_ratio", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def tail(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def closed_loop(step, min_ops, seconds):
    """Call ``step(0)``, ``step(1)``, ... one after another: at least
    ``min_ops`` times, then while the next call, estimated by the slowest so
    far, ends within ``seconds``."""
    start = time.perf_counter()
    slowest = 0.0
    i = 0
    while i < min_ops or time.perf_counter() - start + slowest <= seconds:
        t = time.perf_counter()
        step(i)
        slowest = max(slowest, time.perf_counter() - t)
        i += 1


def digest_of(outs):
    from perfbench.checks import Digest

    d = Digest()
    for o in outs:
        for label, data in o.outputs:
            d.add(label, data)
    return d.hexdigest()


def report_ops(outs):
    """Per-operation lines and the finer timings, for people."""
    for i, o in enumerate(outs):
        status = "ok" if not o.violations else "FAILED: " + "; ".join(o.violations[:3])
        print(f"op {i:3d}  {o.seconds:9.3f} s  {status}")
    pooled: dict[str, list[float]] = {"op_s": [o.seconds for o in outs]}
    for o in outs:
        for name, values in o.timings.items():
            pooled.setdefault(name, []).extend(values)
    for name in sorted(pooled):
        values = pooled[name]
        line = f"  {name + '_p50':28s} {statistics.median(values):12.3f}  (n={len(values)}"
        t = tail(values)
        if t is not None:
            line += f", p{t[0]:.0f}={t[1]:.3f}"
        print(line + ")")


def timed_setup(workload):
    # every repeat starts from a collected heap, so no earlier copy is pending
    gc.collect()
    t = time.perf_counter()
    state = workload.setup()
    return state, time.perf_counter() - t


def run_untraced(workload, seconds):
    """Set-up is timed once before the loop and again after each operation,
    so its samples spread over the run instead of one burst at its start."""
    from perfbench.workloads import TrainRecorder, null_span

    state, seconds_0 = timed_setup(workload)
    setup_times = [seconds_0]
    violations = workload.setup_violations(state)
    outs = []

    def step(i):
        out = workload.op(state, i, null_span)
        workload.check(state, i, out, recorder)
        outs.append(out)
        setup_times.append(timed_setup(workload)[1])

    recorder = TrainRecorder()
    try:
        closed_loop(step, workload.min_ops, seconds)
    finally:
        recorder.close()
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(timed_setup(workload)[1])
    report_ops(outs)
    evaluated = outs[0].f_values
    if not evaluated:
        violations.append("the evaluation operation produced no F")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(outs) / sum(o.seconds for o in outs),
        "heldout_f": sum(evaluated) / len(evaluated) if evaluated else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"set-up repeats (s): {', '.join(f'{t:.4f}' for t in setup_times)}")
    return metrics, outs, violations


def run_traced(workload, seconds):
    """Operation ``i`` runs once untraced and once traced, alternating which
    goes first, so warm-up and drift fall on both sides alike. The patches
    are in place only for the traced operation's timed part; its checks run
    without them."""
    from perfbench.tracing import LAYERS, OP_LAYER, Installation, Tracer
    from perfbench.workloads import TrainRecorder, null_span

    tracer = Tracer()
    plain, traced = [], []
    wall = {False: 0.0, True: 0.0}
    recorder = TrainRecorder()
    try:
        state = workload.setup()
        violations = workload.setup_violations(state)
        installed = Installation(tracer)
        try:
            with tracer.span("bench.setup"):
                traced_state = workload.setup()
        finally:
            installed.close()

        def step(i):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    patches = Installation(tracer)
                t = time.perf_counter()
                try:
                    if with_trace:
                        out = workload.op(traced_state, i, tracer.span)
                    else:
                        out = workload.op(state, i, null_span)
                finally:
                    wall[with_trace] += time.perf_counter() - t
                    if with_trace:
                        patches.close()
                workload.check(traced_state if with_trace else state, i, out, recorder)
                (traced if with_trace else plain).append(out)

        closed_loop(step, workload.min_ops, seconds)
    finally:
        recorder.close()

    if digest_of(plain) != digest_of(traced):
        violations.append("traced operations produced different outputs than untraced ones")
    overhead = wall[True] - wall[False]
    stats = tracer.stats()
    total_self = sum(s.self_s for s in stats.values()) or 1.0

    print(f"{'layer':22s} {'calls':>9s} {'busy s':>10s} {'self s':>10s} {'self %':>7s}")
    for name in [layer.name for layer in LAYERS] + [OP_LAYER, "bench.setup"]:
        if name in installed.absent_layers:
            print(f"{name:22s} {'absent':>9s}")
            continue
        s = stats.get(name)
        if s is None:
            print(f"{name:22s} {0:9d} {0.0:10.3f} {0.0:10.3f} {0.0:7.1f}")
            continue
        print(f"{name:22s} {s.calls:9d} {s.busy_s:10.3f} {s.self_s:10.3f} "
              f"{100.0 * s.self_s / total_self:7.1f}")
    for boundary in installed.absent_boundaries:
        print(f"absent boundary: {boundary}")
    print("expected effect of each layer (end-to-end metric, workload):")
    for layer in LAYERS:
        print(f"  {layer.name:22s} {layer.moves}")
    print(f"tracing overhead: {overhead:.3f} s on {wall[False]:.3f} s untraced "
          f"({100.0 * overhead / wall[False]:.1f}%) over {len(traced)} operations")

    metrics = {}
    for layer in LAYERS:
        s = stats.get(layer.name)
        metrics[layer.metric("s")] = s.busy_s if s else 0.0
        metrics[layer.metric("self_s")] = s.self_s if s else 0.0
        metrics[layer.calls_name] = s.calls if s else 0
    builds = metrics["features.builds"]
    runs = [run for o in traced for run in o.trainings]
    entries = [e for run in runs for e in run["result"].iterations]
    oracle_calls = sum(len(run["result"].iterations) * run["examples"] for run in runs)
    metrics.update({
        "corpus.sentences": sum(x.num_sentences for x, _ in state["data"]),
        "features.builds_per_set": builds / len(tracer.build_sets) if tracer.build_sets else 0.0,
        "greedy.gain_evals": tracer.counters["greedy.gain_evals"],
        "greedy.accepted": tracer.counters["greedy.accepted"],
        "learner.iterations": len(entries),
        "learner.constraints": sum(
            run["result"].iterations[-1]["constraints_total"] for run in runs
            if run["result"].iterations
        ),
        "learner.added_ratio": (
            sum(e["constraints_added"] for e in entries) / oracle_calls if oracle_calls else 0.0
        ),
        "trace.overhead_s": overhead,
    })
    return metrics, plain + traced, violations


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](workdir, args.seed)
    t = time.perf_counter()
    workload.prepare()
    print(f"workload {workload.name}: {workload.why}")
    print(f"inputs generated in {time.perf_counter() - t:.3f} s")

    if args.trace:
        metrics, outs, violations = run_traced(workload, args.seconds)
        specs = per_layer_specs()
    else:
        metrics, outs, violations = run_untraced(workload, args.seconds)
        specs = [(name, unit, better) for name, unit, better, _ in END_TO_END]

    for v in violations:
        print(f"setup check failed: {v}")
    failed = sum(1 for o in outs if o.violations)
    digest = digest_of(outs[: workload.min_ops])
    eval_digest = digest_of(outs[:1])
    result = {
        "correct": failed == 0 and not violations,
        "attempted": len(outs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }
    for name, unit, better in specs:
        print(f"{name:28s} {metrics[name]:14.6g} {unit:6s} ({better} is better)")
    print(f"fail_ratio {failed}/{len(outs)}; digest of the first {workload.min_ops} "
          f"operations: {digest}; of the evaluation operation: {eval_digest}")
    record = dict(result, environment=env, digest=digest, eval_digest=eval_digest,
                  workload=workload.name,
                  seed=args.seed, seconds=args.seconds, trace=args.trace,
                  op_seconds=[o.seconds for o in outs])
    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def _bootstrap() -> None:
    if not (ROOT / "src" / "structsum" / "__init__.py").is_file():
        print(f"error: no structsum sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    # the script's own directory would expose the package's modules at top level
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        del sys.path[0]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
