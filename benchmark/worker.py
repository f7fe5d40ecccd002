"""One in-process workload in a fresh interpreter; prints one JSON line.

    python benchmark/worker.py --workload lattice --seed 1 --seconds 10 --trace 0
    python benchmark/worker.py --workload lattice --seed 1 --setup-only

``run.py`` starts this with the hash seed fixed, ``AMALGSEP_THREADS``
unset and ``src`` on the path. Set-up is timed from before the first
amalgsep import to the first timed operation: it imports the library,
builds the first round (inputs plus factor groups through
``construct_group``) and runs a warm-up pass on inputs drawn from
another seed. Rounds then repeat until ``--seconds`` have passed; only
whole rounds run. Every round performs the same skeleton of operations
on fresh inputs (a new relabeling), so the i-th operation of each round
does the same work, and every output is checked after its round,
outside the timed region. Set-up and every operation are also reported
at reference speed (``speed.Probe``), from reference samples taken
before and after them.

With ``--trace 1`` the worker runs a fixed number of rounds with every
public amalgsep function wrapped (set-up included), then the same rounds
again untraced, and reports per-layer counters and the tracing overhead.
"""

from __future__ import annotations

import time

import speed  # the reference clock; imports no amalgsep

PROBE = speed.Probe()
PROBE.sample()
T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# The warm-up pass: the first op of each listed kind (all kinds when
# None), from the first `limit` ops of a round on warm-up inputs. It
# touches the code paths and catalog tables the timed ops use while
# keeping set-up short.
WARMUP = {
    "finite-witness": (None, 48),
    "lattice": (None, 1),
    "free-scan": ({"classes/pc2", "classes/pc3", "classes/rank2", "separate/plain",
                   "separate/p", "separate-rank2/plain"}, None),
}


def warm_up(workload: str, ops) -> None:
    kinds, limit = WARMUP[workload]
    seen = set()
    for op in ops[:limit]:
        if (kinds is None or op.kind in kinds) and op.kind not in seen:
            seen.add(op.kind)
            op.call()


# Rounds of a traced run: fixed, so that counters repeat exactly.
TRACE_ROUNDS = {"finite-witness": 2, "lattice": 1, "free-scan": 1}


def streams(workload: str, seed: int, r: int) -> tuple[random.Random, random.Random]:
    """(skeleton, label) random streams of round ``r``: every round repeats
    the same skeleton on a fresh relabeling drawn from the seed."""
    return (random.Random(f"skeleton:{workload}"),
            random.Random(f"label:{workload}:{seed}:{r}"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(make_round, workload, seed, first, keep_going, after_first=lambda: None):
    """Run whole rounds; returns (op times per round, the same at reference
    speed, attempted, failed, errors)."""
    times, scaled, attempted, failed, errors = [], [], 0, 0, []
    r, ops = 0, first
    while True:
        outputs, starts, round_times = [], [], []
        for op in ops:
            PROBE.due()
            t0 = time.perf_counter()
            out = op.call()
            round_times.append(time.perf_counter() - t0)
            starts.append(t0)
            outputs.append(out)
        PROBE.sample()
        times.append(round_times)
        scaled.append([PROBE.scale(t0, dt) for t0, dt in zip(starts, round_times)])
        if r == 0:
            after_first()
        for op, out in zip(ops, outputs):
            attempted += 1
            if op.failed(out):
                failed += 1
                continue
            try:
                op.check(out)
            except AssertionError as exc:
                errors.append(f"round {r} {op.kind}: {exc}")
        r += 1
        if not keep_going(r):
            return times, scaled, attempted, failed, errors
        ops = make_round(*streams(workload, seed, r))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    import workloads

    make_round = workloads.IN_PROCESS[args.workload]
    first = make_round(*streams(args.workload, args.seed, 0))
    inputs = hashlib.sha256(repr([op.inputs for op in first]).encode()).hexdigest()[:16]
    warm = make_round(random.Random(f"warm-up:{args.workload}"),
                      random.Random(f"warm-up:{args.workload}:{args.seed}"))
    warm_up(args.workload, warm)
    setup_wall_s = time.perf_counter() - T_START
    PROBE.sample()
    setup_s = PROBE.scale(T_START, setup_wall_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is None:
        # Peak RSS over set-up and the first round's operations (checks
        # excluded): a fixed amount of work.
        # The library's id-keyed caches keep every presentation alive, so
        # the peak after more rounds grows with the number of rounds that
        # fit in the run.
        first_rss = []
        t_loop = time.perf_counter()
        raw, times, attempted, failed, errors = run_rounds(
            make_round, args.workload, args.seed, first,
            lambda r: time.perf_counter() - t_loop < args.seconds,
            lambda: first_rss.append(peak_rss_mb()))
        result = {"setup_s": setup_s, "times": times, "raw_s": sum(map(sum, raw)),
                  "peak_rss_mb": first_rss[0], "end_rss_mb": peak_rss_mb()}
    else:
        rounds = TRACE_ROUNDS[args.workload]
        times, _, attempted, failed, errors = run_rounds(
            make_round, args.workload, args.seed, first, lambda r: r < rounds)
        tracer.uninstall()
        summary = tracer.summary()
        if args.trace_out:
            tracer.write(args.trace_out)
        plain, _, a2, f2, e2 = run_rounds(
            make_round, args.workload, args.seed,
            make_round(*streams(args.workload, args.seed, 0)), lambda r: r < rounds)
        attempted, failed, errors = attempted + a2, failed + f2, errors + e2
        result = {"trace": spans.merge([summary]), "traced_s": sum(map(sum, times)),
                  "untraced_s": sum(map(sum, plain))}
    result.update(inputs=inputs, attempted=attempted, failed=failed, errors=errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
