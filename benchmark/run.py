"""Benchmark entry point: run one workload (or all) and print its metrics.

    python3 benchmark/run.py --workload finite-witness --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20

Run it from the root of a checkout. Each workload runs in fresh
single-threaded interpreters started one after another, all on one CPU,
with ``PYTHONHASHSEED=0``, ``AMALGSEP_THREADS`` unset and the checkout's
``src`` first on the path. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. End-to-end times are at reference speed (see ``speed.py``).
Lines before it give the sample counts, the wall time the operations
took, the 90th percentile where a run has at least 100 operations, and
the tracing overhead. Results and spans are also written under
``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("finite-witness", "lattice", "free-scan", "cli-cold")
# Set-up is measured in this many extra fresh processes besides the
# measured one, half before it and half after; setup_s is the median.
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 170
P90_MIN_SAMPLES = 100


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("AMALGSEP_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def run_child(argv: list) -> dict:
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} ran past {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list]:
    """(result object, human-readable lines) for one workload."""
    args = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
    spans_path = os.path.join(OUT, f"trace-{workload}-{seed}.spans")
    if workload == "cli-cold":
        res = run_child([os.path.join(HERE, "cli_cold.py"), *args, "--workdir",
                         os.path.join(OUT, f"cli-cold-{seed}")])
        setups = res.get("setup_samples", [])
    else:
        worker = [os.path.join(HERE, "worker.py"), "--workload", workload]

        def setup_runs():
            return [] if traced else [
                run_child([*worker, "--seed", str(seed), "--setup-only"])
                for _ in range(SETUP_REPEATS // 2)]

        setups = setup_runs()
        res = run_child([*worker, *args] + (["--trace-out", spans_path] if traced else []))
        setups = [s["setup_s"] for s in setups + setup_runs() + ([res] if not traced else [])]
    lines = [f"{workload}: {res['attempted']} operations attempted, {res['failed']} failed; "
             f"inputs of seed {seed}: sha256 {res['inputs']}"]
    lines += [f"{workload}: CHECK FAILED {e}" for e in res["errors"][:20]]
    if traced:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in spans.per_layer_metrics(res["trace"]).items()}
        cost = spans.wrapper_cost()
        est = res["trace"]["spans"] * cost
        lines.append(
            f"{workload}: tracing overhead: {res['trace']['spans']} spans x "
            f"{1e6 * cost:.2f} us = {est:.3f} s, {100 * est / res['untraced_s']:.1f}% of "
            f"the untraced operations ({res['untraced_s']:.3f} s; the traced pass "
            f"took {res['traced_s']:.3f} s)")
    else:
        # Times at reference speed (speed.py), so that the host's changes
        # of speed do not show as changes of the program.
        rounds = res["times"]
        # Operation i does the same work in every round; its median over
        # the rounds discounts bursts of load from outside.
        list_s = sum(statistics.median(col) for col in zip(*rounds))
        times = [t for r in rounds for t in r]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(rounds[0]) / list_s, "unit": "op/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(times), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
        lines.append(f"{workload}: {len(rounds)} rounds of {len(rounds[0])} operations; "
                     f"latency_p50_ms over {len(times)} samples; setup_s is the median of "
                     f"{len(setups)} set-ups ({', '.join(f'{s:.3f}' for s in setups)})")
        lines.append(f"{workload}: times at reference speed; the operations took "
                     f"{res['raw_s']:.3f} s of wall time and {sum(times):.3f} s at "
                     f"reference speed")
        if "end_rss_mb" in res:
            lines.append(f"{workload}: peak_rss_mb after set-up and the first round; "
                         f"{res['end_rss_mb']:.1f} MiB after all {len(rounds)} rounds")
        if len(times) >= P90_MIN_SAMPLES:
            p90 = 1000 * statistics.quantiles(times, n=10)[-1]
            lines.append(f"{workload}: latency_p90_ms {p90:.3f} over {len(times)} samples")
    result = {"correct": not res["errors"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return result, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "amalgsep", "__init__.py")):
        print(f"error: no amalgsep sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    speed.pin_to_one_cpu()
    # Build step: byte-compile once, so no measured process pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   check=True, stdout=subprocess.DEVNULL)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, lines = measure(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            with open(os.path.join(OUT, f"result-{name}-{args.seed}-trace{args.trace}.json"),
                      "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
            if len(names) == 1:
                combined = result
                break
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}/{k}": v for k, v in result["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
