"""Benchmark entry point.

    python3 perfbench/run.py --workload {experiment,pipeline,gradcheck}
                             --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from its
``src/``. Set-up runs SETUP_REPEATS times; then whole rounds repeat while
one more round, at the mean round time so far, still ends within
``--seconds`` (at least WARMUP_ROUNDS + 1 rounds). With ``--trace 0`` the
last stdout line is the end-to-end metrics, the same three on every
workload: ``setup_s`` (median set-up), ``round_s`` (median round after the
warm-up) and ``peak_rss_mb``. With ``--trace 1`` the public functions
are wrapped with spans and the line holds every per-layer metric instead,
while the spans are written to ``.perfbench_out/``. Human-readable detail,
such as each round's stage times, goes to stderr. See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

#: Set-up repetitions per run; set-up time is their median.
SETUP_REPEATS = 5
#: Leading rounds left out of ``round_s`` (they still run and are checked).
WARMUP_ROUNDS = 1

# One BLAS thread per process: with --jobs equal to the core count, the
# pipeline then runs at most one compute thread per core. OpenBLAS reads
# these once, when numpy loads it, so they are set before any import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _import_program():
    """Import cardioprior from this checkout's src/, or exit non-zero without a result."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import cardioprior
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cardioprior from {src}: {exc}")
    if not os.path.abspath(cardioprior.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: cardioprior was imported from {cardioprior.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("experiment", "pipeline", "gradcheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _import_program()
    import tracing
    from workloads import WORKLOADS, Outcome

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = tracing.Tracer() if args.trace else None
    outcome = Outcome()
    rounds: list[dict] = []
    setup_times: list[float] = []
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if tracer:
            tracer.install()
        try:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
            t_start = time.perf_counter()
            while True:
                if tracer:
                    tracer.phase = len(rounds) + 1
                t0 = time.perf_counter()
                out = workload.run_round()
                round_s = time.perf_counter() - t0
                if tracer:
                    tracer.restore()
                workload.check_round(out, outcome)
                # keep only the timings, so that memory does not grow with the run length
                rounds.append(dict(out["timings"], round_s=round_s))
                del out
                if tracer:
                    tracer.install()
                # stop before a round that would end past --seconds
                elapsed = time.perf_counter() - t_start
                if (len(rounds) > WARMUP_ROUNDS
                        and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds):
                    break
        finally:
            if tracer:
                tracer.restore()
    except Exception:  # noqa: BLE001 - a raising program gives no result at all
        traceback.print_exc()
        print("perfbench: the program raised; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in outcome.messages:
        print(f"FAILED {message}", file=sys.stderr)
    if tracer:
        metrics = tracer.layer_metrics(SETUP_REPEATS, len(rounds))
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz")
        tracer.save(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "round_s": (statistics.median(r["round_s"] for r in rounds[WARMUP_ROUNDS:]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for r in rounds:
        print("round " + " ".join(f"{k}={v:.4f}" for k, v in r.items()), file=sys.stderr)
    print("setup " + " ".join(f"{v:.4f}" for v in setup_times), file=sys.stderr)
    result = {
        "correct": outcome.check_failures == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
