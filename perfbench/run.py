"""End-to-end benchmark of entropion.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: entropion is imported from its
``src`` directory, never from an installed copy.  One process, one op at a
time in a closed loop, whole passes of the workload's deck until the op
time adds up to ``--seconds``.  Every op's output is checked.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 9

# A fresh interpreter imports the package and reports the monotonic clock;
# the parent took the same clock just before starting it.
_SETUP_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import entropion, entropion.cli; "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


def import_entropion():
    if not (SRC / "entropion" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no entropion sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import entropion
    import entropion.cli  # noqa: F401  (the verify entry point)

    if Path(entropion.__file__).resolve().parent != (SRC / "entropion").resolve():
        raise SystemExit(f"run.py: imported entropion from {entropion.__file__}, not {SRC}")
    return entropion


def setup_sample() -> float:
    """Seconds from the start of a fresh process until ``import entropion``
    is done and the first op can start."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.split()[-1]) - start


def run(workload: workloads.Workload, seed: int, seconds: float, api, tracer=None, setup=None):
    """Whole passes of the deck until the op time reaches ``seconds`` and the
    run holds at least ``workload.min_ops`` timed ops; then one op of the
    first pass is repeated and must give the same deterministic output.

    With ``setup``, SETUP_SAMPLES set-up times are taken between passes,
    spread over the run, so their median does not hang on one moment's load.
    """
    tally = workloads.Tally()
    setup_times: list[float] = []
    spent = 0.0
    passes = 0
    first = None
    while passes == 0 or spent < seconds or len(tally.times) < workload.min_ops:
        while setup and len(setup_times) < min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * spent / seconds)):
            setup_times.append(setup())
        deck = workload.deck(seed, passes, api)
        for op in deck:
            outcome = workloads.attempt(op, api)
            tally.add(op, outcome)
            spent += outcome.seconds
            if first is None:
                first = (op, outcome)
        if passes == 0 and tracer is not None:
            tracer.end_pass0()
        passes += 1
    while setup and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(setup())
    op, outcome = first
    tally.repeat_matches(op, outcome, workloads.attempt(op, api))
    return tally, passes, spent, setup_times


def percentile_ms(times: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(times), q)) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    api = import_entropion()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(api)

    tally, passes, spent, setup_times = run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, api, tracer,
        setup=None if args.trace else setup_sample)
    for line in tally.problems:
        print(f"failed: {line}", file=sys.stderr)

    ops = len(tally.times)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (ops / spent, "1/s"),
            "op_ms_p50": (percentile_ms(tally.times, 50), "ms"),
            "op_ms_p95": (percentile_ms(tally.times, 95), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.metrics(passes, ops, spent)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace_{args.workload}.npz")
    print(f"{args.workload} seed {args.seed}: {passes} passes, {ops} timed ops, "
          f"{spent:.2f} s of op time", file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
