"""Record alternating parent/change benchmark runs as one BENCH_<n>.json.

    python3 tools/bench_record.py --parent DIR --change DIR --out BENCH_<n>.json

Each DIR is the root of a git checkout (its ``perfbench/`` and ``src/``),
one at the parent commit and one at the change.  The record names each
side by its ``git rev-parse HEAD`` and by a sha256 over its
``src/entropion/*.py``, so uncommitted edits are named too; a side that
is not the top of a git checkout is refused before any run.  The
workloads and the run length come from the change's ``BENCHMARK.json``
(``workloads[].name``, ``run_seconds``).  For every workload, pair k of ``PAIRS`` runs
``perfbench/run.py --trace 0`` at seed ``SEED + k`` on both, the parent
first on even k and the change first on odd k, one run at a time.  Then
each side gets one traced run (``--trace 1``, ``TRACE_SECONDS`` long) per
workload at seed ``SEED``, for the per-layer metrics.

The record holds every run, and per workload and end-to-end metric: each
side's median and quartiles, the pairs the change won (ties count for
neither), the parent's interquartile range, whether the change's median
stays within the bound of ``BENCHMARK.json`` and whether a gain is
resolved (wins in at least nine tenths of the pairs and a median gap
wider than the parent's interquartile range).  Each metric also gets a
``not_worse`` status: ``yes`` if every change run beats every parent run;
else ``no`` if the change's median is worse than the parent's by more
than the bound; else ``unresolved`` if either side's interquartile range
over its median exceeds the bound (the runs spread too widely to tell);
else ``yes``.  ``pair_ratio`` holds the quartiles of change/parent taken
pair by pair, and ``pair_ratio_spread`` their interquartile range over
their median: drift that both runs of a pair share cancels in the ratio,
so this spread shows the effect's own scatter, where each side's spread
also holds the machine's drift over the recording.  These two are
reported only; the statuses above do not read them.  The file is
rewritten after every run, so an interrupted recording keeps the runs it
made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
PAIRS = 10
SEED = 600
TRACE_SECONDS = 10.0


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        lower = spec["better"] == "lower"
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        p, c = quartiles(parent), quartiles(change)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
        worse_by = (c["median"] - p["median"]) / p["median"]
        if not lower:
            worse_by = -worse_by
        parent_iqr = p["q3"] - p["q1"]
        spread = {side: (q["q3"] - q["q1"]) / q["median"] for side, q in (("parent", p), ("change", c))}
        too_wide = max(spread.values()) > spec["bound"]
        beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
        if beats_all:
            not_worse = "yes"
        elif worse_by > spec["bound"]:
            not_worse = "no"
        else:
            not_worse = "unresolved" if too_wide else "yes"
        ratio = quartiles([b / a for a, b in zip(parent, change)])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": p,
            "change": c,
            "change_over_parent": c["median"] / p["median"],
            "change_wins": wins,
            "pairs": len(runs),
            "parent_iqr": parent_iqr,
            "bound": spec["bound"],
            "within_bound": worse_by <= spec["bound"],
            "spread": spread,
            "spread_exceeds_bound": too_wide,
            "change_beats_every_parent_run": beats_all,
            "pair_ratio": ratio,
            "pair_ratio_spread": (ratio["q3"] - ratio["q1"]) / ratio["median"],
            "not_worse": not_worse,
            "gain_resolved": (wins >= 0.9 * len(runs)
                              and worse_by < 0
                              and abs(c["median"] - p["median"]) > parent_iqr),
        }
    return out


def git_rev(root: Path) -> str:
    """The commit checked out at ``root``, which must be the top of a git
    checkout (a directory inside another checkout would name that one's
    commit); SystemExit otherwise."""
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                          capture_output=True, text=True)
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        raise SystemExit(f"{root} is not the top of a git checkout with a commit; "
                         f"a record must name the revisions it timed")
    return lines[1]


def source_digest(root: Path) -> str:
    """sha256 over the name and bytes of each ``src/entropion/*.py`` at
    ``root``, in name order."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "entropion").glob("*.py")):
        h.update(f"{path.name}\0{path.stat().st_size}\0".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    for path, key, field in (("/proc/cpuinfo", "cpu", "model name"),
                             ("/proc/meminfo", "mem_total", "MemTotal")):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(field):
                        facts[key] = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    revisions = {side: git_rev(root) for side, root in roots.items()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = float(bench["run_seconds"])

    record = {
        "command": " ".join(["python3", "tools/bench_record.py"] + (argv or sys.argv[1:])),
        "revisions": revisions,
        "sources_sha256": {side: source_digest(root) for side, root in roots.items()},
        "pairs": PAIRS,
        "seconds": seconds,
        "trace_seconds": TRACE_SECONDS,
        "seeds": [SEED + k for k in range(PAIRS)],
        "order": "parent first on even pairs, change first on odd pairs",
        "machine": machine(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }

    def save():
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    for workload in (w["name"] for w in bench["workloads"]):
        entry = record["workloads"][workload] = {"runs": [], "traced": {}}
        for k in range(PAIRS):
            seed = SEED + k
            pair = {}
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                pair[side] = run_once(roots[side], workload, seed, seconds, 0)
                print(f"{workload} pair {k} {side}: "
                      f"ops_per_s {pair[side]['metrics']['ops_per_s']:.2f}", file=sys.stderr)
            entry["runs"].append({"pair": k, "first": "parent" if k % 2 == 0 else "change", **pair})
            entry["summary"] = summarize(entry["runs"], bench["end_to_end"])
            entry["ops"] = {
                side: {key: sum(r[side][key] for r in entry["runs"]) for key in ("attempted", "failed")}
                | {"all_correct": all(r[side]["correct"] for r in entry["runs"])}
                for side in SIDES
            }
            save()
        for name, metric in entry["summary"].items():
            ratio = metric["pair_ratio"]
            print(f"{workload} {name}: not_worse {metric['not_worse']}, change/parent "
                  f"{ratio['median']:.3f} [{ratio['q1']:.3f}-{ratio['q3']:.3f}]", file=sys.stderr)
        for side in SIDES:
            entry["traced"][side] = run_once(roots[side], workload, SEED, TRACE_SECONDS, 1)
            save()
    record["finished_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
