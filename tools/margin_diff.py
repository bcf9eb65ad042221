"""Compare per-trial suite outcomes between two checkouts.

    python3 tools/margin_diff.py --parent DIR --change DIR \
        --suites holevo_bound,klein --seeds 5,42,100-159 --dims 2,3 --trials 40

Each DIR is the root of a checkout (its ``src/``).  In each, a subprocess
runs ``entropion.suites._outcomes`` for every suite and seed over trials
0 .. trials - 1, at dimension ``dims[i % len(dims)]`` for trial i, as
``run_suite`` does, and prints one line per trial: the margin as
``float.hex``, or the error class and message the trial raised, and the
instance digest.  Every trial whose line differs between the two sides is
reported, and the exit status is 1 if any did, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

_CHILD = r"""
import json, sys
from entropion.randgen import RngState
from entropion.suites import SUITES, _digest, _outcomes
suites, seeds, dims, trials = json.loads(sys.argv[1])
for name in suites:
    for seed in seeds:
        for i, (margin, instance) in enumerate(_outcomes(SUITES[name], RngState(seed), dims, 0, trials)):
            if isinstance(margin, Exception):
                outcome = [type(margin).__name__, str(margin)]
            else:
                outcome = float(margin).hex()
            digest = None if instance is None else _digest(instance)
            print(json.dumps([name, seed, i, outcome, digest]))
"""


def parse_seeds(text: str) -> list[int]:
    """``5,42,100-159`` as a list of seeds, ranges inclusive."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def outcomes(root: Path, suites: list[str], seeds: list[int], dims: list[int], trials: int) -> dict:
    """{(suite, seed, trial): (outcome, digest)} from the checkout at ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps([suites, seeds, dims, trials])],
                          cwd=root, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"outcomes in {root} exited {done.returncode}:\n{done.stderr}")
    rows = (json.loads(line) for line in done.stdout.splitlines())
    return {(name, seed, i): (outcome, digest) for name, seed, i, outcome, digest in rows}


def differences(parent: dict, change: dict) -> list[str]:
    out = []
    for key in sorted(parent.keys() | change.keys()):
        a, b = parent.get(key), change.get(key)
        if a != b:
            out.append(f"{key[0]} seed {key[1]} trial {key[2]}: parent {a!r} change {b!r}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--suites", required=True, help="comma-separated suite names")
    ap.add_argument("--seeds", required=True, help="comma-separated seeds or inclusive ranges a-b")
    ap.add_argument("--dims", default="2,3")
    ap.add_argument("--trials", type=int, default=40)
    args = ap.parse_args(argv)
    suites = args.suites.split(",")
    seeds = parse_seeds(args.seeds)
    dims = [int(d) for d in args.dims.split(",")]
    sides = [outcomes(root.resolve(), suites, seeds, dims, args.trials) for root in (args.parent, args.change)]
    diffs = differences(*sides)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} of {len(sides[1])} trials differ "
          f"({len(suites)} suites, {len(seeds)} seeds, dims {args.dims}, {args.trials} trials)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
