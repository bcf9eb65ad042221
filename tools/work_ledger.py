"""Count the work each suite does at the golden gate's configuration.

    PYTHONPATH=src python tools/work_ledger.py --out tests/golden/work_seed42.json

For every suite, ``run_suite(name, dims=(2, 3), trials=100, seed=42)`` runs
once with counters around the calls that carry its cost, and the ledger
holds per suite:

* ``eigh``, ``eigvalsh``, ``solve``: calls of ``numpy.linalg``'s solvers
  (a stacked call counts once);
* ``hermitian``: calls of ``matcore._hermitian``, the Hermiticity check,
  in every module that binds it (a stacked call counts once);
* ``batch``: calls of the suite's ``Suite.batch``, one per stacked group
  and one per trial a raising group is checked again for;
* ``rng_words``: the words drawn from the trials' streams, the sum of
  each ``RngState.child`` stream's ``position`` after the run.

The counts are deterministic for a given program, so a change that alters
the work shows as a difference in the ledger; ``tests/test_work_ledger.py``
compares the committed file exactly.  Run it on another checkout's
``src`` (``PYTHONPATH=OTHER/src``) to compare two programs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import sys

import numpy as np

SEED = 42
DIMS = (2, 3)
TRIALS = 100
COUNTS = ("eigh", "eigvalsh", "solve", "hermitian", "batch", "rng_words")
MODULES = ("matcore", "superop", "entropy", "channels", "inequalities", "holevo", "suites")


@contextlib.contextmanager
def _patched(patches):
    """Set each (owner, name, value) for the duration, then restore."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def _counting(counts: dict, key: str, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def suite_work(name: str) -> dict:
    """The counts of one ``run_suite`` call at the ledger's configuration."""
    mods = {m: importlib.import_module(f"entropion.{m}") for m in MODULES}
    suites, randgen = mods["suites"], importlib.import_module("entropion.randgen")
    counts = dict.fromkeys(COUNTS, 0)
    streams = []
    child = randgen.RngState.child

    def counted_child(self, index):
        stream = child(self, index)
        streams.append(stream)
        return stream

    hermitian = mods["matcore"]._hermitian
    patches = [(np.linalg, solver, _counting(counts, solver, getattr(np.linalg, solver)))
               for solver in ("eigh", "eigvalsh", "solve")]
    patches += [(mod, "_hermitian", _counting(counts, "hermitian", hermitian))
                for mod in mods.values() if getattr(mod, "_hermitian", None) is hermitian]
    patches.append((randgen.RngState, "child", counted_child))
    suite = suites.SUITES[name]
    patches.append((suites, "SUITES", {**suites.SUITES,
                                       name: suite._replace(batch=_counting(counts, "batch", suite.batch))}))
    with _patched(patches):
        suites.run_suite(name, dims=DIMS, trials=TRIALS, seed=SEED)
    counts["rng_words"] = sum(stream.position for stream in streams)
    return counts


def ledger() -> dict:
    from entropion.suites import suite_names

    work = {name: suite_work(name) for name in suite_names()}
    return {"seed": SEED, "dims": list(DIMS), "trials": TRIALS,
            "total": {key: sum(w[key] for w in work.values()) for key in COUNTS},
            "suites": work}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the ledger here (default: standard output)")
    args = ap.parse_args(argv)
    text = json.dumps(ledger(), indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
