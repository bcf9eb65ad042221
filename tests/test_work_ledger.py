"""Work gate: each suite's solver calls, Hermiticity checks, stacked calls
and RNG words at the golden gate's configuration against a committed
ledger.  A change meant to alter the work regenerates it on purpose and
states the difference:

    PYTHONPATH=src python tools/work_ledger.py --out tests/golden/work_seed42.json
"""

import importlib.util
import json
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("work_ledger", _ROOT / "tools" / "work_ledger.py")
work_ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_ledger)

LEDGER = Path(__file__).with_name("golden") / "work_seed42.json"


def test_work_matches_the_committed_ledger():
    want = json.loads(LEDGER.read_text())
    got = work_ledger.ledger()
    differ = {name: {k: (want["suites"].get(name, {}).get(k), counts[k]) for k in counts
                     if counts[k] != want["suites"].get(name, {}).get(k)}
              for name, counts in got["suites"].items()}
    differ = {name: d for name, d in differ.items() if d}
    assert got == want, (
        f"work differs from {LEDGER.name} (committed, now): {differ}; if the change is meant, "
        "regenerate it with: PYTHONPATH=src python tools/work_ledger.py --out tests/golden/work_seed42.json")
