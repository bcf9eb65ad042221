import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPECS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _runs(parent: dict, change: dict) -> list[dict]:
    """Synthetic pairs: metric name -> one value per pair on each side."""
    pairs = len(next(iter(parent.values())))
    return [{side: {"metrics": {k: v[i] for k, v in values.items()}}
             for side, values in (("parent", parent), ("change", change))}
            for i in range(pairs)]


def _summary(parent_ops, change_ops):
    # op_ms_p50 mirrors ops_per_s, so both directions are exercised
    runs = _runs({"ops_per_s": parent_ops, "op_ms_p50": [1000 / v for v in parent_ops]},
                 {"ops_per_s": change_ops, "op_ms_p50": [1000 / v for v in change_ops]})
    return bench_record.summarize(runs, SPECS)


def test_a_clean_gain_is_resolved_and_not_worse():
    out = _summary([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
                   [150, 151, 149, 150, 152, 148, 150, 151, 149, 150])
    for m in out.values():
        assert m["change_wins"] == 10 and m["gain_resolved"]
        assert m["change_beats_every_parent_run"] and not m["spread_exceeds_bound"]
        assert m["not_worse"] == "yes"


def test_a_small_loss_inside_the_bound_is_not_worse():
    out = _summary([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
                   [95, 96, 94, 95, 97, 93, 95, 96, 94, 95])
    for m in out.values():
        assert m["within_bound"] and not m["gain_resolved"]
        assert m["not_worse"] == "yes"


def test_a_loss_beyond_the_bound_is_worse():
    out = _summary([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
                   [60, 61, 59, 60, 62, 58, 60, 61, 59, 60])
    for m in out.values():
        assert not m["within_bound"]
        assert m["not_worse"] == "no"


def test_spread_wider_than_the_bound_is_unresolved():
    # medians equal, but either side's quartiles span more than 25 % of it
    wide = [60, 140, 70, 130, 80, 120, 100, 100, 90, 110]
    out = _summary([100] * 10, wide)
    for m in out.values():
        assert m["spread"]["parent"] == 0.0
        assert m["spread"]["change"] > 0.25 and m["spread_exceeds_bound"]
        assert m["not_worse"] == "unresolved"
    out = _summary(wide, [100] * 10)
    assert out["ops_per_s"]["not_worse"] == "unresolved"


def test_every_change_run_beating_every_parent_run_settles_a_wide_spread():
    out = _summary([50, 100, 60, 90, 70, 80, 75, 85, 65, 95],
                   [150, 300, 160, 290, 170, 280, 175, 285, 165, 295])
    for m in out.values():
        assert m["spread_exceeds_bound"] and m["change_beats_every_parent_run"]
        assert m["not_worse"] == "yes"


def test_drift_shared_by_a_pair_leaves_the_pair_ratio_narrow():
    # the machine slows by up to 1.8x over the recording, alike on both
    # sides of each pair, and the change is 5 % faster in every pair
    drift = [1.0, 1.0, 1.0, 1.3, 1.3, 1.5, 1.5, 1.8, 1.8, 1.8]
    parent = [100 / f for f in drift]
    out = _summary(parent, [1.05 * v for v in parent])
    ops, p50 = out["ops_per_s"], out["op_ms_p50"]
    assert ops["spread"]["parent"] > 0.25 and ops["spread_exceeds_bound"]
    assert ops["pair_ratio"] == pytest.approx({"median": 1.05, "q1": 1.05, "q3": 1.05})
    assert p50["pair_ratio"]["median"] == pytest.approx(1 / 1.05)
    assert ops["pair_ratio_spread"] == pytest.approx(0.0, abs=1e-12)
    # the statuses do not read the ratio: a 5 % win under 45 % drift stays
    # unresolved, since some parent runs beat some change runs
    assert ops["change_wins"] == 10 and not ops["change_beats_every_parent_run"]
    assert ops["not_worse"] == "unresolved" and not ops["gain_resolved"]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_spread_is_quartile_range_over_median(better):
    spec = [{"name": "m", "unit": "s", "better": better, "bound": 0.25}]
    runs = _runs({"m": [1.0, 2.0, 3.0, 4.0, 5.0]}, {"m": [2.0] * 5})
    m = bench_record.summarize(runs, spec)["m"]
    assert m["spread"] == {"parent": pytest.approx(2.0 / 3.0), "change": 0.0}
    assert m["parent_iqr"] == pytest.approx(2.0)


def _git(root, *args):
    subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   check=True, capture_output=True)


def _checkout(root):
    (root / "src" / "entropion").mkdir(parents=True)
    (root / "src" / "entropion" / "a.py").write_text("x = 1\n")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "one")
    return root


def test_a_side_without_a_revision_is_refused_before_any_run(tmp_path, monkeypatch):
    checkout = _checkout(tmp_path / "change")
    plain = tmp_path / "plain"
    (plain / "src" / "entropion").mkdir(parents=True)
    assert len(bench_record.git_rev(checkout)) == 40
    for bad in (plain, checkout / "src"):  # no checkout, and a directory inside one
        with pytest.raises(SystemExit, match="not the top of a git checkout"):
            bench_record.git_rev(bad)

    def run_once(*args):
        raise AssertionError("ran a workload")

    monkeypatch.setattr(bench_record, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="not the top of a git checkout"):
        bench_record.main(["--parent", str(plain), "--change", str(checkout), "--out", str(out)])
    assert not out.exists()


def test_the_source_digest_names_an_uncommitted_edit(tmp_path):
    checkout = _checkout(tmp_path / "side")
    clean = bench_record.source_digest(checkout)
    assert clean == bench_record.source_digest(checkout)
    (checkout / "README.md").write_text("not source\n")
    assert bench_record.source_digest(checkout) == clean
    (checkout / "src" / "entropion" / "a.py").write_text("x = 2\n")
    assert bench_record.source_digest(checkout) != clean
