import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("margin_diff", _ROOT / "tools" / "margin_diff.py")
margin_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(margin_diff)


def test_seed_ranges_parse():
    assert margin_diff.parse_seeds("5,42,100-103") == [5, 42, 100, 101, 102, 103]


def test_a_checkout_against_itself_differs_nowhere(capsys):
    # two suites, each side in its own process
    argv = ["--parent", str(_ROOT), "--change", str(_ROOT), "--suites", "holevo_bound,relent_routes",
            "--seeds", "5,77", "--dims", "2,3", "--trials", "12"]
    assert margin_diff.main(argv) == 0
    assert capsys.readouterr().out.strip() == "0 of 48 trials differ (2 suites, 2 seeds, dims 2,3, 12 trials)"


def test_a_changed_margin_is_reported():
    key = ("klein", 5, 3)
    parent = {key: ("0x1.0p-1", "abc"), ("klein", 5, 4): ("0x1.0p-2", "def")}
    change = {key: ("0x1.0000000000001p-1", "abc"), ("klein", 5, 4): ("0x1.0p-2", "def")}
    assert margin_diff.differences(parent, change) == [
        "klein seed 5 trial 3: parent ('0x1.0p-1', 'abc') change ('0x1.0000000000001p-1', 'abc')"]
