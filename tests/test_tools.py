"""The moved-number report of tools/cli_numbers_diff.py: how it pairs numbers."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_numbers_diff.py"
_SPEC = importlib.util.spec_from_file_location("cli_numbers_diff", _PATH)
diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff)


def test_moved_numbers_pairs_only_numbers_that_changed():
    old = "z0=10.0 nu=2.40482555769577 E=-1e-12\n"
    new = "z0=10.0 nu=2.40482555769578 E=-1e-12\n"
    assert diff.moved_numbers(old, new) == [("2.40482555769577",
                                             "2.40482555769578")]


def test_moved_numbers_ignores_padding_but_not_text():
    assert diff.moved_numbers("  0.5   1.25\n", "  0.5  1.255\n") == [
        ("1.25", "1.255")]
    assert diff.moved_numbers("PASS 1.0\n", "FAIL 1.0\n") is None
    assert diff.moved_numbers("a 1\nb 2\n", "a 1 b 2\n") is None


def test_digits_inside_names_are_text():
    assert diff.NUMBER.findall("z0=60 J_1 -1e-3") == ["60", "-1e-3"]
