"""Report every number that moved in the CLI output between two source trees.

Usage, from anywhere::

    python tools/cli_numbers_diff.py OLD_ROOT NEW_ROOT [--limit N]

Each ROOT is a checkout of this repository.  For each tree a child
process imports ``expwell`` from ``ROOT/src`` and runs the fixed command
list below through click's ``CliRunner``.  Then, command by command, the
script prints how many numbers moved and each one as ``old -> new`` with
its absolute and relative change (at most ``--limit`` per command).  The text between
the numbers must match; where it does not, the differing lines are printed
instead.  The last line counts the outputs that differ.
"""

from __future__ import annotations

import argparse
import difflib
import json
import re
import subprocess
import sys
from pathlib import Path

COMMANDS: list[list[str]] = (
    [["spectrum", "--v0", v0, "--beta", "1", "--format", fmt]
     for v0 in ("1", "6", "25", "100", "287", "900")
     for fmt in ("text", "json", "csv")]
    + [["wavefunction", "--v0", v0, "--beta", "1", "--state", n,
        "--points", "101", "--format", fmt]
       for v0, n in (("25", "0"), ("25", "2"), ("287", "10"), ("900", "18"))
       for fmt in ("text", "json", "csv")]
    + [["mellin-check", "--rho", "1.3"],
       ["mellin-check", "--v0", "25", "--beta", "1"],
       ["verify"]])

# A number not glued to a name: the digits of "z0" and "J_1" are text.
NUMBER = re.compile(r"(?<![\w.])(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")
SPACES = re.compile(" +")


def dump(root: str) -> None:
    """Print {command line: output} for the tree at root, as JSON."""
    sys.path.insert(0, str(Path(root, "src")))
    from click.testing import CliRunner

    from expwell.cli import main

    runner = CliRunner()
    out = {}
    for argv in COMMANDS:
        res = runner.invoke(main, argv)
        out[" ".join(argv)] = res.output + (
            f"[exit {res.exit_code}]\n" if res.exit_code else "")
    json.dump(out, sys.stdout)


def outputs(root: str) -> dict[str, str]:
    child = subprocess.run([sys.executable, __file__, "--dump", root],
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def moved_numbers(old: str, new: str) -> list[tuple[str, str]] | None:
    """(old, new) number pairs that differ, or None if the text differs.

    Runs of spaces are not compared: a number with fewer digits shifts the
    padding of a text table.
    """
    a, b = NUMBER.split(old), NUMBER.split(new)
    if len(a) != len(b) or any(SPACES.sub(" ", x) != SPACES.sub(" ", y)
                               for x, y in zip(a[0::2], b[0::2])):
        return None
    return [(x, y) for x, y in zip(a[1::2], b[1::2]) if x != y]


def changes(old: str, new: str) -> tuple[float, float]:
    """Absolute and relative change; relative to 1 where old is 0."""
    x, y = float(old), float(new)
    return abs(y - x), abs(y - x) / (abs(x) or 1.0)


def report(old_root: str, new_root: str, limit: int) -> None:
    before, after = outputs(old_root), outputs(new_root)
    differ = 0
    for cmd in before:
        old, new = before[cmd], after[cmd]
        if old == new:
            continue
        differ += 1
        pairs = moved_numbers(old, new)
        if pairs is None:
            print(f"{cmd}: text differs")
            diff = difflib.unified_diff(old.splitlines(), new.splitlines(),
                                        lineterm="", n=0)
            for line in list(diff)[2:2 + limit]:
                print(f"  {line}")
            continue
        moved = [changes(x, y) for x, y in pairs]
        print(f"{cmd}: {len(pairs)} of {len(NUMBER.findall(old))} numbers "
              f"moved, largest change {max(d for d, _ in moved):.1e} "
              f"absolute, {max(r for _, r in moved):.1e} relative")
        for (x, y), (d, r) in zip(pairs[:limit], moved):
            print(f"  {x} -> {y}  ({d:.1e} absolute, {r:.1e} relative)")
        if len(pairs) > limit:
            print(f"  ... {len(pairs) - limit} more")
    print(f"{differ} of {len(before)} outputs differ")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dump", metavar="ROOT", help=argparse.SUPPRESS)
    ap.add_argument("roots", nargs="*", metavar="ROOT",
                    help="the old and the new checkout")
    ap.add_argument("--limit", type=int, default=10,
                    help="numbers or lines printed per command (default 10)")
    args = ap.parse_args()
    if args.dump:
        dump(args.dump)
        return
    if len(args.roots) != 2:
        ap.error("give OLD_ROOT and NEW_ROOT")
    report(*args.roots, limit=args.limit)


if __name__ == "__main__":
    main()
