"""What a regeneration moved: each golden file at a git revision against the
working tree, number by number.

Each line is split into numbers and the text between them, in which a run
of whitespace counts as one space, so that a table's column padding may take
up a number text whose length changed.  Where the text of a line differs,
the tool names the first such line of the file and exits 1.  Where the line counts differ, as when rows are removed, it lists each
line present at one side only, with its line number there, and exits 1.
Otherwise it prints, per file, how many numbers changed out of how many,
the largest relative move |new - old|/|old| with its line and both values,
and the lines that hold a changed number.  A file present at only one of
the two is listed as such.

With ``--verify-full`` it does the same for the report of
``verify --budget full --seed 1 --format json``, which the tests pin only by
its digest: the report of REV comes from a ``git worktree`` checkout of REV
under a temporary directory, the other from the working tree's ``src``.

    python tools/golden_diff.py HEAD
    python tools/golden_diff.py HEAD~1 --verify-full
"""

from __future__ import annotations

import argparse
import difflib
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = "tests/data/golden"
VERIFY_FULL = ["verify", "--budget", "full", "--seed", "1", "--format", "json"]
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
SPACE = re.compile(r"\s+")


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout


def _split(line: str) -> tuple[list[str], list[str]]:
    """(the texts between the numbers, whitespace runs as one space, and the
    numbers) of one line."""
    return [SPACE.sub(" ", text) for text in NUMBER.split(line)], NUMBER.findall(line)


def _ranges(lines: list[int]) -> str:
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def compare(name: str, old: str, new: str) -> tuple[str, bool]:
    """(the report of one file, whether its text outside the numbers matches)."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        report = [f"{name}: {len(old_lines)} -> {len(new_lines)} lines; on one side only:"]
        matcher = difflib.SequenceMatcher(None, old_lines, new_lines, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag == "equal":
                continue
            report += [f"  - line {i + 1}: {old_lines[i]}" for i in range(i1, i2)]
            report += [f"  + line {j + 1}: {new_lines[j]}" for j in range(j1, j2)]
        return "\n".join(report), False
    total = changed = 0
    worst = None  # (relative move, line, old, new)
    moved = []
    for number, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        (text_a, nums_a), (text_b, nums_b) = _split(a), _split(b)
        if text_a != text_b:
            return f"{name}: line {number}: text differs\n  - {a}\n  + {b}", False
        total += len(nums_a)
        for x, y in zip(nums_a, nums_b):
            if x == y:
                continue
            changed += 1
            if not moved or moved[-1] != number:
                moved.append(number)
            fx, fy = float(x), float(y)
            rel = abs(fy - fx) / abs(fx) if fx else (0.0 if fy == 0.0 else math.inf)
            if worst is None or rel > worst[0]:
                worst = (rel, number, x, y)
    report = f"{name}: {changed} of {total} values changed"
    if worst is not None:
        report += (f", largest relative move {worst[0]:.3g} at line {worst[1]} "
                   f"({worst[2]} -> {worst[3]}); lines {_ranges(moved)}")
    return report, True


def _verify_full(src: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "kappainf", *VERIFY_FULL], env=env,
                          check=True, capture_output=True, text=True).stdout


def main(argv: list[str] | None = None, root: Path | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    parser.add_argument("--verify-full", action="store_true",
                        help="also compare the full-budget verify report")
    args = parser.parse_args(argv)
    root = Path(_git(root or Path.cwd(), "rev-parse", "--show-toplevel").strip())

    at_rev = set(_git(root, "ls-tree", "--name-only", f"{args.rev}:{GOLDEN}").split())
    here = {path.name for path in (root / GOLDEN).iterdir() if path.is_file()}
    pairs = []
    for name in sorted(at_rev | here):
        if name not in here or name not in at_rev:
            print(f"{name}: only {'at ' + args.rev if name in at_rev else 'in the working tree'}")
            continue
        old = _git(root, "show", f"{args.rev}:{GOLDEN}/{name}")
        pairs.append((name, old, (root / GOLDEN / name).read_text(encoding="utf-8")))
    if args.verify_full:
        with tempfile.TemporaryDirectory() as tmp:
            checkout = Path(tmp) / "rev"
            _git(root, "worktree", "add", "--detach", str(checkout), args.rev)
            try:
                old = _verify_full(checkout / "src")
            finally:
                _git(root, "worktree", "remove", "--force", str(checkout))
        pairs.append((" ".join(["verify", *VERIFY_FULL[1:]]), old, _verify_full(root / "src")))

    same_text = True
    for name, old, new in pairs:
        report, ok = compare(name, old, new)
        print(report)
        same_text &= ok
    return 0 if same_text else 1


if __name__ == "__main__":
    sys.exit(main())
