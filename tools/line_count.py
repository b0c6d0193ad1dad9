"""Count the lines of each serreq module, and compare two checkouts.

    python3 tools/line_count.py [OLD] NEW

OLD and NEW are checkout directories, each with src/serreq (a path
without it is a usage error, exit 2).  For each module of src/serreq and
in total, the script prints all lines and code lines of NEW, and with OLD
given, those of OLD and the difference.  A last
row, tests/, does the same for every tests/*.py together, so a change that
moves code from the package into the tests shows both sides.  A code line
is one that is not blank, not a comment and not part of a docstring (the
string that opens a module, class or function body).
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that make no line a code line on their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
# the row of every tests/*.py, printed after the total of the package
TESTS = "tests/"


def docstring_lines(tree) -> set:
    """The line numbers of every docstring in a parsed module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(text: str) -> tuple[int, int]:
    """(all lines, code lines) of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def count_checkout(root: Path) -> dict:
    """{module file name: (all lines, code lines)} for root/src/serreq,
    and under TESTS the sums over every root/tests/*.py."""
    out = {path.name: count(path.read_text(encoding="utf-8"))
           for path in sorted((root / "src" / "serreq").glob("*.py"))}
    tests = [count(path.read_text(encoding="utf-8"))
             for path in sorted((root / "tests").glob("*.py"))]
    out[TESTS] = (sum(n for n, _ in tests), sum(n for _, n in tests))
    return out


def _signed(n: int) -> str:
    return f"{n:+,}" if n else "0"


def table(new: dict, old: dict | None = None) -> list[str]:
    """One line per module, one for their total and one for the tests:
    all / code lines, with OLD's figures and the difference when old is
    given."""
    before = old or {}
    rows = [(name, new.get(name, (0, 0)), before.get(name, (0, 0)))
            for name in dict.fromkeys([*before, *new]) if name != TESTS]
    rows.append(("total", *(tuple(map(sum, zip(*(row[side] for row in rows))))
                            for side in (1, 2))))
    rows.append((TESTS, new.get(TESTS, (0, 0)), before.get(TESTS, (0, 0))))
    width = max(len(name) for name, _, _ in rows)
    out = []
    for name, (lines, code), (old_lines, old_code) in rows:
        line = f"{name:<{width}}  {lines:>6,} / {code:>6,}"
        if old is not None:
            line += (f"   was {old_lines:>6,} / {old_code:>6,}"
                     f"   {_signed(lines - old_lines):>6} / {_signed(code - old_code):>6}")
        out.append(line)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", type=Path, nargs="+", metavar="[OLD] NEW")
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give at most two checkouts: [OLD] NEW")
    for root in args.checkouts:
        if not (root / "src" / "serreq").is_dir():
            parser.error(f"{root} holds no src/serreq")
    *old, new = args.checkouts
    print("\n".join(table(count_checkout(new), count_checkout(old[0]) if old else None)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
