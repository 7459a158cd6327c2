"""Size of each module of ``src/llckit``: code lines and tokens.

    python3 tools/src_size.py [--baseline ../parent]

A code line is a line that holds a token other than a comment, and that
is not part of a module, class or function docstring; blank lines do not
count.  The token count is that of ``tokenize``, less its COMMENT and NL
tokens (comments and the newlines of blank or continued lines): the
count past 8192 of which compiling ``kernels.py`` was seen to take about
0.5 MB more memory (see CHANGES.md).  With ``--baseline``
the same figures of another checkout's ``src/llckit`` are listed beside
this one's.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIP = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure(path: Path) -> tuple[int, int]:
    """(code lines, tokens) of one source file."""
    src = path.read_text(encoding="utf-8")
    toks = list(tokenize.generate_tokens(io.StringIO(src).readline))
    code: set[int] = set()
    for t in toks:
        if t.type not in _SKIP:
            code.update(range(t.start[0], t.end[0] + 1))
    tokens = sum(1 for t in toks
                 if t.type not in (tokenize.COMMENT, tokenize.NL))
    return len(code - docstring_lines(ast.parse(src))), tokens


def sizes(checkout: Path) -> dict[str, tuple[int, int]]:
    return {p.name: measure(p)
            for p in sorted((checkout / "src" / "llckit").glob("*.py"))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path,
                    help="another checkout to list beside this one")
    args = ap.parse_args()
    sides = [sizes(ROOT)]
    head = ["module", "lines", "tokens"]
    if args.baseline is not None:
        sides.append(sizes(args.baseline.resolve()))
        head = ["module", "lines", "baseline", "tokens", "baseline"]
    names = sorted(set().union(*sides))
    rows = []
    for name in names + ["total"]:
        cells = []
        for i in (0, 1):  # lines, then tokens
            for side in sides:
                if name == "total":
                    cells.append(sum(v[i] for v in side.values()))
                else:
                    cells.append(side[name][i] if name in side else "-")
        rows.append([name] + [str(c) for c in cells])
    widths = [max(len(r[j]) for r in rows + [head]) for j in range(len(head))]
    for r in [head] + rows:
        print(r[0].ljust(widths[0]) + "".join(
            "  " + c.rjust(w) for c, w in zip(r[1:], widths[1:])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
