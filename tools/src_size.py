"""Size of each module of ``src/llckit``: code lines and tokens.

    python3 tools/src_size.py [--baseline ../parent]

A code line is a line that holds a token other than a comment, and that
is not part of a module, class or function docstring; blank lines do not
count.  The token count is that of ``tokenize``, less its COMMENT and NL
tokens (comments and the newlines of blank or continued lines): the
count past 8192 (``COMPILE_TOKENS``) of which compiling ``kernels.py``
was seen to take about 0.5 MB more memory (see CHANGES.md).  A token
count past it is marked with a ``*`` in the listing, and a note under
the table names the modules.  With ``--baseline`` the same figures of
another checkout's ``src/llckit`` are listed beside this one's.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tokens past which compiling a module was seen to cost about 0.5 MB more
COMPILE_TOKENS = 8192
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
    over = []
    for name in names + ["total"]:
        cells = []
        for i in (0, 1):  # lines, then tokens
            for side in sides:
                if name == "total":
                    cells.append(str(sum(v[i] for v in side.values())))
                elif name not in side:
                    cells.append("-")
                elif i == 1 and side[name][1] > COMPILE_TOKENS:
                    cells.append(f"{side[name][1]}*")
                    over.append(name)
                else:
                    cells.append(str(side[name][i]))
        rows.append([name] + cells)
    widths = [max(len(r[j]) for r in rows + [head]) for j in range(len(head))]
    for r in [head] + rows:
        print(r[0].ljust(widths[0]) + "".join(
            "  " + c.rjust(w) for c, w in zip(r[1:], widths[1:])))
    if over:
        print(f"* past {COMPILE_TOKENS} tokens, where compiling kernels.py "
              f"was seen to cost about 0.5 MB more: "
              f"{', '.join(sorted(set(over)))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
