#!/usr/bin/env python3
"""Line counts of a package's modules, with and without their docstrings.

    python3 scripts/line_count.py              # src/ks2
    python3 scripts/line_count.py path/to/pkg

For each .py file of the directory, in name order, and in total: the number
of lines, and the number of them outside module, class and function
docstrings.  A docstring is found by the AST (the first statement of the
body, when it is a string constant) and spans the lines from its first to
its last, so the count does not depend on how the text is quoted or wrapped.
"""
import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def counts(text: str) -> tuple[int, int]:
    """(lines, lines outside docstrings) of one module's source."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    total = len(text.splitlines())
    return total, total - len(doc)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("package", nargs="?", default=str(ROOT / "src" / "ks2"))
    args = ap.parse_args(argv)
    files = sorted(Path(args.package).glob("*.py"))
    if not files:
        ap.error(f"no .py files in {args.package}")
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    total = code = 0
    for path in files:
        lines, outside = counts(path.read_text())
        total, code = total + lines, code + outside
        print(f"{path.name:<20} {lines:>6} {outside:>6}")
    print(f"{'total':<20} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
