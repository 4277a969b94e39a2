"""Code lines of each module in a package directory, and their total.

A code line is a source line that holds at least one token of code: blank
lines, comment lines and the lines of docstrings (the string that opens a
module, class or function body) do not count. So a size claim about
`src/seqrank` can be rerun on any checkout:

    python tools/code_lines.py              # src/seqrank of this checkout
    python tools/code_lines.py path/to/pkg

It prints "<lines>\t<module>" per module, in name order, then
"<lines>\ttotal".
"""

import ast
import io
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers spanned by the module's, classes' and functions'
    docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pkg = argv[0] if argv else os.path.join(here, "src", "seqrank")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                n = code_lines(fh.read())
            print(f"{n}\t{name}")
            total += n
    print(f"{total}\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
