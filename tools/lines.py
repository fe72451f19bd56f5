"""Count the code lines of the Python modules in a directory.

    python tools/lines.py [DIR]

DIR defaults to src/evometry. A code line is a physical line that holds
part of a token other than a comment, a docstring (a string literal that
is a statement by itself) or layout (line breaks and indentation), so
blank lines, comment lines and docstring lines count 0; a line that
holds code and a comment counts 1. The count is read with tokenize, so
it does not change with how the code is formatted inside a line.

Prints one JSON object: the count of each module, by its path relative
to DIR, and their total.
"""
from __future__ import annotations

import argparse
import io
import json
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# tokens that hold no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# tokens after which a token starts a statement
STARTS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (i == 0 or tokens[i - 1].type in STARTS)
                and tokens[i + 1].type in (tokenize.NEWLINE,
                                           tokenize.ENDMARKER)):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(directory: Path) -> dict:
    """{"modules": {relative path: code lines}, "total": their sum} for
    every .py file under directory."""
    modules = {path.relative_to(directory).as_posix():
               code_lines(path.read_text(encoding="utf-8"))
               for path in sorted(directory.rglob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", nargs="?", type=Path,
                    default=ROOT / "src" / "evometry")
    args = ap.parse_args(argv)
    print(json.dumps(count(args.dir), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
