"""Split the lines of Python sources into code, docstring, comment and blank.

    python .github/source-lines.py src/sqeig/*.py

prints one line per file and a total line, each with four counts:

- ``docstring``: every line of a string literal that stands alone as a
  statement (a module, class or function docstring, or an attribute's),
  blank lines inside it included;
- ``comment``: a line holding a comment and nothing else;
- ``blank``: an empty or whitespace-only line outside a docstring;
- ``code``: every other line, including a line of code with a trailing
  comment.
"""

import sys
import tokenize

#: the tokens, other than comments and blank lines, that can precede the
#: first token of a statement
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def split(path):
    """(code, docstring, comment, blank) line counts of the file at ``path``."""
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    kind = ["blank" if not line.strip() else "code" for line in lines]
    previous = tokenize.ENCODING
    for i, tok in enumerate(tokens):
        following = tokens[i + 1].type if i + 1 < len(tokens) else tokenize.ENDMARKER
        alone = previous in _STATEMENT_START and following in (tokenize.NEWLINE, tokenize.ENDMARKER)
        if tok.type == tokenize.STRING and alone:
            for row in range(tok.start[0], tok.end[0] + 1):
                kind[row - 1] = "docstring"
        elif tok.type == tokenize.COMMENT and not lines[tok.start[0] - 1][: tok.start[1]].strip():
            kind[tok.start[0] - 1] = "comment"
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            previous = tok.type
    return tuple(kind.count(k) for k in ("code", "docstring", "comment", "blank"))


def main(paths):
    total = [0, 0, 0, 0]
    print(f"{'file':<32} {'code':>6} {'docstring':>9} {'comment':>7} {'blank':>6}")
    for path in paths:
        counts = split(path)
        total = [t + c for t, c in zip(total, counts)]
        print(f"{path:<32} {counts[0]:>6} {counts[1]:>9} {counts[2]:>7} {counts[3]:>6}")
    print(f"{'total':<32} {total[0]:>6} {total[1]:>9} {total[2]:>7} {total[3]:>6}  ({sum(total)} lines)")


if __name__ == "__main__":
    main(sys.argv[1:])
