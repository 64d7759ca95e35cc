"""JSON problem files.

A problem file stores a matrix polynomial as UTF-8 JSON with keys

* ``n``: order of the (padded) square problem,
* ``degree``: polynomial degree m,
* ``coefficients``: m+1 matrices in ascending power order, every entry a
  ``[re, im]`` pair; matrices may be rectangular (all with the same shape,
  whose larger dimension must equal ``n``),
* ``truth`` (optional): known finite eigenvalues as ``[re, im]`` pairs,
* ``metadata`` (optional): object with free-form string fields such as
  ``name`` and ``source``.

Parsing rejects NaN/Inf and annotates semantic errors with the JSON path of
the offending element.  ``parse(serialize(pf))`` reproduces ``pf`` exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .matpoly import MatrixPolynomial, TruthSpec

__all__ = ["ProblemFile", "ProblemFormatError", "dump", "load", "parse", "serialize"]


class ProblemFormatError(ValueError):
    """Malformed problem file; the message carries the offending location."""


@dataclass(frozen=True)
class ProblemFile:
    coefficients: tuple
    truth: tuple | None = None
    name: str | None = None
    source: str | None = None

    def __post_init__(self):
        coeffs = tuple(np.array(c, dtype=complex) for c in self.coefficients)
        if not coeffs:
            raise ProblemFormatError("coefficients: must contain at least one matrix")
        shape = coeffs[0].shape
        if len(shape) != 2 or any(c.shape != shape for c in coeffs):
            raise ProblemFormatError("coefficients: matrices must share one 2-D shape")
        if any(not np.all(np.isfinite(c)) for c in coeffs):
            raise ProblemFormatError("coefficients: entries must be finite")
        object.__setattr__(self, "coefficients", coeffs)
        if self.truth is not None:
            object.__setattr__(self, "truth", tuple(complex(t) for t in self.truth))

    @property
    def n(self):
        return max(self.coefficients[0].shape)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def to_polynomial(self):
        return MatrixPolynomial(self.coefficients)

    def truth_spec(self, match_tol=1e-4):
        if self.truth is None:
            raise ValueError("problem file carries no truth eigenvalues")
        return TruthSpec(self.truth, match_tol)


def _pair(value):
    return [value.real, value.imag]


def _render_row(row):
    return json.dumps([_pair(entry) for entry in row], allow_nan=False)


def serialize(pf):
    """Render a ProblemFile as a JSON string, one matrix row per line."""
    lines = ["{"]
    lines.append(f'  "n": {pf.n},')
    lines.append(f'  "degree": {pf.degree},')
    lines.append('  "coefficients": [')
    for ci, coef in enumerate(pf.coefficients):
        lines.append("    [")
        rows = list(np.asarray(coef))
        for ri, row in enumerate(rows):
            comma = "," if ri + 1 < len(rows) else ""
            lines.append(f"      {_render_row(row)}{comma}")
        lines.append("    ]," if ci + 1 < len(pf.coefficients) else "    ]")
    tail_items = []
    if pf.truth is not None:
        tail_items.append(f'  "truth": {_render_row(pf.truth)}')
    metadata = {}
    if pf.name is not None:
        metadata["name"] = pf.name
    if pf.source is not None:
        metadata["source"] = pf.source
    if metadata:
        tail_items.append(f'  "metadata": {json.dumps(metadata, allow_nan=False)}')
    lines.append("  ]," if tail_items else "  ]")
    for i, item in enumerate(tail_items):
        lines.append(item + ("," if i + 1 < len(tail_items) else ""))
    lines.append("}")
    return "\n".join(lines)


def _reject_constant(token):
    raise ProblemFormatError(f"non-finite literal {token!r} is not allowed")


def _complex_pair(node, where):
    if (
        not isinstance(node, list)
        or len(node) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in node)
    ):
        raise ProblemFormatError(f"{where}: expected a [re, im] number pair")
    if not all(math.isfinite(v) for v in node):
        raise ProblemFormatError(f"{where}: entries must be finite")
    return complex(node[0], node[1])


def parse(text):
    """Parse a JSON problem file string into a ProblemFile."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("top level: expected a JSON object")
    for key in ("n", "degree", "coefficients"):
        if key not in doc:
            raise ProblemFormatError(f"top level: missing required key {key!r}")

    raw = doc["coefficients"]
    if not isinstance(raw, list) or not raw:
        raise ProblemFormatError("coefficients: expected a non-empty list of matrices")
    coeffs = []
    shape = None
    for i, mat in enumerate(raw):
        if not isinstance(mat, list) or not mat or not all(isinstance(r, list) for r in mat):
            raise ProblemFormatError(f"coefficients[{i}]: expected a list of rows")
        ncols = len(mat[0])
        if ncols == 0 or any(len(r) != ncols for r in mat):
            raise ProblemFormatError(f"coefficients[{i}]: rows must be non-empty and equal length")
        if shape is None:
            shape = (len(mat), ncols)
        elif (len(mat), ncols) != shape:
            raise ProblemFormatError(f"coefficients[{i}]: shape differs from coefficients[0]")
        entries = [
            [
                _complex_pair(mat[ri][ci], f"coefficients[{i}][{ri}][{ci}]")
                for ci in range(ncols)
            ]
            for ri in range(len(mat))
        ]
        coeffs.append(np.array(entries, dtype=complex))

    if doc["degree"] != len(coeffs) - 1:
        raise ProblemFormatError(
            f"degree: value {doc['degree']!r} does not match {len(coeffs) - 1} from coefficients"
        )
    if doc["n"] != max(shape):
        raise ProblemFormatError(
            f"n: value {doc['n']!r} does not match padded order {max(shape)} from coefficients"
        )

    truth = None
    if "truth" in doc and doc["truth"] is not None:
        if not isinstance(doc["truth"], list):
            raise ProblemFormatError("truth: expected a list of [re, im] pairs")
        truth = tuple(
            _complex_pair(t, f"truth[{i}]") for i, t in enumerate(doc["truth"])
        )

    name = source = None
    if "metadata" in doc and doc["metadata"] is not None:
        md = doc["metadata"]
        if not isinstance(md, dict):
            raise ProblemFormatError("metadata: expected an object")
        name = md.get("name")
        source = md.get("source")
    return ProblemFile(coefficients=tuple(coeffs), truth=truth, name=name, source=source)


def load(path):
    """Read a problem file from disk."""
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def dump(pf, path):
    """Write a problem file to disk."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(pf))
        fh.write("\n")
