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

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .matpoly import MatrixPolynomial, TruthSpec

__all__ = ["ProblemFile", "ProblemFormatError", "dump", "load", "parse", "serialize"]


class ProblemFormatError(ValueError):
    """Malformed problem file; the message carries the offending location."""


@dataclass(frozen=True, eq=False)
class ProblemFile:
    """A problem file's coefficients, known truth and metadata.

    The constructor checks the coefficients once, by building the
    zero-padded ``MatrixPolynomial`` that ``to_polynomial()`` returns on
    every call; ``coefficients`` keeps the stored, possibly rectangular,
    shape as read-only views of it.  Instances compare and hash by identity.
    """

    coefficients: tuple
    truth: tuple | None = None
    name: str | None = None
    source: str | None = None
    _polynomial: MatrixPolynomial = field(init=False, repr=False)

    def __post_init__(self):
        coeffs = tuple(np.asarray(c, dtype=complex) for c in self.coefficients)
        # checked first: MatrixPolynomial would pad a (0, k) matrix, which parse rejects
        if any(0 in c.shape for c in coeffs):
            raise ProblemFormatError("coefficients: matrices need at least one row and one column")
        try:
            poly = MatrixPolynomial(coeffs)
        except ValueError as exc:
            raise ProblemFormatError(f"coefficients: {exc}") from exc
        rows, cols = coeffs[0].shape
        object.__setattr__(self, "_polynomial", poly)
        object.__setattr__(self, "coefficients", tuple(c[:rows, :cols] for c in poly.coeffs))
        if self.truth is not None:
            truth = tuple(complex(t) for t in self.truth)
            if not all(cmath.isfinite(t) for t in truth):
                raise ProblemFormatError("truth: entries must be finite")
            object.__setattr__(self, "truth", truth)
        for key in ("name", "source"):
            if not isinstance(getattr(self, key), (str, type(None))):
                raise ProblemFormatError(f"metadata.{key}: expected a string")

    @property
    def n(self):
        return self._polynomial.n

    @property
    def degree(self):
        return self._polynomial.degree

    def to_polynomial(self):
        return self._polynomial

    def truth_spec(self):
        if self.truth is None:
            raise ValueError("problem file carries no truth eigenvalues")
        return TruthSpec(self.truth)


def _pair(value):
    return [value.real, value.imag]


def _render_row(row):
    return json.dumps([_pair(entry) for entry in row], allow_nan=False)


def serialize(pf):
    """Render a ProblemFile as a JSON string, one matrix row per line."""
    matrices = ",\n".join(
        "    [\n" + ",\n".join(f"      {_render_row(row)}" for row in coef) + "\n    ]"
        for coef in pf.coefficients
    )
    items = [f'  "n": {pf.n}', f'  "degree": {pf.degree}', f'  "coefficients": [\n{matrices}\n  ]']
    if pf.truth is not None:
        items.append(f'  "truth": {_render_row(pf.truth)}')
    metadata = {key: getattr(pf, key) for key in ("name", "source") if getattr(pf, key) is not None}
    if metadata:
        items.append(f'  "metadata": {json.dumps(metadata, allow_nan=False)}')
    return "{\n" + ",\n".join(items) + "\n}"


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


def _matrix(mat, where, whole):
    # one matrix of [re, im] pairs, already checked to be a list of
    # equal-length rows, as a complex array.  With ``whole`` it is first
    # converted in one step, kept when that gives finite numbers of the
    # pair shape; otherwise each entry is checked in turn, which names the
    # first bad one
    if whole:
        try:
            arr = np.array(mat)
        except ValueError:  # a ragged nest of lists
            arr = None
        if (
            arr is not None
            and arr.dtype.kind in "fi"
            and arr.shape == (len(mat), len(mat[0]), 2)
            and np.isfinite(arr).all()
        ):
            return arr.astype(float).view(complex)[..., 0]
    return np.array(
        [
            [_complex_pair(entry, f"{where}[{ri}][{ci}]") for ci, entry in enumerate(row)]
            for ri, row in enumerate(mat)
        ],
        dtype=complex,
    )


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
    # JSON holds a bool only as the literal true or false, and np.array
    # would read it as a number, so a text with neither converts whole
    whole = "true" not in text and "false" not in text
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
        coeffs.append(_matrix(mat, f"coefficients[{i}]", whole))

    for key in ("n", "degree"):
        # bool is an int subclass, and true == 1, so it is excluded by name
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise ProblemFormatError(f"{key}: expected an integer, got {doc[key]!r}")
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
