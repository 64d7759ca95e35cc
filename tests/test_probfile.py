"""Problem-file parsing and serialization."""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqeig import probfile
from sqeig.corpus import builtin

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_shipped_ex1_matches_builtin():
    pf = probfile.load(REPO / "problems" / "ex1.json")
    poly, truth = builtin("ex1")
    for a, b in zip(pf.to_polynomial().coeffs, poly.coeffs):
        np.testing.assert_array_equal(a, b)
    assert pf.truth_spec().finite_eigenvalues == truth.finite_eigenvalues
    assert pf.name == "ex1"


def test_shipped_ex1_serializes_to_its_own_bytes():
    path = REPO / "problems" / "ex1.json"
    assert (probfile.serialize(probfile.load(path)) + "\n").encode("utf-8") == path.read_bytes()


def test_polynomial_is_built_once():
    pf = probfile.ProblemFile(coefficients=(np.ones((2, 3)), np.eye(2, 3)))
    assert pf.to_polynomial() is pf.to_polynomial()
    assert (pf.n, pf.degree) == (3, 1)


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_round_trip_random(rows, cols, degree, seed, with_truth):
    rng = np.random.default_rng(seed)
    coeffs = tuple(
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        for _ in range(degree + 1)
    )
    truth = tuple(rng.standard_normal(2) @ [1, 1j] for _ in range(2)) if with_truth else None
    pf = probfile.ProblemFile(coefficients=coeffs, truth=truth, name="t", source=None)
    back = probfile.parse(probfile.serialize(pf))
    for a, b in zip(back.coefficients, pf.coefficients):
        np.testing.assert_array_equal(a, b)
    assert back.truth == pf.truth
    assert back.name == pf.name


def test_empty_coefficients_rejected():
    with pytest.raises(probfile.ProblemFormatError, match="at least one"):
        probfile.ProblemFile(coefficients=())
    with pytest.raises(probfile.ProblemFormatError, match="coefficients"):
        probfile.parse('{"n": 1, "degree": 0, "coefficients": []}')


@pytest.mark.parametrize(
    "coeffs",
    [(np.eye(2), np.eye(3)), (np.array([[np.nan]]),), (np.array([[0.0, np.inf]]),), (np.ones(3),)],
    ids=["shapes-differ", "nan", "inf", "not-2d"],
)
def test_coefficient_errors_are_format_errors(coeffs):
    # the polynomial's own checks, reported under the file's key
    with pytest.raises(probfile.ProblemFormatError, match="^coefficients: "):
        probfile.ProblemFile(coefficients=coeffs)


def test_repeated_truth_loads_but_has_no_truth_spec():
    pf = probfile.parse(probfile.serialize(probfile.ProblemFile((np.eye(1),), truth=(1.0, 1.0))))
    assert pf.truth == (1.0, 1.0)
    with pytest.raises(ValueError, match="distinct"):
        pf.truth_spec()


def test_nan_rejected():
    text = '{"n": 1, "degree": 0, "coefficients": [[[[NaN, 0.0]]]]}'
    with pytest.raises(probfile.ProblemFormatError, match="non-finite"):
        probfile.parse(text)


_ONE = '"n": 1, "degree": 0, "coefficients": [[[[1.0, 0.0]]]]'


@pytest.mark.parametrize(
    "text,match",
    [
        ("[1, 2]", "top level: expected a JSON object"),
        ('{"n": 1, "degree": 0}', "top level: missing required key 'coefficients'"),
        ('{"n": 1, "degree": 0, "coefficients": [[1.0]]}', r"coefficients\[0\]: expected a list of rows"),
        (
            '{"n": 2, "degree": 0, "coefficients": [[[[1, 0], [1, 0]], [[1, 0]]]]}',
            r"coefficients\[0\]: rows must be non-empty and equal length",
        ),
        (
            '{"n": 2, "degree": 1, "coefficients": [[[[1, 0]]], [[[1, 0], [1, 0]]]]}',
            r"coefficients\[1\]: shape differs from coefficients\[0\]",
        ),
        (
            '{"n": 1, "degree": 0, "coefficients": [[[[1e999, 0.0]]]]}',
            r"coefficients\[0\]\[0\]\[0\]: entries must be finite",
        ),
        ("{" + _ONE + ', "truth": {"re": 1.0}}', "truth: expected a list"),
        ("{" + _ONE + ', "metadata": "ex1"}', "metadata: expected an object"),
    ],
    ids=[
        "not-object", "missing-key", "matrix-not-rows", "ragged-rows", "shape-differs",
        "overflowing-entry", "truth-not-list", "metadata-not-object",
    ],
)
def test_malformed_document_rejected(text, match):
    with pytest.raises(probfile.ProblemFormatError, match=match):
        probfile.parse(text)


def test_malformed_json_position():
    with pytest.raises(probfile.ProblemFormatError, match="line 1"):
        probfile.parse('{"n": 1,,}')


def test_entry_path_in_error():
    text = '{"n": 1, "degree": 0, "coefficients": [[[[1.0]]]]}'
    with pytest.raises(probfile.ProblemFormatError, match=r"coefficients\[0\]\[0\]\[0\]"):
        probfile.parse(text)


def test_inconsistent_header_rejected():
    good = probfile.serialize(
        probfile.ProblemFile(coefficients=(np.eye(2), np.eye(2)))
    )
    with pytest.raises(probfile.ProblemFormatError, match="degree"):
        probfile.parse(good.replace('"degree": 1', '"degree": 2'))
    with pytest.raises(probfile.ProblemFormatError, match='"n"|n:'):
        probfile.parse(good.replace('"n": 2', '"n": 3'))


def test_rectangular_coefficients_pad_on_conversion():
    coeffs = (np.ones((2, 3)), np.zeros((2, 3)))
    pf = probfile.ProblemFile(coefficients=coeffs)
    assert pf.n == 3
    poly = pf.to_polynomial()
    assert poly.n == 3
    assert np.all(poly.coeffs[0][2, :] == 0)


def test_truth_spec_requires_truth():
    pf = probfile.ProblemFile(coefficients=(np.eye(2),))
    with pytest.raises(ValueError, match="truth"):
        pf.truth_spec()


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_zero_dimension_rejected(shape):
    # serialize could write such a file, but parse would reject it
    with pytest.raises(probfile.ProblemFormatError, match="at least one row and one column"):
        probfile.ProblemFile(coefficients=(np.zeros(shape),))


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_non_finite_truth_rejected(bad):
    # serialize could not write such a file
    with pytest.raises(probfile.ProblemFormatError, match="truth: entries must be finite"):
        probfile.ProblemFile(coefficients=(np.eye(1),), truth=(1.0, bad))


@pytest.mark.parametrize(
    "key,value", [("n", "true"), ("degree", "false"), ("n", "2.0"), ("degree", '"1"')]
)
def test_header_must_be_integer(key, value):
    good = probfile.serialize(probfile.ProblemFile(coefficients=(np.eye(2), np.eye(2))))
    header = {"n": '"n": 2', "degree": '"degree": 1'}[key]
    with pytest.raises(probfile.ProblemFormatError, match=f"{key}: expected an integer"):
        probfile.parse(good.replace(header, f'"{key}": {value}'))


@pytest.mark.parametrize("key", ["name", "source"])
@pytest.mark.parametrize("value", ["[1, 2]", "3", "true", '{"a": "b"}'])
def test_metadata_fields_must_be_strings(key, value):
    text = (
        '{"n": 1, "degree": 0, "coefficients": [[[[1.0, 0.0]]]], '
        f'"metadata": {{"{key}": {value}}}}}'
    )
    with pytest.raises(probfile.ProblemFormatError, match=f"metadata.{key}: expected a string"):
        probfile.parse(text)
    with pytest.raises(probfile.ProblemFormatError, match=f"metadata.{key}"):
        probfile.ProblemFile(coefficients=(np.eye(1),), **{key: [1, 2]})


@pytest.mark.parametrize(
    "entry,problem",
    [
        ("[1.0, true]", "expected a [re, im] number pair"),
        ("[false, 0]", "expected a [re, im] number pair"),
        ('["1.5", 0]', "expected a [re, im] number pair"),
        ("[null, 0]", "expected a [re, im] number pair"),
        ("[1.0]", "expected a [re, im] number pair"),
        ("[1.0, 2.0, 3.0]", "expected a [re, im] number pair"),
        ("[[1.0, 2.0], 0]", "expected a [re, im] number pair"),
        ("1.0", "expected a [re, im] number pair"),
        ('{"re": 1.0}', "expected a [re, im] number pair"),
        ("[1e999, 0]", "entries must be finite"),
        ("[0, -1e999]", "entries must be finite"),
    ],
)
def test_bad_entry_named_in_a_whole_matrix(entry, problem):
    # a matrix is converted in one step when it can be; a bad entry still
    # fails with the message that names it, whatever the entry is
    rows = [["[1, 0]", "[2.5, -0.5]"], [entry, "[0, 1]"]]
    matrix = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    text = '{"n": 2, "degree": 1, "coefficients": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], ' + matrix + "]}"
    with pytest.raises(probfile.ProblemFormatError) as info:
        probfile.parse(text)
    assert str(info.value) == f"coefficients[1][1][0]: {problem}"


def test_whole_matrix_conversion_is_the_per_entry_one():
    # ints, floats, signed zeros and large ints read as complex(re, im) does,
    # also when a string elsewhere in the file holds the word true
    pairs = [[[3, -0.0], [2**60 + 1, 1e-310]], [[-0.0, 0], [1.5, -2**53 - 1]]]
    want = np.array([[complex(re, im) for re, im in row] for row in pairs])
    coefficients = str(pairs).replace("'", "")
    for metadata in ("", ', "metadata": {"name": "true story"}'):
        text = '{"n": 2, "degree": 0, "coefficients": [' + coefficients + "]" + metadata + "}"
        got = probfile.parse(text).coefficients[0]
        assert got.tobytes() == want.tobytes()


#: a rectangular pencil whose entries hold signed zeros, subnormals, the
#: largest double and large and small exponents, and the exact text of it
_EDGE_COEFFICIENTS = (
    np.array(
        [
            [complex(-0.0, 1e300), complex(5e-324, -2.2250738585072014e-308), complex(1.7976931348623157e308, -0.0)],
            [complex(3.0, 1e-5), complex(-0.0, -0.0), complex(2.5e-310, 4e-320)],
        ]
    ),
    np.array(
        [
            [complex(1.0, -0.0), complex(-1e-300, 123456789.0), complex(0.1, 1e16)],
            [complex(-1.5e200, 7.0), complex(1e15, 1e17), complex(-5e-324, 0.0)],
        ]
    ),
)
_EDGE_TEXT = """{
  "n": 3,
  "degree": 1,
  "coefficients": [
    [
      [[-0.0, 1e+300], [5e-324, -2.2250738585072014e-308], [1.7976931348623157e+308, -0.0]],
      [[3.0, 1e-05], [-0.0, -0.0], [2.5e-310, 4e-320]]
    ],
    [
      [[1.0, -0.0], [-1e-300, 123456789.0], [0.1, 1e+16]],
      [[-1.5e+200, 7.0], [1000000000000000.0, 1e+17], [-5e-324, 0.0]]
    ]
  ],
  "truth": [[-0.0, 5e-324], [1e+22, 0.0]],
  "metadata": {"name": "edge", "source": "unit test"}
}"""


def test_serialized_text_is_pinned():
    # the file format byte for byte: one row per line, each float as its
    # shortest repr, signed zeros and subnormals kept
    pf = probfile.ProblemFile(
        _EDGE_COEFFICIENTS, truth=(complex(-0.0, 5e-324), 1e22), name="edge", source="unit test"
    )
    assert probfile.serialize(pf) == _EDGE_TEXT
    back = probfile.parse(_EDGE_TEXT)
    for a, b in zip(back.coefficients, _EDGE_COEFFICIENTS):
        for part in (np.real, np.imag):
            assert part(a).tobytes() == part(b).tobytes()
    assert probfile.serialize(back) == _EDGE_TEXT
