"""JSON round trips and canonical emission."""

import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspchain import serialize
from cuspchain.chains import (
    LINK_TYPES,
    build_chain_orthogonal,
    build_chain_symplectic,
    build_chain_unitary,
)
from cuspchain.errors import InputFormatError, MixedDiscriminants
from cuspchain.exact import Matrix, QuadFieldElement
from cuspchain.forms import (
    canonical_subspace,
    line,
    quadratic_2u_perp_diagonal,
    standard_hermitian_hyperbolic,
    standard_symplectic,
    unit_vector,
)

from support import (
    json_scalar,
    plain_json,
    random_orthogonal_isometry,
    standard_isotropic,
    transform_subspace,
    unitary_test_space,
)


def test_fraction_strings():
    assert serialize.dumps_canonical(Fraction(3)) == '"3"\n'
    assert serialize.dumps_canonical(Fraction(-4, 6)) == '"-2/3"\n'
    assert serialize.scalar_from_json("-2/3") == Fraction(-2, 3)
    assert serialize.scalar_from_json(7) == Fraction(7)


def test_quad_field_round_trip():
    x = QuadFieldElement(Fraction(1, 2), Fraction(-3), 7)
    encoded = plain_json(x)
    assert encoded == {"a": "1/2", "b": "-3", "D": 7}
    assert serialize.scalar_from_json(encoded) == x


def test_bad_scalars_rejected():
    with pytest.raises(InputFormatError):
        serialize.scalar_from_json("1/0")
    with pytest.raises(InputFormatError):
        serialize.scalar_from_json(None)
    with pytest.raises(InputFormatError):
        serialize.scalar_from_json({"a": "1"})


@pytest.mark.parametrize("d", [3.7, 3.0, True, "3", None])
def test_field_parameter_must_be_a_json_integer(d):
    with pytest.raises(InputFormatError):
        serialize.scalar_from_json({"a": "1", "b": "1", "D": d})
    with pytest.raises(InputFormatError):
        serialize.form_space_from_json({"kind": "hermitian", "gram": [["1"]], "D": d})


def test_form_space_round_trip():
    for space in (
        quadratic_2u_perp_diagonal([-2]),
        standard_symplectic(2),
        standard_hermitian_hyperbolic(3, 2),
    ):
        encoded = plain_json(serialize.form_space_to_json(space))
        assert serialize.form_space_from_json(encoded) == space


def test_subspace_round_trip():
    space = standard_symplectic(2)
    s = line(space, unit_vector(space, 0))
    encoded = plain_json(serialize.subspace_to_json(s))
    assert serialize.subspace_from_json(encoded, space) == s


def certificate_samples():
    rng = random.Random(7)
    space = standard_symplectic(2)
    yield build_chain_symplectic(
        space, standard_isotropic(space, 2, "e"), standard_isotropic(space, 2, "f")
    )
    yield build_chain_symplectic(
        space,
        line(space, unit_vector(space, 0)),
        line(space, unit_vector(space, 2)),
    )
    orth = quadratic_2u_perp_diagonal([-2])
    base = line(orth, unit_vector(orth, 0))
    moved = transform_subspace(
        orth, random_orthogonal_isometry(orth, rng, 3), base
    )
    yield build_chain_orthogonal(orth, base, moved)
    e1, f1, e2 = (line(orth, unit_vector(orth, i)) for i in (0, 1, 2))
    yield build_chain_orthogonal(orth, e1, e2)
    yield build_chain_orthogonal(orth, e1, f1)
    planes = [
        canonical_subspace(orth, Matrix([unit_vector(orth, i), unit_vector(orth, j)]))
        for i, j in ((0, 2), (1, 3))
    ]
    yield build_chain_orthogonal(orth, *planes)
    herm = standard_hermitian_hyperbolic(1, 2)
    yield build_chain_unitary(
        herm,
        standard_isotropic(herm, 2, "e"),
        standard_isotropic(herm, 2, "f"),
    )


def test_certificate_round_trip():
    for cert in certificate_samples():
        encoded = plain_json(serialize.certificate_to_json(cert))
        decoded = serialize.certificate_from_json(encoded)
        assert decoded == cert
        assert plain_json(serialize.certificate_to_json(decoded)) == encoded


def test_samples_cover_every_link_type():
    def tags(encoded):
        for link in encoded["links"]:
            yield link["type"]
            if "sub" in link:
                yield from tags(link["sub"])

    seen = {
        tag
        for cert in certificate_samples()
        for tag in tags(serialize.certificate_to_json(cert))
    }
    assert seen == {link_type.tag for link_type in LINK_TYPES.values()}
    # nothing else is written as a link
    for stray in (object(), 3, next(certificate_samples())):
        with pytest.raises(InputFormatError, match="^unknown link type "):
            serialize.link_to_json(stray)


def test_certificate_canonical_bytes():
    cert = next(certificate_samples())
    a = serialize.dumps_canonical(serialize.certificate_to_json(cert))
    b = serialize.dumps_canonical(serialize.certificate_to_json(cert))
    assert a == b
    assert a.endswith("\n")


def json_text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**40), 10**40),
    st.floats(),
    st.text(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda items: st.one_of(
        st.lists(items, max_size=4),
        st.lists(st.one_of(st.text(max_size=4), items), max_size=4),
        st.dictionaries(st.text(max_size=6), items, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_canonical_text_is_json_dumps_text(value):
    assert serialize.dumps_canonical(value) == json_text(value)


def test_canonical_text_of_documents_is_json_dumps_text():
    from cuspchain.chains import verify_certificate

    symplectic = next(certificate_samples())
    herm = unitary_test_space(3, 2)
    unitary = build_chain_unitary(
        herm, standard_isotropic(herm, 2, "e"), standard_isotropic(herm, 2, "f")
    )
    report = serialize.report_to_json(verify_certificate(symplectic))
    report["failures"].append(
        {"link": 0, "condition": "link-error", "detail": "ValueError: √−3 \x00 \"q\""}
    )
    documents = [
        serialize.certificate_to_json(symplectic),
        serialize.certificate_to_json(unitary),
        serialize.form_space_to_json(herm),
        serialize.report_to_json(verify_certificate(unitary)),
        report,
        {"error": "InputFormatError", "detail": "bad rational '1e3' ∉ ℚ\t"},
    ]
    for doc in documents:
        assert serialize.dumps_canonical(doc) == json_text(plain_document(doc))
    # the encoders leave their matrices to the writer as Matrix values
    assert isinstance(serialize.form_space_to_json(herm)["gram"], Matrix)


def test_certificate_format_guard():
    cert = next(certificate_samples())
    for fmt in (2, True, 1.0, "1", None):
        encoded = plain_json(serialize.certificate_to_json(cert))
        encoded["format"] = fmt
        with pytest.raises(InputFormatError, match="unsupported certificate format"):
            serialize.certificate_from_json(encoded)
    # a boundary descent's sub-certificate is held to the same format
    encoded = plain_json(serialize.certificate_to_json(cert))
    descent = next(link for link in encoded["links"] if "sub" in link)
    descent["sub"]["format"] = True
    with pytest.raises(InputFormatError, match="unsupported certificate format True"):
        serialize.certificate_from_json(encoded)


def test_report_round_trip():
    from cuspchain.chains import Failure, VerificationReport, verify_certificate

    report = verify_certificate(next(certificate_samples()))
    failing = VerificationReport(False, (Failure(-1, "certificate-error", "text"),))
    for r in (report, failing):
        encoded = serialize.report_to_json(r)
        failures = tuple(Failure(**f) for f in encoded["failures"])
        assert VerificationReport(encoded["ok"], failures) == r
    assert serialize.report_to_json(report)["ok"] is True


# -- the integer parse of matrix entries ------------------------------------------
#
# matrix_from_json reads "p" / "p/q" strings and JSON integers straight to
# integers and leaves every other entry to scalar_from_json, which reads
# strings with Fraction(str).  Both must give the same value or the same error.


def read_entry(read, obj):
    try:
        return "value", read(obj)
    except InputFormatError as exc:
        return "error", str(exc)


def fast_entry(obj):
    return serialize.matrix_from_json([[obj]]).rows[0][0]


HOSTILE = [
    "1/0", "2/4", "-0", "+3", "1.5", "1e3", " 7 ", "1_000", "٣", "1,2", "1/2,3",
    "-5/-3", "3/", "/3", "", "0/0", "0007/0010", "７", True, False, 3.0, None, [1],
    "9" * 4000, -(10**4000), "1/" + "7" * 4000, "9" * 5000,
]


@pytest.mark.parametrize("obj", HOSTILE, ids=range(len(HOSTILE)))
def test_hostile_entries_read_as_before(obj):
    expected = read_entry(serialize.scalar_from_json, obj)
    assert read_entry(fast_entry, obj) == expected
    quad = {"a": obj, "b": "1", "D": 2}
    got = read_entry(fast_entry, quad)
    assert got == read_entry(serialize.scalar_from_json, quad)
    if expected[0] == "value":
        assert type(got[1]) is QuadFieldElement and got[1].a == expected[1]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.from_regex(r"\A-?[0-9]{1,40}(/[0-9]{1,40})?\Z"),
        st.text(max_size=12),
        st.integers(),
    )
)
def test_entries_read_as_fraction_reads_them(obj):
    expected = read_entry(serialize.scalar_from_json, obj)
    assert read_entry(fast_entry, obj) == expected
    if isinstance(obj, str) and expected[0] == "value":
        assert expected[1] == Fraction(obj)


# A matrix whose entries share one encoding is read a whole matrix at a time
# by the integer reader; every other matrix, including a ragged or empty one,
# falls through to the entry-wise reading.  The reference builds the Matrix
# from the entries.


def read_entrywise(obj):
    try:
        rows = [[serialize.scalar_from_json(x) for x in r] for r in obj]
        return "value", Matrix(rows)
    except (InputFormatError, MixedDiscriminants, ValueError) as exc:
        return "error", str(exc)


def assert_read_as_entrywise(rows):
    expected = read_entrywise(rows)
    got = read_entry(serialize.matrix_from_json, rows)
    assert got[0] == expected[0]
    if got[0] == "error":
        assert got == expected
    else:
        assert got[1] == expected[1] and got[1].rows == expected[1].rows


RATIO_STRINGS = st.from_regex(r"\A-?[0-9]{1,6}(/[0-9]{1,4})?\Z")
FIELD_ELEMENT = {"a": "1/2", "b": "-3", "D": 7}


@st.composite
def matrices_of_strings(draw):
    """1-4 rows of width 0-4: "p/q" strings, and now and then a hostile
    string, a JSON integer, a field element or a row of another width."""
    width = draw(st.integers(min_value=0, max_value=4))
    stray = draw(st.sampled_from([None, "hostile", "integer", "field", "ragged"]))
    rows = draw(
        st.lists(
            st.lists(RATIO_STRINGS, min_size=width, max_size=width),
            min_size=1,
            max_size=4,
        )
    )
    i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
    if stray == "ragged":
        rows[i] = draw(st.lists(RATIO_STRINGS, max_size=4))
    elif stray is not None and width:
        j = draw(st.integers(min_value=0, max_value=width - 1))
        rows[i][j] = draw(
            {
                "hostile": st.sampled_from(HOSTILE),
                "integer": st.integers(-(10**30), 10**30),
                "field": st.just(FIELD_ELEMENT),
            }[stray]
        )
    return rows


VALID_DS = [1, 2, 3, 7]
BAD_DS = [True, 2.0, 4, 2**40]


@st.composite
def matrices_of_field_elements(draw):
    """1-3 rows of width 1-3 of field elements over one D, with "a" parts and
    "b" parts each all "p/q" strings or all JSON integers; now and then a
    hostile part, a part of the other encoding, a D that differs between
    rows, or a D of True, 2.0, 4 or 2**40."""
    width = draw(st.integers(min_value=1, max_value=3))
    nrows = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.sampled_from(VALID_DS))
    encodings = [RATIO_STRINGS, st.integers(-(10**30), 10**30)]
    # the encodings of the "a" and "b" parts, and of a stray part
    parts = {p: draw(st.permutations(encodings)) for p in "ab"}
    rows = [
        [
            {"a": draw(parts["a"][0]), "b": draw(parts["b"][0]), "D": d}
            for _ in range(width)
        ]
        for _ in range(nrows)
    ]
    stray = draw(st.sampled_from([None, "hostile", "encoding", "rows", "bad-d"]))
    i = draw(st.integers(min_value=0, max_value=nrows - 1))
    j = draw(st.integers(min_value=0, max_value=width - 1))
    part = draw(st.sampled_from("ab"))
    if stray == "hostile":
        rows[i][j][part] = draw(st.sampled_from(HOSTILE))
    elif stray == "encoding":
        rows[i][j][part] = draw(parts[part][1])
    elif stray == "rows":
        other = draw(st.sampled_from(VALID_DS))
        for x in rows[i]:
            x["D"] = other
    elif stray == "bad-d":
        rows[i][j]["D"] = draw(st.sampled_from(BAD_DS))
    return rows


@st.composite
def integer_matrices_with_a_string_row(draw):
    """1-4 rows of width 1-4 of JSON integers, one of them a row of "p/q"
    strings instead."""
    width = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(st.integers(-(10**30), 10**30), min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
    rows[i] = draw(st.lists(RATIO_STRINGS, min_size=width, max_size=width))
    return rows


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.lists(
            st.lists(
                st.one_of(st.sampled_from(HOSTILE[:14]), st.integers(-9, 9)),
                min_size=2,
                max_size=2,
            ),
            min_size=1,
            max_size=3,
        ),
        matrices_of_strings(),
        matrices_of_field_elements(),
        integer_matrices_with_a_string_row(),
    )
)
def test_matrices_read_as_before(rows):
    assert_read_as_entrywise(rows)


# A matrix of "p" strings alone is read by one json.loads of its joined rows;
# an entry that JSON reads otherwise than int(), or whose "," would split it,
# sends the matrix back to the entry-by-entry reading.
ONE_PARSE_HOSTILE = ["1,2", "1],[2", "007", " 7 ", "-0", "1/2", "9" * 4000, "9" * 5000]


@pytest.mark.parametrize("at", [(0, 0), (1, 2), (2, 1)])
@pytest.mark.parametrize("stray", ONE_PARSE_HOSTILE, ids=range(len(ONE_PARSE_HOSTILE)))
def test_one_parse_strays_read_as_entrywise(stray, at):
    rows = [["1", "-2", "30"], ["0", "5", "-6"], ["7", "-80", "9"]]
    rows[at[0]][at[1]] = stray
    assert_read_as_entrywise(rows)
    quad = [[{"a": x, "b": "-1", "D": 3} for x in r] for r in rows]
    assert_read_as_entrywise(quad)
    assert_read_as_entrywise([[{"a": "2", "b": x, "D": 3} for x in r] for r in rows])


def test_p_strings_are_read_by_one_parse():
    rows = [["1", "-2", "30"], ["0", "5", "-6"]]
    with mock.patch.object(serialize.json, "loads", wraps=json.loads) as loads:
        m = serialize.matrix_from_json(rows)
    assert loads.call_count == 1
    assert m.rows == ((1, -2, 30), (0, 5, -6))


# A matrix of "p" and "p/q" strings is read by one json.loads too, a row
# holding a "p/q" as the lists [p] and [p, q]; a q below 1, an entry JSON
# reads otherwise than int() reads p and q, or one holding a ",", sends the
# matrix back to the entry-by-entry reading.
RATIO_ROWS = [["1", "-2/3", "30"], ["0", "5", "-6"], ["7/4", "-80", "9/2"]]
RATIO_HOSTILE = [
    "1/0", "0/0", "-0/5", "1/-2", "1//2", "1/2/3", "1/", "/2", "-1/2", "2/4",
    "1/02", "007/2", "1/2,3", "1,2/3", " 1/2", "1/2 ", "1-2/3", "--1/2",
    "9" * 4400 + "/2", "1/" + "9" * 4400, "-" + "7" * 4301 + "/3",
]


@pytest.mark.parametrize("at", [(0, 0), (1, 2), (2, 1)])
@pytest.mark.parametrize("stray", RATIO_HOSTILE, ids=range(len(RATIO_HOSTILE)))
def test_ratio_strays_read_as_entrywise(stray, at):
    rows = [list(r) for r in RATIO_ROWS]
    rows[at[0]][at[1]] = stray
    assert_read_as_entrywise(rows)
    assert_read_as_entrywise([[{"a": x, "b": "-1/3", "D": 2} for x in r] for r in rows])
    assert_read_as_entrywise([[{"a": "2", "b": x, "D": 7} for x in r] for r in rows])


def test_ratio_strings_are_read_by_one_parse():
    # rows of "p" strings alone, of "p/q" strings alone and of both
    rows = [["1", "-2", "30"], ["1/2", "-5/6", "7/9"], ["0", "3/4", "-6"]]
    with mock.patch.object(serialize.json, "loads", wraps=json.loads) as loads:
        m = serialize.matrix_from_json(rows)
    assert loads.call_count == 1
    assert m.rows == tuple(tuple(map(Fraction, r)) for r in rows)


@pytest.mark.parametrize(
    "rows",
    [
        [["1,2"]],
        [["1/2,3"], ["4"]],
        [["1", "2"], ["3,4"]],
        [["0/0", "1"]],
        [["1", "2/0"], ["3", "4"]],
        [["1/2"], ["1/" + "7" * 4400]],
        [["9" * 5000, "1"]],
        [["٣"]],
        [[" 7 "]],
        [["1_000"]],
        [["1", 2], ["3", "4"]],
        [["1", "2"], []],
        [[], []],
        [["1"], ["2", "3"]],
        [["1", FIELD_ELEMENT]],
    ],
    ids=range(15),
)
def test_fallbacks_read_as_entrywise(rows):
    assert_read_as_entrywise(rows)


# 24 x 32, rows of the two endpoint bases of a genus-16 Lagrangian chain
CERT_LARGE_ROWS = [
    "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 1 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 1 0 0 0 0 -3/2 -1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 -2 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 1 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0",
    "1 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 1 0 0 0 0 0 0 1 -1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 1 0 0 0 -1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 1 0 1 3/2 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 1 -1 -1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0",
]


def test_a_large_certificate_matrix_reads_as_entrywise():
    rows = [r.split() for r in CERT_LARGE_ROWS]
    assert (len(rows), len(rows[0])) == (24, 32)
    assert_read_as_entrywise(rows)
    for stray in ("1/0", 7, FIELD_ELEMENT, "2/4"):
        rows[23][31] = stray
        assert_read_as_entrywise(rows)


def test_mixed_fields_are_an_input_error():
    q = lambda d: {"a": "1", "b": "1", "D": d}
    mixed = {
        "cannot mix d=2 with d=3": ([[q(2), q(3)]], [[q(3)], [q(2)]]),
        "cannot mix d=3 with d=7": ([[q(7), "1"], ["2", q(3)]],),
    }
    for detail, cases in mixed.items():
        for rows in cases:
            with pytest.raises(InputFormatError, match=detail):
                serialize.matrix_from_json(rows)
    with pytest.raises(InputFormatError, match="bad field element"):
        serialize.matrix_from_json([[{"a": "1", "b": "1", "D": 4}]])
    with pytest.raises(InputFormatError, match="ragged"):
        serialize.matrix_from_json([["1", "2"], ["3"]])


def test_field_parameter_is_bounded_before_trial_division():
    # 10**14 + 31 is squarefree, but deciding it by trial division takes seconds
    big = 10**14 + 31
    with pytest.raises(InputFormatError, match="2\\*\\*32"):
        serialize.matrix_from_json([[{"a": "1", "b": "1", "D": big}]])
    with pytest.raises(InputFormatError, match="2\\*\\*32"):
        serialize.form_space_from_json({"kind": "hermitian", "gram": [["1"]], "D": big})


# -- the traffic of the integer reader --------------------------------------------
#
# Every matrix the program writes, and every non-empty matrix the benchmark's
# generator writes, is read by the integer reader, not entry by entry.


@st.composite
def exact_matrices(draw):
    """1-4 rows of width 1-5 over Q or Q(sqrt(-D)), D in {1, 2, 3, 7}: now
    and then zero rows, no imaginary parts or 200-bit numerators."""
    d = draw(st.sampled_from([None, *VALID_DS]))
    width = draw(st.integers(min_value=1, max_value=5))
    bits = draw(st.sampled_from([4, 200]))
    part = st.builds(Fraction, st.integers(-(2**bits), 2**bits), st.integers(1, 60))
    row = st.one_of(
        st.just([0] * width), st.lists(part, min_size=width, max_size=width)
    )
    re = draw(st.lists(row, min_size=1, max_size=4))
    if d is None:
        return Matrix(re)
    im = draw(
        st.one_of(
            st.just([[0] * width] * len(re)),
            st.lists(row, min_size=len(re), max_size=len(re)),
        )
    )
    return Matrix(
        [[QuadFieldElement(x, y, d) for x, y in zip(r, s)] for r, s in zip(re, im)]
    )


@settings(max_examples=200, deadline=None)
@given(exact_matrices())
def test_written_matrices_take_the_integer_reader(m):
    obj = plain_document(m)
    read = serialize._integer_matrix(obj)
    assert read is not None
    assert read == m and read.rows == m.rows
    with mock.patch.object(serialize, "scalar_from_json", side_effect=AssertionError):
        assert serialize.matrix_from_json(obj).rows == m.rows


GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def input_matrices(doc):
    """The non-empty matrices of a JSON document: lists of lists of entries."""
    if isinstance(doc, dict):
        for value in doc.values():
            yield from input_matrices(value)
    elif isinstance(doc, list) and doc and all(isinstance(r, list) for r in doc):
        if any(isinstance(x, list) for r in doc for x in r):
            for r in doc:  # a list of matrices
                yield from input_matrices(r)
        elif doc[0]:
            yield doc


def test_benchmark_inputs_take_the_integer_reader(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # dataclasses look it up
    spec.loader.exec_module(gen)
    for workload, generate in gen.WORKLOADS.items():
        count = 0
        for inst in generate(1):
            for doc in inst.files.values():
                for obj in input_matrices(doc):
                    assert serialize._integer_matrix(obj) is not None, (workload, obj)
                    count += 1
        assert count, workload


# -- the exact leaves of dumps_canonical ---------------------------------------
#
# dumps_canonical writes a Fraction, a QuadFieldElement or a Matrix (from its
# integer arrays) in a document as the text json.dumps writes for its JSON
# at that depth.

WRITTEN_MATRICES = st.one_of(
    exact_matrices(),
    st.integers(min_value=0, max_value=4).map(lambda n: Matrix([], ncols=n)),
    st.integers(min_value=1, max_value=3).map(lambda k: Matrix([[]] * k)),
)
RATIONALS = st.fractions(max_denominator=60)
EXACT_SCALARS = st.one_of(
    RATIONALS,
    st.builds(QuadFieldElement, RATIONALS, RATIONALS, st.sampled_from([1, 2, 3, 7])),
)
EXACT_LEAVES = st.one_of(WRITTEN_MATRICES, EXACT_SCALARS)


@st.composite
def matrix_documents(draw, depth=None):
    """A matrix or an exact scalar nested 0-3 levels deep in lists, tuples
    and dicts, beside JSON scalars, other matrices and exact scalars."""
    if depth is None:
        depth = draw(st.integers(min_value=0, max_value=3))
    if depth == 0:
        return draw(EXACT_LEAVES)
    items = [draw(matrix_documents(depth - 1))]
    items += draw(st.lists(st.one_of(JSON_SCALARS, EXACT_LEAVES), max_size=2))
    if draw(st.booleans()):
        items = draw(st.permutations(items))
        return tuple(items) if draw(st.booleans()) else items
    keys = draw(
        st.lists(st.text(max_size=4), min_size=len(items), max_size=len(items),
                 unique=True)
    )
    return dict(zip(keys, items))


def plain_document(doc):
    """doc with each exact value replaced by its JSON, entry by entry: a
    Matrix by the rows of its entries' JSON."""
    if isinstance(doc, Matrix):
        return [[json_scalar(x) for x in r] for r in doc.rows]
    if isinstance(doc, (Fraction, QuadFieldElement)):
        return json_scalar(doc)
    if isinstance(doc, dict):
        return {k: plain_document(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain_document(v) for v in doc]
    return doc


@settings(max_examples=300, deadline=None)
@given(matrix_documents())
def test_matrix_leaves_are_written_as_json_dumps_writes_their_rows(doc):
    assert serialize.dumps_canonical(doc) == json_text(plain_document(doc))

