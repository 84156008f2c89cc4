"""Canonical JSON input/output for every public data type.

Rationals serialize as reduced strings "p/q" (or "p" when q = 1); elements
of Q(sqrt(-D)) as {"a": "p/q", "b": "p/q", "D": n}.  Emission
(``dumps_canonical``) sorts keys, indents by two spaces and escapes strings
to ASCII as ``json.dumps`` does, so equal values produce byte-identical
documents.  Its own small emitter writes the text, because ``json.dumps``
serves ``indent`` only from its pure-Python encoder.

``dumps_canonical`` is the one writer.  The encoders (``*_to_json``) build
documents whose leaves may be exact values: each ``Matrix``, ``Fraction``
and ``QuadFieldElement`` stays as it is, and the writer formats it.  A
matrix is written straight from its integer rows, one "p" / "p/q" text per
entry and one template per field element, so no per-entry string or dict
is built for it.  To get plain JSON, read the written text back.

A JSON matrix has two readings.  The integer reader takes a matrix of one
nonzero width whose entries share one encoding: all JSON integers, all
strings "p" and "p/q" in ASCII digits, or all field elements over one valid
D whose "a" parts and "b" parts are such entries.  It reads a whole matrix
at a time straight to integer rows over per-row denominators.  Strings
take one ``json.loads`` of their joined rows, a row that holds a "p/q" as
the lists [p] and [p, q] of its entries, kept when JSON reads every p and q
alike to ``int()`` and the rows it gives have the input's shape.  Every
other matrix (empty, ragged, mixing encodings or values of D, holding any
other entry, or strings JSON reads otherwise, such as "007") is read entry
by entry, strings by ``Fraction(str)``.  That reading is the reference:
the integer reader gives the same values and leaves every error to it.
A string rational in exponent notation ("1e3") is refused, since
``Fraction(str)`` would expand its exponent in time and memory that grow
with it.  A matrix whose entries lie over two values of D is an input error.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm

from .chains import (
    LINK_TYPES,
    ChainCertificate,
    Link,
    ManinDrinfeldLeaf,
    VerificationReport,
)
from .errors import InputFormatError, MixedDiscriminants
from .exact import Matrix, QuadFieldElement, _canonical, _is_field
from .forms import HERMITIAN, KINDS, FormSpace, Subspace

CERTIFICATE_FORMAT = 1


def scalar_from_json(obj) -> Fraction | QuadFieldElement:
    if isinstance(obj, dict):
        try:
            return QuadFieldElement(
                _fraction_from_json(obj["a"]),
                _fraction_from_json(obj["b"]),
                _field_parameter(obj["D"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise InputFormatError(f"bad field element {obj!r}: {exc}") from exc
    return _fraction_from_json(obj)


def _field_parameter(obj) -> int:
    """The field parameter D, which must be a JSON integer (not a bool)."""
    if type(obj) is not int:
        raise InputFormatError(f"field parameter D must be an integer, got {obj!r}")
    return obj


def _fraction_from_json(obj) -> Fraction:
    if isinstance(obj, bool):
        raise InputFormatError(f"bad rational {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        if "e" in obj or "E" in obj:  # Fraction(str) would expand the exponent
            raise InputFormatError(f"bad rational {obj!r}")
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad rational {obj!r}") from exc
    raise InputFormatError(f"bad rational {obj!r}")


def _ratio_to_json(n: int, q: int) -> str:
    """The text of the rational n/q for q > 0: "p/q" in lowest terms, or "p"."""
    if q != 1:
        g = gcd(n, q)
        n, q = n // g, q // g
    return str(n) if q == 1 else f"{n}/{q}"


# the characters of "p" and "p/q" strings joined by ","
_RATIO_TEXT = re.compile(r"[-0-9,/]*")


def _integer_rows(obj: list) -> tuple[list, list] | None:
    """(nums, dens): rows of entries, all JSON integers or all strings "p" and
    "p/q" in ASCII digits, as the rows nums[i] / dens[i]; None for any other
    rows, a q < 1 or a string JSON does not read as int() would.
    Fraction(str) reads each accepted string as p/q too.

    The strings are read by one json.loads: a row without a "/" as its
    integers, a row with one as the lists [p] and [p, q] of its entries,
    each written "[" + entry + "]" with "," for "/".
    """
    if all(type(x) is int for r in obj for x in r):
        return [list(r) for r in obj], [1] * len(obj)
    try:
        lines = [",".join(r) for r in obj]
    except TypeError:  # an entry that is not a string
        return None
    text = ",".join(lines)
    if not _RATIO_TEXT.fullmatch(text):
        return None
    ratios = "/" in text
    if ratios:
        # an entry that held a "," would pass for a "/" once bracketed
        if text.count(",") != sum(map(len, obj)) - 1:
            return None
        lines = [
            "[" + "],[".join(r).replace("/", ",") + "]" if "/" in line else line
            for r, line in zip(obj, lines)
        ]
    # JSON refuses "--1", a leading zero and an empty p or q, and int() past
    # its digit limit; the entry-wise reading takes what it refuses
    try:
        rows = json.loads("[[" + "],[".join(lines) + "]]")
    except ValueError:
        return None
    # an entry that held a "," or was empty changes its row's length
    if list(map(len, rows)) != list(map(len, obj)):
        return None
    dens = [1] * len(rows)
    if not ratios:
        return rows, dens
    for i, line in enumerate(lines):
        if "[" in line:  # the lists [p] and [p, q]
            r = rows[i]
            if not set(map(len, r)) <= {1, 2}:
                return None
            qs = [x[1] for x in r if len(x) == 2]
            if min(qs) < 1:
                return None
            q = lcm(*qs)
            rows[i] = [x[0] * q if len(x) == 1 else x[0] * (q // x[1]) for x in r]
            dens[i] = q
    return rows, dens


def _integer_matrix(obj: list) -> Matrix | None:
    """The matrix of rows of one nonzero width, read straight to integers:
    rows of rationals as _integer_rows reads them, or of field elements
    {"a", "b", "D"} over one valid D whose "a" parts and "b" parts each are
    such rows; None for any other matrix."""
    width = len(obj[0]) if obj else 0
    if not width or any(len(r) != width for r in obj):
        return None
    if type(obj[0][0]) is not dict:
        rows = _integer_rows(obj)
        return None if rows is None else _canonical(rows[0], None, rows[1], None, width)
    d = obj[0][0].get("D")
    if not _is_field(d) or any(
        type(x) is not dict or type(x.get("D")) is not int or x["D"] != d
        for r in obj
        for x in r
    ):
        return None
    a = _integer_rows([[x.get("a") for x in r] for r in obj])
    b = _integer_rows([[x.get("b") for x in r] for r in obj])
    if a is None or b is None:
        return None
    re, im, den = [], [], []
    for xs, p, ys, t in zip(*a, *b):
        q = lcm(p, t)
        re.append([x * (q // p) for x in xs])
        im.append([y * (q // t) for y in ys])
        den.append(q)
    return _canonical(re, im, den, d, width)


def matrix_from_json(obj, ncols: int | None = None) -> Matrix:
    if not isinstance(obj, list) or any(not isinstance(r, list) for r in obj):
        raise InputFormatError("a matrix must be a list of rows")
    mat = _integer_matrix(obj)
    if mat is not None:
        return mat
    # the entry-by-entry reading, which raises on the first bad entry
    rows = [[scalar_from_json(x) for x in r] for r in obj]
    try:
        return Matrix(rows, ncols=ncols if not rows else None)
    except (MixedDiscriminants, ValueError) as exc:
        raise InputFormatError(str(exc)) from exc


def vector_from_json(obj) -> tuple:
    if not isinstance(obj, list):
        raise InputFormatError("a vector must be a list of entries")
    return tuple(scalar_from_json(x) for x in obj)


def form_space_to_json(space: FormSpace) -> dict:
    out = {"kind": space.kind, "gram": space.gram}
    if space.kind == HERMITIAN:
        out["D"] = space.d
    return out


def form_space_from_json(obj) -> FormSpace:
    if not isinstance(obj, dict):
        raise InputFormatError("a form space must be an object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise InputFormatError(f"unknown form kind {kind!r}")
    gram = matrix_from_json(obj.get("gram"))
    d = obj.get("D")
    try:
        return FormSpace(kind, gram, _field_parameter(d) if d is not None else None)
    except (ValueError, TypeError) as exc:
        raise InputFormatError(str(exc)) from exc


def subspace_to_json(s: Subspace) -> dict:
    return {"basis": s.basis}


def subspace_from_json(obj, space: FormSpace) -> Subspace:
    if not isinstance(obj, dict) or "basis" not in obj:
        raise InputFormatError("a subspace must be an object with a basis")
    basis = matrix_from_json(obj["basis"], ncols=space.dim)
    try:
        return Subspace(space, basis)
    except Exception as exc:
        raise InputFormatError(str(exc)) from exc


def _leaf_to_json(leaf: ManinDrinfeldLeaf) -> dict:
    return {"note": leaf.note}


def _leaf_from_json(obj) -> ManinDrinfeldLeaf:
    if not isinstance(obj, dict) or not isinstance(obj.get("note"), str):
        raise InputFormatError("a base leaf must be an object with a note")
    return ManinDrinfeldLeaf(note=obj["note"])


def certificate_to_json(cert: ChainCertificate) -> dict:
    return {
        "format": CERTIFICATE_FORMAT,
        "kind": cert.kind,
        "ambient": form_space_to_json(cert.ambient),
        "nodes": [subspace_to_json(n) for n in cert.nodes],
        "links": [link_to_json(l) for l in cert.links],
    }


def certificate_from_json(obj, descents: int | None = None) -> ChainCertificate:
    """The certificate obj encodes.

    Boundary descents may nest at most ``descents`` deep below it, and at
    most half its ambient dimension, since each descent quotients by an
    isotropic subspace of dimension >= 1.  Deeper nesting is an input error,
    so a hostile document cannot exhaust the stack.
    """
    if not isinstance(obj, dict):
        raise InputFormatError("a certificate must be an object")
    fmt = obj.get("format")
    if type(fmt) is not int or fmt != CERTIFICATE_FORMAT:
        raise InputFormatError(f"unsupported certificate format {fmt!r}")
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise InputFormatError("certificate kind must be a string")
    space = form_space_from_json(obj.get("ambient"))
    descents = space.dim // 2 if descents is None else min(descents, space.dim // 2)
    nodes = obj.get("nodes")
    links = obj.get("links")
    if not isinstance(nodes, list) or not isinstance(links, list):
        raise InputFormatError("certificate nodes and links must be lists")
    return ChainCertificate(
        ambient=space,
        kind=kind,
        nodes=tuple(subspace_from_json(n, space) for n in nodes),
        links=tuple(link_from_json(l, space, descents) for l in links),
    )


def _sub_certificate_from_json(obj, descents: int) -> ChainCertificate:
    if descents < 1:
        raise InputFormatError(
            "boundary descents nest deeper than half the ambient dimension"
        )
    return certificate_from_json(obj, descents - 1)


def _same(value):
    """A matrix or vector field's encoding: the value, for dumps_canonical."""
    return value


# Link field codecs by the names ``chains.LINK_TYPES`` declares: an encoder
# of the value, and a decoder of (JSON value, ambient space, fields decoded
# so far, descents left).
FIELD_CODECS = {
    "subspace": (
        subspace_to_json,
        lambda obj, space, done, left: subspace_from_json(obj, space),
    ),
    "ambient_matrix": (
        _same,
        lambda obj, space, done, left: matrix_from_json(obj, ncols=space.dim),
    ),
    "quotient_matrix": (
        _same,
        lambda obj, space, done, left: matrix_from_json(
            obj, ncols=done["sub"].ambient.dim
        ),
    ),
    "vector": (
        _same,
        lambda obj, space, done, left: vector_from_json(obj),
    ),
    "certificate": (
        certificate_to_json,
        lambda obj, space, done, left: _sub_certificate_from_json(obj, left),
    ),
    "leaf": (
        _leaf_to_json,
        lambda obj, space, done, left: _leaf_from_json(obj),
    ),
}


def link_to_json(link: Link) -> dict:
    link_type = LINK_TYPES.get(type(link))
    if link_type is None:
        raise InputFormatError(f"unknown link type {type(link).__name__}")
    out = {"type": link_type.tag}
    for name, codec in link_type.fields:
        out[name] = FIELD_CODECS[codec][0](getattr(link, name))
    return out


def link_from_json(obj, space: FormSpace, descents: int) -> Link:
    """The link obj encodes; ``descents`` as in certificate_from_json, for space."""
    if not isinstance(obj, dict):
        raise InputFormatError("a link must be an object")
    tag = obj.get("type")
    cls = next((c for c, t in LINK_TYPES.items() if t.tag == tag), None)
    if cls is None:
        raise InputFormatError(f"unknown link type {tag!r}")
    done: dict = {}
    for name, codec in LINK_TYPES[cls].fields:
        done[name] = FIELD_CODECS[codec][1](obj.get(name), space, done, descents)
    return cls(**done)


def report_to_json(report: VerificationReport) -> dict:
    return {
        "ok": report.ok,
        "failures": [
            {"link": f.link, "condition": f.condition, "detail": f.detail}
            for f in report.failures
        ],
    }


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, one newline.

    The text is the one ``json.dumps`` writes with sorted keys and an indent
    of 2, and a newline, for every value whose dict keys are strings, with
    each exact value in it read as its JSON: a ``Fraction`` as its "p" /
    "p/q" string, a ``QuadFieldElement`` as {"D": d, "a": a, "b": b} with
    those strings for a and b, and a ``Matrix`` as the list of its rows of
    such entries.
    """
    out: list[str] = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(obj, nl: str, out: list[str]) -> None:
    """Append obj's canonical text to out; nl is the newline and indent of
    obj's own line, which its items are written one level below."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out += (sep, _quote(key), ": ")
            _emit(obj[key], inner, out)
            sep = "," + inner
        out += (nl, "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _emit(item, inner, out)
            sep = "," + inner
        out += (nl, "]")
    elif isinstance(obj, Matrix):
        _emit_matrix(obj, nl, out)
    elif type(obj) is int:
        out.append(repr(obj))
    elif isinstance(obj, Fraction):
        out += ('"', _ratio_to_json(obj.numerator, obj.denominator), '"')
    elif isinstance(obj, QuadFieldElement):
        _emit({"a": obj.a, "b": obj.b, "D": obj.d}, nl, out)
    else:  # None, bools, floats: the C encoder writes them as the indent one does
        out.append(json.dumps(obj))


def _emit_matrix(m: Matrix, nl: str, out: list[str]) -> None:
    """Append the canonical text of m, as a list of its rows, to out, written
    row by row from m's integer arrays; nl as in _emit."""
    re, im, den, d = m._ints
    if not re:
        out.append("[]")
        return
    inner = nl + "  "
    entry = inner + "  "
    if not m.ncols:
        rows = ["[]"] * len(re)
    elif d is None:
        sep = '",' + entry + '"'
        rows = [
            "[" + entry + '"' + sep.join(
                map(str, r) if q == 1 else [_ratio_to_json(x, q) for x in r]
            ) + '"' + inner + "]"
            for r, q in zip(re, den)
        ]
    else:
        part = entry + "  "
        # one field element {"D", "a", "b"} at this depth, keys sorted
        element = (
            "{" + part + f'"D": {d},' + part + '"a": "%s",' + part + '"b": "%s"'
            + entry + "}"
        )
        sep = "," + entry
        rows = []
        for r, i, q in zip(re, im or [[0] * m.ncols] * len(re), den):
            if q == 1:
                texts = [element % xy for xy in zip(r, i)]
            else:
                texts = [element % (_ratio_to_json(x, q), _ratio_to_json(y, q))
                         for x, y in zip(r, i)]
            rows.append("[" + entry + sep.join(texts) + inner + "]")
    out += ("[", inner, ("," + inner).join(rows), nl, "]")
