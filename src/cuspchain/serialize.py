"""Canonical JSON input/output for every public data type.

Rationals serialize as reduced strings "p/q" (or "p" when q = 1); elements
of Q(sqrt(-D)) as {"a": "p/q", "b": "p/q", "D": n}.  Emission sorts keys and
uses a fixed layout, so equal values produce byte-identical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .chains import (
    LINK_TYPES,
    ChainCertificate,
    Failure,
    Link,
    ManinDrinfeldLeaf,
    VerificationReport,
)
from .errors import InputFormatError
from .exact import Matrix, QuadFieldElement
from .forms import HERMITIAN, KINDS, FormSpace, Subspace

CERTIFICATE_FORMAT = 1


def fraction_to_json(q: Fraction | int) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def scalar_to_json(x) -> Any:
    if isinstance(x, QuadFieldElement):
        return {
            "a": fraction_to_json(x.a),
            "b": fraction_to_json(x.b),
            "D": x.d,
        }
    return fraction_to_json(x)


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
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad rational {obj!r}") from exc
    raise InputFormatError(f"bad rational {obj!r}")


def matrix_to_json(m: Matrix) -> list:
    return [[scalar_to_json(x) for x in row] for row in m.rows]


def matrix_from_json(obj, ncols: int | None = None) -> Matrix:
    if not isinstance(obj, list) or any(not isinstance(r, list) for r in obj):
        raise InputFormatError("a matrix must be a list of rows")
    rows = [[scalar_from_json(x) for x in r] for r in obj]
    try:
        return Matrix(rows, ncols=ncols if not rows else None)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def vector_to_json(v) -> list:
    return [scalar_to_json(x) for x in v]


def vector_from_json(obj) -> tuple:
    if not isinstance(obj, list):
        raise InputFormatError("a vector must be a list of entries")
    return tuple(scalar_from_json(x) for x in obj)


def form_space_to_json(space: FormSpace) -> dict:
    out = {"kind": space.kind, "gram": matrix_to_json(space.gram)}
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
    return {"basis": matrix_to_json(s.basis)}


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


def certificate_from_json(obj) -> ChainCertificate:
    if not isinstance(obj, dict):
        raise InputFormatError("a certificate must be an object")
    if obj.get("format") != CERTIFICATE_FORMAT:
        raise InputFormatError(
            f"unsupported certificate format {obj.get('format')!r}"
        )
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise InputFormatError("certificate kind must be a string")
    space = form_space_from_json(obj.get("ambient"))
    nodes = obj.get("nodes")
    links = obj.get("links")
    if not isinstance(nodes, list) or not isinstance(links, list):
        raise InputFormatError("certificate nodes and links must be lists")
    return ChainCertificate(
        ambient=space,
        kind=kind,
        nodes=tuple(subspace_from_json(n, space) for n in nodes),
        links=tuple(link_from_json(l, space) for l in links),
    )


# Link field codecs by the names ``chains.LINK_TYPES`` declares: an encoder,
# and a decoder of (JSON value, ambient space, fields decoded so far).
FIELD_CODECS = {
    "subspace": (subspace_to_json, lambda obj, space, done: subspace_from_json(obj, space)),
    "ambient_matrix": (
        matrix_to_json,
        lambda obj, space, done: matrix_from_json(obj, ncols=space.dim),
    ),
    "quotient_matrix": (
        matrix_to_json,
        lambda obj, space, done: matrix_from_json(obj, ncols=done["sub"].ambient.dim),
    ),
    "vector": (vector_to_json, lambda obj, space, done: vector_from_json(obj)),
    "certificate": (certificate_to_json, lambda obj, space, done: certificate_from_json(obj)),
    "leaf": (_leaf_to_json, lambda obj, space, done: _leaf_from_json(obj)),
}


def link_to_json(link: Link) -> dict:
    link_type = LINK_TYPES.get(type(link))
    if link_type is None:
        raise InputFormatError(f"unknown link type {type(link).__name__}")
    out = {"type": link_type.tag}
    for name, codec in link_type.fields:
        out[name] = FIELD_CODECS[codec][0](getattr(link, name))
    return out


def link_from_json(obj, space: FormSpace) -> Link:
    if not isinstance(obj, dict):
        raise InputFormatError("a link must be an object")
    tag = obj.get("type")
    cls = next((c for c, t in LINK_TYPES.items() if t.tag == tag), None)
    if cls is None:
        raise InputFormatError(f"unknown link type {tag!r}")
    done: dict = {}
    for name, codec in LINK_TYPES[cls].fields:
        done[name] = FIELD_CODECS[codec][1](obj.get(name), space, done)
    return cls(**done)


def report_to_json(report: VerificationReport) -> dict:
    return {
        "ok": report.ok,
        "failures": [
            {"link": f.link, "condition": f.condition, "detail": f.detail}
            for f in report.failures
        ],
    }


def report_from_json(obj) -> VerificationReport:
    if not isinstance(obj, dict) or not isinstance(obj.get("failures"), list):
        raise InputFormatError("a report must be an object with failures")
    failures = tuple(
        Failure(int(f["link"]), str(f["condition"]), str(f["detail"]))
        for f in obj["failures"]
    )
    return VerificationReport(ok=bool(obj.get("ok")), failures=failures)


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, one newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
