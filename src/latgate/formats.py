"""JSON documents: Gram matrices, manifold descriptors, and reports.

A Gram document is {"rank": n, "gram": [[...], ...]} with plain integer
entries.  A manifold document is {"b1": b1, "form": <Gram document>}.
Emitted reports carry "format": 1 and are serialized canonically, so equal
reports are byte-identical: `dumps_canonical` writes exactly the bytes of
`json.dumps(obj, indent=2, sort_keys=True)` plus a newline.  It writes them
directly, because with `indent` set `json.dumps` skips the C encoder and
yields once per integer, and most lines of a report are Gram matrix
entries.  A list or tuple of plain ints (a Gram row, a vector) is written
with one `%`-format call; every other value takes json's own type tests in
json's order, and floats and values json rejects go to `json.dumps`, so
NaN, infinities, int and float subclasses and the `TypeError` for an
unserializable object are json's own.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any

from .core import GramMatrix
from .errors import BadShapeError, ParseError

if TYPE_CHECKING:  # for annotations: `manifold_from_obj` imports manifold when it runs
    from .manifold import ManifoldDescriptor, ModuliReport

__all__ = [
    "REPORT_FORMAT",
    "gram_to_obj",
    "gram_from_obj",
    "load_gram",
    "manifold_from_obj",
    "load_manifold",
    "moduli_report_to_obj",
    "dumps_canonical",
]

REPORT_FORMAT = 1


def gram_to_obj(gram: GramMatrix) -> dict:
    return {"rank": gram.rank, "gram": [list(row) for row in gram.entries]}


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def gram_from_obj(obj: Any) -> GramMatrix:
    if not isinstance(obj, dict):
        raise ParseError(f"Gram document must be a JSON object, got {type(obj).__name__}")
    missing = {"rank", "gram"} - obj.keys()
    if missing:
        raise ParseError(f"Gram document is missing field(s): {', '.join(sorted(missing))}")
    rank = _require_int(obj["rank"], "field 'rank'")
    rows = obj["gram"]
    if not isinstance(rows, list):
        raise ParseError(f"field 'gram': expected a list of rows, got {type(rows).__name__}")
    if len(rows) != rank:
        raise BadShapeError(f"field 'gram': expected {rank} rows, got {len(rows)}")
    entries = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ParseError(f"field 'gram' row {i}: expected a list")
        if len(row) != rank:
            raise BadShapeError(f"field 'gram' row {i}: expected {rank} entries, got {len(row)}")
        if not set(map(type, row)) <= {int}:  # find and name the first bad entry
            for j, x in enumerate(row):
                _require_int(x, f"field 'gram' entry ({i},{j})")
        entries.append(tuple(row))
    return GramMatrix.from_rows(entries)


def _is_inline(text: str) -> bool:
    """Text whose first non-blank character is '{' is an inline JSON document;
    anything else names a file."""
    return text.lstrip().startswith("{")


def _read_source(source: str | os.PathLike) -> str:
    """The document `source` holds inline (`_is_inline`) or names as a path."""
    if not isinstance(source, os.PathLike):
        text = str(source)
        if _is_inline(text):
            return text
        source = text
    try:
        with open(source, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {str(source)!r}: {exc.strerror or exc}") from exc


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def load_gram(source: str | os.PathLike) -> GramMatrix:
    """Load a Gram document from a file path or inline JSON text."""
    return gram_from_obj(_loads(_read_source(source)))


def manifold_from_obj(obj: Any) -> ManifoldDescriptor:
    from .manifold import ManifoldDescriptor

    if not isinstance(obj, dict):
        raise ParseError(f"manifold document must be a JSON object, got {type(obj).__name__}")
    missing = {"b1", "form"} - obj.keys()
    if missing:
        raise ParseError(f"manifold document is missing field(s): {', '.join(sorted(missing))}")
    b1 = _require_int(obj["b1"], "field 'b1'")
    return ManifoldDescriptor(b1=b1, form=gram_from_obj(obj["form"]))


def load_manifold(source: str | os.PathLike) -> ManifoldDescriptor:
    return manifold_from_obj(_loads(_read_source(source)))


def moduli_report_to_obj(report: ModuliReport, descriptor: ManifoldDescriptor) -> dict:
    bundle = None
    if report.line_bundle is not None:
        src = report.line_bundle.source
        bundle = {
            "c1_squared": report.line_bundle.c1_squared,
            "k": report.line_bundle.k,
            "char_minimizer": list(src.minimizer),
            "char_norm": src.norm_m,
            "count_minimizers": src.count_minimizers,
        }
    certificates = []
    for cert in report.surgery_certificates:
        certificates.append({
            "b1_before": cert.b1_before,
            "b1_after": cert.b1_after,
            "b2": cert.b2,
            "rank_preserved": cert.rank_preserved,
            "sequences": [
                {
                    "name": seq.name,
                    "terms": [[label, rank] for label, rank in seq.terms],
                    "alternating_sum": seq.alternating_sum,
                }
                for seq in cert.sequences
            ],
        })
    return {
        "format": REPORT_FORMAT,
        "manifold": {"b1": descriptor.b1, "form": gram_to_obj(descriptor.form)},
        "verdict": report.verdict.value,
        "reason": report.reason,
        "k": report.k,
        "virtual_dim": report.virtual_dim,
        "based_dim": report.based_dim,
        "boundary": report.boundary,
        "sw_number_nonzero": report.sw_number_nonzero,
        "line_bundle": bundle,
        "surgery_certificates": certificates,
    }


def dumps_canonical(obj: Any) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, written directly
    with each list of plain ints formatted in one call.  `obj` must be
    acyclic: a cycle raises `RecursionError`, not json's `ValueError`."""
    return _dump(obj, "\n") + "\n"


def _dump(obj: Any, newline: str) -> str:
    """`obj` as json writes it at the indent that `newline` ("\\n" plus the
    enclosing indent) sets."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        items = tuple(obj)
        if set(map(type, items)) == {int}:
            return ("[" + inner + ("," + inner).join(["%d"] * len(items)) + newline + "]") % items
        return "[" + inner + ("," + inner).join([_dump(x, inner) for x in items]) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(_key(key)) + ": " + _dump(value, inner)
            for key, value in sorted(obj.items())
        ]) + newline + "}"
    return json.dumps(obj)  # a float, or json's TypeError


def _key(key: Any) -> str:
    """A dict key as the string json writes for it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return json.dumps(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
