"""Canonical JSON encodings for exact values, matrices and reports.

Rationals encode as {"q": "num/den"}; an extension element a + b*t with
t^2 = s encodes as {"a": ..., "b": ..., "min": [p, s]} where p and s are
themselves encoded one level down.  p is the coefficient of t in the
level's defining relation t^2 = p*t + s.  Every level is a square root,
so p is always 0; it is kept only so the format stays stable.
Decoding raises ValueError on a nonzero p, on a radicand s that is 0 or
a square in the field below, and on any other malformed node.  Encoding
then decoding is the identity, and identical inputs produce
byte-identical files (sorted keys, no locale-dependent formatting).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exactfield import (
    TowerDescriptor,
    TowerElement,
    _is_zero,
    _zero,
    field_sqrt,
)
from .intervals import complex_embed

FORMAT_VERSION = "bmhadamard/1"


def _encode_rep(rep, levels, depth):
    if depth == 0:
        return {"q": f"{rep.numerator}/{rep.denominator}"}
    a, b = rep
    return {
        "a": _encode_rep(a, levels, depth - 1),
        "b": _encode_rep(b, levels, depth - 1),
        "min": _encode_level(levels, depth - 1),
    }


def _encode_level(levels, j):
    # [p, s] of t^2 = p*t + s, with p = 0
    return [_encode_rep(_zero(j, Fraction), levels, j),
            _encode_rep(levels[j], levels, j)]


def encode_element(el):
    return _encode_rep(el.rep, el.desc.levels, el.desc.depth)


def _decode_rep(obj):
    if not isinstance(obj, dict):
        raise ValueError(f"element encoding must be an object: {obj!r}")
    if "q" in obj:
        return _decode_rational(obj["q"]), 0, []
    if not {"a", "b", "min"} <= obj.keys():
        raise ValueError('extension node needs "a", "b" and "min"')
    level = obj["min"]
    if not (isinstance(level, list) and len(level) == 2):
        raise ValueError(f'"min" must be a list [p, s]: {level!r}')
    a, da, la = _decode_rep(obj["a"])
    b, db, lb = _decode_rep(obj["b"])
    p, dp, lp = _decode_rep(level[0])
    s, ds, ls = _decode_rep(level[1])
    if not (da == db == dp == ds and la == lb == lp == ls):
        raise ValueError("ragged element encoding")
    if not _is_zero(p):
        raise ValueError("level with nonzero p: only t^2 = s is supported")
    # the same square test as adjoin_radical; 0 is a square too
    if field_sqrt(TowerElement(TowerDescriptor(tuple(ls)), s)) is not None:
        raise ValueError("level radicand is 0 or a square in the field below")
    return (a, b), da + 1, la + [s]


def _decode_rational(text):
    try:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f'malformed rational "q": {text!r}') from exc


def decode_element(obj):
    rep, depth, levels = _decode_rep(obj)
    return TowerElement(TowerDescriptor(tuple(levels)), rep)


def encode_descriptor(desc):
    return [_encode_level(desc.levels, j) for j in range(desc.depth)]


def family_payload(family):
    return {
        "format": FORMAT_VERSION,
        "kind": "weight_family",
        "case": family.case,
        "q": str(family.q),
        "branch": family.branch,
        "r_sign": family.r_sign if family.case == "vi" else None,
        "tower": encode_descriptor(family.desc),
        "weights": [encode_element(w) for w in family.weights],
        "r_value": (encode_element(family.r_value)
                    if family.r_value is not None else None),
    }


def matrix_payload(mat):
    fam = mat.family
    payload = family_payload(fam)
    payload["kind"] = "dense_matrix"
    payload["n"] = mat.scheme.n
    payload["entries"] = [[encode_element(e) for e in row]
                          for row in mat.dense()]
    return payload


def complex_csv(dense, precision=30):
    """CSV of midpoint approximations at the requested precision."""
    lines = []
    for row in dense:
        cells = []
        for e in row:
            z = complex_embed(e, precision)
            m = z.mid()
            cells.append(f"{float(m.real):.{min(precision, 17)}g}"
                         f"{float(m.imag):+.{min(precision, 17)}g}j")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def dump_json(payload):
    return json.dumps(payload, sort_keys=True, indent=1,
                      separators=(",", ": ")) + "\n"


def check_record(check_id, status, witness=None, q_range=None):
    rec = {"check_id": check_id, "status": bool(status)}
    if witness is not None:
        rec["witness"] = witness
    if q_range is not None:
        rec["q_range"] = list(q_range)
    return rec
