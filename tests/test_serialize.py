import json

import pytest

from bmhadamard.exactfield import QQ, TowerElement, adjoin_radical
from bmhadamard.serialize import (
    complex_csv,
    decode_element,
    dump_json,
    encode_element,
    family_payload,
    matrix_payload,
)
from bmhadamard.typeii import TypeIIMatrix, family_coefficients


def test_rational_encoding():
    x = TowerElement.rational(-7) / 8
    assert encode_element(x) == {"q": "-7/8"}
    assert decode_element({"q": "-7/8"}) == x


def test_quadratic_roundtrip():
    d, s = adjoin_radical(QQ, -15)
    x = (TowerElement.rational(-7, d) + s) / 8
    enc = encode_element(x)
    assert enc["a"] == {"q": "-7/8"} and enc["b"] == {"q": "1/8"}
    assert enc["min"] == [{"q": "0/1"}, {"q": "-15/1"}]
    assert decode_element(enc) == x


def test_depth_two_roundtrip():
    d201, s201 = adjoin_radical(QQ, 201)
    z_trace = (TowerElement.rational(53, d201) - 3 * s201) / 10
    dz, root = adjoin_radical(d201, z_trace * z_trace - 4)
    z = (z_trace + root) / 2
    x = z * z - z + 1
    assert decode_element(encode_element(x)) == x


def test_decode_rejects_nonzero_p():
    d, s = adjoin_radical(QQ, -15)
    enc = encode_element((TowerElement.rational(-7, d) + s) / 8)
    enc["min"][0] = {"q": "1/1"}  # t^2 = t - 15
    with pytest.raises(ValueError):
        decode_element(enc)


def depth_one_node(radicand):
    return {"a": {"q": "-2/1"}, "b": {"q": "1/1"},
            "min": [{"q": "0/1"}, {"q": radicand}]}


def depth_two_node_over_its_own_square():
    d, _ = adjoin_radical(QQ, -15)
    one = encode_element(TowerElement.rational(1, d))
    return {"a": one, "b": one,
            "min": [encode_element(TowerElement.rational(0, d)),
                    encode_element(TowerElement.rational(-15, d))]}


@pytest.mark.parametrize("enc", [
    depth_one_node("0/1"),
    depth_one_node("4/1"),
    depth_two_node_over_its_own_square(),
], ids=["zero", "square", "square_one_level_down"])
def test_decode_rejects_degenerate_radicand(enc):
    # such a level is no field: (-2 + t)(2 + t) = t^2 - 4 = 0 for t^2 = 4
    with pytest.raises(ValueError, match="radicand"):
        decode_element(enc)


@pytest.mark.parametrize("enc", [
    {"b": {"q": "1/1"}, "min": [{"q": "0/1"}, {"q": "-15/1"}]},
    {"a": {"q": "1/1"}, "min": [{"q": "0/1"}, {"q": "-15/1"}]},
    {"a": {"q": "1/1"}, "b": {"q": "1/1"}},
    {"a": {"q": "1/1"}, "b": {"q": "1/1"}, "min": [{"q": "-15/1"}]},
    {"a": {"q": "1/1"}, "b": {"q": "1/1"}, "min": {"q": "-15/1"}},
    {"q": "1/0"},
    {"q": "1.5/2"},
    {"q": "x/1"},
    {"q": "1/2/3"},
    {"q": "7"},
    {"q": 7},
    "1/2",
], ids=["no_a", "no_b", "no_min", "min_one_item", "min_not_list",
        "zero_den", "decimal", "letter", "two_slashes", "no_slash",
        "q_not_string", "not_object"])
def test_decode_rejects_malformed_node(enc):
    with pytest.raises(ValueError):
        decode_element(enc)


def test_family_and_matrix_payloads(families_q4):
    fam = families_q4[("vi", 1, 1)]
    pay = family_payload(fam)
    assert pay["case"] == "vi" and len(pay["tower"]) == 2
    assert len(pay["weights"]) == 4
    back = [decode_element(w) for w in pay["weights"]]
    assert back == list(fam.weights)
    mat = matrix_payload(TypeIIMatrix(families_q4[("iv", 1, 1)]))
    assert mat["n"] == 15 and len(mat["entries"]) == 15
    assert decode_element(mat["entries"][0][0]) == TowerElement.rational(
        1, families_q4[("iv", 1, 1)].desc)


def test_dump_is_deterministic(families_q4):
    fam = families_q4[("iii", 1, 1)]
    a = dump_json(family_payload(fam))
    b = dump_json(family_payload(family_coefficients("iii", 4, 1, 1)))
    assert a == b
    json.loads(a)  # well-formed


def test_complex_csv(families_q4):
    mat = TypeIIMatrix(families_q4[("iv", 1, 1)])
    text = complex_csv(mat.dense(), 12)
    lines = text.strip().split("\n")
    assert len(lines) == 15
    first = lines[0].split(",")
    assert len(first) == 15
    assert first[0].startswith("1")
