import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmoves.errors import GraphError
from graphmoves.multiplicity import Mult, OMEGA, ONE, ZERO, msum

SCALE = [Mult(n) for n in range(11)] + [OMEGA]


def as_ext(m: Mult):
    # order-isomorphic embedding into floats for the oracle
    return float("inf") if m.is_omega else m.n


def test_addition_table_exhaustive():
    for a in SCALE:
        for b in SCALE:
            got = a + b
            want = as_ext(a) + as_ext(b)
            assert as_ext(got) == want, (a, b)


def test_multiplication_table_exhaustive():
    # 0 * omega = 0 is the one non-obvious cell
    for a in SCALE:
        for b in SCALE:
            got = a * b
            if as_ext(a) == 0 or as_ext(b) == 0:
                assert got == ZERO, (a, b)
            else:
                assert as_ext(got) == as_ext(a) * as_ext(b), (a, b)


def test_order_table_exhaustive():
    for a in SCALE:
        for b in SCALE:
            assert (a <= b) == (as_ext(a) <= as_ext(b))
            assert (a < b) == (as_ext(a) < as_ext(b))


def test_constants():
    assert ZERO == Mult(0)
    assert ONE == Mult(1)
    assert OMEGA.is_omega
    assert not Mult(7).is_omega


def test_negative_rejected():
    with pytest.raises(GraphError) as err:
        Mult(-1)
    assert err.value.code == "PARSE_ERROR"


def test_json_round_trip():
    for m in SCALE:
        assert Mult.from_json(m.to_json()) == m
    assert OMEGA.to_json() == "inf"
    assert json.dumps(OMEGA.to_json()) == '"inf"'


def test_json_rejects_garbage():
    for bad in ("infinity", -3, 1.5, None, "3"):
        with pytest.raises(GraphError):
            Mult.from_json(bad)


def test_msum():
    assert msum([]) == ZERO
    assert msum([ONE, Mult(2), Mult(3)]) == Mult(6)
    assert msum([ONE, OMEGA]).is_omega


small = st.integers(min_value=0, max_value=30)
mults = st.one_of(small.map(Mult), st.just(OMEGA))


@settings(max_examples=200, derandomize=True)
@given(mults, mults, mults)
def test_semiring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a * ZERO == ZERO


@settings(max_examples=200, derandomize=True)
@given(mults, mults)
def test_order_total_and_compatible(a, b):
    assert (a <= b) or (b <= a)
    if a <= b:
        assert a + ONE <= b + ONE
        assert a * Mult(2) <= b * Mult(2)
