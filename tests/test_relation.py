"""Relation algebra, and the bitmask closure behind hb, against naive
set-comprehension oracles."""

from hypothesis import given, strategies as st

from fencesynth.model import Relation
from fencesynth.relations import _closure, _from_rows

pairs = st.sets(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20
)


def naive_compose(r1, r2):
    return {(a, c) for a, b in r1 for b2, c in r2 if b == b2}


def naive_closure(r):
    out = set(r)
    while True:
        new = out | naive_compose(out, out)
        if new == out:
            return out
        out = new


def test_compose_definition():
    assert Relation({(1, 2)}).compose(Relation({(2, 3)})) == Relation({(1, 3)})


def test_compose_empty_absorbs():
    assert Relation({(1, 2), (3, 4)}).compose(Relation()) == Relation()


@given(pairs, pairs)
def test_compose_matches_oracle(r1, r2):
    assert Relation(r1).compose(Relation(r2)).pairs == frozenset(naive_compose(r1, r2))


@given(pairs)
def test_inverse_matches_oracle(r):
    assert Relation(r).inverse().pairs == frozenset((b, a) for a, b in r)


def rows(r):
    # Every vertex gets a row, as every event does in compute_hb_info.
    out = dict.fromkeys(range(8), 0)
    for a, b in r:
        out[a] |= 1 << b
    return out


@given(pairs)
def test_closure_matches_oracle(r):
    assert _from_rows(_closure(rows(r))).pairs == frozenset(naive_closure(r))


@given(pairs)
def test_closure_idempotent(r):
    once = _closure(rows(r))
    assert _closure(once) == once


@given(pairs, pairs)
def test_union(r1, r2):
    assert (Relation(r1) | Relation(r2)).pairs == frozenset(r1 | r2)
