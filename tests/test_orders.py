"""The memory-order lattice: comparisons, weights, least upper bounds."""

import itertools

from fencesynth.orders import MemoryOrder as O
from fencesynth.orders import ORDER_NAMES, lub


def test_weaker_chain():
    assert O.RLX.weaker_than(O.REL)
    assert O.RLX.weaker_than(O.ACQ)
    assert O.REL.weaker_than(O.AR)
    assert O.ACQ.weaker_than(O.AR)
    assert O.AR.weaker_than(O.SC)
    assert O.RLX.weaker_than(O.SC)


def test_rel_acq_incomparable():
    assert not O.REL.weaker_than(O.ACQ)
    assert not O.ACQ.weaker_than(O.REL)


def test_capabilities():
    assert {m for m in O if m.at_least_release} == {O.REL, O.AR, O.SC}
    assert {m for m in O if m.at_least_acquire} == {O.ACQ, O.AR, O.SC}


def test_weights():
    assert O.REL.weight == 1
    assert O.ACQ.weight == 1
    assert O.AR.weight == 2
    assert O.SC.weight == 3


def test_lub_examples():
    assert lub(O.REL, O.ACQ) is O.AR
    assert lub(O.ACQ, O.REL) is O.AR
    assert lub(O.REL, O.SC) is O.SC
    assert lub(None, O.REL) is O.REL
    for m in O:
        assert lub(m, m) is m


def test_lub_is_least_upper_bound():
    # Exhaustive over the five-element lattice: the lub is an upper bound
    # and no strictly smaller upper bound exists.
    def at_most(a, b):
        return a is b or a.weaker_than(b)

    for a, b in itertools.product(O, repeat=2):
        j = lub(a, b)
        assert at_most(a, j) and at_most(b, j)
        for c in O:
            if at_most(a, c) and at_most(b, c):
                assert at_most(j, c)


def test_sorting_by_value_is_the_tie_break_order():
    # rel before acq decides rel/acq ties in the optimizer's selection key
    # and in the canonical order of solution lists.
    assert sorted(O, key=lambda m: m.value) == [O.RLX, O.REL, O.ACQ, O.AR, O.SC]


def test_order_names_round_trip():
    assert [str(m) for m in O] == ["rlx", "rel", "acq", "ar", "sc"]
    for m in O:
        assert ORDER_NAMES[str(m)] is m
