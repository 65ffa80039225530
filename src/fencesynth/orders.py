"""The memory-order lattice for atomic accesses and fences.

``rlx`` is the weakest order, ``sc`` the strongest; ``rel`` and ``acq`` are
incomparable siblings whose least upper bound is ``ar``.  Non-atomic
accesses are out of scope, so no ``na`` member exists.
"""

from __future__ import annotations

import enum


class MemoryOrder(enum.Enum):
    RLX = "rlx"
    REL = "rel"
    ACQ = "acq"
    AR = "ar"
    SC = "sc"

    def __str__(self) -> str:
        return self.value

    @property
    def rank(self) -> int:
        """Canonical index used only for deterministic tie-breaking."""
        return _RANK[self]

    @property
    def weight(self) -> int:
        """Synthesis cost: rel/acq cost 1, ar costs 2, sc costs 3."""
        return _WEIGHT[self]

    @property
    def at_least_release(self) -> bool:
        return self in (MemoryOrder.REL, MemoryOrder.AR, MemoryOrder.SC)

    @property
    def at_least_acquire(self) -> bool:
        return self in (MemoryOrder.ACQ, MemoryOrder.AR, MemoryOrder.SC)

    def weaker_than(self, other: "MemoryOrder") -> bool:
        """Strictly weaker in the partial order (rel and acq are incomparable)."""
        return other in _STRONGER[self]


_RANK = {
    MemoryOrder.RLX: 0,
    MemoryOrder.REL: 1,
    MemoryOrder.ACQ: 2,
    MemoryOrder.AR: 3,
    MemoryOrder.SC: 4,
}

_WEIGHT = {
    MemoryOrder.RLX: 0,
    MemoryOrder.REL: 1,
    MemoryOrder.ACQ: 1,
    MemoryOrder.AR: 2,
    MemoryOrder.SC: 3,
}

_STRONGER = {
    MemoryOrder.RLX: {MemoryOrder.REL, MemoryOrder.ACQ, MemoryOrder.AR, MemoryOrder.SC},
    MemoryOrder.REL: {MemoryOrder.AR, MemoryOrder.SC},
    MemoryOrder.ACQ: {MemoryOrder.AR, MemoryOrder.SC},
    MemoryOrder.AR: {MemoryOrder.SC},
    MemoryOrder.SC: set(),
}

ORDER_NAMES = {m.value: m for m in MemoryOrder}


def lub(a: MemoryOrder | None, b: MemoryOrder | None) -> MemoryOrder:
    """Least upper bound in the lattice; lub(rel, acq) = ar.

    ``None`` acts as the identity so folds can start from an empty slot.
    """
    if a is None:
        if b is None:
            raise ValueError("lub of nothing")
        return b
    if b is None:
        return a
    if a is b or b.weaker_than(a):
        return a
    if a.weaker_than(b):
        return b
    # The only incomparable pair is {rel, acq}.
    return MemoryOrder.AR
