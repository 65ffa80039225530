"""The memory-order lattice for atomic accesses and fences.

An order is the set of guarantees it gives, as bits: release (1), acquire
(2) and sc (4), where sc comes only with both others.  So ``rlx`` (0) is
the weakest order and ``sc`` (7) the strongest; ``rel`` (1) and ``acq``
(2) are incomparable siblings whose least upper bound, their union, is
``ar`` (3).  The order is inclusion, the weight the number of guarantees,
and sorting by value gives rlx < rel < acq < ar < sc, the tie-break order.
Non-atomic accesses are out of scope, so no ``na`` member exists.
"""

from __future__ import annotations

import enum


class MemoryOrder(enum.Enum):
    RLX = 0
    REL = 1
    ACQ = 2
    AR = 3
    SC = 7

    def __str__(self) -> str:
        return self.name.lower()

    @property
    def weight(self) -> int:
        """Synthesis cost: rel/acq cost 1, ar costs 2, sc costs 3."""
        return self.value.bit_count()

    @property
    def at_least_release(self) -> bool:
        return bool(self.value & 1)

    @property
    def at_least_acquire(self) -> bool:
        return bool(self.value & 2)

    def weaker_than(self, other: "MemoryOrder") -> bool:
        """Strictly weaker in the partial order (rel and acq are incomparable)."""
        return self is not other and self.value & ~other.value == 0


ORDER_NAMES = {str(m): m for m in MemoryOrder}


def lub(a: MemoryOrder | None, b: MemoryOrder | None) -> MemoryOrder:
    """Least upper bound in the lattice; lub(rel, acq) = ar.

    ``None`` acts as the identity so folds can start from an empty slot.
    """
    if a is None and b is None:
        raise ValueError("lub of nothing")
    return MemoryOrder((a.value if a else 0) | (b.value if b else 0))
