"""Derived C11 relations, and the one statement of each C11 axiom that
the consistency check (``enumerator``) and the fence analyses (``cycles``)
both read: hb, the coherence compositions and the sc clauses.

All functions are pure over immutable traces and accept either a plain
execution or an intermediate one: a ``Trace`` whose candidate fences are
spliced into sb (see ``cycles.insert_candidate_fences``).  Each relation
is read and returned as bitmask rows, one int per event id (see
``model``).  sw holds the release-sequence case too, as in C11 and RC11,
and the axioms are evaluated on hb = (sb ∪ sw)+.

hb is a witness-free closure of those rows.  On an intermediate
trace, the fence analyses also need to know which fences each pair relies
on: ``role_closure`` closes the sb and sw steps over antichains of
⊆-minimal candidate-fence role masks, and ``compute_so_info`` carries
them through the sc clauses, giving each so edge the masks of the fences
it relies on, its candidate ends included.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InternalCheckError
from .limits import Limits
from .model import Event


def release_sequence(tr, w: Event) -> list[Event]:
    """Maximal contiguous mo-subsequence from ``w``: writes of w's thread
    plus rmws of other threads."""
    if not w.is_write:
        raise InternalCheckError("release sequence requested from %s" % w)
    chain = tr.mo_chains[w.obj]
    pos = chain.index(w.id)
    out = [w]
    for eid in chain[pos + 1 :]:
        e = tr.event(eid)
        if e.thr == w.thr or e.act == "rmw":
            out.append(e)
        else:
            break
    return out


def derive_sync(tr) -> dict[int, int]:
    """sw, with its fence and release-sequence cases.

    For each rf edge (w, r), the release sources of w synchronize with the
    acquire sinks of r.  The sources are the heads of w's release sequences
    (each release write whose release sequence holds w, w itself if it is
    release) and the release fences sequenced before w.  The sinks are r
    if it is acquire and the acquire fences sequenced after r.  RC11's
    release sequence from a fence ([F];po;rs) is not modelled.
    """
    sb = tr.sb
    sources: dict[int, list[int]] = {}
    for e in tr.events:
        if e.is_write and e.ord.at_least_release:
            for member in release_sequence(tr, e):
                sources.setdefault(member.id, []).append(e.id)
        elif e.is_fence and e.ord.at_least_release:
            for b in _bits(sb[e.id]):
                sources.setdefault(b, []).append(e.id)
    sw = dict.fromkeys(sb, 0)
    if not sources:
        return sw
    acq_fences = sum(1 << f.id for f in tr.fences if f.ord.at_least_acquire)
    acq_reads = sum(1 << e.id for e in tr.events if e.is_read and e.ord.at_least_acquire)
    for w, heads in sources.items():
        sinks = tr.rf[w] & acq_reads
        for r in _bits(tr.rf[w]):
            sinks |= sb[r] & acq_fences
        for a in heads:
            sw[a] |= sinks
    return sw


def compute_hb_info(tr) -> tuple[dict[int, int], dict[int, int]]:
    """sw and hb = (sb ∪ sw)+ of a trace.

    Only plain executions need these: the fence analyses of an
    intermediate trace close the same steps in ``role_closure``.
    """
    sw = derive_sync(tr)
    return sw, _closure({a: row | sw[a] for a, row in tr.sb.items()})


def _closure(rows: dict[int, int]) -> dict[int, int]:
    """Transitive closure of bitmask rows: each row grows by the rows of
    its members, and of the members those add, until none is new."""
    out = dict(rows)
    for a, row in out.items():
        todo = row
        while todo:
            low = todo & -todo
            todo ^= low
            new = out[low.bit_length() - 1] & ~row
            row |= new
            todo |= new
        out[a] = row
    return out


def _bits(row: int) -> Iterator[int]:
    """The members of a bitmask row, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def compute_fr(tr) -> dict[int, int]:
    """from-reads: rf⁻¹;mo, minus reflexive pairs.  Each read r is paired
    with every write mo-after its source, other than r itself (an rmw
    comes after its own source)."""
    fr = dict.fromkeys(tr.rf, 0)
    for w, readers in tr.rf.items():
        for r in _bits(readers):
            fr[r] = tr.mo[w] & ~(1 << r)
    return fr


# ---------------------------------------------------------------------------
# The axioms: coherence compositions and the clauses of the forced sc order

# The coherence conditions, in the order of their compositions.
COHERENCE = ("co-h", "co-rh", "co-mh", "co-mrh", "co-mhi", "co-mrhi")


def coherence_shapes(tr) -> Iterator[tuple[str, int, int]]:
    """Each coherence composition over distinct events, as its condition,
    the first end a of its one hb edge and the bitmask of its second ends
    b.  The composition is reflexive iff hb row a meets that mask:

        co-h     hb                 co-mrh   mo;rf;hb
        co-rh    rf;hb              co-mhi   mo;hb;rf⁻¹
        co-mh    mo;hb              co-mrhi  mo;rf;hb;rf⁻¹

    A composition that repeats an event is left out: it is reflexive only
    when hb is (co-h), when rf;hb is (co-rh), or when an rmw reads from an
    mo-later write, which rmw atomicity excludes.
    """
    rf = tr.rf
    before = dict.fromkeys(rf, 0)  # row b: the mo-predecessors of b
    seen = dict.fromkeys(rf, 0)  # row b: the readers of those
    for a, later in tr.mo.items():
        for b in _bits(later):
            before[b] |= 1 << a
            seen[b] |= rf[a]
    for b, readers in rf.items():
        yield "co-h", b, 1 << b
        yield "co-mh", b, before[b]
        yield "co-mhi", b, seen[b] & ~(1 << b)
        for c in _bits(readers):
            yield "co-rh", c, 1 << b
            yield "co-mrh", c, before[b] & ~(1 << c)
            # c != a drops c's own readers: rf rows are disjoint, as a
            # read has one source.
            yield "co-mrhi", c, seen[b] & ~rf[c] & ~(1 << b)


def sc_clauses(tr) -> dict[int, int]:
    """Row x: the bitmask of the y of each (x, y) in heads(a) × tails(b) for
    a pair (a, b) of mo ∪ rf ∪ fr; heads(a) is a if sc plus the sc fences
    sb-before a, tails(b) is b if sc plus the sc fences sb-after b.

    S must contain each: in such a pair b may not come first, and
    - (a, b), both sc: S agrees with mo, and an sc read sees the last sc
      write before it.  The fr pair (r, c) is left out where the sc read
      r, not an rmw, reads a write w neither sc nor init: C11 lets r
      follow c when w does not happen before c.  An init write happens
      before every sc write, so a read of one keeps its pairs;
    - (a, F): after an sc fence F sb-after b, a read sees b or a later
      write, and a write is mo-after b;
    - (F, b): before an sc fence F sb-before a, b would be seen or
      overwritten by a;
    - (F1, F2): fences around a and b the other way would do the same.
    The rf clauses are in hb too: sc accesses and sc fences are release
    and acquire, so ``derive_sync`` puts each in sw.
    """
    sc = sum(1 << e.id for e in tr.sc_events)
    sc_fences = sum(1 << e.id for e in tr.sc_events if e.is_fence)
    heads = {a: sc & 1 << a for a in tr.sb}
    tails = {a: sc & 1 << a | row & sc_fences for a, row in tr.sb.items()}
    for f in _bits(sc_fences):
        for b in _bits(tr.sb[f]):
            heads[b] |= 1 << f

    # An sc read of a source neither sc nor init keeps only its fence pairs.
    loose = 0
    for w, readers in tr.rf.items():
        if not sc >> w & 1 and not tr.event(w).is_init:
            loose |= sum(1 << r for r in _bits(readers & sc) if tr.event(r).act == "read")
    rows = dict.fromkeys(heads, 0)  # row x: the y of each (x, a) ; (a, b) ; (b, y)
    for a, head in heads.items():
        if head:
            reach = 0
            for b in _bits(tr.mo[a] | tr.rf[a] | tr.fr[a]):
                reach |= tails[b]
            for x in _bits(head):
                rows[x] |= reach & sc_fences if loose >> x & 1 else reach
    return rows


# ---------------------------------------------------------------------------
# Minimal fence sets: hb paths and the forced sc order over mask antichains
#
# Fence i of ``fence_order`` owns two bits of a mask: 2i, its in (acquire)
# role, and 2i+1, its out (release) role.  The masks of the paths between
# two events form an antichain of ⊆-minimal masks: union of antichains
# (keeping the minimal elements) is addition, the pairwise OR is
# multiplication, and the empty mask is the unit.  Going around a cycle only
# adds bits, so a closure needs no star and a Floyd–Warshall pivot loop
# computes it.

_IN, _OUT = 1, 2  # a fence's two bits, shifted to its position in a mask
_FREE = (0,)  # the antichain of a pair that needs no fence


def fence_order(tr) -> tuple[int, ...]:
    """The candidate fences of a trace, in the order that numbers their bits.

    A program fence gets no bits: ``derive_sync`` lets it play only the
    roles its own order supports, so a path through it asks for nothing.
    """
    return tuple(e.id for e in tr.fence_events)


def _minimal(masks: Iterable[int]) -> tuple[int, ...]:
    """The ⊆-minimal masks, fewest bits first."""
    masks = set(masks)
    if len(masks) == 1 or 0 in masks:
        return (min(masks),)
    out: list[int] = []
    for m in sorted(masks, key=lambda m: (m.bit_count(), m)):
        if not any(k & m == k for k in out):
            out.append(m)
    return tuple(out)


def _times(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The minimal masks of a path through a step of ``a`` then one of ``b``."""
    if a == _FREE:
        return b
    if b == _FREE:
        return a
    return _minimal(x | y for x in a for y in b)


def close_masks(rows: dict[int, dict[int, tuple[int, ...]]], limits: Limits) -> None:
    """Close the step antichains in ``rows`` (row a, column b) under path
    composition, in place.  Every endpoint needs a row.  The deadline is
    checked once per pivot."""
    for k, row_k in rows.items():
        limits.check_time("cycle-detection")
        if not row_k:
            continue
        row_k = list(row_k.items())
        for row_i in rows.values():
            via = row_i.get(k)
            if via is None:
                continue
            for j, after in row_k:
                cur = row_i.get(j)
                if cur == _FREE:
                    continue
                new = _times(via, after)
                if cur is None:
                    row_i[j] = new
                elif not all(any(c & n == c for c in cur) for n in new):
                    row_i[j] = _minimal(cur + new)


def role_closure(it, limits: Limits | None = None) -> dict[int, dict[int, tuple[int, ...]]]:
    """Row a, column b: the minimal role masks of the hb paths from a to b.

    An sb step needs no role; an sw(a, b) step needs out(a) and in(b) of
    whichever ends are candidate fences.  The support is exactly hb, and
    every bit of a mask is a candidate fence that entered through an sw
    endpoint, so it plays that role.
    """
    fence_bit = {f: 2 * i for i, f in enumerate(fence_order(it))}

    def bits(e: int, role: int) -> int:
        return role << fence_bit[e] if e in fence_bit else 0

    rows = {e.id: dict.fromkeys(_bits(it.sb[e.id]), _FREE) for e in it.events}
    for a, row in derive_sync(it).items():
        for b in _bits(row):
            rows[a].setdefault(b, (bits(a, _OUT) | bits(b, _IN),))
    close_masks(rows, limits or Limits())
    return rows


def compute_so_info(it) -> dict[int, dict[int, tuple[int, ...]]]:
    """The sc-order relation of an intermediate trace: row a, column b, the
    ⊆-minimal sets of candidate fences the so edge (a, b) relies on, as
    masks where fence i of ``fence_order`` is bit 2i, its in bit.

    The clauses of ``sc_clauses`` are applied to every pair of hb ∪ mo ∪
    rf ∪ fr.  sc pairs with no forced order stay unordered: the analysis
    reads forced pairs only, not the bans of ``exists_sc_total_order``.
    Every edge relies on its ends, where they are candidates; an mo, rf or
    fr pair relies on nothing else, and a pair of hb also on the fences of
    its role masks.

    The three fence clauses add nothing for an hb pair: sb ⊆ hb, so the
    pair they would add is itself in hb, by paths that need no more
    fences, and the first clause adds it.  So only sc pairs of hb
    are added to the fence-free rows.
    """
    sc = sum(1 << e.id for e in it.sc_events)
    free = sc_clauses(it)

    bit = {f: 1 << 2 * i for i, f in enumerate(fence_order(it))}
    ins = sum(bit.values())
    deps: dict[int, dict[int, tuple[int, ...]]] = {a: {} for a in free}
    for a in _bits(sc):
        for b, masks in it.role_closure()[a].items():
            if sc >> b & 1 and not free[a] >> b & 1:
                ends = bit.get(a, 0) | bit.get(b, 0)
                deps[a][b] = _minimal((m | m >> 1) & ins | ends for m in masks)
    for x, row in free.items():
        for y in _bits(row):
            deps[x][y] = (bit.get(x, 0) | bit.get(y, 0),)
    return deps
