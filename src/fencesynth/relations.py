"""Derived C11 relations, and the one statement of each C11 axiom that
the consistency check (``enumerator``) and the fence analyses (``cycles``)
both read: hb, the coherence compositions and the sc clauses.

All functions are pure over immutable traces and accept either a plain
execution or an intermediate one: a ``Trace`` whose candidate fences are
spliced into sb (see ``cycles.insert_candidate_fences``).  Each relation
is a frozenset of (a, b) event-id pairs (``model.Relation``).  The axioms
are evaluated on hb_closed = (sb ∪ sw ∪ dob)+.  The README's inter-thread
happens-before, the least fixpoint of

    sw ⊆ ithb;  dob ⊆ ithb;  sw;sb ⊆ ithb;  sb;ithb ⊆ ithb;  ithb;ithb ⊆ ithb

with hb = sb ∪ ithb, has the same closure: each ithb step is a path of
sb, sw and dob edges, each of which is in hb.  ``compute_ithb`` keeps that
fixpoint for ``--emit-traces``.

hb is a witness-free fixpoint over per-event bitmasks.  On an intermediate
trace, the fence analyses also need to know which fences each pair relies
on: ``role_closure`` closes the sb/sw/dob steps over antichains of
⊆-minimal candidate-fence role masks, and ``compute_so_info`` carries
them through the sc clauses, giving each so edge the masks of the fences
it relies on, its candidate ends included.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InternalCheckError
from .limits import Limits
from .model import Event, Relation


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


def derive_sync(tr) -> tuple[Relation, Relation]:
    """The sw and dob relations, including the fence-induced cases.

    For each rf edge (w, r): a release-capable w synchronizes with an
    acquire-capable r directly, with an acquire fence sequenced after r,
    from a release fence sequenced before w, or fence to fence.  dob lifts
    the same two acquire-side cases to the release-sequence head of w.
    """
    rel_fences = {f.id for f in tr.fences if f.ord.at_least_release}
    acq_fences = {f.id for f in tr.fences if f.ord.at_least_acquire}
    acq_after: dict[int, list[int]] = {}
    rel_before: dict[int, list[int]] = {}
    for a, b in tr.sb:
        if b in acq_fences:
            acq_after.setdefault(a, []).append(b)
        if a in rel_fences:
            rel_before.setdefault(b, []).append(a)
    sw: set[tuple[int, int]] = set()
    dob: set[tuple[int, int]] = set()

    heads = [w for w in tr.writes if w.ord.at_least_release and not w.is_init]
    in_release_seq: dict[int, list[int]] = {}
    for head in heads:
        for member in release_sequence(tr, head):
            in_release_seq.setdefault(member.id, []).append(head.id)

    for w_id, r_id in tr.rf:
        w_rel = tr.event(w_id).ord.at_least_release
        r_acq = tr.event(r_id).ord.at_least_acquire
        acq_after_r = acq_after.get(r_id, ())
        rel_before_w = rel_before.get(w_id, ())
        if w_rel:
            if r_acq:
                sw.add((w_id, r_id))
            for f in acq_after_r:
                sw.add((w_id, f))
        if r_acq:
            for f in rel_before_w:
                sw.add((f, r_id))
        for f1 in rel_before_w:
            for f2 in acq_after_r:
                sw.add((f1, f2))
        for head in in_release_seq.get(w_id, ()):
            if r_acq:
                dob.add((head, r_id))
            for f in acq_after_r:
                dob.add((head, f))

    return frozenset(sw), frozenset(dob)


def compute_hb_info(tr) -> tuple[Relation, Relation, Relation]:
    """sw, dob and hb_closed = (sb ∪ sw ∪ dob)+ of a trace.

    Only plain executions need these: the fence analyses of an
    intermediate trace close the same steps in ``role_closure``.
    """
    sw, dob = derive_sync(tr)
    return sw, dob, _from_rows(_closure(_rows(tr, tr.sb, sw, dob)))


def compute_ithb(tr) -> Relation:
    """Inter-thread happens-before, the least fixpoint of the five rules.

    sb is transitive, so ithb = (sb? ; (sw ∪ sw;sb ∪ dob))+.
    """
    sb = _rows(tr, tr.sb)
    base = _rows(tr, tr.dob)
    for a, b in tr.sw:
        base[a] |= (1 << b) | sb[b]
    step = dict(base)
    for a, x in tr.sb:
        step[a] |= base[x]
    return _from_rows(_closure(step))


def _rows(tr, *rels: Relation) -> dict[int, int]:
    """Row a: the bitmask of the events b with (a, b) in one of ``rels``."""
    rows = dict.fromkeys((e.id for e in tr.events), 0)
    for rel in rels:
        for a, b in rel:
            rows[a] |= 1 << b
    return rows


def _closure(rows: dict[int, int]) -> dict[int, int]:
    """Transitive closure of bitmask rows: grow each row by the rows of its
    members until no row changes (rows only grow, so this ends)."""
    out = dict(rows)
    changed = True
    while changed:
        changed = False
        for a, row in out.items():
            grown = row
            for b in _bits(row):
                grown |= out[b]
            if grown != row:
                out[a] = grown
                changed = True
    return out


def _bits(row: int) -> Iterator[int]:
    """The members of a bitmask row, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _from_rows(rows: dict[int, int]) -> Relation:
    return frozenset((a, b) for a, row in rows.items() for b in _bits(row))


def compute_fr(tr) -> Relation:
    """from-reads: rf⁻¹;mo, minus reflexive pairs.  Each read r is paired
    with every write after its source in the object's mo chain, other than
    r itself (an rmw comes after its own source)."""
    fr = []
    for w, r in tr.rf:
        chain = tr.mo_chains[tr.event(w).obj]
        fr.extend((r, c) for c in chain[chain.index(w) + 1 :] if c != r)
    return frozenset(fr)


# ---------------------------------------------------------------------------
# The axioms: coherence compositions and the clauses of the forced sc order

# The coherence conditions, in the order of their compositions.
COHERENCE = ("co-h", "co-rh", "co-mh", "co-mrh", "co-mhi", "co-mrhi")


def coherence_shapes(tr) -> Iterator[tuple[str, int, int]]:
    """Each coherence composition over distinct events, as its condition
    and the ends (a, b) of its one hb edge.  The composition is reflexive
    iff (a, b) is in hb:

        co-h     hb                 co-mrh   mo;rf;hb
        co-rh    rf;hb              co-mhi   mo;hb;rf⁻¹
        co-mh    mo;hb              co-mrhi  mo;rf;hb;rf⁻¹

    A composition that repeats an event is left out: it is reflexive only
    when hb is (co-h), when rf;hb is (co-rh), or when an rmw reads from an
    mo-later write, which rmw atomicity excludes.
    """
    readers: dict[int, list[int]] = {}
    for w, r in tr.rf:
        readers.setdefault(w, []).append(r)
    for e in tr.events:
        yield "co-h", e.id, e.id
    for w, r in tr.rf:
        yield "co-rh", r, w
    for a, b in tr.mo:
        of_a, of_b = readers.get(a, ()), readers.get(b, ())
        yield "co-mh", b, a
        yield from (("co-mrh", c, a) for c in of_b if c != a)
        yield from (("co-mhi", b, d) for d in of_a if d != b)
        # c != d: a read has one source
        yield from (("co-mrhi", c, d) for c in of_b for d in of_a if c != a and d != b)


def sc_clauses(tr) -> dict[int, int]:
    """Row x: the bitmask of the y of each (x, y) in heads(a) × tails(b) for
    a pair (a, b) of mo ∪ rf ∪ fr; heads(a) is a if sc plus the sc fences
    sb-before a, tails(b) is b if sc plus the sc fences sb-after b.

    S must contain each: in such a pair b may not come first, and
    - (a, b), both sc: S agrees with mo, and an sc read sees the last sc
      write before it (or, in the consistency check, a non-sc write);
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
    heads = {e.id: sc & 1 << e.id for e in tr.events}
    tails = dict(heads)
    for a, b in tr.sb:
        heads[b] |= sc_fences & 1 << a
        tails[a] |= sc_fences & 1 << b

    reach = dict.fromkeys(heads, 0)  # row a: the y of each (a, b) ; (b, y)
    for rel in (tr.mo, tr.rf, tr.fr):
        for a, b in rel:
            reach[a] |= tails[b]
    rows = dict.fromkeys(heads, 0)  # row x: the y of each (x, a) ; (a, y)
    for a, row in reach.items():
        for x in _bits(heads[a]):
            rows[x] |= row
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
    whichever ends are candidate fences; a dob(a, b) step needs in(b) if b
    is one (its head is a write).  The support is exactly hb_closed, and
    every bit of a mask is a candidate fence that entered through an sw or
    dob endpoint, so it plays that role.
    """
    sw, dob = derive_sync(it)
    fence_bit = {f: 2 * i for i, f in enumerate(fence_order(it))}

    def bits(e: int, role: int) -> int:
        return role << fence_bit[e] if e in fence_bit else 0

    steps: dict[tuple[int, int], list[int]] = {}
    for a, b in it.sb:
        steps.setdefault((a, b), []).append(0)
    for a, b in sw:
        steps.setdefault((a, b), []).append(bits(a, _OUT) | bits(b, _IN))
    for a, b in dob:
        steps.setdefault((a, b), []).append(bits(b, _IN))

    rows: dict[int, dict[int, tuple[int, ...]]] = {e.id: {} for e in it.events}
    for (a, b), masks in steps.items():
        rows[a][b] = _minimal(masks)
    close_masks(rows, limits or Limits())
    return rows


def compute_so_info(it) -> dict[tuple[int, int], tuple[int, ...]]:
    """The sc-order relation of an intermediate trace: per so edge, the
    ⊆-minimal sets of candidate fences the pair relies on, as masks where
    fence i of ``fence_order`` is bit 2i, its in bit.

    The clauses of ``sc_clauses`` are applied to every pair of hb ∪ mo ∪
    rf ∪ fr.  sc pairs with no forced order stay unordered.  Every edge
    relies on its ends, where they are candidates; an mo, rf or fr pair
    relies on nothing else, and a pair of hb_closed also on the fences of
    its role masks.

    The three fence clauses add nothing for an hb pair: sb ⊆ hb, so the
    pair they would add is itself in hb_closed, by paths that need no more
    fences, and the first clause adds it.  So only sc pairs of hb_closed
    are added to the fence-free rows.
    """
    sc = sum(1 << e.id for e in it.sc_events)
    free = sc_clauses(it)

    bit = {f: 1 << 2 * i for i, f in enumerate(fence_order(it))}
    ins = sum(bit.values())
    deps: dict[tuple[int, int], tuple[int, ...]] = {}
    for a in _bits(sc):
        for b, masks in it.role_closure()[a].items():
            if sc >> b & 1 and not free[a] >> b & 1:
                ends = bit.get(a, 0) | bit.get(b, 0)
                deps[(a, b)] = _minimal((m | m >> 1) & ins | ends for m in masks)
    for x, row in free.items():
        for y in _bits(row):
            deps[(x, y)] = (bit.get(x, 0) | bit.get(y, 0),)
    return deps
