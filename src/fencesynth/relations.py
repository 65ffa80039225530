"""Derived C11 relations: synchronizes-with, dependency ordering,
inter-thread happens-before, from-reads, and the forced order on
sequentially-consistent events.

All functions are pure over immutable traces and accept either a plain
execution or an intermediate one: a ``Trace`` whose candidate fences are
spliced into sb (see ``cycles.insert_candidate_fences``).
Inter-thread happens-before is derived by the least fixpoint of

    sw ⊆ ithb;  dob ⊆ ithb;  sw;sb ⊆ ithb;  sb;ithb ⊆ ithb;  ithb;ithb ⊆ ithb

and hb = sb ∪ ithb.  The coherence axioms are evaluated on hb's transitive
closure (see ``hb_closed``), which keeps cycle detection over hb-edge runs
and trace re-verification in exact agreement.

hb is a witness-free fixpoint over per-event bitmasks.  On an intermediate
trace, the fence analyses also need to know which fences each pair relies
on: ``role_closure`` closes the sb/sw/dob steps over antichains of
⊆-minimal fence-role masks, and ``compute_so_info`` carries them, projected
onto candidate fences, through the four clauses of the forced sc order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import InternalCheckError
from .limits import Limits
from .model import Event, Relation


@dataclass(frozen=True)
class HbInfo:
    """The synchronization and happens-before relations of one trace."""

    sw: Relation
    dob: Relation
    ithb: Relation
    hb: Relation
    hb_closed: Relation


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
    for a, b in tr.sb.pairs:
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

    for w_id, r_id in tr.rf.pairs:
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

    return Relation(sw), Relation(dob)


def compute_hb_info(tr) -> HbInfo:
    """sw, dob, ithb, hb and hb_closed of a trace.

    Only plain executions need these: the fence analyses of an
    intermediate trace read sw and dob through ``role_closure``.
    """
    # Row a of each table is the bitmask of the events b with (a, b) in it.
    # sb is transitive, so the least fixpoint is ithb = (sb? ; (sw ∪ sw;sb ∪ dob))+.
    sw, dob = derive_sync(tr)
    sb = dict.fromkeys((e.id for e in tr.events), 0)
    for a, b in tr.sb.pairs:
        sb[a] |= 1 << b
    base = dict.fromkeys(sb, 0)
    for a, b in sw.pairs:
        base[a] |= (1 << b) | sb[b]
    for a, b in dob.pairs:
        base[a] |= 1 << b
    step = dict(base)
    for a, x in tr.sb.pairs:
        step[a] |= base[x]
    ithb = _closure(step)
    hb = {a: sb[a] | ithb[a] for a in sb}
    return HbInfo(
        sw=sw,
        dob=dob,
        ithb=_from_rows(ithb),
        hb=_from_rows(hb),
        hb_closed=_from_rows(_closure(hb)),
    )


def _closure(rows: dict[int, int]) -> dict[int, int]:
    """Transitive closure of bitmask rows: grow each row by the rows of its
    members until no row changes (rows only grow, so this ends)."""
    out = dict(rows)
    changed = True
    while changed:
        changed = False
        for a, row in out.items():
            grown = row
            via = row
            while via:
                low = via & -via
                grown |= out[low.bit_length() - 1]
                via ^= low
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
    pairs = []
    for a, row in rows.items():
        while row:
            low = row & -row
            pairs.append((a, low.bit_length() - 1))
            row ^= low
    return Relation(pairs)


def compute_fr(tr) -> Relation:
    """from-reads: rf⁻¹;mo, minus reflexive pairs."""
    fr = tr.rf.inverse().compose(tr.mo)
    return Relation(p for p in fr.pairs if p[0] != p[1])


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
    """The non-init fences of a trace, in the order that numbers their bits."""
    return tuple(e.id for e in tr.fences if not e.is_init)


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
    whichever ends are fences; a dob(a, b) step needs in(b) if b is a fence
    (its head is a write).  The support is exactly hb_closed, and every
    fence in one of its masks entered through an sw or dob endpoint, so it
    plays a role.
    """
    sw, dob = derive_sync(it)
    fence_bit = {f: 2 * i for i, f in enumerate(fence_order(it))}

    def bits(e: int, role: int) -> int:
        return role << fence_bit[e] if e in fence_bit else 0

    steps: dict[tuple[int, int], list[int]] = {}
    for a, b in it.sb.pairs:
        steps.setdefault((a, b), []).append(0)
    for a, b in sw.pairs:
        steps.setdefault((a, b), []).append(bits(a, _OUT) | bits(b, _IN))
    for a, b in dob.pairs:
        steps.setdefault((a, b), []).append(bits(b, _IN))

    rows: dict[int, dict[int, tuple[int, ...]]] = {e.id: {} for e in it.events}
    for (a, b), masks in steps.items():
        rows[a][b] = _minimal(masks)
    close_masks(rows, limits or Limits())
    return rows


@dataclass(frozen=True)
class SoInfo:
    so: Relation
    # Per so edge, the ⊆-minimal sets of candidate fences the pair it was
    # derived from relies on, candidate ends included, as masks: fence i of
    # fence_order is bit 2i.
    deps: Mapping[tuple[int, int], tuple[int, ...]]


def compute_so_info(it) -> SoInfo:
    """The sc-order relation of an intermediate trace.

    For every pair (e1, e2) in hb ∪ mo ∪ rf ∪ fr the clauses add: the pair
    itself if both ends are sc; (e1, F) for an sc fence F sequenced after
    e2; (F, e2) for an sc fence F sequenced before e1; and (F1, F2) for sc
    fences around e1 and e2.  sc pairs with no forced order stay unordered.
    An mo, rf or fr pair relies on no fence; a pair of hb_closed relies on
    the candidate fences of its role masks and on its candidate ends.

    The last three clauses add nothing for an hb pair: sb ⊆ hb, so the pair
    they would add is itself in hb_closed, by paths that need no more
    fences, and the first clause adds it.  They are applied to the
    fence-free pairs only, over per-event bitmask rows.
    """
    # heads[a]: a if sc, and the sc fences sb-before a; tails[b]: b if sc,
    # and the sc fences sb-after b.
    sc = sum(1 << e.id for e in it.sc_events)
    sc_fences = sum(1 << e.id for e in it.sc_events if e.is_fence)
    heads = {e.id: sc & 1 << e.id for e in it.events}
    tails = dict(heads)
    for a, b in it.sb.pairs:
        heads[b] |= sc_fences & 1 << a
        tails[a] |= sc_fences & 1 << b

    reach = dict.fromkeys(heads, 0)  # row a: the y of each (a, b) ; (b, y)
    for rel in (it.mo, it.rf, it.fr):
        for a, b in rel.pairs:
            reach[a] |= tails[b]
    free = dict.fromkeys(heads, 0)  # row x: the y of each (x, a) ; (a, y)
    for a, row in reach.items():
        for x in _bits(heads[a]):
            free[x] |= row

    bit = {f: 1 << 2 * i for i, f in enumerate(fence_order(it)) if it.is_candidate(f)}
    cands = sum(bit.values())
    deps: dict[tuple[int, int], tuple[int, ...]] = {}
    for a in _bits(sc):
        for b, masks in it.role_closure()[a].items():
            if sc >> b & 1 and not free[a] >> b & 1:
                ends = bit.get(a, 0) | bit.get(b, 0)
                deps[(a, b)] = _minimal((m | m >> 1) & cands | ends for m in masks)
    for x, row in free.items():
        for y in _bits(row):
            deps[(x, y)] = _FREE
    return SoInfo(so=Relation(deps), deps=deps)
