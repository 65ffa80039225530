"""Derived C11 relations: synchronizes-with, dependency ordering,
inter-thread happens-before, from-reads, and the forced order on
sequentially-consistent events.

All functions are pure over immutable traces and accept either a plain
execution or an intermediate one (candidate fences spliced into sb).
Inter-thread happens-before is derived by the least fixpoint of

    sw ⊆ ithb;  dob ⊆ ithb;  sw;sb ⊆ ithb;  sb;ithb ⊆ ithb;  ithb;ithb ⊆ ithb

and hb = sb ∪ ithb.  The coherence axioms are evaluated on hb's transitive
closure (see ``hb_closed``), which keeps cycle detection over hb-edge runs
and trace re-verification in exact agreement.

On a plain execution hb is a witness-free fixpoint over per-event
bitmasks: the consistency check reads only the pairs.  On an intermediate
trace every hb_closed pair also carries one canonical witness: the
underlying sb/sw/dob step sequence, chosen to rely on as few candidate
fences as possible.  The forced sc order reads them to name the candidate
fences each of its edges relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InternalCheckError
from .model import Event, IntermediateTrace, Relation


@dataclass(frozen=True)
class SyncPath:
    """A derivation of one hb pair as concrete sb/sw/dob steps."""

    nodes: tuple[int, ...]
    labels: tuple[str, ...]

    def compose(self, other: "SyncPath") -> "SyncPath":
        if self.nodes[-1] != other.nodes[0]:
            raise InternalCheckError(
                "sync paths %r and %r do not meet" % (self.nodes, other.nodes)
            )
        return SyncPath(self.nodes + other.nodes[1:], self.labels + other.labels)


@dataclass(frozen=True)
class HbInfo:
    """The synchronization and happens-before relations of one trace."""

    sw: Relation
    dob: Relation
    ithb: Relation
    hb: Relation
    hb_closed: Relation


@dataclass(frozen=True)
class WitnessedHbInfo(HbInfo):
    """HbInfo of an intermediate trace, with one witness per hb_closed pair."""

    closed_witness: Mapping[tuple[int, int], SyncPath]


def _candidates(tr) -> frozenset[int]:
    return getattr(tr, "fence_event_ids", frozenset())


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


def _witness_key(path: SyncPath, candidates: frozenset[int]):
    deps = sum(1 for n in path.nodes[1:-1] if n in candidates)
    return (deps, len(path.nodes), path.nodes)


def compute_hb_info(tr) -> HbInfo:
    """sw, dob, ithb, hb and hb_closed; with witnesses for an intermediate trace."""
    sw, dob = derive_sync(tr)
    if isinstance(tr, IntermediateTrace):
        return _witnessed_hb_info(tr, sw, dob)
    return _plain_hb_info(tr, sw, dob)


def _plain_hb_info(tr, sw: Relation, dob: Relation) -> HbInfo:
    # Row a of each table is the bitmask of the events b with (a, b) in it.
    # sb is transitive, so the least fixpoint is ithb = (sb? ; (sw ∪ sw;sb ∪ dob))+.
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


def _from_rows(rows: dict[int, int]) -> Relation:
    pairs = []
    for a, row in rows.items():
        while row:
            low = row & -row
            pairs.append((a, low.bit_length() - 1))
            row ^= low
    return Relation(pairs)


def _witnessed_hb_info(tr, sw: Relation, dob: Relation) -> WitnessedHbInfo:
    candidates = _candidates(tr)
    sb = tr.sb.pairs
    sb_by_src: dict[int, list[int]] = {}
    for a, b in sb:
        sb_by_src.setdefault(a, []).append(b)

    best: dict[tuple[int, int], SyncPath] = {}

    def offer(a: int, b: int, path: SyncPath) -> bool:
        cur = best.get((a, b))
        if cur is None or _witness_key(path, candidates) < _witness_key(cur, candidates):
            best[(a, b)] = path
            return True
        return False

    for a, b in sw.pairs:
        offer(a, b, SyncPath((a, b), ("sw",)))
    for a, b in dob.pairs:
        offer(a, b, SyncPath((a, b), ("dob",)))

    sb_by_dst: dict[int, list[int]] = {}
    for a, b in sb:
        sb_by_dst.setdefault(b, []).append(a)

    # Least fixpoint with best-witness relaxation; every update strictly
    # improves a key, so the loop terminates.  Reflexive ithb pairs are
    # genuine hb cycles and are kept.
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds >= 10_000:
            raise InternalCheckError("ithb fixpoint failed to converge")
        snapshot = list(best.items())
        by_src: dict[int, list[tuple[int, SyncPath]]] = {}
        for (a, b), p in snapshot:
            by_src.setdefault(a, []).append((b, p))
        # sw;sb
        for a, x in sw.pairs:
            for b in sb_by_src.get(x, ()):
                if offer(a, b, SyncPath((a, x, b), ("sw", "sb"))):
                    changed = True
        # sb;ithb
        for (x, b), path in snapshot:
            for a in sb_by_dst.get(x, ()):
                if offer(a, b, SyncPath((a,) + path.nodes, ("sb",) + path.labels)):
                    changed = True
        # ithb;ithb
        for (a, x), p1 in snapshot:
            for b, p2 in by_src.get(x, ()):
                if offer(a, b, p1.compose(p2)):
                    changed = True

    ithb = Relation(best.keys())
    hb_pairs = set(best.keys()) | sb
    witness = dict(best)
    for a, b in sb:
        path = SyncPath((a, b), ("sb",))
        cur = witness.get((a, b))
        if cur is None or _witness_key(path, candidates) < _witness_key(cur, candidates):
            witness[(a, b)] = path
    hb = Relation(hb_pairs)

    # Transitive closure with witnesses (runs of hb edges).
    closed = dict(witness)
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds >= 10_000:
            raise InternalCheckError("hb closure failed to converge")
        snapshot = list(closed.items())
        by_src: dict[int, list[tuple[int, SyncPath]]] = {}
        for (a, b), p in snapshot:
            by_src.setdefault(a, []).append((b, p))
        for (a, x), p1 in snapshot:
            for b, p2 in by_src.get(x, ()):
                pair = (a, b)
                path = p1.compose(p2)
                cur = closed.get(pair)
                if cur is None or _witness_key(path, candidates) < _witness_key(cur, candidates):
                    closed[pair] = path
                    changed = True

    return WitnessedHbInfo(
        sw=sw,
        dob=dob,
        ithb=ithb,
        hb=hb,
        hb_closed=Relation(closed.keys()),
        closed_witness=closed,
    )


def compute_fr(tr) -> Relation:
    """from-reads: rf⁻¹;mo, minus reflexive pairs."""
    fr = tr.rf.inverse().compose(tr.mo)
    return Relation(p for p in fr.pairs if p[0] != p[1])


# ---------------------------------------------------------------------------
# The forced order on sc events (strong analysis)


@dataclass(frozen=True)
class SoInfo:
    so: Relation
    # Candidate fences each so edge relies on beyond its own endpoints
    # (an edge justified through a fence-enabled hb pair needs those fences).
    deps: Mapping[tuple[int, int], frozenset[int]]


def compute_so_info(it) -> SoInfo:
    """The sc-order relation of an intermediate trace.

    For every pair (e1, e2) in hb ∪ mo ∪ rf ∪ fr the clauses add: the pair
    itself if both ends are sc; (e1, F) for an sc fence F sequenced after
    e2; (F, e2) for an sc fence F sequenced before e1; and (F1, F2) for sc
    fences around e1 and e2.  sc pairs with no forced order stay unordered.
    """
    info = it._hb_info
    candidates = _candidates(it)
    sb = it.sb.pairs
    sc = {e.id for e in it.sc_events}
    sc_fences = [e for e in it.sc_events if e.is_fence]

    r_pairs: dict[tuple[int, int], frozenset[int]] = {}

    def feed(pair, deps):
        cur = r_pairs.get(pair)
        if cur is None or (len(deps), sorted(deps)) < (len(cur), sorted(cur)):
            r_pairs[pair] = deps

    for pair, path in info.closed_witness.items():
        feed(pair, frozenset(n for n in path.nodes if n in candidates))
    for rel in (it.mo, it.rf, it.fr):
        for pair in rel.pairs:
            feed(pair, frozenset())

    so: dict[tuple[int, int], frozenset[int]] = {}

    def add(u, v, deps):
        cur = so.get((u, v))
        if cur is None or (len(deps), sorted(deps)) < (len(cur), sorted(cur)):
            so[(u, v)] = deps

    for (a, b), rdeps in r_pairs.items():
        a_sc = a in sc
        b_sc = b in sc
        if a_sc and b_sc:
            add(a, b, rdeps)
        if a_sc:
            for f in sc_fences:
                if (b, f.id) in sb:
                    add(a, f.id, rdeps)
        if b_sc:
            for f in sc_fences:
                if (f.id, a) in sb:
                    add(f.id, b, rdeps)
        before_a = [f for f in sc_fences if (f.id, a) in sb]
        after_b = [f for f in sc_fences if (b, f.id) in sb]
        for f1 in before_a:
            for f2 in after_b:
                add(f1.id, f2.id, rdeps)

    return SoInfo(so=Relation(so.keys()), deps=so)


def compute_so(it) -> Relation:
    return it.so_info.so
