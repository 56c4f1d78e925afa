"""Implementation-side network: flooding over per-peer neighbor subscriptions.

Each peer additionally tracks nsubs (which neighbors subscribe to which
topic), pending (messages received but not yet forwarded) and seen
(messages already forwarded). A produced message sits in the origin's
pending set; a forward step moves it into the forwarder's seen set and
drops it into the pending set of every neighbor subscribed to its topic.

pending is duplicate-free but insertion-ordered (new messages are pushed
at the front); seen is an ordered set. A peer may leave only with an empty
pending set, so no in-flight message is lost. Leaving does not scrub the
peer out of other peers' nsubs maps: forwarding simply skips neighbors
that are no longer in the state. subscribe, unsubscribe and join tell the
neighbours through one walk, _record: each of a set of peers inserts the
changed peer into, or removes it from, its nsubs map under some topics.

CASES is the one table of the seven step cases (STEP_KINDS is its
order). Each row names its transition, a witness that reads the
transition's arguments off the first difference of the two states
(first_difference walks them in lock step), the arguments the exhaustive
enumerator offers, and the trace event fields that carry them. The
relation replays the named transition on the witness's arguments and
demands exact equality; replay, the enumerator and the scenario parser
read the same rows. A refused replay does not apply: the transition's
ContractError guard is the one statement of when it is enabled. The
produced message heads the pending set of the first changed entry; the
forwarded message is the first one that some pending set lost (neighbors
only gain messages), and forward's guard accepts the peer that lost it
only if it is the first in key order to hold it. Subscription changes and
joins also touch other peers' nsubs maps, so the topics walk skips entries
whose key and subs agree and the join walk compares keys only; both serve
the specification too. Replay equality still decides every case, so no
witness admits a false step. is_step, which the all-pairs oracle runs,
first rejects a pair of equal length that keeps neither frame B nor frame C
and does not keep frame A with the seen identity of a forward (see frames);
step_kinds, which fuzz and replay run on real steps, has no such gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .core import (
    CACHE_SIZE,
    Case,
    ContractError,
    Message,
    PeerId,
    PeerMap,
    SKIP,
    Topic,
    difference,
    first_difference,
    insert_unique,
    is_ascending,
    join_witness,
    keep,
    left_peer,
    map_delete,
    map_get,
    map_set,
    offer_peers,
    offer_topics,
    ordered_set,
    skip,  # the skip row's transition, looked up in this module like every other
    step_tests,
    subsets,
    topics_witness,
    union_sets,
)

# topic -> ordered set of peers; entries with empty peer sets are dropped so
# that equal maps are equal tuples.
TopicPeers = tuple[tuple[Topic, tuple[PeerId, ...]], ...]


@dataclass(frozen=True)
class FloodPeer:
    pubs: tuple[Topic, ...] = ()
    subs: tuple[Topic, ...] = ()
    nsubs: TopicPeers = ()
    pending: tuple[Message, ...] = ()
    seen: tuple[Message, ...] = ()

    def to_obj(self) -> dict:
        return {
            "pubs": list(self.pubs),
            "subs": list(self.subs),
            "nsubs": {tp: list(ps) for tp, ps in self.nsubs},
            "pending": [m.to_obj() for m in self.pending],
            "seen": [m.to_obj() for m in self.seen],
        }


class FloodState(PeerMap[FloodPeer]):
    """Finite map peer -> FloodPeer with strictly ascending keys."""


def nsubs_topic(nsubs: TopicPeers, tp: Topic) -> tuple[PeerId, ...]:
    return map_get(nsubs, tp) or ()


def nsubs_insert(nsubs: TopicPeers, tp: Topic, q: PeerId) -> TopicPeers:
    return map_set(nsubs, tp, insert_unique(q, nsubs_topic(nsubs, tp)))


def nsubs_remove(nsubs: TopicPeers, tp: Topic, q: PeerId) -> TopicPeers:
    remaining = tuple(r for r in nsubs_topic(nsubs, tp) if r != q)
    if remaining:
        return map_set(nsubs, tp, remaining)
    return map_delete(nsubs, tp)


def tracked_peers(nsubs: TopicPeers) -> tuple[PeerId, ...]:
    """Every peer appearing in some value set of the topic map."""
    return ordered_set(q for _, peers in nsubs for q in peers)


def pending_set(s: FloodState) -> frozenset[Message]:
    """Union of all peers' pending sets, unordered: one C-level union, no sort."""
    return frozenset().union(*[pst.pending for _, pst in s.entries])


@lru_cache(maxsize=CACHE_SIZE)
def pending_messages(s: FloodState) -> tuple[Message, ...]:
    """Ordered union of all peers' pending sets."""
    return tuple(sorted(pending_set(s)))


def is_new_message(m: Message, s: FloodState) -> bool:
    """True iff m is in no peer's seen set and no peer's pending set."""
    return all(m not in pst.seen and m not in pst.pending for _, pst in s.entries)


def _add_pending(m: Message, pst: FloodPeer) -> FloodPeer:
    if m in pst.pending or m in pst.seen:
        return pst
    return FloodPeer(pst.pubs, pst.subs, pst.nsubs, (m,) + pst.pending, pst.seen)


@lru_cache(maxsize=CACHE_SIZE)
def produce(m: Message, s: FloodState) -> FloodState:
    """Place a new message in its origin's pending set."""
    if not is_new_message(m, s):
        raise ContractError("produce: message {} already pending or seen", m)
    origin_st = s.get(m.origin)
    if origin_st is None:
        raise ContractError("produce: origin {} not in state", m.origin)
    if m.topic not in origin_st.pubs:
        raise ContractError("produce: origin {} does not publish topic {!r}", m.origin, m.topic)
    return s.with_peer(m.origin, _add_pending(m, origin_st))


def find_forwarder(s: FloodState, m: Message) -> PeerId:
    """The first peer (in key order) whose pending set contains m."""
    for p, pst in s.entries:
        if m in pst.pending:
            return p
    raise ContractError("find-forwarder: message {} not pending anywhere", m)


@lru_cache(maxsize=CACHE_SIZE)
def forward(p: PeerId, m: Message, s: FloodState) -> FloodState:
    """Peer p processes its pending message m and floods it to its neighbors.

    Only find_forwarder(s, m) may: this guard alone says who forwards. p
    moves m from pending to seen, and each present peer under m's topic in
    p's nsubs map gains m in pending unless it holds or has seen it.
    """
    pst = s.get(p)
    if pst is None:
        raise ContractError("forward: peer {} not in state", p)
    forwarder = find_forwarder(s, m)
    if p != forwarder:
        raise ContractError("forward: peer {} is not the designated forwarder {}", p, forwarder)
    targets = nsubs_topic(pst.nsubs, m.topic)
    forwarded = FloodPeer(
        pst.pubs,
        pst.subs,
        pst.nsubs,
        tuple(x for x in pst.pending if x != m),
        insert_unique(m, pst.seen),
    )
    updated = s.with_peer(p, forwarded)
    entries = tuple(
        (q, _add_pending(m, qst) if q in targets else qst) for q, qst in updated.entries
    )
    return FloodState(entries)


def _trackers(s: FloodState, p: PeerId) -> tuple[PeerId, ...]:
    """Peers other than p that currently list p somewhere in their nsubs map."""
    return tuple(
        q for q, qst in s.entries if q != p and any(p in peers for _, peers in qst.nsubs)
    )


def _record(s: FloodState, peers, p: PeerId, topics, update) -> FloodState:
    """Each of peers applies update (nsubs_insert or nsubs_remove) to its nsubs map for p under topics."""
    for q in peers:
        qst = s.get(q)
        nsubs = qst.nsubs
        for tp in topics:
            nsubs = update(nsubs, tp, p)
        s = s.with_peer(q, FloodPeer(qst.pubs, qst.subs, nsubs, qst.pending, qst.seen))
    return s


def subscribe(p: PeerId, topics, s: FloodState) -> FloodState:
    """Add topics to p's subscriptions and tell the peers tracking p.

    Only topics genuinely new to p are propagated into the trackers' nsubs
    maps, so the transition is fully recoverable from the state pair.
    """
    return _subscribe(p, ordered_set(topics), s)


@lru_cache(maxsize=CACHE_SIZE)
def _subscribe(p: PeerId, topics: tuple[Topic, ...], s: FloodState) -> FloodState:
    pst = s.get(p)
    if pst is None:
        raise ContractError("subscribe: peer {} not in state", p)
    added = tuple(tp for tp in topics if tp not in pst.subs)
    if not added:
        return s
    out = s.with_peer(p, FloodPeer(pst.pubs, union_sets(pst.subs, added), pst.nsubs, pst.pending, pst.seen))
    return _record(out, _trackers(s, p), p, added, nsubs_insert)


def unsubscribe(p: PeerId, topics, s: FloodState) -> FloodState:
    """Drop topics from p's subscriptions and tell the peers tracking p."""
    return _unsubscribe(p, ordered_set(topics), s)


@lru_cache(maxsize=CACHE_SIZE)
def _unsubscribe(p: PeerId, topics: tuple[Topic, ...], s: FloodState) -> FloodState:
    pst = s.get(p)
    if pst is None:
        raise ContractError("unsubscribe: peer {} not in state", p)
    removed = tuple(tp for tp in topics if tp in pst.subs)
    if not removed:
        return s
    out = s.with_peer(p, FloodPeer(pst.pubs, difference(pst.subs, removed), pst.nsubs, pst.pending, pst.seen))
    return _record(out, _trackers(s, p), p, removed, nsubs_remove)


def join(p: PeerId, pubs, subs, nbrs, s: FloodState) -> FloodState:
    """Insert a fresh peer connected to the given neighbors.

    Only neighbors that are present in the state and subscribed to at
    least one topic take part: the joinee's nsubs map records their
    subscriptions, and each of them records the joinee under the joinee's
    subscribed topics. Restricting to such neighbors keeps join steps
    exactly recoverable from the joinee's nsubs map.
    """
    return _join(p, ordered_set(pubs), ordered_set(subs), ordered_set(nbrs), s)


@lru_cache(maxsize=CACHE_SIZE)
def _join(p, pubs, subs, nbrs, s: FloodState) -> FloodState:
    if p in s:
        raise ContractError("join: peer {} already in state", p)
    if p in nbrs:
        raise ContractError("join: peer {} listed among its own neighbors", p)
    visible = tuple(q for q in nbrs if q in s and s.get(q).subs)
    nsubs: TopicPeers = ()
    for q in visible:
        for tp in s.get(q).subs:
            nsubs = nsubs_insert(nsubs, tp, q)
    return _record(s.with_peer(p, FloodPeer(pubs, subs, nsubs, (), ())), visible, p, subs, nsubs_insert)


def leave(p: PeerId, s: FloodState) -> FloodState:
    """Remove p, whose pending set must be empty; other nsubs maps keep stale references to p."""
    pst = s.get(p)
    if pst is None:
        raise ContractError("leave: peer {} not in state", p)
    if pst.pending:
        raise ContractError("leave: peer {} still has pending messages", p)
    return s.without_peer(p)


def self_tracking_violations(s: FloodState) -> tuple[PeerId, ...]:
    """Peers that list themselves in their own nsubs map (invariant 1)."""
    return tuple(p for p, pst in s.entries if any(p in peers for _, peers in pst.nsubs))


def unordered_seen_violations(s: FloodState) -> tuple[PeerId, ...]:
    """Peers whose seen set is not strictly ascending (invariant 2)."""
    return tuple(p for p, pst in s.entries if not is_ascending(pst.seen))


def is_good_state(s: FloodState) -> bool:
    """Both invariants hold: no self-tracking nsubs entry, all seen sets ordered.

    Decided once per state object; every check of a step asks it again.
    Each entry's part is decided once per (peer object, key) and kept on
    the peer, so a step decides only the peers its transition replaced.
    """
    return s.memo("_good", _holds_invariants)


def _holds_invariants(s: FloodState) -> bool:
    return all([_good_entry(p, pst) for p, pst in s.entries])


def _good_entry(p: PeerId, pst: FloodPeer) -> bool:
    """Both invariants at the entry (p, pst), kept on pst with the key it was decided under."""
    kept = getattr(pst, "_good_at", None)
    if kept is None or kept[0] != p:
        kept = (p, _holds_at(p, pst))
        keep(pst, "_good_at", kept)
    return kept[1]


def _holds_at(p: PeerId, pst: FloodPeer) -> bool:
    return not any(p in peers for _, peers in pst.nsubs) and is_ascending(pst.seen)


# The seven step cases: one table, read by the relation, the enumerator, replay and the scenario parser.


def _produced(s: FloodState, u: FloodState) -> tuple[Message] | None:
    """The produced message heads the pending set of the first changed entry."""
    es, eu = s.entries, u.entries
    i = first_difference(es, eu)
    if i == len(es) or i == len(eu) or not eu[i][1].pending:
        return None
    return (eu[i][1].pending[0],)


def _forwarded(s: FloodState, u: FloodState) -> tuple[PeerId, Message] | None:
    """The first peer whose pending set lost a message, and the first message it lost.

    The walk passes entries of one key whose pending set keeps all of s's. A
    forward only adds to its neighbors' pending sets, so the forwarder is the
    one peer that loses a pending message; forward's guard accepts it or not.
    """
    es, eu = s.entries, u.entries
    i = first_difference(es, eu, lambda a, b: a == b or (a[0] == b[0] and not difference(a[1].pending, b[1].pending)))
    if i == len(es) or i == len(eu) or es[i][0] != eu[i][0]:
        return None
    return es[i][0], difference(es[i][1].pending, eu[i][1].pending)[0]


def _joined(s: FloodState, u: FloodState) -> tuple | None:
    """The joinee, its topic sets and, as its neighbours, the peers its nsubs map records."""
    w = join_witness(s, u)
    return None if w is None else (w[0], w[1].pubs, w[1].subs, tracked_peers(w[1].nsubs))


CASES = {
    "skip": SKIP,
    "produce": Case("produce", _produced, lambda s, peers, topics, msgs: ((m,) for m in msgs), ("message",)),
    "forward": Case("forward", _forwarded, lambda s, peers, topics, msgs: (
        (p, m) for m in pending_messages(s) for p in s.keys()), ("peer", "message")),
    "subscribe": Case("subscribe", topics_witness, offer_topics, ("peer", "topics")),
    "unsubscribe": Case("unsubscribe", lambda s, u: topics_witness(u, s), offer_topics, ("peer", "topics")),
    "join": Case("join", _joined, lambda s, peers, topics, msgs: product(
        peers, subsets(topics), subsets(topics), subsets(s.keys())), ("peer", "pubs", "subs", "nbrs")),
    "leave": Case("leave", left_peer, offer_peers, ("peer",)),
}
STEP_KINDS = tuple(CASES)
_STEP_TESTS = step_tests(CASES, globals())


def _possible_kinds(s: FloodState, u: FloodState) -> tuple[str, ...]:
    """Kinds not ruled out by one entry-wise pass over both states.

    Every gate is a necessary condition of the corresponding replay
    equality: each transition touches a fixed set of peer-state fields
    (produce one pending set; forward pending sets and one seen set;
    subscribe/unsubscribe one subs set and tracker nsubs; join/leave the
    key set), so a pair differing anywhere else can never satisfy it.

    A pending set changes only by gaining one message at its front
    (produce's origin, forward's receivers) or losing one (the forwarder);
    any other change rules out every kind. Produce needs exactly one gain
    and no loss, forward exactly one loss; seen is left to the replay.

    The pass compares fields, never whole peer states: the generated
    dataclass equality would compare every field a second time. An entry
    holding the very same peer object is skipped, and a pair in which no
    field differs is exactly a skip.
    """
    es, eu = s.entries, u.entries
    grown = len(eu) - len(es)
    if grown:
        return ("join",) if grown == 1 else ("leave",) if grown == -1 else ()
    subs_d = nsubs_d = seen_d = gains = losses = 0
    for (p, a), (q, b) in zip(es, eu):
        if a is b and p == q:
            continue
        if p != q or a.pubs != b.pubs:
            return ()
        if a.subs != b.subs:
            subs_d += 1
        if a.nsubs != b.nsubs:
            nsubs_d += 1
        x, y = a.pending, b.pending
        if x != y:
            if len(y) == len(x) + 1 and y[1:] == x:
                gains += 1
            elif len(x) == len(y) + 1 and x[(i := first_difference(x, y)) + 1:] == y[i:]:
                losses += 1
            else:
                return ()
        if a.seen != b.seen:
            seen_d += 1
    if not (subs_d or nsubs_d or gains or losses or seen_d):
        return ("skip",)
    kinds = []
    if subs_d == 0 and nsubs_d == 0 and seen_d == 0 and gains == 1 and losses == 0:
        kinds.append("produce")
    if subs_d == 0 and nsubs_d == 0 and seen_d <= 1 and losses == 1:
        kinds.append("forward")
    if subs_d == 1 and not (gains or losses) and seen_d == 0:
        kinds.append("subscribe")
        kinds.append("unsubscribe")
    return tuple(kinds)


def step_kinds(s: FloodState, u: FloodState) -> tuple[str, ...]:
    """All step cases that accept (s, u); used for match diagnostics."""
    return tuple(k for k in _possible_kinds(s, u) if _STEP_TESTS[k](s, u))


def frames(s: FloodState) -> tuple[int, ...]:
    """The facts is_step's gate compares: the number of entries; the hashes of frame A,
    (key, pubs, subs, nsubs), frame B, (key, pubs, pending, seen), and frame C, (key, pubs,
    subs, nsubs, seen); the total pending length P and seen length S; and the sums of
    hash(m) over every pending and every seen message.

    Skip keeps all three frames, produce A and C, subscribe and unsubscribe
    B. A forward keeps A; it keeps C too unless the forwarder had not seen
    its message m. Then S grows by 1 and the sum over seen by hash(m), and
    reaching r new receivers makes P grow by r - 1 and the sum over pending
    by (r - 1) * hash(m). The sums are exact Python ints, so that identity
    holds for any hash function.
    """
    es = s.entries
    pending = [m for _, a in es for m in a.pending]
    seen = [m for _, a in es for m in a.seen]
    return (len(es),
            hash(tuple([(p, a.pubs, a.subs, a.nsubs) for p, a in es])),
            hash(tuple([(p, a.pubs, a.pending, a.seen) for p, a in es])),
            hash(tuple([(p, a.pubs, a.subs, a.nsubs, a.seen) for p, a in es])),
            len(pending), len(seen), sum(map(hash, pending)), sum(map(hash, seen)))


def is_step(s: FloodState, u: FloodState) -> bool:
    """The transition relation: any of the seven cases accepts (s, u).

    A pair of equal length is sent to the cases only if it keeps frame B,
    keeps frame C, or keeps frame A with a seen total grown by exactly 1 and
    a pending sum grown by the pending growth times the seen sum's growth:
    every case that keeps the length does one of these (see frames), and
    unequal hashes prove unequal frames, so most all-pairs pairs end here.
    Frame C holds frame A's fields, so a pair whose A differs keeps no C and
    ends at three comparisons.
    """
    try:  # a plain attribute read once both are decided: a memo call per state costs a third of the gain
        x, y = s._frames, u._frames
    except AttributeError:
        x, y = s.memo("_frames", frames), u.memo("_frames", frames)
    # indexed, not unpacked: most pairs read three of the eight facts (n, A, B, C, P, S, sum P, sum S)
    if x[0] == y[0] and x[2] != y[2] and (
            x[1] != y[1] or x[3] != y[3] and (y[5] - x[5] != 1 or y[6] - x[6] != (y[4] - x[4]) * (y[7] - x[7]))):
        return False
    for kind in _possible_kinds(s, u):
        if _STEP_TESTS[kind](s, u):
            return True
    return False
