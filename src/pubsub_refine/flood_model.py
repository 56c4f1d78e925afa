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
that are no longer in the state.

Every step case but skip walks the two states in lock step with
first_difference, reads the transition's arguments off the first
difference, replays that one transition and demands exact equality. A
case whose transition refuses the recovered arguments does not apply: the
transition's ContractError guard, asked through core.enabled, is the one
statement of when it is enabled, and no case restates it. The produced
message heads the pending set of the first changed entry; the forwarded
message is the first one that some pending set lost, since neighbors only
gain messages. The topics and join walks, core.topics_witness and
core.join_witness, are the ones the specification side uses too:
subscribe/unsubscribe and join also touch *other* peers' nsubs maps, so
the topics walk skips entries whenever key and subs agree, and the join
walk compares keys only. Replay equality still decides every case, so no
witness can produce a false positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    CACHE_SIZE,
    ContractError,
    Message,
    PeerId,
    PeerMap,
    Topic,
    difference,
    enabled,
    first_difference,
    insert_unique,
    is_ascending,
    join_witness,
    map_delete,
    map_get,
    map_set,
    ordered_set,
    topics_witness,
    union_sets,
)

STEP_KINDS = ("skip", "produce", "forward", "subscribe", "unsubscribe", "join", "leave")

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


@lru_cache(maxsize=CACHE_SIZE)
def pending_messages(s: FloodState) -> tuple[Message, ...]:
    """Ordered union of all peers' pending sets."""
    return ordered_set(m for _, pst in s.entries for m in pst.pending)


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
        raise ContractError(f"produce: message {m} already pending or seen")
    origin_st = s.get(m.origin)
    if origin_st is None:
        raise ContractError(f"produce: origin {m.origin} not in state")
    if m.topic not in origin_st.pubs:
        raise ContractError(f"produce: origin {m.origin} does not publish topic {m.topic!r}")
    return s.with_peer(m.origin, _add_pending(m, origin_st))


@lru_cache(maxsize=CACHE_SIZE)
def forward(p: PeerId, m: Message, s: FloodState) -> FloodState:
    """Peer p processes its pending message m and floods it to its neighbors.

    p's own entry moves m from pending to seen; every peer listed under
    m's topic in p's nsubs map then gains m in pending, unless it already
    holds or has seen it. Neighbors absent from the state are skipped.
    """
    pst = s.get(p)
    if pst is None:
        raise ContractError(f"forward: peer {p} not in state")
    if m not in pst.pending:
        raise ContractError(f"forward: message {m} not pending at peer {p}")
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


def find_forwarder(s: FloodState, m: Message) -> PeerId:
    """The first peer (in key order) whose pending set contains m."""
    for p, pst in s.entries:
        if m in pst.pending:
            return p
    raise ContractError(f"find-forwarder: message {m} not pending anywhere")


def _trackers(s: FloodState, p: PeerId) -> tuple[PeerId, ...]:
    """Peers other than p that currently list p somewhere in their nsubs map."""
    return tuple(
        q for q, qst in s.entries if q != p and any(p in peers for _, peers in qst.nsubs)
    )


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
        raise ContractError(f"subscribe: peer {p} not in state")
    added = tuple(tp for tp in topics if tp not in pst.subs)
    if not added:
        return s
    out = s.with_peer(p, FloodPeer(pst.pubs, union_sets(pst.subs, added), pst.nsubs, pst.pending, pst.seen))
    for q in _trackers(s, p):
        qst = out.get(q)
        nsubs = qst.nsubs
        for tp in added:
            nsubs = nsubs_insert(nsubs, tp, p)
        out = out.with_peer(q, FloodPeer(qst.pubs, qst.subs, nsubs, qst.pending, qst.seen))
    return out


def unsubscribe(p: PeerId, topics, s: FloodState) -> FloodState:
    """Drop topics from p's subscriptions and tell the peers tracking p."""
    return _unsubscribe(p, ordered_set(topics), s)


@lru_cache(maxsize=CACHE_SIZE)
def _unsubscribe(p: PeerId, topics: tuple[Topic, ...], s: FloodState) -> FloodState:
    pst = s.get(p)
    if pst is None:
        raise ContractError(f"unsubscribe: peer {p} not in state")
    removed = tuple(tp for tp in topics if tp in pst.subs)
    if not removed:
        return s
    out = s.with_peer(p, FloodPeer(pst.pubs, difference(pst.subs, removed), pst.nsubs, pst.pending, pst.seen))
    for q in _trackers(s, p):
        qst = out.get(q)
        nsubs = qst.nsubs
        for tp in removed:
            nsubs = nsubs_remove(nsubs, tp, p)
        out = out.with_peer(q, FloodPeer(qst.pubs, qst.subs, nsubs, qst.pending, qst.seen))
    return out


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
        raise ContractError(f"join: peer {p} already in state")
    if p in nbrs:
        raise ContractError(f"join: peer {p} listed among its own neighbors")
    visible = tuple(q for q in nbrs if q in s and s.get(q).subs)
    nsubs: TopicPeers = ()
    for q in visible:
        for tp in s.get(q).subs:
            nsubs = nsubs_insert(nsubs, tp, q)
    out = s.with_peer(p, FloodPeer(pubs, subs, nsubs, (), ()))
    for q in visible:
        qst = out.get(q)
        qn = qst.nsubs
        for tp in subs:
            qn = nsubs_insert(qn, tp, p)
        out = out.with_peer(q, FloodPeer(qst.pubs, qst.subs, qn, qst.pending, qst.seen))
    return out


def leave(p: PeerId, s: FloodState) -> FloodState:
    """Remove p, whose pending set must be empty; other nsubs maps keep stale references to p."""
    pst = s.get(p)
    if pst is None:
        raise ContractError(f"leave: peer {p} not in state")
    if pst.pending:
        raise ContractError(f"leave: peer {p} still has pending messages")
    return s.without_peer(p)


def _keeps_pending(a, b) -> bool:
    """Entries a and b have one key and b's pending set keeps all of a's."""
    return a == b or (a[0] == b[0] and not difference(a[1].pending, b[1].pending))


def self_tracking_violations(s: FloodState) -> tuple[PeerId, ...]:
    """Peers that list themselves in their own nsubs map (invariant 1)."""
    return tuple(p for p, pst in s.entries if any(p in peers for _, peers in pst.nsubs))


def unordered_seen_violations(s: FloodState) -> tuple[PeerId, ...]:
    """Peers whose seen set is not strictly ascending (invariant 2)."""
    return tuple(p for p, pst in s.entries if not is_ascending(pst.seen))


def is_good_state(s: FloodState) -> bool:
    """Both invariants hold: no self-tracking nsubs entry, all seen sets ordered.

    Decided once per state object; every check of a step asks it again.
    """
    return s.memo("good", _holds_invariants)


def _holds_invariants(s: FloodState) -> bool:
    return not self_tracking_violations(s) and not unordered_seen_violations(s)


# The seven step cases and their disjunction.


def is_skip_step(s: FloodState, u: FloodState) -> bool:
    return u == s


def is_produce_step(s: FloodState, u: FloodState) -> bool:
    """The produced message heads the pending set of the first changed entry."""
    es, eu = s.entries, u.entries
    i = first_difference(es, eu)
    if i == len(es) or i == len(eu) or not eu[i][1].pending:
        return False
    return u == enabled(produce, eu[i][1].pending[0], s)


def is_forward_step(s: FloodState, u: FloodState) -> bool:
    """The forwarded message is the first one that some pending set lost.

    A forward only adds to its neighbors' pending sets, so the forwarder is
    the one peer that loses a pending message.
    """
    es, eu = s.entries, u.entries
    i = first_difference(es, eu, _keeps_pending)
    if i == len(es) or i == len(eu) or es[i][0] != eu[i][0]:
        return False
    m = difference(es[i][1].pending, eu[i][1].pending)[0]
    return u == enabled(forward, find_forwarder(s, m), m, s)


def is_subscribe_step(s: FloodState, u: FloodState) -> bool:
    w = topics_witness(s, u)
    return w is not None and u == enabled(subscribe, w[0], w[1], s)


def is_unsubscribe_step(s: FloodState, u: FloodState) -> bool:
    w = topics_witness(u, s)  # reversed: topics present in s but dropped in u
    return w is not None and u == enabled(unsubscribe, w[0], w[1], s)


def is_join_step(s: FloodState, u: FloodState) -> bool:
    w = join_witness(s, u)
    if w is None:
        return False
    p, pst = w
    # the witness's topic sets are ordered sets, which join's cached core takes as they are
    return u == enabled(_join, p, pst.pubs, pst.subs, tracked_peers(pst.nsubs), s)


def is_leave_step(s: FloodState, u: FloodState) -> bool:
    w = join_witness(u, s)  # reversed: entry present in s but gone in u
    return w is not None and u == enabled(leave, w[0], s)


_STEP_TESTS = {
    "skip": is_skip_step,
    "produce": is_produce_step,
    "forward": is_forward_step,
    "subscribe": is_subscribe_step,
    "unsubscribe": is_unsubscribe_step,
    "join": is_join_step,
    "leave": is_leave_step,
}


def _possible_kinds(s: FloodState, u: FloodState) -> tuple[str, ...]:
    """Kinds not ruled out by one entry-wise pass over both states.

    Every gate is a necessary condition of the corresponding replay
    equality: each transition touches a fixed set of peer-state fields
    (produce one pending set; forward pending sets and one seen set;
    subscribe/unsubscribe one subs set and tracker nsubs; join/leave the
    key set), so a pair differing anywhere else can never satisfy it.

    The pass compares fields, never whole peer states: the generated
    dataclass equality would compare every field a second time. An entry
    holding the very same peer object is skipped, and a pair in which no
    field differs is exactly a skip.
    """
    es, eu = s.entries, u.entries
    grown = len(eu) - len(es)
    if grown:
        return ("join",) if grown == 1 else ("leave",) if grown == -1 else ()
    subs_d = nsubs_d = pending_d = seen_d = 0
    for (p, a), (q, b) in zip(es, eu):
        if a is b and p == q:
            continue
        if p != q or a.pubs != b.pubs:
            return ()
        if a.subs != b.subs:
            subs_d += 1
        if a.nsubs != b.nsubs:
            nsubs_d += 1
        if a.pending != b.pending:
            pending_d += 1
        if a.seen != b.seen:
            seen_d += 1
    if not (subs_d or nsubs_d or pending_d or seen_d):
        return ("skip",)
    kinds = []
    if subs_d == 0 and nsubs_d == 0 and seen_d == 0 and pending_d == 1:
        kinds.append("produce")
    if subs_d == 0 and nsubs_d == 0 and seen_d <= 1 and pending_d >= 1:
        kinds.append("forward")
    if subs_d == 1 and pending_d == 0 and seen_d == 0:
        kinds.append("subscribe")
        kinds.append("unsubscribe")
    return tuple(kinds)


def step_kinds(s: FloodState, u: FloodState) -> tuple[str, ...]:
    """All step cases that accept (s, u); used for match diagnostics."""
    return tuple(
        k for k in _possible_kinds(s, u) if k == "skip" or _STEP_TESTS[k](s, u)
    )


def is_step(s: FloodState, u: FloodState) -> bool:
    """The transition relation: any of the seven cases accepts (s, u)."""
    for k in _possible_kinds(s, u):
        if k == "skip" or _STEP_TESTS[k](s, u):
            return True
    return False
