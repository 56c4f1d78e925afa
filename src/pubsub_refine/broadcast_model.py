"""Specification-side network: subscriptions plus atomic message broadcast.

A state maps peers to (pubs, subs, seen). A broadcast delivers a new message
to every subscriber (and the origin) in a single transition; a partial
broadcast delivers it to an arbitrary subset of peers, which is what a
multi-hop flood collapses to under the refinement map once churn is allowed.
Both deliver through _deliver: a broadcast delivers like the partial
broadcast to the subscribers and the origin.

CASES is the one table of the seven step cases, read by the relation
and the exhaustive enumerator as the flood model's is. Each case's
witness recovers the transition's arguments from the (pre, post) pair,
and the relation replays the named transition on them and demands the
post state exactly; a refused replay does not apply. step_kind names the
first accepting case, which is the match a WFS3 verdict reports; is_step
asks whether there is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import (
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
    left_peer,
    offer_peers,
    offer_topics,
    ordered_set,
    skip,  # the skip row's transition, looked up in this module like every other
    step_tests,
    subsets,
    topics_witness,
    union_sets,
)


@dataclass(frozen=True)
class BroadcastPeer:
    """Per-peer state: published topics, subscribed topics, processed messages."""

    pubs: tuple[Topic, ...] = ()
    subs: tuple[Topic, ...] = ()
    seen: tuple[Message, ...] = ()

    def to_obj(self) -> dict:
        return {
            "pubs": list(self.pubs),
            "subs": list(self.subs),
            "seen": [m.to_obj() for m in self.seen],
        }


class BroadcastState(PeerMap[BroadcastPeer]):
    """Finite map peer -> BroadcastPeer with strictly ascending keys."""


def is_new_message(m: Message, s: BroadcastState) -> bool:
    """True iff m appears in no peer's seen set."""
    return all(m not in pst.seen for _, pst in s.entries)


def broadcast(m: Message, s: BroadcastState) -> BroadcastState:
    """Deliver m to every subscriber of its topic plus the origin, atomically."""
    if not is_new_message(m, s):
        raise ContractError(f"broadcast: message {m} was already seen")
    origin_st = s.get(m.origin)
    if origin_st is None:
        raise ContractError(f"broadcast: origin {m.origin} not in state")
    if m.topic not in origin_st.pubs:
        raise ContractError(f"broadcast: origin {m.origin} does not publish topic {m.topic!r}")
    receivers = tuple(p for p, pst in s.entries if m.topic in pst.subs or p == m.origin)
    return _deliver(m, receivers, s)


def _deliver(m: Message, receivers: tuple[PeerId, ...], s: BroadcastState) -> BroadcastState:
    """Add m to the seen set of each of receivers; every other entry stays as it is."""
    return BroadcastState(tuple(
        (p, BroadcastPeer(pst.pubs, pst.subs, insert_unique(m, pst.seen)) if p in receivers else pst)
        for p, pst in s.entries
    ))


def broadcast_partial(m: Message, receivers: tuple[PeerId, ...], s: BroadcastState) -> BroadcastState:
    """Deliver m to exactly the given peers, leaving everyone else untouched.

    receivers must be an ordered set (strictly ascending) of the state's keys.
    """
    if not is_new_message(m, s):
        raise ContractError(f"broadcast-partial: message {m} was already seen")
    if not is_ascending(receivers):
        raise ContractError(f"broadcast-partial: receivers {receivers} not strictly ascending")
    keys = s.keys()
    missing = [p for p in receivers if p not in keys]
    if missing:
        raise ContractError(f"broadcast-partial: receivers {missing} not in state")
    return _deliver(m, receivers, s)


def message_receivers(m: Message, s: BroadcastState) -> tuple[PeerId, ...]:
    """The ascending list of peers whose seen set contains m."""
    return tuple(p for p, pst in s.entries if m in pst.seen)


def subscribe(p: PeerId, topics, s: BroadcastState) -> BroadcastState:
    """Add topics to p's subscriptions (set union, kept ordered)."""
    pst = s.get(p)
    if pst is None:
        raise ContractError(f"subscribe: peer {p} not in state")
    return s.with_peer(p, BroadcastPeer(pst.pubs, union_sets(pst.subs, ordered_set(topics)), pst.seen))


def unsubscribe(p: PeerId, topics, s: BroadcastState) -> BroadcastState:
    """Remove topics from p's subscriptions."""
    pst = s.get(p)
    if pst is None:
        raise ContractError(f"unsubscribe: peer {p} not in state")
    return s.with_peer(p, BroadcastPeer(pst.pubs, difference(pst.subs, topics), pst.seen))


def join(p: PeerId, pubs, subs, s: BroadcastState) -> BroadcastState:
    """Insert a fresh peer with the given topic sets and empty seen."""
    if p in s:
        raise ContractError(f"join: peer {p} already in state")
    return s.with_peer(p, BroadcastPeer(ordered_set(pubs), ordered_set(subs), ()))


def leave(p: PeerId, s: BroadcastState) -> BroadcastState:
    """Remove p's entry."""
    if p not in s:
        raise ContractError(f"leave: peer {p} not in state")
    return s.without_peer(p)


def message_witness(s: BroadcastState, u: BroadcastState) -> Message | None:
    """The message that was delivered between s and u, if one exists.

    At the first differing position the seen sets are compared regardless
    of whether the keys match; the first element of the difference (or
    absence) is the verdict.
    """
    es, eu = s.entries, u.entries
    i = first_difference(es, eu)
    if i == len(es) or i == len(eu):
        return None
    gained = difference(eu[i][1].seen, es[i][1].seen)
    return gained[0] if gained else None


# The seven step cases: one table, read by the relation and the enumerator.


def _broadcast(s: BroadcastState, u: BroadcastState) -> tuple[Message] | None:
    m = message_witness(s, u)
    return None if m is None else (m,)


def _partial(s: BroadcastState, u: BroadcastState) -> tuple | None:
    """The delivered message and every peer that has seen it in u."""
    m = message_witness(s, u)
    return None if m is None else (m, message_receivers(m, u))


def _joined(s: BroadcastState, u: BroadcastState) -> tuple | None:
    w = join_witness(s, u)
    return None if w is None else (w[0], w[1].pubs, w[1].subs)


CASES = {
    "skip": SKIP,
    "broadcast": Case("broadcast", _broadcast, lambda s, peers, topics, msgs: ((m,) for m in msgs)),
    "broadcast-partial": Case(
        "broadcast_partial", _partial, lambda s, peers, topics, msgs: product(msgs, subsets(s.keys()))),
    "subscribe": Case("subscribe", topics_witness, offer_topics),
    "unsubscribe": Case("unsubscribe", lambda s, u: topics_witness(u, s), offer_topics),
    "join": Case("join", _joined, lambda s, peers, topics, msgs: product(peers, subsets(topics), subsets(topics))),
    "leave": Case("leave", left_peer, offer_peers),
}
STEP_KINDS = tuple(CASES)
_STEP_TESTS = step_tests(CASES, globals())


def step_kind(s: BroadcastState, u: BroadcastState) -> str | None:
    """The first step case, in STEP_KINDS order, that accepts (s, u), or None."""
    for kind, test in _STEP_TESTS.items():
        if test(s, u):
            return kind
    return None


def is_step(s: BroadcastState, u: BroadcastState) -> bool:
    """The transition relation: any of the seven cases accepts (s, u)."""
    return step_kind(s, u) is not None
