"""Specification-side network: subscriptions plus atomic message broadcast.

A state maps peers to (pubs, subs, seen). A broadcast delivers a new message
to every subscriber (and the origin) in a single transition; a partial
broadcast delivers it to an arbitrary subset of peers, which is what a
multi-hop flood collapses to under the refinement map once churn is allowed.

The step relation is a disjunction of seven cases. Each case recovers the
transition's hidden arguments from the (pre, post) state pair with a witness
function and then checks that replaying the transition with those arguments
reproduces the post state exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ContractError,
    Message,
    PeerId,
    PeerMap,
    Topic,
    difference,
    first_difference,
    insert_unique,
    is_ascending,
    ordered_set,
    union_sets,
)

STEP_KINDS = ("skip", "broadcast", "broadcast-partial", "subscribe", "unsubscribe", "join", "leave")


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


def can_broadcast(m: Message, s: BroadcastState) -> bool:
    """Broadcast precondition: m is new, its origin is present and publishes its topic."""
    origin_st = s.get(m.origin)
    return is_new_message(m, s) and origin_st is not None and m.topic in origin_st.pubs


def broadcast(m: Message, s: BroadcastState) -> BroadcastState:
    """Deliver m to every subscriber of its topic plus the origin, atomically."""
    if not is_new_message(m, s):
        raise ContractError(f"broadcast: message {m} was already seen")
    origin_st = s.get(m.origin)
    if origin_st is None:
        raise ContractError(f"broadcast: origin {m.origin} not in state")
    if m.topic not in origin_st.pubs:
        raise ContractError(f"broadcast: origin {m.origin} does not publish topic {m.topic!r}")
    entries = tuple(
        (p, _receive(pst, m) if m.topic in pst.subs or p == m.origin else pst)
        for p, pst in s.entries
    )
    return BroadcastState(entries)


def _receive(pst: BroadcastPeer, m: Message) -> BroadcastPeer:
    return BroadcastPeer(pst.pubs, pst.subs, insert_unique(m, pst.seen))


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
    return BroadcastState(
        tuple((p, _receive(pst, m) if p in receivers else pst) for p, pst in s.entries)
    )


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


# Witness functions. Each walks the two entry sequences in lock step with
# first_difference and reads the transition's arguments off the first
# position where the states disagree.


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


def topics_witness(s: BroadcastState, u: BroadcastState) -> tuple[PeerId, tuple[Topic, ...]] | None:
    """The peer and the topics it gained between s and u, if any."""
    es, eu = s.entries, u.entries
    i = first_difference(es, eu)
    if i == len(es) or i == len(eu):
        return None
    (p, pst), (q, qst) = es[i], eu[i]
    if p != q:
        return None
    gained = difference(qst.subs, pst.subs)
    return (p, gained) if gained else None


def join_witness(s: BroadcastState, u: BroadcastState) -> tuple[PeerId, BroadcastPeer] | None:
    """The peer entry present in u but not in s, if the walk finds one."""
    es, eu = s.entries, u.entries
    i = first_difference(es, eu)
    if i == len(eu):
        return None
    if i == len(es) or es[i][0] != eu[i][0]:
        return eu[i]
    return None


# The seven step cases and their disjunction.


def is_skip_step(s: BroadcastState, u: BroadcastState) -> bool:
    return u == s


def is_broadcast_step(s: BroadcastState, u: BroadcastState) -> bool:
    m = message_witness(s, u)
    return m is not None and can_broadcast(m, s) and u == broadcast(m, s)


def is_broadcast_partial_step(s: BroadcastState, u: BroadcastState) -> bool:
    m = message_witness(s, u)
    if m is None or not is_new_message(m, s):
        return False
    # partial delivery never changes the key set, so reject early; this also
    # guarantees the recomputed receiver list lies within s.
    if s.keys() != u.keys():
        return False
    return u == broadcast_partial(m, message_receivers(m, u), s)


def is_subscribe_step(s: BroadcastState, u: BroadcastState) -> bool:
    w = topics_witness(s, u)
    return w is not None and w[0] in s and u == subscribe(w[0], w[1], s)


def is_unsubscribe_step(s: BroadcastState, u: BroadcastState) -> bool:
    w = topics_witness(u, s)  # reversed: topics present in s but dropped in u
    return w is not None and w[0] in s and u == unsubscribe(w[0], w[1], s)


def is_join_step(s: BroadcastState, u: BroadcastState) -> bool:
    w = join_witness(s, u)
    if w is None:
        return False
    p, pst = w
    return p not in s and u == join(p, pst.pubs, pst.subs, s)


def is_leave_step(s: BroadcastState, u: BroadcastState) -> bool:
    w = join_witness(u, s)  # reversed: entry present in s but gone in u
    return w is not None and w[0] in s and u == leave(w[0], s)


_STEP_TESTS = (
    ("skip", is_skip_step),
    ("broadcast", is_broadcast_step),
    ("broadcast-partial", is_broadcast_partial_step),
    ("subscribe", is_subscribe_step),
    ("unsubscribe", is_unsubscribe_step),
    ("join", is_join_step),
    ("leave", is_leave_step),
)


def step_kinds(s: BroadcastState, u: BroadcastState) -> tuple[str, ...]:
    """All step cases that accept (s, u); used for match diagnostics."""
    return tuple(name for name, test in _STEP_TESTS if test(s, u))


def is_step(s: BroadcastState, u: BroadcastState) -> bool:
    """The transition relation: any of the seven cases accepts (s, u)."""
    return any(test(s, u) for _, test in _STEP_TESTS)
