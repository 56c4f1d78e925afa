"""Small-scope exhaustive oracle for both transition relations.

Within bounds (peers, topics, messages) the module enumerates every
type-valid state: keys ascending, topic and seen sets ordered, pending
duplicate-free in every insertion order, neighbor maps canonical (no empty
value sets). Self-tracking neighbor entries are included on purpose; they
are exactly the non-good states the relations must still handle.

For each state it then builds the brute-force successor set from every
legal (transition, argument) combination and cross-checks three things:

  * the step relation agrees with successor-set membership on all state
    pairs in the universe,
  * every good state's enabled transition lands in a good state,
  * every step from a good state passes the three simulation obligations.

Any discrepancy is reported with the offending states. The state space
grows brutally fast, so the entry point refuses bounds whose universe
exceeds the cap instead of silently grinding.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from . import broadcast_model as bn
from . import flood_model as fn
from .core import Message
from .refinement import check_wfs1, check_wfs2, check_wfs3, refinement_map


def _subsets(pool):
    for r in range(len(pool) + 1):
        yield from itertools.combinations(pool, r)


def _pending_sequences(msgs):
    for subset in _subsets(msgs):
        yield from itertools.permutations(subset)


def universe_pools(peers: int, topics: int, messages: int):
    peer_pool = tuple(range(peers))
    topic_pool = tuple(f"t{j}" for j in range(topics))
    msg_pool = tuple(
        Message(f"m{i}", topic_pool[i % topics], peer_pool[i % peers])
        for i in range(messages)
    ) if topics and peers else ()
    return peer_pool, topic_pool, msg_pool


def estimate_flood_states(peers: int, topics: int, messages: int, cap: float = math.inf) -> int:
    """The number of type-valid flood states, or a number above cap once the count passes it.

    A present peer picks pubs, subs, a neighbour set per topic, a pending
    sequence and a seen set; any subset of the peers is present, so the
    count is (1 + per_peer) ** peers. It is built one factor at a time and
    stops past the cap, so huge bounds cost no time and build no huge integer.
    """
    if not (peers and topics):
        messages = 0  # universe_pools builds no message without a peer and a topic

    def product(factors):
        out = 1
        for f in factors:
            out *= f
            if out > cap:
                break
        return out

    pendings = 0
    for k in range(messages + 1):
        pendings += math.perm(messages, k)
        if pendings > cap:
            break
    per_peer = product(itertools.chain((pendings,), itertools.repeat(2, (2 + peers) * topics + messages)))
    return product(itertools.repeat(1 + per_peer, peers))


def _peer_states(p, peer_pool, topic_pool, msg_pool):
    # neighbor targets range over the whole pool, including p itself: the
    # self-tracking states are precisely the non-good ones the relations
    # must still decide
    topic_sets = tuple(_subsets(topic_pool))
    nsubs_choices = []
    per_topic = tuple(_subsets(peer_pool))
    for combo in itertools.product(per_topic, repeat=len(topic_pool)):
        nsubs_choices.append(tuple((tp, ps) for tp, ps in zip(topic_pool, combo) if ps))
    seen_sets = tuple(_subsets(msg_pool))
    for pubs in topic_sets:
        for subs in topic_sets:
            for nsubs in nsubs_choices:
                for pending in _pending_sequences(msg_pool):
                    for seen in seen_sets:
                        yield fn.FloodPeer(pubs, subs, nsubs, pending, seen)


def enumerate_flood_states(peers: int, topics: int, messages: int):
    peer_pool, topic_pool, msg_pool = universe_pools(peers, topics, messages)
    for present in _subsets(peer_pool):
        choices = [tuple(_peer_states(p, peer_pool, topic_pool, msg_pool)) for p in present]
        for combo in itertools.product(*choices):
            yield fn.FloodState(tuple(zip(present, combo)))


def enumerate_broadcast_states(peers: int, topics: int, messages: int):
    peer_pool, topic_pool, msg_pool = universe_pools(peers, topics, messages)
    topic_sets = tuple(_subsets(topic_pool))
    seen_sets = tuple(_subsets(msg_pool))
    per_peer = tuple(
        bn.BroadcastPeer(pubs, subs, seen)
        for pubs in topic_sets
        for subs in topic_sets
        for seen in seen_sets
    )
    for present in _subsets(peer_pool):
        for combo in itertools.product(per_peer, repeat=len(present)):
            yield bn.BroadcastState(tuple(zip(present, combo)))


def flood_successors(s: fn.FloodState, peer_pool, topic_pool, msg_pool):
    """All (kind, successor) pairs reachable by one legal transition."""
    out = [("skip", s)]
    for m in msg_pool:
        if fn.can_produce(m, s):
            out.append(("produce", fn.produce(m, s)))
    for m in fn.pending_messages(s):
        out.append(("forward", fn.forward(fn.find_forwarder(s, m), m, s)))
    keys = s.keys()
    for p in keys:
        for topics in _subsets(topic_pool):
            out.append(("subscribe", fn.subscribe(p, topics, s)))
            out.append(("unsubscribe", fn.unsubscribe(p, topics, s)))
    for p in peer_pool:
        if p in s:
            continue
        for pubs in _subsets(topic_pool):
            for subs in _subsets(topic_pool):
                for nbrs in _subsets(keys):
                    out.append(("join", fn.join(p, pubs, subs, nbrs, s)))
    for p, pst in s.entries:
        if not pst.pending:
            out.append(("leave", fn.leave(p, s)))
    return out


def broadcast_successors(s: bn.BroadcastState, peer_pool, topic_pool, msg_pool):
    out = [("skip", s)]
    for m in msg_pool:
        if bn.can_broadcast(m, s):
            out.append(("broadcast", bn.broadcast(m, s)))
        if bn.is_new_message(m, s):
            for receivers in _subsets(s.keys()):
                out.append(("broadcast-partial", bn.broadcast_partial(m, receivers, s)))
    for p in s.keys():
        for topics in _subsets(topic_pool):
            out.append(("subscribe", bn.subscribe(p, topics, s)))
            out.append(("unsubscribe", bn.unsubscribe(p, topics, s)))
    for p in peer_pool:
        if p in s:
            continue
        for pubs in _subsets(topic_pool):
            for subs in _subsets(topic_pool):
                out.append(("join", bn.join(p, pubs, subs, s)))
    for p in s.keys():
        out.append(("leave", bn.leave(p, s)))
    return out


KEPT_DISCREPANCIES = 20  # dumps kept for the report; any discrepancy fails the run


@dataclass
class ExhaustiveReport:
    bounds: dict
    flood_states: int = 0
    broadcast_states: int = 0
    flood_pairs_checked: int = 0
    broadcast_pairs_checked: int = 0
    successors_checked: int = 0
    obligations_checked: int = 0
    discrepancies: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def note(self, check: str, s, u, **details):
        """Keep the dump of a discrepancy, if it is among the first KEPT_DISCREPANCIES."""
        if len(self.discrepancies) < KEPT_DISCREPANCIES:
            self.discrepancies.append({"check": check, **details, "s": s.to_obj(), "u": u.to_obj()})

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_obj(self) -> dict:
        return {
            "bounds": self.bounds,
            "flood_states": self.flood_states,
            "broadcast_states": self.broadcast_states,
            "flood_pairs_checked": self.flood_pairs_checked,
            "broadcast_pairs_checked": self.broadcast_pairs_checked,
            "successors_checked": self.successors_checked,
            "obligations_checked": self.obligations_checked,
            "discrepancies": self.discrepancies,
            "elapsed_seconds": self.elapsed_seconds,
        }


def run_exhaustive(peers: int, topics: int, messages: int, cap: int = 2000) -> ExhaustiveReport:
    """Cross-check relations, good-state preservation and obligations within bounds."""
    if min(peers, topics, messages) < 0:
        raise ValueError("bounds must be non-negative")
    if estimate_flood_states(peers, topics, messages, cap) > cap:
        raise ValueError(
            f"bounds ({peers} peers, {topics} topics, {messages} messages) "
            f"yield more flood states than {cap}, above the cap"
        )
    start = time.monotonic()
    report = ExhaustiveReport(bounds={"peers": peers, "topics": topics, "messages": messages})
    peer_pool, topic_pool, msg_pool = universe_pools(peers, topics, messages)

    flood_states = list(enumerate_flood_states(peers, topics, messages))
    report.flood_states = len(flood_states)
    flood_succ: list[set] = []
    for s in flood_states:
        succs = flood_successors(s, peer_pool, topic_pool, msg_pool)
        flood_succ.append({u for _, u in succs})
        report.successors_checked += len(succs)
        if not fn.is_good_state(s):
            continue
        w = refinement_map(s)
        for kind, u in succs:
            if not fn.is_good_state(u):
                report.note("good-state-preservation", s, u, kind=kind)
                continue
            for verdict in (check_wfs1(s), check_wfs2(s, w), check_wfs3(s, w, u, fn.step_kinds(s, u))):
                report.obligations_checked += 1
                if verdict.applicable and not verdict.passed:
                    report.note(verdict.obligation, s, u, kind=kind, diagnostics=verdict.diagnostics)
    for s, succ in zip(flood_states, flood_succ):
        report.flood_pairs_checked += len(flood_states)
        for u in flood_states:
            related = fn.is_step(s, u)
            if related != (u in succ):
                report.note("flood-relation-agreement", s, u, relation=related, enumerated=not related)

    broadcast_states = list(enumerate_broadcast_states(peers, topics, messages))
    report.broadcast_states = len(broadcast_states)
    for s in broadcast_states:
        succ = {u for _, u in broadcast_successors(s, peer_pool, topic_pool, msg_pool)}
        report.broadcast_pairs_checked += len(broadcast_states)
        for u in broadcast_states:
            related = bn.is_step(s, u)
            if related != (u in succ):
                report.note("broadcast-relation-agreement", s, u, relation=related, enumerated=not related)

    report.elapsed_seconds = time.monotonic() - start
    return report
