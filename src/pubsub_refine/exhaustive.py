"""Small-scope exhaustive oracle for both transition relations.

Within bounds (peers, topics, messages) the module enumerates every
type-valid state: keys ascending, topic and seen sets ordered, pending
duplicate-free in every insertion order, neighbor maps canonical (no empty
value sets). Self-tracking neighbor entries are included on purpose; they
are exactly the non-good states the relations must still handle.

For each state it then builds the brute-force successor set: it offers
every argument combination in the pools (the state's own peers for
subscription changes, neighbours and receivers) to its transition and
keeps what the transition's guard accepts. It cross-checks four things:

  * every successor lies inside the universe,
  * the step relation agrees with successor-set membership on all state
    pairs in the universe,
  * every good state's enabled transition lands in a good state,
  * every step from a good state passes the three simulation obligations.

Each universe is built from one tuple of per-peer states and interned once:
a state's position is its id and a successor set is a set of ids, so the
all-pairs check decides membership by an int lookup. A row (one state
against the whole universe) reads no other row, so the rows are split into
one contiguous slice per usable CPU: the calling process decides the first,
and a forked child each other one, sending its counts and kept dumps over a
pipe. Merged in row order, they give the report one process writes. A
failed child is an internal error, never a discrepancy.

Every discrepancy is counted per check; the first KEPT_DISCREPANCIES are
reported with the offending states. The state space grows brutally fast,
so the entry point refuses bounds whose universe exceeds the cap instead
of silently grinding.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field

from . import broadcast_model as bn
from . import flood_model as fn
from .core import Message, enabled
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


def _states(state_type, peer_pool, per_peer):
    """Every state whose keys are a subset of peer_pool and whose peers come from per_peer."""
    for present in _subsets(peer_pool):
        for combo in itertools.product(per_peer, repeat=len(present)):
            yield state_type(tuple(zip(present, combo)))


def enumerate_flood_states(peers: int, topics: int, messages: int):
    peer_pool, topic_pool, msg_pool = universe_pools(peers, topics, messages)
    topic_sets = tuple(_subsets(topic_pool))
    # neighbor targets range over the whole pool, including the peer itself:
    # the self-tracking states are precisely the non-good ones the relations
    # must still decide
    nsubs_choices = tuple(
        tuple((tp, ps) for tp, ps in zip(topic_pool, combo) if ps)
        for combo in itertools.product(tuple(_subsets(peer_pool)), repeat=len(topic_pool))
    )
    seen_sets = tuple(_subsets(msg_pool))
    per_peer = tuple(
        fn.FloodPeer(pubs, subs, nsubs, pending, seen)
        for pubs in topic_sets
        for subs in topic_sets
        for nsubs in nsubs_choices
        for pending in _pending_sequences(msg_pool)
        for seen in seen_sets
    )
    yield from _states(fn.FloodState, peer_pool, per_peer)


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
    yield from _states(bn.BroadcastState, peer_pool, per_peer)


def _offer(out: list, kind: str, transition, *args):
    """Append (kind, transition(*args)) to out if the transition's guard accepts the arguments."""
    u = enabled(transition, *args)
    if u is not None:
        out.append((kind, u))


def flood_successors(s: fn.FloodState, peer_pool, topic_pool, msg_pool):
    """All (kind, successor) pairs reachable by one enabled transition."""
    out = [("skip", s)]
    for m in msg_pool:
        _offer(out, "produce", fn.produce, m, s)
    for m in fn.pending_messages(s):
        _offer(out, "forward", fn.forward, fn.find_forwarder(s, m), m, s)
    keys = s.keys()
    for p in keys:
        for topics in _subsets(topic_pool):
            _offer(out, "subscribe", fn.subscribe, p, topics, s)
            _offer(out, "unsubscribe", fn.unsubscribe, p, topics, s)
    for p in peer_pool:  # _subsets yields ordered sets, which join's cached core takes as they are
        for pubs in _subsets(topic_pool):
            for subs in _subsets(topic_pool):
                for nbrs in _subsets(keys):
                    _offer(out, "join", fn._join, p, pubs, subs, nbrs, s)
    for p in keys:
        _offer(out, "leave", fn.leave, p, s)
    return out


def broadcast_successors(s: bn.BroadcastState, peer_pool, topic_pool, msg_pool):
    """All (kind, successor) pairs reachable by one enabled transition."""
    out = [("skip", s)]
    for m in msg_pool:
        _offer(out, "broadcast", bn.broadcast, m, s)
        for receivers in _subsets(s.keys()):
            _offer(out, "broadcast-partial", bn.broadcast_partial, m, receivers, s)
    for p in s.keys():
        for topics in _subsets(topic_pool):
            _offer(out, "subscribe", bn.subscribe, p, topics, s)
            _offer(out, "unsubscribe", bn.unsubscribe, p, topics, s)
    for p in peer_pool:
        for pubs in _subsets(topic_pool):
            for subs in _subsets(topic_pool):
                _offer(out, "join", bn.join, p, pubs, subs, s)
    for p in s.keys():
        _offer(out, "leave", bn.leave, p, s)
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
    discrepancy_counts: dict = field(default_factory=dict)  # check -> every discrepancy found
    elapsed_seconds: float = 0.0

    def note(self, check: str, s, u, **details):
        """Count a discrepancy, and keep its dump if it is among the first KEPT_DISCREPANCIES."""
        self.discrepancy_counts[check] = self.discrepancy_counts.get(check, 0) + 1
        if len(self.discrepancies) < KEPT_DISCREPANCIES:
            self.discrepancies.append({"check": check, **details, "s": s.to_obj(), "u": u.to_obj()})

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_obj(self) -> dict:
        return asdict(self)


def _successor_ids(report: ExhaustiveReport, index: dict, s, succs) -> set[int]:
    """The universe positions of s's successors; one outside the universe is a discrepancy."""
    ids = set()
    for kind, u in succs:
        j = index.get(u)
        if j is None:
            report.note("successor-outside-universe", s, u, kind=kind)
        else:
            ids.add(j)
    return ids


def _in_workers(rows: int, work) -> list:
    """work(lo, hi) on one contiguous slice of range(rows) per usable CPU, all but the first forked; in order."""
    n = min(rows, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1)
    slices = [(k * rows // n, (k + 1) * rows // n) for k in range(n)]
    running = {}  # pid -> the read end of its pipe
    try:
        for lo, hi in slices[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child leaves through os._exit alone: it unwinds no caller and flushes no stdio
                try:
                    with open(w, "w", encoding="utf-8") as pipe:
                        json.dump(work(lo, hi), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            running[pid] = open(r, encoding="utf-8")
        results = [work(*slices[0])]
        for (lo, hi), pid in zip(slices[1:], list(running)):
            with running[pid] as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            if code != 0 or not payload:  # exit 0 comes only after the whole payload is written
                raise RuntimeError(f"worker for rows {lo}..{hi - 1} failed: status {code}, {len(payload)} bytes sent")
            results.append(json.loads(payload))
        return results
    finally:  # children still running here only if something raised; none outlives the call
        for pid, pipe in running.items():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL, named without loading the signal module into every start-up
            os.waitpid(pid, 0)


def _check_agreement(report: ExhaustiveReport, check: str, states: list, succ_ids: list, is_step) -> int:
    """Decide is_step on every pair of the universe against the successor sets; the pairs decided."""
    def rows(lo, hi):  # [count, kept dumps] of rows lo..hi-1, as note keeps them
        part = ExhaustiveReport(bounds={})
        for s, ids in zip(states[lo:hi], succ_ids[lo:hi]):
            for j, u in enumerate(states):
                related = is_step(s, u)
                if related != (j in ids):
                    part.note(check, s, u, relation=related, enumerated=not related)
        return [part.discrepancy_counts.get(check, 0), part.discrepancies]

    for count, kept in _in_workers(len(states), rows):  # merged in row order
        if count:
            report.discrepancy_counts[check] = report.discrepancy_counts.get(check, 0) + count
        report.discrepancies.extend(kept[:KEPT_DISCREPANCIES - len(report.discrepancies)])
    return len(states) ** 2


class BoundsError(ValueError):
    """Bounds run_exhaustive refuses before building anything: a usage error, unlike any ValueError of the run."""


def run_exhaustive(peers: int, topics: int, messages: int, cap: int = 2000) -> ExhaustiveReport:
    """Cross-check relations, good-state preservation and obligations within bounds."""
    if min(peers, topics, messages) < 0:
        raise BoundsError("bounds must be non-negative")
    if estimate_flood_states(peers, topics, messages, cap) > cap:
        raise BoundsError(
            f"bounds ({peers} peers, {topics} topics, {messages} messages) "
            f"yield more flood states than {cap}, above the cap"
        )
    report = ExhaustiveReport(bounds={"peers": peers, "topics": topics, "messages": messages})
    peer_pool, topic_pool, msg_pool = universe_pools(peers, topics, messages)

    flood_states = list(enumerate_flood_states(peers, topics, messages))
    report.flood_states = len(flood_states)
    index = {s: i for i, s in enumerate(flood_states)}
    flood_succ: list[set[int]] = []
    for s in flood_states:
        succs = flood_successors(s, peer_pool, topic_pool, msg_pool)
        flood_succ.append(_successor_ids(report, index, s, succs))
        report.successors_checked += len(succs)
        if not fn.is_good_state(s):
            continue
        w = refinement_map(s)
        per_state = (check_wfs1(s), check_wfs2(s, w))  # both depend on s alone
        for kind, u in succs:
            if not fn.is_good_state(u):
                report.note("good-state-preservation", s, u, kind=kind)
                continue
            for verdict in (*per_state, check_wfs3(s, w, u, fn.step_kinds(s, u))):
                report.obligations_checked += 1
                if verdict.applicable and not verdict.passed:
                    report.note(verdict.obligation, s, u, kind=kind, diagnostics=verdict.diagnostics)
    # the relations are looked up per run, so a relation patched on its module is the one checked
    report.flood_pairs_checked = _check_agreement(
        report, "flood-relation-agreement", flood_states, flood_succ, fn.is_step
    )

    broadcast_states = list(enumerate_broadcast_states(peers, topics, messages))
    report.broadcast_states = len(broadcast_states)
    index = {s: i for i, s in enumerate(broadcast_states)}
    broadcast_succ = [
        _successor_ids(report, index, s, broadcast_successors(s, peer_pool, topic_pool, msg_pool))
        for s in broadcast_states
    ]
    report.broadcast_pairs_checked = _check_agreement(
        report, "broadcast-relation-agreement", broadcast_states, broadcast_succ, bn.is_step
    )

    return report
