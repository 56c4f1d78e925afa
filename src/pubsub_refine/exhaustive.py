"""Small-scope exhaustive oracle for both transition relations.

Within bounds (peers, topics, messages) the module enumerates every
type-valid state: keys ascending, topic and seen sets ordered, pending
duplicate-free in every insertion order, neighbor maps canonical (no empty
value sets). Self-tracking neighbor entries are included on purpose; they
are exactly the non-good states the relations must still handle.

For each state it then builds the brute-force successor set: each case
of the model's CASES table offers every argument combination in the pools
(the state's own peers for forwards, subscription changes, neighbours and
receivers) to its transition, and the set keeps what the guard accepts.
flood_successors and broadcast_successors are that one loop, _successors,
over each model. It cross-checks four things:

  * every successor lies inside the universe,
  * the step relation agrees with successor-set membership on all state
    pairs in the universe,
  * every good state's enabled transition lands in a good state,
  * every step from a good state passes the three simulation obligations.

Each universe is built from one tuple of per-peer states and interned once:
a state's position is its id and a successor set is a set of ids, so the
all-pairs check decides membership by an int lookup. A row is one state's
whole work: its successors and their ids, for a flood state good-state
preservation and the obligations, then its agreement with the whole
universe. A row reads no other row, so core.in_workers hands the rows out
in chunks to the calling process and one forked child per further usable
CPU, and each sends back its counts and kept dumps. Merged in row order,
every row's build notes first and then every row's agreement notes, they
give the report one process deciding the rows in turn writes. A failed
row or child is an internal error, never a discrepancy.

Every discrepancy is counted per check; the first KEPT_DISCREPANCIES are
reported with the offending states. The state space grows brutally fast,
so the entry point refuses bounds whose universe exceeds the cap instead
of silently grinding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

from . import broadcast_model as bn
from . import flood_model as fn
from .core import Message, Refused, enabled, in_workers, subsets
from .refinement import check_wfs1, check_wfs2, check_wfs3, refinement_map


def _pending_sequences(msgs):
    for subset in subsets(msgs):
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
    for present in subsets(peer_pool):
        for combo in itertools.product(per_peer, repeat=len(present)):
            yield state_type(tuple(zip(present, combo)))


def enumerate_flood_states(peers: int, topics: int, messages: int):
    peer_pool, topic_pool, msg_pool = universe_pools(peers, topics, messages)
    topic_sets = tuple(subsets(topic_pool))
    # neighbor targets range over the whole pool, including the peer itself:
    # the self-tracking states are precisely the non-good ones the relations
    # must still decide
    nsubs_choices = tuple(
        tuple((tp, ps) for tp, ps in zip(topic_pool, combo) if ps)
        for combo in itertools.product(tuple(subsets(peer_pool)), repeat=len(topic_pool))
    )
    seen_sets = tuple(subsets(msg_pool))
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
    topic_sets = tuple(subsets(topic_pool))
    seen_sets = tuple(subsets(msg_pool))
    per_peer = tuple(
        bn.BroadcastPeer(pubs, subs, seen)
        for pubs in topic_sets
        for subs in topic_sets
        for seen in seen_sets
    )
    yield from _states(bn.BroadcastState, peer_pool, per_peer)


def _successors(model, s, pools) -> list:
    """All (kind, successor) pairs one enabled transition reaches: each case's offers its guard accepts."""
    out = []
    for kind, case in model.CASES.items():
        transition = getattr(model, case.transition)
        for args in case.offers(s, *pools):
            u = enabled(transition, *args, s)
            if u is not None:
                out.append((kind, u))
    return out


def flood_successors(s: fn.FloodState, peer_pool, topic_pool, msg_pool):
    """All (kind, successor) pairs reachable by one enabled flood transition."""
    return _successors(fn, s, (peer_pool, topic_pool, msg_pool))


def broadcast_successors(s: bn.BroadcastState, peer_pool, topic_pool, msg_pool):
    """All (kind, successor) pairs reachable by one enabled broadcast transition."""
    return _successors(bn, s, (peer_pool, topic_pool, msg_pool))


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


def _check_flood_successors(report: ExhaustiveReport, s: fn.FloodState, succs) -> None:
    """Good-state preservation and the three obligations on every step from a good state s."""
    report.successors_checked += len(succs)
    if not fn.is_good_state(s):
        return
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


def _merge(report: ExhaustiveReport, counts: dict, kept: list) -> None:
    """Add one chunk's discrepancy counts, and as many of its dumps as KEPT_DISCREPANCIES leaves room for."""
    for check, n in counts.items():
        report.discrepancy_counts[check] = report.discrepancy_counts.get(check, 0) + n
    report.discrepancies.extend(kept[:KEPT_DISCREPANCIES - len(report.discrepancies)])


def _check_universe(report: ExhaustiveReport, check: str, states: list, successors, model, build=None) -> int:
    """Each row whole on a worker: s's successors, build(part, s, succs), then model.is_step of s against every state.

    The rows' build notes are merged first and their agreement notes after,
    each in row order, as one process deciding the rows in turn would have
    noted them. Returns the pairs decided.
    """
    index = {s: i for i, s in enumerate(states)}

    def rows(lo, hi):  # [build counts, dumps, successors, obligations], [agreement counts, dumps]
        built, agreed = ExhaustiveReport(bounds={}), ExhaustiveReport(bounds={})
        related = model.is_step  # looked up per chunk, so a relation patched on its module is the one checked
        for s in states[lo:hi]:
            succs = successors(s)
            ids = _successor_ids(built, index, s, succs)
            if build is not None:
                build(built, s, succs)
            for j, u in enumerate(states):
                r = related(s, u)
                if r != (j in ids):
                    agreed.note(check, s, u, relation=r, enumerated=not r)
        return [[built.discrepancy_counts, built.discrepancies, built.successors_checked, built.obligations_checked],
                [agreed.discrepancy_counts, agreed.discrepancies]]

    chunks = in_workers(len(states), rows)
    for (counts, kept, successors_checked, obligations_checked), _ in chunks:  # merged in row order
        _merge(report, counts, kept)
        report.successors_checked += successors_checked
        report.obligations_checked += obligations_checked
    for _, (counts, kept) in chunks:
        _merge(report, counts, kept)
    return len(states) ** 2


class BoundsError(Refused):
    """Bounds run_exhaustive refuses before building anything: a usage error, unlike any ValueError of the run."""


def run_exhaustive(peers: int, topics: int, messages: int, cap: int = 2000) -> ExhaustiveReport:
    """Cross-check relations, good-state preservation and obligations within bounds of at least one peer."""
    if min(peers, topics, messages) < 0:
        raise BoundsError("bounds must be non-negative")
    if peers < 1:
        raise BoundsError("at least one peer is needed: the empty network alone checks nothing")
    if estimate_flood_states(peers, topics, messages, cap) > cap:
        raise BoundsError(
            f"bounds ({peers} peers, {topics} topics, {messages} messages) "
            f"yield more flood states than {cap}, above the cap"
        )
    report = ExhaustiveReport(bounds={"peers": peers, "topics": topics, "messages": messages})
    pools = universe_pools(peers, topics, messages)
    # each function of this module is looked up when it is called, so one patched here is the one run
    flood_states = list(enumerate_flood_states(peers, topics, messages))
    report.flood_states = len(flood_states)
    report.flood_pairs_checked = _check_universe(
        report, "flood-relation-agreement", flood_states,
        lambda s: flood_successors(s, *pools), fn, _check_flood_successors,
    )
    broadcast_states = list(enumerate_broadcast_states(peers, topics, messages))
    report.broadcast_states = len(broadcast_states)
    report.broadcast_pairs_checked = _check_universe(
        report, "broadcast-relation-agreement", broadcast_states,
        lambda s: broadcast_successors(s, *pools), bn,
    )
    return report
