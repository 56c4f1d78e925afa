"""Trace events, state digests, and deterministic replay.

Replay reads the flood model's CASES table: an event's kind names its
case, and the case names the transition and the event fields that are its
arguments. A forward without a peer is the one rule of its own: it goes
to the designated forwarder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from functools import lru_cache

from . import flood_model as fn
from .core import CACHE_SIZE, ContractError, Message, PeerId, Refused, Topic, canonical_json, memo


class TraceError(Refused):
    """A trace event was not enabled at its pre-state."""


def state_digest(s) -> str:
    """sha256 of the state's canonical JSON, computed once per state object.

    A replayed trace digests each state as the post-state of one step and
    again as the pre-state of the next. Each peer is encoded once per peer
    object and shared by the states that hold it, so a step re-encodes only
    the peers its transition replaced. A re-encoded peer joins texts from
    two tables bounded by CACHE_SIZE: message_json's, one per message, and
    _topic_fields_json's, one per (nsubs, pubs, subs); so no message and no
    topic map is encoded twice while its table holds it.
    """
    return s.memo("_digest", _digest)


def _digest(s) -> str:
    # exactly canonical_json(s.to_obj()): its keys sort as strings, so peer 10 precedes peer 2; an entry's
    # text opens with its key's digits after one quote, and any digit sorts after the closing quote, so
    # the entry texts sort as their keys do
    entries = sorted([f'"{p}":{memo(pst, "_json", _peer_json)}' for p, pst in s.entries])
    text = '{"peers":{' + ",".join(entries) + "}}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=CACHE_SIZE)
def message_json(m: Message) -> str:
    """canonical_json(m.to_obj()), encoded once while the table holds m.

    A message sits in the pending and seen sets of many peer objects, and a
    NamedTuple has no __dict__ to keep its text on.
    """
    return canonical_json(m.to_obj())


@lru_cache(maxsize=CACHE_SIZE)
def _topic_fields_json(nsubs, pubs, subs) -> tuple[str, str, str]:
    """The canonical JSON of a peer's three topic fields, which its transitions rarely change."""
    return canonical_json(dict(nsubs)), canonical_json(pubs), canonical_json(subs)


def _peer_json(pst) -> str:
    # exactly canonical_json(pst.to_obj()): its keys in sorted order, each value's text from a table
    nsubs, pubs, subs = _topic_fields_json(pst.nsubs, pst.pubs, pst.subs)
    pending, seen = ",".join(map(message_json, pst.pending)), ",".join(map(message_json, pst.seen))
    return f'{{"nsubs":{nsubs},"pending":[{pending}],"pubs":{pubs},"seen":[{seen}],"subs":{subs}}}'


@dataclass(frozen=True)
class TraceEvent:
    """One serialized transition; unused argument fields stay at their defaults.

    Digests are optional (hand-written scenarios may omit them, generated
    events carry none); replay verifies whichever ones are present.
    """

    index: int
    kind: str
    peer: PeerId | None = None
    message: Message | None = None
    topics: tuple[Topic, ...] = ()
    pubs: tuple[Topic, ...] = ()
    subs: tuple[Topic, ...] = ()
    nbrs: tuple[PeerId, ...] = ()
    pre_digest: str = ""
    post_digest: str = ""

    def to_obj(self) -> dict:
        """Every field that differs from its default; index and kind have none, so peer 0 and index 0 are kept."""
        obj = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value == f.default:
                continue
            if isinstance(value, Message):
                value = value.to_obj()
            elif isinstance(value, tuple):
                value = list(value)
            obj[f.name] = value
        return obj


def apply_event(s: fn.FloodState, ev: TraceEvent) -> fn.FloodState:
    """Call the transition of the event's case on the event's argument fields; its guard alone decides if it is enabled.

    A forward without a peer goes to find_forwarder(s, m), the one peer forward's guard accepts.
    """
    case = fn.CASES.get(ev.kind)
    if case is None:
        raise TraceError(f"step {ev.index} ({ev.kind}): unknown event kind {ev.kind!r}")
    try:
        if ev.kind == "forward" and ev.peer is None:
            ev = replace(ev, peer=fn.find_forwarder(s, ev.message))
        return getattr(fn, case.transition)(*[getattr(ev, f) for f in case.fields], s)
    except ContractError as e:
        reason = e
    raise TraceError(f"step {ev.index} ({ev.kind}): {reason}")


def run_trace(s0: fn.FloodState, events) -> list[fn.FloodState]:
    """Replay events from s0, verifying any recorded digests; a disabled event is refused."""
    states = [s0]
    for ev in events:
        pre = states[-1]
        if ev.pre_digest and ev.pre_digest != state_digest(pre):
            raise TraceError(f"step {ev.index} ({ev.kind}): pre-state digest mismatch")
        post = apply_event(pre, ev)
        if ev.post_digest and ev.post_digest != state_digest(post):
            raise TraceError(f"step {ev.index} ({ev.kind}): post-state digest mismatch")
        states.append(post)
    return states


def make_event(index: int, kind: str, **args) -> TraceEvent:
    """Build an event from generated arguments, without digests.

    The event is neither applied nor checked here: the caller applies it
    once, through apply_event, whose transition refuses it if it is not
    enabled (runner.fuzz_run does so for every generated step). Digests belong to
    scenario files, where run_trace verifies them.
    """
    return TraceEvent(index=index, kind=kind, **args)
