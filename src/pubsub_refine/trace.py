"""Trace events, state digests, and deterministic replay."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from . import flood_model as fn
from .core import ContractError, Message, PeerId, Topic, canonical_json, memo

EVENT_KINDS = fn.STEP_KINDS


class TraceError(ValueError):
    """A trace event was not enabled at its pre-state."""


def state_digest(s) -> str:
    """sha256 of the state's canonical JSON, computed once per state object.

    A replayed trace digests each state as the post-state of one step and
    again as the pre-state of the next. Each peer is encoded once per peer
    object and shared by the states that hold it, so a step re-encodes only
    the peers its transition replaced.
    """
    return s.memo("digest", _digest)


def _digest(s) -> str:
    # exactly canonical_json(s.to_obj()): its keys sort as strings, so peer 10 precedes peer 2
    peers = sorted((str(p), memo(pst, "json", _peer_json)) for p, pst in s.entries)
    text = '{"peers":{' + ",".join(f'"{p}":{obj}' for p, obj in peers) + "}}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _peer_json(pst) -> str:
    return canonical_json(pst.to_obj())


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
    """Apply one event by calling its transition, whose guard alone decides if it is enabled.

    A forward goes to find_forwarder(s, m); a peer the event names must be that one.
    """

    def fail(reason):
        raise TraceError(f"step {ev.index} ({ev.kind}): {reason}")

    try:
        match ev.kind:
            case "skip":
                return s
            case "produce":
                return fn.produce(ev.message, s)
            case "forward":
                forwarder = fn.find_forwarder(s, ev.message)
                if ev.peer not in (None, forwarder):
                    fail(f"peer {ev.peer} is not the designated forwarder {forwarder}")
                return fn.forward(forwarder, ev.message, s)
            case "subscribe":
                return fn.subscribe(ev.peer, ev.topics, s)
            case "unsubscribe":
                return fn.unsubscribe(ev.peer, ev.topics, s)
            case "join":
                return fn.join(ev.peer, ev.pubs, ev.subs, ev.nbrs, s)
            case "leave":
                return fn.leave(ev.peer, s)
            case _:
                fail(f"unknown event kind {ev.kind!r}")
    except ContractError as e:
        fail(e)


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
