"""Trace events, state digests, and deterministic replay."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import flood_model as fn
from .core import Message, PeerId, Topic, canonical_json

EVENT_KINDS = fn.STEP_KINDS


class TraceError(ValueError):
    """A trace event was not enabled at its pre-state."""


def state_digest(s) -> str:
    """sha256 of the state's canonical JSON, computed once per state object.

    A replayed trace digests each state as the post-state of one step and
    again as the pre-state of the next.
    """
    return s.memo("digest", _digest)


def _digest(s) -> str:
    return hashlib.sha256(canonical_json(s.to_obj()).encode("utf-8")).hexdigest()


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
        obj: dict = {"index": self.index, "kind": self.kind}
        if self.peer is not None:
            obj["peer"] = self.peer
        if self.message is not None:
            obj["message"] = self.message.to_obj()
        if self.topics:
            obj["topics"] = list(self.topics)
        if self.pubs:
            obj["pubs"] = list(self.pubs)
        if self.subs:
            obj["subs"] = list(self.subs)
        if self.nbrs:
            obj["nbrs"] = list(self.nbrs)
        if self.pre_digest:
            obj["pre_digest"] = self.pre_digest
        if self.post_digest:
            obj["post_digest"] = self.post_digest
        return obj


def apply_event(s: fn.FloodState, ev: TraceEvent) -> fn.FloodState:
    """Apply one event, checking that it is enabled at s."""

    def fail(reason: str):
        raise TraceError(f"step {ev.index} ({ev.kind}): {reason}")

    match ev.kind:
        case "skip":
            return s
        case "produce":
            if ev.message is None:
                fail("produce needs a message")
            if not fn.can_produce(ev.message, s):
                fail(f"produce precondition fails for {ev.message}")
            return fn.produce(ev.message, s)
        case "forward":
            if ev.message is None:
                fail("forward needs a message")
            if ev.message not in fn.pending_messages(s):
                fail(f"message {ev.message} is not pending anywhere")
            forwarder = fn.find_forwarder(s, ev.message)
            if ev.peer is not None and ev.peer != forwarder:
                fail(f"peer {ev.peer} is not the designated forwarder {forwarder}")
            return fn.forward(forwarder, ev.message, s)
        case "subscribe":
            if ev.peer is None or ev.peer not in s:
                fail(f"peer {ev.peer} not in state")
            return fn.subscribe(ev.peer, ev.topics, s)
        case "unsubscribe":
            if ev.peer is None or ev.peer not in s:
                fail(f"peer {ev.peer} not in state")
            return fn.unsubscribe(ev.peer, ev.topics, s)
        case "join":
            if ev.peer is None:
                fail("join needs a peer")
            if ev.peer in s:
                fail(f"peer {ev.peer} already in state")
            if ev.peer in ev.nbrs:
                fail(f"peer {ev.peer} listed among its own neighbors")
            return fn.join(ev.peer, ev.pubs, ev.subs, ev.nbrs, s)
        case "leave":
            if ev.peer is None or ev.peer not in s:
                fail(f"peer {ev.peer} not in state")
            if s.get(ev.peer).pending:
                fail(f"peer {ev.peer} still has pending messages")
            return fn.leave(ev.peer, s)
        case _:
            fail(f"unknown event kind {ev.kind!r}")


def run_trace(s0: fn.FloodState, events) -> list[fn.FloodState]:
    """Replay events from s0, checking enabledness and any recorded digests."""
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
    once, through apply_event, which refuses it if it is not enabled
    (runner.fuzz_run does so for every generated step). Digests belong to
    scenario files, where run_trace verifies them.
    """
    return TraceEvent(index=index, kind=kind, **args)
