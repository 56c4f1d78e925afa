"""Seeded random generation of good flood states and enabled transitions.

Everything is driven by a single random.Random stream, and every pool is a
sorted tuple before sampling, so identical (config, seed) pairs reproduce
identical runs byte for byte. Generation samples a transition kind by
weight first and only then looks for arguments; a kind with no enabled
arguments falls back to a skip, which is always enabled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import flood_model as fn
from .core import Message, ordered_set
from .trace import TraceEvent, make_event

CHURN_KINDS = ("subscribe", "unsubscribe", "join", "leave")


def default_weights() -> dict[str, float]:
    return {
        "skip": 0.5,
        "produce": 2.0,
        "forward": 3.0,
        "subscribe": 1.0,
        "unsubscribe": 1.0,
        "join": 1.0,
        "leave": 1.0,
    }


@dataclass(frozen=True)
class GeneratorConfig:
    max_peers: int = 8
    max_topics: int = 4
    max_messages: int = 6
    steps: int = 10
    seed: int = 0
    weights: dict = field(default_factory=default_weights)
    static: bool = False

    def __post_init__(self):
        for name in ("max_peers", "max_topics", "max_messages", "steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        unknown = set(self.weights) - set(fn.STEP_KINDS)
        if unknown:
            raise ValueError(f"unknown transition kinds in weights: {sorted(unknown)}")
        bad = sorted(k for k, w in self.weights.items() if not 0 <= float(w) < math.inf)
        if bad:
            raise ValueError(f"weights must be finite and non-negative: {', '.join(bad)}")
        if not any(w > 0 for w in self.effective_weights().values()):
            raise ValueError("at least one transition weight must be positive")

    def effective_weights(self) -> dict[str, float]:
        weights = {k: float(self.weights.get(k, 0.0)) for k in fn.STEP_KINDS}
        if self.static:
            for kind in CHURN_KINDS:
                weights[kind] = 0.0
        return weights

    def topic_pool(self) -> tuple[str, ...]:
        return tuple(f"t{j}" for j in range(self.max_topics))

    def payload_pool(self) -> tuple[str, ...]:
        return tuple(f"m{i}" for i in range(self.max_messages))

    def to_obj(self) -> dict:
        return {
            "max_peers": self.max_peers,
            "max_topics": self.max_topics,
            "max_messages": self.max_messages,
            "steps": self.steps,
            "seed": self.seed,
            "weights": dict(sorted(self.effective_weights().items())),
            "static": self.static,
        }


def _sample_subset(rng: random.Random, pool, most=None):
    if not pool:
        return ()
    most = len(pool) if most is None else min(most, len(pool))
    return ordered_set(rng.sample(list(pool), rng.randint(0, most)))


def gen_good_state(cfg: GeneratorConfig, rng: random.Random) -> fn.FloodState:
    """A random flood state satisfying both good-state invariants.

    Peer ids are drawn from twice the peer budget so joins have room and
    id gaps occur; nsubs occasionally points at an absent peer (a stale
    neighbor), never at the owner. Pending and seen are filled from a
    bounded message pool; a message may be pending at one peer and seen at
    another, as happens mid-flood.
    """
    n = rng.randint(0, cfg.max_peers)
    ids = ordered_set(rng.sample(range(2 * cfg.max_peers + 1), n)) if n else ()
    topics = cfg.topic_pool()
    pool = []
    if ids and topics:
        for payload in cfg.payload_pool():
            pool.append(Message(payload, rng.choice(topics), rng.choice(ids)))
    pool = ordered_set(pool)
    entries = []
    for p in ids:
        pubs = _sample_subset(rng, topics)
        subs = _sample_subset(rng, topics)
        nsubs = []
        others = tuple(q for q in ids if q != p)
        phantom = (max(ids) + 1 + rng.randint(0, 2),) if rng.random() < 0.15 else ()
        for tp in _sample_subset(rng, topics):
            targets = _sample_subset(rng, others + phantom, most=3)
            if targets:
                nsubs.append((tp, targets))
        seen = _sample_subset(rng, pool, most=3)
        loose = tuple(m for m in pool if m not in seen)
        pending = list(_sample_subset(rng, loose, most=2))
        rng.shuffle(pending)  # pending is insertion-ordered, not sorted
        entries.append((p, fn.FloodPeer(pubs, subs, tuple(nsubs), tuple(pending), seen)))
    return fn.FloodState(tuple(entries))


def _produce_candidates(cfg: GeneratorConfig, s: fn.FloodState):
    """Every message some peer may produce at s, in pool, peer and topic order.

    Each is a (payload, topic, origin) tuple; only the one drawn becomes a
    Message.
    """
    held = {  # the messages fn.is_new_message rules out
        (m.payload, m.topic, m.origin) for _, pst in s.entries for m in pst.seen + pst.pending
    }
    out = []
    for payload in cfg.payload_pool():
        for p, pst in s.entries:
            for tp in pst.pubs:
                if (payload, tp, p) not in held:
                    out.append((payload, tp, p))
    return out


def gen_enabled_transition(s: fn.FloodState, cfg: GeneratorConfig, rng: random.Random, index: int = 0) -> TraceEvent:
    """Sample one enabled transition from s as a replayable event.

    The event is built, not applied: the caller applies it once with
    trace.apply_event, which also re-checks that it is enabled at s.
    """
    weights = cfg.effective_weights()
    kinds = tuple(k for k in fn.STEP_KINDS if weights[k] > 0)
    kind = rng.choices(kinds, weights=[weights[k] for k in kinds])[0]

    if kind == "produce":
        candidates = _produce_candidates(cfg, s)
        if candidates:
            return make_event(index, "produce", message=Message(*rng.choice(candidates)))
    elif kind == "forward":
        pending = fn.pending_messages(s)
        if pending:
            m = rng.choice(pending)
            return make_event(index, "forward", peer=fn.find_forwarder(s, m), message=m)
    elif kind == "subscribe":
        if s.entries and cfg.max_topics:
            p = rng.choice(s.keys())
            topics = _sample_subset(rng, cfg.topic_pool())
            return make_event(index, "subscribe", peer=p, topics=topics)
    elif kind == "unsubscribe":
        if s.entries and cfg.max_topics:
            p = rng.choice(s.keys())
            topics = _sample_subset(rng, cfg.topic_pool())
            return make_event(index, "unsubscribe", peer=p, topics=topics)
    elif kind == "join":
        if len(s.entries) < cfg.max_peers:
            free = tuple(q for q in range(2 * cfg.max_peers + 1) if q not in s)
            if free:
                p = rng.choice(free)
                return make_event(
                    index,
                    "join",
                    peer=p,
                    pubs=_sample_subset(rng, cfg.topic_pool()),
                    subs=_sample_subset(rng, cfg.topic_pool()),
                    nbrs=_sample_subset(rng, s.keys()),
                )
    elif kind == "leave":
        graceful = tuple(p for p, pst in s.entries if not pst.pending)
        if graceful:
            return make_event(index, "leave", peer=rng.choice(graceful))

    return make_event(index, "skip")
