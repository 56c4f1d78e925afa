import random

import pytest

from pubsub_refine import flood_model as fn
from pubsub_refine.checking import NothingChecked
from pubsub_refine.core import Message
from pubsub_refine.generate import (
    CHURN_KINDS,
    GeneratorConfig,
    _produce_candidates,
    gen_enabled_transition,
    gen_good_state,
)
from pubsub_refine.runner import fuzz_run
from pubsub_refine.trace import apply_event


def test_zero_peers_gives_empty_state():
    cfg = GeneratorConfig(max_peers=0)
    assert gen_good_state(cfg, random.Random(0)) == fn.FloodState()


def test_generated_states_are_good():
    cfg = GeneratorConfig(max_peers=8, max_topics=4, max_messages=6)
    rng = random.Random(3)
    for _ in range(10_000):
        s = gen_good_state(cfg, rng)
        assert fn.is_good_state(s)
        assert len(s.entries) <= cfg.max_peers
        for _, pst in s.entries:
            for m in pst.pending + pst.seen:
                assert m.topic in cfg.topic_pool()
                assert m.origin in s.keys()


def test_generation_is_deterministic():
    cfg = GeneratorConfig(seed=99)
    a = gen_good_state(cfg, random.Random(cfg.seed))
    b = gen_good_state(cfg, random.Random(cfg.seed))
    assert a == b


def test_generated_steps_satisfy_the_relation():
    # the acceptance config, with churn and static, also forwards to several
    # receivers, so a pending total that grows (frames(u)[4] > frames(s)[4])
    # meets the frame gate of is_step; no enumerated bound reaches such a forward
    for cfg in (
        GeneratorConfig(max_peers=5, max_topics=3, max_messages=4, steps=1),
        GeneratorConfig(max_peers=8, max_topics=4, max_messages=6, steps=1),
        GeneratorConfig(max_peers=8, max_topics=4, max_messages=6, steps=1, static=True),
    ):
        rng = random.Random(11)
        s = gen_good_state(cfg, rng)
        wide = 0
        for i in range(300):
            ev = gen_enabled_transition(s, cfg, rng, index=i)
            u = apply_event(s, ev)
            assert fn.is_step(s, u), (cfg, ev)
            assert fn.is_good_state(u)
            wide += ev.kind == "forward" and fn.frames(u)[4] > fn.frames(s)[4]
            s = u
        assert wide > 0, cfg


def test_produce_events_satisfy_their_precondition():
    cfg = GeneratorConfig(max_peers=4, max_topics=2, max_messages=3,
                          weights={"produce": 1.0})
    rng = random.Random(5)
    hits = 0
    for _ in range(100):
        s = gen_good_state(cfg, rng)
        ev = gen_enabled_transition(s, cfg, rng)
        if ev.kind == "produce":
            hits += 1
            fn.produce(ev.message, s)  # its guard raises ContractError if the event is not enabled
    assert hits > 10


def test_forward_uses_designated_forwarder():
    cfg = GeneratorConfig(max_peers=5, max_topics=2, max_messages=4,
                          weights={"forward": 1.0})
    rng = random.Random(6)
    hits = 0
    for _ in range(200):
        s = gen_good_state(cfg, rng)
        ev = gen_enabled_transition(s, cfg, rng)
        if ev.kind == "forward":
            hits += 1
            assert ev.peer == fn.find_forwarder(s, ev.message)
    assert hits > 20


def test_leave_only_picks_graceful_peers():
    cfg = GeneratorConfig(max_peers=5, max_topics=2, max_messages=4,
                          weights={"leave": 1.0})
    rng = random.Random(7)
    for _ in range(100):
        s = gen_good_state(cfg, rng)
        ev = gen_enabled_transition(s, cfg, rng)
        if ev.kind == "leave":
            assert s.get(ev.peer).pending == ()


def test_skip_fallback_when_kind_unenabled():
    cfg = GeneratorConfig(max_peers=4, weights={"leave": 1.0})
    ev = gen_enabled_transition(fn.FloodState(), cfg, random.Random(0))
    assert ev.kind == "skip"


def test_static_mode_disables_churn():
    cfg = GeneratorConfig(max_peers=6, max_topics=3, max_messages=4, static=True)
    assert all(cfg.effective_weights()[k] == 0 for k in CHURN_KINDS)
    rng = random.Random(8)
    s = gen_good_state(cfg, rng)
    for i in range(100):
        ev = gen_enabled_transition(s, cfg, rng, index=i)
        assert ev.kind in ("skip", "produce", "forward")
        s = apply_event(s, ev)


def test_config_validation():
    with pytest.raises(ValueError, match="non-negative"):
        GeneratorConfig(max_peers=-1)
    with pytest.raises(ValueError, match="unknown transition kinds"):
        GeneratorConfig(weights={"teleport": 1.0})
    with pytest.raises(ValueError, match="positive"):
        GeneratorConfig(weights={"skip": 0.0})
    with pytest.raises(NothingChecked):
        # a run of skips alone checks nothing
        fuzz_run(GeneratorConfig(weights={"skip": 1.0}), traces=2).ok
    with pytest.raises(ValueError, match="positive"):
        # static mode zeroes the only weighted kind
        GeneratorConfig(weights={"join": 1.0}, static=True)
    with pytest.raises(NothingChecked):
        # without a message to draw, produce and forward fall back to skip
        fuzz_run(GeneratorConfig(max_messages=0, weights={"produce": 1.0, "forward": 1.0}), traces=2).ok
    GeneratorConfig(max_messages=0, weights={"forward": 1.0, "subscribe": 1.0})  # well formed: its run decides the rest


def test_produce_candidates_keep_every_new_message_in_order():
    cfg = GeneratorConfig(max_peers=6, max_topics=3, max_messages=5)
    rng = random.Random(13)
    excluded = 0
    for _ in range(300):
        s = gen_good_state(cfg, rng)
        for i in range(5):  # walk a few steps so produced and forwarded messages are held too
            every = [
                Message(payload, tp, p)
                for payload in cfg.payload_pool()
                for p, pst in s.entries
                for tp in pst.pubs
            ]
            expected = [m for m in every if fn.is_new_message(m, s)]
            assert [Message(*c) for c in _produce_candidates(cfg, s)] == expected
            excluded += len(every) - len(expected)
            s = apply_event(s, gen_enabled_transition(s, cfg, rng, index=i))
    assert excluded > 100  # held messages were really ruled out
