"""Built-in fault injections.

Each fault plants one specific bad step and checks it with check_step, the
path every fuzzed and replayed step takes; it must be caught with a
counterexample dump. The "none" control runs a small fuzz uncorrupted and
must pass. The faults double as a self-test that the checkers are not
vacuous.
"""

from __future__ import annotations

from dataclasses import replace

from . import flood_model as fn
from .checking import CheckReport, check_step
from .core import Message
from .generate import GeneratorConfig
from .runner import fuzz_run

_M = Message("fault-probe", "t0", 1)
_A, _B = sorted([_M, Message("fault-probe-2", "t0", 1)])


def _forward_state(**receiver):
    """Peer 1 holds _M pending and tracks peer 2, a subscriber of its topic."""
    return fn.FloodState(
        (
            (1, fn.FloodPeer(pubs=("t0",), nsubs=(("t0", (2,)),), pending=(_M,))),
            (2, fn.FloodPeer(subs=("t0",), **receiver)),
        )
    )


def _drop_receiver():
    # a buggy forward never delivers to the one subscribed neighbour
    s = _forward_state()
    return s, fn.forward(1, _M, s).with_peer(2, s.get(2)), "forward"


def _forward_to_self():
    # a buggy forward hands the message back to the sender's pending set;
    # the receiver has seen it, so the forward empties its last pending copy
    s = _forward_state(seen=(_M,))
    u = fn.forward(1, _M, s)
    return s, u.with_peer(1, replace(u.get(1), pending=(_M,))), "forward"


def _leave_with_pending():
    # peer 1 departs while still holding a pending message
    s = fn.FloodState(
        (
            (1, fn.FloodPeer(pubs=("t0",), pending=(_M,))),
            (2, fn.FloodPeer(subs=("t0",))),
        )
    )
    return s, s.without_peer(1), "leave"


def _lone_skip(**fields):
    s = fn.FloodState(((1, fn.FloodPeer(**fields)),))
    return s, s, "skip"


# (s, u, kind) of each fault that plants one bad step into a checked trace
_PLANTED = {
    "drop-receiver": _drop_receiver,
    # the generator's good-state filter is bypassed: peer 1 tracks itself
    "skip-good-check": lambda: _lone_skip(subs=("t0",), nsubs=(("t0", (1,)),)),
    "forward-to-self": _forward_to_self,
    "leave-with-pending": _leave_with_pending,
    "duplicate-seen": lambda: _lone_skip(seen=(_A, _A)),
    "unsorted-seen": lambda: _lone_skip(seen=(_B, _A)),
}

FAULTS = (*_PLANTED, "none")


def run_fault(fault: str) -> CheckReport:
    if fault == "none":
        clean = fuzz_run(GeneratorConfig(max_peers=4, max_topics=2, max_messages=3, steps=8, seed=7), traces=4)
        clean.config = {"fault": fault, **clean.config}
        return clean
    if fault not in _PLANTED:
        raise ValueError(f"unknown fault {fault!r}; choose one of {', '.join(FAULTS)}")
    s, u, kind = _PLANTED[fault]()
    report = CheckReport(config={"fault": fault})
    report.add(check_step(0, s, u, kind), s, u)
    return report
