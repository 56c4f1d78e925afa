"""The refinement map and the three well-founded-simulation obligations.

A flood state is viewed as a broadcast state by erasing nsubs and pending
and hiding every still-pending message from the seen sets: only fully
propagated ("committed") messages are visible on the specification side.

The combined system ranges over both state kinds; the Python type is the
tag. Two states are related when they are equal or when the second is the
refinement map of a good flood state. The obligations, each checkable on
concrete states:

  WFS1  every good flood state is related to its mapped state,
  WFS2  related states carry the same label,
  WFS3  every step from s to u is matched by a step from any related w to
        some v related to u. The matching v is built from the step's one
        classification, not searched for or replayed: a forward that
        empties a message's last pending copy maps to a partial broadcast
        to exactly the peers that end up having seen the message; every
        other flood step maps to the image of u (a skip when the image did
        not move). The first case of w's step to v is the step's match.

A failed verdict is a counterexample to the refinement theorem and carries
the offending states in its diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from . import broadcast_model as bn
from . import flood_model as fn
from .core import ContractError, difference

Borf = Union[bn.BroadcastState, fn.FloodState]


@lru_cache(maxsize=4096)
def refinement_map(s: fn.FloodState) -> bn.BroadcastState:
    """View a flood state as a broadcast state (the commitment map)."""
    hidden = fn.pending_messages(s)
    return bn.BroadcastState(
        tuple(
            (p, bn.BroadcastPeer(pst.pubs, pst.subs, difference(pst.seen, hidden)))
            for p, pst in s.entries
        )
    )


def label(x: Borf) -> bn.BroadcastState:
    """Labelling of the combined system: broadcast states label themselves."""
    if isinstance(x, fn.FloodState):
        return refinement_map(x)
    return x


def wf_related(x: Borf, y: Borf) -> bool:
    """x is a good flood state and y is its image."""
    return (
        isinstance(x, fn.FloodState)
        and isinstance(y, bn.BroadcastState)
        and fn.is_good_state(x)
        and y == refinement_map(x)
    )


def related(x: Borf, y: Borf) -> bool:
    return wf_related(x, y) or x == y


def combined_step_kinds(s: Borf, u: Borf) -> tuple[str, ...]:
    """Flood kinds between good flood states, spec kinds between broadcast states, else ()."""
    if isinstance(s, fn.FloodState) and isinstance(u, fn.FloodState):
        return fn.step_kinds(s, u) if fn.is_good_state(s) and fn.is_good_state(u) else ()
    if isinstance(s, bn.BroadcastState) and isinstance(u, bn.BroadcastState):
        return bn.step_kinds(s, u)
    return ()


def combined_step(s: Borf, u: Borf) -> bool:
    """Step relation of the combined system; mixed tags never step."""
    return bool(combined_step_kinds(s, u))


def matching_step(s: Borf, u: Borf, w: Borf) -> Borf:
    """The constructed v with combined_step(w, v) and related(u, v).

    Requires related(s, w) and combined_step(s, u).
    """
    if not related(s, w):
        raise ContractError("matching-step: s and w are not related")
    kinds = combined_step_kinds(s, u)
    if not kinds:
        raise ContractError("matching-step: s does not step to u")
    return _match(s, u, w, kinds)


def _match(s: Borf, u: Borf, w: Borf, kinds: tuple[str, ...]) -> Borf:
    """The match of the step s -> u classified as kinds; replays nothing.

    Unless s is a flood state and w its image, w equals s and takes the
    very same step to u.
    """
    if not (isinstance(s, fn.FloodState) and isinstance(w, bn.BroadcastState)):
        return u
    if "skip" in kinds:
        return w
    mu = refinement_map(u)
    if "forward" not in kinds or w == mu:
        return mu
    m = bn.message_witness(w, mu)
    if m is None:
        raise ContractError("matching-step: forward changed the mapped state without a witness message")
    return bn.broadcast_partial(m, bn.message_receivers(m, mu), w)


@dataclass(frozen=True)
class WfsVerdict:
    """Outcome of one obligation check.

    A verdict whose precondition failed is marked not applicable and never
    counts as a pass. Failed verdicts carry the violated conjunct and the
    states involved in diagnostics; WFS3 verdicts carry the constructed
    matching state as witness, and passing ones its first step case as match.
    """

    obligation: str
    passed: bool
    applicable: bool = True
    witness: object = None
    diagnostics: str = ""
    match: str | None = None

    def to_obj(self) -> dict:
        status = "pass" if self.passed else "fail"
        if not self.applicable:
            status = "not-applicable"
        obj = {"obligation": self.obligation, "status": status}
        if self.diagnostics:
            obj["diagnostics"] = self.diagnostics
        return obj


def _dump(tag: str, x: Borf) -> str:
    kind = "flood" if isinstance(x, fn.FloodState) else "broadcast"
    return f"{tag}[{kind}]={x.to_obj()}"


def check_wfs1(s: fn.FloodState) -> WfsVerdict:
    """Good flood states are related to their image under the map."""
    if not fn.is_good_state(s):
        return WfsVerdict("WFS1", False, applicable=False, diagnostics="state is not good")
    ok = related(s, refinement_map(s))
    diag = "" if ok else f"state not related to its image; {_dump('s', s)}"
    return WfsVerdict("WFS1", ok, diagnostics=diag)


def check_wfs2(s: Borf, w: Borf) -> WfsVerdict:
    """Related states have equal labels."""
    if not related(s, w):
        return WfsVerdict("WFS2", False, applicable=False, diagnostics="states are not related")
    ok = label(s) == label(w)
    diag = "" if ok else f"labels differ; {_dump('s', s)}; {_dump('w', w)}"
    return WfsVerdict("WFS2", ok, diagnostics=diag)


def check_wfs3(s: Borf, w: Borf, u: Borf, kinds: tuple[str, ...]) -> WfsVerdict:
    """Each step s -> u is matched by w -> v with u related to v; kinds is combined_step_kinds(s, u)."""
    if not related(s, w):
        return WfsVerdict("WFS3", False, applicable=False, diagnostics="states are not related")
    if not kinds:
        return WfsVerdict("WFS3", False, applicable=False, diagnostics="s does not step to u")
    try:
        v = _match(s, u, w, kinds)
    except ContractError as e:
        return WfsVerdict(
            "WFS3",
            False,
            diagnostics=f"matching step construction failed: {e}; "
            f"{_dump('s', s)}; {_dump('u', u)}; {_dump('w', w)}",
        )
    return check_match(s, u, w, v)


def check_match(s: Borf, u: Borf, w: Borf, v: Borf) -> WfsVerdict:
    """Validate the WFS3 witness v of the step s -> u: w steps to v and u is related to v."""
    kinds = combined_step_kinds(w, v)
    failures = []
    if not kinds:
        failures.append("w does not step to v")
    if not related(u, v):
        failures.append("u and v are not related")
    if failures:
        diag = (
            f"{'; '.join(failures)}; "
            f"{_dump('s', s)}; {_dump('u', u)}; {_dump('w', w)}; {_dump('v', v)}"
        )
        return WfsVerdict("WFS3", False, witness=v, diagnostics=diag)
    return WfsVerdict("WFS3", True, witness=v, match=kinds[0])
