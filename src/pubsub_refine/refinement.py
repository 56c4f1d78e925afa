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
        some v related to u. That v is fixed, not built: it is label(u)
        when w is a broadcast state and u itself when w is a flood state,
        because steps never change the tag and those are the only states
        of w's tag related to u. The check is that w steps to v and that u
        is related to v; the match is combined_step_kind(w, v), the first
        case of that step, and no later case is tried.

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


def combined_step_kind(s: Borf, u: Borf) -> str | None:
    """The first case of the step s -> u: a flood kind between good flood
    states, a spec kind between broadcast states; None if there is no step."""
    if isinstance(s, fn.FloodState) and isinstance(u, fn.FloodState):
        kinds = fn.step_kinds(s, u) if fn.is_good_state(s) and fn.is_good_state(u) else ()
        return kinds[0] if kinds else None
    if isinstance(s, bn.BroadcastState) and isinstance(u, bn.BroadcastState):
        return bn.step_kind(s, u)
    return None


def combined_step(s: Borf, u: Borf) -> bool:
    """Step relation of the combined system; mixed tags never step."""
    return combined_step_kind(s, u) is not None


def matching_step(s: Borf, u: Borf, w: Borf) -> Borf:
    """The one v that can match s -> u from w: label(u) for a broadcast w, else u.

    Requires related(s, w) and combined_step(s, u).
    """
    if not related(s, w):
        raise ContractError("matching-step: s and w are not related")
    if not combined_step(s, u):
        raise ContractError("matching-step: s does not step to u")
    return _match(u, w)


def _match(u: Borf, w: Borf) -> Borf:
    """The only state of w's tag related to u; w's step to it is what WFS3 checks."""
    return label(u) if isinstance(w, bn.BroadcastState) else u


@dataclass(frozen=True)
class WfsVerdict:
    """Outcome of one obligation check.

    A verdict whose precondition failed is marked not applicable and never
    counts as a pass. Failed verdicts carry the violated conjunct and the
    states involved in diagnostics; WFS3 verdicts carry their witness v, the
    one state of w's tag related to u (label(u) for a broadcast w), and
    passing ones the first case of w's step to v as match.
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
    """Each step s -> u is matched by w -> v with u related to v.

    kinds are the cases of the step s -> u, empty when there is none: for
    flood states fn.step_kinds(s, u) if both are good, else ().
    v is label(u) for a broadcast w and u for a flood w: no other state of
    w's tag is related to u, so it is the only witness to check.
    """
    if not related(s, w):
        return WfsVerdict("WFS3", False, applicable=False, diagnostics="states are not related")
    if not kinds:
        return WfsVerdict("WFS3", False, applicable=False, diagnostics="s does not step to u")
    return check_match(s, u, w, _match(u, w))


def check_match(s: Borf, u: Borf, w: Borf, v: Borf) -> WfsVerdict:
    """Validate the WFS3 witness v of the step s -> u: w steps to v and u is related to v."""
    kind = combined_step_kind(w, v)
    failures = []
    if kind is None:
        failures.append("w does not step to v")
    if not related(u, v):
        failures.append("u and v are not related")
    if failures:
        diag = (
            f"{'; '.join(failures)}; "
            f"{_dump('s', s)}; {_dump('u', u)}; {_dump('w', w)}; {_dump('v', v)}"
        )
        return WfsVerdict("WFS3", False, witness=v, diagnostics=diag)
    return WfsVerdict("WFS3", True, witness=v, match=kind)
