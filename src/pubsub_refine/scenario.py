"""Scenario files: a JSON flood state plus a list of events.

The accepted shape is

    {
      "state": {"peers": {"<id>": {"pubs": [...], "subs": [...],
                                   "nsubs": {"<topic>": [ids]},
                                   "pending": [msgs], "seen": [msgs]}}},
      "events": [{"kind": "...", ...}, ...]
    }

with messages written as {"pld": text, "tp": text, "or": id}. Parsing
rejects anything violating the state invariants (unsorted or duplicated
topic/message sets, self-tracking nsubs entries) and reports the JSON path
of the offence; empty nsubs entries are normalized away rather than
rejected. Emitting a parsed document reproduces its meaning exactly.
"""

from __future__ import annotations

import json

from . import flood_model as fn
from .core import Message, Refused, is_ascending
from .trace import TraceEvent


class ScenarioError(Refused):
    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(cond: bool, path: str, template: str, *args):
    """Refuse at path unless cond, with template.format(*args), a set read as its sorted list, formatted only then."""
    if not cond:
        raise ScenarioError(template.format(*[sorted(a) if isinstance(a, set) else a for a in args]), path)


def _parse_topic(obj, path) -> str:
    _require(isinstance(obj, str) and obj != "", path, "topic must be a non-empty string")
    return obj


def _parse_natural(obj, what: str, path) -> int:
    _require(isinstance(obj, int) and not isinstance(obj, bool) and obj >= 0,
             path, "{} must be a non-negative integer", what)
    return obj


def _parse_peer_id(obj, path) -> int:
    return _parse_natural(obj, "peer id", path)


def _parse_message(obj, path) -> Message:
    _require(isinstance(obj, dict), path, "message must be an object")
    extra = set(obj) - {"pld", "tp", "or"}
    _require(not extra, path, "unknown message fields {}", extra)
    _require("pld" in obj and "tp" in obj and "or" in obj, path, "message needs pld, tp and or")
    _require(isinstance(obj["pld"], str), f"{path}.pld", "payload must be a string")
    _parse_topic(obj["tp"], f"{path}.tp")
    _parse_peer_id(obj["or"], f"{path}.or")
    return Message.from_obj(obj)


def _parse_digest(obj, key: str, path) -> str:
    digest = obj.get(key, "")  # an empty digest is not verified
    _require(isinstance(digest, str), f"{path}.{key}", "digest must be a string")
    return digest


def _parse_topic_set(obj, path) -> tuple[str, ...]:
    _require(isinstance(obj, list), path, "expected a list of topics")
    topics = tuple(_parse_topic(t, f"{path}[{i}]") for i, t in enumerate(obj))
    _require(is_ascending(topics), path, "topic set must be strictly ascending")
    return topics


def _parse_peer_set(obj, path) -> tuple[int, ...]:
    _require(isinstance(obj, list), path, "expected a list of peer ids")
    ids = tuple(_parse_peer_id(q, f"{path}[{i}]") for i, q in enumerate(obj))
    _require(is_ascending(ids), path, "peer set must be strictly ascending")
    return ids


def _parse_message_list(obj, path, ordered: bool) -> tuple[Message, ...]:
    _require(isinstance(obj, list), path, "expected a list of messages")
    msgs = tuple(_parse_message(m, f"{path}[{i}]") for i, m in enumerate(obj))
    if ordered:
        _require(is_ascending(msgs), path, "seen set must be strictly ascending")
    else:
        _require(len(set(msgs)) == len(msgs), path, "pending set must be duplicate-free")
    return msgs


def _parse_peer_state(p: int, obj, path) -> fn.FloodPeer:
    _require(isinstance(obj, dict), path, "peer state must be an object")
    extra = set(obj) - {"pubs", "subs", "nsubs", "pending", "seen"}
    _require(not extra, path, "unknown peer fields {}", extra)
    pubs = _parse_topic_set(obj.get("pubs", []), f"{path}.pubs")
    subs = _parse_topic_set(obj.get("subs", []), f"{path}.subs")
    nsubs = []
    nsubs_obj = obj.get("nsubs", {})
    _require(isinstance(nsubs_obj, dict), f"{path}.nsubs", "nsubs must be an object")
    for tp, peers in nsubs_obj.items():
        tp_path = f"{path}.nsubs.{tp}"
        _parse_topic(tp, tp_path)
        ids = _parse_peer_set(peers, tp_path)
        _require(p not in ids, tp_path, "peer {} tracks itself under topic {!r} (good-state invariant 1)", p, tp)
        if ids:  # empty entries are normalized away
            nsubs.append((tp, ids))
    nsubs.sort()
    pending = _parse_message_list(obj.get("pending", []), f"{path}.pending", ordered=False)
    seen = _parse_message_list(obj.get("seen", []), f"{path}.seen", ordered=True)
    return fn.FloodPeer(pubs, subs, tuple(nsubs), pending, seen)


def parse_state(obj, path: str = "state") -> fn.FloodState:
    _require(isinstance(obj, dict), path, "state must be an object")
    _require(set(obj) <= {"peers"}, path, "state has exactly one field: peers")
    peers_obj = obj.get("peers", {})
    _require(isinstance(peers_obj, dict), f"{path}.peers", "peers must be an object")
    entries = []
    for key, pst_obj in peers_obj.items():
        peer_path = f"{path}.peers.{key}"
        _require(isinstance(key, str) and key.isascii() and key.isdigit(),
                 peer_path, "peer key must be a string of ASCII digits")
        try:
            p = int(key)
        except ValueError as e:  # more digits than int() converts
            raise ScenarioError(str(e), peer_path) from e
        entries.append((p, _parse_peer_state(p, pst_obj, peer_path)))
    entries.sort(key=lambda e: e[0])
    ids = [p for p, _ in entries]
    _require(len(set(ids)) == len(ids), f"{path}.peers", "duplicate peer ids")
    return fn.FloodState(tuple(entries))


# the parser of each event field that is an argument of a transition
_EVENT_FIELDS = {"peer": _parse_peer_id, "message": _parse_message, "topics": _parse_topic_set,
                 "pubs": _parse_topic_set, "subs": _parse_topic_set, "nbrs": _parse_peer_set}
# kind -> (the fields its events may carry, those they must): a peer and a message must be named,
# except a forward's peer (replay finds the designated forwarder); topic and neighbour sets default to empty
_EVENT_KEYS = {
    kind: (frozenset(case.fields) | {"kind", "index", "pre_digest", "post_digest"},
           frozenset(case.fields) & ({"message"} if kind == "forward" else {"peer", "message"}))
    for kind, case in fn.CASES.items()
}


def _parse_event(obj, index: int, path: str) -> TraceEvent:
    _require(isinstance(obj, dict), path, "event must be an object")
    kind = obj.get("kind")
    _require(kind in fn.STEP_KINDS, f"{path}.kind", "unknown event kind {!r}", kind)
    allowed, required = _EVENT_KEYS[kind]
    extra = obj.keys() - allowed
    _require(not extra, path, "fields {} not allowed for kind {!r}", extra, kind)
    missing = required - obj.keys()
    _require(not missing, path, "fields {} required for kind {!r}", missing, kind)
    # an absent argument keeps TraceEvent's default and is not parsed
    args = {f: _EVENT_FIELDS[f](obj[f], f"{path}.{f}") for f in fn.CASES[kind].fields if f in obj}
    return TraceEvent(
        index=_parse_natural(obj.get("index", index), "event index", f"{path}.index"),
        kind=kind,
        pre_digest=_parse_digest(obj, "pre_digest", path),
        post_digest=_parse_digest(obj, "post_digest", path),
        **args,
    )


def parse_scenario(document: str) -> tuple[fn.FloodState, list[TraceEvent]]:
    """Parse a scenario document into its initial state and event list."""
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON: {e.msg}", f"line {e.lineno} column {e.colno}") from e
    except (RecursionError, ValueError) as e:  # nesting or integer beyond the decoder's limits
        raise ScenarioError(f"invalid JSON: {e}", "$") from e
    _require(isinstance(obj, dict), "$", "document must be an object")
    extra = set(obj) - {"state", "events"}
    _require(not extra, "$", "unknown document fields {}", extra)
    _require("state" in obj, "$", "document needs a state")
    state = parse_state(obj["state"], "state")
    events_obj = obj.get("events", [])
    _require(isinstance(events_obj, list), "events", "events must be a list")
    events = [
        _parse_event(ev, i, f"events[{i}]") for i, ev in enumerate(events_obj)
    ]
    return state, events


def emit_scenario(state: fn.FloodState, events) -> str:
    """The scenario as a file people read and edit: sorted keys, indented by two, one final newline."""
    obj = {"state": state.to_obj(), "events": [ev.to_obj() for ev in events]}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_scenario(path) -> tuple[fn.FloodState, list[TraceEvent]]:
    """Parse the scenario file at path; a file that cannot be read is refused with the OSError's text."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            document = f.read()
    except UnicodeDecodeError as e:
        raise ScenarioError(f"file is not UTF-8: {e.reason}", f"byte {e.start}") from e
    except OSError as e:
        raise Refused(str(e)) from e
    return parse_scenario(document)
