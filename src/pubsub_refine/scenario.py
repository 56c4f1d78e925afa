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
from .core import Message, is_ascending
from .trace import TraceEvent


class ScenarioError(ValueError):
    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(cond: bool, message: str, path: str):
    if not cond:
        raise ScenarioError(message, path)


def _parse_topic(obj, path) -> str:
    _require(isinstance(obj, str) and obj != "", "topic must be a non-empty string", path)
    return obj


def _parse_natural(obj, what: str, path) -> int:
    _require(isinstance(obj, int) and not isinstance(obj, bool) and obj >= 0,
             f"{what} must be a non-negative integer", path)
    return obj


def _parse_peer_id(obj, path) -> int:
    return _parse_natural(obj, "peer id", path)


def _parse_message(obj, path) -> Message:
    _require(isinstance(obj, dict), "message must be an object", path)
    extra = set(obj) - {"pld", "tp", "or"}
    _require(not extra, f"unknown message fields {sorted(extra)}", path)
    _require("pld" in obj and "tp" in obj and "or" in obj, "message needs pld, tp and or", path)
    _require(isinstance(obj["pld"], str), "payload must be a string", f"{path}.pld")
    _parse_topic(obj["tp"], f"{path}.tp")
    _parse_peer_id(obj["or"], f"{path}.or")
    return Message.from_obj(obj)


def _parse_digest(obj, key: str, path) -> str:
    digest = obj.get(key, "")  # an empty digest is not verified
    _require(isinstance(digest, str), "digest must be a string", f"{path}.{key}")
    return digest


def _parse_topic_set(obj, path) -> tuple[str, ...]:
    _require(isinstance(obj, list), "expected a list of topics", path)
    topics = tuple(_parse_topic(t, f"{path}[{i}]") for i, t in enumerate(obj))
    _require(is_ascending(topics), "topic set must be strictly ascending", path)
    return topics


def _parse_message_list(obj, path, ordered: bool) -> tuple[Message, ...]:
    _require(isinstance(obj, list), "expected a list of messages", path)
    msgs = tuple(_parse_message(m, f"{path}[{i}]") for i, m in enumerate(obj))
    if ordered:
        _require(is_ascending(msgs), "seen set must be strictly ascending", path)
    else:
        _require(len(set(msgs)) == len(msgs), "pending set must be duplicate-free", path)
    return msgs


def _parse_peer_state(p: int, obj, path) -> fn.FloodPeer:
    _require(isinstance(obj, dict), "peer state must be an object", path)
    extra = set(obj) - {"pubs", "subs", "nsubs", "pending", "seen"}
    _require(not extra, f"unknown peer fields {sorted(extra)}", path)
    pubs = _parse_topic_set(obj.get("pubs", []), f"{path}.pubs")
    subs = _parse_topic_set(obj.get("subs", []), f"{path}.subs")
    nsubs = []
    nsubs_obj = obj.get("nsubs", {})
    _require(isinstance(nsubs_obj, dict), "nsubs must be an object", f"{path}.nsubs")
    for tp, peers in nsubs_obj.items():
        tp_path = f"{path}.nsubs.{tp}"
        _parse_topic(tp, tp_path)
        _require(isinstance(peers, list), "expected a list of peer ids", tp_path)
        ids = tuple(_parse_peer_id(q, f"{tp_path}[{i}]") for i, q in enumerate(peers))
        _require(is_ascending(ids), "peer set must be strictly ascending", tp_path)
        _require(p not in ids,
                 f"peer {p} tracks itself under topic {tp!r} (good-state invariant 1)", tp_path)
        if ids:  # empty entries are normalized away
            nsubs.append((tp, ids))
    nsubs.sort()
    pending = _parse_message_list(obj.get("pending", []), f"{path}.pending", ordered=False)
    seen = _parse_message_list(obj.get("seen", []), f"{path}.seen", ordered=True)
    return fn.FloodPeer(pubs, subs, tuple(nsubs), pending, seen)


def parse_state(obj, path: str = "state") -> fn.FloodState:
    _require(isinstance(obj, dict), "state must be an object", path)
    _require(set(obj) <= {"peers"}, "state has exactly one field: peers", path)
    peers_obj = obj.get("peers", {})
    _require(isinstance(peers_obj, dict), "peers must be an object", f"{path}.peers")
    entries = []
    for key, pst_obj in peers_obj.items():
        peer_path = f"{path}.peers.{key}"
        _require(isinstance(key, str) and key.isascii() and key.isdigit(),
                 "peer key must be a string of ASCII digits", peer_path)
        try:
            p = int(key)
        except ValueError as e:  # more digits than int() converts
            raise ScenarioError(str(e), peer_path) from e
        entries.append((p, _parse_peer_state(p, pst_obj, peer_path)))
    entries.sort(key=lambda e: e[0])
    ids = [p for p, _ in entries]
    _require(len(set(ids)) == len(ids), "duplicate peer ids", f"{path}.peers")
    return fn.FloodState(tuple(entries))


def _parse_event(obj, index: int, path: str) -> TraceEvent:
    _require(isinstance(obj, dict), "event must be an object", path)
    kind = obj.get("kind")
    _require(kind in fn.STEP_KINDS, f"unknown event kind {kind!r}", f"{path}.kind")
    taken = set(fn.CASES[kind].fields)  # the arguments of the kind's transition
    # a peer and a message must be named, except a forward's peer (replay finds the designated
    # forwarder); topic and neighbour sets default to empty
    required = taken & ({"message"} if kind == "forward" else {"peer", "message"})
    extra = set(obj) - taken - {"kind", "index", "pre_digest", "post_digest"}
    _require(not extra, f"fields {sorted(extra)} not allowed for kind {kind!r}", path)
    missing = required - set(obj)
    _require(not missing, f"fields {sorted(missing)} required for kind {kind!r}", path)
    peer = None
    if "peer" in obj:
        peer = _parse_peer_id(obj["peer"], f"{path}.peer")
    message = None
    if "message" in obj:
        message = _parse_message(obj["message"], f"{path}.message")
    topics = _parse_topic_set(obj.get("topics", []), f"{path}.topics")
    pubs = _parse_topic_set(obj.get("pubs", []), f"{path}.pubs")
    subs = _parse_topic_set(obj.get("subs", []), f"{path}.subs")
    nbrs_obj = obj.get("nbrs", [])
    _require(isinstance(nbrs_obj, list), "nbrs must be a list", f"{path}.nbrs")
    nbrs = tuple(_parse_peer_id(q, f"{path}.nbrs[{i}]") for i, q in enumerate(nbrs_obj))
    _require(is_ascending(nbrs), "nbrs must be strictly ascending", f"{path}.nbrs")
    return TraceEvent(
        index=_parse_natural(obj.get("index", index), "event index", f"{path}.index"),
        kind=kind,
        peer=peer,
        message=message,
        topics=topics,
        pubs=pubs,
        subs=subs,
        nbrs=nbrs,
        pre_digest=_parse_digest(obj, "pre_digest", path),
        post_digest=_parse_digest(obj, "post_digest", path),
    )


def parse_scenario(document: str) -> tuple[fn.FloodState, list[TraceEvent]]:
    """Parse a scenario document into its initial state and event list."""
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON: {e.msg}", f"line {e.lineno} column {e.colno}") from e
    except (RecursionError, ValueError) as e:  # nesting or integer beyond the decoder's limits
        raise ScenarioError(f"invalid JSON: {e}", "$") from e
    _require(isinstance(obj, dict), "document must be an object", "$")
    extra = set(obj) - {"state", "events"}
    _require(not extra, f"unknown document fields {sorted(extra)}", "$")
    _require("state" in obj, "document needs a state", "$")
    state = parse_state(obj["state"], "state")
    events_obj = obj.get("events", [])
    _require(isinstance(events_obj, list), "events must be a list", "events")
    events = [
        _parse_event(ev, i, f"events[{i}]") for i, ev in enumerate(events_obj)
    ]
    return state, events


def emit_scenario(state: fn.FloodState, events) -> str:
    """The scenario as a file people read and edit: sorted keys, indented by two, one final newline."""
    obj = {"state": state.to_obj(), "events": [ev.to_obj() for ev in events]}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_scenario(path) -> tuple[fn.FloodState, list[TraceEvent]]:
    with open(path, "r", encoding="utf-8") as f:
        try:
            document = f.read()
        except UnicodeDecodeError as e:
            raise ScenarioError(f"file is not UTF-8: {e.reason}", f"byte {e.start}") from e
    return parse_scenario(document)
