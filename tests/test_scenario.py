import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubsub_refine.cli import main
from pubsub_refine.core import Message
from pubsub_refine.flood_model import FloodPeer, FloodState
from pubsub_refine.scenario import ScenarioError, emit_scenario, parse_scenario, parse_state

MSG = {"pld": "x", "tp": "t1", "or": 1}


def doc(state=None, events=None):
    return json.dumps({"state": state or {"peers": {}}, "events": events or []})


def test_minimal_document():
    state, events = parse_scenario(doc())
    assert state == FloodState()
    assert events == []


def test_state_round_trip():
    state = FloodState(
        (
            (1, FloodPeer(pubs=("t1",), subs=("t1",), nsubs=(("t1", (2,)),))),
            (2, FloodPeer(subs=("t1",), pending=(Message("x", "t1", 1),))),
        )
    )
    text = emit_scenario(state, [])
    parsed, _ = parse_scenario(text)
    assert parsed == state
    assert emit_scenario(parsed, []) == text


def test_peer_ids_parsed_numerically_and_sorted():
    state, _ = parse_scenario(doc({"peers": {"10": {}, "2": {}}}))
    assert state.keys() == (2, 10)


def test_empty_nsubs_entries_normalized_away():
    state, _ = parse_scenario(doc({"peers": {"1": {"nsubs": {"t1": []}}}}))
    assert state.get(1).nsubs == ()


def test_rejects_self_tracking_citing_invariant():
    with pytest.raises(ScenarioError, match="invariant 1") as err:
        parse_scenario(doc({"peers": {"3": {"nsubs": {"t1": [3]}}}}))
    assert "state.peers.3.nsubs.t1" in str(err.value)


def test_rejects_unsorted_seen():
    a = {"pld": "a", "tp": "t", "or": 0}
    b = {"pld": "b", "tp": "t", "or": 0}
    with pytest.raises(ScenarioError, match="ascending"):
        parse_scenario(doc({"peers": {"1": {"seen": [b, a]}}}))


def test_rejects_duplicate_pending():
    with pytest.raises(ScenarioError, match="duplicate-free"):
        parse_scenario(doc({"peers": {"1": {"pending": [MSG, MSG]}}}))


def test_rejects_unsorted_topics():
    with pytest.raises(ScenarioError, match="ascending"):
        parse_scenario(doc({"peers": {"1": {"subs": ["t2", "t1"]}}}))


def test_rejects_bad_message():
    with pytest.raises(ScenarioError, match="pld"):
        parse_scenario(doc({"peers": {"1": {"pending": [{"tp": "t", "or": 0}]}}}))
    with pytest.raises(ScenarioError, match="non-empty"):
        parse_scenario(doc({"peers": {"1": {"pending": [{"pld": "x", "tp": "", "or": 0}]}}}))


def test_rejects_unknown_event_kind():
    with pytest.raises(ScenarioError, match="unknown event kind") as err:
        parse_scenario(doc(events=[{"kind": "teleport"}]))
    assert "events[0]" in str(err.value)


def test_rejects_misplaced_event_fields():
    with pytest.raises(ScenarioError, match="not allowed"):
        parse_scenario(doc(events=[{"kind": "leave", "peer": 1, "topics": ["t"]}]))


def test_rejects_invalid_json_with_location():
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario("{nope")


def test_rejects_negative_peer_id():
    with pytest.raises(ScenarioError, match="non-negative"):
        parse_scenario(doc(events=[{"kind": "leave", "peer": -1}]))


def test_events_parse_fields():
    _, events = parse_scenario(
        doc(
            events=[
                {"kind": "produce", "message": MSG},
                {"kind": "join", "peer": 4, "pubs": ["t1"], "subs": ["t2"], "nbrs": [1, 2]},
            ]
        )
    )
    assert events[0].message == Message("x", "t1", 1)
    assert events[1].nbrs == (1, 2)
    assert events[1].index == 1


def test_parse_state_rejects_non_object():
    with pytest.raises(ScenarioError):
        parse_state([], "state")


def assert_rejected_at(document: str, path: str, tmp_path):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(document)
    assert err.value.path == path
    scenario = tmp_path / "scenario.json"
    scenario.write_text(document, encoding="utf-8")
    assert main(["run", str(scenario)]) == 2


@pytest.mark.parametrize("key", ["\u00b2", "\u0663", "-1", ""])
def test_rejects_peer_key_that_is_not_ascii_digits(key, tmp_path):
    # "\u00b2" (superscript two) and "\u0663" (Arabic-Indic three) pass
    # str.isdigit but are not peer ids
    assert_rejected_at(doc({"peers": {key: {}}}), f"state.peers.{key}", tmp_path)


def test_rejects_peer_key_with_more_digits_than_int_converts(tmp_path):
    key = "1" * 5000
    assert_rejected_at(doc({"peers": {key: {}}}), f"state.peers.{key}", tmp_path)


@pytest.mark.parametrize("index", ["abc", "3", True, -1, 1.5, None])
def test_rejects_event_index_that_is_not_a_natural_number(index, tmp_path):
    assert_rejected_at(doc(events=[{"kind": "skip", "index": index}]), "events[0].index", tmp_path)


def test_accepts_explicit_event_index():
    _, events = parse_scenario(doc(events=[{"kind": "skip", "index": 7}]))
    assert events[0].index == 7


# Property: parse_scenario either parses a document or raises ScenarioError;
# any other exception fails the test.

scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
keys = st.text(max_size=5)  # JSON object keys are strings
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=10,
)
wrong_values = scalars | st.just([]) | st.just({}) | st.lists(scalars, max_size=2)


def near(*valid, values=wrong_values):
    """Usually one of the valid values, sometimes a value of another shape."""
    return st.sampled_from(valid) | st.sampled_from(valid) | values


topic_lists = near([], ["t1"], ["t1", "t2"], ["t2", "t1"], ["t1", "t1"], [""])
messages = st.one_of(
    st.fixed_dictionaries({"pld": near("x"), "tp": near("t1"), "or": near(0, 1, -1)}),
    wrong_values,
)
message_lists = st.lists(messages, max_size=3) | wrong_values
peers = st.fixed_dictionaries(
    {},
    optional={
        "pubs": topic_lists,
        "subs": topic_lists,
        "nsubs": st.one_of(
            st.dictionaries(near("t1", "", values=keys), near([1], [2, 1], [0], ["1"]), max_size=2),
            wrong_values,
        ),
        "pending": message_lists,
        "seen": message_lists,
    },
)
events = st.fixed_dictionaries(
    {"kind": near("skip", "produce", "forward", "subscribe", "unsubscribe", "join", "leave")},
    optional={
        "peer": near(0, 1, -1),
        "message": messages,
        "topics": topic_lists,
        "pubs": topic_lists,
        "subs": topic_lists,
        "nbrs": near([], [0, 1], [1, 0]),
        "index": near(0, 7, -1),
        "pre_digest": wrong_values,
    },
)
peer_keys = near("0", "1", "2", "x", "-1", values=keys)
documents = st.fixed_dictionaries(
    {
        "state": st.fixed_dictionaries({"peers": st.dictionaries(peer_keys, peers | wrong_values, max_size=3)}),
        "events": st.lists(events | wrong_values, max_size=4),
    }
)


def assert_parses_or_rejects(document: str):
    try:
        parse_scenario(document)
    except ScenarioError:
        pass


@settings(derandomize=True, max_examples=200, deadline=None)
@given(json_values)
def test_arbitrary_json_raises_only_scenario_error(value):
    assert_parses_or_rejects(json.dumps(value))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(documents)
def test_documents_around_a_valid_skeleton_raise_only_scenario_error(document):
    assert_parses_or_rejects(json.dumps(document))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(value=json_values | documents)
def test_run_exits_2_on_generated_malformed_documents(value, tmp_path_factory):
    # 1 means a counterexample and 3 a crash of the checker; bad input is 2
    document = json.dumps(value)
    scenario = tmp_path_factory.getbasetemp() / "generated.json"
    scenario.write_text(document, encoding="utf-8")
    code = main(["run", str(scenario)])
    try:
        parse_scenario(document)
    except ScenarioError:
        assert code == 2
    else:  # a well-formed document may still hold a disabled event or a bad state
        assert code in (0, 2)
