"""Value types and ordered-collection primitives shared by both network models.

Every set in the model is a strictly ascending tuple and every finite map a
tuple of (key, value) pairs with strictly ascending keys. With that
representation, set and map equality reduce to plain sequence equality,
which the witness functions and the refinement checkers rely on. Both
models' states are a PeerMap, and every witness function walks two of them
with first_difference; the subscription and membership witnesses,
topics_witness and join_witness, serve both models. Each model's step
cases are one table of Case rows, and step_tests builds its relation's
cases from it. in_workers is the one fork-and-merge helper of both
oracles: the all-pairs rows and the fuzz traces are each handed out in
chunks to the usable CPUs with it.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Generic, Iterable, NamedTuple, Sequence, TypeVar

PeerId = int
Topic = str

T = TypeVar("T")
K = TypeVar("K")
V = TypeVar("V")

# Entries kept by each lru_cache of the models. A cache serves the replay of
# the transition just applied (fuzz and run apply an event, then classify
# the step by replaying it) and one row of the all-pairs oracle; WFS reasons
# about one state and its successors, so nothing older is read again, and
# every kept state is heap the interpreter must later free.
CACHE_SIZE = 256

# Chunks each in_workers call cuts its rows into, so a process slowed by its
# host holds the others up by one small chunk at most. A fixed count keeps
# the chunk bounds, and a failure's text, independent of the CPU count.
CHUNKS = 32


class ContractError(ValueError):
    """Raised when a transition function is applied outside its precondition."""


def enabled(transition: Callable[..., T], *args) -> T | None:
    """transition(*args), or None when its ContractError guard refuses the arguments."""
    try:
        return transition(*args)
    except ContractError:
        return None


class Message(NamedTuple):
    """A published message.

    Messages are compared lexicographically on (payload, topic, origin);
    two messages with equal fields are the same message. Python's string
    comparison is code-point order, which coincides with byte order on the
    UTF-8 encodings, so the ordering is stable across platforms.

    A NamedTuple: comparison and hashing are the tuple's, in C, and
    construction makes one tuple instead of setting each field of a frozen
    dataclass. A message also equals the plain tuple of its fields, which
    no model state holds. Its repr, Message(payload='x', topic='t1',
    origin=1), is quoted by guard and replay errors.
    """

    payload: str
    topic: Topic
    origin: PeerId

    def to_obj(self) -> dict:
        return {"pld": self.payload, "tp": self.topic, "or": self.origin}

    @classmethod
    def from_obj(cls, obj: dict) -> "Message":
        return cls(payload=obj["pld"], topic=obj["tp"], origin=obj["or"])


def is_ascending(x: Sequence) -> bool:
    """True iff x is strictly ascending (hence duplicate-free)."""
    return all(a < b for a, b in zip(x, x[1:]))


def ordered_set(items: Iterable[T]) -> tuple[T, ...]:
    """Normalize any iterable into an ordered set (sorted, duplicates dropped)."""
    return tuple(sorted(set(items)))


def insert_unique(a: T, x: tuple[T, ...]) -> tuple[T, ...]:
    """Insert a into the ordered set x, preserving order and uniqueness."""
    i = bisect_left(x, a)
    if i < len(x) and x[i] == a:
        return x
    return x[:i] + (a,) + x[i:]


def subsets(pool: Sequence[T]):
    """Every subset of pool as a tuple in pool's order, smallest first: ordered sets when pool is one."""
    for r in range(len(pool) + 1):
        yield from itertools.combinations(pool, r)


def union_sets(x: tuple[T, ...], y: tuple[T, ...]) -> tuple[T, ...]:
    """Union of two ordered sets, again an ordered set."""
    if not x:
        return y
    if not y:
        return x
    return ordered_set(x + y)


def difference(x: Sequence[T], y: Sequence[T]) -> tuple[T, ...]:
    """Elements of x not in y, in x's original order.

    x need not be ordered; the result is a subsequence of x.
    """
    drop = set(y)
    return tuple(e for e in x if e not in drop)


# Finite maps as tuples of (key, value) pairs with strictly ascending keys.


def map_get(entries: tuple[tuple[K, V], ...], key: K) -> V | None:
    for k, v in entries:
        if k == key:
            return v
        if k > key:
            return None
    return None


def map_set(entries: tuple[tuple[K, V], ...], key: K, value: V) -> tuple[tuple[K, V], ...]:
    """Replace key's value in place, or splice a new entry at its sorted position."""
    for i, (k, _) in enumerate(entries):
        if k == key:
            return entries[:i] + ((key, value),) + entries[i + 1 :]
        if k > key:
            return entries[:i] + ((key, value),) + entries[i:]
    return entries + ((key, value),)


def map_delete(entries: tuple[tuple[K, V], ...], key: K) -> tuple[tuple[K, V], ...]:
    """Remove key's entry; deleting an absent key is a no-op."""
    return tuple(e for e in entries if e[0] != key)


def map_keys(entries: tuple[tuple[K, V], ...]) -> tuple[K, ...]:
    return tuple(k for k, _ in entries)


def memo(obj, fact: str, decide: Callable[..., T]) -> T:
    """decide(obj), decided on the first call for this immutable object and kept in its __dict__."""
    facts = obj.__dict__
    if fact not in facts:
        facts[fact] = decide(obj)
    return facts[fact]


@dataclass(frozen=True)
class PeerMap(Generic[V]):
    """Finite map peer -> per-peer state with strictly ascending keys.

    Both network models subclass it with their own peer type. Equality
    compares the class too, so states of different models never compare
    equal, even when both are empty.

    A state is immutable, so every fact derived from it (its hash, whether
    it is good, its digest) is decided once and kept on the object by memo;
    a peer state keeps its digest fragment the same way. The kept facts are
    not fields: equality, hash, repr and to_obj never see them.
    """

    entries: tuple[tuple[PeerId, V], ...] = ()

    def __hash__(self) -> int:
        # every cache lookup hashes the state; hashing the entries would
        # rehash each nested peer state every time
        return memo(self, "hash", _hash_entries)

    memo = memo  # s.memo(fact, decide) is memo(s, fact, decide)

    def get(self, p: PeerId) -> V | None:
        return map_get(self.entries, p)

    def keys(self) -> tuple[PeerId, ...]:
        return map_keys(self.entries)

    def __contains__(self, p: PeerId) -> bool:
        return self.get(p) is not None

    def with_peer(self, p: PeerId, pst: V):
        return type(self)(map_set(self.entries, p, pst))

    def without_peer(self, p: PeerId):
        return type(self)(map_delete(self.entries, p))

    def to_obj(self) -> dict:
        return {"peers": {str(p): pst.to_obj() for p, pst in self.entries}}


def _hash_entries(s: PeerMap) -> int:
    return hash(s.entries)


def first_difference(xs: Sequence[T], ys: Sequence[T], same: Callable[[T, T], bool] = operator.eq) -> int:
    """The first position at which xs and ys disagree under same.

    The witness functions walk two states' entries in lock step with it and
    read a transition's arguments off the position it returns. When one
    sequence is a prefix of the other (under same) the result is the length
    of the shorter one, so callers test it against both lengths.
    """
    for i, (x, y) in enumerate(zip(xs, ys)):
        if not same(x, y):
            return i
    return min(len(xs), len(ys))


def topics_witness(s: PeerMap, u: PeerMap) -> tuple[PeerId, tuple[Topic, ...]] | None:
    """The peer and the topics it gained between s and u, if any.

    Entries are skipped while key and subs agree, so changes to other
    fields (a flood subscription's updates to the trackers' nsubs maps)
    are walked past. The peer is a key of both states.
    """
    es, eu = s.entries, u.entries
    i = first_difference(es, eu, lambda a, b: a[0] == b[0] and a[1].subs == b[1].subs)
    if i == len(es) or i == len(eu):
        return None
    (p, pst), (q, qst) = es[i], eu[i]
    if p != q:
        return None
    gained = difference(qst.subs, pst.subs)
    return (p, gained) if gained else None


def join_witness(s: PeerMap[V], u: PeerMap[V]) -> tuple[PeerId, V] | None:
    """The first entry of u whose key s does not hold at that position, comparing keys only.

    The entry's peer may still be a key of s elsewhere (s={1,2}, u={2}
    yields peer 2), which the join transition's guard refuses.
    """
    es, eu = s.entries, u.entries
    i = first_difference(es, eu, lambda a, b: a[0] == b[0])
    if i == len(eu):
        return None
    return eu[i]


class Case(NamedTuple):
    """One case of a step relation, a row of its model's CASES table (kind -> Case).

    transition names the model's transition, looked up on the model module
    at each call, so one rebound there is what replay, the relation and the
    enumerator all run. witness(s, u) reads its arguments (all but the
    state) off a state pair, or gives None; offers(s, peer_pool,
    topic_pool, msg_pool) yields the argument tuples the exhaustive
    enumerator tries; fields names the trace event fields that are the
    arguments (flood model only).
    """

    transition: str
    witness: Callable
    offers: Callable
    fields: tuple[str, ...] = ()


def step_tests(cases: dict[str, Case], model: dict) -> dict:
    """kind -> test(s, u) for each case.

    A test reads the arguments off (s, u) with the witness, replays the
    transition named in model (a module's globals) on them and accepts only
    if u is exactly the result; a replay the guard refuses does not apply.
    """

    def test(witness, name):
        def accepts(s, u) -> bool:
            args = witness(s, u)
            return args is not None and u == enabled(model[name], *args, s)

        return accepts

    return {kind: test(case.witness, case.transition) for kind, case in cases.items()}


def skip(s):
    """The identity transition of both models."""
    return s


# Shared by both tables: the skip row, the join walk reversed, and the offers of a present peer's
# own changes.
SKIP = Case("skip", lambda s, u: (), lambda s, *pools: ((),))


def left_peer(s: PeerMap, u: PeerMap) -> tuple[PeerId] | None:
    w = join_witness(u, s)
    return None if w is None else (w[0],)


def offer_peers(s, peer_pool, topic_pool, msg_pool):
    return ((p,) for p in s.keys())


def offer_topics(s, peer_pool, topic_pool, msg_pool):
    return itertools.product(s.keys(), subsets(topic_pool))


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """Sorted keys and no whitespace: the one encoding of every digest and every report.

    One encoder serves every call; json.dumps would build a new one for
    these arguments each time, which a checked step's text would pay.
    """
    return _CANONICAL.encode(obj)


def in_workers(rows: int, work) -> list:
    """work(lo, hi) on each of min(rows, CHUNKS) contiguous chunks of range(rows), handed out at run time; in chunk order.

    The chunk numbers wait in a pipe, one byte each. The caller and one
    forked child per further usable CPU each read a byte and run that
    chunk until the pipe is empty, so a process slowed by its host takes
    fewer chunks instead of holding the rest up; a one-byte read is never
    split, so no chunk runs twice. Each child sends its [[chunk, result],
    ...] as JSON over its own pipe, so work must return what json encodes
    and reads back unchanged; the caller keeps its own results as they are.

    A chunk whose work raises is recorded where it ran as "rows lo..hi
    failed: Type: message", and that process empties the pipe, so no
    process starts another chunk; the caller then raises one RuntimeError
    for the lowest failing chunk. Every chunk below it left the pipe first
    and still runs, so the text depends neither on the process nor on the
    CPU count. A child that dies without sending its results is an
    internal error too, and no child outlives the call.
    """
    chunks = min(rows, CHUNKS)
    bounds = [(k * rows // chunks, (k + 1) * rows // chunks) for k in range(chunks)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1

    def take(queue):  # [[[chunk, result], ...], failure text or None]
        done = []
        while chunk := os.read(queue, 1):
            lo, hi = bounds[chunk[0]]
            try:
                done.append([chunk[0], work(lo, hi)])
            except Exception as e:  # recorded, and raised by the caller whichever process ran it
                os.read(queue, CHUNKS)  # empties the queue: every process stops after the chunk it holds
                return [done, [chunk[0], f"rows {lo}..{hi - 1} failed: {type(e).__name__}: {e}"]]
        return [done, None]

    queue, w = os.pipe()
    os.write(w, bytes(range(chunks)))  # one byte a chunk: CHUNKS stays below 256, and the pipe's buffer holds them all
    os.close(w)
    running = {}  # pid -> the read end of its pipe
    try:
        for _ in range(min(chunks, cpus) - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child leaves through os._exit alone: it unwinds no caller and flushes no stdio
                try:
                    with open(w, "w", encoding="utf-8") as pipe:
                        json.dump(take(queue), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            running[pid] = open(r, encoding="utf-8")
        parts = [take(queue)]
        for k, pid in enumerate(list(running), 1):
            with running[pid] as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            if code != 0 or not payload:  # exit 0 comes only after the whole payload is written
                raise RuntimeError(f"worker {k} failed: status {code}, {len(payload)} bytes sent")
            parts.append(json.loads(payload))
    finally:  # children still running here only if something raised; none outlives the call
        os.close(queue)
        for pid, pipe in running.items():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL, named without loading the signal module into every start-up
            os.waitpid(pid, 0)
    failures = [failure for _, failure in parts if failure is not None]
    if failures:
        raise RuntimeError(min(failures)[1])
    results = dict(item for done, _ in parts for item in done)
    return [results[k] for k in range(chunks)]
