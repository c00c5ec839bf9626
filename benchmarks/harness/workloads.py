"""The five named workloads: seeded subscriptions, preload and op streams.

A workload hands the harness plain inputs only — subscription specs,
preload documents and a stream of operations — all derived from the
``--seed`` argument.  The stack under test never sees the seed.

Operations are tuples the phase driver turns into facade calls:

* ``("insert", collection, document)``
* ``("update", collection, key, update_spec)``
* ``("delete", collection, key)``
* ``("resubscribe", slot, spec)`` — unsubscribe the standing
  subscription in *slot*, subscribe *spec* in its place (churn-mixed).

Every stream is built so that no operation can fail: deletes target
live keys, re-inserts follow their delete, inserted keys are fresh.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sim.workload import PaperWorkload, generate_document

Op = Tuple[Any, ...]


@dataclass(frozen=True)
class SubSpec:
    """Arguments of one ``AppServer.subscribe`` call (and of the pull
    ``AppServer.find`` the oracle compares it with)."""

    collection: str
    filter: Dict[str, Any]
    sort: Optional[List[Tuple[str, int]]] = None
    limit: Optional[int] = None
    offset: int = 0


@dataclass
class Workload:
    """Constants of one workload; subclasses supply the inputs."""

    name: str = ""
    why: str = ""
    #: ``None`` = the default (threaded) stack; ``"process"`` adds
    #: ``execution_model="process", process_workers=1``.
    execution_model: Optional[str] = None
    #: Open-loop write rate (writes/s), frozen at 10-15% of the seed
    #: commit's saturation ``writes_per_s``.
    rate: float = 100.0
    #: Writes per saturation segment (issue -> both drains).
    segment_writes: int = 500
    #: Stack builds behind ``setup_s`` (a multiple of 3, see run.py).
    setup_builds: int = 9
    #: Subscriptions the pull-query oracle checks per phase (None = all).
    oracle_sample: Optional[int] = None
    #: Saturation writes per ``--seconds`` second.  Work is fixed, not
    #: time-boxed, so memory and counts do not depend on how fast the
    #: commit under test happens to be; sized so the phase takes about
    #: 40% of ``--seconds`` on the seed commit.
    saturation_writes_per_second: int = 300
    #: Writes of the traced pass per ``--seconds`` second (fixed work,
    #: so same-seed traced passes repeat their counts exactly).
    trace_writes_per_second: int = 100
    #: ``(collection, path)`` hash indexes of the pull store, created
    #: before the preload — the equality field the workload's queries
    #: filter on, as a production store would index it.
    store_indexes: Tuple[Tuple[str, str], ...] = ()
    #: Share of the full query/document populations (``--quick`` only).
    population: float = 1.0

    def sized(self, full: int) -> int:
        return max(2, int(full * self.population))

    def quick(self) -> "Workload":
        """The same workload at a tenth of its populations, a fifth of
        its segment size and one build (for the self-test)."""
        return replace(self, population=0.1, setup_builds=1,
                       segment_writes=self.segment_writes // 5)

    def subscriptions(self, seed: int) -> List[SubSpec]:
        raise NotImplementedError

    def preload(self, seed: int) -> List[Tuple[str, Dict[str, Any]]]:
        return []

    def ops(self, seed: int) -> Iterator[Op]:
        """Endless op stream; ``resubscribe`` ops do not count as
        writes."""
        raise NotImplementedError

    def expected_notifications(self, writes: int) -> Optional[int]:
        """Exact notification count after *writes* writes, where the
        generator knows it (paper-filter), else None."""
        return None


# ---------------------------------------------------------------------------
# paper-filter / paper-filter-process (paper section 6.1)
# ---------------------------------------------------------------------------

PAPER_QUERIES = 1000
#: One write in MATCH_EVERY hits exactly one query's unit-width slot.
MATCH_EVERY = 4


@dataclass
class PaperFilter(Workload):
    def subscriptions(self, seed: int) -> List[SubSpec]:
        queries = self.sized(PAPER_QUERIES)
        workload = PaperWorkload(
            total_queries=queries, matching_queries=queries, seed=seed,
        )
        return [SubSpec("test", filter_doc) for filter_doc in workload.queries()]

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        queries = self.sized(PAPER_QUERIES)
        n = 0
        while True:
            if n % MATCH_EVERY == 0:
                value = (n // MATCH_EVERY) % queries
            else:
                # Above every query's slot: no subscription covers it.
                value = queries + 11 + 2 * n
            yield ("insert", "test", generate_document(rng, f"w{n}", value))
            n += 1

    def expected_notifications(self, writes: int) -> Optional[int]:
        return (writes + MATCH_EVERY - 1) // MATCH_EVERY


# ---------------------------------------------------------------------------
# fanout-feed
# ---------------------------------------------------------------------------

FANOUT_TOPICS = 16
FANOUT_THRESHOLDS = 25
FANOUT_DOCS = 500
_LANGS = ["en", "de"]


@dataclass
class FanoutFeed(Workload):
    def subscriptions(self, seed: int) -> List[SubSpec]:
        return [
            SubSpec("feed", {
                "lang": {"$in": _LANGS},
                "topic": topic,
                "score": {"$gte": step * (100 // FANOUT_THRESHOLDS)},
            })
            for topic in range(self.sized(FANOUT_TOPICS))
            for step in range(FANOUT_THRESHOLDS)
        ]

    def preload(self, seed: int) -> List[Tuple[str, Dict[str, Any]]]:
        rng = random.Random(seed)
        return [
            ("feed", {
                "_id": key,
                "lang": _LANGS[key % 2],
                "topic": rng.randrange(self.sized(FANOUT_TOPICS)),
                "score": rng.randrange(100),
                "title": f"post {key}",
            })
            for key in range(self.sized(FANOUT_DOCS))
        ]

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed + 1)
        docs, topics = self.sized(FANOUT_DOCS), self.sized(FANOUT_TOPICS)
        while True:
            key = rng.randrange(docs)
            if rng.random() < 0.8:
                change = {"score": rng.randrange(100)}
            else:
                change = {"topic": rng.randrange(topics)}
            yield ("update", "feed", key, {"$set": change})


# ---------------------------------------------------------------------------
# sorted-feed
# ---------------------------------------------------------------------------

SORTED_ROOMS = 10
SORTED_PAGES = 10
SORTED_PAGE_SIZE = 10
SORTED_DOCS_PER_ROOM = 120
SORTED_UPDATE_SHARE = 0.98
SORTED_STEP = 0.02


@dataclass
class SortedFeed(Workload):
    def subscriptions(self, seed: int) -> List[SubSpec]:
        return [
            SubSpec("rooms", {"room": room}, sort=[("score", -1)],
                    limit=SORTED_PAGE_SIZE, offset=SORTED_PAGE_SIZE * page)
            for room in range(self.sized(SORTED_ROOMS))
            for page in range(SORTED_PAGES)
        ]

    def preload(self, seed: int) -> List[Tuple[str, Dict[str, Any]]]:
        rng = random.Random(seed)
        rooms = self.sized(SORTED_ROOMS)
        return [
            ("rooms", {"_id": key, "room": key % rooms,
                       "score": rng.random(), "text": f"message {key}"})
            for key in range(rooms * SORTED_DOCS_PER_ROOM)
        ]

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed + 1)
        rooms = self.sized(SORTED_ROOMS)
        while True:
            key = rng.randrange(rooms * SORTED_DOCS_PER_ROOM)
            if rng.random() < SORTED_UPDATE_SHARE:
                # A small step: the document moves a few ranks, mostly
                # inside a page or across one page boundary.
                yield ("update", "rooms", key,
                       {"$inc": {"score": rng.uniform(-SORTED_STEP, SORTED_STEP)}})
            else:
                # Delete + re-insert: two writes; slack erodes on the
                # delete, so renewals happen.
                yield ("delete", "rooms", key)
                yield ("insert", "rooms", {
                    "_id": key, "room": key % rooms,
                    "score": rng.random(), "text": f"message {key}",
                })


# ---------------------------------------------------------------------------
# churn-mixed (PR 10 moving objects + subscription churn)
# ---------------------------------------------------------------------------

CHURN_OBJECTS = 200
CHURN_SUBSCRIPTIONS = 600
CHURN_VOCAB = [f"term{i:03d}" for i in range(400)]
CHURN_ZONES = 20
CHURN_SPEEDS = 400
#: The objects walk inside this lon/lat square so geo subscriptions
#: actually see traffic.
CHURN_REGION = 60.0
#: One unsubscribe+subscribe after every this many writes.
CHURN_RESUBSCRIBE_EVERY = 10


def _churn_spec(rng: random.Random, slot: int) -> SubSpec:
    family = slot % 5
    if family == 0:
        low = rng.randrange(CHURN_SPEEDS - 40)
        filter_doc: Dict[str, Any] = {
            "zone": rng.randrange(CHURN_ZONES),
            "speed": {"$gte": low, "$lt": low + 40},
        }
    elif family == 1:
        low = rng.randrange(CHURN_SPEEDS - 2)
        filter_doc = {"speed": {"$gte": low, "$lt": low + 2}}
    elif family == 2:
        lon = rng.uniform(0.0, CHURN_REGION - 2.0)
        lat = rng.uniform(0.0, CHURN_REGION - 2.0)
        filter_doc = {"loc": {"$geoWithin": {
            "$box": [[lon, lat], [lon + 2.0, lat + 2.0]],
        }}}
    elif family == 3:
        center = [rng.uniform(0.0, CHURN_REGION), rng.uniform(0.0, CHURN_REGION)]
        filter_doc = {"loc": {"$nearSphere": {
            "$geometry": {"type": "Point", "coordinates": center},
            "$maxDistance": rng.uniform(100_000.0, 300_000.0),
        }}}
    else:
        filter_doc = {"$text": {"$search": rng.choice(CHURN_VOCAB)}}
    return SubSpec("objects", filter_doc)


def _distinct_churn_spec(rng: random.Random, slot: int, standing: set) -> SubSpec:
    """A spec whose filter no standing subscription uses: two handles on
    one query id make the churn-time oracle depend on which of them a
    coalesced add/remove pair was computed for."""
    while True:
        spec = _churn_spec(rng, slot)
        key = repr(spec.filter)
        if key not in standing:
            standing.add(key)
            return spec


@dataclass
class ChurnMixed(Workload):
    def subscriptions(self, seed: int) -> List[SubSpec]:
        rng = random.Random(seed)
        standing: set = set()
        return [_distinct_churn_spec(rng, slot, standing)
                for slot in range(self.sized(CHURN_SUBSCRIPTIONS))]

    def _objects(self, seed: int) -> List[Dict[str, Any]]:
        rng = random.Random(seed + 1)
        return [
            {
                "_id": key,
                "loc": [rng.uniform(0.0, CHURN_REGION),
                        rng.uniform(0.0, CHURN_REGION)],
                "note": " ".join(rng.sample(CHURN_VOCAB, 3)),
                "zone": rng.randrange(CHURN_ZONES),
                "speed": rng.randrange(CHURN_SPEEDS),
            }
            for key in range(self.sized(CHURN_OBJECTS))
        ]

    def preload(self, seed: int) -> List[Tuple[str, Dict[str, Any]]]:
        return [("objects", document) for document in self._objects(seed)]

    def ops(self, seed: int) -> Iterator[Op]:
        positions = [list(doc["loc"]) for doc in self._objects(seed)]
        filters = [repr(spec.filter) for spec in self.subscriptions(seed)]
        standing = set(filters)
        rng = random.Random(seed + 2)
        writes = 0
        while True:
            key = rng.randrange(len(positions))
            pos = positions[key]
            pos[0] = min(CHURN_REGION, max(0.0, pos[0] + rng.uniform(-0.5, 0.5)))
            pos[1] = min(CHURN_REGION, max(0.0, pos[1] + rng.uniform(-0.5, 0.5)))
            change: Dict[str, Any] = {"loc": [pos[0], pos[1]]}
            roll = rng.random()
            if roll < 0.3:
                change["note"] = " ".join(rng.sample(CHURN_VOCAB, 3))
            elif roll < 0.6:
                change["speed"] = rng.randrange(CHURN_SPEEDS)
            yield ("update", "objects", key, {"$set": change})
            writes += 1
            if writes % CHURN_RESUBSCRIBE_EVERY == 0:
                slot = rng.randrange(len(filters))
                standing.discard(filters[slot])
                spec = _distinct_churn_spec(rng, slot, standing)
                filters[slot] = repr(spec.filter)
                yield ("resubscribe", slot, spec)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        PaperFilter(
            name="paper-filter",
            why="1000 disjoint range queries, inserts, 1 in 4 matches one "
                "query: the index prunes everything, cost is transport and "
                "dispatch; bypass workload for matching/sorting changes",
            rate=1000.0, segment_writes=500, oracle_sample=4,
            saturation_writes_per_second=2500, trace_writes_per_second=400,
        ),
        PaperFilter(
            name="paper-filter-process",
            why="paper-filter inputs with execution_model=process and one "
                "worker: the gap to paper-filter is the event.wire + "
                "runtime.process hop",
            execution_model="process",
            rate=1000.0, segment_writes=500, oracle_sample=4,
            saturation_writes_per_second=1750, trace_writes_per_second=400,
        ),
        FanoutFeed(
            name="fanout-feed",
            why="400 overlapping queries (16 topics x 25 thresholds), updates "
                "fan out ~19 notifications per write: predicate evaluation, "
                "fan-out, encode and client materialization dominate",
            rate=100.0, segment_writes=50, setup_builds=3,
            saturation_writes_per_second=300, trace_writes_per_second=60,
            store_indexes=(("feed", "topic"),),
        ),
        SortedFeed(
            name="sorted-feed",
            why="100 sorted pages (10 rooms x 10) over 1200 docs, small score "
                "steps plus delete+reinsert: window maintenance, changeIndex "
                "diffs and renewals; the shape shared windows target",
            rate=200.0, segment_writes=100, setup_builds=3,
            saturation_writes_per_second=800, trace_writes_per_second=250,
            store_indexes=(("rooms", "room"),),
        ),
        ChurnMixed(
            name="churn-mixed",
            why="600 mixed range/geo/text queries over 200 moving objects "
                "with an unsubscribe+subscribe every 10th write: the query "
                "registry is written while being probed",
            rate=150.0, segment_writes=80, setup_builds=3,
            saturation_writes_per_second=550, trace_writes_per_second=60,
            store_indexes=(("objects", "zone"),),
        ),
    )
}
