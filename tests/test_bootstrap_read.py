"""The store's one read path: ``find``, ``execute`` and
``execute_versioned`` run the parsed query, sort the stored documents,
copy only the returned window, reuse each stored document's ``$text``
tokens, and reject far ``$nearSphere`` points by latitude first.

The reference read below is the store's former algorithm, verbatim:
parse the filter, deep-copy every match (index candidates in set order,
else the whole collection in insertion order), sort the copies, then
skip and limit.  It decides ``$text`` with freshly computed tokens, so a
stale token memo shows as a difference.
"""

import math
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.client as client_module
import repro.query.engine as engine_module
import repro.store.collection as collection_module
from repro.baselines.poll_and_diff import PollAndDiffProvider
from repro.query.engine import Query
from repro.query.geo import EARTH_RADIUS_METERS, NearSphere, haversine_meters
from repro.query.matcher import matches_node
from repro.query.parser import parse_query
from repro.query.sortspec import SortSpec
from repro.store.collection import Collection
from repro.store.documents import deep_copy
from repro.store.sharding import ShardedCollection
from tests.test_read_watermark import inline_cluster


def reference_read(collection, filter_doc, sort=None, skip=0, limit=None):
    node = parse_query(filter_doc)
    with collection._lock:
        documents = collection._documents
        candidates = collection._candidate_keys(node)
        keys = documents.keys() if candidates is None else [
            key for key in candidates if key in documents
        ]
        matching = [
            deep_copy(documents[key]) for key in keys
            if matches_node(documents[key], node)
        ]
        if sort is not None:
            matching = SortSpec.coerce(sort).sort(matching)
        if skip:
            matching = matching[skip:]
        if limit is not None:
            matching = matching[:limit]
        versions = {doc["_id"]: collection.version_of(doc["_id"])
                    for doc in matching}
        watermark = {collection.oplog.store_id: collection.oplog.head_sequence}
    return matching, versions, watermark


# -- the store's states ------------------------------------------------------

WORDS = ["alpha", "beta", "gamma", "delta", "Émile", "o'neil"]
KEYS = st.integers(0, 7)
notes = st.lists(st.sampled_from(WORDS), min_size=0, max_size=3).map(" ".join)
# Sort keys of every BSON bracket, NaN included.
scores = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.sampled_from(["a", "b", None, True, False, [1, 2], {"x": 1}]),
)
points = st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)).map(list)


@st.composite
def documents(draw, key):
    doc = {"_id": key, "zone": draw(st.integers(0, 3)),
           "speed": draw(st.integers(0, 20)), "loc": draw(points),
           "note": draw(notes)}
    if draw(st.booleans()):
        doc["score"] = draw(scores)
    return doc


@st.composite
def filters(draw):
    """The five churn-mixed families, over a small store."""
    family = draw(st.integers(0, 4))
    low = draw(st.integers(0, 18))
    if family == 0:
        return {"zone": draw(st.integers(0, 3)),
                "speed": {"$gte": low, "$lt": low + 6}}
    if family == 1:
        return {"speed": {"$gte": low, "$lt": low + 2}}
    if family == 2:
        lon, lat = draw(points)
        return {"loc": {"$geoWithin": {"$box": [[lon, lat],
                                                [lon + 6.0, lat + 6.0]]}}}
    if family == 3:
        return {"loc": {"$nearSphere": {
            "$geometry": {"type": "Point", "coordinates": draw(points)},
            "$maxDistance": draw(st.floats(0.0, 1_500_000.0)),
        }}}
    terms = draw(st.lists(st.sampled_from(WORDS + ["-alpha", "-beta"]),
                          min_size=1, max_size=2))
    return {"$text": {"$search": " ".join(terms)}}


@st.composite
def reads(draw):
    filter_doc = draw(filters())
    if not draw(st.booleans()):
        return filter_doc, None, 0, None
    sort = [("score", draw(st.sampled_from([1, -1])))]
    return (filter_doc, sort, draw(st.integers(0, 4)),
            draw(st.one_of(st.none(), st.integers(0, 5))))


@st.composite
def scripts(draw):
    """Writes interleaved with reads: inserts, ``$set`` of strings and
    scores, deletes and re-inserts of the same key."""
    steps = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(
            ["save", "note", "score", "delete", "read", "read"]))
        if kind == "read":
            steps.append(("read", draw(reads())))
        else:
            key = draw(KEYS)
            payload = {"save": lambda: draw(documents(key)),
                       "note": lambda: {"$set": {"note": draw(notes)}},
                       "score": lambda: {"$set": {"score": draw(scores)}},
                       "delete": lambda: None}[kind]()
            steps.append((kind, key, payload))
    return steps


def apply(collection, step):
    kind, key, payload = step
    if kind == "save":
        collection.save(payload)
    elif key not in collection:
        return
    elif kind == "delete":
        collection.delete(key)
    else:
        collection.update(key, payload)


def same_bytes(left, right):
    """Documents compare by repr: NaN never equals itself, and the
    order of keys inside each document must match too."""
    assert repr(left[0]) == repr(right[0])
    assert left[1:] == right[1:]


class TestReadPathMatchesTheReference:
    @given(scripts())
    @settings(max_examples=150, deadline=None)
    def test_every_read_returns_the_reference_read(self, script):
        collection = Collection("objects")
        collection.ensure_index("zone")
        for step in script:
            if step[0] != "read":
                apply(collection, step)
                continue
            filter_doc, sort, skip, limit = step[1]
            expected = reference_read(collection, filter_doc, sort, skip, limit)
            found = collection.find(filter_doc, sort=sort, skip=skip,
                                    limit=limit)
            assert repr(found) == repr(expected[0])
            query = Query(filter_doc, collection="objects", sort=sort,
                          limit=limit, offset=skip)
            same_bytes(collection.execute_versioned(query), expected)
            assert repr(collection.execute(query)) == repr(expected[0])
            # The subscribe's bootstrap: offset dropped, limit extended.
            rewritten = query.rewritten_for_subscription(2)
            same_bytes(
                collection.execute_versioned(rewritten),
                reference_read(collection, filter_doc, sort, rewritten.offset,
                               rewritten.limit),
            )

    @given(scripts())
    @settings(max_examples=40, deadline=None)
    def test_sharded_read_merges_the_reference_reads(self, script):
        sharded = ShardedCollection("objects", shards=3)
        for step in script:
            if step[0] != "read":
                apply(sharded, step)
                continue
            filter_doc, sort, skip, limit = step[1]
            merged = []
            for shard in sharded.shards:
                merged.extend(reference_read(shard, filter_doc)[0])
            if sort is not None:
                merged = SortSpec.coerce(sort).sort(merged)
            merged = merged[skip:] if limit is None else merged[skip:skip + limit]
            query = Query(filter_doc, collection="objects", sort=sort,
                          limit=limit, offset=skip)
            documents, versions, _ = sharded.execute_versioned(query)
            assert repr(documents) == repr(merged)
            assert versions == {doc["_id"]: sharded.version_of(doc["_id"])
                                for doc in merged}
            assert repr(sharded.execute(query)) == repr(merged)

    def test_a_sharded_page_copies_only_each_shards_window(self,
                                                             monkeypatch):
        sharded = ShardedCollection("objects", shards=3)
        for key in range(300):
            sharded.insert({"_id": key, "v": key % 7})
        query = Query({"v": {"$gte": 0}}, collection="objects",
                      sort=[("v", -1)], limit=10, offset=10)
        merged = []
        for shard in sharded.shards:
            merged.extend(reference_read(shard, {"v": {"$gte": 0}})[0])
        merged = SortSpec.coerce([("v", -1)]).sort(merged)[10:20]
        copies = []

        def counting(value):
            copies.append(value)
            return deep_copy(value)

        monkeypatch.setattr(collection_module, "deep_copy", counting)
        assert repr(sharded.execute(query)) == repr(merged)
        assert len(copies) <= 3 * 20
        copies.clear()
        assert repr(sharded.execute_versioned(query)[0]) == repr(merged)
        assert len(copies) <= 3 * 20

    def test_a_sharded_find_copies_only_each_shards_window(self,
                                                           monkeypatch):
        sharded = ShardedCollection("objects", shards=3)
        for key in range(300):
            sharded.insert({"_id": key, "v": key % 7})
        merged = []
        for shard in sharded.shards:
            merged.extend(reference_read(shard, {"v": {"$gte": 0}})[0])
        unsorted = merged[10:20]
        merged = SortSpec.coerce([("v", -1)]).sort(merged)[10:20]
        copies = []

        def counting(value):
            copies.append(value)
            return deep_copy(value)

        monkeypatch.setattr(collection_module, "deep_copy", counting)
        assert repr(sharded.find({"v": {"$gte": 0}}, sort=[("v", -1)],
                                 skip=10, limit=10)) == repr(merged)
        assert len(copies) <= 3 * 20
        copies.clear()
        assert repr(sharded.find({"v": {"$gte": 0}}, skip=10,
                                 limit=10)) == repr(unsorted)
        assert len(copies) <= 3 * 20

    def test_a_sharded_find_pages_like_the_whole_merge(self):
        """Each shard's cut at ``skip + limit`` loses nothing the
        coordinator's page needs, sorted or in scan order."""
        sharded = ShardedCollection("objects", shards=3)
        for key in range(40):
            sharded.insert({"_id": key, "v": key % 5})
        whole = []
        for shard in sharded.shards:
            whole.extend(reference_read(shard, {"v": {"$gte": 1}})[0])
        ordered = SortSpec.coerce([("v", 1)]).sort(whole)
        for skip in (0, 3, 17, 40):
            for limit in (None, 0, 1, 9, 50):
                end = None if limit is None else skip + limit
                assert sharded.find({"v": {"$gte": 1}}, skip=skip,
                                    limit=limit) == whole[skip:end]
                assert sharded.find({"v": {"$gte": 1}}, sort=[("v", 1)],
                                    skip=skip, limit=limit) == ordered[skip:end]

    def test_reads_hand_out_copies(self):
        collection = Collection("objects")
        collection.insert({"_id": 1, "tags": ["a"], "note": "alpha"})
        query = Query({"$text": {"$search": "alpha"}}, collection="objects")
        collection.execute(query)[0]["tags"].append("b")
        collection.find_one({"_id": 1})["tags"].append("c")
        assert collection.get(1)["tags"] == ["a"]
        collection.insert({"_id": 2, "owner": {"name": "x"}})
        collection.distinct("owner")[0]["name"] = "y"
        assert collection.get(2)["owner"] == {"name": "x"}

    def test_find_one_and_count(self):
        collection = Collection("objects")
        for key in range(5):
            collection.insert({"_id": key, "v": key % 2})
        assert collection.find_one({"v": 1}) == {"_id": 1, "v": 1}
        assert collection.find_one({"v": 7}) is None
        assert collection.count({"v": 1}) == 2
        assert collection.count({}) == 5


class TestTextTokenMemo:
    def text_read(self, collection, term):
        return collection.execute(
            Query({"$text": {"$search": term}}, collection="objects")
        )

    def test_memo_never_outgrows_the_live_documents(self):
        collection = Collection("objects")
        memo = collection._text_tokens
        for key in range(20):
            collection.insert({"_id": key, "note": f"alpha n{key}"})
        assert memo == {}  # writes never build tokens
        self.text_read(collection, "alpha")
        assert len(memo) == len(collection) == 20
        for key in range(0, 20, 2):
            collection.delete(key)
            assert len(memo) <= len(collection)
        for key in range(1, 20, 4):
            collection.update(key, {"$set": {"note": "beta"}})
            assert len(memo) <= len(collection)
        for key in range(0, 20, 2):
            collection.insert({"_id": key, "note": "beta"})
            assert len(memo) <= len(collection)
        assert len(self.text_read(collection, "beta")) == 15
        assert len(memo) == len(collection) == 20
        assert set(memo) == set(collection.all_keys())

    def test_threaded_reads_never_see_stale_tokens(self):
        """Writers rewrite notes while readers run ``$text`` reads: a
        returned document must hold the searched term in its own note
        (stale tokens would return one whose note no longer does)."""
        collection = Collection("objects")
        for key in range(16):
            collection.insert({"_id": key, "note": "alpha"})
        stop, errors = threading.Event(), []

        def write(parity):
            # Each writer owns half the keys, so no write misses its key.
            rng = random.Random(parity)
            try:
                while not stop.is_set():
                    key = 2 * rng.randrange(8) + parity
                    collection.update(key, {"$set": {"note": rng.choice(WORDS)}})
                    if rng.random() < 0.1:
                        collection.delete(key)
                        collection.insert({"_id": key, "note": "beta"})
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def read(term):
            while not stop.is_set():
                for doc in self.text_read(collection, term):
                    if term not in doc["note"].split():
                        errors.append(doc)
                if len(collection._text_tokens) > 16:
                    errors.append("memo outgrew the collection")

        threads = [threading.Thread(target=write, args=(parity,))
                   for parity in (0, 1)]
        threads += [threading.Thread(target=read, args=(term,))
                    for term in ("alpha", "beta")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert set(collection._text_tokens) <= set(collection.all_keys())

    def test_non_text_reads_leave_the_memo_alone(self):
        collection = Collection("objects")
        collection.insert({"_id": 1, "note": "alpha", "v": 1})
        collection.find({"v": 1})
        collection.count({"v": 1})
        assert collection._text_tokens == {}

    def test_a_write_drops_the_stale_tokens(self):
        collection = Collection("objects")
        collection.insert({"_id": 1, "note": "alpha"})
        assert len(self.text_read(collection, "alpha")) == 1
        collection.update(1, {"$set": {"note": "beta"}})
        assert self.text_read(collection, "alpha") == []
        collection.replace({"_id": 1, "note": "gamma"})
        assert self.text_read(collection, "beta") == []
        collection.delete(1)
        collection.insert({"_id": 1, "note": "alpha"})
        assert len(self.text_read(collection, "alpha")) == 1


# -- $nearSphere's latitude band ---------------------------------------------

def haversine_decision(operator, point):
    """The decision without the band: haversine against both bounds."""
    distance = haversine_meters(operator.center, point)
    if distance < operator.min_distance:
        return False
    return operator.max_distance is None or distance <= operator.max_distance


SPECIAL_LONS = [-180.0, 180.0, 0.0, 179.999999, -179.999999]
SPECIAL_LATS = [-90.0, 90.0, 0.0, 89.999999, -89.999999]
center_lons = st.one_of(st.floats(-180.0, 180.0), st.sampled_from(SPECIAL_LONS))
center_lats = st.one_of(st.floats(-90.0, 90.0), st.sampled_from(SPECIAL_LATS))
# Stored pairs are any finite floats: |lat| > 90 included.
point_lons = st.one_of(st.floats(-400.0, 400.0), st.sampled_from(SPECIAL_LONS))
point_lats = st.one_of(
    st.floats(-90.0, 90.0), st.floats(-400.0, 400.0),
    st.sampled_from(SPECIAL_LATS + [90.0000001, -90.5, 180.0, -270.0]),
)
distances = st.one_of(
    st.floats(0.0, 2.2e7), st.sampled_from([0.0, 1.0, math.pi * EARTH_RADIUS_METERS])
)


def near(center, max_distance, min_distance=0.0):
    return NearSphere({"$geometry": {"type": "Point", "coordinates": center},
                       "$maxDistance": max_distance,
                       "$minDistance": min_distance})


class TestNearSphereLatitudeBand:
    @given(center_lons, center_lats, distances, st.floats(0.0, 1.0),
           point_lons, point_lats)
    @settings(max_examples=500, deadline=None)
    def test_band_decides_as_haversine_alone(self, clon, clat, max_distance,
                                             min_share, lon, lat):
        operator = near([clon, clat], max_distance, max_distance * min_share)
        test = operator.value_test()
        expected = haversine_decision(operator, (lon, lat))
        assert test([lon, lat]) is expected
        assert operator.evaluate([lon, lat]) is expected

    @given(center_lons, center_lats, point_lons, point_lats)
    @settings(max_examples=300, deadline=None)
    def test_a_point_exactly_at_max_distance_matches(self, clon, clat, lon, lat):
        distance = haversine_meters((clon, clat), (lon, lat))
        operator = near([clon, clat], distance)
        assert operator.value_test()([lon, lat])
        # ... and with $minDistance at the same distance too.
        assert near([clon, clat], distance, distance).value_test()([lon, lat])

    @given(center_lons, center_lats, point_lons, point_lats)
    @settings(max_examples=200, deadline=None)
    def test_just_inside_and_outside_the_band_edge(self, clon, clat, lon, lat):
        band_distance = abs(lat - clat) * math.pi / 180 * EARTH_RADIUS_METERS
        for max_distance in (band_distance * (1 - 1e-12),
                             band_distance * (1 + 1e-12), band_distance):
            operator = near([clon, clat], max_distance)
            assert (operator.value_test()([lon, lat])
                    is haversine_decision(operator, (lon, lat)))

    def test_far_latitudes_are_rejected_without_a_haversine(self, monkeypatch):
        import repro.query.geo as geo

        calls = []
        real = geo.haversine_meters
        monkeypatch.setattr(geo, "haversine_meters",
                            lambda a, b: calls.append(b) or real(a, b))
        test = near([10.0, 10.0], 100_000.0).value_test()
        assert not test([10.0, 12.0])  # 222 km north
        assert calls == []
        assert test([10.5, 10.5])
        assert not test([10.0, 100.0])  # not a real latitude: haversine
        assert len(calls) == 2

    def test_bare_numbers_are_no_point(self):
        test = near([0.0, 0.0], 1e7).value_test()
        for value in (0, 1.5, -3, float("nan")):
            assert not test(value)
        assert test([1, 2]) and test([1.0, 2.0])
        assert not test([True, 2.0])


# -- each piece of work once ---------------------------------------------------

class CountingParse:
    def __init__(self, monkeypatch):
        self.parses = 0
        self.queries = 0
        real_parse, real_init = engine_module.parse_query, Query.__init__

        def parse(filter_doc):
            self.parses += 1
            return real_parse(filter_doc)

        def init(query, *args, **kwargs):
            self.queries += 1
            real_init(query, *args, **kwargs)

        monkeypatch.setattr(engine_module, "parse_query", parse)
        monkeypatch.setattr(Query, "__init__", init)


class TestParsedOnce:
    @pytest.mark.parametrize("page", [
        {}, {"sort": [("v", -1)], "limit": 3, "offset": 2},
    ], ids=["unsorted", "sorted-page"])
    def test_a_subscribe_builds_two_queries(self, monkeypatch, page):
        model, broker, cluster, app = inline_cluster()
        try:
            for key in range(10):
                app.insert("items", {"_id": key, "v": key})
            assert broker.drain()
            counted = CountingParse(monkeypatch)
            handle = app.subscribe("items", {"v": {"$gte": 1}}, **page)
            assert broker.drain()
            # The client's query and the cluster's, nothing else.
            assert counted.queries == 2 and counted.parses == 2
            assert handle.result() == app.find(
                "items", {"v": {"$gte": 1}}, sort=page.get("sort"),
                skip=page.get("offset", 0), limit=page.get("limit"))
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()

    def test_a_read_keeps_no_closure_on_the_query(self):
        collection = Collection("items")
        collection.insert({"_id": 1, "v": 3})
        query = Query({"v": {"$gte": 2}}, collection="items")
        assert collection.execute_versioned(query)[0] == [{"_id": 1, "v": 3}]
        assert query._compiled is None

    def test_read_paths_never_reparse(self, monkeypatch):
        collection = Collection("items")
        sharded = ShardedCollection("items", shards=2)
        for key in range(6):
            collection.insert({"_id": key, "v": key})
            sharded.insert({"_id": key, "v": key})
        query = Query({"v": {"$gte": 2}}, collection="items",
                      sort=[("v", 1)], limit=2, offset=1)
        poller = PollAndDiffProvider(collection)
        poller.subscribe({"v": {"$gte": 2}})
        counted = CountingParse(monkeypatch)
        collection.execute(query)
        collection.execute_versioned(query)
        collection.execute_versioned(query.rewritten_for_subscription(3))
        sharded.execute(query)
        sharded.execute_versioned(query)
        poller.poll_all()
        assert counted.parses == 0 and counted.queries == 0

    def test_derived_queries_share_the_parse(self):
        query = Query({"v": {"$gte": 2}}, sort=[("v", 1)], limit=2, offset=1)
        assert query.matches({"_id": 1, "v": 3})
        for derived, fresh in (
            (query.rewritten_for_subscription(3),
             Query({"v": {"$gte": 2}}, sort=[("v", 1)], limit=6)),
            (query.unsorted(), Query({"v": {"$gte": 2}})),
        ):
            assert derived.node is query.node
            assert derived.scan_matcher()[0] is query.scan_matcher()[0]
            assert derived == fresh and hash(derived) == hash(fresh)
            assert derived.query_id == fresh.query_id
            assert derived.partition_hash == fresh.partition_hash


class TestBootstrapCopiedOnce:
    """A subscribe reads its bootstrap as the stored documents: the
    subscribe request carries them, and only the handle's page is
    copied (``tests/test_payload_ownership.py`` pins who owns what)."""

    def test_a_sorted_page_copies_only_its_documents(self, monkeypatch):
        model, broker, cluster, app = inline_cluster()
        try:
            for key in range(300):
                app.insert("items", {"_id": key, "v": key})
            assert broker.drain()
            filter_doc = {"v": {"$gte": 0}}
            copies = []

            def counting(value):
                if value is not filter_doc:
                    copies.append(value)
                return deep_copy(value)

            monkeypatch.setattr(collection_module, "deep_copy", counting)
            monkeypatch.setattr(client_module, "deep_copy", counting)
            handle = app.subscribe("items", filter_doc, sort=[("v", 1)],
                                   offset=10, limit=10)
            monkeypatch.undo()
            page = handle.initial.documents
            assert [d["_id"] for d in page] == list(range(10, 20))
            stored = app.database.collection("items")._documents
            assert copies == page
            assert all(copy is stored[copy["_id"]] for copy in copies)
            assert broker.drain()
            assert handle.result() == app.find(
                "items", filter_doc, sort=[("v", 1)], skip=10, limit=10)
        finally:
            app.close()
            cluster.stop()
            broker.close()
            model.shutdown()

    @pytest.mark.parametrize("store", ["collection", "sharded"])
    def test_the_private_read_is_execute_versioned_without_copies(self,
                                                                  store):
        if store == "sharded":
            source = ShardedCollection("items", shards=3)
        else:
            source = Collection("items")
        for key in range(40):
            source.insert({"_id": key, "v": key % 7, "tags": [key]})
        query = Query({"v": {"$gte": 2}}, collection="items",
                      sort=[("v", -1)], limit=6, offset=3)
        documents, versions, watermark = source._read_versioned(query)
        assert (documents, versions, watermark) == \
            source.execute_versioned(query)
        shards = getattr(source, "shards", [source])
        held = {key: document for shard in shards
                for key, document in shard._documents.items()}
        assert all(document is held[document["_id"]]
                   for document in documents)
