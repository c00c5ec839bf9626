"""Write stream retention and staleness avoidance tests."""

import random

import pytest

from repro.core.retention import RetentionBuffer
from repro.types import AfterImage, WriteKind


def image(key, version, timestamp=0.0, deleted=False):
    return AfterImage(
        key=key,
        version=version,
        kind=WriteKind.DELETE if deleted else WriteKind.UPDATE,
        document=None if deleted else {"_id": key, "v": version},
        timestamp=timestamp,
    )


class TestStalenessAvoidance:
    def test_newer_version_accepted(self):
        buffer = RetentionBuffer(5.0)
        assert buffer.observe(image("a", 1), now=0.0)
        assert buffer.observe(image("a", 2), now=0.0)

    def test_stale_version_rejected(self):
        """Section 5.1: an after-image is ignored whenever a more recent
        version for the same item has already been received."""
        buffer = RetentionBuffer(5.0)
        buffer.observe(image("a", 3), now=0.0)
        assert not buffer.observe(image("a", 2), now=0.0)
        assert not buffer.observe(image("a", 3), now=0.0)

    def test_delete_supersedes_earlier_update(self):
        buffer = RetentionBuffer(5.0)
        buffer.observe(image("a", 2, deleted=True), now=0.0)
        assert not buffer.observe(image("a", 1), now=0.0)

    def test_is_stale_does_not_record(self):
        buffer = RetentionBuffer(5.0)
        assert not buffer.is_stale(image("a", 1))
        assert not buffer.is_stale(image("a", 1))  # still unknown

    def test_versions_survive_eviction(self):
        """Staleness checks keep working after the after-image aged out
        of the replay window."""
        buffer = RetentionBuffer(1.0)
        buffer.observe(image("a", 5, timestamp=0.0), now=0.0)
        buffer.evict(now=10.0)
        assert len(buffer) == 0
        assert not buffer.observe(image("a", 4, timestamp=10.0), now=10.0)
        assert buffer.latest_version("a") == 5


class TestEvictionAndReplay:
    def test_eviction_by_age(self):
        """``observe`` ages the old end out itself: the image older than
        the window is gone as soon as a newer write arrives."""
        buffer = RetentionBuffer(2.0)
        buffer.observe(image("old", 1, timestamp=0.0), now=0.0)
        buffer.observe(image("new", 1, timestamp=3.0), now=3.0)
        assert [a.key for a in buffer] == ["new"]
        assert buffer.evict(now=4.0) == 0

    def test_replay_returns_only_window(self):
        buffer = RetentionBuffer(2.0)
        buffer.observe(image("old", 1, timestamp=0.0), now=0.0)
        buffer.observe(image("fresh", 1, timestamp=9.0), now=9.0)
        replayed = buffer.replay(now=10.0)
        assert [a.key for a in replayed] == ["fresh"]

    def test_only_latest_version_per_key_retained(self):
        buffer = RetentionBuffer(10.0)
        buffer.observe(image("a", 1, timestamp=0.0), now=0.0)
        buffer.observe(image("a", 2, timestamp=1.0), now=1.0)
        replayed = buffer.replay(now=2.0)
        assert len(replayed) == 1
        assert replayed[0].version == 2

    def test_zero_retention_replays_nothing(self):
        buffer = RetentionBuffer(0.0)
        buffer.observe(image("a", 1, timestamp=0.0), now=0.0)
        assert buffer.replay(now=0.5) == []


class TestBoundedBetweenRegistrations:
    """``observe`` ages the old end out, so a stream of fresh keys with
    no registration in between holds about one window, not every key
    ever written."""

    def test_fresh_keys_stay_within_the_window(self):
        buffer = RetentionBuffer(2.0)
        for i in range(1000):
            buffer.observe(image(i, 1, timestamp=i * 0.1), now=i * 0.1)
        # The 2 s window plus at most two slices of it (0.25 s each).
        assert 20 <= len(buffer) <= 26
        assert buffer.latest_version(0) == 1  # staleness map survives

    def test_a_rewritten_key_does_not_shield_expired_ones(self):
        buffer = RetentionBuffer(1.0)
        for i in range(100):
            buffer.observe(image("hot", i + 1, timestamp=float(i)), now=i)
            buffer.observe(image(("cold", i), 1, timestamp=float(i)), now=i)
        assert sorted(map(repr, (a.key for a in buffer))) == sorted(
            map(repr, ["hot", ("cold", 98), ("cold", 99)])
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_replay_set_matches_evicting_only_at_replay(self, seed):
        """With a monotone clock the replay set equals the one a buffer
        that never ages out on ``observe`` would return."""
        rng = random.Random(seed)
        buffer = RetentionBuffer(3.0)
        reference = {}  # key -> (latest image, arrival), never aged out
        now = 0.0
        for step in range(600):
            now += rng.random() * 0.2
            key = rng.randrange(40)
            version = reference[key][0].version + 1 if key in reference else 1
            # Store timestamps may trail the clock (delayed delivery);
            # only the arrival counts.
            after = image(key, version, timestamp=now - rng.random() * 0.5)
            buffer.observe(after, now)
            reference[key] = (after, now)
            if step % 50 == 49:
                expected = {
                    k for k, (_, arrival) in reference.items()
                    if arrival >= now - 3.0
                }
                assert {a.key for a in buffer.replay(now)} == expected


class TestAgingByArrival:
    """The window is on the cluster's clock: the writer's clock, which
    stamped ``timestamp``, never decides."""

    @pytest.mark.parametrize("skew", [-10.0, 10.0])
    def test_a_skewed_writer_replays_then_ages_out_one_window_later(
        self, skew
    ):
        buffer = RetentionBuffer(2.0)
        arrival = 100.0
        racing = image("racing", 1, timestamp=arrival + skew)
        assert buffer.observe(racing, now=arrival)
        # Right after arrival and up to the window's end: replayed.
        assert buffer.replay(now=arrival) == [racing]
        assert buffer.replay(now=arrival + 2.0) == [racing]
        # One window after arrival it is gone, from replay and from the
        # buffer alike, and observe's own aging drops it too.
        assert buffer.replay(now=arrival + 2.01) == []
        assert len(buffer) == 0
        skewed = RetentionBuffer(2.0)
        skewed.observe(racing, now=arrival)
        skewed.observe(image("later", 1, timestamp=arrival + skew),
                       now=arrival + 3.0)
        assert [a.key for a in skewed] == ["later"]
        assert skewed.latest_version("racing") == 1
