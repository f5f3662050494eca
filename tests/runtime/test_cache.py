"""Content-addressed cache: hits, misses, invalidation, corruption recovery."""

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.registry import ExperimentReport
from repro.runtime.cache import ResultCache

REPORT = ExperimentReport(
    name="demo",
    title="Demo",
    text="body",
    data={"ratio": 2.5, "series": {8: 1.0, 16: 1.1}, "profile": [(0.0, 1)]},
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestHitMiss:
    def test_empty_cache_misses(self, cache):
        assert cache.get("demo", {"P": 16}) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_put_then_get_returns_identical_report(self, cache):
        cache.put("demo", {"P": 16}, REPORT, compute_time_s=0.25)
        entry = cache.get("demo", {"P": 16})
        assert entry is not None
        assert entry.report == REPORT
        assert entry.compute_time_s == 0.25
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_changed_kwargs_miss(self, cache):
        cache.put("demo", {"P": 16}, REPORT, compute_time_s=0.1)
        assert cache.get("demo", {"P": 32}) is None
        assert cache.get("demo", {"P": 16, "seed": 1}) is None

    def test_different_experiment_miss(self, cache):
        cache.put("demo", {"P": 16}, REPORT, compute_time_s=0.1)
        assert cache.get("other", {"P": 16}) is None

    def test_kwarg_order_is_irrelevant(self, cache):
        cache.put("demo", {"P": 16, "seed": 3}, REPORT, compute_time_s=0.1)
        assert cache.get("demo", {"seed": 3, "P": 16}) is not None


class TestVersioning:
    def test_version_bump_invalidates(self, tmp_path):
        old = ResultCache(tmp_path / "cache", version="1.0.0")
        old.put("demo", {"P": 16}, REPORT, compute_time_s=0.1)
        new = ResultCache(tmp_path / "cache", version="1.1.0")
        assert new.get("demo", {"P": 16}) is None
        # The old entry is still addressable under the old version.
        assert old.get("demo", {"P": 16}) is not None

    def test_key_includes_version(self, cache):
        a = cache.key_for("demo", {"P": 16})
        b = ResultCache(cache.root, version="other").key_for("demo", {"P": 16})
        assert a != b


class TestKeyStability:
    """Entries written by earlier releases must keep resolving."""

    #: ``key_for("demo", {"P": 16})`` at version 1.0.0.  The key formula
    #: is an on-disk contract: changing it orphans every user's cache.
    PINNED_KEY = "d3edbf44b704546fcdab6f0bb6c82398e348207f10d8de7e83b5067ef2fcdd85"

    def test_key_is_pinned(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", version="1.0.0")
        assert cache.key_for("demo", {"P": 16}) == self.PINNED_KEY

    def test_entry_with_legacy_backend_field_still_hits(self, tmp_path):
        # Older releases stored ``"backend": "reference"`` in every entry;
        # the reader must ignore the field.
        cache = ResultCache(tmp_path / "cache", version="1.0.0")
        key = cache.put("demo", {"P": 16}, REPORT, compute_time_s=0.1)
        assert key == self.PINNED_KEY
        path = tmp_path / "cache" / f"{key}.json"
        payload = json.loads(path.read_text())
        assert "backend" not in payload
        payload["backend"] = "reference"
        path.write_text(json.dumps(payload, sort_keys=True, indent=1))
        entry = cache.get("demo", {"P": 16})
        assert entry is not None
        assert entry.report == REPORT
        assert cache.stats.invalidations == 0


class TestCorruption:
    def put_one(self, cache):
        key = cache.put("demo", {"P": 16}, REPORT, compute_time_s=0.1)
        return cache.root / f"{key}.json"

    def test_truncated_entry_recovers(self, cache):
        path = self.put_one(cache)
        path.write_text(path.read_text()[:40])
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            assert cache.get("demo", {"P": 16}) is None
        assert cache.stats.invalidations == 1
        assert not path.exists()

    def test_tampered_payload_fails_digest_check(self, cache):
        path = self.put_one(cache)
        payload = json.loads(path.read_text())
        payload["text"] = "tampered"
        path.write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning, match="digest mismatch"):
            assert cache.get("demo", {"P": 16}) is None
        assert cache.stats.invalidations == 1

    def test_recompute_after_eviction_repopulates(self, cache):
        path = self.put_one(cache)
        path.write_text("not json")
        with pytest.warns(RuntimeWarning):
            assert cache.get("demo", {"P": 16}) is None
        cache.put("demo", {"P": 16}, REPORT, compute_time_s=0.2)
        entry = cache.get("demo", {"P": 16})
        assert entry is not None and entry.report == REPORT


class TestCorruptionFuzz:
    """Property: no on-disk corruption may ever raise out of ``get``.

    Every corrupted entry must behave as a miss — evicted with a warning,
    never served and never an exception.
    """

    def assert_survives(self, cache, path, payload: bytes):
        path.write_bytes(payload)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            entry = cache.get("demo", {"P": 16})
        assert entry is None or entry.report == REPORT
        if entry is None:
            assert not path.exists()  # corrupt entries are evicted

    @given(data=st.binary(max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_random_bytes(self, tmp_path_factory, data):
        cache = ResultCache(tmp_path_factory.mktemp("cache"))
        key = cache.put("demo", {"P": 16}, REPORT, compute_time_s=0.1)
        self.assert_survives(cache, cache.root / f"{key}.json", data)

    @given(
        json_value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
            lambda children: st.lists(children, max_size=3)
            | st.dictionaries(st.text(max_size=8), children, max_size=3),
            max_leaves=12,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_json(self, tmp_path_factory, json_value):
        cache = ResultCache(tmp_path_factory.mktemp("cache"))
        key = cache.put("demo", {"P": 16}, REPORT, compute_time_s=0.1)
        payload = json.dumps(json_value).encode("utf-8")
        self.assert_survives(cache, cache.root / f"{key}.json", payload)

    @given(cut=st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_any_truncation(self, tmp_path_factory, cut):
        cache = ResultCache(tmp_path_factory.mktemp("cache"))
        key = cache.put("demo", {"P": 16}, REPORT, compute_time_s=0.1)
        path = cache.root / f"{key}.json"
        self.assert_survives(cache, path, path.read_bytes()[:cut])

    def test_empty_file(self, cache):
        path = cache.root / f"{cache.put('demo', {'P': 16}, REPORT, compute_time_s=0.1)}.json"
        self.assert_survives(cache, path, b"")

    def test_pathologically_nested_entry(self, cache):
        # Deep nesting drives json.loads/decode_value into RecursionError
        # territory — must evict, not blow the stack outward.
        depth = 40_000
        path = cache.root / f"{cache.put('demo', {'P': 16}, REPORT, compute_time_s=0.1)}.json"
        self.assert_survives(cache, path, b"[" * depth + b"]" * depth)

    def test_wrong_digest_with_valid_shape(self, cache):
        path = cache.root / f"{cache.put('demo', {'P': 16}, REPORT, compute_time_s=0.1)}.json"
        payload = json.loads(path.read_text())
        payload["digest"] = "0" * 64
        self.assert_survives(cache, path, json.dumps(payload).encode("utf-8"))


class TestInjectableClock:
    def test_created_s_comes_from_the_injected_clock(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", clock=lambda: 1234.5)
        key = cache.put("demo", {"P": 16}, REPORT, compute_time_s=0.1)
        payload = json.loads((cache.root / f"{key}.json").read_text())
        assert payload["created_s"] == 1234.5

    def test_default_clock_is_wall_time(self, tmp_path):
        import time

        assert ResultCache(tmp_path / "cache").clock is time.time


class TestMetricsPayload:
    def test_metrics_round_trip_through_the_cache(self, cache):
        metrics = {"engine.events": {"kind": "counter", "value": 42.0}}
        cache.put("demo", {"P": 16}, REPORT, compute_time_s=0.1, metrics=metrics)
        entry = cache.get("demo", {"P": 16})
        assert entry is not None
        assert entry.metrics == metrics

    def test_metrics_default_to_none(self, cache):
        cache.put("demo", {"P": 16}, REPORT, compute_time_s=0.1)
        entry = cache.get("demo", {"P": 16})
        assert entry is not None
        assert entry.metrics is None


class TestMaintenance:
    def test_len_and_clear(self, cache):
        assert len(cache) == 0
        cache.put("demo", {"P": 16}, REPORT, compute_time_s=0.1)
        cache.put("demo", {"P": 32}, REPORT, compute_time_s=0.1)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
