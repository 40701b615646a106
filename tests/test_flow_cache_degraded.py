"""Degraded-mode behaviour of the artifact cache.

A cache that cannot write (ENOSPC, read-only filesystem, revoked
permissions) must never turn into a request failure: the put path flips
into sticky pass-through, recency stamps and prunes absorb their
OSErrors without flipping the flag, and every absorbed error is counted
under ``repro_cache_degraded_total{op=...}``.  These tests drive the
failure paths both directly (monkeypatched filesystem) and through the
``cache.write.enospc`` / ``cache.read.corrupt`` chaos sites.
"""

import errno
import json

import pytest

from repro.flow.cache import ArtifactCache
from repro.resilience import ChaosPlan, SiteSpec, chaos_plan, install_plan


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    previous = install_plan(None)
    yield
    install_plan(previous)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


def _degraded_count(cache, op):
    return cache.registry.counter(
        "repro_cache_degraded_total").labels(op=op).value


def _put_outcome(cache, outcome):
    return cache.registry.counter(
        "repro_cache_puts_total").labels(outcome=outcome).value


class TestStickyPutDegradation:
    def test_enospc_flips_pass_through_and_flow_continues(self, cache):
        plan = ChaosPlan({"cache.write.enospc": 1.0})
        with chaos_plan(plan):
            path = cache.put("adi", "k1", {"rows": [1, 2]})
        assert cache.degraded is True
        assert not path.exists()  # nothing was persisted
        assert _degraded_count(cache, "put") == 1
        assert _put_outcome(cache, "degraded") == 1
        # Subsequent puts short-circuit (no second absorbed error) even
        # after the chaos plan is gone — the flag is sticky.
        cache.put("adi", "k2", {"rows": [3]})
        assert _degraded_count(cache, "put") == 1
        assert _put_outcome(cache, "degraded") == 2
        assert cache.get("adi", "k2") is None  # honest miss, not a lie

    def test_reads_keep_working_while_degraded(self, cache):
        cache.put("adi", "warm", {"rows": [7]})
        with chaos_plan(ChaosPlan({"cache.write.enospc": 1.0})):
            cache.put("adi", "cold", {"rows": [8]})
        assert cache.degraded
        assert cache.get("adi", "warm") == {"rows": [7]}

    def test_reset_degraded_rearms_writes(self, cache):
        with chaos_plan(ChaosPlan({"cache.write.enospc": 1.0})):
            cache.put("adi", "k1", {"rows": [1]})
        assert cache.degraded
        cache.reset_degraded()
        assert not cache.degraded
        cache.put("adi", "k1", {"rows": [1]})
        assert cache.get("adi", "k1") == {"rows": [1]}
        assert _put_outcome(cache, "written") == 1

    def test_max_fires_models_transient_enospc(self, cache):
        """One injected ENOSPC, then the disk 'recovers': the first put
        degrades, a reset re-arms, the second put lands."""
        spec = SiteSpec("cache.write.enospc", 1.0, max_fires=1)
        with chaos_plan(ChaosPlan({"cache.write.enospc": spec})):
            cache.put("adi", "k1", {"rows": [1]})
            assert cache.degraded
            cache.reset_degraded()
            cache.put("adi", "k1", {"rows": [1]})
        assert cache.get("adi", "k1") == {"rows": [1]}

    def test_real_oserror_also_degrades(self, cache, monkeypatch):
        """Not just chaos: a genuine mkdir failure takes the same path."""
        def refuse(*args, **kwargs):
            raise OSError(errno.EROFS, "read-only file system")

        monkeypatch.setattr("pathlib.Path.mkdir", refuse)
        path = cache.put("adi", "k1", {"rows": [1]})
        assert cache.degraded
        assert not path.exists()
        assert _degraded_count(cache, "put") == 1

    def test_stats_reports_degraded(self, cache):
        assert cache.stats()["degraded"] is False
        with chaos_plan(ChaosPlan({"cache.write.enospc": 1.0})):
            cache.put("adi", "k1", {"rows": [1]})
        assert cache.stats()["degraded"] is True


class TestAdvisoryPaths:
    def test_failed_stamp_is_absorbed_not_sticky(self, cache,
                                                 monkeypatch):
        cache.put("adi", "warm", {"rows": [1]})

        def refuse(*args, **kwargs):
            raise OSError(errno.EROFS, "read-only file system")

        monkeypatch.setattr("os.utime", refuse)
        # A hit stamps its artifact's mtime; the failure must not
        # surface and must not flip pass-through (a stamp only orders
        # eviction).
        assert cache.get("adi", "warm") == {"rows": [1]}
        assert _degraded_count(cache, "touch") == 1
        assert not cache.degraded
        assert cache.stats()["degraded"] is False

    def test_stamp_of_a_pruned_file_is_not_an_error(self, cache,
                                                    monkeypatch):
        """A prune that unlinks the file between the read and the stamp
        leaves a plain hit: nothing counted, nothing logged."""
        cache.put("adi", "warm", {"rows": [1]})

        def pruned_meanwhile(*args, **kwargs):
            raise FileNotFoundError(errno.ENOENT, "no such file")

        monkeypatch.setattr("os.utime", pruned_meanwhile)
        assert cache.get("adi", "warm") == {"rows": [1]}
        assert _degraded_count(cache, "touch") == 0
        assert not cache.degraded

    def test_prune_oserror_removes_nothing_and_is_counted(
            self, cache, monkeypatch):
        cache.put("adi", "k1", {"rows": [1]})

        def refuse(self):
            raise OSError(errno.EACCES, "permission denied")

        monkeypatch.setattr("pathlib.Path.iterdir", refuse)
        assert cache.prune() == 0
        assert not cache.degraded
        assert _degraded_count(cache, "prune") == 1

    def test_prune_value_error_still_raises(self, cache):
        with pytest.raises(ValueError, match="max_bytes"):
            cache.prune(max_bytes=-1)


class TestReadCorruption:
    def test_chaos_corrupt_read_is_a_miss_but_keeps_valid_files(
            self, cache):
        path = cache.put("adi", "k1", {"rows": [1, 2, 3]})
        assert path.exists()
        spec = SiteSpec("cache.read.corrupt", 1.0, max_fires=1)
        with chaos_plan(ChaosPlan({"cache.read.corrupt": spec})):
            # The truncated text fails to parse → miss, caller recomputes.
            assert cache.get("adi", "k1") is None
        # Recovery re-validated the file under the key lock before
        # deleting: the on-disk artifact is actually fine (only the read
        # was garbled), so it survives and the next read hits.
        assert path.exists()
        requests = cache.registry.counter("repro_cache_requests_total")
        assert requests.labels(result="miss").value == 1
        assert cache.get("adi", "k1") == {"rows": [1, 2, 3]}

    def test_truly_corrupt_file_is_deleted_on_read(self, cache):
        path = cache.put("adi", "k1", {"rows": [1]})
        path.write_text("{ torn mid-wri")
        assert cache.get("adi", "k1") is None
        assert not path.exists()  # recovery unlinked the bad entry

    def test_unremovable_corrupt_entry_counts_recover(self, cache,
                                                      monkeypatch):
        path = cache.put("adi", "k1", {"rows": [1]})
        path.write_text(json.dumps({"not": "an artifact"}))

        def refuse_lock(self):
            raise OSError(errno.EROFS, "read-only file system")

        from repro.flow import cache as cache_module
        monkeypatch.setattr(cache_module._FileLock, "__enter__",
                            refuse_lock)
        assert cache.get("adi", "k1") is None  # still just a miss
        assert not cache.degraded
        assert _degraded_count(cache, "recover") == 1
