"""ArtifactCache under concurrency: the put race, locking, recency.

Regression suite for the race observable before writes were locked: two
writers of the same key could both tempfile-rename.  ``put`` is now
put-if-absent under one on-disk lock per stage directory, so hammering
one key from a thread pool writes the payload exactly once and readers
never observe a torn or foreign document, while the directory holds one
lock file however many keys are written.  Recency for LRU pruning is
each artifact's mtime, stamped by every hit and written put.
"""

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.flow import ArtifactCache

KEY = "f" * 64
PAYLOAD = {"rows": list(range(64)), "label": "x" * 256}


def requests(cache, result):
    """``repro_cache_requests_total{result=...}`` of one cache."""
    return cache.registry.counter(
        "repro_cache_requests_total").labels(result=result).value


def puts(cache, outcome):
    """``repro_cache_puts_total{outcome=...}`` of one cache."""
    return cache.registry.counter(
        "repro_cache_puts_total").labels(outcome=outcome).value


class TestPutRace:
    def test_hammered_key_written_exactly_once(self, tmp_path):
        """32 racing writers of one key: one write, the rest dedupe."""
        cache = ArtifactCache(tmp_path)
        barrier = threading.Barrier(16)

        def writer(_):
            barrier.wait()
            return cache.put("u", KEY, PAYLOAD)

        with ThreadPoolExecutor(max_workers=16) as pool:
            paths = list(pool.map(writer, range(16)))
        with ThreadPoolExecutor(max_workers=16) as pool:
            paths += list(pool.map(writer, range(16)))

        assert len(set(paths)) == 1
        assert puts(cache, "written") == 1
        assert puts(cache, "deduped") == 31
        assert cache.get("u", KEY) == PAYLOAD

    def test_no_corrupt_reads_while_hammering(self, tmp_path):
        """Concurrent readers see None or the exact payload, never junk."""
        cache = ArtifactCache(tmp_path)
        observed = []
        stop = threading.Event()

        def reader():
            local = ArtifactCache(tmp_path)
            while not stop.is_set():
                value = local.get("u", KEY)
                if value is not None and value != PAYLOAD:
                    observed.append(value)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        def rewrite(_):
            # The Flow's replacement of a stale artifact: delete, then put.
            cache.delete("u", KEY)
            cache.put("u", KEY, PAYLOAD)

        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(rewrite, range(200)))
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert observed == []
        # Exactly one well-formed document on disk.
        document = json.loads((tmp_path / "u" / f"{KEY}.json").read_text())
        assert document["key"] == KEY
        assert document["payload"] == PAYLOAD

    def test_distinct_keys_do_not_contend_results(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        keys = [format(i, "064x") for i in range(24)]
        with ThreadPoolExecutor(max_workers=12) as pool:
            list(pool.map(
                lambda k: cache.put("adi", k, {"key": k}), keys
            ))
        assert puts(cache, "written") == 24
        for key in keys:
            assert cache.get("adi", key) == {"key": key}

    def test_cross_process_single_write(self, tmp_path):
        """Two processes racing one key: the artifact survives intact."""
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            "from repro.flow import ArtifactCache\n"
            "cache = ArtifactCache(sys.argv[1])\n"
            "for _ in range(50):\n"
            "    cache.put('u', 'e' * 64, {'payload': list(range(100))})\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path)],
                env={"PYTHONPATH": src, "PATH": ""},
            )
            for _ in range(2)
        ]
        for proc in procs:
            assert proc.wait() == 0
        assert ArtifactCache(tmp_path).get("u", "e" * 64) == {
            "payload": list(range(100))
        }


class TestReplaceAndDelete:
    def test_delete_then_put_replaces(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("u", KEY, {"v": 1})
        cache.put("u", KEY, {"v": 2})  # deduped: same key, no overwrite
        assert cache.get("u", KEY) == {"v": 1}
        cache.delete("u", KEY)
        cache.put("u", KEY, {"v": 3})
        assert cache.get("u", KEY) == {"v": 3}

    def test_delete(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("u", KEY, {"v": 1})
        assert cache.delete("u", KEY) is True
        assert cache.delete("u", KEY) is False
        assert cache.get("u", KEY) is None

    def test_put_after_corrupt_get_rewrites(self, tmp_path):
        """get() deletes a corrupt file, so a dedup-put can land again."""
        cache = ArtifactCache(tmp_path)
        path = cache.put("u", KEY, {"v": 1})
        path.write_text("garbage{{{")
        assert cache.get("u", KEY) is None
        cache.put("u", KEY, {"v": 2})
        assert cache.get("u", KEY) == {"v": 2}


class TestCountersAndRecency:
    def test_hit_miss_counters(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get("u", KEY) is None
        cache.put("u", KEY, PAYLOAD)
        assert cache.get("u", KEY) == PAYLOAD
        assert requests(cache, "miss") == 1
        assert requests(cache, "hit") == 1
        assert puts(cache, "written") == 1

    def test_hits_and_puts_stamp_mtime(self, tmp_path, monkeypatch):
        """A written put and a hit each stamp the artifact's mtime with
        ``time.time_ns()``: one clock orders puts and hits."""
        cache = ArtifactCache(tmp_path)
        stamp = (time.time_ns() // 10**9 + 1000) * 10**9  # whole seconds
        monkeypatch.setattr(time, "time_ns", lambda: stamp)
        path = cache.put("u", KEY, PAYLOAD)
        assert path.stat().st_mtime_ns == stamp
        monkeypatch.setattr(time, "time_ns", lambda: stamp + 10**9)
        assert cache.get("u", KEY) == PAYLOAD
        assert path.stat().st_mtime_ns == stamp + 10**9

    def test_hits_leave_the_cache_directory_unchanged(self, tmp_path):
        """A hit records nothing on disk beyond its artifact's mtime:
        no file appears and no file grows, however many hits."""
        cache = ArtifactCache(tmp_path)
        cache.put("u", KEY, PAYLOAD)

        def listing():
            return {str(path.relative_to(tmp_path)): path.stat().st_size
                    for path in tmp_path.rglob("*")}

        before = listing()
        for _ in range(100):
            assert cache.get("u", KEY) == PAYLOAD
        assert listing() == before

    def test_lock_files_invisible_to_stats(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("u", KEY, PAYLOAD)
        cache.get("u", KEY)
        stats = cache.stats()
        assert stats["total_files"] == 1
        assert set(stats["stages"]) == {"u"}

    def test_stats_tolerates_concurrent_unlink(self, tmp_path):
        """A file unlinked between glob and stat (a racing prune) is
        skipped, not raised — /stats must never crash mid-prune."""
        cache = ArtifactCache(tmp_path)
        cache.put("u", KEY, PAYLOAD)
        real = list(cache._artifact_files())
        ghost = tmp_path / "u" / f"{'0' * 64}.json"  # never created
        cache._artifact_files = lambda stage=None: iter(real + [ghost])
        stats = cache.stats()
        assert stats["total_files"] == len(real)


class TestLockFiles:
    def test_puts_leave_one_lock_file_per_stage(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        keys = [format(i, "064x") for i in range(50)]
        for key in keys:
            cache.put("u", key, PAYLOAD)
        names = sorted(os.listdir(tmp_path / "u"))
        assert names == [".lock"] + sorted(f"{key}.json" for key in keys)

    @pytest.mark.parametrize("budget", [None, 0, 10**9])
    def test_prune_removes_legacy_per_key_locks(self, tmp_path, budget):
        """Older versions left one ``.<key>.lock`` per key ever written;
        prune removes them, but never a stage's live ``.lock``."""
        cache = ArtifactCache(tmp_path)
        for i in range(50):
            key = format(i, "064x")
            cache.put("u", key, PAYLOAD)
            (tmp_path / "u" / f".{key}.lock").touch()
        other_stage = tmp_path / "adi" / f".{'e' * 64}.lock"
        other_stage.parent.mkdir()
        other_stage.touch()
        (tmp_path / "u" / ".notakey.lock").touch()
        cache.prune(max_bytes=budget)
        assert sorted(os.listdir(tmp_path / "adi")) == []
        locks = sorted(name for name in os.listdir(tmp_path / "u")
                       if name.endswith(".lock"))
        assert locks == [".lock", ".notakey.lock"]
        # The lock still serializes writers after the prune.
        cache.put("u", KEY, PAYLOAD)
        assert cache.get("u", KEY) == PAYLOAD


class TestLruPrune:
    def _fill(self, cache, count, size=200):
        keys = [format(i, "064x") for i in range(count)]
        for key in keys:
            cache.put("u", key, {"pad": "x" * size, "k": key})
        return keys

    def test_prune_to_budget_keeps_recent(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        keys = self._fill(cache, 6)
        # Touch the first two again: they become the most recently used.
        cache.get("u", keys[0])
        cache.get("u", keys[1])
        sizes = {p.name: p.stat().st_size
                 for p in (tmp_path / "u").glob("*.json")}
        budget = sum(sorted(sizes.values())[:3])
        cache.prune(max_bytes=budget)
        assert cache.stats()["total_bytes"] <= budget
        assert cache.get("u", keys[0]) == {"pad": "x" * 200, "k": keys[0]}
        assert cache.get("u", keys[1]) == {"pad": "x" * 200, "k": keys[1]}
        assert cache.get("u", keys[2]) is None  # LRU victim

    def test_eviction_follows_the_access_sequence(self, tmp_path):
        """Puts in reverse name order, then three re-hits: a budget of
        three artifacts keeps exactly the three latest accesses.  The
        reverse order keeps a path tie-break from passing by accident."""
        cache = ArtifactCache(tmp_path)
        keys = [format(i, "064x") for i in range(8)]
        for key in reversed(keys):
            cache.put("u", key, {"pad": "x" * 200})
        hits = [keys[5], keys[2], keys[6]]
        for key in hits:
            assert cache.get("u", key) is not None
        size = cache._path("u", keys[0]).stat().st_size
        assert cache.prune(max_bytes=3 * size) == 5
        survivors = {path.stem for path in (tmp_path / "u").glob("*.json")}
        assert survivors == set(hits)

    def test_prune_without_budget_clears_everything(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        self._fill(cache, 4)
        assert cache.prune() == 4
        assert cache.stats()["total_files"] == 0

    def test_prune_stage_scoped_keeps_other_stages(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("u", "a" * 64, {"v": 1})
        cache.put("adi", "b" * 64, {"v": 2})
        assert cache.prune(stage="u") == 1
        assert cache.get("u", "a" * 64) is None
        assert cache.get("adi", "b" * 64) == {"v": 2}

    def test_prune_budget_zero_removes_all(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        self._fill(cache, 3)
        assert cache.prune(max_bytes=0) == 3
        assert cache.stats()["total_files"] == 0

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactCache(tmp_path).prune(max_bytes=-1)

    def test_prune_evicts_by_file_mtime(self, tmp_path):
        """Recency is the file's mtime, however it was set — artifacts
        written by an older cache prune by their write times."""
        cache = ArtifactCache(tmp_path)
        keys = self._fill(cache, 3)
        now = time.time()
        for i, key in enumerate(keys):
            path = tmp_path / "u" / f"{key}.json"
            os.utime(path, (now - 100 + i, now - 100 + i))
        one = (tmp_path / "u" / f"{keys[0]}.json").stat().st_size
        cache.prune(max_bytes=one)
        assert cache.get("u", keys[2]) is not None  # newest mtime survives
        assert cache.get("u", keys[0]) is None
