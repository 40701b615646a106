"""Property tests: the LRU/size-bounded prune policy and key stability.

Hypothesis drives the two contracts the flow server's cache hardening
rests on:

* ``prune(max_bytes=B)`` never leaves the cache above ``B``, always
  survives the most-recently-hit artifacts (eviction is strictly
  LRU-first), and is idempotent;
* ``stage_key`` is invariant under a ``canonical_json`` round-trip of
  its config part — the property that lets a key computed from a parsed
  HTTP request body match one computed from the in-memory config tree.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flow import ArtifactCache, stage_key
from repro.flow.cache import canonical_json

#: JSON-representable values (finite numbers only — canonical_json
#: rejects NaN/Infinity by design).
json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-(2 ** 53), max_value=2 ** 53)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=12,
)

#: A cache population plus an access trace over it: artifact sizes by
#: index, then a sequence of indices to re-hit (most recent last).
populations = st.lists(st.integers(min_value=0, max_value=400),
                       min_size=1, max_size=8)


def _key(i: int) -> str:
    return format(i, "064x")


def _populate(tmp_path, sizes, hits):
    cache = ArtifactCache(tmp_path)
    for i, size in enumerate(sizes):
        cache.put("u", _key(i), {"pad": "x" * size, "i": i})
    for i in hits:
        assert cache.get("u", _key(i)) is not None
    return cache


class TestPrunePolicy:
    @given(
        sizes=populations,
        budget=st.integers(min_value=0, max_value=4000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_never_exceeds_budget(self, tmp_path_factory, sizes, budget,
                                  data):
        tmp_path = tmp_path_factory.mktemp("prune")
        hits = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(sizes) - 1), max_size=12
        ))
        cache = _populate(tmp_path, sizes, hits)
        cache.prune(max_bytes=budget)
        assert cache.stats()["total_bytes"] <= budget

    @given(sizes=populations, data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_survivors_are_most_recently_hit(self, tmp_path_factory, sizes,
                                             data):
        tmp_path = tmp_path_factory.mktemp("prune")
        hits = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(sizes) - 1), max_size=12
        ))
        cache = _populate(tmp_path, sizes, hits)
        times = {p.stem: p.stat().st_mtime_ns
                 for p in (tmp_path / "u").glob("*.json")}
        before = set(times)
        total = cache.stats()["total_bytes"]
        budget = data.draw(st.integers(min_value=0, max_value=total))
        cache.prune(max_bytes=budget)
        after = {p.stem for p in (tmp_path / "u").glob("*.json")}
        evicted = before - after
        if evicted and after:
            newest_evicted = max(times[key] for key in evicted)
            oldest_survivor = min(times[key] for key in after)
            assert newest_evicted <= oldest_survivor

    @given(
        sizes=populations,
        budget=st.integers(min_value=0, max_value=4000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_prune_is_idempotent(self, tmp_path_factory, sizes, budget,
                                 data):
        tmp_path = tmp_path_factory.mktemp("prune")
        hits = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(sizes) - 1), max_size=12
        ))
        cache = _populate(tmp_path, sizes, hits)
        cache.prune(max_bytes=budget)
        survivors = {p.stem for p in (tmp_path / "u").glob("*.json")}
        assert cache.prune(max_bytes=budget) == 0
        assert {p.stem for p in (tmp_path / "u").glob("*.json")} == survivors


class TestStageKeyStability:
    @given(part=json_values, upstream=st.lists(st.text(max_size=16),
                                               max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_stage_key_survives_canonical_json_round_trip(self, part,
                                                          upstream):
        """A key from a parsed request body equals the in-memory key."""
        round_tripped = json.loads(canonical_json(part))
        assert (stage_key("u", round_tripped, upstream)
                == stage_key("u", part, upstream))

    @given(part=json_values)
    @settings(max_examples=80, deadline=None)
    def test_canonical_json_is_a_fixed_point(self, part):
        once = canonical_json(part)
        assert canonical_json(json.loads(once)) == once

    def test_int_float_distinction(self):
        """1 and 1.0 are distinct configs and must not share a key."""
        assert stage_key("u", {"x": 1}) != stage_key("u", {"x": 1.0})
