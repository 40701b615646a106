"""Moved symbols and unified seeding.

``PatternBlock`` and ``query_detection_matrix`` live in
``repro.faults.registry``, with no aliases left elsewhere; importing
them from their canonical home must not warn.
"""

import warnings

import pytest


class TestDroppingShims:
    def test_canonical_import_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.faults.registry import (  # noqa: F401
                PatternBlock,
                query_detection_matrix,
            )


class TestSeedUnification:
    def test_conflicting_seed_and_rng_raise(self):
        import random

        from repro.errors import ExperimentError
        from repro.sim.patterns import PatternPairSet, PatternSet

        with pytest.raises(ExperimentError, match="seed= or\n?.*rng="):
            PatternSet.random(4, 8, seed=1, rng=random.Random(1))
        with pytest.raises(ExperimentError, match="not both"):
            PatternPairSet.random(4, 8, seed=1, rng=random.Random(1))

    def test_default_streams_unchanged(self):
        """No seed argument still means the historical seed-0 stream."""
        from repro.sim.patterns import PatternSet

        assert PatternSet.random(4, 16) == PatternSet.random(4, 16, seed=0)

    def test_resolve_rng_contract(self):
        import random

        from repro.errors import ExperimentError
        from repro.utils.rng import make_rng, resolve_rng

        explicit = random.Random(3)
        assert resolve_rng(rng=explicit) is explicit
        assert (resolve_rng(seed=5, label="x").random()
                == make_rng(5, "x").random())
        with pytest.raises(ExperimentError):
            resolve_rng(seed=1, rng=explicit)
