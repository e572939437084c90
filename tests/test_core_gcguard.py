"""Tests for the GC guards (§V-C manual memory management): the bulk-build
guard and the request-scoped collector policy."""

import gc
import weakref

import pytest

from repro.core.gcguard import RequestCollector, no_gc


class TestNoGc:
    def test_disables_inside_and_restores(self):
        assert gc.isenabled()
        with no_gc():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_nested_guards_restore_once(self):
        with no_gc():
            with no_gc():
                assert not gc.isenabled()
            # The inner guard must not re-enable: its entry state was
            # "disabled" (the outer guard turned collection off).
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_on_exception(self):
        try:
            with no_gc():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert gc.isenabled()

    def test_respects_externally_disabled_gc(self):
        gc.disable()
        try:
            with no_gc():
                pass
            # GC was off before the guard; it must stay off after.
            assert not gc.isenabled()
        finally:
            gc.enable()


class Cyclic:
    def __init__(self):
        self.me = self


@pytest.fixture
def policy():
    """A fresh policy over a thawed heap; the heap is thawed again after,
    so frozen objects never outlive the test."""
    gc.unfreeze()
    yield RequestCollector()
    gc.unfreeze()
    gc.enable()


class TestRequestCollector:
    def test_collector_off_inside_on_after(self, policy):
        with policy.request():
            assert not gc.isenabled()
            assert policy.inflight == 1
        assert gc.isenabled()
        assert policy.inflight == 0

    def test_survivors_are_frozen(self, policy):
        with policy.request():
            kept = [[] for _ in range(1000)]
        assert gc.get_freeze_count() >= len(kept)
        assert policy.frozen_objects >= len(kept)

    def test_reclaim_pass_frees_frozen_garbage(self, policy):
        with policy.request():
            garbage = Cyclic()
        probe = weakref.ref(garbage)
        del garbage
        gc.collect()  # frozen: invisible to an ordinary full collection
        assert probe() is not None
        # Freezing more objects than the last whole-heap pass kept is
        # what starts the next pass.
        with policy.request():
            alive = [[] for _ in range(policy.frozen_objects + 1)]
        assert probe() is None
        assert policy.frozen_objects >= len(alive)

    def test_no_collection_without_reclaim(self, policy):
        with policy.request():
            pass  # the first freeze sets the baseline
        with policy.request():
            garbage = Cyclic()
        probe = weakref.ref(garbage)
        del garbage
        with policy.request():
            pass
        # A request's frozen survivors stay put until a reclaim is due.
        assert probe() is not None

    def test_nested_no_gc(self, policy):
        with policy.request():
            with no_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_exceptions_restore_the_collector(self, policy):
        for exc in (RuntimeError, KeyboardInterrupt):
            with pytest.raises(exc):
                with policy.request():
                    raise exc()
            assert gc.isenabled()
            assert policy.inflight == 0

    def test_disabled_from_outside_stays_off_and_freezes_nothing(self,
                                                                 policy):
        gc.disable()
        with policy.request():
            kept = [[] for _ in range(100)]
        assert not gc.isenabled()
        assert gc.get_freeze_count() == 0
        assert policy.frozen_objects == 0
        assert kept

    def test_overlapping_requests(self, policy):
        first = policy.request()
        second = policy.request()
        first.__enter__()
        second.__enter__()                 # joins with the collector off
        assert not gc.isenabled()
        frozen = gc.get_freeze_count()
        first.__exit__(None, None, None)   # the pauser turns it back on
        assert gc.isenabled()
        assert policy.inflight == 1
        kept = [[] for _ in range(100)]
        assert gc.get_freeze_count() == frozen  # nothing freezes mid-flight
        second.__exit__(None, None, None)
        assert gc.isenabled()
        assert policy.inflight == 0
        assert gc.get_freeze_count() >= frozen + len(kept)

    def test_joiner_leaves_the_collector_as_found(self, policy):
        first = policy.request()
        first.__enter__()
        with policy.request():
            assert not gc.isenabled()
        assert not gc.isenabled()          # the joiner did not turn it on
        first.__exit__(None, None, None)
        assert gc.isenabled()
        assert policy.inflight == 0
