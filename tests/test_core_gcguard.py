"""Tests for the GC guard (§V-C manual memory management) around bulk
builds."""

import gc

from repro.core.gcguard import no_gc


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
