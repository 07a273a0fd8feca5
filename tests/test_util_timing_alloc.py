"""Tests for the phase timer and allocation tracker."""

import time

import pytest

from repro.obs import Tracer, obs_context
from repro.util.alloc import AllocationTracker
from repro.util.timing import PhaseTimer


class TestPhaseTimer:
    def test_accumulates(self):
        t = PhaseTimer()
        with t.phase("a"):
            time.sleep(0.002)
        with t.phase("a"):
            pass
        assert t.seconds["a"] >= 0.002
        assert t.count("a") == 2

    def test_manual_add(self):
        t = PhaseTimer()
        t.add("x", 1.5)
        t.add("x", 0.5)
        assert t.seconds["x"] == pytest.approx(2.0)
        assert t.total == pytest.approx(2.0)

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            PhaseTimer().add("x", -1.0)

    def test_fractions_sum_to_one(self):
        t = PhaseTimer()
        t.add("a", 3.0)
        t.add("b", 1.0)
        fr = t.fractions()
        assert fr["a"] == pytest.approx(0.75)
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_fractions_empty(self):
        assert PhaseTimer().fractions() == {}

    def test_merge(self):
        t1, t2 = PhaseTimer(), PhaseTimer()
        t1.add("a", 1.0)
        t2.add("a", 2.0)
        t2.add("b", 3.0)
        t1.merge(t2)
        assert t1.seconds == {"a": 3.0, "b": 3.0}
        assert t1.count("a") == 2

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_exception_still_recorded(self, traced):
        tracer = Tracer()
        t = PhaseTimer()
        with obs_context(tracer=tracer if traced else None):
            with pytest.raises(RuntimeError):
                with t.phase("x"):
                    raise RuntimeError("boom")
        assert "x" in t.seconds and t.count("x") == 1
        if traced:
            (span,) = tracer.spans
            assert (span.name, span.cat) == ("x", "step")
            assert t.seconds["x"] == span.duration_s
        else:
            assert tracer.spans == []


class TestAllocationTracker:
    def test_peak_tracking(self):
        a = AllocationTracker()
        a.alloc("x", 100)
        a.alloc("y", 50)
        a.free("x")
        a.alloc("z", 60)
        assert a.peak_bytes == 150
        assert a.live_bytes == 110
        assert a.total_allocated == 210

    def test_double_alloc_rejected(self):
        a = AllocationTracker()
        a.alloc("x", 1)
        with pytest.raises(ValueError):
            a.alloc("x", 1)

    def test_unknown_free_rejected(self):
        with pytest.raises(ValueError):
            AllocationTracker().free("nope")

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            AllocationTracker().alloc("x", -5)

    def test_free_all(self):
        a = AllocationTracker()
        a.alloc("x", 10)
        a.alloc("y", 20)
        a.free_all()
        assert a.live_bytes == 0
        assert a.live_labels() == ()
        assert a.peak_bytes == 30

    def test_phases_tagged(self):
        a = AllocationTracker()
        a.set_phase("p1")
        a.alloc("x", 10)
        a.set_phase("p2")
        a.alloc("y", 30)
        peaks = a.peak_by_phase()
        assert peaks == {"p1": 10, "p2": 40}

    def test_timeline_steps(self):
        a = AllocationTracker()
        a.alloc("x", 10)
        a.alloc("y", 5)
        a.free("x")
        tl = a.timeline(total_seconds=3.0)
        assert [b for _, b in tl] == [10, 15, 5]
        assert tl[-1][0] == pytest.approx(3.0)

    def test_timeline_empty(self):
        assert AllocationTracker().timeline() == [(0.0, 0)]

    def test_alloc_array(self):
        import numpy as np

        a = AllocationTracker()
        a.alloc_array("arr", np.zeros(10, dtype=np.float64))
        assert a.live_bytes == 80
