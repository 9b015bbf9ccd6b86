"""Analysis helpers: the Fig. 2 regression, stats, tables."""

import numpy as np
import pytest

from repro.analysis import (
    ReferenceDistanceCurve,
    blank_frame_distortion,
    fit_distortion_polynomial,
    measure_recovery_fraction,
    measure_reference_distance_distortion,
    relative_error,
    render_series,
    render_table,
    summarize,
)
from repro.video import CodecConfig, encode_sequence


class TestReferenceDistanceCurve:
    def test_distortion_grows_with_distance_fast(self, fast_clip):
        curve = measure_reference_distance_distortion(fast_clip,
                                                      max_distance=8)
        values = curve.mean_distortion
        assert values[-1] > values[0]

    def test_fast_exceeds_slow_at_all_distances(self, slow_clip, fast_clip):
        """The Fig. 2 motion-class separation."""
        slow = measure_reference_distance_distortion(slow_clip, max_distance=6)
        fast = measure_reference_distance_distortion(fast_clip, max_distance=6)
        for s, f in zip(slow.mean_distortion, fast.mean_distortion):
            assert f > s

    def test_distance_bounds(self, slow_clip):
        with pytest.raises(ValueError):
            measure_reference_distance_distortion(slow_clip, max_distance=0)
        with pytest.raises(ValueError):
            measure_reference_distance_distortion(slow_clip,
                                                  max_distance=1000)


class TestPolynomialFit:
    def test_fit_tracks_measurements(self, fast_clip):
        curve = measure_reference_distance_distortion(fast_clip,
                                                      max_distance=10)
        poly = fit_distortion_polynomial(curve)
        xs, ys = curve.as_arrays()
        for x, y in zip(xs, ys):
            assert poly(x) == pytest.approx(y, rel=0.5, abs=20.0)

    def test_fit_anchored_at_origin(self, fast_clip):
        curve = measure_reference_distance_distortion(fast_clip,
                                                      max_distance=10)
        poly = fit_distortion_polynomial(curve)
        assert poly(0.0) == 0.0

    def test_cap_default(self):
        curve = ReferenceDistanceCurve((1, 2, 3), (10.0, 20.0, 30.0))
        poly = fit_distortion_polynomial(curve, degree=2)
        assert poly.cap == pytest.approx(45.0)

    def test_explicit_cap(self):
        curve = ReferenceDistanceCurve((1, 2), (10.0, 20.0))
        poly = fit_distortion_polynomial(curve, degree=1, cap=100.0)
        assert poly.cap == 100.0


class TestBlankDistortion:
    def test_positive_and_large(self, slow_clip):
        assert blank_frame_distortion(slow_clip) > 1000.0


class TestRecoveryFraction:
    def test_slow_near_one_fast_near_zero(self, slow_clip, slow_bitstream,
                                          fast_clip, fast_bitstream):
        """The central calibration asymmetry (Section 6.2 reproduced)."""
        slow = measure_recovery_fraction(slow_clip, slow_bitstream,
                                         sensitivity_fraction=0.55)
        fast = measure_recovery_fraction(fast_clip, fast_bitstream,
                                         sensitivity_fraction=0.9)
        assert slow > 0.5
        assert fast < 0.1

    def test_bounded(self, medium_clip):
        value = measure_recovery_fraction(
            medium_clip, encode_sequence(medium_clip, CodecConfig()))
        assert 0.0 <= value <= 1.0


class TestStats:
    def test_summary_mean(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.n == 4
        assert summary.low < summary.mean < summary.high

    def test_single_sample(self):
        summary = summarize([5.0])
        assert summary.ci_halfwidth == 0.0

    def test_ci_narrows_with_samples(self):
        rng = np.random.default_rng(0)
        small = summarize(rng.normal(0, 1, 10))
        large = summarize(rng.normal(0, 1, 1000))
        assert large.ci_halfwidth < small.ci_halfwidth

    def test_ci_coverage(self):
        """95% CI should cover the true mean ~95% of the time."""
        rng = np.random.default_rng(1)
        covered = 0
        trials = 300
        for _ in range(trials):
            summary = summarize(rng.normal(10.0, 2.0, 20))
            if summary.low <= 10.0 <= summary.high:
                covered += 1
        assert covered / trials == pytest.approx(0.95, abs=0.04)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_relative_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        assert relative_error(0.0, 0.0) == 0.0


class TestTables:
    def test_render_alignment(self):
        text = render_table(
            ["policy", "delay"],
            [["none", 1.234567], ["all", 22.2]],
            title="Fig. X",
        )
        lines = text.splitlines()
        assert lines[0] == "Fig. X"
        assert "policy" in lines[2]
        assert "1.235" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_render_series(self):
        text = render_series("slow", [10, 20], [1.5, 2.5], unit="ms")
        assert text == "slow: 10=1.5ms, 20=2.5ms"

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            render_series("x", [1], [1.0, 2.0])
