"""Differential tests for the fast calibration layers.

The Fig. 2 curve, the blank-frame distortion and the codec's global
motion search each have one implementation in ``src/``.  The
straightforward versions they replaced live here as oracles, and the
fast ones must agree with them exactly (``==``, never approx):

- the curve: one full-clip float64 subtract-square pass per distance;
- the blank distortion: the float64 mean over the whole clip;
- the motion search: 169 full-frame ``np.roll`` candidates, keeping the
  first strict SAD minimum in (dy, dx) order.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.regression import (
    blank_frame_distortion,
    measure_reference_distance_distortion,
)
from repro.video.codec import _MOTION_SEARCH_RANGE, _estimate_global_motion
from repro.video.yuv import Frame, Sequence420

relaxed = settings(deadline=None, max_examples=40,
                   suppress_health_check=[HealthCheck.too_slow])


# -- oracles -------------------------------------------------------------------


def curve_oracle(sequence, max_distance, frame_stride=1):
    lumas = sequence.luma_stack().astype(np.float64)
    means = []
    for distance in range(1, max_distance + 1):
        current = lumas[distance:]
        reference = lumas[:-distance]
        step_mse = np.mean(
            (current[::frame_stride] - reference[::frame_stride]) ** 2,
            axis=(1, 2))
        means.append(float(np.mean(step_mse)))
    return tuple(means)


def blank_oracle(sequence):
    blank = Frame.blank(sequence.width, sequence.height)
    lumas = sequence.luma_stack().astype(np.float64)
    return float(np.mean((lumas - blank.y.astype(np.float64)) ** 2))


def motion_oracle(current, reference):
    best = (0, 0)
    current_coarse = current[::4, ::4].astype(np.int16)
    best_cost = None
    r = _MOTION_SEARCH_RANGE
    for dy in range(-r, r + 1):
        rolled_rows = np.roll(reference, dy, axis=0)
        for dx in range(-r, r + 1):
            candidate = np.roll(rolled_rows, dx, axis=1)
            cost = float(np.mean(np.abs(
                current_coarse - candidate[::4, ::4].astype(np.int16))))
            if best_cost is None or cost < best_cost - 1e-9:
                best_cost = cost
                best = (dy, dx)
    return best


# -- helpers -------------------------------------------------------------------


def _sequence(lumas):
    n, height, width = lumas.shape
    chroma = np.full((height // 2, width // 2), 128, dtype=np.uint8)
    return Sequence420([Frame(lumas[i].copy(), chroma, chroma)
                        for i in range(n)])


def _random_lumas(seed, n, height, width, low=0, high=256):
    rng = np.random.default_rng(seed)
    return rng.integers(low, high, size=(n, height, width), dtype=np.uint8)


# Even (4:2:0) geometries from 2x2 to 24x24, many not divisible by 4.
even_sizes = st.tuples(st.integers(1, 12), st.integers(1, 12)).map(
    lambda hw: (2 * hw[0], 2 * hw[1]))


# -- the reference-distance curve ---------------------------------------------


class TestGramCurve:
    @relaxed
    @given(seed=st.integers(0, 2 ** 32 - 1), size=even_sizes,
           n=st.integers(2, 14), stride=st.integers(1, 3),
           data=st.data())
    def test_equals_per_distance_loop(self, seed, size, n, stride, data):
        max_distance = data.draw(st.integers(1, n - 1), label="max_distance")
        sequence = _sequence(_random_lumas(seed, n, *size))
        curve = measure_reference_distance_distortion(
            sequence, max_distance=max_distance, frame_stride=stride)
        assert curve.distances == tuple(range(1, max_distance + 1))
        assert curve.mean_distortion == curve_oracle(
            sequence, max_distance, stride)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_extreme_lumas_spanning_several_gram_blocks(self, stride):
        # 0/255 frames maximise every squared difference, and a
        # 144x176 plane spans four column blocks of the Gram product.
        rng = np.random.default_rng(stride)
        lumas = (rng.integers(0, 2, size=(12, 144, 176)) * 255).astype(
            np.uint8)
        sequence = _sequence(lumas)
        curve = measure_reference_distance_distortion(
            sequence, max_distance=11, frame_stride=stride)
        assert curve.mean_distortion == curve_oracle(sequence, 11, stride)

    def test_synthetic_clip(self, fast_clip):
        curve = measure_reference_distance_distortion(
            fast_clip, max_distance=12, frame_stride=2)
        assert curve.mean_distortion == curve_oracle(fast_clip, 12, 2)


# -- the blank-frame distortion ------------------------------------------------


class TestBlankDistortion:
    @relaxed
    @given(seed=st.integers(0, 2 ** 32 - 1), size=even_sizes,
           n=st.integers(1, 8), bounds=st.tuples(st.integers(0, 255),
                                                 st.integers(0, 255)))
    def test_equals_float64_mean(self, seed, size, n, bounds):
        low, high = sorted(bounds)
        sequence = _sequence(_random_lumas(seed, n, *size, low, high + 1))
        assert blank_frame_distortion(sequence) == blank_oracle(sequence)

    def test_synthetic_clip(self, slow_clip):
        assert blank_frame_distortion(slow_clip) == blank_oracle(slow_clip)


# -- the global motion search -------------------------------------------------


def _panned(seed, height, width, dy, dx, noise):
    rng = np.random.default_rng(seed)
    reference = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    current = np.roll(reference, (dy, dx), axis=(0, 1))
    if noise:
        jitter = rng.integers(-noise, noise + 1, size=current.shape)
        current = np.clip(current + jitter, 0, 255).astype(np.uint8)
    return current, reference


class TestTwoStageMotionSearch:
    @relaxed
    @given(seed=st.integers(0, 2 ** 32 - 1),
           height=st.integers(1, 40), width=st.integers(1, 40))
    def test_random_frames_match_roll_oracle(self, seed, height, width):
        rng = np.random.default_rng(seed)
        current = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
        reference = rng.integers(0, 256, size=(height, width),
                                 dtype=np.uint8)
        assert _estimate_global_motion(current, reference) == \
            motion_oracle(current, reference)

    @relaxed
    @given(seed=st.integers(0, 2 ** 32 - 1),
           height=st.integers(13, 50), width=st.integers(13, 50),
           dy=st.integers(-_MOTION_SEARCH_RANGE, _MOTION_SEARCH_RANGE),
           dx=st.integers(-_MOTION_SEARCH_RANGE, _MOTION_SEARCH_RANGE),
           noise=st.integers(0, 20))
    def test_wraparound_pans_match_roll_oracle(self, seed, height, width,
                                               dy, dx, noise):
        current, reference = _panned(seed, height, width, dy, dx, noise)
        assert _estimate_global_motion(current, reference) == \
            motion_oracle(current, reference)

    @pytest.mark.parametrize("shape", [(288, 352), (30, 33), (17, 22)])
    def test_exact_pan_is_recovered(self, shape):
        current, reference = _panned(0, *shape, -4, 5, noise=0)
        assert _estimate_global_motion(current, reference) == (-4, 5)

    @pytest.mark.parametrize("shape", [(288, 352), (9, 7), (1, 1)])
    def test_constant_frame_ties_to_first_candidate(self, shape):
        frame = np.full(shape, 77, dtype=np.uint8)
        assert _estimate_global_motion(frame, frame) == (
            -_MOTION_SEARCH_RANGE, -_MOTION_SEARCH_RANGE)
        assert motion_oracle(frame, frame) == (
            -_MOTION_SEARCH_RANGE, -_MOTION_SEARCH_RANGE)

    def test_periodic_rows_tie_to_first_dy(self):
        # Rows repeat every 4 pixels, so dy = -6, -2 and 2 (and 6) score
        # the same for every dx: the first dy in scan order must win.
        rng = np.random.default_rng(3)
        tile = rng.integers(0, 256, size=(4, 24), dtype=np.uint8)
        reference = np.tile(tile, (6, 1))
        current = np.roll(reference, (2, 3), axis=(0, 1))
        assert _estimate_global_motion(current, reference) == \
            motion_oracle(current, reference)

    def test_synthetic_clip_pairs(self, fast_clip):
        for index in range(1, 12):
            current, reference = fast_clip[index].y, fast_clip[index - 1].y
            assert _estimate_global_motion(current, reference) == \
                motion_oracle(current, reference)
