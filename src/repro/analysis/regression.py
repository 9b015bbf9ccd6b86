"""Distortion-vs-reference-distance measurement and polynomial fit (Fig. 2).

Section 4.3.2, Case 2: "we artificially create video frame losses in
order to achieve reference frame substitutions from various distances ...
we approximate the observed curves with polynomials of degree 5 using a
multinomial regression".

The reproduction does the same against the synthetic reference clips: for
each distance ``d`` it measures the mean square error of displaying frame
``i - d`` in place of frame ``i`` across the clip, then least-squares fits
a degree-5 polynomial.  The resulting :class:`DistortionPolynomial` feeds
the distortion model's Case 1 and Case 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.distortion import DistortionPolynomial
from ..video.gop import Bitstream, FrameType
from ..video.quality import mse
from ..video.yuv import Frame, Sequence420

__all__ = [
    "ReferenceDistanceCurve",
    "measure_reference_distance_distortion",
    "fit_distortion_polynomial",
    "blank_frame_distortion",
    "measure_recovery_fraction",
]


@dataclass(frozen=True)
class ReferenceDistanceCurve:
    """Measured mean distortion at each substitution distance."""

    distances: Tuple[int, ...]
    mean_distortion: Tuple[float, ...]

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return (np.asarray(self.distances, dtype=float),
                np.asarray(self.mean_distortion, dtype=float))


def measure_reference_distance_distortion(
    sequence: Sequence420,
    *,
    max_distance: int = 30,
    frame_stride: int = 1,
) -> ReferenceDistanceCurve:
    """Average MSE of substituting each frame by the one ``d`` frames back.

    This is the paper's artificial-loss experiment: a loss at distance
    ``d`` means the viewer sees a ``d``-frames-old picture.
    """
    if max_distance < 1:
        raise ValueError("max_distance must be >= 1")
    if len(sequence) <= max_distance:
        raise ValueError(
            f"clip too short ({len(sequence)} frames) for distance"
            f" {max_distance}"
        )
    lumas = sequence.luma_stack().astype(np.float64)
    distances = []
    means = []
    for distance in range(1, max_distance + 1):
        # Compare frame i with frame i - distance.
        current = lumas[distance:]
        reference = lumas[:-distance]
        step_mse = np.mean((current[::frame_stride] - reference[::frame_stride]) ** 2,
                           axis=(1, 2))
        distances.append(distance)
        means.append(float(np.mean(step_mse)))
    return ReferenceDistanceCurve(tuple(distances), tuple(means))


def blank_frame_distortion(sequence: Sequence420) -> float:
    """Mean MSE of showing a blank frame instead of the content (Case 3's
    ceiling, and the polynomial's saturation cap)."""
    blank = Frame.blank(sequence.width, sequence.height)
    blank_luma = blank.y.astype(np.float64)
    lumas = sequence.luma_stack().astype(np.float64)
    return float(np.mean((lumas - blank_luma) ** 2))


def measure_recovery_fraction(
    sequence: Sequence420,
    bitstream: Bitstream,
    *,
    sensitivity_fraction: float = 0.75,
) -> float:
    """Calibrate the best-effort recovery fraction of the motion class.

    Offline experiment (same spirit as the paper's Fig. 2 calibration):
    take the clip's ``bitstream`` (the one the caller prices, with its
    own GOP layout and quantizer), make every I-frame packet unusable,
    best-effort decode, and measure how much of the worst-case
    (blank-reference) distortion survives in the frames the decoder
    still reconstructs.  Slow-motion P-frames carry almost no standalone
    information, so nearly all of the error survives (fraction ~1);
    fast-motion P-frames are largely intra-coded and recover the picture
    (fraction ~0).
    """
    # Imported here to keep the module importable without the codec stack
    # when only the polynomial fit is needed.
    from ..video.concealment import conceal_decode
    from ..video.packetizer import frames_decodable, packetize

    packets = packetize(bitstream)
    usable = [packet.frame_type is not FrameType.I for packet in packets]
    decodable = frames_decodable(packets, usable, sensitivity_fraction)
    result = conceal_decode(bitstream, decodable, mode="best_effort")

    lumas = sequence.luma_stack().astype(np.float64)
    errors = []
    for record, frame in zip(result.frames, result.sequence):
        if record.decoded:
            diff = lumas[record.index] - frame.y.astype(np.float64)
            errors.append(float(np.mean(diff * diff)))
    if not errors:
        return 1.0
    worst_case = blank_frame_distortion(sequence)
    if worst_case <= 0.0:
        return 0.0
    return float(min(max(np.mean(errors) / worst_case, 0.0), 1.0))


def fit_distortion_polynomial(
    curve: ReferenceDistanceCurve,
    *,
    degree: int = 5,
    cap: Optional[float] = None,
) -> DistortionPolynomial:
    """Least-squares polynomial fit of the measured curve (paper's choice:
    degree 5; "use of higher degree polynomials does not increase
    accuracy").

    The fit is anchored at D(0) = 0 by including the origin as a data
    point.  ``cap`` defaults to 1.5x the largest measured distortion.
    """
    xs, ys = curve.as_arrays()
    xs = np.concatenate([[0.0], xs])
    ys = np.concatenate([[0.0], ys])
    coefficients = np.polynomial.polynomial.polyfit(xs, ys, degree)
    if cap is None:
        cap = 1.5 * float(np.max(ys))
    return DistortionPolynomial(coefficients=tuple(coefficients), cap=cap)
