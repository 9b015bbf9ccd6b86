"""Golden fixture for the advisor's clip calibration (Fig. 2 pipeline).

For short fixed-seed clips (slow/medium/fast x quantizer 8 and 16) the
committed ``tests/golden/calibration.json`` pins, bit for bit:

- the sha256 of every encoded frame payload (so every motion vector,
  residual and zlib stream);
- the reference-distance curve, at frame strides 1 and 2;
- the blank-frame distortion and the recovery fraction;
- the advisor's ``evaluate_payload`` answer for the same request.

Floats are serialised with ``repr`` precision, so equality is bit
equality: a faster codec or curve that moves any of these by one ulp
fails here.  Regenerate deliberately with

    REPRO_REGEN_GOLDEN=1 pytest tests/test_calibration_golden.py

after a change that is *supposed* to move the calibration (and say so
in the commit).
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.analysis.regression import (
    blank_frame_distortion,
    measure_recovery_fraction,
    measure_reference_distance_distortion,
)
from repro.testbed.advisor_service import ServiceRequest, evaluate_payload
from repro.video import (CodecConfig, analyze_motion, encode_sequence,
                         generate_clip, sensitivity_for)

GOLDEN = Path(__file__).parent / "golden" / "calibration.json"
FRAMES = 40
GOP = 10
SEED = 7
CASES = [(motion, quantizer)
         for motion in ("slow", "medium", "fast")
         for quantizer in (8, 16)]


def _case_payload(motion, quantizer):
    request = ServiceRequest(motion=motion, frames=FRAMES, gop=GOP,
                             quantizer=quantizer, seed=SEED)
    clip = generate_clip(motion, FRAMES, seed=SEED)
    bitstream = encode_sequence(
        clip, CodecConfig(gop_size=GOP, quantizer=quantizer))
    sensitivity = sensitivity_for(analyze_motion(clip).motion_class)
    max_distance = min(30, len(clip) - 1)
    curves = {
        str(stride): list(measure_reference_distance_distortion(
            clip, max_distance=max_distance,
            frame_stride=stride).mean_distortion)
        for stride in (1, 2)
    }
    return {
        "payload_sha256": [hashlib.sha256(frame.payload).hexdigest()
                           for frame in bitstream.frames],
        "curve": curves,
        "blank_distortion": blank_frame_distortion(clip),
        "recovery_fraction": measure_recovery_fraction(
            clip, bitstream, sensitivity_fraction=sensitivity),
        "evaluate_payload": evaluate_payload(request),
    }


def _serialize(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        return None
    assert GOLDEN.exists(), (
        f"{GOLDEN} missing; run REPRO_REGEN_GOLDEN=1 pytest {__file__}")
    return json.loads(GOLDEN.read_text())


def test_calibration_matches_golden_bit_for_bit(golden):
    payload = {
        "schema": 1,
        "frames": FRAMES,
        "gop": GOP,
        "seed": SEED,
        "cases": {f"{motion}-q{quantizer}": _case_payload(motion, quantizer)
                  for motion, quantizer in CASES},
    }
    text = _serialize(payload)
    if golden is None:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(text)
        pytest.skip(f"regenerated {GOLDEN.name}")
    # Compare case by case first for a readable failure, then the bytes.
    for name, case in payload["cases"].items():
        assert json.loads(_serialize(case)) == golden["cases"][name], name
    assert GOLDEN.read_text() == text


def test_golden_fixture_covers_every_case():
    cases = json.loads(GOLDEN.read_text())["cases"]
    assert sorted(cases) == sorted(f"{m}-q{q}" for m, q in CASES)
    for case in cases.values():
        assert len(case["payload_sha256"]) == FRAMES
        assert len(case["curve"]["1"]) == min(30, FRAMES - 1)
        assert 0.0 <= case["recovery_fraction"] <= 1.0
