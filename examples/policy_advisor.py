#!/usr/bin/env python3
"""The Fig. 1 workflow: let the framework pick the encryption policy.

A user is about to upload a clip over open WiFi and wants
confidentiality with minimum performance penalty.  The pipeline:

1. classify the clip's motion level (the AForge step);
2. calibrate the analytical framework from the clip, the device and the
   link (the "minimal measurements" step);
3. sweep candidate policies with the model and pick the cheapest one
   whose predicted eavesdropper PSNR is below the confidentiality target.

The same clip is run at both motion levels to show the recommendation
changing: slow motion -> I-frames only; fast motion -> I + a fraction of
P packets (the paper lands on I+20%P, Section 6.2).

Run:  python examples/policy_advisor.py
"""

from repro.analysis import (
    blank_frame_distortion,
    fit_distortion_polynomial,
    measure_recovery_fraction,
    measure_reference_distance_distortion,
    render_table,
)
from repro.core import FrameworkModel, PolicyAdvisor, calibrate_scenario
from repro.testbed import GALAXY_S2
from repro.video import (
    CodecConfig,
    analyze_motion,
    decode_bitstream,
    encode_sequence,
    generate_clip,
    sensitivity_for,
    sequence_mse,
)

TARGET_PSNR_DB = 15.0  # "practically unviewable" at the eavesdropper


def advise(motion: str, seed: int) -> None:
    clip = generate_clip(motion, n_frames=150, seed=seed)
    bitstream = encode_sequence(clip, CodecConfig(gop_size=30, quantizer=8))

    report = analyze_motion(clip)
    sensitivity = sensitivity_for(report.motion_class)
    print(f"\n=== {motion}-motion clip "
          f"(classified {report.motion_class.value}, "
          f"activity {report.mean_activity:.1f}) ===")

    # Calibration: the offline, per-motion-class measurements of Fig. 2
    # plus the clip/link/device parameters of Section 6.1.
    curve = measure_reference_distance_distortion(clip, max_distance=30)
    polynomial = fit_distortion_polynomial(
        curve, cap=blank_frame_distortion(clip)
    )
    recovery = measure_recovery_fraction(
        clip, bitstream, sensitivity_fraction=sensitivity
    )
    baseline = sequence_mse(clip, decode_bitstream(bitstream))
    scenario = calibrate_scenario(
        bitstream,
        cipher_costs=GALAXY_S2.cipher_costs,
        polynomial=polynomial,
        sensitivity_fraction=sensitivity,
        recovery_fraction=recovery,
        baseline_distortion=baseline,
    )

    advisor = PolicyAdvisor(scenario)
    choice = advisor.recommend(target_psnr_db=TARGET_PSNR_DB)

    rows = []
    for label, prediction in choice.sweep.items():
        confidential = prediction.eavesdropper_psnr_db <= TARGET_PSNR_DB
        marker = ""
        if choice.recommended is not None and (
                prediction.policy == choice.recommended.policy):
            marker = "<= recommended"
        rows.append([
            label,
            f"{prediction.delay_ms:.2f}",
            f"{prediction.eavesdropper_psnr_db:.1f}",
            "yes" if confidential else "no",
            marker,
        ])
    print(render_table(
        ["policy", "predicted delay (ms)", "predicted eaves PSNR (dB)",
         f"<= {TARGET_PSNR_DB:.0f} dB?", ""],
        rows,
    ))

    if choice.satisfied:
        best = choice.recommended
        extremes = FrameworkModel(scenario)
        from repro.core import EncryptionPolicy
        all_policy = extremes.predict(
            EncryptionPolicy("all", best.policy.algorithm or "AES256")
        )
        saved = 100 * (1 - best.delay_ms / all_policy.delay_ms)
        print(f"-> {best.policy.label}: predicted delay "
              f"{best.delay_ms:.2f} ms vs {all_policy.delay_ms:.2f} ms for "
              f"full encryption ({saved:.0f}% cheaper).")
    else:
        print("-> no candidate met the confidentiality target;"
              " encrypt everything.")


def main() -> None:
    advise("slow", seed=2013)
    advise("fast", seed=2014)


if __name__ == "__main__":
    main()
