"""Extension bench: GOP size as a security/cost knob.

The paper evaluates two GOP sizes (30, 50) as given.  The GOP size is
actually a tuning knob of the selective-encryption trade-off: shorter
GOPs mean more I-frames, i.e. more bytes to encrypt under the I-policy
(higher delay/energy) but also faster recovery from losses for the
legitimate receiver.  This bench sweeps G with the analytical framework
(no simulation needed) and reports both sides.
"""

from conftest import get_clip, publish

from repro.analysis import (
    blank_frame_distortion,
    fit_distortion_polynomial,
    measure_recovery_fraction,
    measure_reference_distance_distortion,
    render_table,
)
from repro.core import FrameworkModel, calibrate_scenario, standard_policies
from repro.testbed import DEVICES
from repro.video import CodecConfig, encode_sequence

GOP_SIZES = (10, 20, 30, 50, 60)


def build_report() -> str:
    clip = get_clip("slow")
    curve = measure_reference_distance_distortion(clip, max_distance=30)
    polynomial = fit_distortion_polynomial(
        curve, cap=blank_frame_distortion(clip)
    )
    policy = standard_policies("AES256")["I"]

    rows = []
    encrypted_fractions = []
    receiver_psnrs = []
    for gop_size in GOP_SIZES:
        bitstream = encode_sequence(
            clip, CodecConfig(gop_size=gop_size, quantizer=8)
        )
        recovery = measure_recovery_fraction(
            clip, bitstream, sensitivity_fraction=0.55
        )
        scenario = calibrate_scenario(
            bitstream,
            cipher_costs=DEVICES["samsung-s2"].cipher_costs,
            polynomial=polynomial,
            sensitivity_fraction=0.55,
            recovery_fraction=recovery,
        )
        # Evaluate the receiver under a mildly lossy link to expose the
        # recovery-speed benefit of short GOPs.
        lossy = scenario.with_delivery_rate(0.97)
        model = FrameworkModel(lossy)
        prediction = model.predict(policy)
        q = policy.encrypted_fraction(scenario.p_i)
        encrypted_fractions.append(q)
        receiver_psnrs.append(prediction.receiver_psnr_db)
        rows.append([
            gop_size,
            f"{q:.1%}",
            f"{prediction.delay_ms:.2f}",
            f"{prediction.receiver_psnr_db:.2f}",
            f"{prediction.eavesdropper_psnr_db:.2f}",
        ])
    # Shape: shorter GOPs encrypt a larger packet fraction...
    assert encrypted_fractions == sorted(encrypted_fractions, reverse=True)
    # ...but give the receiver better quality under loss (more frequent
    # resync points).
    assert receiver_psnrs[0] > receiver_psnrs[-1]
    return render_table(
        ["GOP size", "packets encrypted (policy I)", "delay (ms)",
         "receiver PSNR @ 3% loss (dB)", "eavesdropper PSNR (dB)"],
        rows,
        title="Extension — GOP size as a security/cost knob"
              " (slow motion, policy I, AES256, model)",
    )


def test_ext_gop_sweep(benchmark):
    text = benchmark.pedantic(build_report, rounds=1, iterations=1)
    publish("ext_gop_sweep", text)
