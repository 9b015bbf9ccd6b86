"""Cross-module integration: the paper's analysis-vs-experiment validation.

These tests are miniature versions of Figs. 4 and 7: calibrate the
analytical framework from the clip and link, run the simulated testbed,
and check that the model tracks the experiment — which is the paper's
central validation claim.
"""

import pytest

from repro.analysis import (
    blank_frame_distortion,
    fit_distortion_polynomial,
    measure_recovery_fraction,
    measure_reference_distance_distortion,
)
from repro.core import (
    FrameworkModel,
    calibrate_scenario,
    fit_gaussian_atom,
    fit_mmpp_from_trace,
    standard_policies,
)
from repro.testbed import ExperimentConfig, GALAXY_S2, run_experiment
from repro.video import (
    CodecConfig,
    analyze_motion,
    decode_bitstream,
    sensitivity_for,
    sequence_mse,
)


def _build_model(clip, bitstream, sensitivity):
    curve = measure_reference_distance_distortion(clip, max_distance=30)
    poly = fit_distortion_polynomial(curve, cap=blank_frame_distortion(clip))
    recovery = measure_recovery_fraction(
        clip, bitstream, sensitivity_fraction=sensitivity,
    )
    baseline = sequence_mse(clip, decode_bitstream(bitstream))
    scenario = calibrate_scenario(
        bitstream,
        cipher_costs=GALAXY_S2.cipher_costs,
        polynomial=poly,
        sensitivity_fraction=sensitivity,
        recovery_fraction=recovery,
        baseline_distortion=baseline,
    )
    return FrameworkModel(scenario)


@pytest.fixture(scope="module")
def slow_setup(slow_clip, slow_bitstream):
    sensitivity = sensitivity_for(analyze_motion(slow_clip).motion_class)
    return _build_model(slow_clip, slow_bitstream, sensitivity), sensitivity


@pytest.fixture(scope="module")
def fast_setup(fast_clip, fast_bitstream):
    sensitivity = sensitivity_for(analyze_motion(fast_clip).motion_class)
    return _build_model(fast_clip, fast_bitstream, sensitivity), sensitivity


class TestDistortionValidation:
    """Fig. 4: model PSNR at the eavesdropper tracks the experiment."""

    @pytest.mark.parametrize("policy_name", ["none", "I", "P", "all"])
    def test_slow_motion(self, slow_clip, slow_bitstream, slow_setup,
                         policy_name):
        model, sensitivity = slow_setup
        policy = standard_policies("AES256")[policy_name]
        predicted = model.predict(policy).eavesdropper_psnr_db
        config = ExperimentConfig(policy=policy, device=GALAXY_S2,
                                  sensitivity_fraction=sensitivity)
        measured = run_experiment(slow_clip, slow_bitstream, config,
                                  seed=0).eavesdropper_psnr_db
        assert predicted == pytest.approx(measured, abs=4.0)

    @pytest.mark.parametrize("policy_name", ["none", "P", "all"])
    def test_fast_motion(self, fast_clip, fast_bitstream, fast_setup,
                         policy_name):
        model, sensitivity = fast_setup
        policy = standard_policies("AES256")[policy_name]
        predicted = model.predict(policy).eavesdropper_psnr_db
        config = ExperimentConfig(policy=policy, device=GALAXY_S2,
                                  sensitivity_fraction=sensitivity)
        measured = run_experiment(fast_clip, fast_bitstream, config,
                                  seed=0).eavesdropper_psnr_db
        assert predicted == pytest.approx(measured, abs=4.0)

    def test_fast_motion_i_policy_shape(self, fast_clip, fast_bitstream,
                                        fast_setup):
        """For fast+I the model is conservative (recovery is a single
        constant); require agreement on the *qualitative* point: the
        eavesdropper keeps substantially more quality than under P/all."""
        model, sensitivity = fast_setup
        policies = standard_policies("AES256")
        predicted_i = model.predict(policies["I"]).eavesdropper_psnr_db
        predicted_all = model.predict(policies["all"]).eavesdropper_psnr_db
        config = ExperimentConfig(policy=policies["I"], device=GALAXY_S2,
                                  sensitivity_fraction=sensitivity)
        measured_i = run_experiment(fast_clip, fast_bitstream, config,
                                    seed=0).eavesdropper_psnr_db
        assert predicted_i > predicted_all + 8.0
        assert measured_i > predicted_all + 8.0
        assert predicted_i == pytest.approx(measured_i, abs=7.0)


class TestDelayValidation:
    """Fig. 7: the queueing model tracks the simulated per-packet delay."""

    @pytest.mark.parametrize("policy_name", ["none", "I", "P", "all"])
    def test_slow_motion_delay(self, slow_clip, slow_bitstream, slow_setup,
                               policy_name):
        model, sensitivity = slow_setup
        policy = standard_policies("AES256")[policy_name]
        predicted_ms = model.predict(policy).delay_ms
        config = ExperimentConfig(policy=policy, device=GALAXY_S2,
                                  sensitivity_fraction=sensitivity,
                                  decode_video=False)
        from repro.testbed import run_repeated
        measured = run_repeated(slow_clip, slow_bitstream, config,
                                repeats=5, base_seed=50).delay_ms
        # The MMPP abstracts the deterministic frame clock, so expect
        # agreement in scale, not exactness.
        assert predicted_ms == pytest.approx(measured.mean, rel=0.6)

    def test_ordering_agreement(self, fast_clip, fast_bitstream, fast_setup):
        """Model and experiment must order the policies identically."""
        model, sensitivity = fast_setup
        policies = standard_policies("AES256")
        predicted = {}
        measured = {}
        for name, policy in policies.items():
            predicted[name] = model.predict(policy).delay_ms
            config = ExperimentConfig(policy=policy, device=GALAXY_S2,
                                      sensitivity_fraction=sensitivity,
                                      decode_video=False)
            measured[name] = run_experiment(
                fast_clip, fast_bitstream, config, seed=1
            ).mean_delay_ms
        predicted_order = sorted(predicted, key=predicted.get)
        measured_order = sorted(measured, key=measured.get)
        assert predicted_order == measured_order


class TestCalibrationClosedLoop:
    """Section 6.1: parameters estimated from an initial trace match the
    configured scenario."""

    def test_trace_calibration_matches_configuration(self, slow_clip,
                                                     slow_bitstream):
        from repro.testbed import SenderSimulator
        policy = standard_policies("AES256")["all"]
        simulator = SenderSimulator(slow_bitstream, device=GALAXY_S2)
        run = simulator.run(policy, seed=42)

        times, phases = run.trace.arrival_trace()
        fitted = fit_mmpp_from_trace(times, phases)
        # The burst rate is the simulator's disk read rate (600 pkt/s).
        assert fitted.lambda1 == pytest.approx(600.0, rel=0.3)
        # The trickle rate sits at the frame rate, inflated slightly by
        # the occasional multi-packet P-frame (fragments arrive back to
        # back at the disk rate).
        assert 30.0 <= fitted.lambda2 <= 75.0

        from repro.video.gop import FrameType
        atom_i = fit_gaussian_atom(run.trace.encryption_samples(FrameType.I))
        cost = GALAXY_S2.cipher_cost("AES256")
        expected = cost.time_for(1432)
        assert atom_i.mu == pytest.approx(expected, rel=0.15)
