"""The advisor service tier: `repro serve`'s request validation, memo
layer, admission control, and wire behaviour over a live loopback
server."""

import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.analysis import measure_recovery_fraction
from repro.core.advisor import encode_choice
from repro.testbed import advisor_service
from repro.testbed.advisor_service import (
    AdvisorClient,
    AdvisorMemo,
    ServiceRequest,
    build_scenario,
    evaluate_request,
    policy_from_name,
)
from repro.testbed.cache import QUARANTINE_DIR, ResultCache
from repro.video import CodecConfig, encode_sequence, generate_clip
from repro.testbed.netproto import Backoff, NetClient
from repro.testbed.server import AdvisorServer, ServerThread

TINY = dict(frames=12, gop=6)  # the fast cold path (~0.3 s end to end)


class TestServiceRequest:
    def test_defaults_mirror_the_cli(self):
        request = ServiceRequest()
        assert (request.motion, request.frames, request.gop) == \
            ("slow", 150, 30)
        assert request.device == "samsung-s2"
        assert request.flows == 2
        assert request.resolved_target_psnr_db == pytest.approx(19.0)

    def test_header_round_trip(self):
        request = ServiceRequest(motion="fast", frames=24, gop=6,
                                 flows=3, target_mos=2.0,
                                 candidates=("I", "all"), ap="ap-1")
        assert ServiceRequest.from_header(request.to_header()) == request

    def test_target_mos_resolves_to_bucket_edge(self):
        assert ServiceRequest(target_mos=2.0).resolved_target_psnr_db \
            == pytest.approx(25.0)
        assert ServiceRequest(target_mos=1.0).resolved_target_psnr_db \
            == pytest.approx(20.0)

    def test_canonical_excludes_ap(self):
        a = ServiceRequest(ap="ap-1", **TINY)
        b = ServiceRequest(ap="ap-2", **TINY)
        assert a.canonical() == b.canonical()

    def test_canonical_collapses_equivalent_targets(self):
        by_mos = ServiceRequest(target_mos=2.0, **TINY)
        by_psnr = ServiceRequest(target_psnr_db=25.0, **TINY)
        assert by_mos.canonical() == by_psnr.canonical()

    @pytest.mark.parametrize("bad", [
        {"motion": "warp"},
        {"frames": 5},                      # too short to fit the curve
        {"frames": 10**6},
        {"frames": 12.5},
        {"frames": True},
        {"gop": 0},
        {"quantizer": 0},
        {"device": "iphone"},
        {"flows": 0},
        {"flows": 10**5},
        {"algorithm": "ROT13"},
        {"target_psnr_db": 15.0, "target_mos": 2.0},
        {"target_psnr_db": float("nan")},
        {"target_mos": 0.5},
        {"target_mos": 6},
        {"candidates": ()},
        {"candidates": ("warp-drive",)},
        {"candidates": "I"},
        {"candidates": (7,)},
        {"ap": ""},
        {"ap": "x" * 200},
        {"ap": 3},
    ])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ValueError):
            ServiceRequest(**bad)

    def test_from_header_rejects_non_dict(self):
        with pytest.raises(ValueError, match="JSON object"):
            ServiceRequest.from_header([1, 2, 3])

    def test_from_header_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            ServiceRequest.from_header({"frames": 12, "warp": 9})

    def test_mobility_spec_round_trips_and_keys_apart(self):
        mobile = ServiceRequest(mobility="vehicular:hysteresis", **TINY)
        assert ServiceRequest.from_header(mobile.to_header()) == mobile
        assert mobile.canonical()["mobility"] == "vehicular:hysteresis"
        # additive key: static requests keep their pre-mobility
        # canonical form (and hence their memo keys)
        static = ServiceRequest(**TINY)
        assert "mobility" not in static.canonical()
        assert mobile.canonical() != static.canonical()

    @pytest.mark.parametrize("bad", [
        {"mobility": "teleport"},
        {"mobility": "parked:psychic"},
        {"mobility": ""},
        {"mobility": 7},
    ])
    def test_bad_mobility_spec_rejected(self, bad):
        with pytest.raises(ValueError):
            ServiceRequest(**bad)

    def test_policy_from_name_matches_cli_grammar(self):
        assert policy_from_name("I").mode == "i_frames"
        assert policy_from_name("I+25%P").fraction == pytest.approx(0.25)
        with pytest.raises(ValueError, match="unknown policy"):
            policy_from_name("everything")
        with pytest.raises(ValueError, match="malformed policy"):
            policy_from_name("I+lots%P")


def _payload(delay_ms=2.5):
    return {"target_psnr_db": 19.0, "satisfied": True,
            "recommended": "I(AES256)",
            "sweep": {"I(AES256)": {
                "delay_ms": delay_ms, "waiting_ms": 1.0,
                "receiver_psnr_db": 30.0,
                "eavesdropper_psnr_db": 6.0,
                "eavesdropper_mos": 1.0}}}


class TestAdvisorMemo:
    def _memo(self, tmp_path, **cache_kwargs):
        return AdvisorMemo(ResultCache(tmp_path / "memo", **cache_kwargs))

    def test_roundtrip_and_counters(self, tmp_path):
        memo = self._memo(tmp_path)
        request = ServiceRequest(**TINY)
        key = memo.key(request)
        assert memo.get(key) is None
        payload = _payload()
        memo.put(key, request, payload)
        assert memo.get(key) == payload
        assert (memo.hits, memo.misses) == (1, 1)
        memo.cache.close()

    def test_foreign_cache_entry_is_a_miss_not_a_crash(self, tmp_path):
        memo = self._memo(tmp_path)
        key = "c" * 64
        memo.cache.backend.write(key, b"{not json")
        assert memo.get(key) is None
        memo.cache.backend.write(key, json.dumps(
            {"meta": {"service": "experiment"}, "runs": []}).encode())
        assert memo.get(key) is None
        memo.cache.close()

    def test_hot_answer_survives_a_capped_cache(self, tmp_path):
        """Memo hits refresh the LRU stamp, so under a cap the answer
        read most recently is not the one evicted."""
        memo = self._memo(tmp_path, max_entries=2)
        requests = [ServiceRequest(seed=seed, **TINY) for seed in (1, 2, 3)]
        hot, cold, new = (memo.key(request) for request in requests)
        memo.put(hot, requests[0], _payload(1.0))
        memo.put(cold, requests[1], _payload(2.0))
        for _ in range(50):
            assert memo.get(hot) is not None
        memo.put(new, requests[2], _payload(3.0))
        assert memo.get(hot) == _payload(1.0)
        assert memo.get(cold) is None
        assert memo.cache.evictions == 1
        memo.cache.close()

    def test_undecodable_entry_is_quarantined(self, tmp_path):
        memo = self._memo(tmp_path)
        key = "c" * 64
        memo.cache.backend.write(key, b"{not json")
        assert memo.get(key) is None
        assert (memo.hits, memo.misses) == (0, 1)
        assert memo.cache.corrupt == 1
        assert (tmp_path / "memo" / QUARANTINE_DIR / f"{key}.json").is_file()
        memo.cache.close()

    def test_key_depends_on_code_fingerprint(self, tmp_path, monkeypatch):
        memo = self._memo(tmp_path)
        request = ServiceRequest(**TINY)
        before = memo.key(request)
        monkeypatch.setattr(advisor_service, "advisor_fingerprint",
                            lambda: "f" * 64)
        assert memo.key(request) != before
        memo.cache.close()

    def test_ap_shares_one_entry(self, tmp_path):
        memo = self._memo(tmp_path)
        assert memo.key(ServiceRequest(ap="ap-1", **TINY)) == \
            memo.key(ServiceRequest(ap="ap-2", **TINY))
        memo.cache.close()


class TestBuildScenario:
    def test_recovery_calibrated_on_the_priced_bitstream(self):
        """A q=16 request calibrates recovery on the q=16 bitstream it
        prices, not on a q=8 re-encode of the clip."""
        request = ServiceRequest(motion="medium", quantizer=16, **TINY)
        clip = generate_clip(request.motion, request.frames,
                             seed=request.seed)
        scenario = build_scenario(request)
        recovery = {
            quantizer: measure_recovery_fraction(
                clip,
                encode_sequence(clip, CodecConfig(gop_size=request.gop,
                                                  quantizer=quantizer)),
                sensitivity_fraction=scenario.sensitivity_fraction)
            for quantizer in (8, 16)
        }
        assert recovery[16] != recovery[8]
        assert scenario.recovery_fraction == recovery[16]

    def test_fingerprint_covers_the_scenario_pipeline(self, monkeypatch):
        """Editing ``build_scenario`` must invalidate memoized answers."""
        read = []
        real_read_bytes = Path.read_bytes

        def recording_read_bytes(path):
            read.append(path)
            return real_read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", recording_read_bytes)
        advisor_service.advisor_fingerprint.cache_clear()
        try:
            advisor_service.advisor_fingerprint()
        finally:
            advisor_service.advisor_fingerprint.cache_clear()
        assert Path(advisor_service.__file__) in read


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One loopback AdvisorServer shared by the wire tests."""
    root = tmp_path_factory.mktemp("advisor-serve")
    server = AdvisorServer(root / "memo", ap_capacity=4, workers=4)
    with ServerThread(server=server) as thread:
        yield thread


class TestServedRecommendations:
    def test_cold_then_memo_byte_identical_to_local(self, served):
        request = ServiceRequest(seed=31, **TINY)
        local = encode_choice(evaluate_request(request))
        with AdvisorClient(served.host, served.port) as client:
            evaluations_before = served.server.evaluations
            cold = client.recommend(request)
            warm = client.recommend(request)
        assert cold.source == "cold"
        assert warm.source == "memo"
        assert cold.data == local
        assert warm.data == local
        # the warm answer swept nothing
        assert served.server.evaluations == evaluations_before + 1

    def test_mobility_request_over_the_wire(self, served):
        """The acceptance bar for the mobility bridge: a vehicular
        request served over TCP answers byte-identically to a cold
        local evaluation, and the memoized replay sweeps nothing."""
        request = ServiceRequest(seed=36, mobility="vehicular", **TINY)
        local = encode_choice(evaluate_request(request))
        with AdvisorClient(served.host, served.port) as client:
            evaluations_before = served.server.evaluations
            cold = client.recommend(request)
            warm = client.recommend(request)
        assert cold.source == "cold"
        assert warm.source == "memo"
        assert cold.data == local
        assert warm.data == local
        assert served.server.evaluations == evaluations_before + 1

    def test_mobility_shares_no_memo_with_static(self, served):
        static = ServiceRequest(seed=36, **TINY)
        mobile = ServiceRequest(seed=36, mobility="vehicular", **TINY)
        with AdvisorClient(served.host, served.port) as client:
            static_payload = client.recommend(static).payload
            mobile_payload = client.recommend(mobile).payload
        # the gap fraction thins delivery, so the swept scalars differ
        assert static_payload != mobile_payload

    def test_candidate_subset_never_invents_labels(self, served):
        request = ServiceRequest(seed=32, candidates=("I", "all"), **TINY)
        with AdvisorClient(served.host, served.port) as client:
            payload = client.recommend(request).payload
        labels = set(payload["sweep"])
        assert labels == {policy_from_name(name).label
                          for name in ("I", "all")}
        assert payload["recommended"] in labels | {None}

    def test_target_mos_over_the_wire(self, served):
        request = ServiceRequest(seed=33, target_mos=2.0, **TINY)
        with AdvisorClient(served.host, served.port) as client:
            payload = client.recommend(request).payload
        assert payload["target_psnr_db"] == pytest.approx(25.0)

    def test_stats_shape(self, served):
        with AdvisorClient(served.host, served.port) as client:
            client.recommend(ServiceRequest(seed=34, **TINY))
            stats = client.stats()
        assert stats["ok"] is True
        assert stats["uptime_s"] > 0
        assert stats["evaluations"] >= 1
        assert stats["ap_capacity"] == 4
        assert set(stats["memo"]) == {"hits", "misses", "hit_rate"}
        load = stats["aps"]["default"]
        assert set(load) == {"in_flight", "admitted", "rejected",
                             "peak_in_flight"}
        assert load["in_flight"] == 0  # all sessions drained

    def test_stats_report_engine_and_solve_latency(self, served):
        """Cold evaluations must feed the per-engine solve-latency
        percentiles; the idle engine's slot stays empty, not fake."""
        with AdvisorClient(served.host, served.port) as client:
            client.recommend(ServiceRequest(seed=35, **TINY))
            stats = client.stats()
        assert stats["engine"] == "vector"
        solve = stats["solve_ms"]
        assert set(solve) == {"scalar", "vector"}
        vector = solve["vector"]
        assert vector["count"] >= 1
        assert 0.0 < vector["p50_ms"] <= vector["p99_ms"]
        scalar = solve["scalar"]
        assert scalar == {"count": 0, "p50_ms": None, "p99_ms": None}

    @pytest.mark.parametrize("request_obj", [
        None,
        "not a dict",
        {"motion": "warp"},
        {"frames": 5},
        {"device": "iphone"},
        {"target_psnr_db": 15.0, "target_mos": 2.0},
        {"candidates": []},
        {"unknown_field": 1},
        {"ap": ""},
    ])
    def test_malformed_request_is_an_error_response_not_a_crash(
            self, served, request_obj):
        """A well-framed but semantically garbage request must come back
        as a protocol-level error response (mapped to ValueError
        client-side); the server keeps serving afterwards."""
        with NetClient(served.host, served.port) as net:
            with pytest.raises(ValueError):
                net.call("advise.recommend", {"request": request_obj})
            header, _ = net.call("ping")
            assert header["pong"] is True

    def test_unknown_op_is_an_error_response(self, served):
        with NetClient(served.host, served.port) as net:
            with pytest.raises(ValueError, match="unknown op"):
                net.call("advise.destroy")

    def test_raw_garbage_on_the_socket_leaves_server_healthy(self, served):
        import random
        rng = random.Random(13)
        for _ in range(5):
            with socket.create_connection((served.host, served.port),
                                          timeout=5.0) as sock:
                sock.sendall(bytes(rng.randrange(256)
                                   for _ in range(rng.randrange(1, 80))))
                # server drops the connection on garbage; swallow the
                # FIN/RST however the OS reports it
                sock.settimeout(1.0)
                try:
                    sock.recv(64)
                except OSError:
                    pass
        with AdvisorClient(served.host, served.port) as client:
            assert client.ping()["pong"] is True


class TestServerConfig:
    def test_capacity_derived_from_dcf_model(self, tmp_path):
        """Without --ap-capacity the cap falls out of the contention
        model, matching the historical hand-set default of 4."""
        from repro.wifi.dcf import admission_capacity

        server = AdvisorServer(tmp_path / "memo")
        try:
            assert server.ap_capacity == admission_capacity() == 4
        finally:
            server.cache.close()
            server._executor.shutdown(wait=False)

    def test_explicit_capacity_overrides_model(self, tmp_path):
        server = AdvisorServer(tmp_path / "memo", ap_capacity=9)
        try:
            assert server.ap_capacity == 9
        finally:
            server.cache.close()
            server._executor.shutdown(wait=False)

    def test_zero_capacity_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ap_capacity"):
            AdvisorServer(tmp_path / "memo", ap_capacity=0)

    def test_unknown_engine_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="engine"):
            AdvisorServer(tmp_path / "memo", engine="simd")


class TestAdmissionControl:
    """Per-AP caps under a hammering client pool, with the model sweep
    stubbed so cold evaluations take a deterministic ~50 ms."""

    CANNED = {"target_psnr_db": 19.0, "satisfied": True,
              "recommended": "I(AES256)",
              "sweep": {"I(AES256)": {
                  "policy": {"mode": "i_frames", "algorithm": "AES256",
                             "fraction": None, "label": "I(AES256)"},
                  "delay_ms": 2.5, "waiting_ms": 1.0,
                  "traffic_intensity": 0.4, "receiver_psnr_db": 30.0,
                  "eavesdropper_psnr_db": 6.0, "eavesdropper_mos": 1.0}}}

    def test_cap_holds_and_rejected_sessions_eventually_complete(
            self, tmp_path, monkeypatch):
        def slow_evaluate(request, **kwargs):
            time.sleep(0.05)
            return dict(self.CANNED)

        monkeypatch.setattr(advisor_service, "evaluate_payload",
                            slow_evaluate)
        server = AdvisorServer(tmp_path / "memo", ap_capacity=2,
                               workers=8)
        answers, errors = [], []
        with ServerThread(server=server) as served:
            def hammer(worker, ap):
                try:
                    with AdvisorClient(
                            served.host, served.port,
                            busy_attempts=200,
                            busy_backoff=Backoff(base_s=0.005,
                                                 cap_s=0.05)) as client:
                        for i in range(4):
                            request = ServiceRequest(
                                seed=worker * 101 + i, ap=ap, **TINY)
                            answers.append(client.recommend(request))
                except Exception as exc:  # noqa: BLE001 - recorded below
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer,
                                 args=(worker, f"ap-{worker % 2}"))
                for worker in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            with AdvisorClient(served.host, served.port) as client:
                stats = client.stats()

        assert not errors, errors
        # no starvation: every session eventually got a real answer
        assert len(answers) == 8 * 4
        assert all(a.source in ("cold", "memo") for a in answers)
        for ap, load in stats["aps"].items():
            assert load["peak_in_flight"] <= 2, (ap, load)
            assert load["in_flight"] == 0, (ap, load)
        # the pool genuinely overloaded both APs at some point
        total_rejected = sum(load["rejected"]
                             for load in stats["aps"].values())
        assert total_rejected > 0
        total_admitted = sum(load["admitted"]
                             for load in stats["aps"].values())
        assert total_admitted == stats["evaluations"]

    def test_busy_response_shape(self, tmp_path, monkeypatch):
        """A session over a saturated AP sees {"busy": true} with the
        occupancy attached — and it is a normal response, not an error
        frame, so NetClient's no-retry-on-semantic-errors rule keeps
        out of the way."""
        release = threading.Event()

        def blocking_evaluate(request, **kwargs):
            release.wait(timeout=30.0)
            return dict(self.CANNED)

        monkeypatch.setattr(advisor_service, "evaluate_payload",
                            blocking_evaluate)
        server = AdvisorServer(tmp_path / "memo", ap_capacity=1,
                               workers=4)
        with ServerThread(server=server) as served:
            filler_done = []

            def filler():
                with AdvisorClient(served.host, served.port) as client:
                    filler_done.append(
                        client.recommend(ServiceRequest(seed=1, **TINY)))

            thread = threading.Thread(target=filler)
            thread.start()
            try:
                deadline = time.monotonic() + 10.0
                with NetClient(served.host, served.port) as net:
                    # wait for the filler to actually occupy the slot —
                    # probing earlier would win the slot ourselves
                    while time.monotonic() < deadline:
                        stats, _ = net.call("advise.stats")
                        if stats["in_flight"] >= 1:
                            break
                        time.sleep(0.01)
                    else:
                        pytest.fail("filler never entered the AP")
                    header, blob = net.call(
                        "advise.recommend",
                        {"request": ServiceRequest(
                            seed=2, **TINY).to_header()})
                assert header.get("busy") is True
                assert header["ap"] == "default"
                assert header["capacity"] == 1
                assert header["in_flight"] == 1
                assert blob == b""
            finally:
                release.set()
                thread.join(timeout=30.0)
            assert filler_done and filler_done[0].source == "cold"
