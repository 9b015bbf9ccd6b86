"""The advisor service layer shared by ``repro serve`` and its clients.

Everything here is the *meaning* of an advisor session; the asyncio
server in :mod:`repro.testbed.server` (:class:`AdvisorServer`) only does
admission and scheduling on top of it:

- :class:`ServiceRequest` — one streaming session's parameters (device,
  motion class, contention, confidentiality target), strictly validated
  so a hostile or buggy client can never push garbage into the model or
  the cache key space;
- :func:`build_scenario` / :func:`evaluate_request` /
  :func:`evaluate_payload` — the cold path, identical to what ``repro
  advise`` computes locally, which is what makes the chaos test's
  byte-identity claim checkable;
- :class:`AdvisorMemo` — the content-addressed memo over
  :class:`~repro.testbed.cache.ResultCache`.  Entries are stored as
  ordinary ``runs`` rows (one per sweep entry, so ``repro cache
  verify`` accepts them) with the full choice payload in the ``meta``
  block; the key hashes the canonical request plus a digest of every
  source file the model's answer depends on, so editing the model
  silently invalidates stale recommendations exactly like the
  experiment cache's ``code_fingerprint``;
- :class:`AdvisorClient` — the sync client.  Transport failures are
  retried by :class:`~repro.testbed.netproto.NetClient`; a ``busy``
  admission response is a *normal* response the client retries here
  with its own jittered backoff, so a saturated AP sheds load without
  tearing down connections.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..analysis import (
    blank_frame_distortion,
    fit_distortion_polynomial,
    measure_recovery_fraction,
    measure_reference_distance_distortion,
)
from ..core import calibrate_scenario, standard_policies
from ..core.advisor import (
    DEFAULT_PSNR_TARGET_DB,
    AdvisorChoice,
    PolicyAdvisor,
    choice_payload,
    default_candidates,
    encode_payload,
    psnr_target_for_mos,
)
from ..core.policies import EncryptionPolicy
from ..core.scenario import Scenario
from ..video import (
    CodecConfig,
    analyze_motion,
    decode_bitstream,
    encode_sequence,
    generate_clip,
    sensitivity_for,
    sequence_mse,
)
from ..wifi.dcf import DcfParameters
from .cache import ResultCache, RunMetrics, stable_key
from .devices import DEVICES
from .netproto import Backoff, NetClient, parse_tcp_spec

__all__ = [
    "ServiceRequest", "AdvisorMemo", "AdvisorAnswer", "AdvisorClient",
    "policy_from_name", "build_scenario", "evaluate_request",
    "evaluate_payload", "advisor_fingerprint", "encode_payload",
]

MEMO_SCHEMA = 1

_MOTIONS = ("slow", "medium", "fast")
_ALGORITHMS = ("AES128", "AES256", "3DES")
MAX_FRAMES = 10_000
MAX_FLOWS = 4096


def policy_from_name(name: str, algorithm: str = "AES256"
                     ) -> EncryptionPolicy:
    """``none``/``I``/``P``/``all`` or ``I+<percent>%P`` -> policy.

    The :class:`ValueError`-raising twin of the CLI's parser, reused by
    it and by :class:`ServiceRequest` validation so local and remote
    callers reject exactly the same names.
    """
    table = standard_policies(algorithm)
    if name in table:
        return table[name]
    if name.startswith("I+") and name.endswith("%P"):
        try:
            fraction = float(name[2:-2]) / 100.0
        except ValueError:
            raise ValueError(f"malformed policy fraction in {name!r}")
        return EncryptionPolicy("i_plus_p_fraction", algorithm,
                                fraction=fraction)
    raise ValueError(
        f"unknown policy {name!r}; use none/I/P/all or I+<percent>%P")


def _require_int(name: str, value: Any, low: int, high: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def _require_number(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    result = float(value)
    if result != result or result in (float("inf"), float("-inf")):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return result


@dataclass(frozen=True)
class ServiceRequest:
    """One streaming session's question to the advisor.

    Defaults mirror ``repro advise``'s CLI defaults, so an empty request
    is the CLI's default scenario.  ``ap`` names the simulated access
    point the session rides on — it scopes admission control on the
    server but is deliberately excluded from :meth:`canonical`, so the
    same question through two APs shares one memo entry.
    """

    motion: str = "slow"
    frames: int = 150
    gop: int = 30
    quantizer: int = 8
    seed: int = 2013
    device: str = "samsung-s2"
    flows: int = 2
    algorithm: str = "AES256"
    target_psnr_db: Optional[float] = None
    target_mos: Optional[float] = None
    candidates: Optional[Tuple[str, ...]] = None
    ap: str = "default"
    mobility: Optional[str] = None

    def __post_init__(self) -> None:
        if self.motion not in _MOTIONS:
            raise ValueError(
                f"motion must be one of {_MOTIONS}, got {self.motion!r}")
        # Short clips are fine, but the distortion regression needs at
        # least a handful of reference distances to fit.
        _require_int("frames", self.frames, 6, MAX_FRAMES)
        _require_int("gop", self.gop, 1, MAX_FRAMES)
        _require_int("quantizer", self.quantizer, 1, 64)
        _require_int("seed", self.seed, -(2 ** 63), 2 ** 63 - 1)
        if self.device not in DEVICES:
            raise ValueError(
                f"unknown device {self.device!r};"
                f" one of {sorted(DEVICES)}")
        _require_int("flows", self.flows, 1, MAX_FLOWS)
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {_ALGORITHMS},"
                f" got {self.algorithm!r}")
        if self.target_psnr_db is not None and self.target_mos is not None:
            raise ValueError(
                "give target_psnr_db or target_mos, not both")
        if self.target_psnr_db is not None:
            object.__setattr__(
                self, "target_psnr_db",
                _require_number("target_psnr_db", self.target_psnr_db))
        if self.target_mos is not None:
            mos = _require_number("target_mos", self.target_mos)
            psnr_target_for_mos(mos)  # range check
            object.__setattr__(self, "target_mos", mos)
        if self.candidates is not None:
            if isinstance(self.candidates, str) \
                    or not isinstance(self.candidates, (list, tuple)):
                raise ValueError(
                    f"candidates must be a list of policy names,"
                    f" got {self.candidates!r}")
            names = tuple(self.candidates)
            if not names:
                raise ValueError("candidates must not be empty")
            for name in names:
                if not isinstance(name, str):
                    raise ValueError(
                        f"candidate names must be strings, got {name!r}")
                policy_from_name(name, self.algorithm)  # validity check
            object.__setattr__(self, "candidates", names)
        if not isinstance(self.ap, str) or not self.ap \
                or len(self.ap) > 128:
            raise ValueError(
                f"ap must be a non-empty string (<= 128 chars),"
                f" got {self.ap!r}")
        if self.mobility is not None:
            if not isinstance(self.mobility, str):
                raise ValueError(
                    f"mobility must be a profile spec string,"
                    f" got {self.mobility!r}")
            from ..mobility.scenario import parse_mobility_spec
            parse_mobility_spec(self.mobility)  # validity check

    # -- wire form ---------------------------------------------------------

    @classmethod
    def from_header(cls, raw: Any) -> "ServiceRequest":
        """Parse the ``request`` object of an ``advise.recommend``
        header.  Raises :class:`ValueError` on anything malformed, which
        the server maps to a protocol error response — never a crash."""
        if not isinstance(raw, dict):
            raise ValueError(
                f"request must be a JSON object,"
                f" got {type(raw).__name__}")
        known = {field.name for field in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(
                f"unknown request fields {sorted(unknown)}")
        values = dict(raw)
        if isinstance(values.get("candidates"), list):
            values["candidates"] = tuple(values["candidates"])
        return cls(**values)

    def to_header(self) -> Dict[str, Any]:
        header: Dict[str, Any] = {
            "motion": self.motion, "frames": self.frames,
            "gop": self.gop, "quantizer": self.quantizer,
            "seed": self.seed, "device": self.device,
            "flows": self.flows, "algorithm": self.algorithm,
            "ap": self.ap,
        }
        if self.target_psnr_db is not None:
            header["target_psnr_db"] = self.target_psnr_db
        if self.target_mos is not None:
            header["target_mos"] = self.target_mos
        if self.candidates is not None:
            header["candidates"] = list(self.candidates)
        if self.mobility is not None:
            header["mobility"] = self.mobility
        return header

    # -- semantics ---------------------------------------------------------

    @property
    def resolved_target_psnr_db(self) -> float:
        """The PSNR threshold this request actually asks for: explicit
        PSNR wins, else the MOS target's bucket edge, else the default."""
        if self.target_psnr_db is not None:
            return self.target_psnr_db
        if self.target_mos is not None:
            return psnr_target_for_mos(self.target_mos)
        return DEFAULT_PSNR_TARGET_DB

    def candidate_policies(self) -> List[EncryptionPolicy]:
        if self.candidates is None:
            return default_candidates(self.algorithm)
        return [policy_from_name(name, self.algorithm)
                for name in self.candidates]

    def canonical(self) -> Dict[str, Any]:
        """The fields that determine the answer — ``ap`` excluded (it
        only scopes admission), targets collapsed to the resolved PSNR
        (so MOS 2 and its equivalent PSNR share one memo entry).  The
        ``mobility`` key is additive — emitted only when set, so every
        static request keeps the memo key it had before the mobility
        layer existed."""
        canonical = {
            "motion": self.motion, "frames": self.frames,
            "gop": self.gop, "quantizer": self.quantizer,
            "seed": self.seed, "device": self.device,
            "flows": self.flows, "algorithm": self.algorithm,
            "target_psnr_db": self.resolved_target_psnr_db,
            "candidates": (None if self.candidates is None
                           else list(self.candidates)),
        }
        if self.mobility is not None:
            canonical["mobility"] = self.mobility
        return canonical


# -- the cold path -------------------------------------------------------------


def _mobility_dcf_params(request: ServiceRequest) -> Tuple[
        DcfParameters, float]:
    """Collapse a mobility profile into an effective static channel.

    The analytic model prices one stationary link, so the profile's
    piecewise-constant segments are folded into (a) the PHY rate that
    carries the most non-gap airtime (ties to the faster rate), (b) the
    duration-weighted mean channel error over non-gap segments, and
    (c) the gap fraction, which later scales ``p_delivery`` — packets
    arriving mid-handoff are lost no matter what the DCF says.
    """
    from ..mobility import build_profile
    from ..wifi.phy import Phy80211g

    profile = build_profile(request.mobility, n_stations=request.flows,
                            seed=request.seed)
    duration = profile.trace.duration_s
    rate_time: Dict[float, float] = {}
    err_time = 0.0
    live_time = 0.0
    for segment in profile.segments:
        end = min(segment.end_s, duration)
        span = end - segment.start_s
        if span <= 0.0 or segment.in_gap:
            continue
        rate_time[segment.rate_mbps] = (
            rate_time.get(segment.rate_mbps, 0.0) + span)
        err_time += segment.error_rate * span
        live_time += span
    if live_time <= 0.0:
        # Degenerate profile: never associated.  Model the worst
        # supported link; the gap fraction already zeroes delivery.
        return DcfParameters(n_stations=request.flows), 1.0
    modal_rate = max(rate_time, key=lambda rate: (rate_time[rate], rate))
    phy = Phy80211g(data_rate_bps=modal_rate * 1e6)
    params = DcfParameters(
        n_stations=request.flows,
        channel_error_rate=err_time / live_time,
        phy=phy,
    )
    return params, profile.gap_fraction


def build_scenario(request: ServiceRequest) -> Scenario:
    """Generate + encode the clip and calibrate the analytical scenario
    — the same pipeline as ``repro advise``, with the DCF fixed point
    solved for the request's contender count.  A mobility profile is
    folded into an effective channel by :func:`_mobility_dcf_params`."""
    clip = generate_clip(request.motion, request.frames, seed=request.seed)
    bitstream = encode_sequence(
        clip, CodecConfig(gop_size=request.gop,
                          quantizer=request.quantizer))
    device = DEVICES[request.device]
    sensitivity = sensitivity_for(analyze_motion(clip).motion_class)
    curve = measure_reference_distance_distortion(
        clip, max_distance=min(30, len(clip) - 1))
    polynomial = fit_distortion_polynomial(
        curve, cap=blank_frame_distortion(clip))
    recovery = measure_recovery_fraction(
        clip, bitstream, sensitivity_fraction=sensitivity)
    baseline = sequence_mse(clip, decode_bitstream(bitstream))
    dcf_params = DcfParameters(n_stations=request.flows)
    gap_fraction = 0.0
    if request.mobility is not None:
        dcf_params, gap_fraction = _mobility_dcf_params(request)
    scenario = calibrate_scenario(
        bitstream,
        cipher_costs=device.cipher_costs,
        polynomial=polynomial,
        sensitivity_fraction=sensitivity,
        recovery_fraction=recovery,
        baseline_distortion=baseline,
        dcf_params=dcf_params,
        phy=dcf_params.phy,
    )
    if gap_fraction > 0.0:
        scenario = scenario.with_delivery_rate(
            scenario.p_delivery * (1.0 - gap_fraction))
    return scenario


def evaluate_request(request: ServiceRequest, *,
                     engine: str = "vector") -> AdvisorChoice:
    """The full cold evaluation: scenario + sweep + selection.

    ``engine`` picks the model backend (``"vector"`` by default — one
    batched numpy pass over the candidate ladder; ``"scalar"`` is the
    per-policy oracle).  The answer is engine-agnostic: both backends
    agree within floating-point tolerance and select the same policy,
    so the memo key deliberately carries no engine field.
    """
    advisor = PolicyAdvisor(build_scenario(request), engine=engine)
    return advisor.recommend(
        target_psnr_db=request.resolved_target_psnr_db,
        candidates=request.candidate_policies(),
    )


def evaluate_payload(request: ServiceRequest, *,
                     engine: str = "vector") -> Dict[str, Any]:
    """What the server computes on a memo miss (and what it memoizes)."""
    return choice_payload(evaluate_request(request, engine=engine))


# -- the memo layer ------------------------------------------------------------


@lru_cache(maxsize=1)
def advisor_fingerprint() -> str:
    """Digest of every source file an advisor answer depends on; editing
    the model invalidates all memoized recommendations, exactly like the
    experiment cache's ``code_fingerprint``."""
    from ..analysis import regression
    from ..core import (adaptive, advisor, calibration, delay, distortion,
                        frame_success, mmpp, policies, queueing, scenario,
                        service, vector_models, waiting_distribution)
    from ..mobility import field as mobility_field
    from ..mobility import scenario as mobility_scenario
    from ..mobility import selection as mobility_selection
    from ..mobility import trace as mobility_trace
    from ..video import codec, concealment, gop, motion, quality, synth, yuv
    from ..wifi import dcf, phy
    from . import advisor_service, devices

    modules = (advisor, adaptive, calibration, delay, distortion,
               frame_success, mmpp, policies, queueing, scenario, service,
               vector_models, waiting_distribution, regression, codec,
               concealment, gop,
               motion, quality, synth, yuv, dcf, phy, devices,
               mobility_trace, mobility_field, mobility_selection,
               mobility_scenario, advisor_service)
    digest = hashlib.sha256()
    for module in modules:
        digest.update(Path(module.__file__).read_bytes())
    return digest.hexdigest()


class AdvisorMemo:
    """Content-addressed memo of finished recommendations over a
    :class:`ResultCache`.

    Entries are ordinary cache payloads — a non-empty ``runs`` list (one
    :class:`RunMetrics` row per sweep entry) plus a ``meta`` block
    carrying the full choice payload — so ``repro cache verify``, LRU
    eviction, and quarantine all treat them like any experiment cell.
    """

    SCHEMA = MEMO_SCHEMA

    def __init__(self, cache: ResultCache) -> None:
        self.cache = cache
        self.hits = 0
        self.misses = 0

    def key(self, request: ServiceRequest) -> str:
        return stable_key({
            "service": "advisor",
            "schema": self.SCHEMA,
            "code": advisor_fingerprint(),
            "request": request.canonical(),
        })

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The memoized choice payload, or ``None``.  Anything that is
        not a well-formed advisor entry (foreign schema, hand-edited
        file, truncated write) is a miss, never an exception.

        The read goes through :meth:`ResultCache.get`, so a hit refreshes
        the entry's LRU stamp and an undecodable entry is quarantined."""
        payload = self.cache.get(key)
        meta = payload.get("meta") if isinstance(payload, dict) else None
        if (not isinstance(meta, dict)
                or meta.get("service") != "advisor"
                or meta.get("schema") != self.SCHEMA
                or not isinstance(meta.get("choice"), dict)):
            self.misses += 1
            return None
        self.hits += 1
        return meta["choice"]

    def put(self, key: str, request: ServiceRequest,
            payload: Dict[str, Any]) -> None:
        runs = [
            RunMetrics(
                mean_delay_ms=float(entry["delay_ms"]),
                mean_waiting_ms=float(entry["waiting_ms"]),
                average_power_w=0.0,
                receiver_psnr_db=float(entry["receiver_psnr_db"]),
                eavesdropper_psnr_db=float(entry["eavesdropper_psnr_db"]),
                eavesdropper_mos=float(entry["eavesdropper_mos"]),
            )
            for entry in payload["sweep"].values()
        ]
        if not runs:
            return  # the cache schema requires a non-empty runs list
        self.cache.put_runs(key, runs, meta={
            "service": "advisor",
            "schema": self.SCHEMA,
            "request": request.canonical(),
            "choice": payload,
        })


# -- the client ----------------------------------------------------------------


@dataclass(frozen=True)
class AdvisorAnswer:
    """One served recommendation: the canonical payload bytes plus
    where they came from (``cold`` evaluation or ``memo`` hit)."""

    source: str
    key: str
    ap: str
    data: bytes

    @property
    def payload(self) -> Dict[str, Any]:
        return json.loads(self.data.decode("utf-8"))


class AdvisorClient:
    """Synchronous client of an :class:`AdvisorServer`.

    Transport failures (refused, reset, mid-frame restart) are retried
    inside :class:`NetClient` with reconnect + backoff.  A ``busy``
    admission response is retried *here*, with a separate jittered
    backoff, because it is a healthy server saying "not yet" — tearing
    down the connection would only add load.
    """

    def __init__(self, host: str, port: Optional[int] = None, *,
                 client: Optional[NetClient] = None,
                 busy_attempts: int = 64,
                 busy_backoff: Optional[Backoff] = None,
                 **client_kwargs) -> None:
        if port is None:
            host, port = parse_tcp_spec(host)
        if busy_attempts < 1:
            raise ValueError(
                f"busy_attempts must be >= 1, got {busy_attempts}")
        self.host = host
        self.port = port
        self.busy_attempts = busy_attempts
        self._busy_backoff = busy_backoff or Backoff(base_s=0.02,
                                                     cap_s=1.0)
        self._client = client or NetClient(host, port, **client_kwargs)

    @classmethod
    def from_spec(cls, spec: str, **kwargs) -> "AdvisorClient":
        host, port = parse_tcp_spec(spec)
        return cls(host, port, **kwargs)

    def ping(self) -> Dict[str, Any]:
        header, _ = self._client.call("ping")
        return header

    def stats(self) -> Dict[str, Any]:
        header, _ = self._client.call("advise.stats")
        return header

    def recommend(self, request: Union[ServiceRequest, Dict[str, Any]]
                  ) -> AdvisorAnswer:
        if not isinstance(request, ServiceRequest):
            request = ServiceRequest.from_header(request)
        header = {"request": request.to_header()}
        for attempt in range(self.busy_attempts):
            if attempt:
                time.sleep(self._busy_backoff.next_delay())
            response, blob = self._client.call("advise.recommend", header)
            if not response.get("busy"):
                self._busy_backoff.reset()
                return AdvisorAnswer(
                    source=str(response.get("source", "")),
                    key=str(response.get("key", "")),
                    ap=str(response.get("ap", request.ap)),
                    data=blob,
                )
        raise ConnectionError(
            f"AP {request.ap!r} on {self.host}:{self.port} still busy"
            f" after {self.busy_attempts} attempts")

    def close(self) -> None:
        self._client.close()

    def __enter__(self) -> "AdvisorClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
