"""The simulated Android testbed (Sections 5-6): device profiles, the
Fig. 3 sender pipeline as a discrete-event simulation, RTP/UDP and
HTTP/TCP transports, per-packet tracing, the power model, and the
end-to-end experiment runner."""

from .backends import (
    CacheBackend,
    backend_from_env,
    parse_backend_spec,
)
from .cache import (
    DirectoryBackend,
    ResultCache,
    RunMetrics,
    SqliteIndexBackend,
    code_fingerprint,
    stable_key,
)
from .advisor_service import (
    AdvisorAnswer,
    AdvisorClient,
    AdvisorMemo,
    ServiceRequest,
    advisor_fingerprint,
    build_scenario,
    evaluate_payload,
    evaluate_request,
    policy_from_name,
)
from .locks import FileLock, LockTimeout
from .devices import DEVICES, GALAXY_S2, HTC_AMAZE_4G, DeviceProfile
from .energy import EnergyBreakdown, average_power_w, microamp_hours_to_watts
from .events import (
    EventKernel,
    Request,
    Resource,
    Timeout,
    WaitUntil,
)
from .engine import (
    CellSummary,
    ExperimentEngine,
    GridCell,
    config_from_description,
    describe_config,
    scenario_fingerprint,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    RepeatedResult,
    run_experiment,
    run_repeated,
)
from .multiflow import (ContentionMAC, FlowProcess, MULTIFLOW_ENGINES,
                        MultiFlowRun, contention_link, run_multiflow)
from .netproto import (
    Backoff,
    NetClient,
    RemoteWorkQueue,
    TcpCacheBackend,
    parse_tcp_spec,
)
from .queue import (QueueTask, WorkQueue, open_queue, pack_scenario,
                    unpack_scenario)
from .simulator import (
    LinkConfig,
    PacketService,
    SenderSimulator,
    SimulationRun,
)
from .tracing import PacketTrace, TraceLog
from .worker import (AutoscaleReport, WorkerReport, run_autoscaler,
                     run_worker)
from .transport import (
    HTTP_TCP,
    UDP_RTP,
    TransportConfig,
    delivery_outcome,
    delivery_outcome_with,
)

__all__ = [
    "DEVICES", "GALAXY_S2", "HTC_AMAZE_4G", "DeviceProfile",
    "EnergyBreakdown", "average_power_w", "microamp_hours_to_watts",
    "ExperimentConfig", "ExperimentResult", "RepeatedResult",
    "run_experiment", "run_repeated",
    "CellSummary", "ExperimentEngine", "GridCell",
    "describe_config", "scenario_fingerprint",
    "ResultCache", "RunMetrics", "code_fingerprint", "stable_key",
    "DirectoryBackend", "SqliteIndexBackend",
    "LinkConfig", "PacketService", "SenderSimulator", "SimulationRun",
    "EventKernel", "Request", "Resource", "Timeout", "WaitUntil",
    "ContentionMAC", "FlowProcess", "MULTIFLOW_ENGINES", "MultiFlowRun",
    "contention_link", "run_multiflow",
    "PacketTrace", "TraceLog",
    "HTTP_TCP", "UDP_RTP", "TransportConfig", "delivery_outcome",
    "delivery_outcome_with",
    "CacheBackend", "backend_from_env",
    "parse_backend_spec", "FileLock", "LockTimeout",
    "config_from_description",
    "QueueTask", "WorkQueue", "WorkerReport", "run_worker",
    "open_queue", "pack_scenario", "unpack_scenario",
    "Backoff", "NetClient", "RemoteWorkQueue", "TcpCacheBackend",
    "parse_tcp_spec",
    "AutoscaleReport", "run_autoscaler",
    "AdvisorAnswer", "AdvisorClient", "AdvisorMemo", "ServiceRequest",
    "advisor_fingerprint", "build_scenario", "evaluate_payload",
    "evaluate_request", "policy_from_name",
]
