"""Offline cloud services: maps, model training, data uplink (Fig. 1).

The telemetry delivery pipeline (PR 6) lives in three layers here:
:mod:`.network` (seeded lossy transport), :mod:`.client` (the vehicle's
resilient uplink client), and :mod:`.ingestion` (the cloud-side
at-least-once service plus the fleet campaign driving both ends).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "client": (
        "CircuitBreaker", "ClientReport", "ResilientUplinkClient",
        "RetryPolicy", "UplinkEnvelope", "UplinkQueue", "WireDecodeError",
    ),
    "compression": (
        "CondensedLog", "compress_frame", "compression_ratio", "condense_log",
        "daily_raw_volume_bytes", "decompress_frame",
    ),
    "ingestion": (
        "IngestCampaignConfig", "IngestCampaignResult", "IngestionService",
        "IngestReport", "TelemetrySession", "intensity_sweep",
        "run_ingest_campaign",
    ),
    "maps": ("DriveObservation", "MapGenerationService", "MapUpdate"),
    "network": (
        "LinkFaultProfile", "LossyLink", "NetworkFaultSpace",
        "payload_checksum", "sample_cell_faults",
    ),
    "training": ("PAPER_DEPLOYMENTS", "ModelTrainingService", "ModelVersion"),
    "uplink": (
        "DataClass", "Link", "OnboardStorage", "UplinkDecision",
        "cellular_link", "depot_link", "paper_data_classes", "plan_uplink",
    ),
})
