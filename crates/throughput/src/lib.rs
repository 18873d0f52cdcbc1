//! # htsp-throughput
//!
//! The HTSP system model (§II) and both throughput harnesses.
//!
//! Given any [`htsp_graph::IndexMaintainer`], the **model harness**
//! ([`ThroughputHarness`]) replays update batches and a query workload,
//! measures the per-stage update timeline and per-stage query latency via
//! [`htsp_graph::QueryView`] snapshots, and evaluates:
//!
//! * the **Lemma 1 bound** on the maximum average throughput `λ*_q` (an M/G/1
//!   response-time constraint combined with the update-installability
//!   constraint `t_u < δt`), and
//! * the **staged throughput**: the number of queries the system can serve per
//!   second of the update interval when each maintenance stage releases a
//!   faster query stage (the yellow area of Figure 1), which is what the
//!   multi-stage indexes improve.
//!
//! It also records the **QPS evolution** over the update interval (Fig. 13).
//!
//! The **concurrent engine** ([`QueryEngine`]) goes beyond the model: it
//! runs real query worker threads against the published snapshots while the
//! maintenance thread repairs the index, and reports the *measured* QPS
//! curve next to the modeled one. Its [`WorkloadKind`] selects the serving
//! pattern: the legacy single-call path, or the session-based batched,
//! one-to-many, and matrix paths.
//!
//! The **distance service** ([`DistanceService`]) is the batch-oriented
//! serving front-end: clients submit [`QueryBatch`] requests into a queue;
//! worker threads answer them through per-thread
//! [`QuerySession`](htsp_graph::QuerySession)s pinned to the currently
//! published snapshot, re-pinning whenever the maintainer publishes a
//! fresher stage.
//!
//! The **result cache** ([`DistanceCache`]) memoizes answers for skewed
//! (hot-pair) traffic without ever serving a stale one: entries are tagged
//! with the snapshot version they were computed against and every
//! publication invalidates by epoch. It is config-gated off by default
//! ([`ServerBuilder::result_cache`] enables it); [`WorkloadKind::HotPairs`]
//! is the Zipf-skewed workload that measures it.
//!
//! The **sharded serving tier** ([`ShardedFleet`] + [`FleetRouter`])
//! partitions the network, runs one [`RoadNetworkServer`] per shard, keeps
//! a boundary-overlay index update-maintained, and answers cross-shard
//! queries exactly by concatenating shard boundary fans through one
//! multi-source overlay search — see the [`fleet`] and [`router`] module
//! docs.
//!
//! The **telemetry hub** ([`TelemetryHub`]) is the unified observability
//! layer over all of the above: a metrics registry (counters, gauges,
//! labeled latency histograms on the single [`LatencyHistogram`] quantile
//! type) plus a bounded span recorder that follows each update and each
//! query batch by trace id across every pipeline stage, exporting
//! Prometheus text exposition and Chrome trace-event JSON — see the
//! [`telemetry`] module docs.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod config;
pub mod engine;
pub mod feed;
pub mod fleet;
pub mod loadgen;
pub mod model;
pub mod registry;
pub mod router;
pub mod server;
pub mod service;
pub mod simulator;
pub mod slo;
pub mod telemetry;

pub use admission::{AdmissionPolicy, ServiceStats, ShutdownReport, SubmitOutcome};
pub use cache::{CacheStats, CachedSession, DistanceCache};
pub use config::{CacheConfig, FleetConfig, SystemConfig};
pub use engine::{
    EngineReport, HotPairStream, QpsSample, QueryEngine, QueryEngineBuilder, QueryEngineConfig,
    WorkloadKind, ZipfSampler,
};
pub use feed::{CoalescePolicy, FeedStats, UpdateFeed, UpdateOutcome, UpdateTicket, Visibility};
pub use fleet::{FleetReport, ShardReport, ShardedFleet};
pub use loadgen::{
    run_open_loop, run_open_loop_with_telemetry, ArrivalProcess, ClassReport, LoadProfile,
    LoadReport, OpenLoopStream, Pacer, RequestClass, RequestMix, ScheduledRequest,
};
pub use model::{lemma1_bound, staged_throughput, QueryStats};
pub use registry::{AlgorithmKind, BuildParams};
pub use router::{FleetQueryHandle, FleetRouter, FleetSession, FleetTicket, FleetVisibility};
pub use server::{RoadNetworkServer, ServerBuilder, STORAGE_BYTES_METRIC};
pub use service::{BatchAnswer, BatchResult, BatchTicket, DistanceService, QueryBatch};
pub use simulator::{BatchOutcome, QpsPoint, ThroughputHarness, ThroughputResult};
pub use slo::{LatencyHistogram, SloCheck, SloTarget, SloVerdict};
pub use telemetry::{
    intern, validate_json, validate_prometheus, Counter, Gauge, Histogram, Reporter, SpanGuard,
    TelemetryHub, TelemetrySnapshot,
};
