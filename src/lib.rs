//! # htsp
//!
//! A from-scratch Rust reproduction of *"High Throughput Shortest Distance
//! Query Processing on Large Dynamic Road Networks"* (ICDE 2025).
//!
//! This facade crate re-exports the public API of every workspace crate so a
//! downstream user can depend on `htsp` alone:
//!
//! * [`graph`] — dynamic road-network model, synthetic generators, DIMACS
//!   parser, update batches, query workloads.
//! * [`search`] — Dijkstra / bidirectional Dijkstra / A*.
//! * [`ch`] — Contraction Hierarchies and DCH maintenance.
//! * [`td`] — MDE tree decomposition, H2H, DH2H.
//! * [`partition`] — region-growing partitioning and TD-partitioning.
//! * [`psp`] — Partitioned Shortest Path machinery (overlay graph, boundary
//!   strategies, N-CH-P / P-TD-P baselines).
//! * [`core`] — the paper's contributions: MHL, PMHL, PostMHL.
//! * [`baselines`] — BiDijkstra, DCH, DH2H and TOAIN wrappers.
//! * [`throughput`] — the HTSP system model (Lemma 1) and throughput harness.
//!
//! # Quickstart
//!
//! The index API is split into a read half and a write half: an
//! [`graph::IndexMaintainer`] owns the mutable machinery and publishes
//! immutable, thread-safe [`graph::QueryView`] snapshots through a
//! [`graph::SnapshotPublisher`] at the end of each completed update stage,
//! so queries keep flowing while the repair runs. Serving threads open a
//! per-thread [`graph::QuerySession`] on a view and drive point-to-point,
//! one-to-many, and matrix workloads through it.
//!
//! ```
//! use htsp::graph::{gen, IndexMaintainer, QuerySet, SnapshotPublisher, UpdateGenerator};
//! use htsp::core::{PostMhl, PostMhlConfig};
//!
//! // Build a small synthetic road network and a PostMHL index over it.
//! let mut road = gen::grid(16, 16, gen::WeightRange::new(1, 60), 7);
//! let mut index = PostMhl::build(&road, PostMhlConfig::default());
//!
//! // Open a session on an immutable snapshot (any number of threads could
//! // share the view, each with its own session) and answer queries.
//! let view = index.current_view();
//! let mut session = view.session();
//! let queries = QuerySet::random(&road, 10, 3);
//! for q in &queries {
//!     assert!(session.query(q).is_finite());
//! }
//! // Batch workloads share work across targets where the machinery allows.
//! let targets: Vec<_> = queries.iter().map(|q| q.target).collect();
//! let fan = session.one_to_many(queries.as_slice()[0].source, &targets);
//! assert_eq!(fan.len(), targets.len());
//! let m = session.matrix(&targets[..2], &targets);
//! assert_eq!((m.len(), m[0].len()), (2, targets.len()));
//! drop(session);
//!
//! // Traffic changes arrive in a batch; apply it and repair the index.
//! // Each completed update stage publishes a fresh snapshot.
//! let batch = UpdateGenerator::new(1).generate(&road, 20);
//! road.apply_batch(&batch);
//! let publisher = SnapshotPublisher::new(index.current_view());
//! let timeline = index.apply_batch(&road, &batch, &publisher);
//! assert_eq!(timeline.stages.len(), 5);
//! assert_eq!(publisher.version(), 4); // 4 query stages published
//! assert!(publisher.snapshot().distance(queries.as_slice()[0].source,
//!                                       queries.as_slice()[0].target).is_finite());
//! ```
//!
//! # Serving: the `RoadNetworkServer` facade
//!
//! Production deployments do not drive `apply_batch` by hand — they run a
//! [`RoadNetworkServer`]: one object owning the graph, the index maintenance
//! thread, the snapshot publisher, and (optionally) a pool of query workers.
//! Updates stream in asynchronously through its [`UpdateFeed`]
//! (`submit(EdgeUpdate) -> UpdateTicket`), are coalesced into batches under
//! a [`CoalescePolicy`] (max batch size `|U|`, max delay Δt — the Δt of
//! Lemma 1), and each ticket's `wait_visible()` gives read-your-writes:
//!
//! ```
//! use htsp::{AlgorithmKind, CoalescePolicy, RoadNetworkServer};
//! use htsp::graph::{gen, EdgeId, EdgeUpdate, IndexMaintainer};
//!
//! let road = gen::grid(12, 12, gen::WeightRange::new(1, 60), 7);
//! let server = RoadNetworkServer::builder()
//!     .algorithm(AlgorithmKind::Dch)       // any of the nine registry kinds
//!     .coalesce(CoalescePolicy::by_size(2))
//!     .query_workers(2)                    // batched DistanceService front-end
//!     .start(&road);
//!
//! // Traffic: an edge slows down; submit the change while queries keep
//! // flowing against the published snapshots.
//! let e = EdgeId::from_index(17);
//! let old = road.edge_weight(e);
//! let t0 = server.submit(EdgeUpdate::new(e, old, old + 30));
//! let t1 = server.submit(EdgeUpdate::new(e, old + 30, old + 35));
//! let visibility = t1.wait_visible();      // read-your-writes barrier
//! assert_eq!(server.snapshot().graph().edge_weight(e), old + 35);
//! let outcome = t0.wait_applied();         // full staged-repair report
//! assert_eq!(outcome.batch_len, 2);        // both updates coalesced
//! let index = server.shutdown();           // machinery handed back
//! assert_eq!(index.name(), "DCH");
//! ```
//!
//! To *measure* throughput under concurrent maintenance, drive the same
//! server with [`throughput::QueryEngine`] (single-call, session-batched,
//! and Zipf hot-pair workload modes) or the Lemma 1 model harness
//! [`throughput::ThroughputHarness`]; to *serve* batched traffic, see
//! [`throughput::DistanceService`] (a queue of `QueryBatch` requests drained
//! by session-pinning workers, started by `query_workers(n)`). The service
//! queue is governed by an [`AdmissionPolicy`] (unbounded blocking, bounded
//! shedding, or per-request deadlines), and the open-loop load subsystem
//! ([`throughput::loadgen`]) measures it the way real traffic would: seeded
//! Poisson arrival streams, weighted request mixes, and latency histograms
//! with p50/p95/p99 [`SloTarget`] verdicts.
//!
//! For skewed traffic, `ServerBuilder::result_cache(CacheConfig)` enables
//! the snapshot-versioned [`DistanceCache`]: answers are memoized per
//! `(source, target)` tagged with the publisher version they were computed
//! against, so a publication implicitly invalidates the cache and a hit can
//! never cross a version boundary (off by default — see
//! [`throughput::cache`] for when it helps vs hurts).
//!
//! Snapshot isolation rides on the chunked copy-on-write storage layer in
//! [`graph::cow`]: label and distance tables live in
//! [`graph::CowTable`] / [`graph::CowVec`] containers, so publishing a view
//! copies chunk pointers and a repair stage clones only the chunks its
//! change set touches — with the chunks/bytes actually cloned reported per
//! publication in the [`graph::SnapshotPublisher`] log.

#![warn(missing_docs)]

pub use htsp_baselines as baselines;
pub use htsp_ch as ch;
pub use htsp_core as core;
pub use htsp_graph as graph;
pub use htsp_partition as partition;
pub use htsp_psp as psp;
pub use htsp_search as search;
pub use htsp_td as td;
pub use htsp_throughput as throughput;

// The serving facade, re-exported flat: what a deployment touches first.
pub use htsp_throughput::{
    AdmissionPolicy, AlgorithmKind, BuildParams, CacheConfig, CacheStats, CoalescePolicy,
    DistanceCache, DistanceService, FleetConfig, FleetQueryHandle, FleetReport, FleetRouter,
    FleetSession, FleetTicket, FleetVisibility, LatencyHistogram, LoadProfile, LoadReport, Pacer,
    RoadNetworkServer, ServerBuilder, ServiceStats, ShardReport, ShardedFleet, SloTarget,
    SloVerdict, SubmitOutcome, UpdateFeed, UpdateOutcome, UpdateTicket, Visibility,
    STORAGE_BYTES_METRIC,
};

/// The version of the reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
