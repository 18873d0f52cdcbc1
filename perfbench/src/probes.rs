//! Per-layer probes for the traced run: each times calls into one layer's
//! public functions on the workload's graph.

use crate::deploy::{sleep_until, FLEET_SHARDS};
use crate::inputs::{PairPool, Rng};
use crate::trace::Tracer;
use crate::Metrics;
use htsp_graph::{Graph, IndexMaintainer, VertexId, WorkerPool};
use htsp_partition::td_partition;
use htsp_td::{H2HIndex, TreeDecomposition};
use htsp_throughput::{
    AlgorithmKind, BuildParams, FleetConfig, RoadNetworkServer, ShardedFleet, UpdateOutcome,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const MIB: f64 = 1024.0 * 1024.0;

/// Median (lower of the middle two) of a sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The PostMHL construction layers, each timed on its own: MDE tree
/// decomposition, H2H label fill, TD-partitioning. Returns the standalone
/// index the query-stage probe reads.
pub fn build_layers(graph: &Graph, m: &mut Metrics, tracer: &Tracer) -> Box<dyn IndexMaintainer> {
    let pool = WorkerPool::new(htsp_graph::available_parallelism());
    let t0 = Instant::now();
    let td = TreeDecomposition::build_pooled(graph, &pool);
    let t1 = Instant::now();
    m.push("build.tree_height", td.height() as f64, "count");
    let h2h = H2HIndex::from_decomposition_pooled(td, &pool);
    let t2 = Instant::now();
    let (td, _labels) = h2h.into_parts();
    let partitioning = BuildParams::default().postmhl_config().partitioning;
    let t3 = Instant::now();
    let _ = std::hint::black_box(td_partition(&td, &partitioning));
    let t4 = Instant::now();
    let root = tracer.span("probe.build", None, 0, t0, t4);
    tracer.span("build.decompose", Some(root), 0, t0, t1);
    tracer.span("build.label_fill", Some(root), 0, t1, t2);
    tracer.span("build.partition", Some(root), 0, t3, t4);
    m.push("build.decompose_s", (t1 - t0).as_secs_f64(), "s");
    m.push("build.label_fill_s", (t2 - t1).as_secs_f64(), "s");
    m.push("build.partition_s", (t4 - t3).as_secs_f64(), "s");
    let index = AlgorithmKind::PostMhl.build(graph, &BuildParams::default());
    let bytes: usize = index.storage_bytes().iter().map(|(_, b)| b).sum();
    m.push("build.index_mb", bytes as f64 / MIB, "MiB");
    index
}

/// Per-pair cost of each PostMHL query stage on a fixed pair sample, plus
/// the batch shapes and session opening on the final stage.
pub fn query_stages(
    index: &dyn IndexMaintainer,
    pool: &PairPool,
    m: &mut Metrics,
    tracer: &Tracer,
) {
    let pairs = pool.head(4096);
    let t_start = Instant::now();
    let stages = index.num_query_stages();
    for stage in 0..stages {
        let view = index.view_at_stage(stage);
        // Stage 0 is index-free search: a smaller sample keeps it short.
        let sample = if stage == 0 { &pairs[..256] } else { pairs };
        let mut session = view.session();
        let t = Instant::now();
        let mut acc = 0u64;
        for &(s, t) in sample {
            acc = acc.wrapping_add(session.distance(s, t).0 as u64);
        }
        std::hint::black_box(acc);
        let us = t.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;
        m.push(&format!("query.stage{stage}.pair_us"), us, "us");
    }
    let view = index.view_at_stage(stages - 1);
    let mut session = view.session();
    let sources: Vec<VertexId> = pairs.iter().map(|p| p.0).collect();
    let targets: Vec<VertexId> = pairs.iter().map(|p| p.1).collect();
    let t = Instant::now();
    for chunk in 0..128 {
        std::hint::black_box(
            session.one_to_many(sources[chunk], &targets[chunk * 32..chunk * 32 + 32]),
        );
    }
    m.push(
        "query.one_to_many.target_us",
        t.elapsed().as_secs_f64() * 1e6 / (128.0 * 32.0),
        "us",
    );
    let t = Instant::now();
    for chunk in 0..64 {
        let range = chunk * 8..chunk * 8 + 8;
        std::hint::black_box(session.matrix(&sources[range.clone()], &targets[range]));
    }
    m.push(
        "query.matrix.pair_us",
        t.elapsed().as_secs_f64() * 1e6 / (64.0 * 64.0),
        "us",
    );
    drop(session);
    let t = Instant::now();
    for _ in 0..2000 {
        std::hint::black_box(view.session());
    }
    m.push(
        "query.session_open_us",
        t.elapsed().as_secs_f64() * 1e6 / 2000.0,
        "us",
    );
    tracer.span("probe.query_stages", None, 0, t_start, Instant::now());
}

/// Fleet-layer metrics of a running fleet: per-pair session cost on a
/// fixed sample, the cross-shard share of the traffic it served, and the
/// boundary overlay's size.
pub fn fleet_layer(fleet: &ShardedFleet, pool: &PairPool, m: &mut Metrics, tracer: &Tracer) {
    let t_start = Instant::now();
    let mut session = fleet.session();
    let mut times = Vec::with_capacity(1024);
    for &(s, t) in pool.head(1024) {
        let t0 = Instant::now();
        std::hint::black_box(htsp_graph::QuerySession::distance(&mut session, s, t));
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(session);
    m.push("fleet.pair_us.p50", quantile(&times, 0.5), "us");
    m.push("fleet.pair_us.p99", quantile(&times, 0.99), "us");
    let report = fleet.report();
    let local: u64 = report.shards.iter().map(|s| s.local_queries).sum();
    let cross: u64 = report.shards.iter().map(|s| s.cross_queries).sum();
    m.push(
        "fleet.cross_share",
        cross as f64 / (local + cross).max(1) as f64,
        "fraction",
    );
    m.push(
        "fleet.overlay_vertices",
        report.overlay_vertices as f64,
        "count",
    );
    m.push("fleet.overlay_edges", report.overlay_edges as f64, "count");
    tracer.span("probe.fleet", None, 0, t_start, Instant::now());
}

/// Fleet-layer metrics where the workload serves from a single server: a
/// probe fleet over the same graph.
pub fn fleet_probe(graph: &Graph, pool: &PairPool, m: &mut Metrics, tracer: &Tracer) {
    let fleet = ShardedFleet::start(
        graph,
        FleetConfig::new(FLEET_SHARDS, AlgorithmKind::PostMhl),
    );
    fleet_layer(&fleet, pool, m, tracer);
    fleet.shutdown();
}

/// One applied update: when it was submitted and its batch's outcome.
pub type Applied = (Instant, Arc<UpdateOutcome>);

/// Maintenance and feed metrics from applied updates.
pub fn maintenance_layers(applied: &[Applied], m: &mut Metrics) {
    let mut batches: Vec<&Arc<UpdateOutcome>> = applied.iter().map(|(_, o)| o).collect();
    batches.sort_by_key(|o| o.batch_seq);
    batches.dedup_by_key(|o| o.batch_seq);
    for stage in 0..5 {
        let ms: Vec<f64> = batches
            .iter()
            .filter_map(|o| o.timeline.stages.get(stage))
            .map(|s| s.duration.as_secs_f64() * 1e3)
            .collect();
        m.push(&format!("maint.U{}_ms", stage + 1), median(&ms), "ms");
    }
    let cow: Vec<f64> = batches
        .iter()
        .map(|o| o.cow.bytes_cloned as f64 / MIB)
        .collect();
    m.push("maint.cow_mb.mean", mean(&cow), "MiB");
    let waits: Vec<f64> = applied
        .iter()
        .map(|(submitted, o)| {
            o.apply_start
                .saturating_duration_since(*submitted)
                .as_secs_f64()
                * 1e3
        })
        .collect();
    m.push("feed.coalesce_wait_ms.p50", median(&waits), "ms");
    let lens: Vec<f64> = batches.iter().map(|o| o.batch_len as f64).collect();
    m.push("feed.batch_len.mean", mean(&lens), "updates");
}

/// Maintenance and feed metrics where the workload serves from a fleet,
/// whose shard servers are private: a probe server over the same graph
/// takes `count` updates from its own seeded stream at `rate` per second.
pub fn maintenance_probe(
    graph: &Graph,
    seed: u64,
    rate: f64,
    count: usize,
    m: &mut Metrics,
    tracer: &Tracer,
) {
    let t_start = Instant::now();
    let server = RoadNetworkServer::builder()
        .algorithm(AlgorithmKind::PostMhl)
        .start(graph);
    let mut weights: Vec<_> = (0..graph.num_edges())
        .map(|e| graph.edge_weight(htsp_graph::EdgeId(e as u32)))
        .collect();
    let mut rng = Rng::new(seed, 4);
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(count);
    for i in 0..count {
        sleep_until(start + Duration::from_secs_f64(i as f64 / rate));
        let (e, new) = crate::inputs::next_update(&mut rng, &weights);
        let old = std::mem::replace(&mut weights[e], new);
        tickets.push(server.submit(htsp_graph::EdgeUpdate::new(
            htsp_graph::EdgeId(e as u32),
            old,
            new,
        )));
    }
    let applied: Vec<Applied> = tickets
        .iter()
        .map(|t| (t.submitted_at(), t.wait_applied()))
        .collect();
    server.shutdown();
    maintenance_layers(&applied, m);
    tracer.span("probe.maintenance", None, 0, t_start, Instant::now());
}
