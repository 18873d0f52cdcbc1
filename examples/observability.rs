//! Observability: one `TelemetryHub` over the whole serving pipeline.
//!
//! Builds a DCH server (with a result cache) and a 4-shard fleet that share
//! a single telemetry hub, pushes traced updates and an open-loop query run
//! through them, then exports the two wire formats the hub speaks:
//!
//! * **Prometheus text exposition** — every counter, gauge (with its
//!   high-water `_max` twin), and latency histogram in the registry, ready
//!   to be scraped or diffed;
//! * **Chrome trace-event JSON** — the bounded span ring, where every
//!   update's `submit → coalesce → stage → publish → visible` intervals and
//!   every query batch's `submit → queue → execute` intervals carry the
//!   same trace id end to end. Load the file at `chrome://tracing` (or
//!   <https://ui.perfetto.dev>) and zoom into one trace id to see where a
//!   single request spent its time.
//!
//! The example validates both exports with the hub's own validators and
//! exits nonzero on any malformed line, unparsable JSON, unbalanced span
//! counts, a pipeline metric family missing from the export, or empty
//! per-stage repair histograms — CI runs it as the telemetry format gate.
//!
//! Run with: `cargo run --release --example observability`

use htsp::graph::{gen, Query, QuerySet, UpdateGenerator};
use htsp::throughput::{
    loadgen, validate_json, validate_prometheus, AdmissionPolicy, AlgorithmKind, CacheConfig,
    DistanceService, FleetConfig, LoadProfile, RequestMix, ShardedFleet, SloTarget, TelemetryHub,
};
use htsp::ServerBuilder;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let road = gen::grid(16, 16, gen::WeightRange::new(1, 60), 7);
    let pool: Vec<Query> = QuerySet::random(&road, 128, 11).as_slice().to_vec();

    // One hub for every component: the server's ingest/stage/publish/cache
    // metrics, the service's admission metrics, the fleet's router metrics,
    // and the load generator's per-class histograms all land in the same
    // registry, so the snapshot below covers the full pipeline.
    let hub = Arc::new(TelemetryHub::new());
    let server = ServerBuilder::default()
        .algorithm(AlgorithmKind::Dch)
        .result_cache(CacheConfig::with_capacity(1024))
        .telemetry(Arc::clone(&hub))
        .start(&road);
    let fleet = ShardedFleet::start_with_telemetry(
        &road,
        FleetConfig::new(4, AlgorithmKind::Dch),
        Arc::clone(&hub),
    );

    // Traced updates: each submission mints a trace id that follows the
    // update through coalescing, every maintenance stage, and publication.
    let mut gen_updates = UpdateGenerator::new(3);
    for _ in 0..4 {
        let batch = {
            let graph = server.snapshot().graph().clone();
            gen_updates.generate(&graph, 4)
        };
        for &u in batch.as_slice() {
            server.submit(u);
            fleet.submit(u);
        }
        server.feed().wait_idle();
        fleet.wait_idle();
    }
    // A few fleet queries so the router's local/cross counters move.
    for q in pool.iter().take(16) {
        fleet.distance(q.source, q.target);
    }

    // Traced queries: an open-loop run against a shedding service; every
    // batch gets a trace id spanning submit → queue → execute, and the
    // tight queue bound exercises the shed path too.
    let service = DistanceService::with_telemetry(
        Arc::clone(server.publisher()),
        2,
        server.cache().cloned(),
        AdmissionPolicy::Shed { max_depth: 8 },
        Arc::clone(&hub),
    );
    let profile = LoadProfile::poisson(
        400.0,
        Duration::from_millis(200),
        SloTarget::p95(Duration::from_millis(100)),
    )
    .with_mix(RequestMix::point_to_point(4));
    let report = loadgen::run_open_loop_with_telemetry(&service, &profile, &pool, Some(&hub));
    println!(
        "open loop: {} offered, {} answered, {} shed, p95 {:.2} ms",
        report.offered,
        report.answered,
        report.shed,
        report.latency.quantile(0.95).as_secs_f64() * 1e3,
    );
    service.shutdown();
    fleet.shutdown();
    server.shutdown();

    // One snapshot, two wire formats.
    let snap = hub.snapshot();
    let dir = std::env::temp_dir();
    let prom_path = dir.join("htsp_observability.prom");
    let trace_path = dir.join("htsp_observability_trace.json");
    std::fs::write(&prom_path, &snap.prometheus).expect("write Prometheus dump");
    std::fs::write(&trace_path, &snap.chrome_trace).expect("write Chrome trace dump");
    println!(
        "exported {} bytes of Prometheus exposition to {}",
        snap.prometheus.len(),
        prom_path.display()
    );
    println!(
        "exported {} bytes of Chrome trace JSON to {} (open at chrome://tracing)",
        snap.chrome_trace.len(),
        trace_path.display()
    );
    let mut failed = false;
    match validate_prometheus(&snap.prometheus) {
        Ok(samples) => println!("Prometheus exposition valid: {samples} samples"),
        Err(e) => {
            eprintln!("INVALID Prometheus exposition: {e}");
            failed = true;
        }
    }
    match validate_json(&snap.chrome_trace) {
        Ok(()) => println!("Chrome trace JSON parses"),
        Err(e) => {
            eprintln!("INVALID Chrome trace JSON: {e}");
            failed = true;
        }
    }
    if snap.spans_balanced() {
        println!(
            "spans balanced: {} opened = {} closed ({} dropped by the bounded ring)",
            snap.spans_opened, snap.spans_closed, snap.spans_dropped
        );
    } else {
        eprintln!(
            "UNBALANCED spans: {} opened vs {} closed",
            snap.spans_opened, snap.spans_closed
        );
        failed = true;
    }
    // Every layer of the pipeline must show up in the export: ingest,
    // repair stages, publication, admission, cache, fleet router, and the
    // load generator.
    for family in [
        "htsp_ingest_",
        "htsp_stage_seconds",
        "htsp_publish_",
        "htsp_admission_",
        "htsp_cache_",
        "htsp_fleet_",
        "htsp_loadgen_",
    ] {
        if !snap.prometheus.contains(family) {
            eprintln!("MISSING metric family {family}* in the Prometheus exposition");
            failed = true;
        }
    }
    // The traced updates went through the staged repair, so the per-stage
    // histograms must hold samples.
    let stage_samples: u64 = hub
        .histogram_values()
        .iter()
        .filter(|(name, _)| name.starts_with("htsp_stage_seconds"))
        .map(|(_, h)| h.count())
        .sum();
    if stage_samples == 0 {
        eprintln!("EMPTY htsp_stage_seconds histograms after the traced updates");
        failed = true;
    } else {
        println!("htsp_stage_seconds: {stage_samples} stage samples");
    }
    // A taste of the exposition: the first few metric families.
    for line in snap.prometheus.lines().take(12) {
        println!("  {line}");
    }
    if failed {
        std::process::exit(1);
    }
}
