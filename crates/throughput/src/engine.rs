//! The concurrent query engine: **measured** throughput, not modeled.
//!
//! [`QueryEngine`] is a measurement driver over the
//! [`RoadNetworkServer`] facade: it runs
//! `num_workers` query worker threads that continuously answer
//! shortest-distance queries against the snapshot currently published by the
//! server, while the calling thread plays the traffic source — it submits
//! update batches through the server's [`UpdateFeed`](crate::UpdateFeed) and
//! forces a batch boundary per round, so the server's maintenance thread
//! repairs the index and publishes a fresh snapshot at the end of each
//! completed update stage (the staged availability of Figure 1). Because the
//! engine drives the same public ingest/serve API an application would
//! deploy, its numbers measure the real stack, not a test harness shortcut.
//!
//! Workers are never blocked by maintenance and never observe a
//! half-repaired index: they always query the latest *published* snapshot,
//! which is frozen by copy-on-write. The engine records every query
//! completion in per-worker time-bucket histograms and tags it with the
//! stage of the view that answered, yielding the measured QPS-over-time
//! curve that the paper's Figure 13 models analytically.
//!
//! [`QueryEngineConfig::workload`] selects the serving pattern
//! ([`WorkloadKind`]): the legacy per-call path (snapshot lookup + scratch
//! checkout per query), the session-based batched paths (one
//! [`QuerySession`] per published snapshot,
//! point-to-point bundles, one-to-many fans, or distance matrices), or the
//! skewed [`WorkloadKind::HotPairs`] mode, where each worker draws from a
//! deterministic Zipf [`HotPairStream`] over a universe of hot
//! origin–destination pairs. Running the same index under `SingleCall` and
//! under `Batched` yields the single-call vs batched QPS comparison of
//! `BENCH_pr2.json`; running `HotPairs` against a server with and without a
//! result cache yields the cached vs uncached comparison of
//! `BENCH_pr5.json`.
//!
//! When the server owns a [`DistanceCache`]
//! ([`ServerBuilder::result_cache`](crate::ServerBuilder::result_cache)),
//! every session-based worker wraps its session in a
//! [`CachedSession`] pinned to the worker's snapshot
//! version, and the report carries the run's cache-stats delta
//! ([`EngineReport::cache`]). The single-call baseline path never consults
//! the cache — it is the uncached reference by construction.
//!
//! With [`QueryEngineConfig::verify`] enabled, every answer is re-derived
//! with a fresh Dijkstra run on the answering view's own graph snapshot —
//! the no-torn-reads / no-staleness check used by the concurrency
//! integration test (this is orders of magnitude slower than serving, so it
//! is off by default).

use crate::cache::{CacheStats, CachedSession, DistanceCache};
use crate::fleet::ShardedFleet;
use crate::server::RoadNetworkServer;
use crate::slo::LatencyHistogram;
use htsp_graph::cow::CowStats;
use htsp_graph::{
    Query, QuerySession, QuerySet, QueryView, UpdateGenerator, UpdateTimeline, VertexId,
};
use htsp_search::dijkstra_distance;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The shape of the workload the engine's query workers drive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkloadKind {
    /// One [`QueryView::distance`] call per query, against a freshly looked
    /// up snapshot each time — the pre-session serving pattern, kept as the
    /// baseline of the single-call vs batched comparison.
    SingleCall,
    /// Point-to-point bundles: each worker opens a session on the current
    /// snapshot and answers `batch_size` queries through it before checking
    /// for a newer snapshot.
    Batched {
        /// Queries answered per session drain (and per version check).
        batch_size: usize,
    },
    /// One-to-many fans: each batch is one source against `fanout` targets,
    /// answered by the session's shared-search one-to-many.
    OneToMany {
        /// Targets per fan.
        fanout: usize,
    },
    /// Distance matrices: each batch is a `side × side` matrix; throughput
    /// is reported in pairs per second.
    Matrix {
        /// Sources (= targets) per matrix.
        side: usize,
    },
    /// Skewed hot-pair traffic: each worker draws queries from the first
    /// `universe` entries of the query pool under a Zipf(`zipf_s`)
    /// distribution (rank 1 is the hottest pair), through a deterministic
    /// per-worker [`HotPairStream`]. The workload real result caches feed
    /// on — run it against a server with and without
    /// [`ServerBuilder::result_cache`](crate::ServerBuilder::result_cache)
    /// for the cached vs uncached QPS comparison
    /// (`tests/hot_pair_workloads.rs` pins its direction).
    HotPairs {
        /// Zipf exponent `s` (0 = uniform over the universe; typical
        /// navigation traffic is ~0.8–1.2; larger = more skew).
        zipf_s: f64,
        /// Number of distinct hot pairs (capped at the query-pool size).
        universe: usize,
    },
}

impl WorkloadKind {
    /// `(s, t)` pairs answered per batch of this workload.
    pub fn pairs_per_batch(&self) -> usize {
        match *self {
            WorkloadKind::SingleCall | WorkloadKind::HotPairs { .. } => 1,
            WorkloadKind::Batched { batch_size } => batch_size.max(1),
            WorkloadKind::OneToMany { fanout } => fanout.max(1),
            WorkloadKind::Matrix { side } => side.max(1) * side.max(1),
        }
    }

    /// Short label for tables (`single-call`, `batched(64)`, ...).
    pub fn label(&self) -> String {
        match *self {
            WorkloadKind::SingleCall => "single-call".to_string(),
            WorkloadKind::Batched { batch_size } => format!("batched({batch_size})"),
            WorkloadKind::OneToMany { fanout } => format!("one-to-many({fanout})"),
            WorkloadKind::Matrix { side } => format!("matrix({side}x{side})"),
            WorkloadKind::HotPairs { zipf_s, universe } => {
                format!("hot-pairs(s={zipf_s},u={universe})")
            }
        }
    }
}

/// A deterministic sampler of the Zipf distribution over ranks
/// `0..n`: `P(k) ∝ 1/(k+1)^s`.
///
/// Built once (O(n) cumulative table), sampled by binary search on a
/// uniform draw — no rejection, so one sample consumes exactly one RNG
/// output and two streams with the same seed stay in lock-step (what makes
/// [`WorkloadKind::HotPairs`] runs reproducible).
#[derive(Debug)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over ranks `0..n` with exponent `s` (`s = 0` is uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf universe must be non-empty");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `false` always (a sampler is never empty); present for clippy parity.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank in `0..len()`.
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The deterministic hot-pair query stream behind
/// [`WorkloadKind::HotPairs`]: a seeded ChaCha8 generator driving a
/// [`ZipfSampler`].
///
/// Streams are pure functions of `(universe, zipf_s, seed, worker)`: two
/// streams constructed with the same parameters yield identical index
/// sequences, which is what pins the engine's skewed workload (and its
/// hit-rate telemetry) across runs.
#[derive(Debug)]
pub struct HotPairStream {
    rng: ChaCha8Rng,
    zipf: ZipfSampler,
}

impl HotPairStream {
    /// A stream over ranks `0..universe` for `worker` (each worker of a run
    /// gets a decorrelated but deterministic substream of the same seed).
    pub fn new(universe: usize, zipf_s: f64, seed: u64, worker: usize) -> Self {
        HotPairStream {
            rng: ChaCha8Rng::seed_from_u64(
                seed ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            zipf: ZipfSampler::new(universe.max(1), zipf_s),
        }
    }

    /// The next rank (pool index) of the stream.
    pub fn next_index(&mut self) -> usize {
        self.zipf.sample(&mut self.rng)
    }

    /// The next query, drawn from the first `universe` entries of `pool`.
    pub fn next_query(&mut self, pool: &[Query]) -> Query {
        pool[self.next_index() % pool.len()]
    }
}

/// Configuration of a [`QueryEngine`] run.
#[derive(Clone, Debug)]
pub struct QueryEngineConfig {
    /// Number of query worker threads.
    pub num_workers: usize,
    /// Number of update batches the maintenance thread replays.
    pub num_batches: usize,
    /// Edge updates per batch (`|U|`).
    pub update_volume: usize,
    /// Serving-only time between batches (a scaled-down update interval; the
    /// workers keep hammering the final-stage snapshot during it).
    pub pause_between_batches: Duration,
    /// Size of the random query pool workers draw from.
    pub query_pool: usize,
    /// Width of one bucket of the QPS-over-time histogram.
    pub bucket: Duration,
    /// Verify every answer against a fresh Dijkstra run on the answering
    /// view's graph snapshot (slow; for correctness tests).
    pub verify: bool,
    /// Workload seed.
    pub seed: u64,
    /// The serving pattern the workers drive.
    pub workload: WorkloadKind,
}

impl Default for QueryEngineConfig {
    fn default() -> Self {
        QueryEngineConfig {
            num_workers: 4,
            num_batches: 3,
            update_volume: 100,
            pause_between_batches: Duration::from_millis(50),
            query_pool: 512,
            bucket: Duration::from_millis(10),
            verify: false,
            seed: 7,
            workload: WorkloadKind::SingleCall,
        }
    }
}

/// Builder for [`QueryEngine`].
#[derive(Clone, Debug, Default)]
pub struct QueryEngineBuilder {
    config: QueryEngineConfig,
}

impl QueryEngineBuilder {
    /// Sets the number of query worker threads.
    pub fn workers(mut self, n: usize) -> Self {
        self.config.num_workers = n.max(1);
        self
    }

    /// Sets the number of update batches to replay.
    pub fn batches(mut self, n: usize) -> Self {
        self.config.num_batches = n;
        self
    }

    /// Sets the number of edge updates per batch.
    pub fn update_volume(mut self, v: usize) -> Self {
        self.config.update_volume = v;
        self
    }

    /// Sets the serving-only pause between batches.
    pub fn pause_between_batches(mut self, d: Duration) -> Self {
        self.config.pause_between_batches = d;
        self
    }

    /// Sets the size of the random query pool.
    pub fn query_pool(mut self, n: usize) -> Self {
        self.config.query_pool = n.max(1);
        self
    }

    /// Sets the QPS histogram bucket width.
    pub fn bucket(mut self, d: Duration) -> Self {
        self.config.bucket = d;
        self
    }

    /// Enables per-answer Dijkstra verification (slow).
    pub fn verify(mut self, on: bool) -> Self {
        self.config.verify = on;
        self
    }

    /// Sets the serving pattern (single-call, batched, one-to-many, matrix).
    pub fn workload(mut self, w: WorkloadKind) -> Self {
        self.config.workload = w;
        self
    }

    /// Sets the workload seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.config.seed = s;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> QueryEngine {
        QueryEngine {
            config: self.config,
        }
    }
}

/// One bucket of the measured QPS-over-time curve.
#[derive(Clone, Copy, Debug)]
pub struct QpsSample {
    /// Seconds since the engine started (bucket start).
    pub elapsed: f64,
    /// Measured queries per second inside this bucket.
    pub qps: f64,
}

/// The result of one [`QueryEngine`] run.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Algorithm name.
    pub algorithm: String,
    /// The serving pattern that produced these numbers.
    pub workload: WorkloadKind,
    /// Number of query worker threads that ran.
    pub num_workers: usize,
    /// Total `(s, t)` pairs answered across all workers (for matrix and
    /// one-to-many workloads every pair counts, so `measured_qps` is
    /// pairs per second).
    pub total_queries: u64,
    /// Wall-clock duration of the run in seconds.
    pub wall_time: f64,
    /// Overall measured throughput (`total_queries / wall_time`).
    pub measured_qps: f64,
    /// Queries answered per query stage (index = stage).
    pub per_stage_queries: Vec<u64>,
    /// Measured QPS per time bucket (the Fig. 13 staircase, observed).
    pub qps_curve: Vec<QpsSample>,
    /// Snapshot publications: `(elapsed seconds, stage)` in publication order.
    pub publications: Vec<(f64, usize)>,
    /// Copy-on-write clone effort per query stage (index = stage), summed
    /// over every publication of that stage: the snapshot-isolation price
    /// each repair stage actually paid, as reported by the maintainer
    /// through [`htsp_graph::SnapshotPublisher::publish_with_cow`].
    pub per_stage_cow: Vec<CowStats>,
    /// Update timeline of every replayed batch.
    pub timelines: Vec<UpdateTimeline>,
    /// Submit-to-visible latency per batch: from the first update's
    /// submission to the publication of the first snapshot containing it,
    /// as observed by the batch's `wait_visible()` ticket.
    pub visibility_lags: LatencyHistogram,
    /// Number of answers that failed Dijkstra verification (always 0 unless
    /// `verify` was enabled and the index is broken).
    pub verify_failures: u64,
    /// Description of the first verification failure, if any.
    pub first_failure: Option<String>,
    /// Result-cache telemetry delta over this run (`None` when the server
    /// runs without a [`DistanceCache`]); `cache.hit_rate()` is the
    /// headline number of the skewed-workload benchmarks.
    pub cache: Option<CacheStats>,
}

struct WorkerTally {
    answered: u64,
    per_stage: Vec<u64>,
    /// Query completions per time bucket.
    histogram: Vec<u64>,
    failures: u64,
    first_failure: Option<String>,
}

impl WorkerTally {
    /// Records `pairs` completions answered by `stage` at the current time.
    fn record(&mut self, stage: usize, pairs: u64, start: Instant, bucket_nanos: u64) {
        let slot = stage.min(self.per_stage.len() - 1);
        self.per_stage[slot] += pairs;
        let bucket = (start.elapsed().as_nanos() as u64 / bucket_nanos) as usize;
        if self.histogram.len() <= bucket {
            self.histogram.resize(bucket + 1, 0);
        }
        self.histogram[bucket] += pairs;
        self.answered += pairs;
    }

    /// Verifies `got` against a fresh Dijkstra run on `view`'s own graph.
    fn verify_answer(
        &mut self,
        view: &dyn QueryView,
        s: VertexId,
        t: VertexId,
        got: htsp_graph::Dist,
    ) {
        let expect = dijkstra_distance(view.graph(), s, t);
        if got != expect {
            self.failures += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(format!(
                    "{} stage {}: d({}, {}) = {:?}, Dijkstra says {:?}",
                    view.algorithm(),
                    view.stage(),
                    s,
                    t,
                    got,
                    expect
                ));
            }
        }
    }
}

/// Measures real query throughput while an index is being maintained.
pub struct QueryEngine {
    config: QueryEngineConfig,
}

impl QueryEngine {
    /// Starts building an engine.
    pub fn builder() -> QueryEngineBuilder {
        QueryEngineBuilder::default()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &QueryEngineConfig {
        &self.config
    }

    /// Runs the engine against a live [`RoadNetworkServer`]: `num_workers`
    /// query threads race the server's maintenance thread over
    /// `num_batches` update batches, which the calling thread submits
    /// through the server's update feed, closing each round with an
    /// explicit flush boundary. Host the server with
    /// [`CoalescePolicy::manual`](crate::CoalescePolicy::manual) (what
    /// [`RoadNetworkServer::host`] does) so each round is exactly one feed
    /// batch; under an auto-flushing policy a round may split into several
    /// batches, which the report then merges into one round timeline.
    ///
    /// The same server can be measured repeatedly (different workloads,
    /// repetitions); each run drains the publisher log it produced.
    pub fn run(&self, server: &RoadNetworkServer) -> EngineReport {
        let cfg = &self.config;
        let num_stages = server.num_query_stages();
        let queries = server.with_graph(|g| QuerySet::random(g, cfg.query_pool, cfg.seed ^ 0x51ab));
        let publisher = &**server.publisher();
        // Session-based workloads consult the server's result cache when it
        // has one (the single-call baseline path stays cache-free by
        // design); the report carries the stats delta of this run.
        let cache: Option<&DistanceCache> = server.cache().map(|c| &**c);
        let cache_before = cache.map(|c| c.stats());
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        let bucket_nanos = cfg.bucket.as_nanos().max(1) as u64;

        let mut gen = UpdateGenerator::new(cfg.seed);
        let mut timelines = Vec::with_capacity(cfg.num_batches);
        let mut visibility_lags = LatencyHistogram::new();

        // If the maintenance loop (or anything else in the scope body)
        // panics, the workers must still be told to stop — otherwise
        // `thread::scope` joins threads that spin forever and the process
        // hangs instead of propagating the panic.
        struct StopGuard<'a>(&'a AtomicBool);
        impl Drop for StopGuard<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }

        let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
            let _stop_on_unwind = StopGuard(&stop);
            let mut handles = Vec::with_capacity(cfg.num_workers);
            for w in 0..cfg.num_workers {
                let stop = &stop;
                let queries = &queries;
                let verify = cfg.verify;
                let workload = cfg.workload;
                let seed = cfg.seed;
                handles.push(scope.spawn(move || {
                    let mut tally = WorkerTally {
                        answered: 0,
                        per_stage: vec![0; num_stages],
                        histogram: Vec::new(),
                        failures: 0,
                        first_failure: None,
                    };
                    let mut i = w; // stride through the pool, worker-offset
                    match workload {
                        // The per-call baseline: fresh snapshot lookup and
                        // per-query scratch checkout every time.
                        WorkloadKind::SingleCall => {
                            while !stop.load(Ordering::Relaxed) {
                                let view = publisher.snapshot();
                                let q = &queries.as_slice()[i % queries.len()];
                                i += 1;
                                let d = view.distance(q.source, q.target);
                                if verify {
                                    // The answer must be exact on the graph
                                    // snapshot that was current when the
                                    // query was answered.
                                    tally.verify_answer(&*view, q.source, q.target, d);
                                }
                                tally.record(view.stage(), 1, start, bucket_nanos);
                            }
                        }
                        // Session paths: pin one session per published
                        // snapshot, drain batches through it, re-pin when
                        // the publisher version advances.
                        _ => {
                            // The hot-pair stream outlives re-pins: one
                            // deterministic stream per worker per run.
                            let mut hot = match workload {
                                WorkloadKind::HotPairs { zipf_s, universe } => {
                                    Some(HotPairStream::new(
                                        universe.clamp(1, queries.len()),
                                        zipf_s,
                                        seed,
                                        w,
                                    ))
                                }
                                _ => None,
                            };
                            while !stop.load(Ordering::Relaxed) {
                                // Atomic (version, view) read: a publish
                                // between separate snapshot()/version()
                                // calls would pin the old view under the
                                // new version and skip the re-pin.
                                let (pinned, view) = publisher.versioned_snapshot();
                                let stage = view.stage();
                                // With a result cache, wrap the session so
                                // repeated pairs skip the search; the
                                // wrapper carries the pinned version, so a
                                // cached answer never crosses a publication.
                                let mut session: Box<dyn QuerySession + '_> = match cache {
                                    Some(cache) => {
                                        Box::new(CachedSession::new(view.session(), cache, pinned))
                                    }
                                    None => view.session(),
                                };
                                while !stop.load(Ordering::Relaxed) && publisher.version() == pinned
                                {
                                    let pool = queries.as_slice();
                                    let next = |i: &mut usize| -> &Query {
                                        let q = &pool[*i % pool.len()];
                                        *i += 1;
                                        q
                                    };
                                    match workload {
                                        // SingleCall never reaches the
                                        // session path (outer match);
                                        // treat it as a 1-query bundle so
                                        // no arm is unreachable.
                                        WorkloadKind::SingleCall | WorkloadKind::Batched { .. } => {
                                            for _ in 0..workload.pairs_per_batch() {
                                                let q = *next(&mut i);
                                                let d = session.distance(q.source, q.target);
                                                if verify {
                                                    tally.verify_answer(
                                                        &*view, q.source, q.target, d,
                                                    );
                                                }
                                            }
                                        }
                                        WorkloadKind::OneToMany { fanout } => {
                                            let source = next(&mut i).source;
                                            let targets: Vec<VertexId> = (0..fanout.max(1))
                                                .map(|_| next(&mut i).target)
                                                .collect();
                                            let ds = session.one_to_many(source, &targets);
                                            if verify {
                                                for (&t, &d) in targets.iter().zip(&ds) {
                                                    tally.verify_answer(&*view, source, t, d);
                                                }
                                            }
                                        }
                                        WorkloadKind::Matrix { side } => {
                                            let sources: Vec<VertexId> = (0..side.max(1))
                                                .map(|_| next(&mut i).source)
                                                .collect();
                                            let targets: Vec<VertexId> = (0..side.max(1))
                                                .map(|_| next(&mut i).target)
                                                .collect();
                                            let m = session.matrix(&sources, &targets);
                                            if verify {
                                                for (&s, row) in sources.iter().zip(&m) {
                                                    for (&t, &d) in targets.iter().zip(row) {
                                                        tally.verify_answer(&*view, s, t, d);
                                                    }
                                                }
                                            }
                                        }
                                        WorkloadKind::HotPairs { .. } => {
                                            let q = hot
                                                .as_mut()
                                                .expect("hot-pair stream")
                                                .next_query(pool);
                                            let d = session.distance(q.source, q.target);
                                            if verify {
                                                tally.verify_answer(&*view, q.source, q.target, d);
                                            }
                                        }
                                    }
                                    tally.record(
                                        stage,
                                        workload.pairs_per_batch() as u64,
                                        start,
                                        bucket_nanos,
                                    );
                                }
                            }
                        }
                    }
                    tally
                }));
            }

            // Traffic loop on this thread: submit each round's updates
            // through the server's feed and force a batch boundary; the
            // server's maintenance thread coalesces, repairs, and publishes
            // staged snapshots while the workers keep serving. Then let the
            // workers drain against the final stage for the configured
            // pause.
            for _ in 0..cfg.num_batches {
                let batch = server.with_graph(|g| gen.generate(g, cfg.update_volume));
                let tickets = server.feed().submit_all(batch.as_slice().iter().copied());
                let barrier = server.feed().flush();
                let vis = tickets.first().unwrap_or(&barrier).wait_visible();
                visibility_lags.record(vis.latency);
                // Under a manual policy (how every bench/test hosts the
                // server) the whole round is one feed batch and this merge
                // is a no-op; under an auto-flushing policy the round may
                // have split into several batches, so the round timeline
                // concatenates every distinct outcome's stages to keep the
                // reported t_u covering the full round.
                let mut seen_batches = std::collections::HashSet::new();
                let mut round_timeline = UpdateTimeline::default();
                for ticket in tickets.iter().chain(std::iter::once(&barrier)) {
                    let outcome = ticket.wait_applied();
                    if seen_batches.insert(outcome.batch_seq) {
                        for stage in &outcome.timeline.stages {
                            round_timeline.push(stage.name.clone(), stage.duration);
                        }
                    }
                }
                timelines.push(round_timeline);
                if !cfg.pause_between_batches.is_zero() {
                    std::thread::sleep(cfg.pause_between_batches);
                }
            }
            stop.store(true, Ordering::Relaxed);
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        let wall_time = start.elapsed().as_secs_f64();
        let total_queries: u64 = tallies.iter().map(|t| t.answered).sum();
        let mut per_stage_queries = vec![0u64; num_stages];
        let mut histogram: Vec<u64> = Vec::new();
        let mut verify_failures = 0;
        let mut first_failure = None;
        for t in &tallies {
            for (s, c) in t.per_stage.iter().enumerate() {
                per_stage_queries[s] += c;
            }
            if histogram.len() < t.histogram.len() {
                histogram.resize(t.histogram.len(), 0);
            }
            for (b, c) in t.histogram.iter().enumerate() {
                histogram[b] += c;
            }
            verify_failures += t.failures;
            if first_failure.is_none() {
                first_failure = t.first_failure.clone();
            }
        }
        let bucket_secs = cfg.bucket.as_secs_f64();
        let qps_curve = histogram
            .iter()
            .enumerate()
            .map(|(b, &c)| {
                let bucket_start = b as f64 * bucket_secs;
                // The run usually stops mid-bucket: divide the last bucket by
                // the time actually spent inside it, not the full width.
                let span = (wall_time - bucket_start).clamp(f64::MIN_POSITIVE, bucket_secs);
                QpsSample {
                    elapsed: bucket_start,
                    qps: c as f64 / span,
                }
            })
            .collect();
        let mut per_stage_cow = vec![CowStats::default(); num_stages];
        let publications = publisher
            .take_log()
            .into_iter()
            .map(|e| {
                let slot = e.stage.min(num_stages.saturating_sub(1));
                per_stage_cow[slot] = per_stage_cow[slot].plus(e.cow);
                let elapsed = e.at.saturating_duration_since(start).as_secs_f64();
                (elapsed, e.stage)
            })
            .collect();

        EngineReport {
            algorithm: server.algorithm().to_string(),
            workload: cfg.workload,
            num_workers: cfg.num_workers,
            total_queries,
            wall_time,
            measured_qps: if wall_time > 0.0 {
                total_queries as f64 / wall_time
            } else {
                0.0
            },
            per_stage_queries,
            qps_curve,
            publications,
            per_stage_cow,
            timelines,
            visibility_lags,
            verify_failures,
            first_failure,
            cache: cache.map(|c| c.stats().since(cache_before.unwrap_or_default())),
        }
    }

    /// Runs the engine against a live [`ShardedFleet`]: query workers pin
    /// [`FleetSession`](crate::router::FleetSession)s (re-pinning whenever
    /// the fleet publishes a fresher epoch) while the calling thread
    /// submits update batches through the fleet router, closing each round
    /// with a router flush.
    ///
    /// The report reuses the single-server [`EngineReport`] shape with the
    /// fleet-specific simplifications: fleet sessions always serve the
    /// final (fully repaired) stage, so there is exactly one query stage;
    /// per-publication logs and timelines live in the
    /// [`FleetReport`](crate::fleet::FleetReport) instead and are left
    /// empty here. `visibility_lags` records each round's first-update
    /// submit-to-visible latency as observed by its composite
    /// [`FleetTicket`](crate::router::FleetTicket). With `verify` enabled,
    /// every answer is checked against a Dijkstra run on the session's own
    /// epoch graph — the fleet-consistency (no torn epochs) check.
    pub fn run_sharded(&self, fleet: &ShardedFleet) -> EngineReport {
        let cfg = &self.config;
        let router = fleet.router();
        let pool_graph = router.session().graph().clone();
        let queries = QuerySet::random(&pool_graph, cfg.query_pool, cfg.seed ^ 0x51ab);
        let cache_before = fleet.report().cache_total();
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        let bucket_nanos = cfg.bucket.as_nanos().max(1) as u64;

        let mut gen = UpdateGenerator::new(cfg.seed);
        let mut visibility_lags = LatencyHistogram::new();

        struct StopGuard<'a>(&'a AtomicBool);
        impl Drop for StopGuard<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }

        let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
            let _stop_on_unwind = StopGuard(&stop);
            let mut handles = Vec::with_capacity(cfg.num_workers);
            for w in 0..cfg.num_workers {
                let stop = &stop;
                let queries = &queries;
                let verify = cfg.verify;
                let workload = cfg.workload;
                let seed = cfg.seed;
                handles.push(scope.spawn(move || {
                    let mut tally = WorkerTally {
                        answered: 0,
                        per_stage: vec![0; 1],
                        histogram: Vec::new(),
                        failures: 0,
                        first_failure: None,
                    };
                    let mut i = w;
                    let mut hot = match workload {
                        WorkloadKind::HotPairs { zipf_s, universe } => Some(HotPairStream::new(
                            universe.clamp(1, queries.len()),
                            zipf_s,
                            seed,
                            w,
                        )),
                        _ => None,
                    };
                    while !stop.load(Ordering::Relaxed) {
                        // Pin one session per published fleet epoch; every
                        // answer inside is exact on the epoch's own graph.
                        let mut session = router.session();
                        let pinned = session.fleet_version();
                        while !stop.load(Ordering::Relaxed) && router.fleet_version() == pinned {
                            let pool = queries.as_slice();
                            let next = |i: &mut usize| -> Query {
                                let q = pool[*i % pool.len()];
                                *i += 1;
                                q
                            };
                            match workload {
                                WorkloadKind::SingleCall | WorkloadKind::Batched { .. } => {
                                    for _ in 0..workload.pairs_per_batch() {
                                        let q = next(&mut i);
                                        let d = session.distance(q.source, q.target);
                                        if verify {
                                            verify_fleet_answer(
                                                &mut tally, &session, q.source, q.target, d,
                                            );
                                        }
                                    }
                                }
                                WorkloadKind::OneToMany { fanout } => {
                                    let source = next(&mut i).source;
                                    let targets: Vec<VertexId> =
                                        (0..fanout.max(1)).map(|_| next(&mut i).target).collect();
                                    let ds = session.one_to_many(source, &targets);
                                    if verify {
                                        for (&t, &d) in targets.iter().zip(&ds) {
                                            verify_fleet_answer(&mut tally, &session, source, t, d);
                                        }
                                    }
                                }
                                WorkloadKind::Matrix { side } => {
                                    let sources: Vec<VertexId> =
                                        (0..side.max(1)).map(|_| next(&mut i).source).collect();
                                    let targets: Vec<VertexId> =
                                        (0..side.max(1)).map(|_| next(&mut i).target).collect();
                                    let m = session.matrix(&sources, &targets);
                                    if verify {
                                        for (&s, row) in sources.iter().zip(&m) {
                                            for (&t, &d) in targets.iter().zip(row) {
                                                verify_fleet_answer(&mut tally, &session, s, t, d);
                                            }
                                        }
                                    }
                                }
                                WorkloadKind::HotPairs { .. } => {
                                    let q = hot.as_mut().expect("hot-pair stream").next_query(pool);
                                    let d = session.distance(q.source, q.target);
                                    if verify {
                                        verify_fleet_answer(
                                            &mut tally, &session, q.source, q.target, d,
                                        );
                                    }
                                }
                            }
                            tally.record(0, workload.pairs_per_batch() as u64, start, bucket_nanos);
                        }
                    }
                    tally
                }));
            }

            // Traffic loop: each round's updates are generated against the
            // currently published epoch graph (the router serializes all
            // batches, so weights are current after the previous round's
            // wait) and submitted through the fleet router.
            for _ in 0..cfg.num_batches {
                let batch = {
                    let session = router.session();
                    gen.generate(session.graph(), cfg.update_volume)
                };
                let tickets = router.submit_all(batch.as_slice().iter().copied());
                let barrier = router.flush();
                let vis = tickets.first().unwrap_or(&barrier).wait_visible();
                visibility_lags.record(vis.latency);
                barrier.wait_applied();
                if !cfg.pause_between_batches.is_zero() {
                    std::thread::sleep(cfg.pause_between_batches);
                }
            }
            stop.store(true, Ordering::Relaxed);
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        let wall_time = start.elapsed().as_secs_f64();
        let total_queries: u64 = tallies.iter().map(|t| t.answered).sum();
        let mut per_stage_queries = vec![0u64; 1];
        let mut histogram: Vec<u64> = Vec::new();
        let mut verify_failures = 0;
        let mut first_failure = None;
        for t in &tallies {
            per_stage_queries[0] += t.answered;
            if histogram.len() < t.histogram.len() {
                histogram.resize(t.histogram.len(), 0);
            }
            for (b, c) in t.histogram.iter().enumerate() {
                histogram[b] += c;
            }
            verify_failures += t.failures;
            if first_failure.is_none() {
                first_failure = t.first_failure.clone();
            }
        }
        let bucket_secs = cfg.bucket.as_secs_f64();
        let qps_curve = histogram
            .iter()
            .enumerate()
            .map(|(b, &c)| {
                let bucket_start = b as f64 * bucket_secs;
                let span = (wall_time - bucket_start).clamp(f64::MIN_POSITIVE, bucket_secs);
                QpsSample {
                    elapsed: bucket_start,
                    qps: c as f64 / span,
                }
            })
            .collect();

        EngineReport {
            algorithm: fleet.algorithm(),
            workload: cfg.workload,
            num_workers: cfg.num_workers,
            total_queries,
            wall_time,
            measured_qps: if wall_time > 0.0 {
                total_queries as f64 / wall_time
            } else {
                0.0
            },
            per_stage_queries,
            qps_curve,
            publications: Vec::new(),
            per_stage_cow: vec![CowStats::default()],
            timelines: Vec::new(),
            visibility_lags,
            verify_failures,
            first_failure,
            cache: fleet
                .report()
                .cache_total()
                .map(|after| after.since(cache_before.unwrap_or_default())),
        }
    }
}

/// Verifies a fleet answer against a Dijkstra run on the session's own
/// epoch graph (the exactness contract of the sharded query path).
fn verify_fleet_answer(
    tally: &mut WorkerTally,
    session: &crate::router::FleetSession,
    s: VertexId,
    t: VertexId,
    got: htsp_graph::Dist,
) {
    let expect = dijkstra_distance(session.graph(), s, t);
    if got != expect {
        tally.failures += 1;
        if tally.first_failure.is_none() {
            tally.first_failure = Some(format!(
                "fleet epoch {}: d({}, {}) = {:?}, Dijkstra says {:?}",
                session.fleet_version(),
                s,
                t,
                got,
                expect
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::CoalescePolicy;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::{
        Dist, Graph, IndexMaintainer, QueryView, SnapshotPublisher, UpdateBatch, VertexId,
    };
    use std::sync::Arc;

    /// A trivial single-stage maintainer for exercising the engine.
    struct Fake {
        graph: Arc<Graph>,
    }

    struct FakeView {
        graph: Arc<Graph>,
    }

    impl QueryView for FakeView {
        fn algorithm(&self) -> &'static str {
            "fake"
        }
        fn stage(&self) -> usize {
            0
        }
        fn distance(&self, s: VertexId, t: VertexId) -> Dist {
            if s == t {
                Dist::ZERO
            } else {
                Dist(1)
            }
        }
        fn session(&self) -> Box<dyn htsp_graph::QuerySession + '_> {
            Box::new(htsp_graph::FallbackSession::new(self))
        }
        fn graph(&self) -> &Graph {
            &self.graph
        }
    }

    impl IndexMaintainer for Fake {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn apply_batch(
            &mut self,
            _graph: &Graph,
            batch: &UpdateBatch,
            publisher: &SnapshotPublisher,
        ) -> UpdateTimeline {
            Arc::make_mut(&mut self.graph).apply_batch(batch);
            publisher.publish(self.current_view());
            UpdateTimeline::single("noop", Duration::from_micros(10))
        }
        fn current_view(&self) -> Arc<dyn QueryView> {
            Arc::new(FakeView {
                graph: Arc::clone(&self.graph),
            })
        }
    }

    fn host(g: &Graph) -> RoadNetworkServer {
        RoadNetworkServer::builder()
            .maintainer(Box::new(Fake {
                graph: Arc::new(g.clone()),
            }))
            .coalesce(CoalescePolicy::manual())
            .start(g)
    }

    #[test]
    fn batched_workloads_count_pairs_and_verify() {
        let g = grid(6, 6, WeightRange::new(1, 9), 2);
        for workload in [
            WorkloadKind::Batched { batch_size: 16 },
            WorkloadKind::OneToMany { fanout: 8 },
            WorkloadKind::Matrix { side: 4 },
        ] {
            let server = host(&g);
            let engine = QueryEngine::builder()
                .workers(2)
                .batches(2)
                .update_volume(5)
                .pause_between_batches(Duration::from_millis(10))
                .workload(workload)
                .build();
            let report = engine.run(&server);
            server.shutdown();
            assert_eq!(report.workload, workload);
            assert!(report.total_queries > 0, "{workload:?} answered nothing");
            assert_eq!(
                report.total_queries % workload.pairs_per_batch() as u64,
                0,
                "{workload:?} recorded partial batches"
            );
            assert_eq!(
                report.per_stage_queries.iter().sum::<u64>(),
                report.total_queries
            );
        }
    }

    #[test]
    fn workload_labels_and_pair_counts() {
        assert_eq!(WorkloadKind::SingleCall.pairs_per_batch(), 1);
        assert_eq!(WorkloadKind::Batched { batch_size: 7 }.pairs_per_batch(), 7);
        assert_eq!(WorkloadKind::Matrix { side: 5 }.pairs_per_batch(), 25);
        assert_eq!(
            WorkloadKind::HotPairs {
                zipf_s: 1.1,
                universe: 64
            }
            .pairs_per_batch(),
            1
        );
        assert_eq!(WorkloadKind::SingleCall.label(), "single-call");
        assert_eq!(
            WorkloadKind::OneToMany { fanout: 3 }.label(),
            "one-to-many(3)"
        );
        assert_eq!(
            WorkloadKind::HotPairs {
                zipf_s: 1.1,
                universe: 64
            }
            .label(),
            "hot-pairs(s=1.1,u=64)"
        );
    }

    #[test]
    fn zipf_sampler_is_deterministic_skewed_and_in_bounds() {
        let zipf = ZipfSampler::new(100, 1.2);
        assert_eq!(zipf.len(), 100);
        assert!(!zipf.is_empty());
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        let xs: Vec<usize> = (0..5000).map(|_| zipf.sample(&mut a)).collect();
        let ys: Vec<usize> = (0..5000).map(|_| zipf.sample(&mut b)).collect();
        assert_eq!(xs, ys, "same seed must give the same stream");
        assert!(xs.iter().all(|&x| x < 100));
        // Rank 0 dominates under skew: more mass than a uniform share.
        let zeros = xs.iter().filter(|&&x| x == 0).count();
        assert!(zeros > 5000 / 100, "rank 0 drew only {zeros} of 5000");
        // s = 0 degenerates to (roughly) uniform: rank 0 is no longer
        // an order of magnitude above its uniform share.
        let uniform = ZipfSampler::new(100, 0.0);
        let mut r = ChaCha8Rng::seed_from_u64(9);
        let uz = (0..5000).filter(|_| uniform.sample(&mut r) == 0).count();
        assert!(uz < zeros, "s=0 must be less skewed than s=1.2");
    }

    #[test]
    fn hot_pairs_workload_serves_and_reports_cache_hits() {
        use crate::config::CacheConfig;
        let g = grid(6, 6, WeightRange::new(1, 9), 4);
        let server = RoadNetworkServer::builder()
            .maintainer(Box::new(Fake {
                graph: Arc::new(g.clone()),
            }))
            .coalesce(CoalescePolicy::manual())
            .result_cache(CacheConfig::with_capacity(512))
            .start(&g);
        let engine = QueryEngine::builder()
            .workers(2)
            .batches(2)
            .update_volume(4)
            .pause_between_batches(Duration::from_millis(15))
            .workload(WorkloadKind::HotPairs {
                zipf_s: 1.2,
                universe: 64,
            })
            .build();
        let report = engine.run(&server);
        server.shutdown();
        assert!(report.total_queries > 0);
        let cache = report.cache.expect("cache-enabled server must report");
        assert_eq!(cache.lookups(), report.total_queries);
        assert!(
            cache.hits > 0,
            "skewed traffic against a cache must produce hits"
        );
        assert!(cache.hit_rate() > 0.0 && cache.hit_rate() <= 1.0);
    }

    #[test]
    fn engine_counts_queries_and_publications() {
        let g = grid(6, 6, WeightRange::new(1, 9), 1);
        let server = host(&g);
        let engine = QueryEngine::builder()
            .workers(4)
            .batches(2)
            .update_volume(5)
            .pause_between_batches(Duration::from_millis(20))
            .build();
        let report = engine.run(&server);
        server.shutdown();
        assert_eq!(report.algorithm, "fake");
        assert_eq!(report.num_workers, 4);
        assert!(report.total_queries > 0, "workers answered no queries");
        assert!(report.measured_qps > 0.0);
        assert_eq!(report.timelines.len(), 2);
        assert_eq!(report.publications.len(), 2);
        assert_eq!(report.visibility_lags.count(), 2);
        assert!(report.visibility_lags.quantile_secs(0.5) >= 0.0);
        assert_eq!(report.verify_failures, 0);
        // Full buckets account for their exact counts; the final bucket is
        // divided by its (shorter) actual span, so the reconstruction is a
        // lower bound on the total.
        let bucket_secs = engine.config().bucket.as_secs_f64();
        let histogram_total: f64 = report.qps_curve.iter().map(|s| s.qps * bucket_secs).sum();
        assert!(histogram_total.round() as u64 >= report.total_queries);
        assert!(report
            .qps_curve
            .iter()
            .all(|s| s.qps.is_finite() && s.qps >= 0.0));
    }
}
