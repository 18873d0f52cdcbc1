//! `perfbench`: the end-to-end and per-layer benchmark of the HTSP serving
//! system. Every workload deploys PostMHL and drives it open loop; see
//! `README.md` next to this package for the workloads, the metrics and
//! how to run them.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}`.
//! With `--trace 0` it carries the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a traced run. A wrong answer makes `correct` false
//! and the exit code 1.

mod deploy;
mod inputs;
mod load;
mod probes;
mod trace;
mod verify;

use deploy::{restart, start_from_dimacs, Deployment, Kind};
use htsp_graph::{Dist, EdgeId, Graph, VertexId, Weight};
use htsp_search::dijkstra_distance;
use htsp_throughput::{BatchAnswer, BatchResult};
use inputs::{query_batch, GridSpec, PairPool, Rng};
use load::{query_request, run_phase, update_request, Ledger, Load, Phase};
use probes::{median, quantile, Applied, MIB};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use verify::Sample;

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// One traffic shape against one deployment. Both workloads serve the
/// same graph, update stream and batch mix; they differ in the deployment
/// and the nominal query rate. See `README.md` for why.
struct Workload {
    name: &'static str,
    kind: Kind,
    /// Rungs of the knee probe ladder. The fleet's stops at 16k/s: a first
    /// probe far above its knee would leave a backlog that takes longer to
    /// drain than the probe ran.
    rungs: usize,
    /// Nominal query rate, batches/s: at most a quarter of the workload's
    /// knee measured under updates.
    query_rate: f64,
}

/// 64×64 grid, ~10% diagonals: 4,096 vertices, ~8.5k edges.
const GRID: GridSpec = GridSpec {
    width: 64,
    height: 64,
    diagonal_share: 0.10,
};

/// Rung `k` of the knee probe ladder, batches/s: 300 · 2^(k/8), each rung
/// ~9% above the last. With rungs ~19% apart the knee jumped between two
/// rungs from run to run.
fn ladder_rate(k: usize) -> f64 {
    (300.0 * (k as f64 / 8.0).exp2()).round()
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "update-mix",
        kind: Kind::Server,
        rungs: 80,
        query_rate: 300.0,
    },
    Workload {
        name: "fleet-mix",
        kind: Kind::Fleet,
        rungs: 47,
        query_rate: 200.0,
    },
];

/// Update rate during the nominal load, updates/s. Faster streams make the
/// median batch land inside a repair window in some runs and not others.
const UPDATE_RATE: f64 = 5.0;

/// Seed of the road network, the pair pool and the update stream: its
/// edges, weights and Poisson schedule. They are the same in every run, so
/// runs compare the same repairs; the `--seed` draws the query batches
/// from the pool and the queries' Poisson schedule.
const GRAPH_SEED: u64 = 0x5EED_0001;

/// Share of `--seconds` spent at the nominal rate; the knee search gets
/// the rest.
const NOMINAL_SHARE: f64 = 0.7;
const KNEE_SHARE: f64 = 1.0 - NOMINAL_SHARE;

/// The knee's latency limit on a rung's p99.
const LATENCY_LIMIT_MS: f64 = 50.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_wrong_answer: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 50.0,
        trace: false,
        inject_wrong_answer: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--inject-wrong-answer" => args.inject_wrong_answer = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {}, not '{}'",
            names.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--inject-wrong-answer]"
            );
            return ExitCode::from(2);
        }
    };
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("checked by parse_args");
    let work = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!(
            "{}-{}-{}",
            workload.name,
            args.seed,
            std::process::id()
        ));
    std::fs::create_dir_all(&work).expect("work directory must be creatable");
    let outcome = run(workload, &args, &work);
    let _ = std::fs::remove_dir_all(&work);

    println!("{}", outcome.record);
    for e in &outcome.errors {
        eprintln!("perfbench: WRONG: {e}");
    }
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// One JSON line describing the run: cores, seeds, sample counts,
    /// generator lateness.
    record: String,
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", items.join(", "))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Windows each knee probe's p99 is taken over.
const PROBE_WINDOWS: usize = 5;

/// Whether one knee probe meets the limit: nothing refused or failed, and
/// the median over the probe's windows of each window's p99 within the
/// limit. A growing backlog pushes every later window over the limit, so
/// it fails the probe; a burst on the shared machine moves one window.
/// Returns the verdict, the probe's p99 and its answered rate.
fn rung(phase: &Phase) -> (bool, f64, f64) {
    let p99 = windowed_quantile(phase, 0.99, PROBE_WINDOWS);
    let answered = phase.queries.len() - phase.failed_queries();
    let pass = phase.failed_queries() == 0 && answered > 0 && p99 <= LATENCY_LIMIT_MS;
    (pass, p99, answered as f64 / phase.seconds)
}

/// Segments of the nominal load. A side set-up/restart round follows each
/// segment and each knee probe, so the samples of `setup_s` and
/// `restart_s` are spread evenly over the run and a slow spell of the
/// shared machine moves a few of them, not the median.
const NOMINAL_SEGMENTS: usize = 7;

/// Timed set-ups and restarts of one run.
struct Startups<'a> {
    kind: Kind,
    dimacs: &'a Path,
    snapshot: PathBuf,
    probe: (VertexId, VertexId),
    setup_s: Vec<f64>,
    ingest_s: Vec<f64>,
    restart_s: Vec<f64>,
    save_s: Vec<f64>,
    saved_mb: f64,
}

impl<'a> Startups<'a> {
    fn new(kind: Kind, dimacs: &'a Path, snapshot: PathBuf, probe: (VertexId, VertexId)) -> Self {
        Startups {
            kind,
            dimacs,
            snapshot,
            probe,
            setup_s: Vec::new(),
            ingest_s: Vec::new(),
            restart_s: Vec::new(),
            save_s: Vec::new(),
            saved_mb: 0.0,
        }
    }

    /// One timed set-up: open the file, ingest, build, start, first answer.
    fn start(&mut self, tracer: &Tracer, samples: &mut Vec<Sample>) -> (Deployment, Graph) {
        let t0 = Instant::now();
        let started = start_from_dimacs(self.kind, self.dimacs, self.probe);
        let root = tracer.span("setup", None, 0, t0, Instant::now());
        let ingest_end = t0 + std::time::Duration::from_secs_f64(started.ingest_seconds);
        tracer.span("ingest.dimacs", Some(root), 0, t0, ingest_end);
        self.setup_s.push(started.seconds);
        self.ingest_s.push(started.ingest_seconds);
        samples.push(Sample {
            version: started.first.snapshot_version,
            pairs: vec![self.probe],
            got: started.first.distances.clone(),
            origin: format!("first answer of set-up {}", self.setup_s.len()),
        });
        (started.deployment, started.graph)
    }

    /// One timed restart of a deployment still on the initial graph `base`;
    /// its first answer is checked against Dijkstra inside the clock.
    fn restart(
        &mut self,
        dep: Deployment,
        base: &Graph,
        tracer: &Tracer,
        errors: &mut Vec<String>,
    ) -> Deployment {
        let (s, t) = self.probe;
        let verify = |a: &BatchAnswer| a.distances == [dijkstra_distance(base, s, t)];
        let t0 = Instant::now();
        let r = restart(dep, base, &self.snapshot, self.probe, &verify);
        tracer.span("restart", None, 0, t0, Instant::now());
        if !r.verified {
            errors.push(format!(
                "restart {}: first answer differs from Dijkstra",
                self.restart_s.len() + 1
            ));
        }
        self.restart_s.push(r.seconds);
        self.save_s.push(r.save_seconds);
        self.saved_mb = r.saved_bytes as f64 / MIB;
        r.deployment
    }

    /// A side deployment, set up, restarted and shut down.
    fn side_round(
        &mut self,
        base: &Graph,
        tracer: &Tracer,
        samples: &mut Vec<Sample>,
        errors: &mut Vec<String>,
    ) {
        let (dep, _) = self.start(tracer, samples);
        self.restart(dep, base, tracer, errors).shutdown();
    }
}

/// The median over `windows` consecutive windows of the phase of each
/// window's latency quantile `q`, so a stall of the shared machine moves
/// one window and not the run's figure.
fn windowed_quantile(phase: &Phase, q: f64, windows: usize) -> f64 {
    let windows = windows.max(1);
    let mut buckets = vec![Vec::new(); windows];
    for rec in &phase.queries {
        if let Some(ms) = rec.latency_ms() {
            let offset = rec.due.saturating_duration_since(phase.start).as_secs_f64();
            let w = ((offset / phase.seconds * windows as f64) as usize).min(windows - 1);
            buckets[w].push(ms);
        }
    }
    let per_window: Vec<f64> = buckets.iter().map(|b| quantile(b, q)).collect();
    median(&per_window)
}

fn hash_pick(seed: u64, stream: u64, index: u64, one_in: u64) -> bool {
    Rng::new(
        seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407),
        7000 + stream,
    )
    .below(one_in)
        == 0
}

/// Samples a phase's answers for the correctness gate: a seeded share of
/// all answers plus every answer served by a pre-final stage (mid-repair),
/// up to `mid_cap`.
fn sample_phase(
    phase: &Phase,
    pool: &PairPool,
    seed: u64,
    final_stage: usize,
    one_in: u64,
    mid_cap: usize,
    out: &mut Vec<Sample>,
) {
    let mut mid = 0;
    for q in &phase.queries {
        let Some(BatchResult::Answered(a)) = &q.result else {
            continue;
        };
        let mid_repair = a.stage < final_stage && mid < mid_cap;
        mid += usize::from(mid_repair);
        if mid_repair || hash_pick(seed, phase.stream, q.index, one_in) {
            let batch = query_batch(pool, seed, phase.stream, q.index);
            let origin = format!(
                "phase {} batch {} (stage {})",
                phase.stream, q.index, a.stage
            );
            out.push(Sample::new(
                a.snapshot_version,
                &batch,
                a.distances.clone(),
                origin,
            ));
        }
    }
}

fn run(workload: &Workload, args: &Args, work: &Path) -> Outcome {
    let seed = args.seed;
    let tracer = Tracer::new(args.trace);
    let mut errors = Vec::new();
    let mut samples = Vec::new();
    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \"cores\": {}, \"query_workers\": {}, \"graph\": {{\"width\": {}, \"height\": {}, \"diagonal_share\": {}}}, \"seeds\": {{\"graph\": {GRAPH_SEED}, \"pairs\": {GRAPH_SEED}, \"update_edges\": {GRAPH_SEED}, \"update_schedule\": {GRAPH_SEED}, \"query_batches\": {seed}, \"query_schedule\": {seed}}}",
        workload.name,
        args.seconds,
        args.trace,
        htsp_graph::available_parallelism(),
        deploy::workers(),
        GRID.width,
        GRID.height,
        GRID.diagonal_share,
    );

    // Inputs, written before any timing starts.
    let gr = work.join("graph.gr");
    GRID.write_dimacs(GRAPH_SEED, &gr)
        .expect("DIMACS file must be writable");
    let pool = PairPool::new(GRID.vertices(), GRAPH_SEED);
    let probe = pool.head(1)[0];

    // Set-up and restart of the deployment that serves the run. Side
    // deployments repeat the pair after every load segment and knee probe.
    let mut startups = Startups::new(workload.kind, &gr, work.join("snapshot.bin"), probe);
    let (dep, base) = startups.start(&tracer, &mut samples);
    let dep = startups.restart(dep, &base, &tracer, &mut errors);
    let weights: Vec<Weight> = (0..base.num_edges())
        .map(|e| base.edge_weight(EdgeId(e as u32)))
        .collect();
    let mut ledger = Ledger::new(weights, GRAPH_SEED);

    // Nominal load, in segments. The traced run traces every second
    // segment and reports the difference between the traced and the
    // untraced segments as the tracing overhead.
    let segment_seconds = args.seconds * NOMINAL_SHARE / NOMINAL_SEGMENTS as f64;
    let mut phases: Vec<Phase> = Vec::new();
    let mut nominal = Vec::new();
    let mut traced = Vec::new();
    for k in 0..NOMINAL_SEGMENTS {
        let load = Load {
            stream: 1 + k as u64,
            query_rate: workload.query_rate,
            update_rate: UPDATE_RATE,
            seconds: segment_seconds,
        };
        let trace_segment = args.trace && k % 2 == 1;
        let segment_tracer = trace_segment.then_some(&tracer);
        phases.push(run_phase(
            &dep,
            &pool,
            seed,
            &load,
            &mut ledger,
            segment_tracer,
        ));
        nominal.push(phases.len() - 1);
        if trace_segment {
            traced.push(phases.len() - 1);
        }
        startups.side_round(&base, &tracer, &mut samples, &mut errors);
    }
    let service_after_nominal = dep.service().stats();
    // Memory high-water mark of construction, restarts and serving under
    // updates, read before the knee probes fill the benchmark's own
    // request records.
    let peak_rss = peak_rss_mib();

    // The knee: a binary search over the fixed ladder. Each probe is one
    // rung at its absolute rate; the knee is where p99 crosses the limit,
    // interpolated between the highest passing and lowest failing rungs.
    let ladder: Vec<f64> = (0..workload.rungs).map(ladder_rate).collect();
    let probes = (usize::BITS - ladder.len().leading_zeros()) as f64;
    let probe_seconds = args.seconds * KNEE_SHARE / probes;
    let (mut below, mut above) = (0, ladder.len());
    let mut passed: Option<(f64, f64)> = None;
    let mut failed_at: Option<(f64, f64)> = None;
    let mut rungs = String::new();
    while below < above {
        let mid = (below + above) / 2;
        let rate = ladder[mid];
        let load = Load {
            stream: 10 + mid as u64,
            query_rate: rate,
            update_rate: 0.0,
            seconds: probe_seconds,
        };
        let phase = run_phase(&dep, &pool, seed, &load, &mut ledger, None);
        let (pass, p99, achieved) = rung(&phase);
        let _ = write!(
            rungs,
            "{}{{\"rate\": {rate}, \"answered_rps\": {achieved:.1}, \"p99_ms\": {p99:.3}, \"pass\": {pass}}}",
            if rungs.is_empty() { "" } else { ", " }
        );
        phases.push(phase);
        startups.side_round(&base, &tracer, &mut samples, &mut errors);
        if pass {
            passed = Some((achieved, p99));
            below = mid + 1;
        } else {
            failed_at = Some((achieved, p99));
            above = mid;
        }
    }
    let knee = match (passed, failed_at) {
        (None, _) => 0.0,
        (Some((rate, p99)), Some((fail_rate, fail_p99)))
            if fail_p99 > LATENCY_LIMIT_MS && fail_rate > rate && fail_p99 > p99 =>
        {
            rate + (fail_rate - rate) * (LATENCY_LIMIT_MS - p99) / (fail_p99 - p99)
        }
        (Some((rate, _)), _) => rate,
    };

    // Quiesce, then check the final state against the ledger.
    dep.quiesce();
    for i in 0..16u64 {
        let batch = query_batch(&pool, seed, 99, i);
        let answer = dep.service().answer(batch.clone());
        samples.push(Sample::new(
            answer.snapshot_version,
            &batch,
            answer.distances,
            format!("final-state batch {i}"),
        ));
    }
    let final_version = samples.last().map_or(0, |s| s.version);
    if let Some(last) = ledger.log.iter().filter_map(|l| l.version).max() {
        if last > final_version {
            errors.push(format!(
                "final answers come from version {final_version}, before the last update's {last}"
            ));
        }
    }
    if let Deployment::Server(server) = &dep {
        let graph = server.with_graph(|g| g.clone());
        errors.extend(verify::graph_matches(&graph, &ledger, "the server's graph"));
        errors.extend(verify::graph_matches(
            server.snapshot().graph(),
            &ledger,
            "the published snapshot's graph",
        ));
    }

    let final_stage = match &dep {
        Deployment::Server(server) => server.num_query_stages().saturating_sub(1),
        Deployment::Fleet { .. } => 0,
    };
    for phase in &phases {
        let one_in = (phase.queries.len() as u64 / 64).max(16);
        sample_phase(phase, &pool, seed, final_stage, one_in, 32, &mut samples);
    }
    if args.inject_wrong_answer {
        if let Some(d) = samples.first_mut().and_then(|s| s.got.first_mut()) {
            *d = Dist(d.0.wrapping_add(1));
        }
    }
    let verified_batches = samples.len();
    let verified_pairs: usize = samples.iter().map(|s| s.pairs.len()).sum();
    errors.extend(verify::check(&base, &ledger, samples));

    // Books: every request of every phase.
    let queries: usize = phases.iter().map(|p| p.queries.len()).sum();
    let failed_queries: usize = phases.iter().map(|p| p.failed_queries()).sum();
    let unresolved = ledger.log.iter().filter(|l| l.version.is_none()).count();
    let attempted = (queries + ledger.log.len()) as u64;
    let failed = (failed_queries + unresolved) as u64;

    let nominal_latency: Vec<f64> = nominal
        .iter()
        .flat_map(|&i| phases[i].latencies_ms())
        .collect();
    let nominal_updates: Vec<&load::UpdateRec> =
        nominal.iter().flat_map(|&i| &phases[i].updates).collect();
    let since_due = |at: Option<Instant>, due: Instant| {
        at.map(|at| at.saturating_duration_since(due).as_secs_f64() * 1e3)
    };
    let all_updates: Vec<&load::UpdateRec> = phases.iter().flat_map(|p| &p.updates).collect();
    let visible: Vec<f64> = all_updates
        .iter()
        .filter_map(|u| since_due(u.visible_at, u.due))
        .collect();
    let repaired: Vec<f64> = all_updates
        .iter()
        .filter_map(|u| since_due(u.repaired_at, u.due))
        .collect();
    let lateness: Vec<f64> = nominal
        .iter()
        .flat_map(|&i| {
            let p = &phases[i];
            p.queries
                .iter()
                .map(|q| (q.sent, q.due))
                .chain(p.updates.iter().map(|u| (u.sent, u.due)))
        })
        .map(|(sent, due)| sent.saturating_duration_since(due).as_secs_f64() * 1e3)
        .collect();

    let mut metrics = Metrics::default();
    if !args.trace {
        metrics.push("setup_s", median(&startups.setup_s), "s");
        metrics.push("restart_s", median(&startups.restart_s), "s");
        metrics.push("peak_rss_mb", peak_rss, "MiB");
        // The median of the segments' p50s, so a slow spell of the shared
        // machine moves one segment and not the figure.
        let segment_p50: Vec<f64> = nominal
            .iter()
            .map(|&i| quantile(&phases[i].latencies_ms(), 0.5))
            .collect();
        metrics.push("query_p50_ms", median(&segment_p50), "ms");
        metrics.push("knee_rps", knee, "batches/s");
        metrics.push("visible_p50_ms", quantile(&visible, 0.5), "ms");
        metrics.push("visible_p95_ms", quantile(&visible, 0.95), "ms");
        metrics.push("repaired_p50_ms", quantile(&repaired, 0.5), "ms");
    } else {
        per_layer(
            &dep,
            &base,
            &pool,
            &phases,
            &nominal,
            &traced,
            service_after_nominal.max_queue_depth,
            &startups,
            &lateness,
            &tracer,
            &mut metrics,
        );
    }
    dep.shutdown();

    let trace_file = if args.trace {
        let dir = work.parent().expect("work dir has a parent").join("traces");
        let path: PathBuf = dir.join(format!("{}-{seed}.json", workload.name));
        let written = std::fs::create_dir_all(&dir).and_then(|_| tracer.write(&path));
        match written {
            Ok(()) => json_str(&path.display().to_string()),
            Err(e) => json_str(&format!("not written: {e}")),
        }
    } else {
        "null".to_string()
    };
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    let _ = write!(
        record,
        ", \"samples\": {{\"nominal_batches\": {}, \"nominal_updates\": {}, \"updates_with_visibility\": {}, \"setups\": {}, \"restarts\": {}, \"setup_s\": {}, \"restart_s\": {}, \"verified_batches\": {verified_batches}, \"verified_pairs\": {verified_pairs}}}, \"query_p99_ms\": {}, \"knee_ladder\": [{rungs}], \"loadgen_lateness_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}}}, \"failed_ratio\": {failed_ratio}, \"spans\": {}, \"trace_file\": {trace_file}, \"errors\": {}}}}}",
        nominal_latency.len(),
        nominal_updates.len(),
        visible.len(),
        startups.setup_s.len(),
        startups.restart_s.len(),
        json_list(&startups.setup_s),
        json_list(&startups.restart_s),
        // Not a metric: see README.md, "Why query_p99_ms is not gated".
        quantile(&nominal_latency, 0.99),
        quantile(&lateness, 0.5),
        quantile(&lateness, 0.99),
        tracer.len(),
        errors.len(),
    );
    Outcome {
        metrics,
        attempted,
        failed,
        errors,
        record,
    }
}

/// Span names of PostMHL's maintenance stages.
const STAGE_SPANS: [&str; 5] = ["maint.U1", "maint.U2", "maint.U3", "maint.U4", "maint.U5"];

/// The per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    dep: &Deployment,
    base: &Graph,
    pool: &PairPool,
    phases: &[Phase],
    nominal: &[usize],
    traced: &[usize],
    max_queue_depth: usize,
    startups: &Startups,
    lateness: &[f64],
    tracer: &Tracer,
    m: &mut Metrics,
) {
    m.push("ingest.dimacs_s", median(&startups.ingest_s), "s");
    m.push("snapshot.save_s", median(&startups.save_s), "s");
    m.push("snapshot.mb", startups.saved_mb, "MiB");
    let index = probes::build_layers(base, m, tracer);
    probes::query_stages(index.as_ref(), pool, m, tracer);
    drop(index);

    // Maintenance and feed: the live server's outcomes, or a probe server
    // where the fleet keeps its shard servers private.
    match dep {
        Deployment::Server(_) => {
            let applied: Vec<Applied> = nominal
                .iter()
                .flat_map(|&i| &phases[i].updates)
                .filter_map(|u| Some((u.submitted_at?, u.outcome.clone()?)))
                .collect();
            probes::maintenance_layers(&applied, m);
        }
        Deployment::Fleet { .. } => {
            probes::maintenance_probe(base, GRAPH_SEED, UPDATE_RATE, 48, m, tracer)
        }
    }

    // Service: the traced segments of the nominal load.
    let mut submit_us = Vec::new();
    let mut answer_ms = Vec::new();
    let mut stages = [0usize; 4];
    // The generators recorded the submit spans live; the rest of each
    // request's spans come from the timestamps it carries.
    let traced_phases = || traced.iter().map(|&i| &phases[i]);
    for (phase, q) in traced_phases().flat_map(|p| p.queries.iter().map(move |q| (p, q))) {
        submit_us.push((q.returned - q.sent).as_secs_f64() * 1e6);
        let request = query_request(phase.stream, q.index);
        let end = q.answered_at().unwrap_or(q.returned);
        let root = tracer.span("query.batch", None, request, q.due, end);
        tracer.span("loadgen.wait", Some(root), request, q.due, q.sent);
        if let Some(BatchResult::Answered(a)) = &q.result {
            tracer.span(
                "service.answer",
                Some(root),
                request,
                q.returned,
                a.answered_at,
            );
            answer_ms.push(
                a.answered_at
                    .saturating_duration_since(q.returned)
                    .as_secs_f64()
                    * 1e3,
            );
            stages[a.stage.min(3)] += 1;
        }
    }
    for u in traced_phases().flat_map(|p| &p.updates) {
        let request = update_request(u.log_index);
        let end = u.repaired_at.unwrap_or(u.returned);
        let root = tracer.span("update", None, request, u.due, end);
        if let Some(at) = u.visible_at {
            tracer.span("update.visible", Some(root), request, u.due, at);
        }
        if let (Some(submitted), Some(o)) = (u.submitted_at, &u.outcome) {
            tracer.span(
                "feed.coalesce",
                Some(root),
                request,
                submitted,
                o.apply_start,
            );
            let mut cursor = o.apply_start;
            for (stage, name) in o.timeline.stages.iter().zip(STAGE_SPANS) {
                tracer.span(name, Some(root), request, cursor, cursor + stage.duration);
                cursor += stage.duration;
            }
        }
    }
    m.push("service.submit_us", median(&submit_us), "us");
    m.push("service.answer_ms.p50", quantile(&answer_ms, 0.5), "ms");
    m.push("service.answer_ms.p99", quantile(&answer_ms, 0.99), "ms");
    m.push("service.max_queue_depth", max_queue_depth as f64, "count");
    let answered = stages.iter().sum::<usize>().max(1) as f64;
    for (k, n) in stages.iter().enumerate() {
        m.push(
            &format!("service.stage_share.{k}"),
            *n as f64 / answered,
            "fraction",
        );
    }

    match dep {
        Deployment::Fleet { fleet, .. } => probes::fleet_layer(fleet, pool, m, tracer),
        Deployment::Server(_) => probes::fleet_probe(base, pool, m, tracer),
    }
    m.push("loadgen.lateness_ms.p99", quantile(lateness, 0.99), "ms");
    let p50_of = |segments: &mut dyn Iterator<Item = &Phase>| {
        let latencies: Vec<f64> = segments.flat_map(|p| p.latencies_ms()).collect();
        quantile(&latencies, 0.5)
    };
    let untraced = p50_of(
        &mut nominal
            .iter()
            .filter(|i| !traced.contains(i))
            .map(|&i| &phases[i]),
    );
    let traced_p50 = p50_of(&mut traced_phases());
    m.push(
        "trace.overhead_pct",
        100.0 * (traced_p50 - untraced) / untraced.max(1e-9),
        "%",
    );
}
