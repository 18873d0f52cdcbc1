//! Open-loop load generation: Poisson arrivals, request mixes, and the
//! SLO-checked driver that measures a [`DistanceService`] the way real
//! traffic would.
//!
//! # Closed-loop vs open-loop
//!
//! The concurrent engine ([`QueryEngine`](crate::QueryEngine)) is
//! **closed-loop**: each worker submits its next query only after the
//! previous answer returns, so offered load self-throttles to whatever the
//! server sustains and queueing delay is invisible. Real traffic is
//! **open-loop**: requests arrive on their own schedule whether or not the
//! server keeps up, so a server running just past saturation accumulates an
//! unbounded queue and its tail latency diverges. This module generates
//! that schedule deterministically:
//!
//! * [`ArrivalProcess`] — Poisson (exponential inter-arrival gaps) or
//!   constant-rate arrivals, drawn from a seeded PRNG;
//! * [`RequestMix`] — a weighted mix of [`RequestClass`]es, each mapping to
//!   a [`QueryBatch`] shape (point-to-point bundles, one-to-many fans,
//!   distance matrices, or Zipf-skewed hot pairs via
//!   [`HotPairStream`]);
//! * [`OpenLoopStream`] — one client's deterministic stream of
//!   [`ScheduledRequest`]s: same `(seed, client)` ⇒ identical schedule and
//!   identical batches;
//! * [`run_open_loop`] — the driver: `clients` generator threads submit on
//!   schedule via [`DistanceService::try_submit_at`], time-stamping each
//!   request at *generation* (the scheduled arrival instant, not the submit
//!   call), so queueing delay — and generator lateness — is charged to the
//!   measured latency. The resulting [`LoadReport`] carries per-class
//!   latency histograms, goodput/shed/expired counters, and the
//!   [`SloVerdict`] against the profile's [`SloTarget`].
//!
//! Submitting with a generation timestamp in the past is exactly what makes
//! the measurement honest under overload: if the generator falls behind (or
//! the admission queue is full and the request is shed), the lateness is
//! either charged to the latency histogram or counted as lost goodput —
//! never silently forgiven, which is the classic closed-loop
//! *coordinated-omission* bug.

use crate::admission::SubmitOutcome;
use crate::engine::HotPairStream;
use crate::service::{BatchResult, BatchTicket, DistanceService, QueryBatch};
use crate::slo::{LatencyHistogram, SloTarget, SloVerdict};
use htsp_graph::Query;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Golden-ratio multiplier used to decorrelate per-client PRNG seeds (the
/// same constant [`HotPairStream`] uses per worker).
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// The arrival schedule of an open-loop client: when requests are *offered*,
/// independent of how fast the server answers them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate` requests/second: inter-arrival gaps are
    /// exponential with mean `1/rate`, the memoryless model of independent
    /// clients (and the arrival model of the paper's M/G/1 bound).
    Poisson {
        /// Mean offered rate in requests per second.
        rate: f64,
    },
    /// Constant-rate arrivals: one request every `1/rate` seconds exactly.
    /// Useful as the bursty-free control for the Poisson runs.
    Constant {
        /// Offered rate in requests per second.
        rate: f64,
    },
}

impl ArrivalProcess {
    /// The mean offered rate in requests per second.
    pub fn rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } | ArrivalProcess::Constant { rate } => rate,
        }
    }

    /// The same process scaled to `rate` requests per second.
    pub fn at_rate(&self, rate: f64) -> Self {
        match *self {
            ArrivalProcess::Poisson { .. } => ArrivalProcess::Poisson { rate },
            ArrivalProcess::Constant { .. } => ArrivalProcess::Constant { rate },
        }
    }

    /// Short label for reports (`"poisson"` / `"constant"`).
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Constant { .. } => "constant",
        }
    }

    /// Draws the gap to the next arrival.
    fn next_gap<R: Rng>(&self, rng: &mut R) -> Duration {
        match *self {
            ArrivalProcess::Poisson { rate } => {
                assert!(rate > 0.0, "Poisson rate must be positive");
                // Inverse-CDF of the exponential distribution; u ∈ [0, 1)
                // so 1 - u ∈ (0, 1] and the log is finite.
                let u: f64 = rng.gen();
                Duration::from_secs_f64(-(1.0 - u).ln() / rate)
            }
            ArrivalProcess::Constant { rate } => {
                assert!(rate > 0.0, "constant rate must be positive");
                Duration::from_secs_f64(1.0 / rate)
            }
        }
    }
}

/// The shape of one generated request, mapping to a [`QueryBatch`] variant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RequestClass {
    /// A bundle of `bundle` independent `(s, t)` pairs drawn uniformly from
    /// the query pool ([`QueryBatch::PointToPoint`]).
    PointToPoint {
        /// Pairs per batch.
        bundle: usize,
    },
    /// One origin, `fanout` destinations ([`QueryBatch::OneToMany`]).
    OneToMany {
        /// Destinations per batch.
        fanout: usize,
    },
    /// A `side × side` distance matrix ([`QueryBatch::Matrix`]).
    Matrix {
        /// Rows and columns of the matrix.
        side: usize,
    },
    /// Single Zipf-skewed hot pairs drawn by a deterministic
    /// [`HotPairStream`] over the first `universe`
    /// pool entries — the cache-friendly workload.
    HotPairs {
        /// Number of distinct hot pairs.
        universe: usize,
        /// Zipf skew exponent `s` (larger ⇒ more skewed).
        zipf_s: f64,
    },
}

impl RequestClass {
    /// Short label for per-class reports.
    pub fn label(&self) -> &'static str {
        match self {
            RequestClass::PointToPoint { .. } => "point-to-point",
            RequestClass::OneToMany { .. } => "one-to-many",
            RequestClass::Matrix { .. } => "matrix",
            RequestClass::HotPairs { .. } => "hot-pairs",
        }
    }

    /// Number of `(s, t)` distances one batch of this class asks for.
    pub fn pairs_per_batch(&self) -> usize {
        match *self {
            RequestClass::PointToPoint { bundle } => bundle.max(1),
            RequestClass::OneToMany { fanout } => fanout.max(1),
            RequestClass::Matrix { side } => side.max(1) * side.max(1),
            RequestClass::HotPairs { .. } => 1,
        }
    }
}

/// A weighted mix of [`RequestClass`]es: each generated request samples a
/// class proportionally to its weight.
#[derive(Clone, Debug)]
pub struct RequestMix {
    entries: Vec<(RequestClass, f64)>,
    total_weight: f64,
}

impl RequestMix {
    /// A mix over `(class, weight)` entries. Weights must be positive; they
    /// need not sum to 1.
    pub fn new(entries: Vec<(RequestClass, f64)>) -> Self {
        assert!(
            !entries.is_empty(),
            "request mix must have at least one class"
        );
        assert!(
            entries.iter().all(|(_, w)| w.is_finite() && *w > 0.0),
            "request-mix weights must be positive and finite"
        );
        let total_weight = entries.iter().map(|(_, w)| w).sum();
        RequestMix {
            entries,
            total_weight,
        }
    }

    /// The simplest mix: every request is a point-to-point bundle of
    /// `bundle` pairs.
    pub fn point_to_point(bundle: usize) -> Self {
        RequestMix::new(vec![(RequestClass::PointToPoint { bundle }, 1.0)])
    }

    /// The classes in this mix, in entry order.
    pub fn classes(&self) -> Vec<RequestClass> {
        self.entries.iter().map(|(c, _)| *c).collect()
    }

    /// Samples an entry index proportionally to weight.
    fn sample_index<R: Rng>(&self, rng: &mut R) -> usize {
        let mut x: f64 = rng.gen::<f64>() * self.total_weight;
        for (i, (_, w)) in self.entries.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        self.entries.len() - 1
    }
}

/// One request on an open-loop schedule: due `offset` after the stream
/// start, carrying a ready-to-submit [`QueryBatch`].
#[derive(Clone, Debug)]
pub struct ScheduledRequest {
    /// Arrival offset from the stream's origin (cumulative over the stream).
    pub offset: Duration,
    /// Index of the mix entry this request was sampled from.
    pub class_index: usize,
    /// The sampled request class.
    pub class: RequestClass,
    /// The generated batch.
    pub batch: QueryBatch,
}

/// One client's deterministic open-loop request stream.
///
/// The stream owns a seeded PRNG (decorrelated per `client` with the same
/// golden-ratio mix [`HotPairStream`] uses), so the
/// same `(seed, client)` always yields the identical arrival schedule *and*
/// the identical sequence of batches — runs are replayable and two clients
/// never mirror each other.
#[derive(Debug)]
pub struct OpenLoopStream {
    arrivals: ArrivalProcess,
    mix: RequestMix,
    pool: Vec<Query>,
    rng: ChaCha8Rng,
    /// One deterministic hot-pair stream per `HotPairs` mix entry
    /// (`None` for the other classes), parallel to `mix.entries`.
    hot: Vec<Option<HotPairStream>>,
    elapsed: Duration,
}

impl OpenLoopStream {
    /// A stream for `client` drawing batches from `pool`.
    pub fn new(
        arrivals: ArrivalProcess,
        mix: RequestMix,
        pool: &[Query],
        seed: u64,
        client: usize,
    ) -> Self {
        assert!(!pool.is_empty(), "open-loop query pool must be non-empty");
        let hot = mix
            .entries
            .iter()
            .enumerate()
            .map(|(i, (class, _))| match *class {
                RequestClass::HotPairs { universe, zipf_s } => Some(HotPairStream::new(
                    universe.clamp(1, pool.len()),
                    zipf_s,
                    seed.wrapping_add(1 + i as u64),
                    client,
                )),
                _ => None,
            })
            .collect();
        OpenLoopStream {
            arrivals,
            mix,
            pool: pool.to_vec(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ (client as u64).wrapping_mul(SEED_MIX)),
            hot,
            elapsed: Duration::ZERO,
        }
    }

    /// Generates the next request; offsets grow monotonically.
    pub fn next_request(&mut self) -> ScheduledRequest {
        self.elapsed += self.arrivals.next_gap(&mut self.rng);
        let class_index = self.mix.sample_index(&mut self.rng);
        let class = self.mix.entries[class_index].0;
        let batch = self.make_batch(class_index, class);
        ScheduledRequest {
            offset: self.elapsed,
            class_index,
            class,
            batch,
        }
    }

    /// Number of entries in the underlying mix (parallel to
    /// [`ScheduledRequest::class_index`]).
    pub fn num_classes(&self) -> usize {
        self.mix.entries.len()
    }

    fn pick(&mut self) -> Query {
        self.pool[self.rng.gen_range(0..self.pool.len())]
    }

    fn make_batch(&mut self, class_index: usize, class: RequestClass) -> QueryBatch {
        match class {
            RequestClass::PointToPoint { bundle } => {
                QueryBatch::PointToPoint((0..bundle.max(1)).map(|_| self.pick()).collect())
            }
            RequestClass::OneToMany { fanout } => {
                let source = self.pick().source;
                let targets = (0..fanout.max(1)).map(|_| self.pick().target).collect();
                QueryBatch::OneToMany { source, targets }
            }
            RequestClass::Matrix { side } => {
                let side = side.max(1);
                let sources = (0..side).map(|_| self.pick().source).collect();
                let targets = (0..side).map(|_| self.pick().target).collect();
                QueryBatch::Matrix { sources, targets }
            }
            RequestClass::HotPairs { .. } => {
                let stream = self.hot[class_index]
                    .as_mut()
                    .expect("hot stream exists for HotPairs entries");
                QueryBatch::PointToPoint(vec![stream.next_query(&self.pool)])
            }
        }
    }
}

/// How an open-loop generator waits for the next scheduled arrival.
///
/// Plain `thread::sleep` granularity (≈1 ms on most schedulers, worse with
/// timer coalescing) silently caps what one generator can offer: at
/// 50k req/s the inter-arrival gap is 20 µs, so a sleeping generator
/// oversleeps nearly every deadline and degrades into a closed loop that
/// under-offers the configured rate. The spin variants trade CPU for
/// schedule fidelity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacer {
    /// `thread::sleep` until due — cheap and coarse; adequate below roughly
    /// 1k req/s per client thread.
    Sleep,
    /// Busy-wait on `Instant::now()` until due — exact, burns a core.
    Spin,
    /// Sleep until `spin_window` before the deadline, then spin the rest:
    /// sub-sleep-granularity fidelity at a bounded spin cost per arrival.
    Hybrid {
        /// How long before the deadline to switch from sleeping to
        /// spinning (must cover the platform's sleep overshoot).
        spin_window: Duration,
    },
}

impl Default for Pacer {
    /// Hybrid with a 200 µs spin window: exact enough for 50k+ req/s
    /// aggregate offers while spending ≪1% of a core per 1k req/s.
    fn default() -> Self {
        Pacer::Hybrid {
            spin_window: Duration::from_micros(200),
        }
    }
}

impl Pacer {
    /// Blocks until `due`; returns immediately if the deadline has passed.
    pub fn pace_until(self, due: Instant) {
        match self {
            Pacer::Sleep => {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            Pacer::Spin => {
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
            }
            Pacer::Hybrid { spin_window } => {
                let now = Instant::now();
                if due > now && due - now > spin_window {
                    std::thread::sleep(due - now - spin_window);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// Everything [`run_open_loop`] needs: the schedule, the mix, the fleet of
/// generator clients, the horizon, and the SLO to judge the run against.
#[derive(Clone, Debug)]
pub struct LoadProfile {
    /// The *aggregate* arrival process; each of the `clients` generators
    /// runs it at `rate / clients` so the merged stream offers `rate`.
    pub arrivals: ArrivalProcess,
    /// The request mix every client samples from.
    pub mix: RequestMix,
    /// Number of generator threads (clamped to at least 1).
    pub clients: usize,
    /// Generation horizon: requests with offsets past this are not offered.
    pub duration: Duration,
    /// Base seed; client `c` derives its stream from `(seed, c)`.
    pub seed: u64,
    /// The latency SLO the run is judged against.
    pub slo: SloTarget,
    /// How generator threads wait out inter-arrival gaps.
    pub pacer: Pacer,
}

impl LoadProfile {
    /// A profile offering `rate` req/s of Poisson point-to-point singletons
    /// for `duration`, judged against `slo`.
    pub fn poisson(rate: f64, duration: Duration, slo: SloTarget) -> Self {
        LoadProfile {
            arrivals: ArrivalProcess::Poisson { rate },
            mix: RequestMix::point_to_point(1),
            clients: 4,
            duration,
            seed: 1,
            slo,
            pacer: Pacer::default(),
        }
    }

    /// Replaces the request mix.
    pub fn with_mix(mut self, mix: RequestMix) -> Self {
        self.mix = mix;
        self
    }

    /// Replaces the generator-thread count.
    pub fn with_clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Replaces the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The profile re-targeted to offer `rate` requests/second aggregate.
    pub fn at_rate(mut self, rate: f64) -> Self {
        self.arrivals = self.arrivals.at_rate(rate);
        self
    }

    /// Replaces the inter-arrival pacer.
    pub fn with_pacer(mut self, pacer: Pacer) -> Self {
        self.pacer = pacer;
        self
    }
}

/// Per-[`RequestClass`] slice of a [`LoadReport`].
#[derive(Clone, Debug)]
pub struct ClassReport {
    /// The class (one entry per mix entry, in mix order).
    pub class: RequestClass,
    /// Submit-to-answer latency of answered requests of this class.
    pub latency: LatencyHistogram,
    /// Requests offered (generated within the horizon).
    pub offered: u64,
    /// Requests answered.
    pub answered: u64,
    /// Requests shed at submit by the admission policy.
    pub shed: u64,
    /// Requests expired (at submit or unexecuted in the queue).
    pub expired: u64,
}

/// The outcome of one [`run_open_loop`] measurement.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Aggregate offered rate the profile asked for (req/s).
    pub offered_rate: f64,
    /// Requests generated within the horizon.
    pub offered: u64,
    /// Requests answered (each exactly once).
    pub answered: u64,
    /// `(s, t)` distances inside the answered batches.
    pub answered_pairs: u64,
    /// Requests shed at submit.
    pub shed: u64,
    /// Requests expired at submit or dropped unexecuted in the queue.
    pub expired: u64,
    /// Accepted requests abandoned by a service shutdown mid-run
    /// (zero unless the service was shut down underneath the driver).
    pub abandoned: u64,
    /// Merged submit-to-answer latency over all answered requests,
    /// measured from the *scheduled* arrival instant.
    pub latency: LatencyHistogram,
    /// Per-mix-entry breakdown.
    pub per_class: Vec<ClassReport>,
    /// The SLO verdict of `latency` against the profile's target.
    pub verdict: SloVerdict,
    /// Generation horizon of the run.
    pub horizon: Duration,
    /// Wall time from first arrival to last resolved ticket.
    pub elapsed: Duration,
    /// Deepest the service queue got during the run (lifetime max of the
    /// service, so use a fresh service per measurement).
    pub max_queue_depth: usize,
}

impl LoadReport {
    /// Answered requests per second of wall time.
    pub fn goodput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.answered as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Drives `profile` against `service` and reports what happened.
///
/// Spawns `profile.clients` generator threads. Each walks its own
/// [`OpenLoopStream`] at `rate / clients`, sleeps until each request is
/// due, and submits it with [`DistanceService::try_submit_at`] passing the
/// *scheduled* arrival instant — so time lost sleeping too long, queueing,
/// or re-pinning is charged to the measured latency, not forgiven. Tickets
/// are collected and resolved after the horizon (answers are timestamped by
/// the workers at completion, so late collection does not distort
/// latencies).
///
/// The service is left running; pair with
/// [`DistanceService::shutdown`](crate::DistanceService::shutdown) or reuse
/// it for the next measurement (note [`LoadReport::max_queue_depth`] is a
/// lifetime max).
pub fn run_open_loop(
    service: &DistanceService,
    profile: &LoadProfile,
    pool: &[Query],
) -> LoadReport {
    run_open_loop_with_telemetry(service, profile, pool, None)
}

/// Like [`run_open_loop`], but additionally folds the run's per-class
/// outcome into `hub` when one is given: each mix class contributes a
/// `htsp_loadgen_latency_seconds{class=...}` histogram and
/// `htsp_loadgen_{offered,answered,shed,expired}_total{class=...}`
/// counters (plus an unlabeled `htsp_loadgen_abandoned_total`), so the
/// load generator's view of the run sits in the same snapshot as the
/// service's admission counters. Counters accumulate across runs on the
/// same hub.
pub fn run_open_loop_with_telemetry(
    service: &DistanceService,
    profile: &LoadProfile,
    pool: &[Query],
    hub: Option<&crate::telemetry::TelemetryHub>,
) -> LoadReport {
    let report = run_open_loop_inner(service, profile, pool);
    if let Some(hub) = hub {
        for c in &report.per_class {
            let labels: &[(&str, &str)] = &[("class", c.class.label())];
            hub.labeled_histogram("htsp_loadgen_latency_seconds", labels)
                .merge_from(&c.latency);
            hub.labeled_counter("htsp_loadgen_offered_total", labels)
                .add(c.offered);
            hub.labeled_counter("htsp_loadgen_answered_total", labels)
                .add(c.answered);
            hub.labeled_counter("htsp_loadgen_shed_total", labels)
                .add(c.shed);
            hub.labeled_counter("htsp_loadgen_expired_total", labels)
                .add(c.expired);
        }
        hub.counter("htsp_loadgen_abandoned_total")
            .add(report.abandoned);
    }
    report
}

fn run_open_loop_inner(
    service: &DistanceService,
    profile: &LoadProfile,
    pool: &[Query],
) -> LoadReport {
    let clients = profile.clients.max(1);
    let per_client = profile
        .arrivals
        .at_rate(profile.arrivals.rate() / clients as f64);
    let num_classes = profile.mix.entries.len();
    let start = Instant::now();

    struct ClientOutcome {
        offered: Vec<u64>,
        answered: Vec<u64>,
        shed: Vec<u64>,
        expired: Vec<u64>,
        abandoned: u64,
        answered_pairs: u64,
        latency: Vec<LatencyHistogram>,
        last_resolved: Instant,
    }

    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut stream = OpenLoopStream::new(
                        per_client,
                        profile.mix.clone(),
                        pool,
                        profile.seed,
                        client,
                    );
                    let mut out = ClientOutcome {
                        offered: vec![0; num_classes],
                        answered: vec![0; num_classes],
                        shed: vec![0; num_classes],
                        expired: vec![0; num_classes],
                        abandoned: 0,
                        answered_pairs: 0,
                        latency: vec![LatencyHistogram::new(); num_classes],
                        last_resolved: start,
                    };
                    let mut pending: Vec<(usize, Instant, BatchTicket)> = Vec::new();
                    loop {
                        let req = stream.next_request();
                        if req.offset > profile.duration {
                            break;
                        }
                        let due = start + req.offset;
                        profile.pacer.pace_until(due);
                        out.offered[req.class_index] += 1;
                        // Timestamp at the *scheduled* arrival, not the
                        // submit call: generator lag counts as latency.
                        match service.try_submit_at(req.batch, due) {
                            SubmitOutcome::Accepted(ticket) => {
                                pending.push((req.class_index, due, ticket));
                            }
                            SubmitOutcome::Shed => out.shed[req.class_index] += 1,
                            SubmitOutcome::Expired => out.expired[req.class_index] += 1,
                        }
                    }
                    for (class_index, generated_at, ticket) in pending {
                        match ticket.wait_result() {
                            BatchResult::Answered(answer) => {
                                out.answered[class_index] += 1;
                                out.answered_pairs += answer.distances.len() as u64;
                                out.latency[class_index].record(
                                    answer.answered_at.saturating_duration_since(generated_at),
                                );
                                out.last_resolved = out.last_resolved.max(answer.answered_at);
                            }
                            BatchResult::Expired => out.expired[class_index] += 1,
                            BatchResult::Abandoned => out.abandoned += 1,
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut per_class: Vec<ClassReport> = profile
        .mix
        .classes()
        .into_iter()
        .map(|class| ClassReport {
            class,
            latency: LatencyHistogram::new(),
            offered: 0,
            answered: 0,
            shed: 0,
            expired: 0,
        })
        .collect();
    let mut latency = LatencyHistogram::new();
    let mut abandoned = 0;
    let mut answered_pairs = 0;
    let mut last_resolved = start;
    for out in &outcomes {
        for (i, report) in per_class.iter_mut().enumerate() {
            report.offered += out.offered[i];
            report.answered += out.answered[i];
            report.shed += out.shed[i];
            report.expired += out.expired[i];
            report.latency.merge(&out.latency[i]);
            latency.merge(&out.latency[i]);
        }
        abandoned += out.abandoned;
        answered_pairs += out.answered_pairs;
        last_resolved = last_resolved.max(out.last_resolved);
    }
    let verdict = profile.slo.evaluate(&latency);
    LoadReport {
        offered_rate: profile.arrivals.rate(),
        offered: per_class.iter().map(|c| c.offered).sum(),
        answered: per_class.iter().map(|c| c.answered).sum(),
        answered_pairs,
        shed: per_class.iter().map(|c| c.shed).sum(),
        expired: per_class.iter().map(|c| c.expired).sum(),
        abandoned,
        latency,
        per_class,
        verdict,
        horizon: profile.duration,
        elapsed: last_resolved.saturating_duration_since(start),
        max_queue_depth: service.stats().max_queue_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::VertexId;

    fn pool(n: usize) -> Vec<Query> {
        (0..n as u32)
            .map(|i| Query::new(VertexId(i), VertexId(n as u32 - 1 - i)))
            .collect()
    }

    #[test]
    fn same_seed_same_schedule_and_mix() {
        let mix = RequestMix::new(vec![
            (RequestClass::PointToPoint { bundle: 4 }, 3.0),
            (RequestClass::OneToMany { fanout: 8 }, 1.0),
            (
                RequestClass::HotPairs {
                    universe: 16,
                    zipf_s: 1.1,
                },
                1.0,
            ),
        ]);
        let p = pool(64);
        let arrivals = ArrivalProcess::Poisson { rate: 500.0 };
        let mut a = OpenLoopStream::new(arrivals, mix.clone(), &p, 42, 3);
        let mut b = OpenLoopStream::new(arrivals, mix.clone(), &p, 42, 3);
        let mut c = OpenLoopStream::new(arrivals, mix, &p, 42, 4);
        let mut diverged = false;
        for _ in 0..200 {
            let (ra, rb, rc) = (a.next_request(), b.next_request(), c.next_request());
            assert_eq!(ra.offset, rb.offset, "same (seed, client) must replay");
            assert_eq!(ra.class_index, rb.class_index);
            assert_eq!(format!("{:?}", ra.batch), format!("{:?}", rb.batch));
            if ra.offset != rc.offset || ra.class_index != rc.class_index {
                diverged = true;
            }
        }
        assert!(diverged, "different clients must be decorrelated");
    }

    #[test]
    fn poisson_empirical_rate_tracks_lambda() {
        let p = pool(8);
        let rate = 1000.0;
        let mut s = OpenLoopStream::new(
            ArrivalProcess::Poisson { rate },
            RequestMix::point_to_point(1),
            &p,
            7,
            0,
        );
        let n = 20_000;
        let mut last = Duration::ZERO;
        for _ in 0..n {
            last = s.next_request().offset;
        }
        let empirical = n as f64 / last.as_secs_f64();
        let err = (empirical - rate).abs() / rate;
        // 20k exponential gaps: the sample mean is within a few percent of
        // 1/λ with overwhelming probability (std-err ≈ 0.7%).
        assert!(err < 0.05, "empirical rate {empirical:.1} vs λ {rate}");
    }

    #[test]
    fn constant_rate_is_exact() {
        let p = pool(4);
        let mut s = OpenLoopStream::new(
            ArrivalProcess::Constant { rate: 100.0 },
            RequestMix::point_to_point(2),
            &p,
            1,
            0,
        );
        for i in 1..=50u32 {
            let r = s.next_request();
            assert_eq!(r.offset, Duration::from_millis(10) * i);
            assert_eq!(r.batch.num_pairs(), 2);
        }
    }

    #[test]
    fn mix_weights_are_respected() {
        let mix = RequestMix::new(vec![
            (RequestClass::PointToPoint { bundle: 1 }, 9.0),
            (RequestClass::Matrix { side: 2 }, 1.0),
        ]);
        let p = pool(16);
        let mut s = OpenLoopStream::new(ArrivalProcess::Constant { rate: 1.0 }, mix, &p, 11, 0);
        let mut counts = [0u32; 2];
        for _ in 0..2000 {
            counts[s.next_request().class_index] += 1;
        }
        let frac = counts[0] as f64 / 2000.0;
        assert!((frac - 0.9).abs() < 0.05, "90/10 mix came out {frac:.3}");
    }

    /// Drives `pacer` through `n` arrivals at `rate` req/s and returns the
    /// empirically achieved rate.
    fn paced_rate(pacer: Pacer, rate: f64, n: u32) -> f64 {
        let gap = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now();
        for i in 1..=n {
            pacer.pace_until(start + gap * i);
        }
        n as f64 / start.elapsed().as_secs_f64()
    }

    #[test]
    fn hybrid_pacer_sustains_50k_per_second() {
        // 20 µs inter-arrival gaps are far below sleep granularity; the
        // hybrid pacer must still track the schedule. Warm up once, then
        // measure 2500 arrivals (50 ms of schedule). Tolerance is generous
        // for loaded CI machines: at least half the configured rate, and
        // never faster than the schedule allows.
        let pacer = Pacer::default();
        paced_rate(pacer, 50_000.0, 500);
        let achieved = paced_rate(pacer, 50_000.0, 2_500);
        assert!(
            achieved >= 25_000.0,
            "hybrid pacer achieved only {achieved:.0} req/s of 50k"
        );
        assert!(
            achieved <= 51_000.0,
            "pacer ran ahead of its schedule: {achieved:.0} req/s"
        );
    }

    #[test]
    fn spin_pacer_is_exact_and_sleep_pacer_never_runs_early() {
        let achieved = paced_rate(Pacer::Spin, 50_000.0, 1_000);
        assert!(achieved >= 25_000.0, "spin pacer achieved {achieved:.0}");
        // Sleep can overshoot arbitrarily but must never return early.
        let start = Instant::now();
        let due = start + Duration::from_millis(5);
        Pacer::Sleep.pace_until(due);
        assert!(Instant::now() >= due);
        // A past deadline returns immediately for every pacer.
        for pacer in [Pacer::Sleep, Pacer::Spin, Pacer::default()] {
            let t = Instant::now();
            pacer.pace_until(t - Duration::from_millis(1));
            assert!(t.elapsed() < Duration::from_millis(50));
        }
    }
}
