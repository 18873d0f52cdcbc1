//! The open-loop driver. One query-generator thread and, where updates
//! run, one update-generator thread follow seeded Poisson schedules
//! whatever the system does: each sleeps until the next due time and on
//! waking submits every request that is due. They never spin. Latency is
//! timed from the due time, so a late generator or a stalled system is
//! charged in full.

use crate::deploy::{sleep_until, Deployment, Ticket};
use crate::inputs::{next_update, poisson_offsets, query_batch, PairPool, Rng};
use crate::trace::Tracer;
use htsp_graph::{EdgeId, EdgeUpdate, Weight};
use htsp_throughput::{BatchResult, SubmitOutcome, UpdateOutcome};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The benchmark's own record of every weight it submitted, in submission
/// order. The graph of any published version is the initial graph plus the
/// prefix of this log whose updates that version contains.
pub struct Ledger {
    pub weights: Vec<Weight>,
    pub log: Vec<Logged>,
    /// Draws which edge each update changes, and to what.
    rng: Rng,
    /// Seeds the update stream's Poisson schedules, so the stream's
    /// edges, weights and times all come from the ledger's seed.
    seed: u64,
}

pub struct Logged {
    pub edge: usize,
    pub new_weight: Weight,
    /// The first published version containing the update (server: the
    /// publisher version; fleet: the fleet epoch). `None` until resolved.
    pub version: Option<u64>,
}

impl Ledger {
    pub fn new(weights: Vec<Weight>, seed: u64) -> Ledger {
        Ledger {
            weights,
            log: Vec::new(),
            rng: Rng::new(seed, 3),
            seed,
        }
    }

    fn draw(&mut self) -> (usize, EdgeUpdate) {
        let (e, new) = next_update(&mut self.rng, &self.weights);
        let old = self.weights[e];
        self.weights[e] = new;
        self.log.push(Logged {
            edge: e,
            new_weight: new,
            version: None,
        });
        (
            self.log.len() - 1,
            EdgeUpdate::new(EdgeId(e as u32), old, new),
        )
    }
}

pub struct QueryRec {
    /// Index in the phase's query stream (regenerates the batch).
    pub index: u64,
    pub due: Instant,
    /// The generator's clock just before and just after the submit call.
    pub sent: Instant,
    pub returned: Instant,
    /// `None` when the service refused the batch at submit.
    pub result: Option<BatchResult>,
}

impl QueryRec {
    pub fn answered_at(&self) -> Option<Instant> {
        match &self.result {
            Some(BatchResult::Answered(a)) => Some(a.answered_at),
            _ => None,
        }
    }

    pub fn latency_ms(&self) -> Option<f64> {
        self.answered_at()
            .map(|at| at.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }
}

pub struct UpdateRec {
    pub log_index: usize,
    pub due: Instant,
    pub sent: Instant,
    pub returned: Instant,
    /// Publication of the first snapshot that contains the update.
    pub visible_at: Option<Instant>,
    /// Publication of the final stage of the update's batch.
    pub repaired_at: Option<Instant>,
    /// The server's outcome of the update's batch (server deployments).
    pub outcome: Option<Arc<UpdateOutcome>>,
    pub submitted_at: Option<Instant>,
}

pub struct Phase {
    pub stream: u64,
    pub seconds: f64,
    pub start: Instant,
    pub queries: Vec<QueryRec>,
    pub updates: Vec<UpdateRec>,
}

impl Phase {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.queries.iter().filter_map(|q| q.latency_ms()).collect()
    }

    /// Batches that were refused, expired or abandoned.
    pub fn failed_queries(&self) -> usize {
        self.queries
            .iter()
            .filter(|q| q.answered_at().is_none())
            .count()
    }
}

/// The traffic of one phase.
#[derive(Clone, Copy)]
pub struct Load {
    /// Id of the phase's query stream and schedules.
    pub stream: u64,
    /// Query batches per second.
    pub query_rate: f64,
    /// Updates per second, continuing the ledger's update stream.
    pub update_rate: f64,
    pub seconds: f64,
}

/// The request id shared by every span of query batch `index` of `stream`.
pub fn query_request(stream: u64, index: u64) -> u64 {
    (stream << 32 | index) + 1
}

/// The request id shared by every span of the ledger's update `index`.
pub fn update_request(index: usize) -> u64 {
    1 << 62 | index as u64
}

/// Runs one open-loop phase and returns once every request of the phase
/// is resolved. With a tracer, the generators record a span around each
/// submit call as they make it.
pub fn run_phase(
    dep: &Deployment,
    pool: &PairPool,
    seed: u64,
    load: &Load,
    ledger: &mut Ledger,
    tracer: Option<&Tracer>,
) -> Phase {
    let Load {
        stream,
        query_rate,
        update_rate,
        seconds,
    } = *load;
    let q_offsets = poisson_offsets(query_rate, seconds, &mut Rng::new(seed, 100 + stream));
    let u_offsets = poisson_offsets(
        update_rate,
        seconds,
        &mut Rng::new(ledger.seed, 200 + stream),
    );
    let start = Instant::now() + Duration::from_millis(2);
    let at = |offset: f64| start + Duration::from_secs_f64(offset);
    let service = dep.service();

    let (submitted_queries, mut updates, fleet_times) = std::thread::scope(|scope| {
        let queries = scope.spawn(|| {
            let mut out = Vec::with_capacity(q_offsets.len());
            let mut i = 0;
            while i < q_offsets.len() {
                sleep_until(at(q_offsets[i]));
                while i < q_offsets.len() && at(q_offsets[i]) <= Instant::now() {
                    let due = at(q_offsets[i]);
                    let batch = query_batch(pool, seed, stream, i as u64);
                    let sent = Instant::now();
                    let outcome = service.try_submit_at(batch, due);
                    let returned = Instant::now();
                    if let Some(tracer) = tracer {
                        let request = query_request(stream, i as u64);
                        tracer.span("service.submit", None, request, sent, returned);
                    }
                    out.push((i as u64, due, sent, returned, outcome));
                    i += 1;
                }
            }
            out
        });
        // Fleet tickets expose no publication instants: two watcher threads
        // block on the tickets in submission order and timestamp their
        // wake-ups (visible, then applied).
        let (vis_tx, vis_rx) = mpsc::channel::<(usize, Arc<htsp_throughput::FleetTicket>)>();
        let (app_tx, app_rx) = mpsc::channel::<(usize, Arc<htsp_throughput::FleetTicket>)>();
        let visible_watcher = scope.spawn(move || {
            let mut out = Vec::new();
            for (i, ticket) in vis_rx {
                ticket.wait_visible();
                out.push((i, Instant::now()));
                let _ = app_tx.send((i, ticket));
            }
            out
        });
        let applied_watcher = scope.spawn(move || {
            let mut out = Vec::new();
            for (i, ticket) in app_rx {
                let version = ticket.wait_applied();
                out.push((i, version, Instant::now()));
            }
            out
        });
        let mut updates = Vec::with_capacity(u_offsets.len());
        let mut server_tickets = Vec::new();
        let mut i = 0;
        while i < u_offsets.len() {
            sleep_until(at(u_offsets[i]));
            while i < u_offsets.len() && at(u_offsets[i]) <= Instant::now() {
                let due = at(u_offsets[i]);
                let (log_index, update) = ledger.draw();
                let sent = Instant::now();
                let ticket = dep.submit(update);
                let returned = Instant::now();
                if let Some(tracer) = tracer {
                    tracer.span(
                        "update.submit",
                        None,
                        update_request(log_index),
                        sent,
                        returned,
                    );
                }
                match ticket {
                    Ticket::Server(t) => server_tickets.push(t),
                    Ticket::Fleet(t) => {
                        vis_tx
                            .send((updates.len(), t))
                            .expect("visibility watcher alive");
                    }
                }
                updates.push(UpdateRec {
                    log_index,
                    due,
                    sent,
                    returned,
                    visible_at: None,
                    repaired_at: None,
                    outcome: None,
                    submitted_at: None,
                });
                i += 1;
            }
        }
        drop(vis_tx);
        // Server tickets carry their batch outcome: the publication instants
        // are `apply_start` plus the stage durations.
        for (rec, ticket) in updates.iter_mut().zip(server_tickets) {
            let outcome = ticket.wait_applied();
            let stages = &outcome.timeline.stages;
            let first = stages.first().map_or(Duration::ZERO, |s| s.duration);
            rec.visible_at = Some(outcome.apply_start + first);
            rec.repaired_at = Some(outcome.apply_start + outcome.timeline.total());
            rec.submitted_at = Some(ticket.submitted_at());
            ledger.log[rec.log_index].version = Some(outcome.first_version);
            rec.outcome = Some(outcome);
        }
        let submitted_queries = queries.join().expect("query generator panicked");
        let visible = visible_watcher.join().expect("visibility watcher panicked");
        let applied = applied_watcher.join().expect("applied watcher panicked");
        (submitted_queries, updates, (visible, applied))
    });

    let (visible, applied) = fleet_times;
    for (i, at) in visible {
        updates[i].visible_at = Some(at);
    }
    for (i, version, at) in applied {
        updates[i].repaired_at = Some(at);
        ledger.log[updates[i].log_index].version = Some(version);
    }
    let queries = submitted_queries
        .into_iter()
        .map(|(index, due, sent, returned, outcome)| QueryRec {
            index,
            due,
            sent,
            returned,
            result: match outcome {
                SubmitOutcome::Accepted(ticket) => Some(ticket.wait_result()),
                _ => None,
            },
        })
        .collect();
    Phase {
        stream,
        seconds,
        start,
        queries,
        updates,
    }
}
