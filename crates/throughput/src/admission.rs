//! Admission control for the batched serving front-end: what happens when
//! requests arrive faster than the [`DistanceService`](crate::DistanceService)
//! workers can answer them.
//!
//! An unbounded FIFO queue turns overload into *silent latency*: every
//! request is eventually answered, but the queue — and with it the
//! submit-to-answer latency of everything behind it — grows without bound.
//! Closed-loop benchmarks never see this (they only submit after the
//! previous answer returns); an open-loop arrival process does, immediately.
//! The [`AdmissionPolicy`] makes the overload decision explicit:
//!
//! | policy | queue | overload behaviour | latency under overload |
//! |---|---|---|---|
//! | [`Block`](AdmissionPolicy::Block) | unbounded | everything queues | unbounded (collapse) |
//! | [`Shed`](AdmissionPolicy::Shed) | bounded at `max_depth` | excess rejected at submit | bounded by `max_depth × service time` |
//! | [`Deadline`](AdmissionPolicy::Deadline) | unbounded | stale work discarded | bounded by `budget` |
//!
//! Every rejection is explicit: [`SubmitOutcome`] tells the submitter
//! whether the batch was accepted (with a ticket), shed, or already expired,
//! and [`ServiceStats`] counts each path so reports can show queue depth,
//! shed rate, and deadline misses next to goodput.

use crate::service::BatchTicket;

/// The overload policy of a [`DistanceService`](crate::DistanceService)
/// queue (see the [module docs](self) for the policy matrix).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum AdmissionPolicy {
    /// Unbounded FIFO: every submitted batch is queued and eventually
    /// answered. Overload shows up as unbounded queueing latency — the
    /// legacy (and default) behaviour.
    #[default]
    Block,
    /// Bounded queue: a batch submitted while the queue already holds
    /// `max_depth` jobs is rejected with [`SubmitOutcome::Shed`].
    /// Queueing latency stays bounded by `max_depth` service times.
    Shed {
        /// Maximum number of queued (not yet executing) jobs.
        max_depth: usize,
    },
    /// Every batch carries the deadline `generated_at + budget`. Batches
    /// already expired at submission are rejected with
    /// [`SubmitOutcome::Expired`]; batches whose deadline passes while they
    /// wait in the queue are discarded by the workers *without being
    /// executed* and resolve to
    /// [`BatchResult::Expired`](crate::BatchResult::Expired).
    Deadline {
        /// Submit-to-answer latency budget.
        budget: std::time::Duration,
    },
}

impl AdmissionPolicy {
    /// Short label for reports (`"block"`, `"shed(64)"`, `"deadline(50ms)"`).
    pub fn label(&self) -> String {
        match self {
            AdmissionPolicy::Block => "block".to_string(),
            AdmissionPolicy::Shed { max_depth } => format!("shed({max_depth})"),
            AdmissionPolicy::Deadline { budget } => format!("deadline({budget:?})"),
        }
    }
}

/// The admission decision for one submitted batch; returned by
/// [`DistanceService::try_submit`](crate::DistanceService::try_submit).
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The batch was queued; the ticket yields its
    /// [`BatchResult`](crate::BatchResult).
    Accepted(BatchTicket),
    /// The queue was at its [`Shed`](AdmissionPolicy::Shed) bound; the batch
    /// was rejected without being queued.
    Shed,
    /// The batch's [`Deadline`](AdmissionPolicy::Deadline) had already
    /// passed at submission; it was rejected without being queued.
    Expired,
}

impl SubmitOutcome {
    /// The ticket, when accepted.
    pub fn ticket(self) -> Option<BatchTicket> {
        match self {
            SubmitOutcome::Accepted(t) => Some(t),
            _ => None,
        }
    }

    /// The ticket; panics when the batch was rejected.
    ///
    /// # Panics
    ///
    /// Panics on [`SubmitOutcome::Shed`] / [`SubmitOutcome::Expired`].
    pub fn expect_accepted(self) -> BatchTicket {
        match self {
            SubmitOutcome::Accepted(t) => t,
            other => panic!("batch was not accepted: {other:?}"),
        }
    }
}

/// Counters of every admission and execution path of a
/// [`DistanceService`](crate::DistanceService), snapshotted by
/// [`DistanceService::stats`](crate::DistanceService::stats).
///
/// Invariant: `submitted = accepted + shed + expired_at_submit`, and every
/// accepted job resolves exactly once as answered, expired-in-queue, or
/// abandoned-at-shutdown.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Batches offered to the service (all `submit*` calls).
    pub submitted: u64,
    /// Batches admitted to the queue.
    pub accepted: u64,
    /// Batches rejected at submit because the queue was at its bound.
    pub shed: u64,
    /// Batches rejected at submit because their deadline had passed.
    pub expired_at_submit: u64,
    /// Accepted batches discarded unexecuted because their deadline passed
    /// while they waited in the queue.
    pub expired_in_queue: u64,
    /// Accepted batches discarded unexecuted by a shedding shutdown.
    pub abandoned: u64,
    /// Batches answered by a worker.
    pub answered: u64,
    /// Total `(s, t)` pairs inside answered batches (goodput numerator).
    pub answered_pairs: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
}

/// What [`DistanceService::shutdown`](crate::DistanceService::shutdown) did
/// with the jobs still queued when shutdown was flagged.
#[derive(Clone, Copy, Debug)]
pub struct ShutdownReport {
    /// Jobs still queued at shutdown that were drained — executed and
    /// answered — before the workers exited (the
    /// [`Block`](AdmissionPolicy::Block) path).
    pub drained: usize,
    /// Jobs still queued at shutdown that were discarded unexecuted, their
    /// tickets resolved to
    /// [`BatchResult::Abandoned`](crate::BatchResult::Abandoned) (the
    /// [`Shed`](AdmissionPolicy::Shed) / [`Deadline`](AdmissionPolicy::Deadline)
    /// path).
    pub abandoned: usize,
}
