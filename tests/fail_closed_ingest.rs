//! Failing closed at ingest: a malformed update is rejected at the door
//! (its ticket fails at once and the maintainer never sees it), and a
//! panicking maintainer fails every ticket at once instead of leaving its
//! waiter blocked until shutdown.

use htsp::graph::{
    gen, EdgeId, EdgeUpdate, Graph, IndexMaintainer, QuerySet, QueryView, SnapshotPublisher,
    UpdateBatch, UpdateTimeline,
};
use htsp::search::dijkstra_distance;
use htsp::{
    AlgorithmKind, BuildParams, CoalescePolicy, FleetConfig, RoadNetworkServer, ShardedFleet,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a ticket may take to resolve before the test calls it hung.
const RESOLVE_BOUND: Duration = Duration::from_secs(5);

/// Runs `wait` on its own thread and reports whether it returned (`Some(true)`),
/// panicked (`Some(false)`), or was still blocked after [`RESOLVE_BOUND`]
/// (`None`). A blocked waiter is left behind rather than hanging the test.
fn resolves<R>(wait: impl FnOnce() -> R + Send + 'static) -> Option<bool> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let ok = catch_unwind(AssertUnwindSafe(wait)).is_ok();
        let _ = tx.send(ok);
    });
    rx.recv_timeout(RESOLVE_BOUND).ok()
}

#[test]
fn malformed_updates_are_rejected_and_ingest_stays_live() {
    let g = gen::grid(8, 8, gen::WeightRange::new(1, 20), 5);
    let server = RoadNetworkServer::builder()
        .algorithm(AlgorithmKind::Dch)
        .coalesce(CoalescePolicy::by_delay(Duration::from_millis(5)))
        .start(&g);
    let e = EdgeId::from_index(3);
    let w = g.edge_weight(e);
    for bad in [
        EdgeUpdate::new(EdgeId(999_999), 1, 5),
        EdgeUpdate::new(e, w, 0),
    ] {
        let ticket = Arc::new(server.submit(bad));
        let t = Arc::clone(&ticket);
        assert_eq!(
            resolves(move || t.wait_visible()),
            Some(false),
            "{bad:?} must fail its ticket at once"
        );
        assert_eq!(resolves(move || ticket.wait_applied()), Some(false));
    }

    // The feed is still live: a valid update after the rejected ones
    // becomes visible, and the index answers on it.
    let ticket = server.submit(EdgeUpdate::new(e, w, w + 7));
    assert_eq!(
        resolves(move || ticket.wait_visible()),
        Some(true),
        "a valid update after a rejected one must become visible"
    );
    let mut updated = g.clone();
    updated.set_edge_weight(e, w + 7);
    let view = server.snapshot();
    for q in &QuerySet::random(&g, 20, 9) {
        assert_eq!(
            view.distance(q.source, q.target),
            dijkstra_distance(&updated, q.source, q.target)
        );
    }
    server.shutdown();
}

#[test]
fn fleet_router_rejects_malformed_updates() {
    let g = gen::grid(8, 8, gen::WeightRange::new(1, 20), 5);
    let fleet = ShardedFleet::start(
        &g,
        FleetConfig::new(2, AlgorithmKind::Dch).with_coalesce(CoalescePolicy::manual()),
    );
    let router = fleet.router();
    let e = EdgeId::from_index(3);
    let w = g.edge_weight(e);
    let bad = [
        EdgeUpdate::new(EdgeId(999_999), 1, 5),
        EdgeUpdate::new(e, w, 0),
    ];
    for update in bad {
        let tickets = [
            router.submit(update),
            router
                .try_submit(update)
                .expect("an empty ingest queue sheds nothing"),
        ];
        for ticket in tickets {
            assert_eq!(
                resolves(move || ticket.wait_visible()),
                Some(false),
                "{update:?} must fail its fleet ticket at once"
            );
        }
    }
    assert_eq!(
        router.ingest_depth(),
        0,
        "rejected updates are never queued"
    );
    let ticket = router.submit(EdgeUpdate::new(e, w, w + 7));
    router.flush();
    assert_eq!(resolves(move || ticket.wait_visible()), Some(true));
    fleet.shutdown();
}

/// Delegates to a real index but panics inside `apply_batch` once the test
/// says so: it reports entering the repair, then waits for the go signal.
struct PanicsOnApply {
    inner: Box<dyn IndexMaintainer>,
    entered: mpsc::Sender<()>,
    go: Mutex<mpsc::Receiver<()>>,
}

impl IndexMaintainer for PanicsOnApply {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn apply_batch(
        &mut self,
        _graph: &Graph,
        _batch: &UpdateBatch,
        _publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        let _ = self.entered.send(());
        let _ = self.go.lock().unwrap().recv();
        panic!("injected maintainer failure");
    }

    fn current_view(&self) -> Arc<dyn QueryView> {
        self.inner.current_view()
    }
}

#[test]
fn maintainer_panic_fails_every_ticket_at_once() {
    let g = gen::grid(8, 8, gen::WeightRange::new(1, 20), 5);
    let (entered_tx, entered_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let maintainer = PanicsOnApply {
        inner: AlgorithmKind::Dch.build(&g, &BuildParams::default()),
        entered: entered_tx,
        go: Mutex::new(go_rx),
    };
    let server = RoadNetworkServer::builder()
        .maintainer(Box::new(maintainer))
        .coalesce(CoalescePolicy::manual())
        .start(&g);
    let e = EdgeId::from_index(3);
    let w = g.edge_weight(e);

    // One batch goes in flight and stops inside the repair; a second update
    // queues behind it. Then the repair panics.
    let in_flight = server.submit(EdgeUpdate::new(e, w, w + 1));
    let barrier = server.feed().flush();
    entered_rx
        .recv_timeout(RESOLVE_BOUND)
        .expect("the batch must reach the maintainer");
    let queued = server.submit(EdgeUpdate::new(e, w + 1, w + 2));
    go_tx.send(()).unwrap();

    let visible = Arc::new(in_flight);
    let applied = Arc::clone(&visible);
    assert_eq!(resolves(move || visible.wait_visible()), Some(false));
    assert_eq!(resolves(move || applied.wait_applied()), Some(false));
    assert_eq!(resolves(move || barrier.wait_applied()), Some(false));
    assert_eq!(resolves(move || queued.wait_visible()), Some(false));

    // The feed is shut down: later submissions and flushes fail at once.
    let later = server.submit(EdgeUpdate::new(e, w, w + 3));
    assert_eq!(resolves(move || later.wait_visible()), Some(false));
    let flush = server.feed().flush();
    assert_eq!(resolves(move || flush.wait_applied()), Some(false));
    let feed = server.feed().clone();
    assert_eq!(resolves(move || feed.wait_idle()), Some(true));

    // Queries keep being served from the last published snapshot, and
    // shutdown reports the maintenance thread's panic.
    for q in &QuerySet::random(&g, 10, 3) {
        assert_eq!(
            server.distance(q.source, q.target),
            dijkstra_distance(&g, q.source, q.target)
        );
    }
    assert!(catch_unwind(AssertUnwindSafe(|| drop(server.shutdown()))).is_err());
}
