//! Correctness contract of the partition-sharded serving tier: every fleet
//! answer — local or cross-shard, for every algorithm of the registry —
//! must equal a global Dijkstra run on the fleet session's own epoch graph,
//! including while racing update batches are mid-maintenance.
//!
//! This is the sharded analogue of `tests/cross_algorithm_agreement.rs`:
//! the single-server tests pin one snapshot per index; here the pinned unit
//! is a *fleet epoch* (shard views + overlay + global graph), and exactness
//! additionally covers the boundary-detour concatenation of the cross-shard
//! query path (Theorem 2's overlay distance preservation).

use htsp::graph::{gen, EdgeId, EdgeUpdate, QuerySession, QuerySet, UpdateGenerator, VertexId};
use htsp::search::dijkstra_distance;
use htsp::{AlgorithmKind, CoalescePolicy, FleetConfig, ShardedFleet};

/// Checks a sample of local and cross-shard pairs of `session` against
/// Dijkstra on the session's own epoch graph.
fn assert_session_exact(session: &mut htsp::FleetSession, queries: &QuerySet, label: &str) {
    for q in queries {
        let got = session.distance(q.source, q.target);
        let expect = dijkstra_distance(session.graph(), q.source, q.target);
        assert_eq!(
            got,
            expect,
            "{label} (epoch {}): d({:?}, {:?}) mismatch",
            session.fleet_version(),
            q.source,
            q.target
        );
    }
}

#[test]
fn every_algorithm_is_exact_across_shards_and_updates() {
    let g = gen::grid_with_diagonals(10, 10, gen::WeightRange::new(2, 60), 0.15, 77);
    for kind in AlgorithmKind::ALL {
        let config = FleetConfig::new(3, kind).with_coalesce(CoalescePolicy::manual());
        let fleet = ShardedFleet::start(&g, config);
        assert_eq!(fleet.num_shards(), 3);
        let mut gen_upd = UpdateGenerator::new(9);
        for round in 0..3u64 {
            let mut session = fleet.session();
            let queries = QuerySet::random(session.graph(), 25, 1000 + round);
            assert_session_exact(&mut session, &queries, &fleet.algorithm());

            let batch = {
                let s = fleet.session();
                gen_upd.generate(s.graph(), 15)
            };
            fleet.router().submit_all(batch.as_slice().iter().copied());
            fleet.flush().wait_applied();
        }
        fleet.shutdown();
    }
}

#[test]
fn one_to_many_and_matrix_match_global_dijkstra() {
    let g = gen::grid(9, 9, gen::WeightRange::new(1, 30), 5);
    let fleet = ShardedFleet::start(&g, FleetConfig::new(4, AlgorithmKind::Dch));
    let mut session = fleet.session();
    let queries = QuerySet::random(session.graph(), 12, 42);
    let sources: Vec<_> = queries.iter().map(|q| q.source).collect();
    let targets: Vec<_> = queries.iter().map(|q| q.target).collect();

    let fan = session.one_to_many(sources[0], &targets);
    for (&t, &d) in targets.iter().zip(&fan) {
        assert_eq!(d, dijkstra_distance(session.graph(), sources[0], t));
    }
    let m = session.matrix(&sources[..3], &targets);
    for (&s, row) in sources[..3].iter().zip(&m) {
        for (&t, &d) in targets.iter().zip(row) {
            assert_eq!(d, dijkstra_distance(session.graph(), s, t));
        }
    }
    fleet.shutdown();
}

/// Serving a DIMACS network: for a written grid and for the bundled
/// fixture (an 8×8 grid with comments and blank lines interleaved, the way
/// real `.gr` files come), the streaming loader must agree with the
/// reference reader edge for edge, and a fleet started straight from the
/// file must serve exactly before and after an update round.
#[test]
fn fleet_from_dimacs_serves_exactly() {
    use htsp::graph::dimacs::{load_dimacs_streaming_file, read_gr_file, write_gr_file};
    let g = gen::grid(6, 6, gen::WeightRange::new(1, 20), 17);
    let dir = std::env::temp_dir().join("htsp_fleet_dimacs_test");
    std::fs::create_dir_all(&dir).unwrap();
    let written = dir.join("grid.gr");
    write_gr_file(&g, &written).unwrap();
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/smoke.gr");

    for path in [written.clone(), fixture] {
        let label = path.display().to_string();
        let reference = read_gr_file(&path).expect("reference reader");
        let csr = load_dimacs_streaming_file(&path).expect("streaming loader");
        assert_eq!(csr.num_vertices(), reference.num_vertices(), "{label}");
        // Edge ids may differ between the loaders, so compare by endpoints.
        let key = |u: VertexId, v: VertexId, w| (u.0.min(v.0), u.0.max(v.0), w);
        let mut expected: Vec<_> = reference.edges().map(|(_, u, v, w)| key(u, v, w)).collect();
        let mut streamed: Vec<_> = (0..csr.num_edges())
            .map(|i| {
                let e = EdgeId::from_index(i);
                let (u, v) = csr.edge_endpoints(e);
                key(u, v, csr.edge_weight(e))
            })
            .collect();
        expected.sort_unstable();
        streamed.sort_unstable();
        assert_eq!(streamed, expected, "{label}: loaders disagree");
        assert_eq!(
            csr.overflow_len(),
            0,
            "{label}: weights must quantize exactly"
        );

        let fleet = ShardedFleet::from_dimacs(&path, FleetConfig::new(2, AlgorithmKind::Dch))
            .expect("readable fixture");
        assert_eq!(fleet.num_shards(), 2);
        let mut session = fleet.session();
        assert_eq!(session.graph().num_vertices(), reference.num_vertices());
        let queries = QuerySet::random(session.graph(), 15, 3);
        assert_session_exact(&mut session, &queries, &label);

        let batch = {
            let s = fleet.session();
            UpdateGenerator::new(1).generate(s.graph(), 10)
        };
        fleet.router().submit_all(batch.as_slice().iter().copied());
        fleet.wait_idle();
        let mut after = fleet.session();
        let queries = QuerySet::random(after.graph(), 15, 4);
        assert_session_exact(&mut after, &queries, &format!("{label} after updates"));
        fleet.shutdown();
    }
    std::fs::remove_file(&written).ok();

    // The error path surfaces cleanly too.
    assert!(ShardedFleet::from_dimacs(dir.join("missing.gr"), FleetConfig::default()).is_err());
}

/// A pinned session must stay exact on *its* epoch graph even while racing
/// batches are being repaired underneath it, and tickets must report the
/// promised visibility components.
#[test]
fn pinned_epochs_stay_exact_under_racing_updates() {
    let g = gen::grid(12, 12, gen::WeightRange::new(2, 50), 21);
    let config = FleetConfig::new(4, AlgorithmKind::Dch).with_coalesce(CoalescePolicy::by_size(8));
    let fleet = ShardedFleet::start(&g, config);

    let mut gen_upd = UpdateGenerator::new(3);
    let batch = {
        let s = fleet.session();
        gen_upd.generate(s.graph(), 64)
    };
    // Pin a session on the pre-update epoch, then submit while querying.
    let mut session = fleet.session();
    let pinned = session.fleet_version();
    let tickets = fleet.router().submit_all(batch.as_slice().iter().copied());
    let queries = QuerySet::random(session.graph(), 30, 7);
    assert_session_exact(&mut session, &queries, "pinned mid-maintenance");
    assert_eq!(
        session.fleet_version(),
        pinned,
        "pinned session must not move"
    );

    for (ticket, update) in tickets.iter().zip(batch.iter()) {
        let vis = ticket.wait_visible();
        let (a, b) = {
            let s = fleet.session();
            s.graph().edge_endpoints(update.edge)
        };
        // Every update touches a shard or the overlay (or both); the ticket
        // must report at least one visibility component.
        assert!(
            vis.shard_version.is_some() || vis.fleet_version.is_some(),
            "update on edge ({a:?}, {b:?}) reported no visibility component"
        );
    }
    fleet.flush().wait_applied();
    assert!(fleet.epoch_version() > pinned);

    // A fresh session sees the fully updated weights.
    let mut fresh = fleet.session();
    let queries = QuerySet::random(fresh.graph(), 30, 8);
    assert_session_exact(&mut fresh, &queries, "post-update epoch");
    fleet.shutdown();
}

/// Updating *every* edge of the graph exercises both routing classes:
/// intra-partition updates (owned by one shard, `shard_version` set) and
/// inter-partition updates (owned by the overlay alone, epoch-only
/// visibility) — and the fleet must stay exact afterwards.
#[test]
fn intra_and_inter_partition_updates_are_served_exactly() {
    let g = gen::grid(8, 8, gen::WeightRange::new(2, 20), 11);
    let fleet = ShardedFleet::start(
        &g,
        FleetConfig::new(4, AlgorithmKind::BiDijkstra).with_coalesce(CoalescePolicy::manual()),
    );
    let updates: Vec<EdgeUpdate> = {
        let s = fleet.session();
        s.graph()
            .edges()
            .map(|(e, _, _, w)| EdgeUpdate::new(e, w, w + 5))
            .collect()
    };
    let tickets = fleet.router().submit_all(updates);
    fleet.flush();
    let mut intra = 0usize;
    let mut inter = 0usize;
    for ticket in &tickets {
        let vis = ticket.wait_visible();
        match vis.shard_version {
            Some(_) => intra += 1,
            None => {
                // Overlay-owned: visibility must come from the epoch.
                assert!(vis.fleet_version.is_some());
                inter += 1;
            }
        }
    }
    assert!(intra > 0, "a 4-shard grid has intra-partition edges");
    assert!(inter > 0, "a 4-shard grid has inter-partition edges");
    fleet.wait_idle();

    let mut after = fleet.session();
    let queries = QuerySet::random(after.graph(), 20, 13);
    assert_session_exact(&mut after, &queries, "after full-graph update");
    fleet.shutdown();
}
