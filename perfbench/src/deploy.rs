//! The system under test behind one interface: a single PostMHL
//! `RoadNetworkServer`, or a 4-shard PostMHL `ShardedFleet` with its query
//! service. Set-up and restart are timed here.

use htsp_graph::dimacs::load_dimacs_streaming_file;
use htsp_graph::{EdgeUpdate, Graph, Query, VertexId};
use htsp_throughput::{
    AdmissionPolicy, AlgorithmKind, BatchAnswer, DistanceService, FleetConfig, FleetTicket,
    QueryBatch, RoadNetworkServer, ShardedFleet, UpdateTicket,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Shards of the fleet deployment.
pub const FLEET_SHARDS: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Server,
    Fleet,
}

pub enum Deployment {
    Server(RoadNetworkServer),
    Fleet {
        // Declared first so the service stops before the fleet it queries.
        service: DistanceService,
        fleet: ShardedFleet,
    },
}

/// A submitted update's acknowledgement.
pub enum Ticket {
    Server(UpdateTicket),
    Fleet(Arc<FleetTicket>),
}

/// What one timed start produced.
pub struct Started {
    pub deployment: Deployment,
    /// Opening the file (or snapshot) to the first answer.
    pub seconds: f64,
    /// Ingest share of `seconds` (streaming load + graph materialisation).
    pub ingest_seconds: f64,
    /// The graph as loaded; edge ids are the loader's.
    pub graph: Graph,
    /// The answer to the probe query.
    pub first: BatchAnswer,
}

pub fn workers() -> usize {
    htsp_graph::available_parallelism().max(1)
}

fn first_answer(dep: &Deployment, s: VertexId, t: VertexId) -> BatchAnswer {
    dep.service()
        .answer(QueryBatch::PointToPoint(vec![Query::new(s, t)]))
}

/// Opens the DIMACS file, stream-ingests it, builds PostMHL, starts the
/// deployment, and answers one query.
pub fn start_from_dimacs(kind: Kind, path: &Path, probe: (VertexId, VertexId)) -> Started {
    let t0 = Instant::now();
    let csr = load_dimacs_streaming_file(path).expect("benchmark DIMACS file must load");
    let graph = csr.to_graph();
    drop(csr);
    let ingest_seconds = t0.elapsed().as_secs_f64();
    let deployment = match kind {
        Kind::Server => Deployment::Server(
            RoadNetworkServer::builder()
                .algorithm(AlgorithmKind::PostMhl)
                .query_workers(workers())
                .start(&graph),
        ),
        Kind::Fleet => {
            let fleet = ShardedFleet::start(
                &graph,
                FleetConfig::new(FLEET_SHARDS, AlgorithmKind::PostMhl),
            );
            let service = fleet.start_query_service(workers(), AdmissionPolicy::Block);
            Deployment::Fleet { service, fleet }
        }
    };
    let answer = first_answer(&deployment, probe.0, probe.1);
    Started {
        deployment,
        seconds: t0.elapsed().as_secs_f64(),
        ingest_seconds,
        graph,
        first: answer,
    }
}

impl Deployment {
    pub fn kind(&self) -> Kind {
        match self {
            Deployment::Server(_) => Kind::Server,
            Deployment::Fleet { .. } => Kind::Fleet,
        }
    }

    pub fn service(&self) -> &DistanceService {
        match self {
            Deployment::Server(server) => server
                .query_service()
                .expect("the server is started with query workers"),
            Deployment::Fleet { service, .. } => service,
        }
    }

    pub fn submit(&self, update: EdgeUpdate) -> Ticket {
        match self {
            Deployment::Server(server) => Ticket::Server(server.submit(update)),
            Deployment::Fleet { fleet, .. } => Ticket::Fleet(Arc::new(fleet.submit(update))),
        }
    }

    /// Blocks until every submitted update is applied and published.
    pub fn quiesce(&self) {
        match self {
            Deployment::Server(server) => server.feed().wait_idle(),
            Deployment::Fleet { fleet, .. } => fleet.wait_idle(),
        }
    }

    pub fn shutdown(self) {
        match self {
            Deployment::Server(server) => {
                server.shutdown();
            }
            Deployment::Fleet { service, fleet } => {
                service.shutdown();
                fleet.shutdown();
            }
        }
    }
}

/// A timed restart: the running deployment is saved and dropped, and
/// `seconds` runs from opening the saved file to the first answer,
/// checked by the caller's `verify`.
pub struct Restarted {
    pub deployment: Deployment,
    pub save_seconds: f64,
    pub saved_bytes: u64,
    pub seconds: f64,
    /// Whether the first answer after the restart was right.
    pub verified: bool,
}

/// Persists and restarts `dep`. The server goes through `save_snapshot` /
/// `start_from_snapshot`; the fleet has no snapshot format, so it persists
/// its graph as DIMACS and restarts through `ShardedFleet::from_dimacs`.
/// `verify` answers whether a first answer is right; the restart clock
/// stops once it does.
pub fn restart(
    dep: Deployment,
    graph: &Graph,
    file: &Path,
    probe: (VertexId, VertexId),
    verify: &dyn Fn(&BatchAnswer) -> bool,
) -> Restarted {
    let t0 = Instant::now();
    match &dep {
        Deployment::Server(server) => server
            .save_snapshot(file)
            .expect("snapshot must be writable"),
        Deployment::Fleet { .. } => {
            htsp_graph::dimacs::write_gr_file(graph, file).expect("DIMACS must be writable")
        }
    }
    let save_seconds = t0.elapsed().as_secs_f64();
    let saved_bytes = std::fs::metadata(file).map(|m| m.len()).unwrap_or(0);
    let kind = dep.kind();
    dep.shutdown();
    let t1 = Instant::now();
    let deployment = match kind {
        Kind::Server => Deployment::Server(
            RoadNetworkServer::builder()
                .query_workers(workers())
                .start_from_snapshot(file)
                .expect("snapshot must restore"),
        ),
        Kind::Fleet => {
            let fleet = ShardedFleet::from_dimacs(
                file,
                FleetConfig::new(FLEET_SHARDS, AlgorithmKind::PostMhl),
            )
            .expect("fleet DIMACS must load");
            let service = fleet.start_query_service(workers(), AdmissionPolicy::Block);
            Deployment::Fleet { service, fleet }
        }
    };
    let answer = first_answer(&deployment, probe.0, probe.1);
    let verified = verify(&answer);
    let seconds = t1.elapsed().as_secs_f64();
    Restarted {
        deployment,
        save_seconds,
        saved_bytes,
        seconds,
        verified,
    }
}

/// Sleeps until `due` (never spins).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}
