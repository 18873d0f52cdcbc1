//! The correctness gate. A seeded sample of answers, always including the
//! answers served mid-repair, is checked against Dijkstra on the graph of
//! the version that answered, rebuilt from the benchmark's own ledger. Any
//! wrong answer fails the run; it is never counted as a metric.

use crate::inputs::batch_pairs;
use crate::load::Ledger;
use htsp_graph::{Dist, EdgeId, Graph, VertexId};
use htsp_search::dijkstra_to_targets;
use htsp_throughput::QueryBatch;
use std::collections::BTreeMap;

/// One answer to check.
pub struct Sample {
    pub version: u64,
    pub pairs: Vec<(VertexId, VertexId)>,
    pub got: Vec<Dist>,
    /// Where the answer came from, for the failure message.
    pub origin: String,
}

impl Sample {
    pub fn new(version: u64, batch: &QueryBatch, got: Vec<Dist>, origin: String) -> Sample {
        Sample {
            version,
            pairs: batch_pairs(batch),
            got,
            origin,
        }
    }
}

fn dijkstra_answers(graph: &Graph, pairs: &[(VertexId, VertexId)]) -> Vec<Dist> {
    let mut by_source: BTreeMap<VertexId, Vec<VertexId>> = BTreeMap::new();
    for &(s, t) in pairs {
        by_source.entry(s).or_default().push(t);
    }
    let mut found: BTreeMap<(VertexId, VertexId), Dist> = BTreeMap::new();
    for (s, targets) in by_source {
        for (t, d) in targets.iter().zip(dijkstra_to_targets(graph, s, &targets)) {
            found.insert((s, *t), d);
        }
    }
    pairs.iter().map(|p| found[p]).collect()
}

/// Checks every sample; returns one message per wrong answer or broken
/// ledger invariant. `base` is the graph before any update.
pub fn check(base: &Graph, ledger: &Ledger, mut samples: Vec<Sample>) -> Vec<String> {
    let mut errors = Vec::new();
    let mut last = 0u64;
    for (i, logged) in ledger.log.iter().enumerate() {
        match logged.version {
            None => errors.push(format!("update {i} never became visible")),
            Some(v) if v < last => errors.push(format!(
                "update {i} is in version {v}, before an earlier update's version {last}"
            )),
            Some(v) => last = v,
        }
    }
    if !errors.is_empty() {
        return errors;
    }
    samples.sort_by_key(|s| s.version);
    let mut graph = base.clone();
    let mut applied = 0;
    for sample in &samples {
        while applied < ledger.log.len()
            && ledger.log[applied]
                .version
                .is_some_and(|v| v <= sample.version)
        {
            let logged = &ledger.log[applied];
            graph.set_edge_weight(EdgeId(logged.edge as u32), logged.new_weight);
            applied += 1;
        }
        let want = dijkstra_answers(&graph, &sample.pairs);
        for ((pair, got), want) in sample.pairs.iter().zip(&sample.got).zip(want) {
            if *got != want {
                errors.push(format!(
                    "{}: d({}, {}) = {:?} at version {}, Dijkstra says {:?}",
                    sample.origin, pair.0 .0, pair.1 .0, got, sample.version, want
                ));
            }
        }
    }
    errors
}

/// Checks that `graph`'s weights equal the ledger's.
pub fn graph_matches(graph: &Graph, ledger: &Ledger, what: &str) -> Option<String> {
    if graph.num_edges() != ledger.weights.len() {
        return Some(format!(
            "{what} has {} edges, the ledger {}",
            graph.num_edges(),
            ledger.weights.len()
        ));
    }
    let wrong = (0..graph.num_edges())
        .filter(|&e| graph.edge_weight(EdgeId(e as u32)) != ledger.weights[e])
        .count();
    (wrong > 0).then(|| format!("{what} differs from the ledger on {wrong} edges"))
}
