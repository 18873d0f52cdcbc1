//! `htsp-experiments` — regenerates the tables and figures of the paper's
//! evaluation section (§VII) at laptop scale.
//!
//! Usage:
//!
//! ```text
//! htsp-experiments <experiment> [--full]
//!
//! experiments:
//!   datasets   Table I   — dataset statistics
//!   exp1       Fig. 10   — effect of partition number k on PMHL
//!   exp2       Fig. 11   — index performance comparison (t_c, |L|, t_q, t_u)
//!   exp3       Fig. 12   — throughput comparison across datasets
//!   exp4       Fig. 13   — evolution of QPS over the update interval
//!   exp5       Fig. 14   — effect of |U|, δt, R*_q
//!   exp6       Fig. 15   — speedup vs thread number
//!   exp7       Fig. 17   — effect of k_e on PostMHL
//!   exp8       Fig. 18   — effect of bandwidth τ on PostMHL
//!   all        run everything (the default)
//! ```
//!
//! `--full` uses the larger dataset presets (slower, closer to the paper's
//! relative gaps).

use htsp_core::{Pmhl, PmhlConfig, PostMhl, PostMhlConfig};
use htsp_graph::{gen, Graph, IndexMaintainer, QuerySet, SnapshotPublisher, UpdateGenerator};
use htsp_partition::TdPartitionConfig;
use htsp_throughput::{
    AlgorithmKind, BuildParams, CoalescePolicy, RoadNetworkServer, SystemConfig, ThroughputHarness,
    ThroughputResult,
};
use std::time::Instant;

/// A deferred algorithm constructor (used to time index construction).
type AlgorithmFactory<'a> = Box<dyn Fn() -> Box<dyn IndexMaintainer> + 'a>;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(|s| s.as_str()).unwrap_or("all");
    let full = args.iter().any(|a| a == "--full");
    match which {
        "datasets" => exp_datasets(),
        "exp1" => exp1_partition_number(full),
        "exp2" => exp2_index_performance(full),
        "exp3" => exp3_throughput(full),
        "exp4" => exp4_qps_evolution(full),
        "exp5" => exp5_parameter_sweeps(full),
        "exp6" => exp6_thread_scaling(full),
        "exp7" => exp7_postmhl_ke(full),
        "exp8" => exp8_postmhl_bandwidth(full),
        "all" => {
            exp_datasets();
            exp1_partition_number(full);
            exp2_index_performance(full);
            exp3_throughput(full);
            exp4_qps_evolution(full);
            exp5_parameter_sweeps(full);
            exp6_thread_scaling(full);
            exp7_postmhl_ke(full);
            exp8_postmhl_bandwidth(full);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}

fn experiment_graphs(full: bool) -> Vec<(String, Graph)> {
    if full {
        datasets()
    } else {
        default_experiment_graphs()
    }
}

/// The named experiment datasets: laptop-scale stand-ins for Table I.
fn datasets() -> Vec<(String, Graph)> {
    gen::Preset::all()
        .iter()
        .map(|p| (p.name().to_string(), p.build(42)))
        .collect()
}

/// A small/medium pair used by most experiments (keeps runtimes short).
fn default_experiment_graphs() -> Vec<(String, Graph)> {
    [gen::Preset::Tiny, gen::Preset::Small]
        .iter()
        .map(|p| (p.name().to_string(), p.build(42)))
        .collect()
}

/// Hosts one registry algorithm over `graph` in a measurement-friendly
/// [`RoadNetworkServer`]: manual flushing only (the harness forces its own
/// batch boundaries), no query workers.
fn host_algorithm(
    graph: &Graph,
    kind: AlgorithmKind,
    k: usize,
    threads: usize,
) -> RoadNetworkServer {
    RoadNetworkServer::builder()
        .algorithm(kind)
        .build_params(BuildParams::new(k, threads))
        .coalesce(CoalescePolicy::manual())
        .start(graph)
}

/// Runs the throughput harness for every algorithm in `kinds` (each hosted in
/// its own [`RoadNetworkServer`]) and returns the per-algorithm results.
fn run_throughput_comparison(
    graph: &Graph,
    kinds: &[AlgorithmKind],
    config: SystemConfig,
    k: usize,
    threads: usize,
    num_batches: usize,
) -> Vec<ThroughputResult> {
    let harness = ThroughputHarness::new(config, 7, num_batches);
    kinds
        .iter()
        .map(|&kind| {
            let server = host_algorithm(graph, kind, k, threads);
            let result = harness.run(&server);
            server.shutdown();
            result
        })
        .collect()
}

/// Formats one result row of the throughput comparison tables.
fn format_result_row(name: &str, r: &ThroughputResult) -> String {
    format!(
        "{:<12} | t_u = {:>9.4} s | t_q = {:>10.3} µs | |L| = {:>8.2} MB | λ*_q = {:>12.1} q/s",
        name,
        r.avg_update_time,
        r.avg_query_time * 1e6,
        r.index_size_bytes as f64 / (1024.0 * 1024.0),
        r.throughput(),
    )
}

fn laptop_config() -> SystemConfig {
    SystemConfig {
        update_volume: 200,
        update_interval: 120.0,
        max_response_time: 1.0,
        query_sample: 100,
    }
}

/// Table I: dataset statistics.
fn exp_datasets() {
    println!("\n=== Table I: datasets (synthetic stand-ins, see DESIGN.md) ===");
    println!("{:<16} {:>10} {:>10} {:>8}", "name", "|V|", "|E|", "deg");
    for (name, g) in datasets() {
        println!(
            "{:<16} {:>10} {:>10} {:>8.2}",
            name,
            g.num_vertices(),
            g.num_edges(),
            2.0 * g.num_edges() as f64 / g.num_vertices() as f64
        );
    }
}

/// Exp. 1 / Fig. 10: effect of the partition number k on PMHL throughput and
/// on the boundary size |B|.
fn exp1_partition_number(full: bool) {
    println!("\n=== Exp 1 (Fig. 10): effect of partition number k on PMHL ===");
    let (name, g) = &experiment_graphs(full)[0];
    println!("dataset: {name}");
    let harness = ThroughputHarness::new(laptop_config(), 7, 2);
    println!(
        "{:>5} {:>8} {:>14} {:>14}",
        "k", "|B|", "t_u (s)", "λ*_q (q/s)"
    );
    for k in [4usize, 8, 16, 32] {
        let pmhl = Pmhl::build(
            g,
            PmhlConfig {
                num_partitions: k,
                num_threads: 4,
                seed: 1,
            },
        );
        let boundary = pmhl.num_boundary();
        let server = RoadNetworkServer::host(g, Box::new(pmhl));
        let r = harness.run(&server);
        server.shutdown();
        println!(
            "{:>5} {:>8} {:>14.4} {:>14.1}",
            k,
            boundary,
            r.avg_update_time,
            r.throughput()
        );
    }
}

/// Exp. 2 / Fig. 11: index performance comparison (construction time, size,
/// query time, update time).
fn exp2_index_performance(full: bool) {
    println!("\n=== Exp 2 (Fig. 11): index performance comparison ===");
    for (name, g) in experiment_graphs(full) {
        println!("--- dataset {name} ({} vertices) ---", g.num_vertices());
        let queries = QuerySet::random(&g, 200, 11);
        let mut gen_upd = UpdateGenerator::new(5);
        let batch = gen_upd.generate(&g, 200);
        let mut updated = g.clone();
        updated.apply_batch(&batch);
        // Construction time is measured by rebuilding each algorithm.
        let specs: Vec<(&str, AlgorithmFactory)> = vec![
            (
                "DCH",
                Box::new(|| {
                    Box::new(htsp_baselines::DchBaseline::build(&g)) as Box<dyn IndexMaintainer>
                }),
            ),
            (
                "DH2H",
                Box::new(|| {
                    Box::new(htsp_baselines::Dh2hBaseline::build(&g)) as Box<dyn IndexMaintainer>
                }),
            ),
            (
                "N-CH-P",
                Box::new(|| Box::new(htsp_psp::NChP::build(&g, 8, 1)) as Box<dyn IndexMaintainer>),
            ),
            (
                "P-TD-P",
                Box::new(|| Box::new(htsp_psp::PTdP::build(&g, 8, 1)) as Box<dyn IndexMaintainer>),
            ),
            (
                "PMHL",
                Box::new(|| {
                    Box::new(Pmhl::build(
                        &g,
                        PmhlConfig {
                            num_partitions: 8,
                            num_threads: 4,
                            seed: 1,
                        },
                    )) as Box<dyn IndexMaintainer>
                }),
            ),
            (
                "PostMHL",
                Box::new(|| {
                    Box::new(PostMhl::build(&g, PostMhlConfig::default()))
                        as Box<dyn IndexMaintainer>
                }),
            ),
        ];
        println!(
            "{:<10} {:>12} {:>12} {:>14} {:>12}",
            "algorithm", "t_c (s)", "|L| (MB)", "t_q (µs)", "t_u (s)"
        );
        for (name, build) in specs {
            let t0 = Instant::now();
            let mut idx = build();
            let t_c = t0.elapsed().as_secs_f64();
            // Query time through one session on the current snapshot (the
            // serving hot path: scratch checked out once).
            let view = idx.current_view();
            let mut session = view.session();
            let t1 = Instant::now();
            for q in &queries {
                let _ = session.query(q);
            }
            let t_q = t1.elapsed().as_secs_f64() / queries.len() as f64;
            drop(session);
            drop(view);
            let publisher = SnapshotPublisher::new(idx.current_view());
            let timeline = idx.apply_batch(&updated, &batch, &publisher);
            println!(
                "{:<10} {:>12.3} {:>12.2} {:>14.2} {:>12.4}",
                name,
                t_c,
                idx.index_size_bytes() as f64 / (1024.0 * 1024.0),
                t_q * 1e6,
                timeline.total().as_secs_f64()
            );
        }
    }
}

/// Exp. 3 / Fig. 12: throughput comparison across datasets.
fn exp3_throughput(full: bool) {
    println!("\n=== Exp 3 (Fig. 12): throughput comparison ===");
    for (name, g) in experiment_graphs(full) {
        println!("--- dataset {name} ---");
        let results = run_throughput_comparison(&g, &AlgorithmKind::FAST, laptop_config(), 8, 4, 2);
        for r in &results {
            println!("{}", format_result_row(&r.algorithm, r));
        }
    }
}

/// Exp. 4 / Fig. 13: QPS evolution during the update interval.
fn exp4_qps_evolution(full: bool) {
    println!("\n=== Exp 4 (Fig. 13): QPS evolution over the update interval ===");
    let (name, g) = &experiment_graphs(full)[0];
    println!("dataset: {name}");
    let harness = ThroughputHarness::new(laptop_config(), 9, 1);
    for kind in AlgorithmKind::FAST {
        let server = host_algorithm(g, kind, 8, 4);
        let r = harness.run(&server);
        server.shutdown();
        let series: Vec<String> = r.batches[0]
            .qps_evolution
            .iter()
            .map(|p| format!("({:.4}s, {:.0} qps)", p.elapsed, p.qps))
            .collect();
        println!("{:<12} {}", r.algorithm, series.join(" -> "));
    }
}

/// Exp. 5 / Fig. 14: effect of update volume |U|, update interval δt, and QoS
/// response time R*_q on throughput.
fn exp5_parameter_sweeps(full: bool) {
    println!("\n=== Exp 5 (Fig. 14): parameter sweeps ===");
    let (name, g) = &experiment_graphs(full)[0];
    println!("dataset: {name}");
    println!("-- varying update volume |U| --");
    for volume in [50usize, 200, 500, 1000] {
        let cfg = SystemConfig {
            update_volume: volume,
            ..laptop_config()
        };
        let results = run_throughput_comparison(g, &AlgorithmKind::OURS, cfg, 8, 4, 1);
        for r in &results {
            println!("|U|={:>5}  {}", volume, format_result_row(&r.algorithm, r));
        }
    }
    println!("-- varying update interval δt --");
    for dt in SystemConfig::UPDATE_INTERVALS {
        let cfg = SystemConfig {
            update_interval: dt,
            ..laptop_config()
        };
        let results = run_throughput_comparison(g, &AlgorithmKind::OURS, cfg, 8, 4, 1);
        for r in &results {
            println!("δt={:>5}s  {}", dt, format_result_row(&r.algorithm, r));
        }
    }
    println!("-- varying QoS response time R*_q --");
    for rq in SystemConfig::RESPONSE_TIMES {
        let cfg = SystemConfig {
            max_response_time: rq,
            ..laptop_config()
        };
        let results = run_throughput_comparison(g, &AlgorithmKind::OURS, cfg, 8, 4, 1);
        for r in &results {
            println!("R*={:>4}s  {}", rq, format_result_row(&r.algorithm, r));
        }
    }
}

/// Exp. 6 / Fig. 15: update-time and throughput speedup versus thread count.
fn exp6_thread_scaling(full: bool) {
    println!("\n=== Exp 6 (Fig. 15): thread scaling ===");
    let (name, g) = &experiment_graphs(full)[0];
    println!("dataset: {name}");
    let harness = ThroughputHarness::new(laptop_config(), 5, 2);
    let max_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    let mut thread_counts = vec![1usize, 2, 4];
    if max_threads >= 8 {
        thread_counts.push(8);
    }
    println!(
        "{:>8} {:>16} {:>16} {:>14}",
        "threads", "PMHL t_u (s)", "PostMHL t_u (s)", "PostMHL λ*"
    );
    for &p in &thread_counts {
        let pmhl = Pmhl::build(
            g,
            PmhlConfig {
                num_partitions: 8,
                num_threads: p,
                seed: 1,
            },
        );
        let postmhl = PostMhl::build(
            g,
            PostMhlConfig {
                partitioning: TdPartitionConfig {
                    bandwidth: 16,
                    expected_partitions: 32,
                    beta_lower: 0.1,
                    beta_upper: 2.0,
                },
                num_threads: p,
            },
        );
        let pmhl_server = RoadNetworkServer::host(g, Box::new(pmhl));
        let r1 = harness.run(&pmhl_server);
        pmhl_server.shutdown();
        let postmhl_server = RoadNetworkServer::host(g, Box::new(postmhl));
        let r2 = harness.run(&postmhl_server);
        postmhl_server.shutdown();
        println!(
            "{:>8} {:>16.4} {:>16.4} {:>14.1}",
            p,
            r1.avg_update_time,
            r2.avg_update_time,
            r2.throughput()
        );
    }
}

/// Exp. 7 / Fig. 17: effect of the expected partition number k_e on PostMHL.
fn exp7_postmhl_ke(full: bool) {
    println!("\n=== Exp 7 (Fig. 17): effect of k_e on PostMHL ===");
    let (name, g) = &experiment_graphs(full)[0];
    println!("dataset: {name}");
    let harness = ThroughputHarness::new(laptop_config(), 5, 2);
    println!(
        "{:>6} {:>12} {:>14} {:>14}",
        "k_e", "partitions", "t_u (s)", "λ*_q (q/s)"
    );
    for ke in [4usize, 8, 16, 32, 64] {
        let idx = PostMhl::build(
            g,
            PostMhlConfig {
                partitioning: TdPartitionConfig {
                    bandwidth: 16,
                    expected_partitions: ke,
                    beta_lower: 0.1,
                    beta_upper: 2.0,
                },
                num_threads: 4,
            },
        );
        let parts = idx.num_partitions();
        let server = RoadNetworkServer::host(g, Box::new(idx));
        let r = harness.run(&server);
        server.shutdown();
        println!(
            "{:>6} {:>12} {:>14.4} {:>14.1}",
            ke,
            parts,
            r.avg_update_time,
            r.throughput()
        );
    }
}

/// Exp. 8 / Fig. 18: effect of the bandwidth τ on PostMHL.
fn exp8_postmhl_bandwidth(full: bool) {
    println!("\n=== Exp 8 (Fig. 18): effect of bandwidth τ on PostMHL ===");
    let (name, g) = &experiment_graphs(full)[0];
    println!("dataset: {name}");
    let harness = ThroughputHarness::new(laptop_config(), 5, 1);
    let queries = QuerySet::random(g, 100, 3);
    println!(
        "{:>6} {:>12} {:>18} {:>14} {:>14}",
        "τ", "|V(overlay)|", "Q3 t_q (µs)", "t_u (s)", "λ*_q (q/s)"
    );
    for tau in [6usize, 10, 16, 24, 32] {
        let idx = PostMhl::build(
            g,
            PostMhlConfig {
                partitioning: TdPartitionConfig {
                    bandwidth: tau,
                    expected_partitions: 32,
                    beta_lower: 0.1,
                    beta_upper: 2.0,
                },
                num_threads: 4,
            },
        );
        let overlay = idx.num_overlay_vertices();
        // Q-Stage 3 (post-boundary) query time, through a stage-pinned session.
        let view = idx.view_at_stage(2);
        let mut session = view.session();
        let t = Instant::now();
        for q in &queries {
            let _ = session.query(q);
        }
        let q3 = t.elapsed().as_secs_f64() / queries.len() as f64;
        drop(session);
        drop(view);
        let server = RoadNetworkServer::host(g, Box::new(idx));
        let r = harness.run(&server);
        server.shutdown();
        println!(
            "{:>6} {:>12} {:>18.2} {:>14.4} {:>14.1}",
            tau,
            overlay,
            q3 * 1e6,
            r.avg_update_time,
            r.throughput()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_presets_are_available() {
        let d = datasets();
        assert_eq!(d.len(), 4);
        for (name, g) in &d {
            assert!(!name.is_empty());
            assert!(g.num_vertices() >= 1000);
        }
    }

    #[test]
    fn algorithm_registry_builds_ours() {
        let g = gen::grid(8, 8, gen::WeightRange::new(1, 20), 3);
        let params = BuildParams::new(4, 2);
        let names: Vec<_> = AlgorithmKind::OURS
            .iter()
            .map(|kind| kind.build(&g, &params).name())
            .collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"PMHL"));
        assert!(names.contains(&"PostMHL"));
        assert_eq!(AlgorithmKind::ALL.len(), 9);
    }
}
