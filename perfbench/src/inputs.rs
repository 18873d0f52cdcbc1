//! The benchmark's own seeded input generators: graphs, the DIMACS file,
//! the query pair pool and batch shapes, Poisson schedules, and the update
//! stream. Nothing here calls the program's generators or load drivers, so
//! a change to those can never silently change the benchmark's input.

use htsp_graph::{Query, VertexId, Weight};
use htsp_throughput::QueryBatch;
use std::io::{BufWriter, Write};
use std::path::Path;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one run seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A `width × height` grid road network: every vertex links to its right
/// and lower neighbour, and a `diagonal_share` of the cells also get a
/// diagonal shortcut.
#[derive(Clone, Copy, Debug)]
pub struct GridSpec {
    pub width: usize,
    pub height: usize,
    pub diagonal_share: f64,
}

impl GridSpec {
    pub fn vertices(&self) -> usize {
        self.width * self.height
    }

    /// Undirected edges `(u, v, w)` with 0-based ids. Axis edges weigh
    /// 10..=99, diagonals 14..=140.
    fn edges(&self, seed: u64) -> Vec<(u32, u32, Weight)> {
        let mut rng = Rng::new(seed, 1);
        let id = |x: usize, y: usize| (y * self.width + x) as u32;
        let mut edges = Vec::with_capacity(self.vertices() * 2);
        for y in 0..self.height {
            for x in 0..self.width {
                if x + 1 < self.width {
                    edges.push((id(x, y), id(x + 1, y), 10 + rng.below(90) as Weight));
                }
                if y + 1 < self.height {
                    edges.push((id(x, y), id(x, y + 1), 10 + rng.below(90) as Weight));
                }
                if x + 1 < self.width && y + 1 < self.height && rng.unit() < self.diagonal_share {
                    edges.push((id(x, y), id(x + 1, y + 1), 14 + rng.below(127) as Weight));
                }
            }
        }
        edges
    }

    /// Writes the grid as a DIMACS `.gr` file, both arcs of every edge.
    pub fn write_dimacs(&self, seed: u64, path: &Path) -> std::io::Result<()> {
        let edges = self.edges(seed);
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "c perfbench grid {}x{} diagonals {} seed {seed}",
            self.width, self.height, self.diagonal_share
        )?;
        writeln!(w, "p sp {} {}", self.vertices(), 2 * edges.len())?;
        for (u, v, weight) in edges {
            writeln!(w, "a {} {} {weight}", u + 1, v + 1)?;
            writeln!(w, "a {} {} {weight}", v + 1, u + 1)?;
        }
        w.flush()
    }
}

/// The seeded pool every query batch draws its vertices from.
pub struct PairPool {
    pairs: Vec<(VertexId, VertexId)>,
}

/// Pairs in the pool.
pub const POOL_PAIRS: usize = 4096;

impl PairPool {
    pub fn new(num_vertices: usize, seed: u64) -> PairPool {
        let mut rng = Rng::new(seed, 2);
        let n = num_vertices as u64;
        let pairs = (0..POOL_PAIRS)
            .map(|_| {
                let s = rng.below(n);
                let mut t = rng.below(n);
                while t == s {
                    t = rng.below(n);
                }
                (VertexId(s as u32), VertexId(t as u32))
            })
            .collect();
        PairPool { pairs }
    }

    pub fn pair(&self, rng: &mut Rng) -> (VertexId, VertexId) {
        self.pairs[rng.below(self.pairs.len() as u64) as usize]
    }

    /// The first `k` pool pairs (a fixed sample for the per-layer probes).
    pub fn head(&self, k: usize) -> &[(VertexId, VertexId)] {
        &self.pairs[..k.min(self.pairs.len())]
    }
}

/// Batch `index` of the query stream with id `stream`: 60% are 8-pair
/// point-to-point bundles, 30% one-to-many with 32 targets, 10% 8×8
/// matrices. A batch is a pure function of its ids, so the verifier
/// regenerates it instead of keeping a copy.
pub fn query_batch(pool: &PairPool, seed: u64, stream: u64, index: u64) -> QueryBatch {
    let mut rng = Rng::new(seed ^ index.wrapping_mul(0x9E37_79B9), 1000 + stream);
    let pick = rng.below(10);
    if pick < 6 {
        QueryBatch::PointToPoint(
            (0..8)
                .map(|_| {
                    let (s, t) = pool.pair(&mut rng);
                    Query::new(s, t)
                })
                .collect(),
        )
    } else if pick < 9 {
        let source = pool.pair(&mut rng).0;
        let targets = (0..32).map(|_| pool.pair(&mut rng).1).collect();
        QueryBatch::OneToMany { source, targets }
    } else {
        let sources = (0..8).map(|_| pool.pair(&mut rng).0).collect();
        let targets = (0..8).map(|_| pool.pair(&mut rng).1).collect();
        QueryBatch::Matrix { sources, targets }
    }
}

/// The `(source, target)` pairs a batch asks for, in answer order.
pub fn batch_pairs(batch: &QueryBatch) -> Vec<(VertexId, VertexId)> {
    match batch {
        QueryBatch::PointToPoint(qs) => qs.iter().map(|q| (q.source, q.target)).collect(),
        QueryBatch::OneToMany { source, targets } => {
            targets.iter().map(|&t| (*source, t)).collect()
        }
        QueryBatch::Matrix { sources, targets } => sources
            .iter()
            .flat_map(|&s| targets.iter().map(move |&t| (s, t)))
            .collect(),
    }
}

/// Poisson arrival offsets (seconds from the phase start) at `rate` per
/// second over `seconds`.
pub fn poisson_offsets(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 8);
    if rate <= 0.0 {
        return out;
    }
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// Largest weight the update stream doubles to; beyond it, it halves.
const MAX_WEIGHT: Weight = 1 << 20;

/// The next update of the stream: a uniformly drawn edge whose weight is
/// halved or doubled, 50/50, as in the paper's update model.
pub fn next_update(rng: &mut Rng, weights: &[Weight]) -> (usize, Weight) {
    let e = rng.below(weights.len() as u64) as usize;
    let w = weights[e];
    let new = if rng.below(2) == 0 || w >= MAX_WEIGHT {
        (w / 2).max(1)
    } else {
        w * 2
    };
    (e, new)
}
