//! The four workloads: what data they generate, how the system is set up for
//! them, and what one operation is. The collection is fixed per workload;
//! every request, the filter and the subspace are pure functions of `--seed`.
//! The program sees only the generated inputs.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bond::{BondError, Result};
use bond_datagen::{ClusteredConfig, CorelLikeConfig};
use bond_exec::batch::QueryOutcome;
use bond_exec::{
    Engine, EngineBuilder, PlannerKind, Priority, QuerySpec, RequestBatch, RuleKind, ScanMode,
    Server,
};
use vdstore::{Bitmap, DecomposedTable, StorageBackend};

use crate::names::WORKLOADS;
use crate::refscan::{Measure, Neighbour, RowMajor};
use crate::trace::{SpanId, Tracer, NO_SPAN};

/// The k of every plain request (the paper's k = 10).
pub const K: usize = 10;
/// The k of the weighted-subspace request of a burst.
pub const SUBSPACE_K: usize = 50;
/// Requests per `batch_large` batch and per `burst_mixed_mmap` burst.
pub const GROUP: usize = 8;
/// Bits of the code companion set-up builds where codes are used.
pub const CODE_BITS: u8 = 8;
/// Seed of every measured collection. The collection is the one input
/// `--seed` does not drive: with a seeded collection the same code measured
/// 10–23 % apart from seed to seed (cluster geometry moves the pruning power
/// and the code-rebuild rate), a spread no regression bound survives. The
/// requests asked of it — which rows are the queries, which rows pass the
/// filter, which dimensions the subspace keeps, the order within a burst —
/// all come from `--seed`, and no query is asked twice on purpose.
pub const DATA_SEED: u64 = 2002;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Server::submit` → `Ticket::wait`, one request at a time, small
    /// histogram collection, exact scan.
    ServeSmall,
    /// Direct `Engine::search_spec`, large clustered collection, quantized
    /// filter.
    ScanLarge,
    /// `Engine::execute` on batches of [`GROUP`] over `ScanLarge`'s inputs.
    BatchLarge,
    /// Store reopened memory-mapped behind a `Server`; bursts of [`GROUP`]
    /// mixed requests.
    BurstMixedMmap,
}

impl Kind {
    /// Every workload, in [`crate::names::WORKLOADS`] order.
    pub const ALL: [Kind; 4] =
        [Kind::ServeSmall, Kind::ScanLarge, Kind::BatchLarge, Kind::BurstMixedMmap];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The base measure the workload's default rule ranks by — and the one
    /// its reference scan computes.
    pub fn measure(self) -> Measure {
        match self {
            Kind::ServeSmall => Measure::Intersection,
            _ => Measure::SquaredEuclidean,
        }
    }

    /// Whether requests go through a `Server` (else straight to the engine).
    pub fn served(self) -> bool {
        matches!(self, Kind::ServeSmall | Kind::BurstMixedMmap)
    }

    /// Requests per operation.
    pub fn group(self) -> usize {
        self.pattern().len()
    }

    /// The flavours of one operation's requests; the order within an
    /// operation is the seed's.
    pub fn pattern(self) -> &'static [Flavour] {
        use Flavour::{Adaptive, Filtered, Plain, Subspace};
        match self {
            Kind::ServeSmall | Kind::ScanLarge => &[Plain],
            Kind::BatchLarge => &[Plain; GROUP],
            Kind::BurstMixedMmap => {
                &[Plain, Plain, Plain, Plain, Filtered, Filtered, Subspace, Adaptive]
            }
        }
    }

    /// The engine's default metric and pruning rule.
    pub fn rule(self) -> RuleKind {
        match self {
            Kind::ServeSmall => RuleKind::HistogramHh,
            _ => RuleKind::EuclideanEv,
        }
    }

    /// The engine's default scan mode.
    pub fn scan_mode(self) -> ScanMode {
        match self {
            Kind::ServeSmall => ScanMode::Exact,
            _ => ScanMode::QuantizedFilter,
        }
    }
}

/// Sizes of one workload instance. [`Shape::full`] is what the benchmark
/// measures; [`Shape::tiny`] drives the same code in the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Rows of the collection.
    pub rows: usize,
    /// Dimensions of the collection.
    pub dims: usize,
    /// Cluster centres (clustered collections only).
    pub clusters: usize,
    /// Row-range segments of the engine.
    pub partitions: usize,
    /// Operations per slice.
    pub ops_per_slice: usize,
    /// Least wall time of a slice's reference block, seconds.
    pub ref_block_s: f64,
    /// Seed of the collection ([`DATA_SEED`] in every measured run).
    pub data_seed: u64,
}

impl Shape {
    /// The measured sizes. Operations per slice put ~1.5 s of program work
    /// after each ≥ 0.25 s reference block on the machine the benchmark was
    /// written on, so that a run holds at least twelve measured slices.
    pub fn full(kind: Kind) -> Shape {
        let base = Shape {
            rows: 0,
            dims: 0,
            clusters: 64,
            partitions: 8,
            ops_per_slice: 0,
            ref_block_s: 0.25,
            data_seed: DATA_SEED,
        };
        match kind {
            Kind::ServeSmall => Shape { rows: 20_000, dims: 32, ops_per_slice: 1300, ..base },
            Kind::ScanLarge => Shape { rows: 100_000, dims: 128, ops_per_slice: 28, ..base },
            Kind::BatchLarge => Shape { rows: 100_000, dims: 128, ops_per_slice: 10, ..base },
            Kind::BurstMixedMmap => Shape { rows: 60_000, dims: 64, ops_per_slice: 36, ..base },
        }
    }

    /// Sizes small enough for `cargo test`.
    pub fn tiny(kind: Kind) -> Shape {
        Shape {
            rows: 1500,
            dims: 16,
            clusters: 8,
            partitions: 4,
            ops_per_slice: if kind.group() == 1 { 8 } else { 3 },
            ref_block_s: 0.002,
            data_seed: DATA_SEED,
        }
    }
}

/// How one request of an operation differs from a plain top-k.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavour {
    /// Top-[`K`] under the engine defaults.
    Plain,
    /// Top-[`K`] among the rows of the shared 10 % filter.
    Filtered,
    /// Top-[`SUBSPACE_K`] under 0/1-weighted squared Euclidean distance.
    Subspace,
    /// Top-[`K`] with a per-request `PlannerKind::Adaptive`.
    Adaptive,
}

/// One request of an operation, as plain data: enough to build its
/// [`QuerySpec`] and to re-answer it by brute force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The row of the collection that is the query (the paper's protocol:
    /// queries are members of the collection).
    pub row: u32,
    /// What kind of request.
    pub flavour: Flavour,
}

/// Everything a run generates: the workload's fixed collection and what
/// `--seed` makes of it.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// Its sizes.
    pub shape: Shape,
    /// `--seed`: which rows are asked, in what order, under which filter
    /// and subspace.
    pub seed: u64,
    /// The collection as generated, row by row — the input of set-up.
    pub vectors: Vec<Vec<f64>>,
    /// The benchmark's own row-major copy: reference scan and oracle.
    pub flat: RowMajor,
    /// The shared 10 % eligibility filter of `burst_mixed_mmap`.
    pub filter: Arc<Bitmap>,
    /// The 0/1 subspace weights of `burst_mixed_mmap` (half the dimensions).
    pub subspace: Vec<f64>,
    /// Seconds the generator took (benchmark input; not part of set-up).
    pub datagen_s: f64,
}

/// SplitMix64: the benchmark's own stream for query rows, filters, weights
/// and mix order.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    /// Stream `index` of the family `salt` under `seed`.
    fn stream(seed: u64, salt: u64, index: u64) -> SplitMix {
        let base = SplitMix(seed ^ salt).next();
        SplitMix(base.wrapping_add(index.wrapping_mul(0xA24B_AED4_963E_E407)))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

const SALT_REQUESTS: u64 = 0x5EED_0001;
const SALT_FILTER: u64 = 0x5EED_0002;
const SALT_PROBES: u64 = 0x5EED_0003;
const SALT_ORDER: u64 = 0x5EED_0004;

impl Inputs {
    /// Generates the workload's collection (from [`Shape::data_seed`]) and
    /// the filter and subspace of `seed`.
    pub fn generate(kind: Kind, shape: Shape, seed: u64) -> Inputs {
        let started = Instant::now();
        let table = match kind {
            Kind::ServeSmall => {
                CorelLikeConfig::small(shape.rows, shape.dims).with_seed(shape.data_seed).generate()
            }
            _ => ClusteredConfig {
                vectors: shape.rows,
                dims: shape.dims,
                clusters: shape.clusters,
                cluster_major: true,
                seed: shape.data_seed,
                ..ClusteredConfig::default()
            }
            .generate(),
        };
        let datagen_s = started.elapsed().as_secs_f64();

        let vectors: Vec<Vec<f64>> =
            (0..table.rows()).map(|r| table.row(r as u32).expect("row in range")).collect();
        drop(table);
        let flat = RowMajor::from_vectors(&vectors);

        let mut rng = SplitMix::stream(seed, SALT_FILTER, 0);
        let mut filter = Bitmap::new(shape.rows);
        for row in 0..shape.rows {
            if rng.below(10) == 0 {
                filter.set(row as u32);
            }
        }
        // exactly half the dimensions carry weight 1
        let mut dims: Vec<usize> = (0..shape.dims).collect();
        rng.shuffle(&mut dims);
        let mut subspace = vec![0.0; shape.dims];
        for &d in &dims[..shape.dims.div_ceil(2)] {
            subspace[d] = 1.0;
        }
        Inputs { kind, shape, seed, vectors, flat, filter: Arc::new(filter), subspace, datagen_s }
    }

    /// The requests of operation `op` (operations are numbered through the
    /// slices): request `n` of the run — the `n`-th freshly drawn row of the
    /// seed's query stream, so `scan_large` and `batch_large` ask the same
    /// queries — takes slot `n % group` of operation `n / group`, and the
    /// seed orders the slots. A pure function of the seed and the index, so
    /// the oracle re-derives any operation instead of storing it.
    pub fn requests(&self, op: u64) -> Vec<Request> {
        let pattern = self.kind.pattern();
        let first = op * pattern.len() as u64;
        let mut requests: Vec<Request> = (first..)
            .zip(pattern)
            .map(|(n, &flavour)| {
                let row = SplitMix::stream(self.seed, SALT_REQUESTS, n).below(self.shape.rows);
                Request { row: row as u32, flavour }
            })
            .collect();
        SplitMix::stream(self.seed, SALT_ORDER, op).shuffle(&mut requests);
        requests
    }

    /// The `i`-th query of the seed's second stream: what the reference
    /// blocks and the layer probes ask, so that they never share a query
    /// with an operation.
    pub fn probe_query(&self, i: usize) -> &[f64] {
        self.flat.row(SplitMix::stream(self.seed, SALT_PROBES, i as u64).below(self.shape.rows))
    }

    /// The `k` a request asks for.
    pub fn k_of(&self, request: Request) -> usize {
        match request.flavour {
            Flavour::Subspace => SUBSPACE_K,
            _ => K,
        }
    }

    /// The [`QuerySpec`] the generator submits for `request`.
    pub fn spec(&self, request: Request) -> QuerySpec {
        let query = self.flat.row(request.row as usize).to_vec();
        let spec = QuerySpec::new(query, self.k_of(request));
        match request.flavour {
            Flavour::Plain if self.kind == Kind::BurstMixedMmap => {
                spec.priority(Priority::Interactive)
            }
            Flavour::Plain => spec,
            Flavour::Filtered => {
                spec.filter_shared(Arc::clone(&self.filter)).priority(Priority::Normal)
            }
            Flavour::Subspace => spec
                .rule(RuleKind::WeightedEuclidean(self.subspace.clone()))
                .priority(Priority::Batch),
            Flavour::Adaptive => spec.planner(PlannerKind::Adaptive),
        }
    }

    /// Whether `hits` is a right answer to `request`, by the oracle.
    pub fn oracle_accepts(&self, request: Request, hits: &[Neighbour]) -> bool {
        let (weights, filter) = match request.flavour {
            Flavour::Filtered => (None, Some(&*self.filter)),
            Flavour::Subspace => (Some(self.subspace.as_slice()), None),
            Flavour::Plain | Flavour::Adaptive => (None, None),
        };
        crate::refscan::answer_matches(
            &self.flat,
            self.kind.measure(),
            self.flat.row(request.row as usize),
            weights,
            filter,
            self.k_of(request),
            hits,
        )
    }
}

/// The system under test, set up for one workload.
#[derive(Debug)]
pub struct Sut {
    /// The engine — `threads(1)`: every engine pass runs inline on the
    /// thread that called it.
    pub engine: Engine,
    /// The server in front of it, for the served workloads.
    pub server: Option<Server>,
}

fn setup_error(e: impl std::fmt::Display) -> BondError {
    BondError::InvalidParams(format!("benchmark set-up: {e}"))
}

/// Builds the workload's engine with `threads` workers: over a table
/// decomposed from the generated vectors, or — given a `store` — over the
/// store file reopened memory-mapped.
pub fn build_engine(inputs: &Inputs, store: Option<&Path>, threads: usize) -> Result<Engine> {
    let kind = inputs.kind;
    let builder = match store {
        // the backend is passed explicitly: `VDSTORE_BACKEND` must not be
        // able to change what is measured
        Some(path) => EngineBuilder::open_with(path, StorageBackend::Mapped)?,
        None => {
            let table = DecomposedTable::from_vectors(kind.name(), &inputs.vectors)
                .map_err(BondError::Storage)?;
            Engine::builder(table).partitions(inputs.shape.partitions)
        }
    };
    builder
        .threads(threads)
        .rule(kind.rule())
        .scan_mode(kind.scan_mode())
        .planner(PlannerKind::Uniform)
        .build()
}

/// Writes the store `burst_mixed_mmap` reopens: the collection, its
/// partitioning, statistics and 8-bit codes. Not part of set-up time — that
/// workload's set-up is the cold start from this file.
pub fn write_store(inputs: &Inputs, path: &Path) -> Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(setup_error)?;
    }
    build_engine(inputs, None, 1)?.persist(path)
}

/// Sets the system up from the generated input to its first answer: the
/// span `setup_s` times. `store` is the file [`write_store`] left, for the
/// workload that starts from one.
pub fn set_up(inputs: &Inputs, store: Option<&Path>) -> Result<Sut> {
    let kind = inputs.kind;
    if (kind == Kind::BurstMixedMmap) != store.is_some() {
        return Err(setup_error("exactly burst_mixed_mmap starts from a store"));
    }
    let engine = build_engine(inputs, store, 1)?;
    if kind.scan_mode().uses_codes() {
        engine.ensure_codes(CODE_BITS)?;
    }
    let server = kind.served().then(|| Server::new(engine.clone()));
    let sut = Sut { engine, server };
    // the first answer: one request, through the workload's own entry point
    let first = &inputs.requests(0)[..1];
    let mut tracer = Tracer::with_capacity(0);
    let answers = sut.run_op(inputs, first, &mut tracer, 0)?;
    if answers.len() != 1 || answers[0].hits.is_empty() {
        return Err(setup_error("first answer is empty"));
    }
    Ok(sut)
}

impl Sut {
    /// Runs one operation the way the workload's client does and returns one
    /// outcome per request. Spans go to `tracer` (a no-op while it is off).
    pub fn run_op(
        &self,
        inputs: &Inputs,
        requests: &[Request],
        tracer: &mut Tracer,
        op: u64,
    ) -> Result<Vec<QueryOutcome>> {
        let specs: Vec<QuerySpec> = requests.iter().map(|&r| inputs.spec(r)).collect();
        self.run_specs(inputs.kind, specs, tracer, op)
    }

    /// [`Sut::run_op`] for specs built beforehand, so that building them
    /// stays outside the operation's latency.
    pub fn run_specs(
        &self,
        kind: Kind,
        specs: Vec<QuerySpec>,
        tracer: &mut Tracer,
        op: u64,
    ) -> Result<Vec<QueryOutcome>> {
        let root = tracer.begin("client.op", NO_SPAN, op);
        let result = self.dispatch(kind, specs, tracer, root, op);
        tracer.end(root);
        result
    }

    fn dispatch(
        &self,
        kind: Kind,
        mut specs: Vec<QuerySpec>,
        tracer: &mut Tracer,
        root: SpanId,
        op: u64,
    ) -> Result<Vec<QueryOutcome>> {
        match (kind, &self.server) {
            (Kind::ScanLarge, _) => {
                let spec = specs.pop().expect("one request per operation");
                let span = tracer.begin("engine.search", root, op);
                let outcome = self.engine.search_spec(&spec);
                tracer.end(span);
                Ok(vec![outcome?])
            }
            (Kind::BatchLarge, _) => {
                let batch = RequestBatch::from_specs(specs);
                let span = tracer.begin("engine.execute", root, op);
                let outcome = self.engine.execute(&batch);
                tracer.end(span);
                Ok(outcome?.queries)
            }
            (_, Some(server)) => {
                // everything is submitted before anything is awaited: one
                // request in flight on `serve_small`, a burst of eight on
                // `burst_mixed_mmap`
                let mut tickets = Vec::with_capacity(specs.len());
                for spec in specs {
                    let span = tracer.begin("service.submit", root, op);
                    let ticket = server.submit(spec);
                    tracer.end(span);
                    tickets.push(ticket?);
                }
                let mut outcomes = Vec::with_capacity(tickets.len());
                for ticket in tickets {
                    let span = tracer.begin("service.wait", root, op);
                    let outcome = ticket.wait();
                    tracer.end(span);
                    outcomes.push(outcome?);
                }
                Ok(outcomes)
            }
            (_, None) => Err(setup_error("served workload without a server")),
        }
    }
}

/// The hits of an outcome in the oracle's terms.
pub fn neighbours(outcome: &QueryOutcome) -> Vec<Neighbour> {
    outcome.hits.iter().map(|h| Neighbour { row: h.row, score: h.score }).collect()
}
