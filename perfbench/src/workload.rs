//! The three workloads: their inputs (all derived from the seed) and
//! their set-up (file build, bulk load, redundancy, engine start, warm-up).

use pmr_core::{FxDistribution, PartialMatchQuery, SystemConfig};
use pmr_mkh::{FieldType, Record, Schema, Value};
use pmr_net::{Cluster, ClusterConfig};
use pmr_rt::fault::FaultPlan;
use pmr_rt::rng::Rng;
use pmr_storage::exec::{ExecPolicy, ExecutionReport, Executor, Redundancy};
use pmr_storage::{CostModel, DeclusteredFile};
use std::sync::Arc;
use std::time::Instant;

/// The paper's Table 7 system: six fields of eight values, 32 devices.
pub const FIELDS: [u64; 6] = [8; 6];
/// Devices of the Table 7 system.
pub const DEVICES: u64 = 32;
/// Records bulk-loaded at set-up by default.
pub const DEFAULT_RECORDS: usize = 200_000;
/// Records inserted per `ingest_degraded` step.
pub const INGEST_STEP_RECORDS: usize = 1024;
/// `ingest_degraded` steps per round. Each round starts from the set-up
/// file (see [`Bench::rebuild`]), so the file sizes a round covers do not
/// depend on how fast the code runs.
pub const ROUND_STEPS: usize = 64;
/// Devices `ingest_degraded` runs with dead.
pub const DEAD_DEVICES: [u64; 2] = [3, 17];
/// Nodes of the `cluster_hot` cluster.
pub const NODES: usize = 4;

/// Seed streams, so each kind of input is independent of the others.
const STREAM_RECORDS: u64 = 1;
const STREAM_QUERIES: u64 = 2;
const STREAM_INGEST: u64 = 3;
const STREAM_HOT_VALUES: u64 = 4;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Narrow hot queries through the 4-node cluster frontend.
    ClusterHot,
    /// Wide queries on the single-process executor, larger than the cache.
    LocalWide,
    /// Inserts beside degraded reads under Reed-Solomon parity.
    IngestDegraded,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ClusterHot,
        Workload::LocalWide,
        Workload::IngestDegraded,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusterHot => "cluster_hot",
            Workload::LocalWide => "local_wide",
            Workload::IngestDegraded => "ingest_degraded",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Queries per `execute_batch` call.
    pub fn batch_size(self) -> usize {
        match self {
            Workload::ClusterHot | Workload::IngestDegraded => 64,
            Workload::LocalWide => 16,
        }
    }

    /// Inclusive range of unspecified fields per query.
    fn unspecified(self) -> (u64, u64) {
        match self {
            Workload::ClusterHot => (0, 1),
            Workload::LocalWide => (3, 4),
            Workload::IngestDegraded => (1, 2),
        }
    }

    /// Distinct batches generated up front and cycled through.
    fn pool_batches(self) -> usize {
        match self {
            Workload::ClusterHot => 256,
            Workload::LocalWide => 128,
            // One batch per step: every round runs the same queries.
            Workload::IngestDegraded => ROUND_STEPS,
        }
    }

    /// Batches per window of the measured phase. A window is a fixed
    /// amount of work: a whole pool pass on `cluster_hot`, a whole round
    /// on `ingest_degraded`.
    pub fn window_batches(self) -> usize {
        match self {
            Workload::ClusterHot => self.pool_batches(),
            Workload::LocalWide => 16,
            Workload::IngestDegraded => ROUND_STEPS,
        }
    }

    /// Batches run at the end of set-up to warm the plan cache, the page
    /// cache and the resident workers.
    fn warmup_batches(self) -> usize {
        match self {
            // The whole pool: the hot working set is then resident.
            Workload::ClusterHot => self.pool_batches(),
            Workload::LocalWide => 16,
            Workload::IngestDegraded => 8,
        }
    }

    /// The execution policy the workload runs under.
    pub fn policy(self) -> ExecPolicy {
        match self {
            Workload::IngestDegraded => ExecPolicy {
                redundancy: Redundancy::Parity { k: 4, r: 2 },
                ..ExecPolicy::default()
            },
            Workload::ClusterHot | Workload::LocalWide => ExecPolicy::default(),
        }
    }
}

/// The Table 7 system.
pub fn system() -> SystemConfig {
    SystemConfig::new(&FIELDS, DEVICES).expect("Table 7 system is valid")
}

/// `count` seeded records of six integer attributes, from stream
/// `stream` of `seed`.
fn records_from(seed: u64, stream: u64, count: usize) -> Vec<Record> {
    let mut rng = Rng::stream(seed, stream);
    (0..count)
        .map(|_| {
            Record::new(
                (0..FIELDS.len())
                    .map(|_| Value::Int(rng.gen_range(0..1_000_000i64)))
                    .collect(),
            )
        })
        .collect()
}

/// The records bulk-loaded at set-up.
pub fn base_records(seed: u64, count: usize) -> Vec<Record> {
    records_from(seed, STREAM_RECORDS, count)
}

/// The fresh records `ingest_degraded` inserts at `step`.
pub fn ingest_records(seed: u64, step: u64) -> Vec<Record> {
    records_from(seed, STREAM_INGEST << 32 | step, INGEST_STEP_RECORDS)
}

/// The workload's query batches: `pool_batches` batches of
/// `batch_size` queries, cycled through by the closed loop.
pub fn query_pool(wl: Workload, seed: u64) -> Vec<Vec<PartialMatchQuery>> {
    let sys = system();
    let fields = sys.num_fields();
    // `cluster_hot` draws specified values from a seeded half of each
    // field's values, so the pages it touches fit the page cache.
    let mut hot = Rng::stream(seed, STREAM_HOT_VALUES);
    let allowed: Vec<Vec<u64>> = (0..fields)
        .map(|f| {
            let mut values: Vec<u64> = (0..sys.field_size(f)).collect();
            if wl == Workload::ClusterHot {
                hot.shuffle(&mut values);
                values.truncate(values.len() / 2);
            }
            values
        })
        .collect();
    let (lo, hi) = wl.unspecified();
    let mut rng = Rng::stream(seed, STREAM_QUERIES << 8 | wl as u64);
    (0..wl.pool_batches())
        .map(|_| {
            (0..wl.batch_size())
                .map(|_| {
                    let unspecified = rng.gen_range(lo..=hi) as usize;
                    let mut positions: Vec<usize> = (0..fields).collect();
                    rng.shuffle(&mut positions);
                    let mut values: Vec<Option<u64>> = allowed
                        .iter()
                        .map(|vals| Some(vals[rng.below(vals.len() as u64) as usize]))
                        .collect();
                    for &p in &positions[..unspecified] {
                        values[p] = None;
                    }
                    PartialMatchQuery::new(&sys, &values).expect("generated query is valid")
                })
                .collect()
        })
        .collect()
}

/// The query engine a workload drives from its one caller thread.
pub enum Engine {
    /// The 4-node in-memory cluster, driven through its frontend.
    Cluster(Cluster<FxDistribution>),
    /// The single-process resident executor.
    Local(Executor<FxDistribution>),
}

impl Engine {
    /// Executes one batch through the engine's public entry point.
    pub fn execute(
        &self,
        batch: &[PartialMatchQuery],
        policy: &ExecPolicy,
    ) -> Vec<ExecutionReport> {
        match self {
            Engine::Cluster(cluster) => cluster.frontend().execute_batch(batch, policy),
            Engine::Local(exec) => exec.execute_batch(batch, policy),
        }
    }
}

/// A set-up workload, ready to run.
pub struct Bench {
    /// Which workload.
    pub wl: Workload,
    /// The seed every input came from.
    pub seed: u64,
    /// The declustered file.
    pub file: DeclusteredFile<FxDistribution>,
    /// The engine queries run on.
    pub engine: Engine,
    /// The policy queries run under.
    pub policy: ExecPolicy,
    /// Records loaded at set-up.
    pub base_records: u64,
    /// The `ingest_degraded` steps whose records the file holds beyond
    /// its set-up records. Steps are numbered across rebuilds, so no
    /// record repeats within a run.
    pub steps: std::ops::Range<u64>,
}

impl Bench {
    /// Records the file holds beyond its set-up records.
    pub fn inserted(&self) -> u64 {
        (self.steps.end - self.steps.start) * INGEST_STEP_RECORDS as u64
    }

    /// Whether the current `ingest_degraded` round has run all its steps.
    pub fn round_full(&self) -> bool {
        self.steps.end - self.steps.start >= ROUND_STEPS as u64
    }

    /// The records of the next `ingest_degraded` step.
    pub fn next_step_records(&mut self) -> Vec<Record> {
        let records = ingest_records(self.seed, self.steps.end);
        self.steps.end += 1;
        records
    }

    /// Sets the workload up again from its set-up records, warm-up
    /// included, keeping the step numbering: the next round starts from
    /// the file as set-up left it.
    pub fn rebuild(&mut self, pool: &[Vec<PartialMatchQuery>]) {
        let records = base_records(self.seed, self.base_records as usize);
        let (mut fresh, _) = setup(self.wl, self.seed, records, pool);
        fresh.steps = self.steps.end..self.steps.end;
        *self = fresh;
    }
}

/// Wall seconds of one set-up and of its bulk load.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// File build, bulk load, redundancy, engine start and warm-up.
    pub total_s: f64,
    /// Seconds inside `insert_all_parallel` for the bulk load.
    pub insert_s: f64,
}

/// Builds the workload from `records` (generated by the caller, outside
/// the timer) and warms it up on `pool`.
pub fn setup(
    wl: Workload,
    seed: u64,
    records: Vec<Record>,
    pool: &[Vec<PartialMatchQuery>],
) -> (Bench, SetupTimes) {
    let started = Instant::now();
    let sys = system();
    let mut schema = Schema::builder();
    for (i, &size) in FIELDS.iter().enumerate() {
        schema = schema.field(format!("f{i}"), FieldType::Int, size);
    }
    let schema = schema.devices(DEVICES).build().expect("Table 7 schema");
    let fx = FxDistribution::auto(sys).expect("FX distribution for Table 7");
    let mut file = DeclusteredFile::new(schema, fx, seed).expect("file for Table 7");
    file.enable_mirroring();
    let base_records = records.len() as u64;
    let load = Instant::now();
    file.insert_all_parallel(records)
        .expect("seeded records hash cleanly");
    let insert_s = load.elapsed().as_secs_f64();
    if wl == Workload::IngestDegraded {
        assert!(file.enable_parity(4, 2), "4+2 parity fits 32 devices");
        let plan = DEAD_DEVICES
            .iter()
            .fold(FaultPlan::new(seed), |plan, &d| plan.with_dead_device(d));
        file.install_fault_plan(Some(Arc::new(plan)));
    }
    let engine = match wl {
        Workload::ClusterHot => Engine::Cluster(Cluster::new(
            &file,
            CostModel::main_memory(),
            ClusterConfig {
                nodes: NODES,
                ..ClusterConfig::default()
            },
        )),
        Workload::LocalWide | Workload::IngestDegraded => {
            Engine::Local(Executor::new(&file, CostModel::main_memory()))
        }
    };
    let policy = wl.policy();
    for batch in pool.iter().cycle().take(wl.warmup_batches()) {
        std::hint::black_box(engine.execute(batch, &policy));
    }
    let bench = Bench {
        wl,
        seed,
        file,
        engine,
        policy,
        base_records,
        steps: 0..0,
    };
    let times = SetupTimes {
        total_s: started.elapsed().as_secs_f64(),
        insert_s,
    };
    (bench, times)
}
