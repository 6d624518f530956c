//! Correctness gates, applied to every report outside the timed calls.
//!
//! Every workload checks coverage and, where the paper's §4.2 conditions
//! guarantee FX strict optimality for the query's pattern, that the
//! largest response equals the optimal bound. On top of that:
//!
//! * `cluster_hot` — each batch's `loadgen::reports_checksum` equals the
//!   checksum of a single-process `Executor::execute_batch` of the same
//!   queries (the reference);
//! * `local_wide` — per-query record counts equal `retrieve_serial` on a
//!   seeded sample of the queries;
//! * `ingest_degraded` — at the end of every round and of the run, the
//!   record count equals the set-up records plus the records inserted
//!   since set-up.

use crate::workload::{Bench, Workload};
use pmr_core::conditions::fx_pattern_guaranteed;
use pmr_core::optimality::optimal_bound;
use pmr_core::PartialMatchQuery;
use pmr_net::loadgen::{report_checksum, reports_checksum};
use pmr_rt::rng::Rng;
use pmr_storage::exec::{ExecutionReport, Executor};
use pmr_storage::CostModel;

/// Queries of the `local_wide` pool checked against `retrieve_serial`.
const SERIAL_SAMPLE: usize = 32;
/// The serial sample is drawn from the first batches of the pool, which
/// every run executes (see [`crate::run::MIN_BATCHES`]).
const SERIAL_SAMPLE_BATCHES: u64 = 4;

/// The per-workload reference a run is checked against.
pub enum Reference {
    /// Single-process reports for every pool query, per batch.
    Reports(Vec<Vec<ExecutionReport>>),
    /// `((batch, index), record count)` from `retrieve_serial`.
    SerialCounts(Vec<((usize, usize), usize)>),
    /// The record count the file must hold, given how many records were
    /// inserted since set-up: set-up records plus inserted ones.
    FinalCount {
        /// Records loaded at set-up.
        base: u64,
    },
}

impl Reference {
    /// Computes the workload's reference from the set-up file.
    pub fn compute(bench: &Bench, pool: &[Vec<PartialMatchQuery>]) -> Reference {
        match bench.wl {
            Workload::ClusterHot => {
                let exec = Executor::new(&bench.file, CostModel::main_memory());
                Reference::Reports(
                    pool.iter()
                        .map(|batch| exec.execute_batch(batch, &bench.policy))
                        .collect(),
                )
            }
            Workload::LocalWide => {
                let mut rng = Rng::stream(bench.seed, 0x5e41a1);
                let per_batch = pool[0].len();
                let sample = (0..SERIAL_SAMPLE)
                    .map(|_| {
                        let at = (
                            rng.below(SERIAL_SAMPLE_BATCHES.min(pool.len() as u64)) as usize,
                            rng.below(per_batch as u64) as usize,
                        );
                        let records = bench
                            .file
                            .retrieve_serial(&pool[at.0][at.1])
                            .expect("fault-free serial retrieval");
                        (at, records.len())
                    })
                    .collect();
                Reference::SerialCounts(sample)
            }
            Workload::IngestDegraded => Reference::FinalCount {
                base: bench.base_records,
            },
        }
    }
}

/// Accumulates check outcomes over a run.
pub struct Checker {
    /// Per pool query: the optimal bound when FX is guaranteed optimal
    /// for its pattern.
    optimal: Vec<Vec<Option<u64>>>,
    /// `cluster_hot`: per batch, the reference `reports_checksum` and
    /// per-query `report_checksum`s.
    reference_sums: Option<Vec<(u64, Vec<u64>)>>,
    /// `local_wide`: the record count first observed per pool query.
    observed_counts: Vec<Vec<Option<usize>>>,
    serial_counts: Vec<((usize, usize), usize)>,
    final_base: Option<u64>,
    /// Queries checked.
    pub attempted: u64,
    /// Queries that failed a check.
    pub failed: u64,
    /// Human-readable description of each distinct failure kind.
    pub notes: Vec<String>,
}

impl Checker {
    /// A checker for `pool` under `reference`.
    pub fn new(bench: &Bench, pool: &[Vec<PartialMatchQuery>], reference: Reference) -> Checker {
        let sys = bench.file.system();
        let assignment = bench.file.method().assignment();
        let optimal = pool
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|q| {
                        fx_pattern_guaranteed(assignment, q.pattern())
                            .then(|| optimal_bound(sys, q))
                    })
                    .collect()
            })
            .collect();
        let mut checker = Checker {
            optimal,
            reference_sums: None,
            observed_counts: pool.iter().map(|b| vec![None; b.len()]).collect(),
            serial_counts: Vec::new(),
            final_base: None,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        };
        match reference {
            Reference::Reports(batches) => {
                checker.reference_sums = Some(
                    batches
                        .iter()
                        .map(|b| (reports_checksum(b), b.iter().map(report_checksum).collect()))
                        .collect(),
                );
            }
            Reference::SerialCounts(counts) => checker.serial_counts = counts,
            Reference::FinalCount { base } => checker.final_base = Some(base),
        }
        checker
    }

    fn fail(&mut self, queries: u64, note: String) {
        self.failed += queries;
        self.notes_push(note);
    }

    /// Checks one batch's reports; `slot` is the batch's pool index.
    pub fn observe(&mut self, slot: usize, reports: &[ExecutionReport]) {
        let expected = self.optimal[slot].len();
        self.attempted += expected as u64;
        if reports.len() != expected {
            self.fail(
                expected as u64,
                format!(
                    "batch {slot}: {} reports for {expected} queries",
                    reports.len()
                ),
            );
            return;
        }
        let batch_ok = match &self.reference_sums {
            Some(sums) => reports_checksum(reports) == sums[slot].0,
            None => true,
        };
        for (j, report) in reports.iter().enumerate() {
            let mut ok = true;
            if report.coverage != 1.0 || !report.lost_buckets.is_empty() {
                ok = false;
                self.notes_push(format!("coverage {} < 1", report.coverage));
            }
            if let Some(bound) = self.optimal[slot][j] {
                if report.largest_response != bound {
                    ok = false;
                    self.notes_push(format!(
                        "largest response {} != optimal bound {bound} on a guaranteed pattern",
                        report.largest_response
                    ));
                }
            }
            if !batch_ok {
                // The batch checksum differs: find the queries that do.
                let want = self.reference_sums.as_ref().expect("batch checked")[slot].1[j];
                if report_checksum(report) != want {
                    ok = false;
                    self.notes_push(format!(
                        "batch {slot} query {j}: report differs from the single-process reference"
                    ));
                }
            }
            if self.final_base.is_none() {
                // Static data: a pool query returns the same records every
                // time it runs.
                let count = report.records.len();
                match self.observed_counts[slot][j] {
                    None => self.observed_counts[slot][j] = Some(count),
                    Some(first) if first != count => {
                        ok = false;
                        self.notes_push(format!(
                            "batch {slot} query {j}: {count} records, earlier {first}"
                        ));
                    }
                    Some(_) => {}
                }
            }
            if !ok {
                self.failed += 1;
            }
        }
    }

    fn notes_push(&mut self, note: String) {
        if self.notes.len() < 8 && !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }

    /// `ingest_degraded`: the file holds its set-up records plus every
    /// record inserted since set-up. Checked before each rebuild and at
    /// the end of the run.
    pub fn check_count(&mut self, bench: &Bench) {
        if let Some(base) = self.final_base {
            let want = base + bench.inserted();
            let got = bench.file.record_count();
            if got != want {
                // Every query ran against a file in the wrong state.
                let all = self.attempted.max(1);
                self.fail(all, format!("record_count {got}, expected {want}"));
            }
        }
    }

    /// End-of-run checks: the serial sample and the record count.
    pub fn finish(&mut self, bench: &Bench) {
        let serial = std::mem::take(&mut self.serial_counts);
        for ((slot, j), want) in serial {
            if let Some(got) = self.observed_counts[slot][j] {
                if got != want {
                    self.fail(
                        1,
                        format!("batch {slot} query {j}: {got} records, retrieve_serial {want}"),
                    );
                }
            }
        }
        self.check_count(bench);
        self.failed = self.failed.min(self.attempted.max(1));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}
