//! The untraced closed loop: one caller thread issues the next batch
//! only when the previous one has returned. Only the calls into the
//! program are timed; input generation and checks run between them.

use crate::check::Checker;
use crate::host::process_cpu_s;
use crate::workload::{Bench, Workload};
use pmr_core::PartialMatchQuery;
use pmr_mkh::Record;
use std::time::Instant;

/// The replay and counting loops of the traced run execute at least
/// this many batches, so the checks that sample the start of the pool
/// always have something to check. (A measured phase runs whole
/// windows, which are longer.)
pub const MIN_BATCHES: usize = 4;

/// Totals of one window of the measured phase: a fixed number of
/// batches ([`Workload::window_batches`]), so every window does the same
/// work however fast the code runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Seconds of timed calls.
    pub timed_s: f64,
    /// Seconds inside `insert_all_parallel`.
    pub insert_s: f64,
    /// Queries executed.
    pub queries: u64,
    /// Records inserted.
    pub inserted: u64,
    /// Process CPU seconds during the timed calls.
    pub cpu_s: f64,
}

/// What one measured phase recorded.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Wall milliseconds of each `execute_batch` call.
    pub batch_ms: Vec<f64>,
    /// Per-window totals, in order.
    pub windows: Vec<Window>,
}

impl Samples {
    /// Sum of `f` over every window.
    pub fn total(&self, f: impl Fn(&Window) -> f64) -> f64 {
        self.windows.iter().map(f).sum()
    }

    /// Queries executed.
    pub fn queries(&self) -> u64 {
        self.windows.iter().map(|w| w.queries).sum()
    }

    /// Median over the windows of `f(window)`.
    pub fn window_median(&self, f: impl Fn(&Window) -> f64) -> f64 {
        crate::median(&self.windows.iter().map(f).collect::<Vec<_>>())
    }
}

/// Runs `f` as one timed call: `(result, wall seconds, process CPU
/// seconds)`.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu = process_cpu_s();
    let t = Instant::now();
    let r = f();
    let wall = t.elapsed().as_secs_f64();
    (r, wall, process_cpu_s() - cpu)
}

/// The records of the next `ingest_degraded` step. After a full round,
/// first checks the record count and rebuilds the file from its set-up
/// records (untimed), so every round covers the same file sizes.
pub fn next_ingest_step(
    bench: &mut Bench,
    pool: &[Vec<PartialMatchQuery>],
    checker: &mut Checker,
) -> Vec<Record> {
    if bench.round_full() {
        checker.check_count(bench);
        bench.rebuild(pool);
    }
    bench.next_step_records()
}

/// Runs the closed loop in whole windows until `seconds` of timed calls
/// have accumulated, checking every batch. `ingest_degraded` inserts one
/// step of fresh records before each batch; it must start on a file in
/// its set-up state, so that its windows are its rounds.
pub fn measure(
    bench: &mut Bench,
    pool: &[Vec<PartialMatchQuery>],
    seconds: f64,
    checker: &mut Checker,
) -> Samples {
    let per_window = bench.wl.window_batches();
    assert!(
        bench.wl != Workload::IngestDegraded || bench.steps.is_empty(),
        "ingest_degraded is measured from its set-up state"
    );
    let mut s = Samples::default();
    let mut i = 0usize;
    while s.windows.is_empty() || s.total(|w| w.timed_s) < seconds {
        let mut w = Window::default();
        for _ in 0..per_window {
            if bench.wl == Workload::IngestDegraded {
                let records = next_ingest_step(bench, pool, checker);
                w.inserted += records.len() as u64;
                let file = &mut bench.file;
                let ((), wall, cpu) = timed(|| {
                    file.insert_all_parallel(records)
                        .expect("seeded records hash cleanly");
                });
                w.insert_s += wall;
                w.timed_s += wall;
                w.cpu_s += cpu;
            }
            let slot = i % pool.len();
            let (reports, wall, cpu) = timed(|| bench.engine.execute(&pool[slot], &bench.policy));
            w.timed_s += wall;
            w.cpu_s += cpu;
            w.queries += pool[slot].len() as u64;
            s.batch_ms.push(wall * 1e3);
            checker.observe(slot, &reports);
            i += 1;
        }
        s.windows.push(w);
    }
    s
}

/// The batch-latency tail as `(percentile, value)`: the highest
/// percentile of [`TAIL_LADDER`] that leaves at least [`TAIL_BEYOND`]
/// batches beyond it, over every batch of the run (ascending in
/// `sorted_ms`). Falls back to the median on tiny samples.
pub fn tail(sorted_ms: &[f64]) -> (f64, f64) {
    let n = sorted_ms.len() as f64;
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| n * (1.0 - p / 100.0) >= TAIL_BEYOND)
        .unwrap_or(50.0);
    (p, pmr_rt::stats::percentile_sorted(sorted_ms, p))
}

/// Tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];
/// Batches a tail percentile must leave beyond it.
pub const TAIL_BEYOND: f64 = 10.0;
