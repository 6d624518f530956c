//! End-to-end and per-layer benchmark of the pmr service.
//!
//! One command builds the paper's Table 7 system (F = 8^6 buckets over
//! M = 32 devices, `FxDistribution::auto`, buddy mirroring, the default
//! page cache, 200,000 seeded records) and drives one named workload
//! closed-loop from one caller thread through the layers' public entry
//! points. Telemetry stays off; every report is checked outside the
//! timed calls. See `perfbench/README.md` for the workloads, the metrics
//! and which layer metric should move which end-to-end metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cluster_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a traced run on the same
//! data ([`trace`]). The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the process exits
//! nonzero when any check fails.

pub mod check;
pub mod host;
pub mod output;
pub mod run;
pub mod trace;
pub mod workload;

use check::{Checker, Reference};
use output::{Metric, Outcome};
use workload::{base_records, query_pool, setup, SetupTimes, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of timed calls in the measured phase.
    pub seconds: f64,
    /// Records bulk-loaded at set-up.
    pub records: usize,
    /// The benchmark's executable. Each timed set-up runs in a fresh
    /// child process of it (`--setup-only`), so every set-up starts from
    /// the same cold process and none leaves memory behind in the
    /// measured one.
    pub setup_exe: std::path::PathBuf,
    /// Directory the traced run writes its spans to.
    pub trace_dir: std::path::PathBuf,
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    pmr_rt::stats::percentile(&mut v, 50.0)
}

/// One set-up of the workload, timed, with telemetry off like the rest
/// of the untraced run; the `--setup-only` mode.
pub fn setup_once(opts: &Opts) -> SetupTimes {
    pmr_rt::obs::install(pmr_rt::obs::TraceConfig::Off).expect("disabling telemetry");
    let pool = query_pool(opts.workload, opts.seed);
    let records = base_records(opts.seed, opts.records);
    setup(opts.workload, opts.seed, records, &pool).1
}

/// [`SETUPS`] timed set-ups, one at a time, each in a child process.
fn timed_setups(opts: &Opts) -> Result<Vec<SetupTimes>, String> {
    (0..SETUPS)
        .map(|_| {
            let out = std::process::Command::new(&opts.setup_exe)
                .args(["--workload", opts.workload.name()])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--records", &opts.records.to_string()])
                .args(["--setup-only", "1"])
                .output()
                .map_err(|e| format!("starting a set-up process: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let fields = pmr_rt::obs::json::parse_object(text.trim()).unwrap_or_default();
            let get = |key: &str| {
                fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.as_num())
            };
            match (out.status.success(), get("total_s"), get("insert_s")) {
                (true, Some(total_s), Some(insert_s)) => Ok(SetupTimes { total_s, insert_s }),
                _ => Err(format!(
                    "set-up process failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                )),
            }
        })
        .collect()
}

/// The untraced run: [`SETUPS`] timed set-ups, then one set-up that is
/// measured closed-loop, then the end-to-end metrics.
pub fn run_untraced(opts: &Opts) -> Result<Outcome, String> {
    pmr_rt::obs::install(pmr_rt::obs::TraceConfig::Off).expect("disabling telemetry");
    let setups = timed_setups(opts)?;
    let wl = opts.workload;
    let pool = query_pool(wl, opts.seed);
    let (mut bench, _) = setup(wl, opts.seed, base_records(opts.seed, opts.records), &pool);
    // Read after set-up and warm-up, before the measured phase: on
    // `ingest_degraded` a peak taken later would include a round's growth
    // and the rebuild that briefly holds the old and the new file.
    let peak_rss = host::peak_rss_mib();
    let reference = Reference::compute(&bench, &pool);
    let mut checker = Checker::new(&bench, &pool, reference);
    let s = run::measure(&mut bench, &pool, opts.seconds, &mut checker);
    checker.finish(&bench);

    let mut sorted = s.batch_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let (tail_p, tail_ms) = run::tail(&sorted);
    let beyond = (sorted.len() as f64 * (1.0 - tail_p / 100.0)).floor();
    let insert_rps = if wl == Workload::IngestDegraded {
        s.window_median(|w| w.inserted as f64 / w.insert_s)
    } else {
        median(
            &setups
                .iter()
                .map(|t| opts.records as f64 / t.insert_s)
                .collect::<Vec<_>>(),
        )
    };
    let setup_s = median(&setups.iter().map(|t| t.total_s).collect::<Vec<_>>());
    let notes = vec![
        // Printed but not a gated metric: on a shared 2-vCPU host, phases
        // of CPU steal move the tail of the same code by 30-50% between
        // runs, beyond any bound the benchmark may set.
        format!(
            "batch_tail_ms {tail_ms} ms: p{tail_p} of {} batches, {beyond} beyond it (not gated)",
            sorted.len()
        ),
        format!(
            "qps and cpu_us_per_query are medians over {} windows of {} batches{}",
            s.windows.len(),
            wl.window_batches(),
            if wl == Workload::IngestDegraded {
                " (one round each, from the set-up file)"
            } else {
                ""
            }
        ),
        format!(
            "set-ups: {}",
            setups
                .iter()
                .map(|t| format!("{:.3}s (load {:.3}s)", t.total_s, t.insert_s))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!(
            "failed_frac {} ({} of {} queries)",
            checker.failed as f64 / checker.attempted.max(1) as f64,
            checker.failed,
            checker.attempted
        ),
    ];
    Ok(Outcome {
        correct: checker.correct(),
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            Metric::new(
                "qps",
                s.window_median(|w| w.queries as f64 / w.timed_s),
                "1/s",
            ),
            Metric::new(
                "batch_p50_ms",
                pmr_rt::stats::percentile_sorted(&sorted, 50.0),
                "ms",
            ),
            Metric::new(
                "cpu_us_per_query",
                s.window_median(|w| w.cpu_s * 1e6 / w.queries as f64),
                "us",
            ),
            Metric::new("insert_rps", insert_rps, "1/s"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mib", peak_rss, "MiB"),
        ],
        notes: notes.into_iter().chain(checker.notes).collect(),
    })
}
