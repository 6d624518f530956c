//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. See the library docs and
//! `perfbench/README.md`.

use perfbench::host::Stamp;
use perfbench::workload::{Workload, DEFAULT_RECORDS};
use perfbench::Opts;

const USAGE: &str = "usage: perfbench --workload <cluster_hot|local_wide|ingest_degraded> \
                     --seed <n> --seconds <s> --trace <0|1> [--records <n>]";

/// What the command line asks for.
enum Mode {
    /// An untraced (`false`) or traced (`true`) run.
    Run(bool),
    /// One timed set-up, printed as JSON (used by the untraced run).
    SetupOnly,
}

fn parse(args: &[String]) -> Result<(Opts, Mode), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut records = DEFAULT_RECORDS;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--records" => {
                records = value
                    .parse::<usize>()
                    .map_err(|e| format!("--records: {e}"))?;
                if records == 0 {
                    return Err("--records needs at least 1".into());
                }
            }
            "--setup-only" => setup_only = value == "1",
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let mode = if setup_only {
        Mode::SetupOnly
    } else {
        Mode::Run(trace.ok_or("--trace is required")?)
    };
    let opts = Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: match mode {
            Mode::SetupOnly => seconds.unwrap_or(0.0),
            Mode::Run(_) => seconds.ok_or("--seconds is required")?,
        },
        records,
        setup_exe: std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?,
        // Beside the build, inside the checkout the benchmark runs from.
        trace_dir: std::path::Path::new(
            &std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
        )
        .join("perfbench-traces"),
    };
    Ok((opts, mode))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, mode) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let traced = match mode {
        Mode::SetupOnly => {
            let t = perfbench::setup_once(&opts);
            println!("{{\"total_s\":{},\"insert_s\":{}}}", t.total_s, t.insert_s);
            return;
        }
        Mode::Run(traced) => traced,
    };
    let stamp = Stamp::collect();
    println!(
        "{}",
        stamp.to_json(opts.workload.name(), opts.seed, opts.records)
    );
    let outcome = if traced {
        perfbench::trace::run_traced(&opts)
    } else {
        perfbench::run_untraced(&opts)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for line in outcome.lines() {
        println!("{line}");
    }
    println!("{}", outcome.to_json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
