//! What the process costs and where it ran: process CPU time, peak
//! resident memory, and the host/build stamp printed with every result.

use std::path::Path;

/// Process-wide CPU time (user + system, all threads), in seconds.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on the 64-bit Linux targets this builds for),
    // and the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The stamp every result carries: where and how it was measured.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// Cargo profile the benchmark binary was built with.
    pub profile: &'static str,
    /// Git commit of the working directory, or `none` outside a repository.
    pub commit: String,
    /// FNV-1a digest of every file under `crates/` plus `Cargo.lock`, so a
    /// result names the exact source it measured even without git.
    pub source_digest: String,
}

impl Stamp {
    /// Collects the stamp from the working directory (the repository root).
    pub fn collect() -> Stamp {
        let run = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        let commit = if Path::new(".git").exists() {
            run("git", &["rev-parse", "HEAD"])
        } else {
            None
        };
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: commit.unwrap_or_else(|| "none".into()),
            source_digest: format!("{:016x}", source_digest()),
        }
    }

    /// One flat JSON object.
    pub fn to_json(&self, workload: &str, seed: u64, records: usize) -> String {
        format!(
            "{{\"event\":\"stamp\",\"workload\":\"{workload}\",\"seed\":{seed},\
             \"records\":{records},\"nproc\":{},\"rustc\":\"{}\",\"profile\":\"{}\",\
             \"commit\":\"{}\",\"source_digest\":\"{}\"}}",
            self.nproc, self.rustc, self.profile, self.commit, self.source_digest
        )
    }
}

fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.lock").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
