//! Each workload at a tiny size: the checks pass, and a perturbed
//! reference makes them fail.

use perfbench::check::{Checker, Reference};
use perfbench::run::{measure, next_ingest_step};
use perfbench::workload::{
    base_records, query_pool, setup, Bench, Workload, INGEST_STEP_RECORDS, ROUND_STEPS,
};
use perfbench::Opts;
use pmr_core::PartialMatchQuery;
use pmr_mkh::{Record, Value};

const RECORDS: usize = 3000;
const SEED: u64 = 7;

fn tiny(workload: Workload) -> Opts {
    Opts {
        workload,
        seed: SEED,
        seconds: 0.05,
        records: RECORDS,
        setup_exe: env!("CARGO_BIN_EXE_perfbench").into(),
        trace_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-traces"),
    }
}

fn tiny_bench(workload: Workload) -> (Bench, Vec<Vec<PartialMatchQuery>>) {
    let pool = query_pool(workload, SEED);
    let (bench, _) = setup(workload, SEED, base_records(SEED, RECORDS), &pool);
    (bench, pool)
}

/// Runs a short measured phase against `reference` and finishes the
/// checks; returns the checker.
fn checked_run(mut bench: Bench, pool: &[Vec<PartialMatchQuery>], reference: Reference) -> Checker {
    let mut checker = Checker::new(&bench, pool, reference);
    measure(&mut bench, pool, 0.02, &mut checker);
    checker.finish(&bench);
    checker
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for wl in Workload::ALL {
        let out = perfbench::run_untraced(&tiny(wl)).expect("run completes");
        assert!(out.correct, "{}: {:?}", wl.name(), out.notes);
        assert!(out.attempted > 0 && out.failed == 0, "{}", wl.name());
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                wl.name(),
                m.name,
                m.value
            );
        }
        let json = out.to_json();
        assert!(
            json.starts_with("{\"correct\":true,\"attempted\":"),
            "{json}"
        );
    }
}

#[test]
fn every_workload_passes_its_checks_traced() {
    for wl in Workload::ALL {
        let out = perfbench::trace::run_traced(&tiny(wl)).expect("run completes");
        assert!(out.correct, "{}: {:?}", wl.name(), out.notes);
        let get = |name: &str| out.metric(name).expect("metric reported");
        let cluster = wl == Workload::ClusterHot;
        let ingest = wl == Workload::IngestDegraded;
        for wire in [
            "wire.req_encode_us",
            "wire.req_decode_us",
            "wire.resp_encode_us",
            "wire.resp_decode_us",
            "wire.bytes_per_query",
        ] {
            assert_eq!(get(wire) > 0.0, cluster, "{}: {wire}", wl.name());
        }
        for ec in [
            "ec.encode_mb_s",
            "ec.reconstruct_us_per_bucket",
            "exec.reconstructions_per_query",
        ] {
            assert_eq!(get(ec) > 0.0, ingest, "{}: {ec}", wl.name());
        }
        assert_eq!(get("cache.invalidations_per_insert") > 0.0, ingest);
        for name in [
            "plan.us_per_query",
            "inverse.us_per_query",
            "read.hit_us",
            "read.miss_us",
            "decode.ns_per_record",
            "exec.us_per_query",
            "merge.us_per_query",
            "pool.roundtrip_us",
            "storage.space_amp",
        ] {
            assert!(get(name) > 0.0, "{}: {name}", wl.name());
        }
    }
}

#[test]
fn flipped_record_in_the_cluster_reference_fails_the_check() {
    let (bench, pool) = tiny_bench(Workload::ClusterHot);
    let Reference::Reports(mut reports) = Reference::compute(&bench, &pool) else {
        panic!("cluster_hot checks against reference reports");
    };
    let report = reports[0]
        .iter_mut()
        .find(|r| !r.records.is_empty())
        .expect("a query of the first batch returns records");
    report.records[0] = Record::new(vec![Value::Int(-1); 6]);
    let checker = checked_run(bench, &pool, Reference::Reports(reports));
    assert!(checker.failed > 0 && !checker.correct());
}

#[test]
fn wrong_serial_count_fails_the_local_check() {
    let (bench, pool) = tiny_bench(Workload::LocalWide);
    let Reference::SerialCounts(mut counts) = Reference::compute(&bench, &pool) else {
        panic!("local_wide checks against serial counts");
    };
    counts[0].1 += 1;
    let checker = checked_run(bench, &pool, Reference::SerialCounts(counts));
    assert!(checker.failed > 0 && !checker.correct());
}

#[test]
fn wrong_final_count_fails_the_ingest_check() {
    let (bench, pool) = tiny_bench(Workload::IngestDegraded);
    let base = bench.base_records + 1;
    let checker = checked_run(bench, &pool, Reference::FinalCount { base });
    assert!(checker.failed > 0 && !checker.correct());
}

#[test]
fn ingest_rounds_restart_from_the_set_up_file() {
    let (mut bench, pool) = tiny_bench(Workload::IngestDegraded);
    let reference = Reference::compute(&bench, &pool);
    let mut checker = Checker::new(&bench, &pool, reference);
    for _ in 0..ROUND_STEPS + 1 {
        let records = next_ingest_step(&mut bench, &pool, &mut checker);
        bench
            .file
            .insert_all_parallel(records)
            .expect("seeded records hash cleanly");
    }
    let step = ROUND_STEPS as u64;
    assert_eq!(bench.steps, step..step + 1, "numbering continues");
    assert_eq!(
        bench.file.record_count(),
        (RECORDS + INGEST_STEP_RECORDS) as u64
    );
    checker.finish(&bench);
    assert!(checker.failed == 0 && checker.notes.is_empty());
}
