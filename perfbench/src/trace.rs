//! The traced run: per-layer numbers on the same data as the untraced
//! run, from spans the benchmark records around its calls into each
//! layer's public functions.
//!
//! A traced run has four phases, all on one set-up (built again between
//! `ingest_degraded` rounds):
//!
//! 1. **untraced** — the ordinary closed loop, the base of
//!    `trace.overhead_frac`;
//! 2. **replay** — each batch runs as its pipeline of layer calls, each
//!    call inside a span under one `batch` root span: `insert`
//!    (`ingest_degraded`), `plan` (`plan_query`), then either `exec`
//!    (`Executor::execute_planned`) or, for `cluster_hot`, per node
//!    `wire.req_encode` → `wire.req_decode` → `node.execute_planned` →
//!    `wire.resp_encode` → `wire.resp_decode`, and finally `merge`
//!    (`merge_device_yields`). The replayed reports go through the same
//!    checks as the untraced ones. Beside each batch, `probe` roots time
//!    the layers the pipeline calls only from inside the program:
//!    hashing, routing, inverse enumeration, page decode, Reed-Solomon
//!    encode and reconstruction, the resident-pool round trip, and (for
//!    `cluster_hot`) the real `Frontend::execute_batch` on the same batch;
//! 3. **counting** — the ordinary loop with the program's telemetry on,
//!    read only for its `cache.*` counters;
//! 4. **read probes** — `Device::read_bucket` timed cold (just after the
//!    cache was emptied) and warm (right after).
//!
//! A layer's self time is its span minus its child spans. The spans stay
//! in memory and are written as JSON lines when the run ends. On
//! `ingest_degraded` phases 1-3 run whole rounds from the set-up file
//! (see [`crate::run::next_ingest_step`]), so they see the same file sizes.
//!
//! `exec.self_us_per_query` is execution minus inverse enumeration and
//! page reads; the execution side is the process CPU inside the
//! execution spans, because the executor's workers run in parallel while
//! the inverse and read probes run serially.

use crate::check::{Checker, Reference};
use crate::host::process_cpu_s;
use crate::output::{Metric, Outcome};
use crate::run::{measure, next_ingest_step, MIN_BATCHES};
use crate::workload::{
    base_records, ingest_records, query_pool, setup, Bench, Engine, Workload, DEAD_DEVICES,
};
use crate::Opts;
use pmr_core::inverse::{for_each_device_code, FxInverse};
use pmr_core::method::DistributionMethod;
use pmr_core::{FxDistribution, PartialMatchQuery, SystemConfig};
use pmr_mkh::Record;
use pmr_net::wire::{
    decode_message, encode_message, GatherResponse, Message, ScatterRequest, WirePolicy, WireQuery,
};
use pmr_rt::ec::ReedSolomon;
use pmr_rt::obs;
use pmr_rt::pool::resident::ResidentPool;
use pmr_rt::rng::Rng;
use pmr_storage::cache::DEFAULT_CAPACITY;
use pmr_storage::device::Device;
use pmr_storage::encode::{decode_all_bytes, encode_one};
use pmr_storage::exec::{
    merge_device_yields, plan_query, DeviceYield, ExecPolicy, ExecutionReport, Executor,
    PlannedQuery,
};
use pmr_storage::parity::ParityStore;
use pmr_storage::CostModel;
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` each phase gets.
const UNTRACED_SHARE: f64 = 0.3;
const REPLAY_SHARE: f64 = 0.5;
const COUNTING_SHARE: f64 = 0.15;
/// Records hashed and routed by the probe of one batch (outside
/// `ingest_degraded`, whose probe uses the step's own records).
const PROBE_RECORDS: usize = 1024;
/// `(device, code)` pairs the per-batch decode/EC probes sample.
const PROBE_PAGES: usize = 256;
/// Pages the end-of-run read probe reads cold and then warm.
const READ_PROBE_PAGES: usize = 1024;
/// Resident-pool round trips per batch.
const POOL_ROUNDTRIPS: usize = 4;
/// Seed stream of the probe records.
const STREAM_PROBE: u64 = 9;

/// One recorded span.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// The batch the span belongs to.
    pub batch: u64,
    /// Items the call processed (queries, records, pages, bytes).
    pub items: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
pub(crate) struct Tracer {
    epoch: Instant,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, batch: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            batch,
            items: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, recording the items it processed.
    pub fn close(&mut self, id: usize, items: u64) {
        let end_ns = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.items = items;
    }

    /// `(total ns, total items, spans)` of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0, 0), |(ns, items, n), s| {
                (ns + s.ns(), items + s.items, n + 1)
            })
    }

    /// Durations of every span named `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Share of the `root` spans' time that no child span covers.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let self_ns = self.self_ns();
        let (mut own, mut total) = (0u64, 0u64);
        for (s, own_ns) in self.spans.iter().zip(self_ns) {
            if s.name == root && s.parent.is_none() {
                own += own_ns;
                total += s.ns();
            }
        }
        own as f64 / total.max(1) as f64
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                 \"batch\":{},\"items\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.batch,
                s.items
            )?;
        }
        Ok(())
    }
}

/// Runs `f` inside a span named `name` under `parent`.
fn span<R>(
    t: &mut Tracer,
    name: &'static str,
    parent: usize,
    batch: u64,
    f: impl FnOnce() -> (R, u64),
) -> R {
    let id = t.open(name, Some(parent), batch);
    let (r, items) = f();
    t.close(id, items);
    r
}

/// Sum of `bucket_reads` over `devices`.
fn bucket_reads(devices: &[Arc<Device>]) -> u64 {
    devices.iter().map(|d| d.bucket_reads()).sum()
}

/// Counts the replay accumulates beside its spans.
#[derive(Default)]
struct Tally {
    queries: u64,
    fast_path: u64,
    records: u64,
    reconstructions: u64,
    addresses: u64,
    qualified: u64,
    pages_read: u64,
    /// Process CPU seconds inside the execution spans (every worker's
    /// time, so it compares with the serial inverse and read probes).
    exec_cpu_s: f64,
    inserted: u64,
    requests: u64,
    responses: u64,
    wire_bytes: u64,
    /// Per cluster batch: real `Frontend::execute_batch` µs minus the
    /// replayed critical path.
    net_unattributed_us: Vec<f64>,
    /// Total µs of the real `Frontend::execute_batch` probes.
    net_real_us: f64,
    ec_bytes: u64,
}

/// What the replay needs besides the bench.
struct Replay {
    sys: SystemConfig,
    fx: FxDistribution,
    devices: Vec<Arc<Device>>,
    parity: Option<Arc<ParityStore>>,
    /// `cluster_hot`: one executor per node, over the node's devices.
    nodes: Vec<Executor<FxDistribution>>,
    /// Resident pool sized like the executor whose hand-offs it probes.
    pool: ResidentPool,
    rs: ReedSolomon,
}

impl Replay {
    fn new(bench: &Bench) -> Replay {
        let sys = bench.file.system().clone();
        let nodes: Vec<Executor<FxDistribution>> = match &bench.engine {
            Engine::Cluster(cluster) => {
                pmr_net::partition::contiguous(sys.devices(), cluster.nodes())
                    .into_iter()
                    .map(|range| {
                        Executor::for_device_range(&bench.file, CostModel::main_memory(), range)
                    })
                    .collect()
            }
            Engine::Local(_) => Vec::new(),
        };
        let workers = match &bench.engine {
            Engine::Cluster(_) => nodes[0].workers(),
            Engine::Local(exec) => exec.workers(),
        };
        Replay {
            fx: bench.file.method().clone(),
            devices: bench.file.devices().to_vec(),
            parity: bench.file.parity().cloned(),
            nodes,
            pool: ResidentPool::new(workers as usize),
            rs: ReedSolomon::new(4, 2).expect("4+2 geometry"),
            sys,
        }
    }

    /// Follows a rebuild of the file (`ingest_degraded` rounds): the
    /// probes read the bench's current devices and parity.
    fn sync(&mut self, bench: &Bench) {
        self.devices = bench.file.devices().to_vec();
        self.parity = bench.file.parity().cloned();
    }

    /// Codes of `planned` on `device`, through the path the plan chose.
    fn codes_on(&self, planned: &PlannedQuery, device: u64, out: &mut Vec<u64>) {
        if planned.fast_path {
            FxInverse::new(&self.fx, &planned.query).for_each_code_on(device, |c| out.push(c));
        } else {
            for_each_device_code(&self.fx, &self.sys, &planned.query, device, |c| out.push(c));
        }
    }

    /// An evenly spaced sample of at most `max` distinct `(device, code)`
    /// pages the planned queries read on devices `keep` accepts.
    fn page_sample(
        &self,
        planned: &[PlannedQuery],
        max: usize,
        keep: impl Fn(u64) -> bool,
    ) -> Vec<(u64, u64)> {
        let mut pages = Vec::new();
        let mut codes = Vec::new();
        for p in planned {
            for d in (0..self.sys.devices()).filter(|&d| keep(d)) {
                codes.clear();
                self.codes_on(p, d, &mut codes);
                pages.extend(codes.iter().map(|&c| (d, c)));
            }
        }
        pages.sort_unstable();
        pages.dedup();
        let stride = pages.len().div_ceil(max).max(1);
        pages.into_iter().step_by(stride).collect()
    }

    /// The cluster pipeline of one batch, node by node under `root`.
    fn cluster_batch(
        &self,
        t: &mut Tracer,
        root: usize,
        b: u64,
        planned: &[PlannedQuery],
        policy: &ExecPolicy,
        tally: &mut Tally,
    ) -> (Vec<ExecutionReport>, f64) {
        let frame = span(t, "wire.req_encode", root, b, || {
            let request = Message::Request(ScatterRequest {
                request_id: b,
                policy: WirePolicy::from_policy(policy),
                queries: planned.iter().map(WireQuery::from_planned).collect(),
                trace: None,
            });
            let frame = encode_message(&request);
            let n = frame.len() as u64;
            (frame, n)
        });
        tally.requests += 1;
        let mut per_node = Vec::with_capacity(self.nodes.len());
        // Critical path through the nodes: the slowest node's decode,
        // execution and response wire time.
        let mut critical_us = 0.0f64;
        for (n, exec) in self.nodes.iter().enumerate() {
            let mark = t.spans.len();
            let (node_planned, node_policy) = span(t, "wire.req_decode", root, b, || {
                let Ok(Message::Request(req)) = decode_message(&frame) else {
                    panic!("request frame decodes");
                };
                let planned: Vec<PlannedQuery> = req
                    .queries
                    .iter()
                    .map(|q| q.to_planned(&self.sys).expect("shipped query is valid"))
                    .collect();
                let n = planned.len() as u64;
                ((planned, req.policy.to_policy()), n)
            });
            let reads = bucket_reads(&self.devices);
            let cpu = process_cpu_s();
            let started = Instant::now();
            let yields = span(t, "node.execute_planned", root, b, || {
                let y = exec.execute_planned(&node_planned, &node_policy);
                let n = y.len() as u64;
                (y, n)
            });
            let busy_us = started.elapsed().as_micros() as u64;
            tally.exec_cpu_s += process_cpu_s() - cpu;
            tally.pages_read += bucket_reads(&self.devices) - reads;
            let resp_frame = span(t, "wire.resp_encode", root, b, || {
                let frame = encode_message(&Message::Response(GatherResponse {
                    request_id: b,
                    node: n as u32,
                    busy_us,
                    queries: yields,
                    telemetry: None,
                }));
                let n = frame.len() as u64;
                (frame, n)
            });
            let queries = span(t, "wire.resp_decode", root, b, || {
                let Ok(Message::Response(resp)) = decode_message(&resp_frame) else {
                    panic!("response frame decodes");
                };
                let n = resp.queries.len() as u64;
                (resp.queries, n)
            });
            tally.responses += 1;
            tally.wire_bytes += (frame.len() + resp_frame.len()) as u64;
            per_node.push(queries.into_iter());
            let node_us: f64 = t.spans[mark..].iter().map(|s| s.ns() as f64 / 1e3).sum();
            critical_us = critical_us.max(node_us);
        }
        let reports = span(t, "merge", root, b, || {
            let reports: Vec<ExecutionReport> = planned
                .iter()
                .map(|_| {
                    let yields: Vec<DeviceYield> = per_node
                        .iter_mut()
                        .flat_map(|node| node.next().expect("one yield list per query"))
                        .collect();
                    merge_device_yields(yields, policy.effective_redundancy())
                })
                .collect();
            let n = reports.len() as u64;
            (reports, n)
        });
        (reports, critical_us)
    }
}

/// Replays one batch as spans under a `batch` root, checks its reports,
/// and runs the batch's probes under `probe` roots.
#[allow(clippy::too_many_arguments)]
fn replay_batch(
    bench: &mut Bench,
    r: &Replay,
    t: &mut Tracer,
    tally: &mut Tally,
    checker: &mut Checker,
    batch_queries: &[PartialMatchQuery],
    slot: usize,
    b: u64,
    ingest: Option<Vec<Record>>,
) {
    // Inputs of the hash/route probe: the step's records on ingest, a
    // fresh seeded set elsewhere.
    let inserting = ingest.is_some();
    let records: Vec<Record> = ingest.unwrap_or_else(|| {
        let mut rng = Rng::stream(bench.seed, STREAM_PROBE << 32 | b);
        base_records(rng.next_u64(), PROBE_RECORDS)
    });
    let probe = t.open("probe", None, b);
    let codes = span(t, "probe.hash", probe, b, || {
        let codes: Vec<u64> = records
            .iter()
            .map(|rec| bench.file.mkh().bucket_code_of(rec).expect("record hashes"))
            .collect();
        let n = codes.len() as u64;
        (codes, n)
    });
    let mut devs = vec![0u64; codes.len()];
    span(t, "probe.route", probe, b, || {
        r.fx.device_of_batch(&codes, &mut devs);
        ((), codes.len() as u64)
    });
    std::hint::black_box(&devs);
    t.close(probe, 0);

    let policy = bench.policy.clone();
    let root = t.open("batch", None, b);
    if inserting {
        let n = records.len() as u64;
        span(t, "insert", root, b, || {
            bench
                .file
                .insert_all_parallel(records)
                .expect("seeded records hash cleanly");
            ((), n)
        });
        tally.inserted += n;
    }
    let planned = span(t, "plan", root, b, || {
        let planned: Vec<PlannedQuery> = batch_queries
            .iter()
            .map(|q| plan_query(&r.sys, &r.fx, q))
            .collect();
        let n = planned.len() as u64;
        (planned, n)
    });
    let (reports, critical_us) = match &bench.engine {
        Engine::Cluster(_) => r.cluster_batch(t, root, b, &planned, &policy, tally),
        Engine::Local(exec) => {
            let reads = bucket_reads(&r.devices);
            let cpu = process_cpu_s();
            let yields = span(t, "exec", root, b, || {
                let y = exec.execute_planned(&planned, &policy);
                let n = y.len() as u64;
                (y, n)
            });
            tally.exec_cpu_s += process_cpu_s() - cpu;
            tally.pages_read += bucket_reads(&r.devices) - reads;
            let reports = span(t, "merge", root, b, || {
                let reports: Vec<ExecutionReport> = yields
                    .into_iter()
                    .map(|y| merge_device_yields(y, policy.effective_redundancy()))
                    .collect();
                let n = reports.len() as u64;
                (reports, n)
            });
            (reports, 0.0)
        }
    };
    t.close(root, batch_queries.len() as u64);
    // Frontend-side work of the replay: planning, request encode, merge.
    let frontend_us = t.spans[root + 1..]
        .iter()
        .filter(|s| s.name == "plan" || s.name == "merge" || s.name == "wire.req_encode")
        .map(|s| s.ns() as f64 / 1e3)
        .sum::<f64>();

    checker.observe(slot, &reports);
    tally.queries += batch_queries.len() as u64;
    tally.fast_path += planned.iter().filter(|p| p.fast_path).count() as u64;
    for rep in &reports {
        tally.records += rep.records.len() as u64;
        tally.reconstructions += rep.reconstructions();
        tally.addresses += rep
            .per_device
            .iter()
            .map(|d| d.addresses_computed)
            .sum::<u64>();
        tally.qualified += rep
            .per_device
            .iter()
            .map(|d| d.qualified_buckets)
            .sum::<u64>();
    }

    let probe = t.open("probe", None, b);
    if let Engine::Cluster(cluster) = &bench.engine {
        // The real frontend call on the same batch: what the replayed
        // critical path does not explain is frontend, transport and node
        // overhead.
        let frontend = cluster.frontend();
        let id = t.open("frontend.execute_batch", Some(probe), b);
        let real = frontend.execute_batch(batch_queries, &policy);
        t.close(id, real.len() as u64);
        let real_us = t.spans[id].ns() as f64 / 1e3;
        tally
            .net_unattributed_us
            .push(real_us - frontend_us - critical_us);
        tally.net_real_us += real_us;
        checker.observe(slot, &real);
    }
    let mut codes = Vec::new();
    span(t, "probe.inverse", probe, b, || {
        for p in &planned {
            for d in 0..r.sys.devices() {
                codes.clear();
                r.codes_on(p, d, &mut codes);
                std::hint::black_box(&codes);
            }
        }
        ((), planned.len() as u64)
    });
    let sample = r.page_sample(&planned, PROBE_PAGES, |_| true);
    let pages: Vec<Vec<u8>> = sample
        .iter()
        .filter_map(|&(d, c)| r.devices[d as usize].raw_page(c))
        .collect();
    span(t, "probe.decode", probe, b, || {
        let records: usize = pages
            .iter()
            .map(|p| decode_all_bytes(p).expect("pages at rest decode").len())
            .sum();
        ((), records as u64)
    });
    if let Some(parity) = &r.parity {
        let stripes: Vec<Vec<Vec<u8>>> = pages
            .chunks_exact(4)
            .map(|group| {
                let len = group.iter().map(Vec::len).max().unwrap_or(0);
                group
                    .iter()
                    .map(|p| {
                        let mut shard = p.clone();
                        shard.resize(len, 0);
                        shard
                    })
                    .collect()
            })
            .collect();
        let bytes: u64 = stripes.iter().flatten().map(|s| s.len() as u64).sum();
        span(t, "probe.ec_encode", probe, b, || {
            for stripe in &stripes {
                let shards: Vec<&[u8]> = stripe.iter().map(Vec::as_slice).collect();
                std::hint::black_box(r.rs.parity_of(&shards).expect("equal shards"));
            }
            ((), bytes)
        });
        tally.ec_bytes += bytes;
        let dead: Vec<u64> = sample
            .iter()
            .filter(|(d, _)| DEAD_DEVICES.contains(d))
            .map(|&(_, c)| c)
            .collect();
        span(t, "probe.reconstruct", probe, b, || {
            for &code in &dead {
                let page = parity
                    .reconstruct(&r.devices, code, 0)
                    .expect("two outages are within 4+2 parity");
                std::hint::black_box(page);
            }
            ((), dead.len() as u64)
        });
    }
    for _ in 0..POOL_ROUNDTRIPS {
        span(t, "probe.pool", probe, b, || {
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            for w in 0..r.pool.workers() {
                let tx = tx.clone();
                r.pool.submit(w, move |_| {
                    let _ = tx.send(());
                });
            }
            drop(tx);
            let n = rx.iter().count() as u64;
            ((), n)
        });
    }
    t.close(probe, 0);
}

/// Read probe: empties the sampled devices' caches, then times
/// `read_bucket` on each sampled page cold and then warm. Returns
/// `(cold µs, warm µs)` per read.
fn read_probe(t: &mut Tracer, r: &Replay, sample: &[(u64, u64)], b: u64) -> (f64, f64) {
    let mut devices: Vec<u64> = sample.iter().map(|&(d, _)| d).collect();
    devices.sort_unstable();
    devices.dedup();
    for &d in &devices {
        let dev = &r.devices[d as usize];
        let capacity = dev.cache_capacity();
        dev.set_cache_capacity(0);
        dev.set_cache_capacity(capacity);
    }
    let probe = t.open("probe", None, b);
    let timed = |name: &'static str, t: &mut Tracer| {
        span(t, name, probe, b, || {
            for &(d, c) in sample {
                std::hint::black_box(r.devices[d as usize].read_bucket(c).expect("page decodes"));
            }
            ((), sample.len() as u64)
        })
    };
    timed("probe.read_cold", t);
    timed("probe.read_warm", t);
    t.close(probe, 0);
    let per = |name| {
        let (ns, items, _) = t.total(name);
        ns as f64 / 1e3 / items.max(1) as f64
    };
    (per("probe.read_cold"), per("probe.read_warm"))
}

/// Mean distinct pages per device the pool's queries touch.
fn pages_touched_per_device(r: &Replay, pool: &[Vec<PartialMatchQuery>]) -> f64 {
    let total = r.sys.total_buckets() as usize;
    let mut seen = vec![false; total];
    let mut codes = Vec::new();
    for q in pool.iter().flatten() {
        let planned = plan_query(&r.sys, &r.fx, q);
        for d in 0..r.sys.devices() {
            codes.clear();
            r.codes_on(&planned, d, &mut codes);
            for &c in &codes {
                seen[c as usize] = true;
            }
        }
    }
    seen.iter().filter(|&&s| s).count() as f64 / r.sys.devices() as f64
}

/// Bytes in primary, mirror and parity pages ÷ encoded record bytes.
fn space_amp(bench: &Bench, r: &Replay) -> f64 {
    let mut primary: HashMap<u64, usize> = HashMap::new();
    for dev in &r.devices {
        for code in dev.resident_buckets() {
            primary.insert(code, dev.raw_page(code).map_or(0, |p| p.len()));
        }
    }
    let primary_bytes: usize = primary.values().sum();
    // A mirror page is a byte copy of its primary page.
    let mirror_bytes: usize = r
        .devices
        .iter()
        .flat_map(|dev| dev.mirror_buckets())
        .map(|code| primary.get(&code).copied().unwrap_or(0))
        .sum();
    let parity_bytes: usize = r.devices.iter().map(|d| d.parity_bytes()).sum();
    // The set-up records plus those of the steps since the last rebuild.
    let mut record_bytes: usize = base_records(bench.seed, bench.base_records as usize)
        .iter()
        .map(|rec| encode_one(rec).len())
        .sum();
    for s in bench.steps.clone() {
        record_bytes += ingest_records(bench.seed, s)
            .iter()
            .map(|rec| encode_one(rec).len())
            .sum::<usize>();
    }
    (primary_bytes + mirror_bytes + parity_bytes) as f64 / record_bytes.max(1) as f64
}

/// The counting phase: the ordinary loop with telemetry on, read for
/// the program's `cache.*` counters; on `ingest_degraded` it runs whole
/// rounds, with telemetry off while the file is rebuilt. Returns `(hits,
/// misses, evictions, invalidations, queries, inserted)`.
fn counting_phase(
    bench: &mut Bench,
    pool: &[Vec<PartialMatchQuery>],
    seconds: f64,
    checker: &mut Checker,
) -> [u64; 6] {
    obs::install(obs::TraceConfig::Memory).expect("in-memory telemetry");
    obs::reset();
    let started = Instant::now();
    let (mut queries, mut inserted) = (0u64, 0u64);
    let mut i = 0usize;
    let ingest = bench.wl == Workload::IngestDegraded;
    while started.elapsed() < Duration::from_secs_f64(seconds)
        || i < MIN_BATCHES
        || (ingest && !bench.round_full())
    {
        if ingest {
            let rebuild = bench.round_full();
            if rebuild {
                obs::install(obs::TraceConfig::Off).expect("disabling telemetry");
            }
            let records = next_ingest_step(bench, pool, checker);
            if rebuild {
                obs::install(obs::TraceConfig::Memory).expect("in-memory telemetry");
            }
            inserted += records.len() as u64;
            bench
                .file
                .insert_all_parallel(records)
                .expect("seeded records hash cleanly");
        }
        let slot = i % pool.len();
        let reports = bench.engine.execute(&pool[slot], &bench.policy);
        queries += reports.len() as u64;
        checker.observe(slot, &reports);
        // Only the counters are read: drop the program's recorded spans
        // every batch, or the in-memory sink grows by every device span.
        drop(obs::drain_events());
        i += 1;
    }
    let counts = [
        obs::counter_total("cache.hit"),
        obs::counter_total("cache.miss"),
        obs::counter_total("cache.evicted"),
        obs::counter_total("cache.invalidated"),
        queries,
        inserted,
    ];
    obs::install(obs::TraceConfig::Off).expect("disabling telemetry");
    obs::reset();
    counts
}

/// Where the spans are written.
fn trace_path(opts: &Opts) -> std::path::PathBuf {
    opts.trace_dir
        .join(format!("{}-seed{}.jsonl", opts.workload.name(), opts.seed))
}

/// The traced run; returns the per-layer metrics.
pub fn run_traced(opts: &Opts) -> Result<Outcome, String> {
    obs::install(obs::TraceConfig::Off).expect("disabling telemetry");
    let wl = opts.workload;
    let pool = query_pool(wl, opts.seed);
    let (mut bench, setup_times) =
        setup(wl, opts.seed, base_records(opts.seed, opts.records), &pool);
    let reference = Reference::compute(&bench, &pool);
    let mut checker = Checker::new(&bench, &pool, reference);
    let ingest = wl == Workload::IngestDegraded;

    // 1. Untraced base.
    let base = measure(
        &mut bench,
        &pool,
        opts.seconds * UNTRACED_SHARE,
        &mut checker,
    );
    let untraced_us_per_query = base.total(|w| w.timed_s) * 1e6 / base.queries() as f64;

    // 2. Replay.
    let mut replay = Replay::new(&bench);
    let mut t = Tracer::default();
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(opts.seconds * REPLAY_SHARE);
    let started = Instant::now();
    let mut b = 0u64;
    // On `ingest_degraded`, whole rounds, like the untraced base.
    while started.elapsed() < budget
        || (b as usize) < MIN_BATCHES
        || (ingest && !bench.round_full())
    {
        let slot = b as usize % pool.len();
        let records = ingest.then(|| next_ingest_step(&mut bench, &pool, &mut checker));
        replay.sync(&bench);
        replay_batch(
            &mut bench,
            &replay,
            &mut t,
            &mut tally,
            &mut checker,
            &pool[slot],
            slot,
            b,
            records,
        );
        b += 1;
    }

    // 3. Counting.
    let [hits, misses, evictions, invalidations, counted_queries, counted_inserted] =
        counting_phase(
            &mut bench,
            &pool,
            opts.seconds * COUNTING_SHARE,
            &mut checker,
        );
    replay.sync(&bench);

    // 4. Read probes on pages of the last batch's queries, live devices only.
    let last: Vec<PlannedQuery> = pool[(b as usize - 1) % pool.len()]
        .iter()
        .map(|q| plan_query(&replay.sys, &replay.fx, q))
        .collect();
    let sample = replay.page_sample(&last, READ_PROBE_PAGES, |d| {
        !(wl == Workload::IngestDegraded && DEAD_DEVICES.contains(&d))
    });
    let (miss_us, hit_us) = read_probe(&mut t, &replay, &sample, b);

    checker.finish(&bench);
    let touched = pages_touched_per_device(&replay, &pool);
    let space = space_amp(&bench, &replay);

    // Per-layer metrics.
    let q = tally.queries.max(1) as f64;
    let us = |name: &str| t.total(name).0 as f64 / 1e3;
    let per_item_ns = |name: &str| {
        let (ns, items, _) = t.total(name);
        ns as f64 / items.max(1) as f64
    };
    let hash_ns = per_item_ns("probe.hash");
    let route_ns = per_item_ns("probe.route");
    let insert_us_per_record = if wl == Workload::IngestDegraded {
        us("insert") / tally.inserted.max(1) as f64
    } else {
        setup_times.insert_s * 1e6 / opts.records as f64
    };
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let pages_per_query = tally.pages_read as f64 / q;
    let inverse_us = us("probe.inverse") / q;
    let exec_us = (us("exec") + us("node.execute_planned")) / q;
    let read_us = pages_per_query * (hit_rate * hit_us + (1.0 - hit_rate) * miss_us);
    let per_msg = |name: &str, n: u64| us(name) / n.max(1) as f64;
    let pool_us = crate::median(&t.durations_us("probe.pool"));
    let net_unattributed = if tally.net_unattributed_us.is_empty() {
        0.0
    } else {
        crate::median(&tally.net_unattributed_us)
    };
    // The share of the real entry point's time that no replayed layer
    // span explains. `cluster_hot` calls the real `Frontend::execute_batch`
    // beside the replay; on the local workloads `Executor::execute_batch`
    // is exactly plan, `execute_planned` and merge, the replayed spans,
    // so only the replay's own glue is left over.
    let unattributed_frac = if matches!(bench.engine, Engine::Cluster(_)) {
        tally.net_unattributed_us.iter().sum::<f64>() / tally.net_real_us.max(f64::MIN_POSITIVE)
    } else {
        t.unattributed_frac("batch")
    };
    let ec_s = us("probe.ec_encode") / 1e6;
    let traced_us_per_query = us("batch") / q;

    let metrics = vec![
        Metric::new("mkh.hash_ns_per_record", hash_ns, "ns"),
        Metric::new("addr.route_ns_per_code", route_ns, "ns"),
        Metric::new("insert.us_per_record", insert_us_per_record, "us"),
        Metric::new(
            "insert.unattributed_share",
            1.0 - (hash_ns + route_ns) / 1e3 / insert_us_per_record,
            "ratio",
        ),
        Metric::new("plan.us_per_query", us("plan") / q, "us"),
        Metric::new("plan.fast_path_share", tally.fast_path as f64 / q, "ratio"),
        Metric::new("inverse.us_per_query", inverse_us, "us"),
        Metric::new(
            "inverse.codes_per_qualified",
            tally.addresses as f64 / tally.qualified.max(1) as f64,
            "ratio",
        ),
        Metric::new("read.pages_per_query", pages_per_query, "count"),
        Metric::new("read.hit_us", hit_us, "us"),
        Metric::new("read.miss_us", miss_us, "us"),
        Metric::new("read.hit_rate", hit_rate, "ratio"),
        Metric::new("cache.pages_touched_per_device", touched, "count"),
        Metric::new(
            "cache.evictions_per_query",
            evictions as f64 / counted_queries.max(1) as f64,
            "count",
        ),
        Metric::new(
            "cache.invalidations_per_insert",
            if counted_inserted == 0 {
                0.0
            } else {
                invalidations as f64 / counted_inserted as f64
            },
            "count",
        ),
        Metric::new("decode.ns_per_record", per_item_ns("probe.decode"), "ns"),
        Metric::new("exec.us_per_query", exec_us, "us"),
        Metric::new(
            "exec.self_us_per_query",
            tally.exec_cpu_s * 1e6 / q - inverse_us - read_us,
            "us",
        ),
        Metric::new("exec.records_per_query", tally.records as f64 / q, "count"),
        Metric::new("merge.us_per_query", us("merge") / q, "us"),
        Metric::new("pool.roundtrip_us", pool_us, "us"),
        Metric::new(
            "wire.req_encode_us",
            per_msg("wire.req_encode", tally.requests),
            "us",
        ),
        Metric::new(
            "wire.req_decode_us",
            per_msg("wire.req_decode", tally.responses),
            "us",
        ),
        Metric::new(
            "wire.resp_encode_us",
            per_msg("wire.resp_encode", tally.responses),
            "us",
        ),
        Metric::new(
            "wire.resp_decode_us",
            per_msg("wire.resp_decode", tally.responses),
            "us",
        ),
        Metric::new("wire.bytes_per_query", tally.wire_bytes as f64 / q, "B"),
        Metric::new("net.unattributed_us_per_batch", net_unattributed, "us"),
        Metric::new(
            "ec.encode_mb_s",
            if ec_s > 0.0 {
                tally.ec_bytes as f64 / 1e6 / ec_s
            } else {
                0.0
            },
            "MB/s",
        ),
        Metric::new(
            "ec.reconstruct_us_per_bucket",
            per_item_ns("probe.reconstruct") / 1e3,
            "us",
        ),
        Metric::new(
            "exec.reconstructions_per_query",
            tally.reconstructions as f64 / q,
            "count",
        ),
        Metric::new("storage.space_amp", space, "ratio"),
        Metric::new("ledger.unattributed_frac", unattributed_frac, "ratio"),
        Metric::new(
            "trace.overhead_frac",
            traced_us_per_query / untraced_us_per_query - 1.0,
            "ratio",
        ),
    ];

    let path = trace_path(opts);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            t.write_jsonl(&mut out)?;
            out.flush()
        });
    let capacity = DEFAULT_CAPACITY;
    let mut notes = vec![
        format!(
            "working set: {touched:.0} pages per device against a {capacity}-page cache ({}); \
             read.hit_rate {hit_rate:.4}",
            if touched <= capacity as f64 {
                "fits"
            } else {
                "does not fit"
            }
        ),
        format!(
            "replayed {} batches ({} queries); untraced {untraced_us_per_query:.2} us/query, \
             traced {traced_us_per_query:.2} us/query",
            b, tally.queries
        ),
        match written {
            Ok(()) => format!("{} spans written to {}", t.spans.len(), path.display()),
            Err(e) => format!("spans not written to {}: {e}", path.display()),
        },
        format!(
            "failed_frac {} ({} of {} queries)",
            checker.failed as f64 / checker.attempted.max(1) as f64,
            checker.failed,
            checker.attempted
        ),
    ];
    notes.extend(checker.notes.iter().cloned());
    Ok(Outcome {
        correct: checker.correct(),
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        notes,
    })
}
