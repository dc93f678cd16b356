//! The two read-only serving workloads.
//!
//! `serve-exact`: exact k-NN (L2, linear scan) over the wire against one
//! mmap segment store of 250k x 64 descriptors, on the default blocking
//! connection engine. The kernel scan dominates; micro-batching amortises
//! it.
//!
//! `route-approx`: approximate k-NN (recall target 0.9) through the router
//! in front of two shard stores, each served by the epoll engine. Per-query
//! compute is small and the coarse tables are cache-resident, so the
//! connection engine, protocol, scheduler and router dominate.
//!
//! Between query rounds both make one-at-a-time inserts into the stores
//! they serve (the router has no insert operation, so route-approx
//! inserts go to each shard directly), and both end with a compaction:
//! these give the write and disk metrics.

use crate::common::{
    database_from_rows, descriptor_pipeline, descriptors, member_queries, report_latency,
    InsertLoad, KnnLoad, Run, DIM, K, STALL, WINDOW,
};
use crate::host::{self, WorkDir};
use crate::ledger::{self, LedgerInput, TierAddrs};
use crate::oracle::{self, Metric};
use crate::report::median;
use crate::wire::{drive, Conn};
use cbir_core::{
    split_database, CorpusStore, IndexKind, ServedCorpus, ShardPlan, ShardScheme, StoreOptions,
};
use cbir_distance::Measure;
use cbir_router::{Router, RouterConfig, RouterHandle};
use cbir_server::{Client, EventLoopConfig, SchedulerConfig, Server, ServerHandle};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const QUERY_POOL: usize = 512;

/// One workload's shape.
struct Shape {
    name: &'static str,
    rows: usize,
    shards: usize,
    recall_target: f32,
    /// Requests in flight per connection. serve-exact keeps 16 on each,
    /// so scheduler batches carry many queries and the cache-blocked scan
    /// amortises its pass over the rows across them.
    window: usize,
    /// Queries per segment, and inserts after each: sized so a 30 s run
    /// takes a few thousand samples of each (three or more windows for
    /// the p99; see `report_latency`).
    round: u64,
    inserts_per_round: usize,
    /// Seconds one segment took on the reference host (see `Run::rounds`).
    round_s: f64,
    /// Distinct queries checked against the f64 oracle.
    oracle_queries: usize,
}

const SERVE_EXACT: Shape = Shape {
    name: "serve-exact",
    rows: 250_000,
    shards: 1,
    recall_target: 1.0,
    window: 16,
    round: 1024,
    inserts_per_round: 512,
    round_s: 3.0,
    oracle_queries: 24,
};

const ROUTE_APPROX: Shape = Shape {
    name: "route-approx",
    rows: 100_000,
    shards: 2,
    recall_target: 0.9,
    window: 1,
    round: 1024,
    inserts_per_round: 192,
    round_s: 0.75,
    oracle_queries: 64,
};

fn options() -> StoreOptions {
    StoreOptions::new(IndexKind::Linear, Measure::L2)
}

/// A served tier: one store per shard, a server per store, and (for more
/// than one shard) a router in front.
struct Tier {
    dirs: Vec<PathBuf>,
    stores: Vec<Arc<CorpusStore>>,
    backends: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    plan: ShardPlan,
}

impl Tier {
    fn front(&self) -> SocketAddr {
        match &self.router {
            Some(r) => r.local_addr(),
            None => self.backends[0].local_addr(),
        }
    }

    fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        for b in self.backends {
            b.shutdown();
        }
    }
}

/// Load the rows into fresh stores and start serving them. Returns the
/// tier and the seconds the load (database assembly and store creation)
/// took.
fn set_up(shape: &Shape, rows: &[f32], work: &std::path::Path, attempt: usize) -> (Tier, f64) {
    let t = Instant::now();
    let db = database_from_rows(descriptor_pipeline(), rows);
    let plan =
        ShardPlan::new(ShardScheme::Mod, DIM, shape.rows as u64, shape.shards).expect("shard plan");
    let parts = if shape.shards == 1 {
        vec![db]
    } else {
        split_database(&db, &plan).expect("split")
    };
    let dirs: Vec<PathBuf> = (0..shape.shards)
        .map(|s| work.join(format!("store-{attempt}-{s}")))
        .collect();
    for (dir, part) in dirs.iter().zip(&parts) {
        CorpusStore::create_from_database(dir, part, options()).expect("create store");
    }
    let load_s = t.elapsed().as_secs_f64();
    drop(parts);
    let stores: Vec<Arc<CorpusStore>> = dirs
        .iter()
        .map(|d| CorpusStore::open(d, options()).expect("open store"))
        .collect();
    let backends: Vec<ServerHandle> = stores
        .iter()
        .map(|store| {
            let corpus = ServedCorpus::Live(Arc::clone(store));
            if shape.shards == 1 {
                Server::spawn_corpus(corpus, "127.0.0.1:0", SchedulerConfig::default())
            } else {
                Server::spawn_event_corpus(
                    corpus,
                    "127.0.0.1:0",
                    SchedulerConfig::default(),
                    EventLoopConfig::default(),
                )
            }
            .expect("spawn backend")
        })
        .collect();
    let router = (shape.shards > 1).then(|| {
        Router::spawn(
            plan.clone(),
            backends
                .iter()
                .map(|b| vec![b.local_addr().to_string()])
                .collect(),
            "127.0.0.1:0",
            RouterConfig::default(),
        )
        .expect("spawn router")
    });
    (
        Tier {
            dirs,
            stores,
            backends,
            router,
            plan,
        },
        load_s,
    )
}

fn connect(addr: SocketAddr, n: usize) -> Vec<Conn> {
    (0..n)
        .map(|_| Conn::connect(addr).expect("connect"))
        .collect()
}

pub fn serve_exact(run: &mut Run) {
    workload(run, &SERVE_EXACT);
}

pub fn route_approx(run: &mut Run) {
    workload(run, &ROUTE_APPROX);
}

/// What the timed segments did, summed over phases.
#[derive(Default)]
struct Timed {
    /// Query latencies per phase (untraced first).
    lat_ms: Vec<Vec<f64>>,
    /// Replies per second of each query segment, per phase.
    segment_qps: Vec<Vec<f64>>,
    replies: Vec<(u64, Vec<(u64, f32)>)>,
    sent: u64,
    failed: u64,
    ins_ms: Vec<f64>,
    ins_attempted: u64,
    ins_failed: u64,
    /// Acked ids per shard, in ack order.
    ins_ids: Vec<Vec<u64>>,
}

/// One timed phase: `run.rounds` segments of one query round (closed loop,
/// `window` in flight per connection) followed by `inserts_per_round`
/// one-at-a-time inserts of far rows into the shard stores, fewer if the
/// memtables would fill. Reads and writes never overlap, and both are
/// sampled across the whole phase.
#[allow(clippy::too_many_arguments)]
fn timed_phase(
    run: &mut Run,
    shape: &Shape,
    queries: &[Vec<f32>],
    far: &dyn Fn(usize) -> Vec<f32>,
    conns: &mut [Conn],
    shard_conns: &mut [Conn],
    out: &mut Timed,
) {
    let segments = run.rounds(shape.round_s);
    let mut lat = Vec::new();
    let mut segment_qps = Vec::new();
    let window = vec![shape.window; conns.len()];
    out.ins_ids.resize(shape.shards, Vec::new());
    for _ in 0..segments {
        let mut load = KnnLoad::new(
            queries,
            shape.recall_target,
            (out.sent, shape.round),
            &mut run.tracer,
        );
        drive(conns, &window, &mut load, STALL).expect("query load");
        segment_qps.push(load.lat_ms.len() as f64 / (load.finished - load.started).as_secs_f64());
        out.sent += load.sent;
        out.failed += load.failed;
        lat.extend_from_slice(&load.lat_ms);
        out.replies.extend(load.replies);

        let first = out.ins_attempted as usize;
        let mut ins = InsertLoad::new(far, first, shape.inserts_per_round, shape.shards);
        drive(shard_conns, &vec![1; shape.shards], &mut ins, STALL).expect("insert load");
        out.ins_attempted += shape.inserts_per_round as u64;
        out.ins_failed += ins.failed;
        out.ins_ms.extend_from_slice(&ins.lat_ms);
        for (conn, id) in ins.acks {
            out.ins_ids[conn].push(id);
        }
        // Stay under the memtable limit: these workloads measure reads
        // and the write path, not compaction.
        let room = out.ins_attempted as usize + shape.inserts_per_round
            < shape.shards * (options().memtable_limit - 1);
        if !room {
            break;
        }
    }
    out.lat_ms.push(lat);
    out.segment_qps.push(segment_qps);
}

fn workload(run: &mut Run, shape: &Shape) {
    // Inputs: the corpus and the query pool. Inserted rows are corpus rows
    // moved 1000 away on every axis: they never enter a top-k, so the
    // reads' references stay those of the base corpus.
    let rows = descriptors(shape.rows, run.seed);
    let rows = &rows[..];
    let queries = member_queries(rows, QUERY_POOL, run.seed);
    let far = |i: usize| -> Vec<f32> {
        let r = i % shape.rows;
        rows[r * DIM..(r + 1) * DIM]
            .iter()
            .map(|x| x + 1000.0)
            .collect()
    };
    run.report
        .fact("peak_rss_inputs_mb", format!("{:.1}", host::peak_rss_mb()));
    let work = WorkDir::new(&run.root, shape.name);
    let conns_n = host::nproc().min(2);

    let (mut setup_s, mut ingest) = (Vec::new(), Vec::new());
    let mut current: Option<(Tier, Vec<Conn>)> = None;
    for attempt in 0..run.setups() {
        if let Some((tier, conns)) = current.take() {
            drop(conns);
            let dirs = tier.dirs.clone();
            tier.shutdown();
            for d in dirs {
                let _ = std::fs::remove_dir_all(d);
            }
        }
        let t = Instant::now();
        let (tier, load_s) = set_up(shape, rows, work.path(), attempt);
        ingest.push(shape.rows as f64 / load_s);
        // Warm the lazy segment indexes and coarse tables, the servers'
        // connection threads and the router's pooled connections.
        let mut conns = connect(tier.front(), conns_n);
        let mut warm = KnnLoad::new(
            &queries,
            shape.recall_target,
            (0, 16 * conns_n as u64),
            &mut run.tracer,
        );
        drive(&mut conns, &vec![WINDOW; conns_n], &mut warm, STALL).expect("warm-up load");
        setup_s.push(t.elapsed().as_secs_f64());
        current = Some((tier, conns));
    }
    let (tier, mut conns) = current.expect("at least one setup");
    let mut shard_conns: Vec<Conn> = tier
        .backends
        .iter()
        .map(|b| Conn::connect(b.local_addr()).expect("connect shard"))
        .collect();

    let before = tier.backends[0].metrics();
    let mut out = Timed::default();
    timed_phase(
        run,
        shape,
        &queries,
        &far,
        &mut conns,
        &mut shard_conns,
        &mut out,
    );
    if run.trace {
        run.tracer.set_on(true);
        timed_phase(
            run,
            shape,
            &queries,
            &far,
            &mut conns,
            &mut shard_conns,
            &mut out,
        );
        run.tracer.set_on(false);
    }
    let after = tier.backends[0].metrics();
    // Set-up and the timed run; the inputs' own peak is below it.
    let peak_rss = host::peak_rss_mb();
    let served_batch = ((after.executed - before.executed) as f64
        / (after.batches - before.batches).max(1) as f64)
        .round() as usize;
    drop(conns);
    drop(shard_conns);
    run.report.ops("knn", out.sent, out.failed);
    run.report.ops("insert", out.ins_attempted, out.ins_failed);
    let dense = out.ins_ids.iter().enumerate().all(|(s, ids)| {
        ids.iter()
            .enumerate()
            .all(|(j, &id)| id == tier.plan.rows_of(s) + j as u64)
    });
    let inserted: usize = out.ins_ids.iter().map(Vec::len).sum();
    run.report.check(
        "insert ids are dense and in order on every shard",
        dense && out.ins_failed == 0 && inserted as u64 == out.ins_attempted,
        format!("{inserted} acks"),
    );
    let mut compacted_rows = 0;
    for b in &tier.backends {
        let (_, _, rows) = Client::connect(b.local_addr())
            .expect("connect")
            .compact()
            .expect("compact");
        compacted_rows += rows;
    }
    run.report.check(
        "compaction keeps every row",
        compacted_rows == (shape.rows + inserted) as u64,
        format!("{compacted_rows} rows after compaction"),
    );
    let disk: u64 = tier.dirs.iter().map(|d| host::dir_bytes(d)).sum();
    run.report.fact("store_fs", host::filesystem(work.path()));

    check_replies(run, shape, rows, &queries, &out.replies);

    let plain_lat = &out.lat_ms[0];
    if !run.trace {
        let r = &mut run.report;
        r.metric_n("setup_s", median(&setup_s), "s", setup_s.len());
        r.metric_n("ingest_rows_per_s", median(&ingest), "rows/s", ingest.len());
        report_latency(r, "query", plain_lat);
        // The median segment: robust to a burst of outside load that
        // slows a few segments, as the tail percentiles are.
        r.metric_n(
            "query_qps",
            median(&out.segment_qps[0]),
            "1/s",
            plain_lat.len(),
        );
        report_latency(r, "insert", &out.ins_ms);
        r.metric("peak_rss_mb", peak_rss, "MB");
        r.metric(
            "disk_bytes_per_row",
            disk as f64 / compacted_rows as f64,
            "B",
        );
        tier.shutdown();
        return;
    }
    let overhead = median(&out.lat_ms[1]) - median(plain_lat);
    run.report
        .fact("tracing_overhead_p50_ms", format!("{overhead:.6}"));
    ledger::run(
        LedgerInput {
            pipeline: descriptor_pipeline(),
            rows,
            kind: IndexKind::Linear,
            measure: Measure::L2,
            queries: &queries,
            recall_target: shape.recall_target,
            images: &[],
            qbe_engine: None,
            served: ServedCorpus::Live(Arc::clone(&tier.stores[0])),
            served_batch,
            server: Some(tier.backends[0].local_addr()),
            tier: tier.router.as_ref().map(|r| TierAddrs {
                router: r.local_addr(),
                backends: tier.backends.iter().map(|b| b.local_addr()).collect(),
                plan: tier.plan.clone(),
            }),
            compactions: shape.shards as u64,
            seed: run.seed,
            work: work.path(),
        },
        &mut run.tracer,
        &mut run.report,
    );
    tier.shutdown();
}

/// Every reply: k distinct hits in `(distance, id)` order, each at its
/// id's true distance. Exact: the first distinct queries equal the f64
/// oracle. Approximate: their mean recall@10 meets the target.
fn check_replies(
    run: &mut Run,
    shape: &Shape,
    rows: &[f32],
    queries: &[Vec<f32>],
    replies: &[(u64, Vec<(u64, f32)>)],
) {
    let own = |q: &[f32], id: u64| {
        let i = id as usize;
        (i < shape.rows).then(|| oracle::distance(Metric::L2, q, &rows[i * DIM..(i + 1) * DIM]))
    };
    let mut bad = 0usize;
    let mut first = String::new();
    for (tag, hits) in replies {
        let q = &queries[(tag % queries.len() as u64) as usize];
        let ok = hits.len() == K
            && oracle::check_order(hits).is_ok()
            && hits
                .iter()
                .all(|&(id, d)| own(q, id).is_some_and(|t| oracle::close(d, t)));
        if !ok {
            if bad == 0 {
                first = format!("reply {tag}: {hits:?}");
            }
            bad += 1;
        }
    }
    run.report.check(
        "every reply has k distinct hits in (distance, id) order at their true distances",
        bad == 0 && !replies.is_empty(),
        format!("{bad} of {} bad {first}", replies.len()),
    );

    let sampled: Vec<&(u64, Vec<(u64, f32)>)> = replies
        .iter()
        .filter(|(tag, _)| (*tag as usize) < shape.oracle_queries)
        .collect();
    let mut mismatches = 0usize;
    let mut recall = Vec::new();
    for (tag, hits) in &sampled {
        let q = &queries[*tag as usize];
        let truth = oracle::knn(Metric::L2, q, rows, K);
        if shape.recall_target >= 1.0 {
            if let Err(e) = oracle::check_exact(hits, &truth, |id| own(q, id)) {
                if mismatches == 0 {
                    first = format!("query {tag}: {e}");
                }
                mismatches += 1;
            }
        } else {
            let got: Vec<u64> = hits.iter().map(|h| h.0).collect();
            let want: Vec<u64> = truth.iter().map(|h| h.0).collect();
            recall.push(oracle::recall_at_k(&got, &want));
        }
    }
    let complete = sampled.len() == shape.oracle_queries;
    if shape.recall_target >= 1.0 {
        run.report.check(
            "sampled replies equal the f64 oracle",
            complete && mismatches == 0,
            format!("{mismatches} of {} differ {first}", sampled.len()),
        );
    } else {
        let mean = recall.iter().sum::<f64>() / recall.len().max(1) as f64;
        run.report.fact("recall_at_10", format!("{mean:.4}"));
        run.report.check(
            "mean recall@10 meets the requested target",
            complete && mean >= shape.recall_target as f64,
            format!("{mean:.4} over {} queries", recall.len()),
        );
    }
}
