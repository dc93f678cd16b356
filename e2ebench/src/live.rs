//! `live-ingest`: writes beside reads. A live store with the `cbir serve`
//! defaults (VP tree, L1, default memtable limit, blocking engine) starts
//! from a 50k-row segment. One connection inserts rows one RPC at a time
//! while the other issues exact k-NN, for one round of 4096 inserts per
//! requested second. Every round crosses the memtable limit, so
//! whole-corpus compactions and lazy segment-index rebuilds happen inside
//! the timed run.

use crate::common::{
    database_from_rows, descriptor_pipeline, descriptors, hits_of, insert_request, knn_request,
    member_queries, report_latency, KnnLoad, Run, DIM, K, STALL, WINDOW,
};
use crate::host::{self, WorkDir};
use crate::ledger::{self, LedgerInput};
use crate::oracle::{self, Metric, TopK};
use crate::report::median;
use crate::trace::{Tracer, NONE};
use crate::wire::{drive, Conn, Load};
use cbir_core::persist::fsck_dir;
use cbir_core::{CorpusStore, IndexKind, ServedCorpus, StoreOptions};
use cbir_distance::Measure;
use cbir_index::BatchStats;
use cbir_server::{Client, Request, Response, SchedulerConfig, Server};
use std::sync::Arc;
use std::time::Instant;

const BASE: usize = 50_000;
/// Inserts per query: the mix is fixed by the workload, not by how the
/// two streams happen to share the cores.
const INSERTS_PER_QUERY: usize = 32;
/// k-NN in flight beside the inserts. One: a query's latency is then its
/// own service time beside the writes, not a queue of other queries,
/// which would amplify every swing in host speed.
const QUERY_WINDOW: usize = 1;
/// Every 16th query is checked against the oracle.
const SAMPLE_EVERY: u64 = 16;

fn options() -> StoreOptions {
    StoreOptions::new(IndexKind::VpTree, Measure::L1)
}

struct Sample {
    query: usize,
    /// Inserts acked when the query went out: all of them are visible.
    acked_at_send: usize,
    /// Inserts sent when the reply came back: none beyond them can be.
    sent_at_reply: usize,
    hits: Vec<(u64, f32)>,
}

/// Inserts on connection 0 (one in flight), k-NN on connection 1
/// (`QUERY_WINDOW` in flight), until `stop_at` rows have been inserted.
/// Query `n` of the phase goes out once `n * INSERTS_PER_QUERY` of its
/// inserts are acked, and the inserts run at most `QUERY_WINDOW` queries
/// ahead.
struct Mixed<'a> {
    rows: &'a [f32],
    queries: &'a [Vec<f32>],
    first: usize,
    stop_at: usize,
    ins_sent: usize,
    acked: usize,
    ids_ok: bool,
    knn_sent: u64,
    knn_done: u64,
    ins_ms: Vec<f64>,
    knn_ms: Vec<f64>,
    ins_failed: u64,
    knn_failed: u64,
    pending: Vec<(u64, usize)>,
    samples: Vec<Sample>,
    started: Instant,
    finished: Instant,
    tracer: &'a mut Tracer,
}

impl<'a> Mixed<'a> {
    fn new(
        rows: &'a [f32],
        queries: &'a [Vec<f32>],
        acked: usize,
        stop_at: usize,
        tracer: &'a mut Tracer,
    ) -> Mixed<'a> {
        let now = Instant::now();
        Mixed {
            rows,
            queries,
            first: acked,
            stop_at,
            ins_sent: acked,
            acked,
            ids_ok: true,
            knn_sent: 0,
            knn_done: 0,
            ins_ms: Vec::new(),
            knn_ms: Vec::new(),
            ins_failed: 0,
            knn_failed: 0,
            pending: Vec::new(),
            samples: Vec::new(),
            started: now,
            finished: now,
            tracer,
        }
    }
}

impl Load for Mixed<'_> {
    fn next(&mut self, conn: usize) -> Option<(u64, Request)> {
        if conn == 0 {
            let ahead = (self.knn_done as usize + QUERY_WINDOW) * INSERTS_PER_QUERY;
            if self.ins_sent == self.stop_at || self.ins_sent - self.first >= ahead {
                return None;
            }
            let row = BASE + self.ins_sent;
            self.ins_sent += 1;
            return Some((
                row as u64,
                insert_request(row, &self.rows[row * DIM..(row + 1) * DIM]),
            ));
        }
        let total = ((self.stop_at - self.first) / INSERTS_PER_QUERY) as u64;
        let due = self.knn_sent as usize * INSERTS_PER_QUERY;
        if self.knn_sent == total || due > self.acked - self.first {
            return None;
        }
        let tag = self.knn_sent;
        self.knn_sent += 1;
        let qi = (tag % self.queries.len() as u64) as usize;
        if tag.is_multiple_of(SAMPLE_EVERY) {
            self.pending.push((tag, self.acked));
        }
        Some((tag, knn_request(&self.queries[qi], 1.0)))
    }

    fn reply(&mut self, conn: usize, tag: u64, sent: Instant, done: Instant, resp: Response) {
        let ms = (done - sent).as_secs_f64() * 1e3;
        if conn == 0 {
            self.tracer.record("wire.insert", sent, done, NONE, tag);
            match resp {
                Response::InsertAck { id, .. } => {
                    self.ids_ok &= id == tag && tag as usize == BASE + self.acked;
                    self.acked += 1;
                    self.ins_ms.push(ms);
                }
                other => {
                    eprintln!("insert {tag} failed: {other:?}");
                    self.ins_failed += 1;
                }
            }
            return;
        }
        self.tracer.record("wire.knn", sent, done, NONE, tag);
        self.finished = done;
        self.knn_done += 1;
        let Some(hits) = hits_of(&resp) else {
            eprintln!("knn {tag} failed: {resp:?}");
            self.knn_failed += 1;
            return;
        };
        self.knn_ms.push(ms);
        if let Some(at) = self.pending.iter().position(|p| p.0 == tag) {
            let (_, acked_at_send) = self.pending.swap_remove(at);
            self.samples.push(Sample {
                query: (tag % self.queries.len() as u64) as usize,
                acked_at_send,
                sent_at_reply: self.ins_sent,
                hits,
            });
        }
    }
}

/// What one mixed phase did.
struct Outcome {
    acked: usize,
    ids_ok: bool,
    ins_attempted: u64,
    ins_failed: u64,
    knn_attempted: u64,
    knn_failed: u64,
    ins_ms: Vec<f64>,
    knn_ms: Vec<f64>,
    samples: Vec<Sample>,
    /// Acked inserts per second of the insert stream's own busy time.
    ingest_rate: f64,
    qps: f64,
}

/// Run the mixed load for `rounds` rounds of `round` inserts, continuing
/// after `acked` inserts.
fn mixed_phase(
    run: &mut Run,
    conns: &mut [Conn],
    rows: &[f32],
    queries: &[Vec<f32>],
    (round, rounds): (usize, usize),
    acked: usize,
) -> Outcome {
    let mut m = Mixed::new(
        rows,
        queries,
        acked,
        acked + rounds * round,
        &mut run.tracer,
    );
    drive(conns, &[1, QUERY_WINDOW], &mut m, STALL).expect("mixed load");
    Outcome {
        ids_ok: m.ids_ok,
        ins_attempted: (m.ins_sent - acked) as u64,
        ins_failed: m.ins_failed,
        knn_attempted: m.knn_sent,
        knn_failed: m.knn_failed,
        // Over the inserts' own latencies, compacting ones included: the
        // stream waits on the queries between them, and that idle time
        // would tie the rate to the read path.
        ingest_rate: (m.acked - acked) as f64 / (m.ins_ms.iter().sum::<f64>() / 1e3),
        qps: m.knn_ms.len() as f64 / (m.finished - m.started).as_secs_f64(),
        acked: m.acked,
        ins_ms: m.ins_ms,
        knn_ms: m.knn_ms,
        samples: m.samples,
    }
}

pub fn run(run: &mut Run) {
    // A fixed amount of work per run, one round per requested second:
    // the corpus grows with every round, so a time-bounded run would end
    // at a different size on a faster or slower build and compare
    // different work.
    let round = options().memtable_limit;
    let rounds = (run.seconds.round() as usize).max(1);
    let per_phase = if run.trace {
        rounds.div_ceil(2)
    } else {
        rounds
    };
    let phases = if run.trace { 2 } else { 1 };
    let rows = descriptors(BASE + phases * per_phase * round, run.seed);
    let queries = member_queries(&rows[..BASE * DIM], 512, run.seed);
    run.report
        .fact("peak_rss_inputs_mb", format!("{:.1}", host::peak_rss_mb()));
    let work = WorkDir::new(&run.root, "live-ingest");
    let dir = work.path().join("store");

    let mut setup_s = Vec::new();
    let mut current = None;
    for _ in 0..run.setups() {
        if let Some((server, _, conns)) = current.take() {
            drop::<Vec<Conn>>(conns);
            cbir_server::ServerHandle::shutdown(server);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let db = database_from_rows(descriptor_pipeline(), &rows[..BASE * DIM]);
        CorpusStore::create_from_database(&dir, &db, options()).expect("create store");
        drop(db);
        let store = CorpusStore::open(&dir, options()).expect("open store");
        let server = Server::spawn_corpus(
            ServedCorpus::Live(Arc::clone(&store)),
            "127.0.0.1:0",
            SchedulerConfig::default(),
        )
        .expect("spawn server");
        let mut conns: Vec<Conn> = (0..2)
            .map(|_| Conn::connect(server.local_addr()).expect("connect"))
            .collect();
        // Warm the segment's lazily built VP tree and both connections.
        let mut warm = KnnLoad::new(&queries, 1.0, (0, 16), &mut run.tracer);
        drive(&mut conns, &[WINDOW, WINDOW], &mut warm, STALL).expect("warm-up load");
        setup_s.push(t.elapsed().as_secs_f64());
        current = Some((server, store, conns));
    }
    let (server, store, mut conns) = current.expect("at least one setup");
    let peak_rss = host::peak_rss_mb();

    let plain = mixed_phase(run, &mut conns, &rows, &queries, (round, per_phase), 0);
    let traced = run.trace.then(|| {
        run.tracer.set_on(true);
        let o = mixed_phase(
            run,
            &mut conns,
            &rows,
            &queries,
            (round, per_phase),
            plain.acked,
        );
        run.tracer.set_on(false);
        o
    });
    drop(conns);
    run.report
        .fact("peak_rss_run_mb", format!("{:.1}", host::peak_rss_mb()));
    let phases: Vec<&Outcome> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    let acked = phases.last().expect("a phase").acked;
    let r = &mut run.report;
    r.ops(
        "insert",
        phases.iter().map(|o| o.ins_attempted).sum(),
        phases.iter().map(|o| o.ins_failed).sum(),
    );
    r.ops(
        "knn",
        phases.iter().map(|o| o.knn_attempted).sum(),
        phases.iter().map(|o| o.knn_failed).sum(),
    );
    r.check(
        "insert ids are dense and in order",
        phases.iter().all(|o| o.ids_ok && o.ins_failed == 0),
        format!("{acked} inserts acked"),
    );
    // Each insert that fills the memtable to its limit compacts it.
    let compactions = (acked / round) as u64;
    let snap = store.snapshot();
    r.check(
        "the memtable was compacted at every crossing of its limit",
        snap.memtable_rows() == acked % round && snap.total_rows() == BASE + acked,
        format!(
            "{} memtable rows, {} rows after {acked} inserts",
            snap.memtable_rows(),
            snap.total_rows()
        ),
    );
    drop(snap);
    r.fact("compactions", compactions);
    let samples: Vec<&Sample> = phases.iter().flat_map(|o| &o.samples).collect();
    check_samples(r, &rows, &queries, &samples);

    let (_, _, live_rows) = Client::connect(server.local_addr())
        .expect("connect")
        .compact()
        .expect("final compaction");
    let disk = host::dir_bytes(&dir);
    r.fact("store_fs", host::filesystem(&dir));

    if run.trace {
        let t = traced.as_ref().expect("traced phase");
        let overhead = median(&t.knn_ms) - median(&plain.knn_ms);
        run.report
            .fact("tracing_overhead_p50_ms", format!("{overhead:.6}"));
        let mut bs = BatchStats::new();
        let served_rows = &rows[..(BASE + acked) * DIM];
        // Warm the post-compaction segment index outside the probes.
        store
            .snapshot()
            .knn_batch(&queries[..1], K, 1, &mut bs)
            .expect("warm query");
        ledger::run(
            LedgerInput {
                pipeline: descriptor_pipeline(),
                rows: served_rows,
                kind: IndexKind::VpTree,
                measure: Measure::L1,
                queries: &queries,
                recall_target: 1.0,
                images: &[],
                qbe_engine: None,
                served: ServedCorpus::Live(Arc::clone(&store)),
                served_batch: 1,
                server: Some(server.local_addr()),
                tier: None,
                compactions: compactions + 1,
                seed: run.seed,
                work: work.path(),
            },
            &mut run.tracer,
            &mut run.report,
        );
    }
    server.shutdown();
    drop(store);

    let r = &mut run.report;
    let fsck = fsck_dir(&dir);
    r.check(
        "fsck_dir passes after the final compaction",
        fsck.as_ref().is_ok_and(|f| f.is_ok()),
        format!(
            "{:?}",
            fsck.as_ref().map(|f| f.is_ok()).map_err(|e| e.to_string())
        ),
    );
    let reopened = CorpusStore::open(&dir, options()).expect("cold open");
    let snap = reopened.snapshot();
    let probe: Vec<usize> = (0..8)
        .map(|i| BASE + i * acked / 8)
        .chain([BASE + acked - 1])
        .collect();
    let kept = probe.iter().all(|&id| {
        snap.descriptor(id as u64)
            .is_ok_and(|d| d == rows[id * DIM..(id + 1) * DIM])
    });
    r.check(
        "a cold open holds every acked row",
        live_rows == (BASE + acked) as u64 && snap.total_rows() == BASE + acked && kept,
        format!(
            "{} rows on reopen, {live_rows} at compaction",
            snap.total_rows()
        ),
    );
    if run.trace {
        return;
    }
    r.metric_n("setup_s", median(&setup_s), "s", setup_s.len());
    r.metric_n(
        "ingest_rows_per_s",
        plain.ingest_rate,
        "rows/s",
        plain.ins_ms.len(),
    );
    report_latency(r, "query", &plain.knn_ms);
    r.metric_n("query_qps", plain.qps, "1/s", plain.knn_ms.len());
    report_latency(r, "insert", &plain.ins_ms);
    r.metric("peak_rss_mb", peak_rss, "MB");
    r.metric("disk_bytes_per_row", disk as f64 / live_rows as f64, "B");
}

/// Each sampled reply must equal the f64 oracle over the base rows plus a
/// prefix of the inserts: at least those acked before the query went out,
/// at most those sent before its reply came back.
fn check_samples(
    r: &mut crate::report::Report,
    rows: &[f32],
    queries: &[Vec<f32>],
    samples: &[&Sample],
) {
    let row = |i: usize| &rows[i * DIM..(i + 1) * DIM];
    let mut bad = 0;
    let mut first = String::new();
    for s in samples {
        let q = &queries[s.query];
        let lo = BASE + s.acked_at_send;
        let hi = BASE + s.sent_at_reply;
        let mut top = TopK::new(K);
        for i in 0..lo {
            top.offer(i as u64, oracle::distance(Metric::L1, q, row(i)));
        }
        let mut ok = false;
        for m in lo..=hi {
            if m > lo {
                top.offer((m - 1) as u64, oracle::distance(Metric::L1, q, row(m - 1)));
            }
            let own = |id: u64| {
                ((id as usize) < m).then(|| oracle::distance(Metric::L1, q, row(id as usize)))
            };
            if oracle::check_exact(&s.hits, top.sorted(), own).is_ok() {
                ok = true;
                break;
            }
        }
        if !ok {
            if bad == 0 {
                first = format!("query {} visible {lo}..={hi}: {:?}", s.query, s.hits);
            }
            bad += 1;
        }
    }
    r.check(
        "sampled queries equal the oracle over the base rows plus the acked inserts",
        bad == 0 && !samples.is_empty(),
        format!("{bad} of {} differ {first}", samples.len()),
    );
}
