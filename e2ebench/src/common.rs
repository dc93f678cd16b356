//! Inputs and helpers the workloads share.

use crate::report::{median, percentile, Report};
use crate::trace::{Tracer, NONE};
use crate::wire::Load;
use cbir_core::ImageDatabase;
use cbir_core::ImageMeta;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_server::{Request, Response};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const K: usize = 10;
pub const DIM: usize = 64;
/// Requests one connection keeps in flight while warming up, and the
/// batch the ledger's scheduler probe fills from two connections.
pub const WINDOW: usize = 4;
/// A connection silent this long fails the run instead of hanging it.
pub const STALL: Duration = Duration::from_secs(60);

/// What every workload needs from the command line and keeps until the end.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `.bench_work` in the checkout: stores, spans and reports live here.
    pub root: PathBuf,
    pub tracer: Tracer,
    pub report: Report,
}

impl Run {
    /// Setups per run: the median of three is reported as `setup_s`. The
    /// traced run sets up once; it reports no end-to-end metrics.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }

    /// Seconds of each timed phase: the traced run splits its time between
    /// an untraced and a traced pass of the same loop, whose difference
    /// is the tracing overhead.
    fn phase_s(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Whole rounds each timed phase runs. The work is fixed by
    /// `--seconds`, not by the clock, so a faster or slower build does the
    /// same work: `round_s` is what one round took on the reference host
    /// (see the README), so a phase lasts about its share of `--seconds`
    /// there.
    pub fn rounds(&self, round_s: f64) -> usize {
        ((self.phase_s() / round_s).round() as usize).max(1)
    }
}

/// Clustered descriptors with spatially smooth within-cluster residuals
/// (the spectral shape of image descriptors; see
/// `cbir_workload::clustered_smooth`), groups of ~64 rows, row-major.
pub fn descriptors(n: usize, seed: u64) -> Vec<f32> {
    let clusters = (n / 64).max(8);
    cbir_workload::clustered_smooth(n, DIM, clusters, 10.0, 100.0, 8, seed)
        .into_iter()
        .flatten()
        .collect()
}

/// Queries near database members: each a row plus Gaussian noise of
/// standard deviation 5 (half the within-group spread).
pub fn member_queries(rows: &[f32], count: usize, seed: u64) -> Vec<Vec<f32>> {
    let n = rows.len() / DIM;
    let mut rng = cbir_workload::Pcg32::new(seed ^ 0x51ED);
    (0..count)
        .map(|_| {
            let r = rng.below(n);
            rows[r * DIM..(r + 1) * DIM]
                .iter()
                .map(|&x| x + rng.normal() * 5.0)
                .collect()
        })
        .collect()
}

/// The pipeline a descriptor-only corpus is stored under: it fixes the
/// dimensionality; nothing is extracted with it.
pub fn descriptor_pipeline() -> Pipeline {
    Pipeline::new(
        DIM as u32,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray {
            bins: DIM as u32,
        })],
    )
    .expect("static pipeline")
}

/// The program's own bulk path for descriptor corpora.
pub fn database_from_rows(pipeline: Pipeline, rows: &[f32]) -> ImageDatabase {
    let dim = pipeline.dim();
    let mut db = ImageDatabase::new(pipeline);
    for (i, row) in rows.chunks_exact(dim).enumerate() {
        db.insert_descriptor(
            ImageMeta {
                name: format!("row-{i:07}"),
                label: None,
            },
            row.to_vec(),
        )
        .expect("generated descriptors are finite and of the pipeline's dim");
    }
    db
}

/// `(id, distance)` pairs of a hits reply.
pub fn hits_of(resp: &Response) -> Option<Vec<(u64, f32)>> {
    match resp {
        Response::Hits { hits, .. } => Some(hits.iter().map(|h| (h.id, h.distance)).collect()),
        _ => None,
    }
}

/// The median over consecutive windows of at least `window` samples (in
/// completion order) of each window's `pct`-th percentile. A burst of load
/// from outside the program that covers a few windows of a run moves this
/// little, where it would move the percentile of all samples by as much as
/// the burst's share of the run.
fn windowed_percentile(samples_ms: &[f64], pct: f64, window: usize) -> f64 {
    let n = samples_ms.len();
    let windows = (n / window).max(1);
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let mut win = samples_ms[w * n / windows..(w + 1) * n / windows].to_vec();
            win.sort_by(f64::total_cmp);
            percentile(&win, pct)
        })
        .collect();
    median(&per_window)
}

/// Report latencies in ms under `prefix`: the p50, the p90 and (for the
/// report only) the p99 as windowed percentiles, over windows with at
/// least 30 samples beyond the p90 and 10 beyond the p99.
pub fn report_latency(report: &mut Report, prefix: &str, samples_ms: &[f64]) {
    let n = samples_ms.len();
    let p50 = windowed_percentile(samples_ms, 50.0, 300);
    report.metric_n(&format!("{prefix}_p50_ms"), p50, "ms", n);
    let p90 = windowed_percentile(samples_ms, 90.0, 300);
    report.metric_n(&format!("{prefix}_p90_ms"), p90, "ms", n);
    let p99 = windowed_percentile(samples_ms, 99.0, 1000);
    report.report_only(&format!("{prefix}_p99_ms"), p99, "ms", n);
}

/// Closed-loop k-NN over the wire: `count` queries taken from `queries`
/// in order, starting at tag `first`.
pub struct KnnLoad<'a> {
    pub queries: &'a [Vec<f32>],
    pub recall_target: f32,
    pub count: u64,
    /// Tag of the first request; the query pool is walked from there.
    pub first: u64,
    pub sent: u64,
    pub failed: u64,
    pub lat_ms: Vec<f64>,
    /// Every reply's hits by query tag (the tag is the send sequence).
    pub replies: Vec<(u64, Vec<(u64, f32)>)>,
    pub started: Instant,
    pub finished: Instant,
    pub tracer: &'a mut Tracer,
}

impl<'a> KnnLoad<'a> {
    pub fn new(
        queries: &'a [Vec<f32>],
        recall_target: f32,
        (first, count): (u64, u64),
        tracer: &'a mut Tracer,
    ) -> KnnLoad<'a> {
        let now = Instant::now();
        KnnLoad {
            queries,
            recall_target,
            count,
            first,
            sent: 0,
            failed: 0,
            lat_ms: Vec::new(),
            replies: Vec::new(),
            started: now,
            finished: now,
            tracer,
        }
    }
}

pub fn knn_request(descriptor: &[f32], recall_target: f32) -> Request {
    Request::Knn {
        k: K as u32,
        deadline_us: 0,
        recall_target,
        descriptor: descriptor.to_vec(),
    }
}

impl Load for KnnLoad<'_> {
    fn next(&mut self, _conn: usize) -> Option<(u64, Request)> {
        if self.sent == self.count {
            return None;
        }
        let tag = self.first + self.sent;
        self.sent += 1;
        let q = &self.queries[(tag % self.queries.len() as u64) as usize];
        Some((tag, knn_request(q, self.recall_target)))
    }

    fn reply(&mut self, _conn: usize, tag: u64, sent: Instant, done: Instant, resp: Response) {
        self.tracer.record("wire.knn", sent, done, NONE, tag);
        self.finished = done;
        match hits_of(&resp) {
            Some(hits) => {
                self.lat_ms.push((done - sent).as_secs_f64() * 1e3);
                self.replies.push((tag, hits));
            }
            None => {
                eprintln!("knn {tag} failed: {resp:?}");
                self.failed += 1;
            }
        }
    }
}

/// One-at-a-time inserts spread round-robin over connections (a
/// connection's next insert goes out when its previous one is acked).
/// Row `first + i` of the insert stream is `row(first + i)`.
pub struct InsertLoad<'a> {
    pub row: &'a dyn Fn(usize) -> Vec<f32>,
    pub first: usize,
    pub count: usize,
    pub conns: usize,
    pub sent: Vec<usize>,
    pub failed: u64,
    pub lat_ms: Vec<f64>,
    /// `(connection, acked id)` in ack order.
    pub acks: Vec<(usize, u64)>,
}

impl<'a> InsertLoad<'a> {
    pub fn new(
        row: &'a dyn Fn(usize) -> Vec<f32>,
        first: usize,
        count: usize,
        conns: usize,
    ) -> InsertLoad<'a> {
        InsertLoad {
            row,
            first,
            count,
            conns,
            sent: vec![0; conns],
            failed: 0,
            lat_ms: Vec::new(),
            acks: Vec::new(),
        }
    }
}

pub fn insert_request(row: usize, descriptor: &[f32]) -> Request {
    Request::Insert {
        name: format!("ins-{row:07}"),
        label: None,
        descriptor: descriptor.to_vec(),
    }
}

impl Load for InsertLoad<'_> {
    fn next(&mut self, conn: usize) -> Option<(u64, Request)> {
        let i = self.sent[conn] * self.conns + conn;
        if i >= self.count {
            return None;
        }
        self.sent[conn] += 1;
        let row = self.first + i;
        Some((row as u64, insert_request(row, &(self.row)(row))))
    }

    fn reply(&mut self, conn: usize, tag: u64, sent: Instant, done: Instant, resp: Response) {
        match resp {
            Response::InsertAck { id, .. } => {
                self.lat_ms.push((done - sent).as_secs_f64() * 1e3);
                self.acks.push((conn, id));
            }
            other => {
                eprintln!("insert {tag} failed: {other:?}");
                self.failed += 1;
            }
        }
    }
}
