//! `qbe-images`: the paper's own path, in process. Encoded images are
//! decoded, their full feature signatures extracted into an
//! `ImageDatabase`, and an Antipole tree under L1 (the `cbir query`
//! defaults) answers query-by-example for held-out images, one caller at
//! a time. Decoding and extraction dominate; the index does little.

use crate::common::{report_latency, Run, K};
use crate::host::{self, WorkDir};
use crate::ledger::{self, LedgerInput};
use crate::oracle::{self, Metric};
use crate::report::median;
use crate::trace::NONE;
use cbir_core::{BatchItem, ImageDatabase, IndexKind, QueryEngine, ServedCorpus};
use cbir_distance::Measure;
use cbir_features::Pipeline;
use cbir_image::codec::{encode_ppm, PnmEncoding};
use cbir_index::SearchStats;
use std::sync::Arc;
use std::time::Instant;

const CLASSES: usize = 20;
const DB_PER_CLASS: usize = 80;
/// Enough held-out images that the slowest 1% of a round is a property of
/// the corpus, not of a handful of images a seed happens to draw.
const HELD_OUT_PER_CLASS: usize = 48;
/// Database images re-sent byte for byte among the queries.
const COPIES: usize = 40;
/// Seconds one round (every query once, an insert after every second)
/// took on the reference host.
const ROUND_S: f64 = 2.2;

struct Query {
    bytes: Arc<Vec<u8>>,
    class: usize,
    /// `Some(i)` when the bytes are database image `i`'s, unchanged.
    copy_of: Option<usize>,
}

/// Single-image inserts (decode, extract, append) into a copy of the
/// database, one after every second query.
struct Inserts<'a> {
    images: &'a [(Arc<Vec<u8>>, usize)],
    db: ImageDatabase,
    lat_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Inserts<'_> {
    fn one(&mut self) {
        let j = self.attempted as usize;
        self.attempted += 1;
        let (bytes, class) = &self.images[j % self.images.len()];
        let t = Instant::now();
        let r = cbir_image::decode(bytes)
            .map_err(|e| e.to_string())
            .and_then(|img| {
                self.db
                    .insert_labeled(format!("ins-{j}"), *class as u32, &img.into_rgb())
                    .map_err(|e| e.to_string())
            });
        match r {
            Ok(_) => self.lat_ms.push(t.elapsed().as_secs_f64() * 1e3),
            Err(e) => {
                eprintln!("insert {j} failed: {e}");
                self.failed += 1;
            }
        }
    }
}

/// One caller, closed loop: decode then query by example, `run.rounds`
/// whole rounds over the query list, with an insert after every second
/// query. Returns the query latencies; the first reply to each query is
/// kept in `replies` for the checks.
fn timed(
    run: &mut Run,
    engine: &QueryEngine,
    queries: &[Query],
    replies: &mut [Option<Vec<(u64, f32)>>],
    inserts: &mut Inserts<'_>,
) -> Vec<f64> {
    let total = run.rounds(ROUND_S) * queries.len();
    let (mut lat_ms, mut failed, mut sent) = (Vec::new(), 0u64, 0usize);
    while sent < total {
        let qi = sent % queries.len();
        let req = sent as u64;
        sent += 1;
        let tr = &mut run.tracer;
        let t = Instant::now();
        let root = tr.begin("qbe.request", NONE, req);
        let img = tr.span("image.decode", root, req, || {
            cbir_image::decode(&queries[qi].bytes)
        });
        let result = img.map_err(|e| e.to_string()).and_then(|img| {
            let img = img.into_rgb();
            let mut stats = SearchStats::new();
            tr.span("engine.qbe", root, req, || {
                engine.query_by_example(&img, K, &mut stats)
            })
            .map_err(|e| e.to_string())
        });
        tr.end(root);
        match result {
            Ok(hits) => {
                lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if replies[qi].is_none() {
                    replies[qi] = Some(hits.iter().map(|h| (h.id as u64, h.distance)).collect());
                }
            }
            Err(e) => {
                eprintln!("query {qi} failed: {e}");
                failed += 1;
            }
        }
        if sent % 2 == 0 {
            inserts.one();
        }
    }
    run.report.ops("qbe", sent as u64, failed);
    lat_ms
}

pub fn run(run: &mut Run) {
    // Inputs, before any clock: a class-structured corpus encoded to PPM.
    // Each image is freed once encoded, so generating the inputs peaks at
    // about one copy of the corpus, below what set-up holds.
    let corpus = cbir_workload::Corpus::generate(cbir_workload::CorpusSpec {
        classes: CLASSES,
        images_per_class: DB_PER_CLASS + HELD_OUT_PER_CLASS,
        image_size: 128,
        seed: run.seed,
        ..Default::default()
    });
    let per_class = DB_PER_CLASS + HELD_OUT_PER_CLASS;
    let mut db_bytes = Vec::new();
    let mut db_labels = Vec::new();
    let mut held_out = Vec::new();
    let labels = corpus.labels;
    for (i, img) in corpus.images.into_iter().enumerate() {
        let bytes = encode_ppm(&img, PnmEncoding::Binary);
        drop(img);
        if i % per_class < DB_PER_CLASS {
            db_bytes.push(Arc::new(bytes));
            db_labels.push(labels[i]);
        } else {
            held_out.push((Arc::new(bytes), labels[i]));
        }
    }
    run.report
        .fact("peak_rss_inputs_mb", format!("{:.1}", host::peak_rss_mb()));
    let mut queries: Vec<Query> = held_out
        .iter()
        .map(|(b, c)| Query {
            bytes: Arc::clone(b),
            class: *c,
            copy_of: None,
        })
        .collect();
    let stride = db_bytes.len() / COPIES;
    for j in 0..COPIES {
        let i = j * stride + j % stride;
        queries.push(Query {
            bytes: Arc::clone(&db_bytes[i]),
            class: db_labels[i],
            copy_of: Some(i),
        });
    }

    // Setup: decode, extract and insert the database, build the index.
    let threads = host::nproc();
    let (mut setup_s, mut ingest) = (Vec::new(), Vec::new());
    let mut engine = None;
    for _ in 0..run.setups() {
        drop(engine.take());
        let t = Instant::now();
        let images: Vec<_> = db_bytes
            .iter()
            .map(|b| {
                cbir_image::decode(b)
                    .expect("generated image decodes")
                    .into_rgb()
            })
            .collect();
        let items: Vec<BatchItem<'_>> = images
            .iter()
            .enumerate()
            .map(|(i, image)| BatchItem {
                name: format!("db-{i:05}"),
                label: Some(db_labels[i] as u32),
                image,
            })
            .collect();
        let mut db = ImageDatabase::new(Pipeline::full_default());
        db.insert_batch(&items, threads).expect("ingest");
        ingest.push(db.len() as f64 / t.elapsed().as_secs_f64());
        drop(items);
        drop(images);
        let e = QueryEngine::build(db, IndexKind::Antipole { diameter: None }, Measure::L1)
            .expect("engine");
        let mut stats = SearchStats::new();
        let warm = cbir_image::decode(&queries[0].bytes)
            .expect("decode")
            .into_rgb();
        e.query_by_example(&warm, K, &mut stats)
            .expect("warm query");
        setup_s.push(t.elapsed().as_secs_f64());
        engine = Some(Arc::new(e));
    }
    let engine = engine.expect("at least one setup");

    // Timed phases (the traced run adds a traced pass of the same loop).
    let mut replies = vec![None; queries.len()];
    let mut inserts = Inserts {
        images: &held_out,
        db: engine.database().clone(),
        lat_ms: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let plain = timed(run, &engine, &queries, &mut replies, &mut inserts);
    let traced = run.trace.then(|| {
        run.tracer.set_on(true);
        let p = timed(run, &engine, &queries, &mut replies, &mut inserts);
        run.tracer.set_on(false);
        p
    });
    // Set-up and the timed run; the inputs' own peak is below it.
    let peak_rss = host::peak_rss_mb();
    run.report.ops("insert", inserts.attempted, inserts.failed);
    let insert_ms = std::mem::take(&mut inserts.lat_ms);
    drop(inserts);

    check(run, &engine, &queries, &replies);

    let work = WorkDir::new(&run.root, "qbe-images");
    run.report.fact("store_fs", host::filesystem(work.path()));
    if !run.trace {
        let file = work.path().join("db.cbir");
        cbir_core::persist::save_file(engine.database(), &file).expect("save database");
        let bytes = std::fs::metadata(&file).expect("saved file").len();
        let r = &mut run.report;
        r.metric_n("setup_s", median(&setup_s), "s", setup_s.len());
        r.metric_n("ingest_rows_per_s", median(&ingest), "rows/s", ingest.len());
        report_latency(r, "query", &plain);
        // One caller, one query at a time: throughput is the reciprocal
        // of the mean query time (inserts between queries excluded).
        let busy_s: f64 = plain.iter().sum::<f64>() / 1e3;
        r.metric_n("query_qps", plain.len() as f64 / busy_s, "1/s", plain.len());
        report_latency(r, "insert", &insert_ms);
        r.metric("peak_rss_mb", peak_rss, "MB");
        r.metric(
            "disk_bytes_per_row",
            bytes as f64 / engine.database().len() as f64,
            "B",
        );
        return;
    }
    let traced = traced.expect("traced phase");
    let overhead = median(&traced) - median(&plain);
    run.report
        .fact("tracing_overhead_p50_ms", format!("{overhead:.6}"));
    let descs: Vec<Vec<f32>> = held_out
        .iter()
        .take(64)
        .map(|(b, _)| {
            let img = cbir_image::decode(b).expect("decode").into_rgb();
            engine.database().extract(&img).expect("extract")
        })
        .collect();
    let images: Vec<Vec<u8>> = held_out.iter().take(64).map(|(b, _)| b.to_vec()).collect();
    ledger::run(
        LedgerInput {
            pipeline: engine.database().pipeline().clone(),
            rows: engine.database().flat_descriptors(),
            kind: IndexKind::Antipole { diameter: None },
            measure: Measure::L1,
            queries: &descs,
            recall_target: 1.0,
            images: &images,
            qbe_engine: Some(&engine),
            served: ServedCorpus::Static(Arc::clone(&engine)),
            served_batch: 1,
            server: None,
            tier: None,
            compactions: 0,
            seed: run.seed,
            work: work.path(),
        },
        &mut run.tracer,
        &mut run.report,
    );
}

/// Checks against computations made apart from the program's index.
fn check(
    run: &mut Run,
    engine: &QueryEngine,
    queries: &[Query],
    replies: &[Option<Vec<(u64, f32)>>],
) {
    let db = engine.database();
    let dim = db.dim();
    let flat = db.flat_descriptors();
    let (mut mismatches, mut copies_bad, mut first_err) = (0usize, 0usize, String::new());
    let mut precision = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let Some(reply) = &replies[qi] else { continue };
        let img = cbir_image::decode(&q.bytes).expect("decode").into_rgb();
        let desc = db.extract(&img).expect("extract");
        let truth = oracle::knn(Metric::L1, &desc, flat, K);
        let own = |id: u64| {
            let i = id as usize;
            (i < db.len())
                .then(|| oracle::distance(Metric::L1, &desc, &flat[i * dim..(i + 1) * dim]))
        };
        if let Err(e) = oracle::check_exact(reply, &truth, own) {
            if mismatches == 0 {
                first_err = format!("query {qi}: {e}");
            }
            mismatches += 1;
        }
        match q.copy_of {
            Some(i) => {
                if reply.first() != Some(&(i as u64, 0.0)) {
                    copies_bad += 1;
                }
            }
            None => {
                let same = reply
                    .iter()
                    .filter(|(id, _)| {
                        db.meta(*id as usize).ok().and_then(|m| m.label) == Some(q.class as u32)
                    })
                    .count();
                precision.push(same as f64 / K as f64);
            }
        }
    }
    let answered = replies.iter().filter(|r| r.is_some()).count();
    run.report.check(
        "top-10 matches the f64 oracle over the database descriptors",
        mismatches == 0 && answered == queries.len(),
        format!("{mismatches} of {answered} differ {first_err}"),
    );
    run.report.check(
        "a byte-identical database image returns itself first at distance 0",
        copies_bad == 0,
        format!("{copies_bad} of {COPIES} did not"),
    );
    let mean_p = precision.iter().sum::<f64>() / precision.len().max(1) as f64;
    let chance = 1.0 / CLASSES as f64;
    run.report.fact("precision_at_10", format!("{mean_p:.4}"));
    // Ten times chance: a feature layer that stopped separating the
    // classes falls far below this, however exact the index stays.
    run.report.check(
        "mean precision@10 against class labels is well above chance",
        mean_p >= 10.0 * chance,
        format!("{mean_p:.3} (chance {chance:.3})"),
    );
}
