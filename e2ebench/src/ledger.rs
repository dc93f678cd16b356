//! The per-layer ledger of a traced run. Each probe calls one layer's
//! public functions on the workload's own rows, queries and frames, under
//! a span recorded here, so every layer's cost is measured in the same run
//! as the layers beneath it. Nothing is traced inside the program.

use crate::common::{database_from_rows, knn_request, K};
use crate::host;
use crate::report::{median, Report};
use crate::trace::{Tracer, NONE};
use cbir_core::{
    build_index, plan_candidate_budget, split_database, BatchItem, CorpusStore, ImageDatabase,
    IndexKind, QueryEngine, ServedCorpus, ShardPlan, ShardScheme, StoreOptions,
};
use cbir_distance::Measure;
use cbir_features::{FeatureKind, Pipeline};
use cbir_image::codec::{encode_ppm, PnmEncoding};
use cbir_image::RgbImage;
use cbir_index::{
    rerank_exact, ApproxScratch, ApproxSearch, BatchStats, CoarseHaarIndex, Dataset, SearchStats,
};
use cbir_router::{merge_topk, Router, RouterConfig, RouterHandle};
use cbir_server::protocol::{decode_request, decode_response, encode_request, encode_response};
use cbir_server::scheduler::ranked_to_hits;
use cbir_server::{
    Client, EventLoopConfig, Hit, Metrics, Pending, QueryWork, ReplySink, Response, Scheduler,
    SchedulerConfig, Server, ServerHandle,
};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Probe repetitions: enough for a steady median, few enough that the
/// traced run stays short on the largest workload.
const REPS: usize = 32;
/// Memory-bandwidth probe buffer: 32x the per-core L2.
const MEMBW_BYTES: usize = 128 << 20;

/// A running router tier: the router and its shard backends.
pub struct TierAddrs {
    pub router: SocketAddr,
    pub backends: Vec<SocketAddr>,
    pub plan: ShardPlan,
}

/// What the ledger needs from the workload it follows.
pub struct LedgerInput<'a> {
    /// The pipeline the workload's corpus is stored under.
    pub pipeline: Pipeline,
    pub rows: &'a [f32],
    pub kind: IndexKind,
    pub measure: Measure,
    pub queries: &'a [Vec<f32>],
    pub recall_target: f32,
    /// Encoded images for the decode and extraction probes; when empty,
    /// a small class-structured corpus is generated from the seed.
    pub images: &'a [Vec<u8>],
    /// The workload's query-by-example engine, if it has one.
    pub qbe_engine: Option<&'a QueryEngine>,
    /// The corpus the workload serves.
    pub served: ServedCorpus,
    /// Mean batch the workload's scheduler executed (1 without a server).
    pub served_batch: usize,
    /// The workload's own server, if it has one.
    pub server: Option<SocketAddr>,
    /// The workload's own router tier, if it has one.
    pub tier: Option<TierAddrs>,
    /// Compactions the workload itself committed.
    pub compactions: u64,
    pub seed: u64,
    pub work: &'a Path,
}

fn family_span(kind: FeatureKind) -> &'static str {
    match kind {
        FeatureKind::ColorHistogram => "features.color_histogram",
        FeatureKind::ColorMoments => "features.color_moments",
        FeatureKind::Correlogram => "features.correlogram",
        FeatureKind::Glcm => "features.glcm",
        FeatureKind::Tamura => "features.tamura",
        FeatureKind::Wavelet => "features.wavelet",
        FeatureKind::EdgeOrientation => "features.edge_orientation",
        FeatureKind::EdgeDensityGrid => "features.edge_density_grid",
        FeatureKind::HuMoments => "features.hu_moments",
        FeatureKind::ShapeSummary => "features.shape_summary",
        FeatureKind::DtHistogram => "features.dt_histogram",
        FeatureKind::RegionShape => "features.region_shape",
    }
}

/// Generated probe images for workloads without images of their own.
fn probe_images(seed: u64) -> Vec<Vec<u8>> {
    let corpus = cbir_workload::Corpus::generate(cbir_workload::CorpusSpec {
        classes: 8,
        images_per_class: 8,
        image_size: 128,
        seed,
        ..Default::default()
    });
    corpus
        .images
        .iter()
        .map(|img| encode_ppm(img, PnmEncoding::Binary))
        .collect()
}

fn span_median(tr: &Tracer, name: &str) -> f64 {
    tr.median_us(name)
        .unwrap_or_else(|| panic!("the ledger recorded no {name} span"))
}

/// Run every probe and report the per-layer metrics.
pub fn run(input: LedgerInput<'_>, tr: &mut Tracer, report: &mut Report) {
    let was_on = tr.is_on();
    tr.set_on(true);
    features(&input, tr, report);
    distance_and_index(&input, tr, report);
    engine(&input, tr, report);
    store(&input, tr, report);
    serving(&input, tr, report);
    tr.set_on(was_on);
}

fn features(input: &LedgerInput<'_>, tr: &mut Tracer, report: &mut Report) {
    let generated;
    let encoded: &[Vec<u8>] = if input.images.is_empty() {
        generated = probe_images(input.seed);
        &generated
    } else {
        input.images
    };
    let encoded = &encoded[..encoded.len().min(REPS)];
    let images: Vec<RgbImage> = encoded
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            tr.span("image.decode", NONE, i as u64, || {
                cbir_image::decode(bytes).expect("probe image decodes")
            })
            .into_rgb()
        })
        .collect();
    report.metric_n(
        "image.decode_us",
        span_median(tr, "image.decode"),
        "us",
        images.len(),
    );

    let full = Pipeline::full_default();
    for (i, img) in images.iter().enumerate() {
        black_box(tr.span("features.extract", NONE, i as u64, || {
            full.extract_balanced(img).expect("extract")
        }));
    }
    report.metric_n(
        "features.extract_us",
        span_median(tr, "features.extract"),
        "us",
        images.len(),
    );

    let refs: Vec<&RgbImage> = images.iter().collect();
    let t = Instant::now();
    black_box(tr.span("features.extract_batch", NONE, 0, || {
        full.extract_balanced_batch(&refs, host::nproc())
            .expect("batch extract")
    }));
    report.metric_n(
        "features.extract_batch_us_per_image",
        t.elapsed().as_secs_f64() * 1e6 / refs.len() as f64,
        "us",
        refs.len(),
    );

    for spec in full.specs() {
        let name = family_span(spec.kind());
        let one =
            Pipeline::new(full.canonical_size(), vec![spec.clone()]).expect("one-family pipeline");
        for (i, img) in images.iter().enumerate() {
            black_box(tr.span(name, NONE, i as u64, || {
                one.extract_balanced(img).expect("extract")
            }));
        }
        report.metric_n(
            &format!("{name}_us"),
            span_median(tr, name),
            "us",
            images.len(),
        );
    }

    // Query by example: the workload's engine, or one over the probe images.
    let own;
    let engine = match input.qbe_engine {
        Some(e) => e,
        None => {
            let mut db = ImageDatabase::new(full.clone());
            let items: Vec<BatchItem<'_>> = images
                .iter()
                .enumerate()
                .map(|(i, image)| BatchItem {
                    name: format!("probe-{i}"),
                    label: None,
                    image,
                })
                .collect();
            db.insert_batch(&items, host::nproc())
                .expect("probe ingest");
            own = QueryEngine::build(db, IndexKind::Antipole { diameter: None }, Measure::L1)
                .expect("probe engine");
            &own
        }
    };
    for (i, img) in images.iter().enumerate() {
        let mut stats = SearchStats::new();
        black_box(tr.span("engine.qbe", NONE, i as u64, || {
            engine.query_by_example(img, K, &mut stats).expect("qbe")
        }));
    }
    report.metric_n(
        "engine.qbe_us",
        span_median(tr, "engine.qbe"),
        "us",
        images.len(),
    );
}

fn distance_and_index(input: &LedgerInput<'_>, tr: &mut Tracer, report: &mut Report) {
    let dim = input.pipeline.dim();
    let n = input.rows.len() / dim;
    let queries = &input.queries[..input.queries.len().min(REPS)];

    let mut out = vec![0f32; n];
    for (i, q) in queries.iter().take(8).enumerate() {
        tr.span("distance.scan", NONE, i as u64, || {
            input.measure.dist_to_many(q, input.rows, &mut out)
        });
        black_box(&out);
    }
    let scan_us = span_median(tr, "distance.scan");
    report.metric_n(
        "distance.scan_ns_per_row",
        scan_us * 1e3 / n as f64,
        "ns",
        8,
    );
    let membw = tr.span("host.membw", NONE, 0, || {
        host::membw_bytes_per_s(MEMBW_BYTES)
    });
    let scan_rate = (input.rows.len() * 4) as f64 / (scan_us * 1e-6);
    report.metric_n(
        "distance.scan_share_of_membw",
        scan_rate / membw,
        "ratio",
        8,
    );
    report.fact("membw_gb_per_s", format!("{:.2}", membw / 1e9));

    let dataset = Dataset::from_flat(dim, input.rows.to_vec()).expect("rows form a dataset");
    let index = tr.span("index.build", NONE, 0, || {
        build_index(&input.kind, dataset.clone(), input.measure.clone()).expect("index build")
    });
    report.metric_n(
        "index.build_ms",
        span_median(tr, "index.build") / 1e3,
        "ms",
        1,
    );
    let mut stats = SearchStats::new();
    for (i, q) in queries.iter().enumerate() {
        black_box(tr.span("index.knn", NONE, i as u64, || {
            index.knn_search(q, K, &mut stats)
        }));
    }
    let nq = queries.len() as f64;
    report.metric_n(
        "index.knn_us",
        span_median(tr, "index.knn"),
        "us",
        queries.len(),
    );
    report.metric_n(
        "index.dist_evals_per_query",
        stats.distance_computations as f64 / nq,
        "count",
        queries.len(),
    );
    report.metric_n(
        "index.nodes_visited_per_query",
        stats.nodes_visited as f64 / nq,
        "count",
        queries.len(),
    );
    drop(index);

    let coarse = tr.span("index.coarse_build", NONE, 0, || {
        CoarseHaarIndex::build(&dataset, CoarseHaarIndex::default_coefficients(dim))
            .expect("coarse table")
    });
    report.metric_n(
        "index.coarse_build_ms",
        span_median(tr, "index.coarse_build") / 1e3,
        "ms",
        1,
    );
    let budget = plan_candidate_budget(n, K, 0.9).expect("0.9 is an approximate target");
    let mut scratch = ApproxScratch::new();
    let mut cands = Vec::new();
    let mut hits = Vec::new();
    let mut stats = SearchStats::new();
    for (i, q) in queries.iter().enumerate() {
        cands.clear();
        tr.span("index.coarse", NONE, i as u64, || {
            coarse.coarse_candidates(q, budget, &mut stats, &mut cands)
        });
        tr.span("index.rerank", NONE, i as u64, || {
            rerank_exact(
                &dataset,
                &input.measure,
                q,
                K,
                &cands,
                &mut scratch,
                &mut stats,
                &mut hits,
            )
        });
    }
    report.metric_n(
        "index.coarse_us",
        span_median(tr, "index.coarse"),
        "us",
        queries.len(),
    );
    report.metric_n(
        "index.rerank_us",
        span_median(tr, "index.rerank"),
        "us",
        queries.len(),
    );
    report.metric_n(
        "index.coarse_candidates_per_query",
        stats.coarse_candidates as f64 / nq,
        "count",
        queries.len(),
    );
}

fn engine(input: &LedgerInput<'_>, tr: &mut Tracer, report: &mut Report) {
    let b = input.served_batch.max(1);
    let view = input.served.pin();
    let mut per_query = Vec::new();
    for i in 0..16 {
        let batch: Vec<Vec<f32>> = (0..b)
            .map(|j| input.queries[(i * b + j) % input.queries.len()].clone())
            .collect();
        let mut stats = BatchStats::new();
        let t = Instant::now();
        black_box(tr.span("engine.knn_batch", NONE, i as u64, || {
            view.knn_batch_approx(&batch, K, input.recall_target, 1, &mut stats)
                .expect("engine batch")
        }));
        per_query.push(t.elapsed().as_secs_f64() * 1e6 / b as f64);
    }
    report.metric_n(
        "engine.knn_batch_us_per_query",
        median(&per_query),
        "us",
        per_query.len(),
    );
    report.fact("engine_batch_size", b);
}

fn store(input: &LedgerInput<'_>, tr: &mut Tracer, report: &mut Report) {
    let dim = input.pipeline.dim();
    let n = input.rows.len() / dim;
    let dir = input.work.join("ledger-store");
    let _ = std::fs::remove_dir_all(&dir);
    let options = StoreOptions::new(input.kind.clone(), input.measure.clone());
    let limit = options.memtable_limit;
    let db = database_from_rows(input.pipeline.clone(), input.rows);
    tr.span("store.create", NONE, 0, || {
        CorpusStore::create_from_database(&dir, &db, options.clone()).expect("create store")
    });
    drop(db);
    report.metric_n(
        "store.create_s",
        span_median(tr, "store.create") / 1e6,
        "s",
        1,
    );
    let store = tr.span("store.open", NONE, 0, || {
        CorpusStore::open(&dir, options.clone()).expect("open store")
    });
    report.metric_n(
        "store.open_ms",
        span_median(tr, "store.open") / 1e3,
        "ms",
        1,
    );

    // Fill the memtable to one row under its limit (no insert compacts),
    // then fold it in: a compaction at the corpus size the workload had.
    for i in 0..limit - 1 {
        let r = i % n;
        let row = input.rows[r * dim..(r + 1) * dim].to_vec();
        let meta = cbir_core::ImageMeta {
            name: format!("probe-{i}"),
            label: None,
        };
        tr.span("store.insert", NONE, i as u64, || {
            store.insert(meta, row).expect("insert")
        });
    }
    report.metric_n(
        "store.insert_us",
        span_median(tr, "store.insert"),
        "us",
        limit - 1,
    );
    let stats = tr.span("store.compact", NONE, 0, || {
        store.compact().expect("compact")
    });
    report.metric_n(
        "store.compact_ms",
        span_median(tr, "store.compact") / 1e3,
        "ms",
        1,
    );
    report.metric_n(
        "store.compact_bytes_per_row",
        stats.bytes_written as f64 / stats.rows as f64,
        "B",
        1,
    );
    report.metric("store.compactions", (input.compactions + 1) as f64, "count");
    let snap = store.snapshot();
    let mut bs = BatchStats::new();
    black_box(tr.span("store.first_query_after_compact", NONE, 0, || {
        snap.knn_batch(&input.queries[..1], K, 1, &mut bs)
            .expect("first query")
    }));
    report.metric_n(
        "store.first_query_after_compact_ms",
        span_median(tr, "store.first_query_after_compact") / 1e3,
        "ms",
        1,
    );
    drop(snap);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn serving(input: &LedgerInput<'_>, tr: &mut Tracer, report: &mut Report) {
    let queries = &input.queries[..input.queries.len().min(REPS)];
    let rt = input.recall_target;

    // Scheduler in process: submit -> reply, no socket.
    let metrics = Arc::new(Metrics::new());
    let sched = Arc::new(Scheduler::new(
        input.served.clone(),
        SchedulerConfig::default(),
        Arc::clone(&metrics),
    ));
    let dispatcher = {
        let s = Arc::clone(&sched);
        std::thread::spawn(move || s.run())
    };
    let submit = |q: &[f32]| {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        sched.submit(Pending {
            work: QueryWork::Knn {
                descriptor: q.to_vec(),
                k: K,
                recall_target: rt,
            },
            deadline: None,
            enqueued: Instant::now(),
            reply: ReplySink::Channel(tx),
        });
        rx
    };
    // The same query in process and over a loopback socket, alternately,
    // so both see the same machine; the socket's excess is the connection
    // engine and protocol. The server is the workload's own, or a
    // blocking one over its corpus.
    let spawned = match input.server {
        Some(_) => None,
        None => Some(
            Server::spawn_corpus(
                input.served.clone(),
                "127.0.0.1:0",
                SchedulerConfig::default(),
            )
            .expect("spawn probe server"),
        ),
    };
    let addr = input
        .server
        .unwrap_or_else(|| spawned.as_ref().expect("spawned").local_addr());
    let mut client = Client::connect(addr).expect("connect");
    let mut overhead = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        let resp = tr.span("scheduler.reply", NONE, i as u64, || {
            submit(q).recv().expect("scheduler reply")
        });
        let in_process = t.elapsed().as_secs_f64() * 1e6;
        assert!(
            matches!(resp, Response::Hits { .. }),
            "scheduler answered {resp:?}"
        );
        let t = Instant::now();
        black_box(tr.span("server.knn", NONE, i as u64, || {
            client.knn(q, K, 0, rt).expect("knn")
        }));
        overhead.push(t.elapsed().as_secs_f64() * 1e6 - in_process);
    }
    for i in 0..REPS {
        tr.span("server.ping", NONE, i as u64, || {
            client.ping().expect("ping")
        });
    }
    drop(client);
    if let Some(h) = spawned {
        h.shutdown();
    }
    report.metric_n(
        "scheduler.reply_us",
        span_median(tr, "scheduler.reply"),
        "us",
        queries.len(),
    );
    report.metric_n(
        "server.ping_rtt_us",
        span_median(tr, "server.ping"),
        "us",
        REPS,
    );
    report.metric_n(
        "server.knn_overhead_us",
        median(&overhead),
        "us",
        overhead.len(),
    );
    // Batching with two connections' `WINDOW`s in flight.
    let before = metrics.snapshot(0);
    for chunk in queries.chunks(2 * crate::common::WINDOW) {
        let pending: Vec<_> = chunk.iter().map(|q| submit(q)).collect();
        for rx in pending {
            black_box(rx.recv().expect("scheduler reply"));
        }
    }
    let after = metrics.snapshot(0);
    report.metric(
        "scheduler.batch_size_mean",
        (after.executed - before.executed) as f64 / (after.batches - before.batches).max(1) as f64,
        "count",
    );
    sched.begin_shutdown();
    dispatcher.join().expect("scheduler dispatcher");

    // Protocol codec on the workload's frames.
    let view = input.served.pin();
    let mut bs = BatchStats::new();
    let answers = view
        .knn_batch_approx(queries, K, rt, 1, &mut bs)
        .expect("reference answers");
    for (i, (q, ranked)) in queries.iter().zip(answers).enumerate() {
        let req = knn_request(q, rt);
        let resp = Response::Hits {
            hits: ranked_to_hits(ranked),
            coarse_candidates: 0,
            rerank_evaluations: 0,
        };
        black_box(tr.span("protocol.codec", NONE, i as u64, || {
            let a = decode_request(&encode_request(&req)).expect("request round trip");
            let b = decode_response(&encode_response(&resp)).expect("response round trip");
            (a, b)
        }));
    }
    report.metric_n(
        "protocol.codec_us",
        span_median(tr, "protocol.codec"),
        "us",
        queries.len(),
    );

    router(input, queries, tr, report);
}

/// Router overhead: the same query through the router and straight to each
/// shard backend; the router's cost is its time over the slowest shard.
fn router(input: &LedgerInput<'_>, queries: &[Vec<f32>], tr: &mut Tracer, report: &mut Report) {
    let rt = input.recall_target;
    let temp = match input.tier {
        Some(_) => None,
        None => Some(spawn_tier(input)),
    };
    let tier = input
        .tier
        .as_ref()
        .unwrap_or_else(|| &temp.as_ref().expect("spawned tier").0);
    let mut rc = Client::connect(tier.router).expect("connect router");
    let mut bcs: Vec<Client> = tier
        .backends
        .iter()
        .map(|a| Client::connect(*a).expect("connect shard"))
        .collect();
    // Warm the router's pooled connections and the shards' lazy tables.
    for q in queries.iter().take(4) {
        black_box(rc.knn(q, K, 0, rt).expect("warm router"));
    }
    let mut overhead = Vec::new();
    let mut mismatched = 0usize;
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        let via_router = tr.span("router.knn", NONE, i as u64, || {
            rc.knn(q, K, 0, rt).expect("router knn")
        });
        let d_router = t.elapsed().as_secs_f64() * 1e6;
        let mut slowest = 0f64;
        let mut lists: Vec<Vec<Hit>> = Vec::new();
        for (s, bc) in bcs.iter_mut().enumerate() {
            let t = Instant::now();
            let hits = tr.span("shard.knn", NONE, i as u64, || {
                bc.knn(q, K, 0, rt).expect("shard knn")
            });
            slowest = slowest.max(t.elapsed().as_secs_f64() * 1e6);
            lists.push(
                hits.into_iter()
                    .map(|mut h| {
                        h.id = tier.plan.to_global(s, h.id).expect("shard id in plan");
                        h
                    })
                    .collect(),
            );
        }
        let merged = tr.span("router.merge", NONE, i as u64, || merge_topk(&lists, K));
        if merged != via_router {
            mismatched += 1;
        }
        overhead.push(d_router - slowest);
    }
    report.metric_n(
        "router.overhead_us",
        median(&overhead),
        "us",
        overhead.len(),
    );
    report.metric_n(
        "router.merge_us",
        span_median(tr, "router.merge"),
        "us",
        queries.len(),
    );
    report.check(
        "router reply equals the merge of its shards' replies",
        mismatched == 0,
        format!("{mismatched} of {} differ", queries.len()),
    );
    drop(rc);
    drop(bcs);
    if let Some((_, backends, router)) = temp {
        router.shutdown();
        for b in backends {
            b.shutdown();
        }
    }
}

/// A two-shard tier over the workload's rows for workloads without one:
/// each shard an epoll backend over the workload's index kind.
fn spawn_tier(input: &LedgerInput<'_>) -> (TierAddrs, Vec<ServerHandle>, RouterHandle) {
    let dim = input.pipeline.dim();
    let db = database_from_rows(input.pipeline.clone(), input.rows);
    let plan = ShardPlan::new(ShardScheme::Mod, dim, (input.rows.len() / dim) as u64, 2)
        .expect("shard plan");
    let backends: Vec<ServerHandle> = split_database(&db, &plan)
        .expect("split")
        .into_iter()
        .map(|part| {
            let engine = QueryEngine::build(part, input.kind.clone(), input.measure.clone())
                .expect("shard engine");
            Server::spawn_event(
                engine,
                "127.0.0.1:0",
                SchedulerConfig::default(),
                EventLoopConfig::default(),
            )
            .expect("spawn shard")
        })
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.local_addr()).collect();
    let router = Router::spawn(
        plan.clone(),
        addrs.iter().map(|a| vec![a.to_string()]).collect(),
        "127.0.0.1:0",
        RouterConfig::default(),
    )
    .expect("spawn router");
    let tier = TierAddrs {
        router: router.local_addr(),
        backends: addrs,
        plan,
    };
    (tier, backends, router)
}
