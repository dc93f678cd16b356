//! End-to-end benchmark of the cbir workspace.
//!
//! `cbir-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process: it generates the inputs from the
//! seed, sets the system up, drives it for the given time, checks the
//! outputs against references computed here, and prints the report. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`. The traced run also writes its
//! spans to `.bench_work/spans-<workload>-<seed>.jsonl`.

mod common;
mod host;
mod ledger;
mod live;
mod oracle;
mod qbe;
mod report;
mod served;
mod trace;
mod wire;

use common::Run;
use report::Report;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// A workload: everything from input generation to the last check.
type Workload = fn(&mut Run);

const WORKLOADS: [(&str, Workload); 4] = [
    ("qbe-images", qbe::run),
    ("serve-exact", served::serve_exact),
    ("route-approx", served::route_approx),
    ("live-ingest", live::run),
];

fn usage() -> ! {
    eprintln!(
        "usage: cbir-e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.map(|w| w.0).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> String {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage())
    };
    let workload = flag("--workload");
    let seed: u64 = flag("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = flag("--seconds").parse().unwrap_or_else(|_| usage());
    let trace = match flag("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    let Some(&(name, body)) = WORKLOADS.iter().find(|w| w.0 == workload) else {
        usage()
    };
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }

    let root = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&root).expect("create .bench_work");
    let mut report = Report::default();
    report.fact("workload", name);
    report.fact("seed", seed);
    report.fact("seconds", seconds);
    report.fact("trace", trace);
    report.fact("nproc", host::nproc());
    report.fact("avx2", host::avx2());
    report.fact("kernel", host::kernel());
    report.fact(
        "commit",
        std::env::var("CBIR_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    let mut run = Run {
        seed,
        seconds,
        trace,
        root: root.clone(),
        tracer: Tracer::new(false),
        report,
    };
    let t = Instant::now();
    body(&mut run);
    run.report
        .fact("wall_s", format!("{:.3}", t.elapsed().as_secs_f64()));

    let stem = format!("{name}-{seed}-{}", if trace { "trace" } else { "plain" });
    if trace {
        let spans = root.join(format!("spans-{name}-{seed}.jsonl"));
        run.tracer.write(&spans).expect("write spans");
        for (layer, l) in run.tracer.layers() {
            println!(
                "layer {layer}: {} spans, self {:.3} ms",
                l.count,
                l.self_ns as f64 / 1e6
            );
        }
    }
    run.report
        .write_json(&root.join(format!("report-{stem}.json")))
        .expect("write report");
    run.report.print_table();
    println!("{}", run.report.summary_line());
}
