//! One benchmark for the batch pipeline and the resident server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mno_batch|serve_ingest|serve_churn --seed 99 --seconds 20 --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! carrying every end-to-end metric; with `--trace 1` it carries every
//! per-layer metric instead, and the spans are written to
//! `.bench_out/spans-<workload>-seed<seed>.jsonl`. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod batch;
mod client;
mod measure;
mod pipeline;
mod serve;
mod trace;

use measure::{result_line, Metrics, Tally};
use std::process::ExitCode;

/// End-to-end metrics: every untraced run prints all of them.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: every traced run prints all of them. A layer a
/// workload does not call reports zero calls.
const PER_LAYER: [(&str, &str); 47] = [
    ("sim.run_s", "s"),
    ("sim.ns_per_wakeup", "ns"),
    ("sim.wakeups", "count"),
    ("sim.peak_queue_max", "count"),
    ("sim.shard_skew", "ratio"),
    ("sim.rss_mb", "MB"),
    ("probes.write_jsonl_s", "s"),
    ("probes.write_jsonl_mb_per_s", "MB/s"),
    ("probes.jsonl_bytes", "bytes"),
    ("probes.write_wtrcat_s", "s"),
    ("probes.wtrcat_bytes", "bytes"),
    ("probes.scan_jsonl_s", "s"),
    ("probes.scan_wtrcat_s", "s"),
    ("core.stream_catalog_s", "s"),
    ("core.summarize_s", "s"),
    ("core.classify_s", "s"),
    ("core.analyze_s", "s"),
    ("core.render_s", "s"),
    ("core.report_bytes", "bytes"),
    ("batch.pass_s", "s"),
    ("batch.ingest_s", "s"),
    ("batch.read_s", "s"),
    ("serve.preload_s", "s"),
    ("serve.ingest_p50_us", "us"),
    ("serve.ingest_p99_us", "us"),
    ("serve.rows_ingested", "count"),
    ("serve.days_sealed", "count"),
    ("serve.hit_p50_us", "us"),
    ("serve.rebuilds", "count"),
    ("serve.rebuild_p50_ms", "ms"),
    ("serve.rebuild_max_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.rebuild.merge_s", "s"),
    ("serve.rebuild.serialize_s", "s"),
    ("serve.rebuild.replay_s", "s"),
    ("serve.rebuild.analyze_s", "s"),
    ("serve.rebuild.render_s", "s"),
    ("serve.transport_p50_us", "us"),
    ("loadgen.ingest_p50_ms", "ms"),
    ("loadgen.ingest_p99_ms", "ms"),
    ("loadgen.read_p50_ms", "ms"),
    ("loadgen.read_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.failed", "count"),
    ("loadgen.behind", "count"),
    ("trace.overhead_share", "ratio"),
];

pub const WORKLOADS: [&str; 3] = ["mno_batch", "serve_ingest", "serve_churn"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 99,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.to_owned(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// What a workload hands back: its metrics and the tally of its
/// operations and output checks.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    wtr_sim::par::set_threads(Some(pipeline::THREADS));
    let outcome = match args.workload.as_str() {
        "mno_batch" => batch::run(&args),
        _ => serve::run(&args),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Metrics::default();
    for (name, unit) in wanted {
        let Some(metric) = outcome.metrics.0.iter().find(|m| m.name == *name) else {
            eprintln!("perfbench: {}: no value for metric {name}", args.workload);
            return ExitCode::from(3);
        };
        assert_eq!(metric.unit, *unit, "unit of {name}");
        ordered.set(metric.name, metric.value, metric.unit);
    }
    for m in &ordered.0 {
        eprintln!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let tally = outcome.tally;
    let correct = tally.failed == 0;
    eprintln!(
        "  attempted {}  failed {}  failed_share {:.6} (of {})",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.attempted
    );
    println!("{}", result_line(correct, tally, &ordered));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The metric lists here and in `BENCHMARK.json` must not drift.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let (head, per_layer) = json.split_once("\"per_layer\"").expect("per_layer list");
        let end_to_end = head
            .split_once("\"end_to_end\"")
            .expect("end_to_end list")
            .1;
        for (section, list) in [(end_to_end, &END_TO_END[..]), (per_layer, &PER_LAYER[..])] {
            assert_eq!(section.matches("\"name\":").count(), list.len());
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\",");
                assert!(section.contains(&entry), "{name} ({unit}) missing");
            }
        }
    }
}
