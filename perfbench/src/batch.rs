//! `mno_batch`: the reproduction as users run it, pass after pass.
//!
//! Set-up runs one reference pass (three times; `setup_s` is the
//! median). Every pass, the reference included, must render the same
//! report bytes from its WTRCAT file as from its JSONL file, and each
//! measured pass must reproduce the reference pass's JSONL, WTRCAT and
//! report bytes exactly; on a seed with recorded digests, the
//! reference must match those too.

use crate::measure::{median, peak_rss_mb, process_cpu_s, Metrics, Tally};
use crate::pipeline::{reports_bytes, run_pass, scan, Digests, Pass};
use crate::trace::Trace;
use crate::{Args, Outcome};
use std::time::Instant;
use wtr_core::classify::Classifier;
use wtr_core::stream::stream_catalog;
use wtr_model::tacdb::TacDatabase;

/// Fixture seeds whose output bytes are pinned: (seed, digests) for the
/// three fixtures of run seed 99, of the held-out run seed 7 and of run
/// seeds 101 to 110 (the ten-seed spread protocol). A speed-up that
/// changes any of these bytes fails the run.
#[rustfmt::skip]
const GOLDEN: [(u64, Digests); 36] = [
    (99, golden(0x98902aad5c54a2e7, 0xf4bcda6d088b63e3, 0x822ba87de8c49000)),
    (4294967395, golden(0x03108548189b9506, 0xe756fb6b9bfa725c, 0x7b6897e31f3621a9)),
    (8589934691, golden(0x4f693d6f1ae25306, 0x8ea702c2a271dc08, 0xb5e6eb849290941e)),
    (7, golden(0xc9ad67210c6aecd5, 0x91cb6c7c39c557d9, 0xae49c7c869f8c8a9)),
    (4294967303, golden(0x87830895b8749ad1, 0x59a658e9583528dc, 0x6aadfb5a56baa912)),
    (8589934599, golden(0xf1ab17a806f123ed, 0x236ef05b0cb533a1, 0x00a23a552cf86d5f)),
    (101, golden(0xf6c5e3c1dd688d4e, 0x49d1db31f694aed8, 0x0b6b4032aed831d1)),
    (4294967397, golden(0x19b95ec9e093f0ac, 0x9273c86dace0b71c, 0x6d50eb9e53ee0207)),
    (8589934693, golden(0x1922962b93355ecb, 0x8b6701c38e4a7a9f, 0xb8ffc1850777eb0f)),
    (102, golden(0x184bcac8e75017d1, 0x934cda262a447b2f, 0x97acee4d641c1c6f)),
    (4294967398, golden(0x1317a7474079e2f9, 0x43dc8266ad9d565e, 0x804b4f6a5e15f10b)),
    (8589934694, golden(0x1de5a31db2b70b83, 0xfcf79ddb94beeb49, 0xe50eb8fda994f464)),
    (103, golden(0x75a81397f61a9932, 0x6adebe6802186f2f, 0x4dfae73fa091a113)),
    (4294967399, golden(0x8a0cbb7bc62b7c54, 0x209cd6c64270cb89, 0xee7ddb6ca52a78c6)),
    (8589934695, golden(0xf33380cf04654d9d, 0xb0da2278c66c2c01, 0xff0d56eb5ae0de6f)),
    (104, golden(0xa5ee936c5bf0dbb4, 0xc696fd9987d37344, 0x13446f44da0dc621)),
    (4294967400, golden(0x44c0f1fb66b04d5c, 0x8cd12f9e7cafab66, 0x0be755fa3e962d63)),
    (8589934696, golden(0x00e655fe2b3915af, 0xbbed1da48b0257cc, 0x20411e9dab2b9fe2)),
    (105, golden(0xb02068b870ca3867, 0x2be6ed8219048cde, 0xd66ad53ad7cfe312)),
    (4294967401, golden(0xcdbf6d33f0400d2b, 0x4be28803d565b720, 0xea0fe4dd414bba4b)),
    (8589934697, golden(0x94bceddf2b530714, 0xed3f43be1f92b858, 0x08c51ca5c76940f4)),
    (106, golden(0x499873e82cde95e4, 0xb7b498da58fbd639, 0x62cefb00d7676623)),
    (4294967402, golden(0xee2dc6c0906f8a0b, 0xa1bc4c4f87dbf3c7, 0xca285b252cf18768)),
    (8589934698, golden(0x62e7e6524c82aad1, 0x28af50f5a48bfabb, 0xdae114f18a6bff09)),
    (107, golden(0xfe6236c7548b32c0, 0x8a93a5411da6750d, 0x60e6b68877931568)),
    (4294967403, golden(0x262ce5576f64e4cb, 0x28441ae9874267da, 0x625ee6290f193c1f)),
    (8589934699, golden(0x7cc57e47c54223f8, 0x43491ac497b510fa, 0x5d5107788bc9ad6e)),
    (108, golden(0xbd188560cf450aca, 0x8a2c1abd2e5111a1, 0x0d17733a5b40d48c)),
    (4294967404, golden(0x65fba3d69e9dae25, 0x9036fdaeb30d678c, 0x222378a2e9b8bef7)),
    (8589934700, golden(0xb0465c64c15ac560, 0xf5ded88dfb0dd009, 0x54c71432d44e1886)),
    (109, golden(0x98efb3eaca6e6b1b, 0xdb99e8ffc14829dd, 0x74bad7cfba5c9dda)),
    (4294967405, golden(0xaf292987fcf2d341, 0x40a7d12918687cb3, 0x2bf3b22a24bd8e54)),
    (8589934701, golden(0x0c4a78481bcdc626, 0x166cadac597ba398, 0x3acdd0313350d1d8)),
    (110, golden(0xe249ca3949c4704b, 0x48b723c41dcac0c1, 0xf18253661865f619)),
    (4294967406, golden(0xc951c195a4ae02fa, 0xa315c44df573bd9d, 0x963ae8860d1ea824)),
    (8589934702, golden(0x494271c65a491780, 0x58b3e469c82508e1, 0x292d2559d703521b)),
];

const fn golden(jsonl: u64, wtrcat: u64, reports: u64) -> Digests {
    Digests {
        jsonl,
        wtrcat,
        reports,
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The `i`-th fixture seed of a run with seed `seed`; the first is the
/// seed itself. Untraced `mno_batch` runs cycle their passes through
/// [`SETUP_REPS`] fixtures, so a run's figures average over several
/// simulated populations instead of riding on one population's size.
pub fn fixture_seed(seed: u64, i: usize) -> u64 {
    seed ^ ((i as u64) << 32)
}

/// Passes at the least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Untraced/traced pass pairs a traced run makes at the least;
/// `trace.overhead_share` is the median over the pairs.
const TRACE_PAIRS: usize = 6;

/// The WTRCAT stream must render exactly what the JSONL stream did.
fn formats_agree(pass: &Pass) -> bool {
    let same = reports_bytes(&pass.from_wtrcat) == reports_bytes(&pass.reports);
    if !same {
        eprintln!("check failed: WTRCAT reports differ from JSONL reports");
    }
    same
}

/// The reference pass plus its checks. Returns the pass, its digests
/// and the check tally.
pub fn reference_pass(seed: u64, trace: &mut Trace) -> Result<(Pass, Digests, Tally), String> {
    let mut tally = Tally::default();
    let pass = run_pass(seed, trace, 0)?;
    let digests = pass.digests();
    tally.record(formats_agree(&pass));
    if let Some((_, golden)) = GOLDEN.iter().find(|(s, _)| *s == seed) {
        let ok = *golden == digests;
        if !ok {
            eprintln!("check failed: seed {seed} digests {digests:x?}, recorded {golden:x?}");
        }
        tally.record(ok);
    }
    eprintln!(
        "fixture seed {seed}: {} rows, {} JSONL bytes, {} WTRCAT bytes, digests {digests:x?}",
        pass.catalog.len(),
        pass.jsonl.len(),
        pass.wtrcat.len()
    );
    Ok((pass, digests, tally))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut want = Vec::new();
    // Only the traced run's layer timings need the reference pass
    // itself; untraced passes are checked against its digests alone.
    let mut reference = None;
    let fixtures = if args.trace { 1 } else { SETUP_REPS };
    for i in 0..fixtures {
        let start = Instant::now();
        let seed = fixture_seed(args.seed, i);
        let (pass, digests, checks) = reference_pass(seed, &mut Trace::new(false))?;
        setup_s.push(start.elapsed().as_secs_f64());
        tally.add(checks);
        want.push(digests);
        if args.trace {
            reference = Some(pass);
        }
    }
    metrics.set("setup_s", median(&setup_s), "s");

    let mut trace = Trace::new(args.trace);
    let mut ingest = Vec::new();
    let mut read = Vec::new();
    let mut cpu = Vec::new();
    let mut untraced_pass = Vec::new();
    // Traced runs make passes in untraced/traced pairs, the order
    // alternating from pair to pair so that warm-up favours neither;
    // each pair gives one (traced - untraced) / untraced.
    let mut overhead = Vec::new();
    let mut pair = [None, None];
    let min_passes = if args.trace {
        2 * TRACE_PAIRS
    } else {
        MIN_PASSES.max(fixtures)
    };
    let start = Instant::now();
    let mut n = 0usize;
    while n < min_passes
        || start.elapsed().as_secs_f64() < args.seconds
        || (args.trace && !n.is_multiple_of(2))
    {
        n += 1;
        let first_of_pair = !n.is_multiple_of(2);
        if first_of_pair {
            pair = [None, None];
        }
        let traced = args.trace && (first_of_pair != ((n - 1) / 2).is_multiple_of(2));
        let which = (n - 1) % fixtures;
        let seed = fixture_seed(args.seed, which);
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let pass = if traced {
            run_pass(seed, &mut trace, n as u64)
        } else {
            run_pass(seed, &mut Trace::new(false), n as u64)
        };
        let wall = t0.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        let pass = match pass {
            Ok(pass) => pass,
            Err(e) => {
                eprintln!("pass {n} failed: {e}");
                tally.record(false);
                continue;
            }
        };
        let ok = pass.digests() == want[which] && formats_agree(&pass);
        if !ok {
            eprintln!("check failed: pass {n} digests {:x?}", pass.digests());
        }
        tally.record(ok);
        if args.trace {
            pair[usize::from(traced)] = Some(wall);
            if let [Some(plain), Some(with_spans)] = pair {
                overhead.push((with_spans - plain) / plain);
            }
        }
        if !traced {
            untraced_pass.push(wall);
            ingest.push(pass.ingest_s);
            read.push(pass.read_s);
            cpu.push(cpu_s);
        }
    }
    eprintln!(
        "mno_batch: {n} passes in {:.2} s; untraced pass median {:.3} s \
         (simulate + write {:.3} s, stream + analyze + render {:.3} s)",
        start.elapsed().as_secs_f64(),
        median(&untraced_pass),
        median(&ingest),
        median(&read)
    );

    metrics.set("cpu_s", median(&cpu), "s");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");

    if let Some(reference) = reference {
        // The reference pass ran first in this process, so its peak RSS
        // after the simulation is the simulation's own.
        batch_layers(&mut trace, &reference, &mut metrics)?;
        eprintln!("mno_batch: tracing overhead per pair {overhead:.4?}");
        metrics.set("trace.overhead_share", median(&overhead), "ratio");
        // No server and no load generator run in this workload.
        for (name, unit) in crate::PER_LAYER {
            if name.starts_with("serve.") || name.starts_with("loadgen.") {
                metrics.set(name, 0.0, unit);
            }
        }
        crate::serve::finish_trace(&trace, args)?;
    }
    Ok(Outcome { metrics, tally })
}

/// Per-layer metrics of the batch layers, from the spans of the traced
/// passes in `trace` plus separately timed scanner and classifier calls
/// over `pass`'s bytes.
pub fn batch_layers(trace: &mut Trace, pass: &Pass, metrics: &mut Metrics) -> Result<(), String> {
    let data = stream_catalog(&pass.jsonl[..]).map_err(|e| e.to_string())?;
    let tacdb = TacDatabase::standard();
    for rep in 0..3 {
        trace.span("probes.scan_jsonl", rep, |_| scan(&pass.jsonl))?;
        trace.span("probes.scan_wtrcat", rep, |_| scan(&pass.wtrcat))?;
        trace.span("core.classify", rep, |_| {
            Classifier::new(&tacdb).classify(&data.summaries, &data.apns)
        });
    }
    let med = |name: &str| median(&trace.durations(name));
    let sim_run = med("sim.run");
    metrics.set("sim.run_s", sim_run, "s");
    metrics.set(
        "sim.ns_per_wakeup",
        sim_run * 1e9 / pass.sim.wakeups.max(1) as f64,
        "ns",
    );
    metrics.set("sim.wakeups", pass.sim.wakeups as f64, "count");
    metrics.set(
        "sim.peak_queue_max",
        pass.sim.peak_queue_max as f64,
        "count",
    );
    metrics.set("sim.shard_skew", pass.sim.shard_skew, "ratio");
    metrics.set("sim.rss_mb", pass.rss_after_sim_mb, "MB");
    let write_jsonl = med("probes.write_jsonl");
    metrics.set("probes.write_jsonl_s", write_jsonl, "s");
    metrics.set(
        "probes.write_jsonl_mb_per_s",
        pass.jsonl.len() as f64 / 1e6 / write_jsonl,
        "MB/s",
    );
    metrics.set("probes.jsonl_bytes", pass.jsonl.len() as f64, "bytes");
    metrics.set("probes.write_wtrcat_s", med("probes.write_wtrcat"), "s");
    metrics.set("probes.wtrcat_bytes", pass.wtrcat.len() as f64, "bytes");
    let scan_jsonl = med("probes.scan_jsonl");
    metrics.set("probes.scan_jsonl_s", scan_jsonl, "s");
    metrics.set("probes.scan_wtrcat_s", med("probes.scan_wtrcat"), "s");
    let stream = med("core.stream_catalog");
    metrics.set("core.stream_catalog_s", stream, "s");
    metrics.set("core.summarize_s", stream - scan_jsonl, "s");
    metrics.set("core.classify_s", med("core.classify"), "s");
    metrics.set("core.analyze_s", med("core.analyze"), "s");
    metrics.set("core.render_s", med("core.render"), "s");
    metrics.set(
        "core.report_bytes",
        reports_bytes(&pass.reports).len() as f64,
        "bytes",
    );
    metrics.set("batch.pass_s", med("batch.pass"), "s");
    metrics.set("batch.ingest_s", med("batch.ingest"), "s");
    metrics.set("batch.read_s", med("batch.read"), "s");
    Ok(())
}
