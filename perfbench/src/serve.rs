//! `serve_ingest` and `serve_churn`: open-loop load against an
//! in-process `wtr_serve::Server`, plus (traced) a socketless replay of
//! the same request sequence straight into `wtr_serve::Tenant`s.
//!
//! Two generator threads each keep one connection at a time. Thread A
//! POSTs 25-row taps cut from the fixture's rows in (day, user) order;
//! thread B GETs the read tenant's report tables, cycling through all
//! 13. Each request is due at a fixed rate and is timed from when it was
//! due, so a stall charges every request queued behind it.

use crate::batch::{batch_layers, reference_pass, SETUP_REPS};
use crate::client::{request, Response};
use crate::measure::{
    digest, median, peak_rss_mb, percentile, process_cpu_s, thread_cpu_s, Metrics, Tally,
};
use crate::pipeline::{
    catalog_of, day_ordered, jsonl_of, reference, render_reports, wtrcat_of, Pass, Reports,
};
use crate::trace::Trace;
use crate::{Args, Outcome};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};
use wtr_core::stream::{analyze, stream_catalog};
use wtr_model::tacdb::TacDatabase;
use wtr_probes::catalog::DevicesCatalog;
use wtr_probes::io::write_catalog;
use wtr_serve::server::ShutdownHandle;
use wtr_serve::{Server, ServerConfig, Tenant, TABLES};

/// Catalog rows per tap upload.
pub const TAP_ROWS: usize = 25;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// The server's default watermark: one day.
pub const WATERMARK_SECS: u64 = 86_400;

/// One serve workload's shape.
#[derive(Clone, Copy)]
pub struct Plan {
    /// The tenant thread B reads.
    pub tenant: &'static str,
    /// Tap POSTs per second (thread A).
    pub tap_rate: f64,
    /// Report GETs per second (thread B).
    pub read_rate: f64,
    /// Zero: every tap feeds fresh tenants of its own. Otherwise one
    /// tap in this many goes to the read tenant instead, invalidating
    /// its report cache.
    pub live_every: usize,
}

pub const SERVE_INGEST: Plan = Plan {
    tenant: "archive",
    tap_rate: 200.0,
    read_rate: 200.0,
    live_every: 0,
};

/// One tap into the read tenant every 8 s: the parent's ~0.75 s
/// rebuild finishes long before the next, and the reads that wait on
/// it (or queue behind one that does) stay well under half, so the
/// median read stays a cache hit on a loaded machine too.
pub const SERVE_CHURN: Plan = Plan {
    tenant: "live",
    tap_rate: 50.0,
    read_rate: 200.0,
    live_every: 400,
};

/// Where a tap goes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Target {
    /// The read tenant.
    Read,
    /// Feed tenant `feed<n>`, which receives the fixture's taps from
    /// the first on and is replaced by the next when they run out.
    Feed(usize),
}

/// The fixture a serve workload is built from.
struct Fixture {
    pass: Pass,
    /// Tap bodies (JSONL), in feed order.
    taps: Vec<Vec<u8>>,
    /// (target, tap index) of every tap thread A sends.
    plan: Vec<(Target, usize)>,
    /// Taps the read tenant holds after set-up; the ones after them are
    /// held back for the run.
    preloaded: usize,
    /// The set-up upload into the read tenant (WTRCAT).
    preload: Vec<u8>,
}

impl Fixture {
    fn nrows(&self) -> usize {
        self.pass.catalog.len()
    }

    /// Rows covered by the first `taps` taps.
    fn rows_through(&self, taps: usize) -> usize {
        (taps * TAP_ROWS).min(self.nrows())
    }

    /// Rows of tap `i`.
    fn tap_rows(&self, i: usize) -> usize {
        self.rows_through(i + 1) - self.rows_through(i)
    }

    /// Batch render over the first `rows` day-ordered rows.
    fn reference(&self, rows: usize) -> Result<Reports, String> {
        if rows == self.nrows() {
            return Ok(self.pass.reports.clone());
        }
        reference(&day_ordered(&self.pass.catalog)[..rows], &self.pass.catalog)
    }

    /// Taps the first `n` of thread A's taps deliver to `target`.
    fn delivered(&self, target: Target, n: usize) -> usize {
        self.plan[..n].iter().filter(|(t, _)| *t == target).count()
    }
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: thread::JoinHandle<io::Result<()>>,
}

impl Running {
    fn start() -> Result<Running, String> {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: WORKERS,
            watermark_secs: WATERMARK_SECS,
            max_body_bytes: 512 * 1024 * 1024,
        })?;
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let thread = thread::spawn(move || server.run());
        Ok(Running {
            addr,
            handle,
            thread,
        })
    }

    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(result) => result.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

fn plan_of(args: &Args) -> Plan {
    if args.workload == "serve_churn" {
        SERVE_CHURN
    } else {
        SERVE_INGEST
    }
}

/// Requests each generator sends in `seconds`.
fn counts(plan: &Plan, seconds: f64) -> (usize, usize) {
    (
        ((seconds * plan.tap_rate).floor() as usize).max(1),
        ((seconds * plan.read_rate).floor() as usize).max(1),
    )
}

/// Due second of tap `k`. Taps start half an interval after reads, so
/// the two schedules never fall due together.
fn tap_due(plan: &Plan, k: usize) -> f64 {
    (k as f64 + 0.5) / plan.tap_rate
}

fn tenant_name(plan: &Plan, target: Target) -> String {
    match target {
        Target::Read => plan.tenant.to_owned(),
        Target::Feed(n) => format!("feed{n}"),
    }
}

/// GETs every table of `tenant` and compares each with `want`.
fn check_tables(addr: SocketAddr, tenant: &str, want: &Reports, tally: &mut Tally) {
    for table in TABLES {
        let ok = match request(addr, "GET", &format!("/report/{tenant}/{table}"), &[]) {
            Ok(r) => r.status == 200 && r.body == want[table].as_bytes(),
            Err(_) => false,
        };
        if !ok {
            eprintln!("check failed: /report/{tenant}/{table} differs from the batch render");
        }
        tally.record(ok);
    }
}

/// Builds the workload's inputs from the seed: the fixture pass (with
/// its own output checks), the day-ordered taps, thread A's tap plan
/// and the read tenant's preload.
fn fixture(
    seed: u64,
    plan: &Plan,
    seconds: f64,
    trace: &mut Trace,
) -> Result<(Fixture, Tally), String> {
    let (pass, _, tally) = reference_pass(seed, trace)?;
    let rows = day_ordered(&pass.catalog);
    let taps: Vec<Vec<u8>> = rows
        .chunks(TAP_ROWS)
        .map(|chunk| jsonl_of(&catalog_of(chunk, &pass.catalog)))
        .collect();
    let ntaps = taps.len();
    let (n_taps, _) = counts(plan, seconds);
    let is_live = |k: usize| plan.live_every > 0 && k % plan.live_every == plan.live_every / 2;
    let held = (0..n_taps).filter(|k| is_live(*k)).count();
    if held >= ntaps {
        return Err(format!("{held} held-back taps leave nothing to preload"));
    }
    let preloaded = ntaps - held;
    let mut fed = 0;
    let tap_plan = (0..n_taps)
        .map(|k| {
            if is_live(k) {
                (Target::Read, preloaded + (k - fed))
            } else {
                fed += 1;
                (Target::Feed((fed - 1) / ntaps), (fed - 1) % ntaps)
            }
        })
        .collect();
    let preload = if held > 0 {
        wtrcat_of(&catalog_of(&rows[..preloaded * TAP_ROWS], &pass.catalog))
    } else {
        pass.wtrcat.clone()
    };
    drop(rows);
    let fixture = Fixture {
        pass,
        taps,
        plan: tap_plan,
        preloaded,
        preload,
    };
    Ok((fixture, tally))
}

/// Starts a server, loads the read tenant, primes its report cache and
/// checks every table against the batch render.
fn setup(fx: &Fixture, plan: &Plan, want: &Reports, tally: &mut Tally) -> Result<Running, String> {
    let server = Running::start()?;
    let path = format!("/ingest/{}", plan.tenant);
    let loaded =
        request(server.addr, "POST", &path, &fx.preload).map_err(|e| format!("preload: {e}"))?;
    if loaded.status != 200 {
        return Err(format!("preload: status {}", loaded.status));
    }
    check_tables(server.addr, plan.tenant, want, tally);
    Ok(server)
}

/// One request as the generator saw it.
struct Sample {
    /// Sent minus due.
    late_s: f64,
    /// Done minus due.
    latency_s: f64,
    response: io::Result<Response>,
}

/// How long before a request falls due its generator stops sleeping.
const SPIN: Duration = Duration::from_micros(200);

/// Sends `n` requests, request `k` due `due_s(k)` seconds after `t0`,
/// each as soon as it is due (at once if the previous one overran).
/// Returns the samples and the CPU seconds this generator thread used.
fn open_loop(
    t0: Instant,
    n: usize,
    due_s: impl Fn(usize) -> f64,
    mut op: impl FnMut(usize) -> io::Result<Response>,
) -> (Vec<Sample>, f64) {
    let cpu0 = thread_cpu_s();
    let mut samples = Vec::with_capacity(n);
    for k in 0..n {
        let due = t0 + Duration::from_secs_f64(due_s(k));
        // Sleep to just short of the due time, then spin: a thread
        // woken from sleep on a busy shared machine can run late by a
        // millisecond, and that lateness would be charged to the server.
        let now = Instant::now();
        if due > now + SPIN {
            thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        let response = op(k);
        let done = Instant::now();
        samples.push(Sample {
            late_s: sent.saturating_duration_since(due).as_secs_f64(),
            latency_s: done.saturating_duration_since(due).as_secs_f64(),
            response,
        });
    }
    (samples, thread_cpu_s() - cpu0)
}

/// Whether a generator fell behind its schedule: requests in its last
/// quarter ran late by much more than those in its first quarter, i.e.
/// a backlog built up instead of draining.
fn behind(samples: &[Sample]) -> bool {
    let q = (samples.len() / 4).max(1);
    let mean = |s: &[Sample]| s.iter().map(|x| x.late_s).sum::<f64>() / s.len().max(1) as f64;
    let (first, last) = (mean(&samples[..q]), mean(&samples[samples.len() - q..]));
    last > 2.0 * first + 0.05
}

/// What the load phase measured and checked.
struct Load {
    /// Latency in ms of every tap POST.
    ingest_ms: Vec<f64>,
    /// Latency in ms of every report GET.
    read_ms: Vec<f64>,
    late_ms: Vec<f64>,
    sent: u64,
    failed: u64,
    behind: u64,
    cpu_per_s: f64,
    /// VmHWM when the generators finish, before the output checks make
    /// their own GETs and batch renders.
    peak_rss_mb: f64,
    tally: Tally,
}

/// Runs both generators for `seconds`, then checks every response and
/// every fed tenant's final reports.
fn load(fx: &Fixture, server: &Running, plan: &Plan, seconds: f64) -> Result<Load, String> {
    let (n_taps, n_reads) = counts(plan, seconds);
    let addr = server.addr;
    let cpu0 = process_cpu_s();
    let t0 = Instant::now() + Duration::from_millis(20);
    let ((posts, a_cpu), (gets, b_cpu)) = thread::scope(|s| {
        let a = s.spawn(|| {
            open_loop(
                t0,
                n_taps,
                |k| tap_due(plan, k),
                |k| {
                    let (target, tap) = fx.plan[k];
                    let path = format!("/ingest/{}", tenant_name(plan, target));
                    request(addr, "POST", &path, &fx.taps[tap])
                },
            )
        });
        let b = s.spawn(|| {
            open_loop(
                t0,
                n_reads,
                |k| k as f64 / plan.read_rate,
                |k| {
                    let path = format!("/report/{}/{}", plan.tenant, TABLES[k % TABLES.len()]);
                    request(addr, "GET", &path, &[])
                },
            )
        });
        (
            a.join().expect("tap generator panicked"),
            b.join().expect("read generator panicked"),
        )
    });
    // The server's share: the generators' own CPU (including their
    // spin before each due time) is not the system's.
    let cpu_per_s = (process_cpu_s() - cpu0 - a_cpu - b_cpu) / seconds;
    let peak_rss_mb = peak_rss_mb();

    let mut tally = Tally::default();
    let mut failed = 0u64;
    let mut count = |ok: bool, what: &dyn Fn() -> String| {
        if !ok {
            failed += 1;
            eprintln!("check failed: {}", what());
        }
        tally.record(ok);
    };
    // Taps: a 200 whose receipt counts exactly the tap's rows.
    for (k, s) in posts.iter().enumerate() {
        let rows = fx.tap_rows(fx.plan[k].1);
        let ok = matches!(&s.response, Ok(r) if r.status == 200
            && String::from_utf8_lossy(&r.body).contains(&format!("\"rows\":{rows},")));
        count(ok, &|| format!("POST {k}"));
    }
    // Reads: every body equals the batch render of the read tenant's
    // rows at the generation it was served at. The preload is
    // generation 1 and each tap into the read tenant adds one.
    let mut by_generation: BTreeMap<u64, Vec<(usize, u64)>> = BTreeMap::new();
    for (k, s) in gets.iter().enumerate() {
        match &s.response {
            Ok(Response {
                status: 200,
                generation: Some(generation),
                body,
            }) if *generation >= 1 => {
                by_generation
                    .entry(*generation)
                    .or_default()
                    .push((k % TABLES.len(), digest(body)));
            }
            _ => count(false, &|| format!("GET {k}")),
        }
    }
    let live = fx.delivered(Target::Read, n_taps);
    for (generation, reads) in &by_generation {
        let taps = fx.preloaded + (*generation - 1) as usize;
        let want = if taps <= fx.preloaded + live {
            Some(fx.reference(fx.rows_through(taps))?)
        } else {
            None
        };
        for (table, got) in reads {
            let ok = want
                .as_ref()
                .is_some_and(|w| digest(w[TABLES[*table]].as_bytes()) == *got);
            count(ok, &|| {
                format!("{} at generation {generation}", TABLES[*table])
            });
        }
    }
    // Final state of every fed tenant.
    let want = fx.reference(fx.rows_through(fx.preloaded + live))?;
    check_tables(addr, plan.tenant, &want, &mut tally);
    let feeds = fx.plan.iter().filter_map(|(t, _)| match t {
        Target::Feed(n) => Some(*n + 1),
        Target::Read => None,
    });
    for n in 0..feeds.max().unwrap_or(0) {
        let want = fx.reference(fx.rows_through(fx.delivered(Target::Feed(n), n_taps)))?;
        check_tables(addr, &format!("feed{n}"), &want, &mut tally);
    }

    let late_ms = posts.iter().chain(&gets).map(|s| s.late_s * 1e3).collect();
    let behind = u64::from(behind(&posts)) + u64::from(behind(&gets));
    if behind > 0 {
        eprintln!(
            "MARK: {behind} generator(s) fell behind schedule; latencies include the backlog"
        );
    }
    Ok(Load {
        ingest_ms: posts.iter().map(|s| s.latency_s * 1e3).collect(),
        read_ms: gets.iter().map(|s| s.latency_s * 1e3).collect(),
        late_ms,
        sent: (posts.len() + gets.len()) as u64,
        failed,
        behind,
        cpu_per_s,
        peak_rss_mb,
        tally,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = plan_of(args);
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let mut trace = Trace::new(args.trace);
    let (fixture, checks) = fixture(args.seed, &plan, args.seconds, &mut trace)?;
    tally.add(checks);
    let preloaded = fixture.reference(fixture.rows_through(fixture.preloaded))?;
    let mut setup_s = Vec::new();
    let mut server = None;
    let reps = if args.trace { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        if let Some(previous) = server.take() {
            Running::stop(previous)?;
        }
        let start = Instant::now();
        server = Some(setup(&fixture, &plan, &preloaded, &mut tally)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    eprintln!(
        "{}: {} taps of {TAP_ROWS} rows ({} held back), preload {} bytes, set-up {:.3} s",
        args.workload,
        fixture.taps.len(),
        fixture.taps.len() - fixture.preloaded,
        fixture.preload.len(),
        median(&setup_s)
    );

    let load = load(&fixture, &server, &plan, args.seconds);
    let stopped = Running::stop(server);
    let load = load?;
    stopped?;
    tally.add(load.tally);
    eprintln!(
        "{}: sent {} requests, {} failed; ingest p50 {:.3} p99 {:.3} ms, \
         read p50 {:.3} p99 {:.3} ms, late p50 {:.3} p99 {:.3} ms",
        args.workload,
        load.sent,
        load.failed,
        median(&load.ingest_ms),
        percentile(&load.ingest_ms, 0.99),
        median(&load.read_ms),
        percentile(&load.read_ms, 0.99),
        median(&load.late_ms),
        percentile(&load.late_ms, 0.99)
    );

    metrics.set("setup_s", median(&setup_s), "s");
    metrics.set("cpu_s", load.cpu_per_s, "s");
    metrics.set("peak_rss_mb", load.peak_rss_mb, "MB");

    if args.trace {
        batch_layers(&mut trace, &fixture.pass, &mut metrics)?;
        serve_layers(&fixture, &plan, args, &load, &mut trace, &mut metrics)?;
        finish_trace(&trace, args)?;
    }
    Ok(Outcome { metrics, tally })
}

/// What a socketless replay did.
struct Replay {
    rows: u64,
    sealed: u64,
    reads: u64,
    hits: u64,
}

/// Replays the load phase's request sequence — preload, prime, then
/// taps and reads in due order — straight into `Tenant`s, back to back.
fn replay(fx: &Fixture, plan: &Plan, seconds: f64, trace: &mut Trace) -> Result<Replay, String> {
    let watermark_days = ServerConfig {
        watermark_secs: WATERMARK_SECS,
        ..ServerConfig::default()
    }
    .watermark_days();
    let (n_taps, n_reads) = counts(plan, seconds);
    let main = Tenant::new(plan.tenant, watermark_days);
    let mut feeds: Vec<Tenant> = Vec::new();
    trace
        .span("serve.preload", 0, |_| main.ingest(&fx.preload))
        .map_err(|e| format!("replay preload: {e}"))?;
    let mut seen = trace
        .span("serve.rebuild", 0, |_| main.reports())?
        .generation;
    let mut out = Replay {
        rows: 0,
        sealed: 0,
        reads: 0,
        hits: 0,
    };
    let (mut i, mut j) = (0usize, 0usize);
    let mut req = 1u64;
    while i < n_taps || j < n_reads {
        let tap_first =
            j >= n_reads || (i < n_taps && tap_due(plan, i) <= j as f64 / plan.read_rate);
        if tap_first {
            let (target, tap) = fx.plan[i];
            let tenant = match target {
                Target::Read => &main,
                Target::Feed(n) => {
                    while feeds.len() <= n {
                        let name = tenant_name(plan, Target::Feed(feeds.len()));
                        feeds.push(Tenant::new(&name, watermark_days));
                    }
                    &feeds[n]
                }
            };
            let receipt = trace
                .span("serve.ingest", req, |_| tenant.ingest(&fx.taps[tap]))
                .map_err(|e| format!("replay tap {i}: {e}"))?;
            out.rows += receipt.rows;
            out.sealed += receipt.sealed_days;
            i += 1;
        } else {
            let stale = main.generation() != seen;
            let name = if stale { "serve.rebuild" } else { "serve.hit" };
            let set = trace.span(name, req, |_| main.reports())?;
            std::hint::black_box(&set.tables[TABLES[j % TABLES.len()]]);
            seen = set.generation;
            out.reads += 1;
            out.hits += u64::from(!stale);
            j += 1;
        }
        req += 1;
    }
    Ok(out)
}

/// The read tenant's rows after the run's last tap, split the way the
/// tenant holds them: a sealed archive of days below the watermark and
/// one open catalog per day within it.
fn tenant_books(fx: &Fixture, plan: &Plan, seconds: f64) -> (DevicesCatalog, Vec<DevicesCatalog>) {
    let (n_taps, _) = counts(plan, seconds);
    let rows = day_ordered(&fx.pass.catalog);
    let rows = &rows[..fx.rows_through(fx.preloaded + fx.delivered(Target::Read, n_taps))];
    let max_day = rows.last().map_or(0, |r| r.day.0);
    let low = max_day.saturating_sub(1);
    let split = rows.partition_point(|r| r.day.0 < low);
    let archive = catalog_of(&rows[..split], &fx.pass.catalog);
    let open = (low..=max_day)
        .map(|day| {
            let lo = rows.partition_point(|r| r.day.0 < day);
            let hi = rows.partition_point(|r| r.day.0 <= day);
            catalog_of(&rows[lo..hi], &fx.pass.catalog)
        })
        .collect();
    (archive, open)
}

/// Per-layer metrics of the serve layers and the load generator.
fn serve_layers(
    fx: &Fixture,
    plan: &Plan,
    args: &Args,
    load: &Load,
    trace: &mut Trace,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let traced = replay(fx, plan, args.seconds, trace)?;
    // Tracing overhead is measured on `mno_batch` only.
    metrics.set("trace.overhead_share", 0.0, "ratio");

    // The rebuild's stages, over the read tenant's rows at the last tap.
    let (archive, open) = tenant_books(fx, plan, args.seconds);
    let tacdb = TacDatabase::standard();
    for rep in 0..3 {
        let merged = trace.span("serve.rebuild.merge", rep, |_| {
            let mut merged = archive.clone();
            for day in open.iter().cloned() {
                merged.merge(day);
            }
            merged.canonicalize();
            merged
        });
        let bytes = trace.span("serve.rebuild.serialize", rep, |_| {
            let mut bytes = Vec::new();
            write_catalog(&mut bytes, &merged).map(|()| bytes)
        });
        let bytes = bytes.map_err(|e| e.to_string())?;
        let data = trace
            .span("serve.rebuild.replay", rep, |_| stream_catalog(&bytes[..]))
            .map_err(|e| e.to_string())?;
        let suite = trace.span("serve.rebuild.analyze", rep, |_| {
            analyze(&data.summaries, &data.apns, data.window_days, &tacdb)
        });
        trace.span("serve.rebuild.render", rep, |_| {
            render_reports(&data, &suite)
        })?;
    }

    let med = |name: &str| median(&trace.durations(name));
    let ingest_s = trace.durations("serve.ingest");
    let rebuild_s = trace.durations("serve.rebuild");
    let hit_p50_us = med("serve.hit") * 1e6;
    metrics.set("serve.preload_s", med("serve.preload"), "s");
    metrics.set("serve.ingest_p50_us", median(&ingest_s) * 1e6, "us");
    metrics.set(
        "serve.ingest_p99_us",
        percentile(&ingest_s, 0.99) * 1e6,
        "us",
    );
    metrics.set("serve.rows_ingested", traced.rows as f64, "count");
    metrics.set("serve.days_sealed", traced.sealed as f64, "count");
    metrics.set("serve.hit_p50_us", hit_p50_us, "us");
    metrics.set("serve.rebuilds", rebuild_s.len() as f64, "count");
    metrics.set("serve.rebuild_p50_ms", median(&rebuild_s) * 1e3, "ms");
    metrics.set(
        "serve.rebuild_max_ms",
        percentile(&rebuild_s, 1.0) * 1e3,
        "ms",
    );
    metrics.set(
        "serve.hit_ratio",
        traced.hits as f64 / traced.reads.max(1) as f64,
        "ratio",
    );
    for (span, metric) in [
        ("serve.rebuild.merge", "serve.rebuild.merge_s"),
        ("serve.rebuild.serialize", "serve.rebuild.serialize_s"),
        ("serve.rebuild.replay", "serve.rebuild.replay_s"),
        ("serve.rebuild.analyze", "serve.rebuild.analyze_s"),
        ("serve.rebuild.render", "serve.rebuild.render_s"),
    ] {
        metrics.set(metric, med(span), "s");
    }
    metrics.set(
        "serve.transport_p50_us",
        median(&load.read_ms) * 1e3 - hit_p50_us,
        "us",
    );
    metrics.set("loadgen.ingest_p50_ms", median(&load.ingest_ms), "ms");
    metrics.set(
        "loadgen.ingest_p99_ms",
        percentile(&load.ingest_ms, 0.99),
        "ms",
    );
    metrics.set("loadgen.read_p50_ms", median(&load.read_ms), "ms");
    metrics.set("loadgen.read_p99_ms", percentile(&load.read_ms, 0.99), "ms");
    metrics.set("loadgen.late_p99_ms", percentile(&load.late_ms, 0.99), "ms");
    metrics.set("loadgen.sent", load.sent as f64, "count");
    metrics.set("loadgen.failed", load.failed as f64, "count");
    metrics.set("loadgen.behind", load.behind as f64, "count");
    Ok(())
}

/// Writes the spans file and reports each span name's self time.
pub fn finish_trace(trace: &Trace, args: &Args) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, trace.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans: {} written to {}", trace.len(), path.display());
    eprintln!("self time by span name:");
    for (name, s) in trace.self_time_by_name() {
        eprintln!("  {name:<28} {s:>12.6} s");
    }
    Ok(())
}
