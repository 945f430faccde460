//! The batch pipeline as users run it — `simulate-mno --out --out-bin`
//! then `analyze --stream` — plus the fixture pieces the serve
//! workloads build from it: day-ordered taps and batch reference
//! renders in the server's exact response bytes.

use crate::measure::{digest, peak_rss_mb};
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::time::Instant;
use wtr_core::report::{render_analysis, render_classify, ANALYSES};
use wtr_core::stream::{analyze, stream_catalog, AnalysisSuite, StreamedCatalog};
use wtr_model::tacdb::TacDatabase;
use wtr_probes::catalog::{CatalogEntry, DevicesCatalog};
use wtr_probes::io::{write_catalog, write_catalog_bin, CatalogStream};
use wtr_scenarios::{MnoScenario, MnoScenarioConfig};
use wtr_serve::TABLES;
use wtr_sim::stream::RecordStream;

/// Devices in the fixture (the established 2500 × 22 analysis size).
pub const DEVICES: usize = 2_500;
/// Observation window in days.
pub const DAYS: u32 = 22;
/// Simulation shards per run.
pub const SHARDS: usize = 2;
/// `wtr_sim::par` worker threads.
pub const THREADS: usize = 2;

/// Table name → exact report bytes, keyed like [`TABLES`].
pub type Reports = BTreeMap<&'static str, String>;

/// The `simulate-mno` defaults for everything but size and seed.
pub fn scenario(seed: u64) -> MnoScenario {
    MnoScenario::new(MnoScenarioConfig {
        devices: DEVICES,
        days: DAYS,
        seed,
        nbiot_meter_fraction: 0.0,
        sunset_2g_uk: false,
        gsma_transparency: false,
        record_loss_fraction: 0.0,
    })
}

/// Renders every served table in the server's response bytes: each
/// analysis table plus the CLI's blank separator line, the
/// classification summary, and the tenant summary.
pub fn render_reports(data: &StreamedCatalog, suite: &AnalysisSuite) -> Result<Reports, String> {
    let mut tables = Reports::new();
    for name in ANALYSES {
        let mut body = render_analysis(name, data, suite)?;
        body.push('\n');
        tables.insert(name, body);
    }
    tables.insert(
        "classify",
        render_classify("full", data.summaries.len(), &suite.classification),
    );
    tables.insert(
        "summary",
        format!(
            "rows: {}\ndevices: {}\nwindow_days: {}\n",
            data.rows,
            data.summaries.len(),
            data.window_days
        ),
    );
    Ok(tables)
}

/// All tables concatenated in [`TABLES`] order.
pub fn reports_bytes(reports: &Reports) -> Vec<u8> {
    TABLES
        .iter()
        .flat_map(|t| reports[t].as_bytes().iter().copied())
        .collect()
}

/// `stream_catalog` → `analyze` → render over catalog bytes.
pub fn read_reports(bytes: &[u8], trace: &mut Trace, req: u64) -> Result<Reports, String> {
    let data = trace
        .span("core.stream_catalog", req, |_| stream_catalog(bytes))
        .map_err(|e| format!("stream_catalog: {e}"))?;
    let tacdb = TacDatabase::standard();
    let suite = trace.span("core.analyze", req, |_| {
        analyze(&data.summaries, &data.apns, data.window_days, &tacdb)
    });
    trace.span("core.render", req, |_| render_reports(&data, &suite))
}

/// Drains a catalog through the zero-copy scanner / WTRCAT decoder;
/// returns the rows it yielded.
pub fn scan(bytes: &[u8]) -> Result<u64, String> {
    let mut stream = CatalogStream::new(bytes).map_err(|e| e.to_string())?;
    let mut rows = 0u64;
    while let Some(chunk) = stream.next_chunk().map_err(|e| e.to_string())? {
        rows += chunk.len() as u64;
    }
    stream.finish().map_err(|e| e.to_string())?;
    Ok(rows)
}

pub fn jsonl_of(catalog: &DevicesCatalog) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_catalog(&mut bytes, catalog).expect("writing to memory cannot fail");
    bytes
}

pub fn wtrcat_of(catalog: &DevicesCatalog) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_catalog_bin(&mut bytes, catalog).expect("writing to memory cannot fail");
    bytes
}

/// Exact simulator counters of one run.
#[derive(Clone, Copy, Default)]
pub struct SimStats {
    pub wakeups: u64,
    pub peak_queue_max: u64,
    /// Largest shard's dispatched wake-ups over the mean shard's.
    pub shard_skew: f64,
}

/// The three byte strings a pass must reproduce exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digests {
    pub jsonl: u64,
    pub wtrcat: u64,
    pub reports: u64,
}

/// One batch pass and its outputs.
pub struct Pass {
    pub catalog: DevicesCatalog,
    pub jsonl: Vec<u8>,
    pub wtrcat: Vec<u8>,
    pub reports: Reports,
    /// The same reports, streamed from the WTRCAT bytes.
    pub from_wtrcat: Reports,
    pub sim: SimStats,
    /// Peak RSS right after the simulation, in MB.
    pub rss_after_sim_mb: f64,
    /// Simulate + write both formats (`simulate-mno --out --out-bin`).
    pub ingest_s: f64,
    /// Scan + analyze + render of every table, once from each format
    /// (`analyze --stream` over the JSONL and over the WTRCAT file).
    pub read_s: f64,
}

impl Pass {
    pub fn digests(&self) -> Digests {
        Digests {
            jsonl: digest(&self.jsonl),
            wtrcat: digest(&self.wtrcat),
            reports: digest(&reports_bytes(&self.reports)),
        }
    }
}

/// Simulates the fixture on [`SHARDS`] shards, writes it as JSONL and
/// WTRCAT, then streams each through analysis and renders every table.
pub fn run_pass(seed: u64, trace: &mut Trace, req: u64) -> Result<Pass, String> {
    trace.span("batch.pass", req, |trace| {
        let start = Instant::now();
        let (output, rss_after_sim_mb, jsonl, wtrcat) = trace.span("batch.ingest", req, |trace| {
            let output = trace.span("sim.run", req, |_| scenario(seed).run_sharded(SHARDS));
            let rss = peak_rss_mb();
            let jsonl = trace.span("probes.write_jsonl", req, |_| jsonl_of(&output.catalog));
            let wtrcat = trace.span("probes.write_wtrcat", req, |_| wtrcat_of(&output.catalog));
            (output, rss, jsonl, wtrcat)
        });
        let ingest_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let (reports, from_wtrcat) = trace.span("batch.read", req, |trace| {
            let reports = read_reports(&jsonl, trace, req)?;
            // Only the JSONL read's stages are spanned; the WTRCAT read
            // is one span, so stage medians stay per format.
            let from_wtrcat = trace.span("batch.read_wtrcat", req, |_| {
                read_reports(&wtrcat, &mut Trace::new(false), req)
            })?;
            Ok::<_, String>((reports, from_wtrcat))
        })?;
        let read_s = start.elapsed().as_secs_f64();

        let dispatched: Vec<u64> = output.shard_stats.iter().map(|s| s.dispatched).collect();
        let wakeups: u64 = dispatched.iter().sum();
        let mean = wakeups as f64 / dispatched.len().max(1) as f64;
        let max = dispatched.iter().copied().max().unwrap_or(0) as f64;
        let sim = SimStats {
            wakeups,
            peak_queue_max: output.engine_stats().peak_queue_max,
            shard_skew: if mean > 0.0 { max / mean } else { 0.0 },
        };
        Ok(Pass {
            catalog: output.catalog,
            jsonl,
            wtrcat,
            reports,
            from_wtrcat,
            sim,
            rss_after_sim_mb,
            ingest_s,
            read_s,
        })
    })
}

/// The fixture's rows ordered by (day, user): the order a live probe
/// feed delivers them in.
pub fn day_ordered(catalog: &DevicesCatalog) -> Vec<&CatalogEntry> {
    let mut rows: Vec<&CatalogEntry> = catalog.iter().collect();
    rows.sort_by_key(|r| (r.day.0, r.user));
    rows
}

/// A catalog holding exactly `rows`, symbols re-interned from `source`.
pub fn catalog_of(rows: &[&CatalogEntry], source: &DevicesCatalog) -> DevicesCatalog {
    let mut catalog = DevicesCatalog::new(source.window_days());
    for row in rows {
        catalog.adopt_entry((*row).clone(), source.apn_table());
    }
    catalog
}

/// The batch render of exactly `rows`, through the CLI's stream path.
pub fn reference(rows: &[&CatalogEntry], source: &DevicesCatalog) -> Result<Reports, String> {
    let bytes = jsonl_of(&catalog_of(rows, source));
    read_reports(&bytes, &mut Trace::new(false), 0)
}
