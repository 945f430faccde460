//! Per-tenant ingest books and the generation-keyed report cache.
//!
//! A tenant's state splits in two, each behind its own lock so that
//! readers never block ingest:
//!
//! * **books** — the open per-day catalogs plus the sealed archive.
//!   Ingest takes this lock for the duration of one `POST` (serial
//!   absorb per tenant: fold order, and therefore every downstream
//!   byte, is the arrival order). Report snapshots take it only long
//!   enough to clone an `Arc` of the archive and the small open days.
//! * **reports** — the rendered-table cache, keyed by the absorb
//!   generation. Ingest never touches it; it invalidates itself by
//!   comparing generations. The lock doubles as single-flight: when a
//!   generation misses, exactly one reader rebuilds the snapshot while
//!   the rest queue for the finished result.
//!
//! ## Materialized reports
//!
//! Reports are **not** rendered from live fold state. The snapshot is
//! merged and canonicalized into one catalog, and every table is
//! materialized from it directly:
//! [`wtr_core::stream::materialize_catalog`] → `analyze` →
//! `render_analysis` / `render_classify`, the analysis and render code
//! the batch CLI runs after its scan. A rebuild writes and re-reads no
//! catalog bytes. Per-upload APN intern order cannot leak into the
//! output: `canonicalize` sorts the symbol table, and every analysis
//! resolves APNs to strings. Server reports are byte-identical to
//! `wtr analyze --stream` over the same record set, for any tap count or
//! arrival order that keeps each catalog row within one upload (the
//! row-partitioned tap contract; rows *split* across uploads still
//! absorb, but f64 mobility sums then regroup in arrival order).
//!
//! That identity holds by test, not by construction. Three guards check
//! it:
//!
//! * the oracle test in `tests/serve_equivalence.rs`, which compares
//!   every table with the batch CLI's chain (serialize the rows, scan
//!   them back, analyze, render), sealing and straggler paths included;
//! * the CI `serve-smoke` job, which diffs HTTP bodies against the
//!   batch CLI with and without day sealing;
//! * the benchmark's output checks, which compare every GET body with
//!   the batch render of the rows at the generation it names.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use wtr_core::report::{render_analysis, render_classify, ANALYSES};
use wtr_core::stream::{analyze, materialize_catalog};
use wtr_model::tacdb::TacDatabase;
use wtr_probes::catalog::DevicesCatalog;
use wtr_probes::io::{CatalogStream, IoError};
use wtr_sim::stream::RecordStream;

/// Every table the report endpoint serves: the 11 analysis tables plus
/// the classification summary and the tenant summary.
pub const TABLES: [&str; 13] = [
    "labels",
    "classes",
    "home",
    "active",
    "elements",
    "rat",
    "traffic",
    "smip",
    "verticals",
    "diurnal",
    "revenue",
    "classify",
    "summary",
];

/// The ingest-side state: open days within the watermark, the sealed
/// archive behind them, and the monotone absorb generation.
#[derive(Debug)]
struct Books {
    /// Observation-window length: the max declared by any upload.
    window_days: u32,
    /// Open per-day catalogs, keyed by day index. Each holds only that
    /// day's rows, so sealing merges exactly one day at a time.
    open: BTreeMap<u32, DevicesCatalog>,
    /// The sealed archive. `Arc` + copy-on-seal: snapshots clone the
    /// handle, mutation goes through [`Arc::make_mut`], so a reader
    /// holding a pre-seal snapshot is never perturbed.
    archive: Arc<DevicesCatalog>,
    /// Highest day index seen; the watermark hangs off this.
    max_day: Option<u32>,
    /// Bumped once per successful ingest; keys the report cache.
    generation: u64,
    /// Total catalog rows accepted.
    rows_ingested: u64,
    /// Days sealed out of the open set so far.
    days_sealed: u64,
}

/// What one successful `POST /ingest` did.
#[derive(Debug, Clone, Copy)]
pub struct IngestReceipt {
    /// Rows accepted from this upload.
    pub rows: u64,
    /// The tenant's absorb generation after this upload.
    pub generation: u64,
    /// Open days sealed into the archive by this upload's watermark.
    pub sealed_days: u64,
}

/// One generation's rendered reports: every [`TABLES`] entry, rendered
/// once, served verbatim until the generation moves.
#[derive(Debug)]
pub struct ReportSet {
    /// The absorb generation these bytes were rendered at.
    pub generation: u64,
    /// Table name → exact response body.
    pub tables: BTreeMap<&'static str, String>,
}

/// One tenant: named books plus the generation-keyed report cache.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    /// Watermark width in days: rows at least this far behind the
    /// newest observed day seal / bypass the open set.
    watermark_days: u32,
    books: Mutex<Books>,
    reports: Mutex<Option<Arc<ReportSet>>>,
}

impl Tenant {
    /// Creates an empty tenant with the given watermark width.
    pub fn new(name: &str, watermark_days: u32) -> Tenant {
        Tenant {
            name: name.to_owned(),
            watermark_days,
            books: Mutex::new(Books {
                window_days: 0,
                open: BTreeMap::new(),
                archive: Arc::new(DevicesCatalog::new(0)),
                max_day: None,
                generation: 0,
                rows_ingested: 0,
                days_sealed: 0,
            }),
            reports: Mutex::new(None),
        }
    }

    /// Tenant name (as it appears in URLs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current absorb generation.
    pub fn generation(&self) -> u64 {
        self.books.lock().expect("books poisoned").generation
    }

    /// Ingests one uploaded catalog body (JSONL or `WTRCAT`,
    /// auto-sniffed). Rows within the watermark land in their open day;
    /// older rows absorb straight into the archive; days that fall out
    /// of the watermark afterwards are sealed ascending. The absorb
    /// generation bumps exactly once on success; a malformed body
    /// changes nothing.
    pub fn ingest(&self, body: &[u8]) -> Result<IngestReceipt, IoError> {
        // Decode fully *before* taking the books lock: a parse error on
        // line N must leave the tenant untouched, and decode is the
        // expensive half. JSONL symbol tables grow while streaming, so
        // rows resolve through the table only after `finish()`.
        let mut stream = CatalogStream::new(body)?;
        let upload_window = stream.window_days();
        let mut entries = Vec::new();
        while let Some(chunk) = stream.next_chunk()? {
            entries.extend(chunk);
        }
        let table = stream.finish()?;

        let mut books = self.books.lock().expect("books poisoned");
        books.window_days = books.window_days.max(upload_window);
        let rows = entries.len() as u64;
        let mut archive_touched = false;
        for entry in entries {
            let day = entry.day.0;
            books.max_day = Some(books.max_day.map_or(day, |m| m.max(day)));
            let low = self.low_watermark(&books);
            if u64::from(day) >= low {
                let window_days = books.window_days;
                books
                    .open
                    .entry(day)
                    .or_insert_with(|| DevicesCatalog::new(window_days))
                    .adopt_entry(entry, &table);
            } else {
                // Past-watermark straggler: absorb directly into the
                // sealed archive (copy-on-seal via make_mut).
                Arc::make_mut(&mut books.archive).adopt_entry(entry, &table);
                archive_touched = true;
            }
        }
        let low = self.low_watermark(&books);
        let sealed_days = self.seal_below(&mut books, low);
        if archive_touched && sealed_days == 0 {
            // seal_below canonicalizes when it seals; stragglers alone
            // must too, so the archive stays in canonical symbol form.
            Arc::make_mut(&mut books.archive).canonicalize();
        }
        books.rows_ingested += rows;
        books.generation += 1;
        Ok(IngestReceipt {
            rows,
            generation: books.generation,
            sealed_days,
        })
    }

    /// Seals every open day: the shutdown path. Bumps the generation
    /// if anything moved. Returns the number of days sealed.
    pub fn seal_all(&self) -> u64 {
        let mut books = self.books.lock().expect("books poisoned");
        let sealed = self.seal_below(&mut books, u64::MAX);
        if sealed > 0 {
            books.generation += 1;
        }
        sealed
    }

    /// Lowest day index still inside the watermark (`u64` so that
    /// [`Tenant::seal_all`] can pass an everything-seals bound even
    /// when a hostile upload carried `day == u32::MAX`).
    fn low_watermark(&self, books: &Books) -> u64 {
        books
            .max_day
            .map_or(0, |m| u64::from(m.saturating_sub(self.watermark_days)))
    }

    /// Merges every open day strictly below `low` into the archive,
    /// ascending (the deterministic fold order), then canonicalizes.
    fn seal_below(&self, books: &mut Books, low: u64) -> u64 {
        let to_seal: Vec<u32> = books
            .open
            .keys()
            .copied()
            .take_while(|day| u64::from(*day) < low)
            .collect();
        if to_seal.is_empty() {
            return 0;
        }
        let sealed = to_seal.len() as u64;
        for day in to_seal {
            let day_catalog = books.open.remove(&day).expect("day listed above");
            Arc::make_mut(&mut books.archive).merge(day_catalog);
        }
        Arc::make_mut(&mut books.archive).canonicalize();
        books.days_sealed += sealed;
        sealed
    }

    /// Atomically snapshots the books: generation, an `Arc` handle on
    /// the archive and clones of the (watermark-bounded) open days.
    /// The lock is held for the clones only — the merge happens in
    /// [`Tenant::reports`], outside it.
    fn snapshot(&self) -> (u64, Arc<DevicesCatalog>, Vec<DevicesCatalog>) {
        let books = self.books.lock().expect("books poisoned");
        (
            books.generation,
            Arc::clone(&books.archive),
            books.open.values().cloned().collect(),
        )
    }

    /// Returns the rendered reports for the current generation,
    /// rebuilding at most once per generation (single-flight under the
    /// cache lock; concurrent readers of a warm generation return the
    /// shared `Arc` immediately, and ingest never waits on this lock).
    ///
    /// A rebuild that panics poisons the cache lock but cannot leave a
    /// half-built value behind: the cache is only ever assigned a
    /// finished set. So the next reader recovers the guard and rebuilds
    /// instead of panicking on that tenant for good.
    pub fn reports(&self) -> Result<Arc<ReportSet>, String> {
        let mut cache = self.reports.lock().unwrap_or_else(PoisonError::into_inner);
        // Warm path first: comparing generations costs one short books
        // lock, not a snapshot — cloning the open days on every cache
        // hit would put O(open rows) on the hot read path.
        if let Some(set) = cache.as_ref() {
            if set.generation == self.generation() {
                return Ok(Arc::clone(set));
            }
        }
        let (generation, archive, open) = self.snapshot();
        if let Some(set) = cache.as_ref() {
            if set.generation == generation {
                return Ok(Arc::clone(set));
            }
        }
        let mut merged = (*archive).clone();
        for day_catalog in open {
            merged.merge(day_catalog);
        }
        merged.canonicalize();
        let set = Arc::new(build_reports(generation, &merged)?);
        *cache = Some(Arc::clone(&set));
        Ok(set)
    }
}

/// Renders every table once from the merged, canonicalized snapshot:
/// [`materialize_catalog`] → [`analyze`] → the batch CLI's renderers.
fn build_reports(generation: u64, merged: &DevicesCatalog) -> Result<ReportSet, String> {
    let data = materialize_catalog(merged);
    let tacdb = TacDatabase::standard();
    let suite = analyze(&data.summaries, &data.apns, data.window_days, &tacdb);
    let mut tables: BTreeMap<&'static str, String> = BTreeMap::new();
    for name in ANALYSES {
        // `wtr analyze` prints each table followed by one blank line;
        // appending the same '\n' makes the response body equal the
        // CLI's whole stdout for a single-table invocation.
        let mut body = render_analysis(name, &data, &suite)?;
        body.push('\n');
        tables.insert(name, body);
    }
    tables.insert(
        "classify",
        render_classify("full", data.summaries.len(), &suite.classification),
    );
    // Content-only (no generation): two servers that absorbed the same
    // rows along different routes must agree on every table's bytes.
    // The generation travels in the `x-wtr-generation` header instead.
    tables.insert(
        "summary",
        format!(
            "rows: {}\ndevices: {}\nwindow_days: {}\n",
            data.rows,
            data.summaries.len(),
            data.window_days
        ),
    );
    Ok(ReportSet { generation, tables })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::ids::{Plmn, Tac};
    use wtr_model::roaming::RoamingLabel;
    use wtr_model::time::Day;
    use wtr_probes::io::write_catalog;

    fn catalog_with_days(days: &[u32]) -> Vec<u8> {
        let mut cat = DevicesCatalog::new(22);
        let apn = cat.intern_apn("smip.example.gprs");
        for (i, day) in days.iter().enumerate() {
            let row = cat.row_mut(
                100 + i as u64,
                Day(*day),
                Plmn::of(204, 4),
                Tac::new(35_000_000).unwrap(),
                RoamingLabel::IH,
            );
            row.events = 5;
            row.apns.insert(apn);
        }
        let mut bytes = Vec::new();
        write_catalog(&mut bytes, &cat).unwrap();
        bytes
    }

    #[test]
    fn ingest_bumps_generation_and_counts_rows() {
        let tenant = Tenant::new("t", 2);
        let receipt = tenant.ingest(&catalog_with_days(&[0, 1])).unwrap();
        assert_eq!(receipt.rows, 2);
        assert_eq!(receipt.generation, 1);
        assert_eq!(receipt.sealed_days, 0);
        assert_eq!(tenant.generation(), 1);
    }

    #[test]
    fn watermark_seals_old_days_and_routes_stragglers() {
        let tenant = Tenant::new("t", 0);
        // Day 0 opens; day 5 arrives, watermark 0 seals day 0.
        tenant.ingest(&catalog_with_days(&[0])).unwrap();
        let receipt = tenant.ingest(&catalog_with_days(&[5])).unwrap();
        assert_eq!(receipt.sealed_days, 1);
        // A day-1 straggler is past the watermark: archived directly,
        // nothing newly sealed, but still visible to reports.
        let receipt = tenant.ingest(&catalog_with_days(&[1])).unwrap();
        assert_eq!(receipt.sealed_days, 0);
        let set = tenant.reports().unwrap();
        assert!(set.tables["summary"].starts_with("rows: 3\n"));
    }

    #[test]
    fn malformed_body_leaves_tenant_untouched() {
        let tenant = Tenant::new("t", 2);
        tenant.ingest(&catalog_with_days(&[0])).unwrap();
        let mut body = catalog_with_days(&[1]);
        body.extend_from_slice(b"{broken\n");
        assert!(tenant.ingest(&body).is_err());
        assert_eq!(tenant.generation(), 1);
        let set = tenant.reports().unwrap();
        assert!(set.tables["summary"].starts_with("rows: 1\n"));
    }

    #[test]
    fn report_cache_is_generation_keyed() {
        let tenant = Tenant::new("t", 5);
        tenant.ingest(&catalog_with_days(&[0])).unwrap();
        let first = tenant.reports().unwrap();
        let again = tenant.reports().unwrap();
        assert!(Arc::ptr_eq(&first, &again), "warm generation is shared");
        tenant.ingest(&catalog_with_days(&[1])).unwrap();
        let fresh = tenant.reports().unwrap();
        assert_eq!(fresh.generation, 2);
        assert!(!Arc::ptr_eq(&first, &fresh), "absorb invalidated cache");
    }

    #[test]
    fn every_table_renders() {
        let tenant = Tenant::new("t", 5);
        tenant.ingest(&catalog_with_days(&[0, 1, 2])).unwrap();
        let set = tenant.reports().unwrap();
        for table in TABLES {
            assert!(
                !set.tables[table].is_empty(),
                "table {table} rendered empty"
            );
        }
    }

    #[test]
    fn panicked_rebuild_does_not_poison_reports() {
        let tenant = Arc::new(Tenant::new("t", 5));
        tenant.ingest(&catalog_with_days(&[0])).unwrap();
        tenant.reports().unwrap();
        tenant.ingest(&catalog_with_days(&[1])).unwrap();
        // A reader that panics while holding the cache lock, as a
        // panicking rebuild would.
        let poisoner = Arc::clone(&tenant);
        let outcome = std::thread::spawn(move || {
            let _cache = poisoner.reports.lock().unwrap();
            panic!("rebuild failed");
        })
        .join();
        assert!(outcome.is_err());
        assert!(tenant.reports.is_poisoned());
        let set = tenant.reports().expect("a poisoned cache must recover");
        assert_eq!(set.generation, tenant.generation());
        assert!(set.tables["summary"].starts_with("rows: 2\n"));
    }
}
