//! JSONL persistence for datasets: export and re-import transaction logs
//! and devices-catalogs.
//!
//! This is the bridge to *real* operator data: anything that can be mapped
//! into these line formats runs through the whole `wtr-core` pipeline
//! unchanged. One JSON object per line, so streams of arbitrary size can
//! be processed without loading everything (readers work line-by-line over
//! any [`BufRead`]).
//!
//! Two formats:
//! * **transactions** — one [`M2mTransaction`] per line (the §3.1 schema);
//! * **catalog** — one [`CatalogEntry`] per line, preceded by a single
//!   header line carrying the window length.

use crate::catalog::{CatalogEntry, DevicesCatalog, MobilityAccum, MAX_WINDOW_DAYS};
use crate::records::M2mTransaction;
use crate::scan::{self, Scanner};
use crate::wire;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, Read, Write};
use wtr_model::ids::{Plmn, Tac};
use wtr_model::intern::{ApnSym, ApnTable};
use wtr_model::rat::RadioFlags;
use wtr_model::roaming::{Presence, RoamingLabel, SimOrigin};
use wtr_model::time::Day;
use wtr_sim::par;
use wtr_sim::stream::RecordStream;

/// Header line of a catalog JSONL stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogHeader {
    /// Format marker, always `"wtr-catalog"`.
    pub format: String,
    /// Observation-window length in days.
    pub window_days: u32,
    /// Number of rows that follow.
    pub rows: usize,
}

/// Marker value for [`CatalogHeader::format`].
pub const CATALOG_FORMAT: &str = "wtr-catalog";

/// Errors raised by the JSONL readers/writers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying IO failure.
    Io(io::Error),
    /// A line failed to parse as the expected JSON object.
    Parse {
        /// 1-based line number.
        line: usize,
        /// serde error description.
        message: String,
    },
    /// The catalog header was missing or malformed.
    BadHeader(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::BadHeader(m) => write!(f, "bad catalog header: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes a transaction log as JSONL (one transaction per line).
pub fn write_transactions<W: Write>(
    mut out: W,
    transactions: &[M2mTransaction],
) -> Result<(), IoError> {
    for (idx, t) in transactions.iter().enumerate() {
        serde_json::to_writer(&mut out, t).map_err(|e| IoError::Parse {
            // 1-based line the failed record would have landed on.
            line: idx + 1,
            message: e.to_string(),
        })?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// Slices `text` into non-blank lines with their 1-based line numbers.
/// `first_line` is the number of `text`'s first physical line (2 when a
/// header line was consumed separately).
///
/// Borrowing slices out of one backing `String` — instead of collecting
/// an owned `String` per row via `BufRead::lines` — is the JSONL ingest
/// hot path's big win: one allocation per file, not one per record.
fn numbered_line_slices(text: &str, first_line: usize) -> Vec<(usize, &str)> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| (first_line + idx, line))
        .collect()
}

/// Parses numbered JSONL lines in parallel (`wtr_sim::par`), preserving
/// line order; on failure, the error reports the *earliest* bad line,
/// exactly as a serial reader would.
///
/// Each line first goes through the schema-specialized scanner
/// ([`crate::scan`]); lines that deviate from the canonical shape fall
/// back to the serde parser, which owns all error reporting — so the
/// result (value or error, message and line number) is identical to
/// [`parse_lines_serde`] on every input.
fn parse_lines<T: serde::Deserialize + scan::FastParse + Send>(
    lines: &[(usize, &str)],
) -> Result<Vec<T>, IoError> {
    par::par_map(lines, |(num, line)| {
        if let Some(v) = T::fast_parse(line) {
            return Ok(v);
        }
        serde_json::from_str::<T>(line).map_err(|e| IoError::Parse {
            line: *num,
            message: e.to_string(),
        })
    })
    .into_iter()
    .collect()
}

/// Serde-only twin of [`parse_lines`]: the reference implementation the
/// scanner's fallback contract is checked against (equivalence tests and
/// the `io_throughput` ablation benches).
fn parse_lines_serde<T: serde::Deserialize + Send>(
    lines: &[(usize, &str)],
) -> Result<Vec<T>, IoError> {
    par::par_map(lines, |(num, line)| {
        serde_json::from_str::<T>(line).map_err(|e| IoError::Parse {
            line: *num,
            message: e.to_string(),
        })
    })
    .into_iter()
    .collect()
}

/// Reads a transaction log written by [`write_transactions`] (or produced
/// by any tool emitting the same schema). Lines are parsed in parallel
/// as borrowed slices of one backing buffer; the output order (and any
/// reported parse error) matches a serial read.
pub fn read_transactions<R: BufRead>(mut input: R) -> Result<Vec<M2mTransaction>, IoError> {
    let mut text = String::new();
    input.read_to_string(&mut text)?;
    parse_lines(&numbered_line_slices(&text, 1))
}

/// [`read_transactions`] without the scanner fast path: the serde-only
/// reference reader (equivalence tests and ablation benches).
pub fn read_transactions_serde<R: BufRead>(mut input: R) -> Result<Vec<M2mTransaction>, IoError> {
    let mut text = String::new();
    input.read_to_string(&mut text)?;
    parse_lines_serde(&numbered_line_slices(&text, 1))
}

/// The JSONL wire form of one catalog row: identical field names and
/// order to [`CatalogEntry`], with `apns` spelled out as the sorted list
/// of strings (resolved through the catalog's intern table). This keeps
/// the line format — byte for byte — what it was before symbols existed,
/// while the in-memory entry stores compact `ApnSym` keys.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CatalogRowWire {
    user: u64,
    day: Day,
    sim_plmn: Plmn,
    tac: Tac,
    label: RoamingLabel,
    events: u64,
    failed_events: u64,
    calls: u64,
    sms: u64,
    call_secs: u64,
    data_sessions: u64,
    bytes_up: u64,
    bytes_down: u64,
    visited: BTreeSet<u32>,
    apns: BTreeSet<String>,
    radio_flags: RadioFlags,
    sector_set: BTreeSet<u64>,
    hourly: [u32; 24],
    in_designated_range: bool,
    in_published_m2m_range: bool,
    mobility: MobilityAccum,
}

impl scan::FastParse for CatalogRowWire {
    /// Matches the canonical [`write_catalog`] row shape: the struct's
    /// keys in declaration order, compact separators, validated-range
    /// scalars. Anything else bails to serde (see [`crate::scan`]).
    fn fast_parse(line: &str) -> Option<Self> {
        let mut sc = Scanner::new(line);
        sc.lit("{\"user\":")?;
        let user = sc.u64_val()?;
        sc.lit(",\"day\":")?;
        let day = Day(sc.u32_val()?);
        sc.lit(",\"sim_plmn\":")?;
        let sim_plmn = sc.plmn()?;
        sc.lit(",\"tac\":")?;
        let tac = sc.tac()?;
        sc.lit(",\"label\":")?;
        let label = sc.roaming_label()?;
        sc.lit(",\"events\":")?;
        let events = sc.u64_val()?;
        sc.lit(",\"failed_events\":")?;
        let failed_events = sc.u64_val()?;
        sc.lit(",\"calls\":")?;
        let calls = sc.u64_val()?;
        sc.lit(",\"sms\":")?;
        let sms = sc.u64_val()?;
        sc.lit(",\"call_secs\":")?;
        let call_secs = sc.u64_val()?;
        sc.lit(",\"data_sessions\":")?;
        let data_sessions = sc.u64_val()?;
        sc.lit(",\"bytes_up\":")?;
        let bytes_up = sc.u64_val()?;
        sc.lit(",\"bytes_down\":")?;
        let bytes_down = sc.u64_val()?;
        sc.lit(",\"visited\":")?;
        let visited = sc.set(Scanner::u32_val)?;
        sc.lit(",\"apns\":")?;
        let apns = sc.set(|sc| sc.string_val().map(str::to_owned))?;
        sc.lit(",\"radio_flags\":")?;
        let radio_flags = sc.radio_flags()?;
        sc.lit(",\"sector_set\":")?;
        let sector_set = sc.set(Scanner::u64_val)?;
        sc.lit(",\"hourly\":")?;
        let hourly = sc.hourly()?;
        sc.lit(",\"in_designated_range\":")?;
        let in_designated_range = sc.bool_val()?;
        sc.lit(",\"in_published_m2m_range\":")?;
        let in_published_m2m_range = sc.bool_val()?;
        sc.lit(",\"mobility\":")?;
        let mobility = sc.mobility()?;
        sc.lit("}")?;
        sc.finish()?;
        Some(CatalogRowWire {
            user,
            day,
            sim_plmn,
            tac,
            label,
            events,
            failed_events,
            calls,
            sms,
            call_secs,
            data_sessions,
            bytes_up,
            bytes_down,
            visited,
            apns,
            radio_flags,
            sector_set,
            hourly,
            in_designated_range,
            in_published_m2m_range,
            mobility,
        })
    }
}

impl CatalogRowWire {
    /// Resolves a row's symbols against `catalog`'s table (the serde
    /// oracle's input, see the tests' `write_catalog_serde`).
    #[cfg(test)]
    fn from_entry(entry: &CatalogEntry, catalog: &DevicesCatalog) -> Self {
        CatalogRowWire {
            user: entry.user,
            day: entry.day,
            sim_plmn: entry.sim_plmn,
            tac: entry.tac,
            label: entry.label,
            events: entry.events,
            failed_events: entry.failed_events,
            calls: entry.calls,
            sms: entry.sms,
            call_secs: entry.call_secs,
            data_sessions: entry.data_sessions,
            bytes_up: entry.bytes_up,
            bytes_down: entry.bytes_down,
            visited: entry.visited.clone(),
            apns: entry
                .apns
                .iter()
                .map(|&sym| catalog.apn_str(sym).to_owned())
                .collect(),
            radio_flags: entry.radio_flags,
            sector_set: entry.sector_set.clone(),
            hourly: entry.hourly,
            in_designated_range: entry.in_designated_range,
            in_published_m2m_range: entry.in_published_m2m_range,
            mobility: entry.mobility,
        }
    }

    /// Builds the in-memory entry, interning this wire row's APN strings
    /// through `intern` (in sorted-string order — the order the wire
    /// `BTreeSet` iterates). Shared by the materialized install path and
    /// the streaming reader, so both intern in exactly the same order.
    fn into_entry(self, mut intern: impl FnMut(&str) -> ApnSym) -> CatalogEntry {
        let apns: BTreeSet<ApnSym> = self.apns.iter().map(|a| intern(a)).collect();
        CatalogEntry {
            user: self.user,
            day: self.day,
            sim_plmn: self.sim_plmn,
            tac: self.tac,
            label: self.label,
            events: self.events,
            failed_events: self.failed_events,
            calls: self.calls,
            sms: self.sms,
            call_secs: self.call_secs,
            data_sessions: self.data_sessions,
            bytes_up: self.bytes_up,
            bytes_down: self.bytes_down,
            visited: self.visited,
            apns,
            radio_flags: self.radio_flags,
            sector_set: self.sector_set,
            hourly: self.hourly,
            in_designated_range: self.in_designated_range,
            in_published_m2m_range: self.in_published_m2m_range,
            mobility: self.mobility,
        }
    }

    /// Interns this wire row's APN strings into `catalog` and installs
    /// the row.
    fn install(self, catalog: &mut DevicesCatalog) {
        let (user, day, sim_plmn, tac, label) =
            (self.user, self.day, self.sim_plmn, self.tac, self.label);
        let entry = self.into_entry(|a| catalog.intern_apn(a));
        *catalog.row_mut(user, day, sim_plmn, tac, label) = entry;
    }
}

/// Writes a devices-catalog as JSONL: a header line, then one row per line
/// in a stable (user, day) order so exports are diffable.
///
/// Rows are formatted straight into one reused byte buffer, in exactly
/// the shape [`CatalogRowWire`]'s scanner fast path accepts: the struct's
/// keys in declaration order, compact separators, APN strings sorted and
/// escaped as `serde_json` escapes them, and floats by its rule (see
/// [`push_f64`]). The bytes equal a `serde_json` serialization of the
/// same rows, which the unit tests keep as the writer's oracle.
pub fn write_catalog<W: Write>(mut out: W, catalog: &DevicesCatalog) -> Result<(), IoError> {
    /// Bytes buffered before each `write_all`.
    const FLUSH_AT: usize = 1 << 16;
    let mut buf = Vec::with_capacity(FLUSH_AT + 4096);
    buf.extend_from_slice(b"{\"format\":");
    push_json_str(&mut buf, CATALOG_FORMAT);
    buf.extend_from_slice(b",\"window_days\":");
    push_u64(&mut buf, u64::from(catalog.window_days()));
    buf.extend_from_slice(b",\"rows\":");
    push_u64(&mut buf, catalog.len() as u64);
    buf.extend_from_slice(b"}\n");
    let mut apns: Vec<&str> = Vec::new();
    for row in catalog.iter() {
        push_row(&mut buf, row, catalog, &mut apns);
        if buf.len() >= FLUSH_AT {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    out.write_all(&buf)?;
    Ok(())
}

/// Appends one catalog row and its newline to `buf` (see
/// [`write_catalog`]). `apns` is scratch space for the row's resolved
/// APN strings.
fn push_row<'c>(
    buf: &mut Vec<u8>,
    row: &CatalogEntry,
    catalog: &'c DevicesCatalog,
    apns: &mut Vec<&'c str>,
) {
    buf.extend_from_slice(b"{\"user\":");
    push_u64(buf, row.user);
    buf.extend_from_slice(b",\"day\":");
    push_u64(buf, u64::from(row.day.0));
    buf.extend_from_slice(b",\"sim_plmn\":");
    push_plmn(buf, row.sim_plmn);
    buf.extend_from_slice(b",\"tac\":");
    push_u64(buf, u64::from(row.tac.value()));
    buf.extend_from_slice(b",\"label\":{\"sim\":\"");
    buf.extend_from_slice(match row.label.sim {
        SimOrigin::Home => b"Home".as_slice(),
        SimOrigin::Virtual => b"Virtual",
        SimOrigin::National => b"National",
        SimOrigin::International => b"International",
    });
    buf.extend_from_slice(b"\",\"presence\":\"");
    buf.extend_from_slice(match row.label.presence {
        Presence::Home => b"Home".as_slice(),
        Presence::Abroad => b"Abroad",
    });
    for (key, value) in [
        (b"\"},\"events\":".as_slice(), row.events),
        (b",\"failed_events\":", row.failed_events),
        (b",\"calls\":", row.calls),
        (b",\"sms\":", row.sms),
        (b",\"call_secs\":", row.call_secs),
        (b",\"data_sessions\":", row.data_sessions),
        (b",\"bytes_up\":", row.bytes_up),
        (b",\"bytes_down\":", row.bytes_down),
    ] {
        buf.extend_from_slice(key);
        push_u64(buf, value);
    }
    buf.extend_from_slice(b",\"visited\":");
    push_list(buf, row.visited.iter(), |buf, &v| {
        push_u64(buf, u64::from(v))
    });
    // The wire form lists APN strings in string order; symbol order
    // matches it only in a canonical table.
    apns.clear();
    apns.extend(row.apns.iter().map(|&sym| catalog.apn_str(sym)));
    apns.sort_unstable();
    buf.extend_from_slice(b",\"apns\":");
    push_list(buf, apns.iter(), |buf, apn| push_json_str(buf, apn));
    let flags = row.radio_flags;
    buf.extend_from_slice(b",\"radio_flags\":{\"any\":");
    push_u64(buf, u64::from(flags.any.bits()));
    buf.extend_from_slice(b",\"data\":");
    push_u64(buf, u64::from(flags.data.bits()));
    buf.extend_from_slice(b",\"voice\":");
    push_u64(buf, u64::from(flags.voice.bits()));
    buf.extend_from_slice(b"},\"sector_set\":");
    push_list(buf, row.sector_set.iter(), |buf, &s| push_u64(buf, s));
    buf.extend_from_slice(b",\"hourly\":");
    push_list(buf, row.hourly.iter(), |buf, &h| {
        push_u64(buf, u64::from(h))
    });
    buf.extend_from_slice(b",\"in_designated_range\":");
    push_bool(buf, row.in_designated_range);
    buf.extend_from_slice(b",\"in_published_m2m_range\":");
    push_bool(buf, row.in_published_m2m_range);
    let [w, lat_w, lon_w, lat2_w, lon2_w] = row.mobility.to_parts();
    for (key, value) in [
        (b",\"mobility\":{\"w\":".as_slice(), w),
        (b",\"lat_w\":", lat_w),
        (b",\"lon_w\":", lon_w),
        (b",\"lat2_w\":", lat2_w),
        (b",\"lon2_w\":", lon2_w),
    ] {
        buf.extend_from_slice(key);
        push_f64(buf, value);
    }
    buf.extend_from_slice(b"}}\n");
}

/// Appends `n` in decimal.
fn push_u64(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

fn push_bool(buf: &mut Vec<u8>, b: bool) {
    buf.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Appends a float by the vendored `serde_json` rule: `null` for
/// non-finite values, one decimal for integral values below 1e16
/// (`1.0`, `-0.0`), `Display` otherwise.
fn push_f64(buf: &mut Vec<u8>, f: f64) {
    if !f.is_finite() {
        buf.extend_from_slice(b"null");
    } else if f == f.trunc() && f.abs() < 1e16 {
        // `{f:.1}` of an integral value below 1e16: its exact integer
        // digits (`as` is exact there), the sign of -0.0 included.
        if f.is_sign_negative() {
            buf.push(b'-');
        }
        push_u64(buf, f.abs() as u64);
        buf.extend_from_slice(b".0");
    } else {
        let _ = write!(buf, "{f}");
    }
}

/// Appends a JSON string with the vendored `serde_json` escapes: `"` and
/// `\\`, the short forms of `\n \r \t \b \f`, `\u00XX` (lowercase hex)
/// for the other control characters, everything else verbatim.
fn push_json_str(buf: &mut Vec<u8>, s: &str) {
    buf.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0x00..=0x1f => b"",
            _ => continue,
        };
        buf.extend_from_slice(&bytes[run..i]);
        run = i + 1;
        if escape.is_empty() {
            let _ = write!(buf, "\\u{b:04x}");
        } else {
            buf.extend_from_slice(escape);
        }
    }
    buf.extend_from_slice(&bytes[run..]);
    buf.push(b'"');
}

/// Appends a PLMN as `{"mcc":N,"mnc":{"value":N,"digits":D}}`.
fn push_plmn(buf: &mut Vec<u8>, plmn: Plmn) {
    buf.extend_from_slice(b"{\"mcc\":");
    push_u64(buf, u64::from(plmn.mcc.value()));
    buf.extend_from_slice(b",\"mnc\":{\"value\":");
    push_u64(buf, u64::from(plmn.mnc.value()));
    buf.extend_from_slice(b",\"digits\":");
    push_u64(buf, u64::from(plmn.mnc.digits()));
    buf.extend_from_slice(b"}}");
}

/// Appends `[a,b,…]` with `item` formatting each element.
fn push_list<T>(
    buf: &mut Vec<u8>,
    items: impl Iterator<Item = T>,
    mut item: impl FnMut(&mut Vec<u8>, T),
) {
    buf.push(b'[');
    for (i, value) in items.enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        item(buf, value);
    }
    buf.push(b']');
}

/// Parses and validates a catalog JSONL header line: the format marker
/// must match and the declared window may not exceed
/// [`MAX_WINDOW_DAYS`].
fn parse_header(line: &str) -> Result<CatalogHeader, IoError> {
    let header: CatalogHeader =
        serde_json::from_str(line).map_err(|e| IoError::BadHeader(e.to_string()))?;
    if header.format != CATALOG_FORMAT {
        return Err(IoError::BadHeader(format!(
            "unknown format {:?}",
            header.format
        )));
    }
    if header.window_days > MAX_WINDOW_DAYS {
        return Err(IoError::BadHeader(format!(
            "window_days {} exceeds the maximum of {MAX_WINDOW_DAYS}",
            header.window_days
        )));
    }
    Ok(header)
}

/// Reads a devices-catalog written by [`write_catalog`]. APN strings are
/// interned in row order (rows are parsed in parallel but installed in
/// input order), so the rebuilt catalog — table included — is identical
/// at any thread count.
pub fn read_catalog<R: BufRead>(input: R) -> Result<DevicesCatalog, IoError> {
    read_catalog_impl(input, parse_lines::<CatalogRowWire>)
}

/// [`read_catalog`] without the scanner fast path: the serde-only
/// reference reader (equivalence tests and ablation benches).
pub fn read_catalog_serde<R: BufRead>(input: R) -> Result<DevicesCatalog, IoError> {
    read_catalog_impl(input, parse_lines_serde::<CatalogRowWire>)
}

/// Line-batch parser signature shared by the scanner-backed and
/// serde-only catalog readers.
type RowParser = fn(&[(usize, &str)]) -> Result<Vec<CatalogRowWire>, IoError>;

fn read_catalog_impl<R: BufRead>(
    mut input: R,
    parse: RowParser,
) -> Result<DevicesCatalog, IoError> {
    let mut text = String::new();
    input.read_to_string(&mut text)?;
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| IoError::BadHeader("empty input".into()))?;
    let header = parse_header(header_line)?;
    // Row lines start on physical line 2; slices borrow from `text`.
    let body = match text.find('\n') {
        Some(i) => &text[i + 1..],
        None => "",
    };
    let numbered = numbered_line_slices(body, 2);
    let wires: Vec<CatalogRowWire> = parse(&numbered)?;
    let count = wires.len();
    let mut catalog = DevicesCatalog::new(header.window_days);
    for wire in wires {
        wire.install(&mut catalog);
    }
    if count != header.rows {
        return Err(IoError::BadHeader(format!(
            "header promised {} rows, found {count}",
            header.rows
        )));
    }
    Ok(catalog)
}

/// Writes a devices-catalog in the columnar binary `WTRCAT` format
/// ([`crate::wire::encode_catalog`]) — typically 5–10× smaller than the
/// JSONL export and decoded in parallel row-group chunks.
pub fn write_catalog_bin<W: Write>(mut out: W, catalog: &DevicesCatalog) -> Result<(), IoError> {
    let bytes = crate::wire::encode_catalog(catalog);
    out.write_all(&bytes)?;
    Ok(())
}

/// Reads a `WTRCAT` catalog written by [`write_catalog_bin`].
pub fn read_catalog_bin<R: io::Read>(mut input: R) -> Result<DevicesCatalog, IoError> {
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes)?;
    crate::wire::decode_catalog(&bytes).map_err(|e| IoError::BadHeader(e.to_string()))
}

/// Reads a devices-catalog in either format, sniffing the `WTRCAT` magic:
/// binary files start with it, JSONL files start with `{`.
pub fn read_catalog_auto<R: BufRead>(mut input: R) -> Result<DevicesCatalog, IoError> {
    let head = input.fill_buf()?;
    let magic = crate::wire::CAT_MAGIC;
    if head.len() >= magic.len() && &head[..magic.len()] == magic {
        read_catalog_bin(input)
    } else {
        read_catalog(input)
    }
}

/// Reads exactly `n` bytes from `r`.
///
/// `n` is untrusted (it comes from length prefixes in the file), so the
/// buffer is **not** pre-allocated to `n`: reading through a bounded
/// `take` grows it incrementally, capping the allocation at the bytes
/// the input actually contains plus a small seed capacity.
fn read_exact_vec<R: Read>(r: &mut R, n: usize, what: &str) -> Result<Vec<u8>, IoError> {
    let mut buf = Vec::with_capacity(n.min(64 * 1024));
    r.by_ref()
        .take(n as u64)
        .read_to_end(&mut buf)
        .map_err(IoError::Io)?;
    if buf.len() != n {
        return Err(IoError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("truncated {what}: needed {n} bytes, found {}", buf.len()),
        )));
    }
    Ok(buf)
}

/// Which on-disk format a [`CatalogStream`] is decoding.
enum StreamBackend<R> {
    /// JSONL: rows parse in parallel per line block; APN strings intern
    /// into the stream's growing table in row order (identical to
    /// [`read_catalog`]'s serial install order). Lines accumulate into
    /// one persistent block buffer (cleared but never shrunk between
    /// refills) and parse as borrowed slices — no per-row `String`.
    Jsonl {
        input: R,
        /// 1-based number of the last physical line consumed.
        line_no: usize,
        /// Reusable block buffer holding the current refill's raw lines.
        buf: String,
        /// `(line number, byte range into `buf`)` per non-blank line.
        spans: Vec<(usize, std::ops::Range<usize>)>,
    },
    /// `WTRCAT`: the canonical table came from the file header; row
    /// chunks decode lazily, one length-prefixed frame at a time.
    Wtrcat {
        input: R,
        remaining_chunks: u32,
        table_len: usize,
    },
}

/// A chunk-at-a-time devices-catalog reader: the [`RecordStream`]
/// behind the bounded-memory pipeline.
///
/// Sniffs the format like [`read_catalog_auto`] (a `WTRCAT` magic means
/// binary, anything else JSONL), reads the header eagerly — window
/// length, declared row count and, for `WTRCAT`, the canonical APN
/// table — then yields rows in file order **without ever materializing
/// a [`DevicesCatalog`]**. Peak memory is O(chunk), not O(rows).
///
/// # Determinism and equivalence
///
/// * Emitted chunk boundaries are [`par::chunk_size`] of the *declared*
///   row count — the same pure-in-`n` boundaries
///   [`wtr_sim::stream::drive_slice`] uses over a materialized slice of
///   the same rows. Folds driven from this stream therefore execute the
///   exact same arithmetic, in the same order, as the materialized
///   path: byte-identical results, including floating-point bits.
/// * APN symbols match the materialized readers exactly: JSONL interns
///   in row order (like [`read_catalog`]), `WTRCAT` uses the file's
///   canonical table (like [`wire::decode_catalog`]). Resolve the
///   emitted rows' symbols through [`CatalogStream::apn_table`] /
///   [`CatalogStream::finish`].
pub struct CatalogStream<R> {
    backend: StreamBackend<R>,
    table: ApnTable,
    window_days: u32,
    declared_rows: u64,
    rows_seen: u64,
    /// Rows per emitted chunk: `par::chunk_size(declared_rows)`.
    chunk_len: usize,
    pending: Vec<CatalogEntry>,
    exhausted: bool,
}

impl<R: BufRead> CatalogStream<R> {
    /// Opens a catalog stream over `input`, sniffing the format from
    /// the leading bytes and reading the header eagerly.
    pub fn new(mut input: R) -> Result<Self, IoError> {
        let head = input.fill_buf()?;
        let magic = wire::CAT_MAGIC;
        if head.len() >= magic.len() && &head[..magic.len()] == magic {
            Self::new_wtrcat(input)
        } else {
            Self::new_jsonl(input)
        }
    }

    fn new_jsonl(mut input: R) -> Result<Self, IoError> {
        let mut header_line = String::new();
        if input.read_line(&mut header_line)? == 0 {
            return Err(IoError::BadHeader("empty input".into()));
        }
        let header = parse_header(header_line.trim_end())?;
        let declared_rows = header.rows as u64;
        Ok(CatalogStream {
            backend: StreamBackend::Jsonl {
                input,
                line_no: 1,
                buf: String::new(),
                spans: Vec::new(),
            },
            table: ApnTable::new(),
            window_days: header.window_days,
            declared_rows,
            rows_seen: 0,
            chunk_len: par::chunk_size(header.rows),
            pending: Vec::new(),
            exhausted: false,
        })
    }

    fn new_wtrcat(mut input: R) -> Result<Self, IoError> {
        // Validation order is load-bearing: the fixed region — magic
        // first, then the rows/chunks consistency check — is parsed and
        // rejected *before* any length field out of it drives a read
        // loop. Only then are the table strings pulled in (each read
        // bounded by the input's actual remaining bytes, see
        // `read_exact_vec`) and the accumulated region re-parsed by the
        // wire decoder — one source of truth for table validation.
        let mut raw = read_exact_vec(&mut input, wire::CAT_FIXED_LEN, "header")?;
        let fixed = wire::decode_catalog_fixed(&mut &raw[..])
            .map_err(|e| IoError::BadHeader(e.to_string()))?;
        let rows = usize::try_from(fixed.rows)
            .map_err(|_| IoError::BadHeader("declared row count overflows usize".into()))?;
        for _ in 0..fixed.table_len {
            let len_bytes = read_exact_vec(&mut input, 2, "APN string length")?;
            let len = u16::from_le_bytes(len_bytes[..].try_into().expect("2 bytes")) as usize;
            raw.extend_from_slice(&len_bytes);
            raw.extend_from_slice(&read_exact_vec(&mut input, len, "APN string bytes")?);
        }
        let mut slice = &raw[..];
        let header = wire::decode_catalog_header(&mut slice)
            .map_err(|e| IoError::BadHeader(e.to_string()))?;
        debug_assert!(slice.is_empty(), "header region fully consumed");
        let declared_rows = header.rows;
        Ok(CatalogStream {
            backend: StreamBackend::Wtrcat {
                input,
                remaining_chunks: header.chunks,
                table_len: header.table.len(),
            },
            table: header.table,
            window_days: header.window_days,
            declared_rows,
            rows_seen: 0,
            chunk_len: par::chunk_size(rows),
            pending: Vec::new(),
            exhausted: false,
        })
    }

    /// Length of the observation window in days.
    pub fn window_days(&self) -> u32 {
        self.window_days
    }

    /// Row count declared by the header (validated by
    /// [`CatalogStream::finish`]).
    pub fn declared_rows(&self) -> u64 {
        self.declared_rows
    }

    /// Rows decoded so far.
    pub fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    /// The APN table emitted rows' symbols resolve through. For JSONL
    /// inputs the table **grows while streaming** (first-occurrence
    /// interning in row order) — resolve symbols only after the stream
    /// is exhausted. `WTRCAT` tables are complete (and canonical) from
    /// the start.
    pub fn apn_table(&self) -> &ApnTable {
        &self.table
    }

    /// Validates the end-of-stream invariants (stream exhausted, row
    /// count matches the header) and returns the final APN table.
    pub fn finish(self) -> Result<ApnTable, IoError> {
        if !self.exhausted || !self.pending.is_empty() {
            return Err(IoError::BadHeader(
                "catalog stream not fully consumed".into(),
            ));
        }
        if self.rows_seen != self.declared_rows {
            return Err(IoError::BadHeader(format!(
                "header promised {} rows, found {}",
                self.declared_rows, self.rows_seen
            )));
        }
        Ok(self.table)
    }

    /// Pulls one backend unit (a line block or a `WTRCAT` chunk window)
    /// into `pending`. Sets `exhausted` at end of input.
    fn refill(&mut self) -> Result<(), IoError> {
        match &mut self.backend {
            StreamBackend::Jsonl {
                input,
                line_no,
                buf,
                spans,
            } => {
                // Accumulate up to a chunk of raw lines into the
                // persistent block buffer: `clear` keeps capacity, so
                // after the first refill the hot loop allocates nothing.
                buf.clear();
                spans.clear();
                while spans.len() < wire::CAT_CHUNK_ROWS {
                    let start = buf.len();
                    if input.read_line(buf)? == 0 {
                        self.exhausted = true;
                        break;
                    }
                    *line_no += 1;
                    let line = buf[start..].trim_end_matches(['\n', '\r']);
                    if line.trim().is_empty() {
                        buf.truncate(start);
                        continue;
                    }
                    spans.push((*line_no, start..start + line.len()));
                }
                let numbered: Vec<(usize, &str)> = spans
                    .iter()
                    .map(|(num, range)| (*num, &buf[range.clone()]))
                    .collect();
                let wires: Vec<CatalogRowWire> = parse_lines(&numbered)?;
                self.rows_seen += wires.len() as u64;
                let table = &mut self.table;
                self.pending
                    .extend(wires.into_iter().map(|w| w.into_entry(|a| table.intern(a))));
            }
            StreamBackend::Wtrcat {
                input,
                remaining_chunks,
                table_len,
            } => {
                // Read up to a worker-window of frames, then decode them
                // in parallel (decode is pure per chunk, so the window
                // size cannot affect the output).
                let window = par::threads().max(1).min(*remaining_chunks as usize);
                let mut frames: Vec<(Vec<u8>, usize)> = Vec::with_capacity(window);
                for _ in 0..window {
                    let frame = read_exact_vec(input, 8, "chunk frame")?;
                    let byte_len =
                        u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
                    let rows = u32::from_le_bytes(frame[4..].try_into().expect("4 bytes")) as usize;
                    frames.push((read_exact_vec(input, byte_len, "chunk body")?, rows));
                    *remaining_chunks -= 1;
                }
                if *remaining_chunks == 0 {
                    // Past the final chunk the file must end.
                    let mut probe = [0u8; 1];
                    if input.read(&mut probe)? != 0 {
                        return Err(IoError::BadHeader(
                            "bytes after the final WTRCAT chunk".into(),
                        ));
                    }
                    self.exhausted = true;
                }
                let table_len = *table_len;
                let decoded = par::par_each(&frames, |(body, rows)| {
                    wire::decode_chunk_rows(body, *rows, table_len)
                });
                for chunk in decoded {
                    let chunk = chunk.map_err(|e| IoError::BadHeader(e.to_string()))?;
                    self.rows_seen += chunk.len() as u64;
                    self.pending.extend(chunk);
                }
            }
        }
        Ok(())
    }
}

impl<R: BufRead> RecordStream for CatalogStream<R> {
    type Item = CatalogEntry;
    type Error = IoError;

    fn next_chunk(&mut self) -> Result<Option<Vec<CatalogEntry>>, IoError> {
        while !self.exhausted && self.pending.len() < self.chunk_len {
            self.refill()?;
        }
        if self.pending.is_empty() {
            return Ok(None);
        }
        if self.pending.len() <= self.chunk_len {
            return Ok(Some(std::mem::take(&mut self.pending)));
        }
        let rest = self.pending.split_off(self.chunk_len);
        Ok(Some(std::mem::replace(&mut self.pending, rest)))
    }
}

/// One line of a ground-truth JSONL stream: the anonymized device ID and
/// its true vertical. Produced by scenario runs (`wtr simulate-mno
/// --truth`), consumed by `wtr validate` — never by the classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TruthLine {
    /// Anonymized device ID (same hashing as the catalog).
    pub user: u64,
    /// Ground-truth vertical.
    pub vertical: wtr_model::vertical::Vertical,
}

/// Writes a ground-truth map as JSONL in (user) order — `BTreeMap` keeps
/// the export byte-stable without an explicit sort.
pub fn write_truth<W: Write>(
    mut out: W,
    truth: &BTreeMap<u64, wtr_model::vertical::Vertical>,
) -> Result<(), IoError> {
    let lines = truth.iter().map(|(user, vertical)| TruthLine {
        user: *user,
        vertical: *vertical,
    });
    for (idx, line) in lines.enumerate() {
        serde_json::to_writer(&mut out, &line).map_err(|e| IoError::Parse {
            line: idx + 1,
            message: e.to_string(),
        })?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// Reads a ground-truth map written by [`write_truth`].
pub fn read_truth<R: BufRead>(
    mut input: R,
) -> Result<BTreeMap<u64, wtr_model::vertical::Vertical>, IoError> {
    let mut text = String::new();
    input.read_to_string(&mut text)?;
    let lines: Vec<TruthLine> = parse_lines(&numbered_line_slices(&text, 1))?;
    Ok(lines.into_iter().map(|t| (t.user, t.vertical)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FastParse;
    use wtr_model::ids::{Plmn, Tac};
    use wtr_model::roaming::RoamingLabel;
    use wtr_model::time::{Day, SimTime};

    fn sample_catalog() -> DevicesCatalog {
        let mut cat = DevicesCatalog::new(22);
        let apn = cat.intern_apn("smhp.centricaplc.com");
        for (user, day) in [(1u64, 0u32), (1, 3), (2, 1)] {
            let row = cat.row_mut(
                user,
                Day(day),
                Plmn::of(204, 4),
                Tac::new(35_000_000).unwrap(),
                RoamingLabel::IH,
            );
            row.events = 10 + user;
            row.bytes_up = 100 * user;
            row.apns.insert(apn);
            row.hourly[13] = 4;
        }
        cat
    }

    fn sample_transactions() -> Vec<M2mTransaction> {
        use crate::records::M2mMessageType;
        use wtr_sim::events::ProcedureResult;
        (0..50u64)
            .map(|i| M2mTransaction {
                device: i,
                time: SimTime::from_secs(i * 11),
                sim_plmn: Plmn::of(214, 7),
                visited_plmn: Plmn::of(234, 30),
                message: M2mMessageType::UpdateLocation,
                result: if i % 4 == 0 {
                    ProcedureResult::RoamingNotAllowed
                } else {
                    ProcedureResult::Ok
                },
            })
            .collect()
    }

    /// The serde twin of [`write_catalog`]: every row through a
    /// `serde_json` `Value` tree. Kept only as the writer's oracle.
    fn write_catalog_serde(catalog: &DevicesCatalog) -> Vec<u8> {
        let header = CatalogHeader {
            format: CATALOG_FORMAT.to_owned(),
            window_days: catalog.window_days(),
            rows: catalog.len(),
        };
        let mut out = serde_json::to_string(&header).unwrap().into_bytes();
        out.push(b'\n');
        for row in catalog.iter() {
            serde_json::to_writer(&mut out, &CatalogRowWire::from_entry(row, catalog)).unwrap();
            out.push(b'\n');
        }
        out
    }

    /// APN strings the writer must escape exactly as `serde_json` does,
    /// plus plain ones the scanner reads without falling back.
    const ORACLE_APNS: [&str; 12] = [
        "internet.albion.gb",
        "smhp.centricaplc.com.mnc004.mcc204.gprs",
        "",
        "unicode-\u{e9}-\u{2713}",
        "del\u{7f}",
        "quote\"d",
        "back\\slash",
        "tab\there",
        "nl\nand\rcr",
        "ctl\u{1}\u{1f}",
        "bs\u{8}ff\u{c}",
        "\u{0}",
    ];

    /// Mobility parts covering the float rule's branches: integral
    /// (`{:.1}`), `-0.0`, the 1e16 switch to `Display`, non-integral,
    /// subnormal and huge values, and the non-finite `null`s.
    const ORACLE_FLOATS: [f64; 17] = [
        0.0,
        -0.0,
        1.0,
        -3.0,
        -4_503_599_627_370_497.0,
        9_999_999_999_999_998.0,
        1e16,
        -1e16,
        1e300,
        0.1,
        154.5,
        -0.123_456_789_012_345_67,
        5e-324,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// SplitMix stream for the oracle catalogs.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = wtr_model::hash::mix64(self.0);
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// 0, `u64::MAX` or a random magnitude.
        fn counter(&mut self) -> u64 {
            match self.below(3) {
                0 => 0,
                1 => u64::MAX,
                _ => self.next() >> self.below(64),
            }
        }

        /// A mobility part: a table value or random bits, finite only if
        /// `finite`.
        fn part(&mut self, finite: bool) -> f64 {
            loop {
                let f = match self.below(3) {
                    0 => f64::from_bits(self.next()),
                    _ => ORACLE_FLOATS[self.below(ORACLE_FLOATS.len() as u64) as usize],
                };
                if !finite || f.is_finite() {
                    return f;
                }
            }
        }
    }

    /// A random catalog from `seed`: APNs interned in a shuffled
    /// (non-canonical) order, `u64::MAX` counters, empty and full sets.
    fn oracle_catalog(seed: u64, rows: usize) -> DevicesCatalog {
        use wtr_model::ids::{Mcc, Mnc};
        use wtr_model::rat::RatSet;
        let mut d = Draw(seed);
        let mut cat = DevicesCatalog::new(1 + d.below(3_660) as u32);
        let start = d.next() as usize;
        let apns: Vec<ApnSym> = (0..ORACLE_APNS.len())
            .map(|k| cat.intern_apn(ORACLE_APNS[(start + k * 5) % ORACLE_APNS.len()]))
            .collect();
        let plmns = [
            Plmn::of(234, 30),
            Plmn::of(204, 4),
            Plmn::new(Mcc::new(310).unwrap(), Mnc::new3(410).unwrap()),
        ];
        let origins = [
            SimOrigin::Home,
            SimOrigin::Virtual,
            SimOrigin::National,
            SimOrigin::International,
        ];
        for _ in 0..rows {
            let label = RoamingLabel {
                sim: origins[d.below(4) as usize],
                presence: [Presence::Home, Presence::Abroad][d.below(2) as usize],
            };
            let mut entry = CatalogEntry {
                user: d.counter(),
                day: Day(d.below(3_660) as u32),
                sim_plmn: plmns[d.below(3) as usize],
                tac: Tac::new(d.below(100_000_000) as u32).unwrap(),
                label,
                events: d.counter(),
                failed_events: d.counter(),
                calls: d.counter(),
                sms: d.counter(),
                call_secs: d.counter(),
                data_sessions: d.counter(),
                bytes_up: d.counter(),
                bytes_down: d.counter(),
                visited: BTreeSet::new(),
                apns: BTreeSet::new(),
                radio_flags: RadioFlags {
                    any: RatSet::from_bits(d.below(16) as u8),
                    data: RatSet::from_bits(d.below(16) as u8),
                    voice: RatSet::from_bits(d.below(16) as u8),
                },
                sector_set: BTreeSet::new(),
                hourly: [0; 24],
                in_designated_range: d.below(2) == 0,
                in_published_m2m_range: d.below(2) == 0,
                mobility: MobilityAccum::default(),
            };
            for _ in 0..d.below(4) {
                entry.visited.insert(d.counter() as u32);
                entry.apns.insert(apns[d.below(apns.len() as u64) as usize]);
                entry.sector_set.insert(d.counter());
            }
            for slot in entry.hourly.iter_mut() {
                *slot = d.counter() as u32;
            }
            let finite = d.below(3) != 0;
            entry.mobility = MobilityAccum::from_parts(std::array::from_fn(|_| d.part(finite)));
            // A repeated (user, day) would add `u64::MAX` counters.
            if cat.get(entry.user, entry.day).is_none() {
                cat.insert_entry(entry);
            }
        }
        cat
    }

    proptest::proptest! {
        /// The direct writer emits the serde serialization byte for byte;
        /// rows whose APNs need no escape take the scanner's fast path,
        /// and every finite catalog reads back to the same bytes.
        #[test]
        fn write_catalog_matches_serde_oracle(seed in proptest::any::<u64>(), rows in 0usize..40) {
            let cat = oracle_catalog(seed, rows);
            let mut direct = Vec::new();
            write_catalog(&mut direct, &cat).unwrap();
            let oracle = write_catalog_serde(&cat);
            proptest::prop_assert_eq!(
                String::from_utf8_lossy(&direct),
                String::from_utf8_lossy(&oracle)
            );
            let text = std::str::from_utf8(&direct).unwrap();
            let mut all_finite = true;
            for (line, row) in text.lines().skip(1).zip(cat.iter()) {
                let plain = row.apns.iter().all(|&sym| {
                    !cat.apn_str(sym).bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20)
                });
                let fast = CatalogRowWire::fast_parse(line);
                proptest::prop_assert!(fast.is_some() == plain, "fast path {} on {line}", !plain);
                let finite = row.mobility.to_parts().iter().all(|f| f.is_finite());
                all_finite &= finite;
                if let (Some(fast), true) = (fast, finite) {
                    let slow: CatalogRowWire = serde_json::from_str(line).unwrap();
                    proptest::prop_assert_eq!(fast, slow);
                }
            }
            if all_finite {
                let mut again = Vec::new();
                write_catalog(&mut again, &read_catalog(&direct[..]).unwrap()).unwrap();
                proptest::prop_assert_eq!(again, direct);
            }
        }
    }

    #[test]
    #[ignore = "profiling harness, run by hand with --release"]
    fn profile_read_catalog_stages() {
        // Synthetic analysis-scale catalog: ~40k rows shaped like the
        // 2500x22 fixture (2 APNs, ~6 sectors, full hourly, mobility).
        let mut cat = DevicesCatalog::new(22);
        let apns: Vec<_> = (0..200)
            .map(|i| cat.intern_apn(&format!("apn{i}.example.com.mnc004.mcc204.gprs")))
            .collect();
        for user in 0..2_000u64 {
            for day in 0..20u32 {
                let row = cat.row_mut(
                    user,
                    Day(day),
                    Plmn::of(204, 4),
                    Tac::new(35_000_000).unwrap(),
                    RoamingLabel::IH,
                );
                row.events = 100 + user;
                row.bytes_up = 100 * user;
                row.apns.insert(apns[(user % 200) as usize]);
                row.apns.insert(apns[((user + 7) % 200) as usize]);
                for s in 0..6u64 {
                    row.sector_set.insert(user * 31 + s);
                }
                row.visited.insert(23430);
                for h in 0..24 {
                    row.hourly[h] = (user as u32 + h as u32) % 50;
                }
                row.mobility = MobilityAccum::from_parts([
                    10.0,
                    51.5 * 10.0,
                    -0.1 * 10.0,
                    51.5 * 51.5 * 10.0,
                    0.01 * 10.0,
                ]);
            }
        }
        let mut jsonl = Vec::new();
        write_catalog(&mut jsonl, &cat).unwrap();
        eprintln!("rows {} bytes {}", cat.len(), jsonl.len());
        let text = std::str::from_utf8(&jsonl[..]).unwrap();
        let body = &text[text.find('\n').unwrap() + 1..];
        let numbered = numbered_line_slices(body, 2);
        let t = std::time::Instant::now();
        let mut n = 0usize;
        for (_, line) in &numbered {
            n += usize::from(CatalogRowWire::fast_parse(line).is_some());
        }
        eprintln!(
            "fast_parse only: {:?} ({n}/{} hit)",
            t.elapsed(),
            numbered.len()
        );
        let t = std::time::Instant::now();
        let wires: Vec<CatalogRowWire> = parse_lines(&numbered).unwrap();
        eprintln!("parse_lines(fast): {:?}", t.elapsed());
        let t = std::time::Instant::now();
        let _w2: Vec<CatalogRowWire> = parse_lines_serde(&numbered).unwrap();
        eprintln!("parse_lines(serde): {:?}", t.elapsed());
        let t = std::time::Instant::now();
        let mut rebuilt = DevicesCatalog::new(22);
        for wire in wires {
            wire.install(&mut rebuilt);
        }
        eprintln!("install: {:?}", t.elapsed());
        let t = std::time::Instant::now();
        let back = read_catalog(&jsonl[..]).unwrap();
        eprintln!("read_catalog total: {:?}", t.elapsed());
        assert_eq!(back.len(), cat.len());
    }

    #[test]
    fn transactions_roundtrip() {
        let txs = sample_transactions();
        let mut buf = Vec::new();
        write_transactions(&mut buf, &txs).unwrap();
        assert_eq!(buf.iter().filter(|b| **b == b'\n').count(), txs.len());
        let back = read_transactions(&buf[..]).unwrap();
        assert_eq!(back, txs);
    }

    #[test]
    fn transactions_skip_blank_lines() {
        let txs = sample_transactions();
        let mut buf = Vec::new();
        write_transactions(&mut buf, &txs[..2]).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = read_transactions(&buf[..]).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn transactions_report_bad_line_number() {
        let txs = sample_transactions();
        let mut buf = Vec::new();
        write_transactions(&mut buf, &txs[..3]).unwrap();
        buf.extend_from_slice(b"{not json}\n");
        let err = read_transactions(&buf[..]).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn catalog_roundtrip_preserves_rows() {
        let cat = sample_catalog();
        let mut buf = Vec::new();
        write_catalog(&mut buf, &cat).unwrap();
        let back = read_catalog(&buf[..]).unwrap();
        assert_eq!(back.len(), cat.len());
        assert_eq!(back.window_days(), 22);
        let row = back.get(1, Day(3)).unwrap();
        assert_eq!(row.events, 11);
        assert_eq!(row.hourly[13], 4);
        assert!(row
            .apns
            .iter()
            .any(|&sym| back.apn_str(sym) == "smhp.centricaplc.com"));
    }

    #[test]
    fn catalog_export_is_stable() {
        let cat = sample_catalog();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_catalog(&mut a, &cat).unwrap();
        write_catalog(&mut b, &cat).unwrap();
        assert_eq!(a, b, "exports must be byte-identical (diffable)");
    }

    #[test]
    fn truth_roundtrip() {
        use wtr_model::vertical::Vertical;
        let truth: BTreeMap<u64, Vertical> = [
            (7u64, Vertical::SmartMeter),
            (3, Vertical::Smartphone),
            (9, Vertical::ConnectedCar),
        ]
        .into_iter()
        .collect();
        let mut buf = Vec::new();
        write_truth(&mut buf, &truth).unwrap();
        let back = read_truth(&buf[..]).unwrap();
        assert_eq!(back, truth);
        // Stable export: byte-identical across runs.
        let mut buf2 = Vec::new();
        write_truth(&mut buf2, &truth).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn catalog_auto_sniffs_both_formats() {
        let cat = sample_catalog();
        let mut jsonl = Vec::new();
        write_catalog(&mut jsonl, &cat).unwrap();
        let mut bin = Vec::new();
        write_catalog_bin(&mut bin, &cat).unwrap();
        assert!(bin.len() < jsonl.len());
        for bytes in [&jsonl, &bin] {
            let back = read_catalog_auto(&bytes[..]).unwrap();
            assert_eq!(back.len(), cat.len());
            let row = back.get(1, Day(3)).unwrap();
            assert!(row
                .apns
                .iter()
                .any(|&sym| back.apn_str(sym) == "smhp.centricaplc.com"));
        }
    }

    #[test]
    fn jsonl_and_wtrcat_reimports_are_equivalent() {
        // Satellite: JSONL ↔ columnar roundtrip equivalence. Importing
        // either serialization and re-exporting as JSONL must be
        // byte-identical — same rows, same resolved APN strings.
        let cat = sample_catalog();
        let mut jsonl = Vec::new();
        write_catalog(&mut jsonl, &cat).unwrap();
        let mut bin = Vec::new();
        write_catalog_bin(&mut bin, &cat).unwrap();
        let from_jsonl = read_catalog(&jsonl[..]).unwrap();
        let from_bin = read_catalog_bin(&bin[..]).unwrap();
        let mut a = Vec::new();
        write_catalog(&mut a, &from_jsonl).unwrap();
        let mut b = Vec::new();
        write_catalog(&mut b, &from_bin).unwrap();
        assert_eq!(a, jsonl, "JSONL reimport re-exports identically");
        assert_eq!(b, jsonl, "WTRCAT reimport re-exports identically");
    }

    #[test]
    fn catalog_stream_yields_same_rows_and_table_as_materialized() {
        use wtr_sim::stream::RecordStream;
        let cat = sample_catalog();
        let mut jsonl = Vec::new();
        write_catalog(&mut jsonl, &cat).unwrap();
        let mut bin = Vec::new();
        write_catalog_bin(&mut bin, &cat).unwrap();
        for bytes in [&jsonl, &bin] {
            let materialized = read_catalog_auto(&bytes[..]).unwrap();
            let mut stream = CatalogStream::new(&bytes[..]).unwrap();
            assert_eq!(stream.window_days(), 22);
            assert_eq!(stream.declared_rows(), cat.len() as u64);
            let mut rows = Vec::new();
            while let Some(chunk) = stream.next_chunk().unwrap() {
                rows.extend(chunk);
            }
            let table = stream.finish().unwrap();
            assert_eq!(&table, materialized.apn_table());
            let want: Vec<&CatalogEntry> = materialized.iter().collect();
            assert_eq!(rows.len(), want.len());
            for (got, want) in rows.iter().zip(want) {
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn catalog_stream_rejects_row_count_mismatch_and_trailer() {
        use wtr_sim::stream::RecordStream;
        let cat = sample_catalog();
        let mut jsonl = Vec::new();
        write_catalog(&mut jsonl, &cat).unwrap();
        // Drop the final row: declared count no longer matches.
        let text = String::from_utf8(jsonl).unwrap();
        let truncated: String = text
            .lines()
            .take(text.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        let mut stream = CatalogStream::new(truncated.as_bytes()).unwrap();
        while stream.next_chunk().unwrap().is_some() {}
        assert!(matches!(stream.finish(), Err(IoError::BadHeader(_))));
        // WTRCAT trailing garbage is rejected.
        let mut bin = Vec::new();
        write_catalog_bin(&mut bin, &cat).unwrap();
        bin.push(0);
        let mut stream = CatalogStream::new(&bin[..]).unwrap();
        let result = loop {
            let step = stream.next_chunk();
            match &step {
                Ok(Some(_)) => continue,
                _ => break step,
            }
        };
        assert!(result.is_err(), "trailing byte after final chunk detected");
    }

    #[test]
    fn catalog_rejects_bad_header_and_row_count() {
        let cat = sample_catalog();
        let mut buf = Vec::new();
        write_catalog(&mut buf, &cat).unwrap();
        // Truncate the last row: count mismatch.
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text
            .lines()
            .take(text.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            read_catalog(truncated.as_bytes()),
            Err(IoError::BadHeader(_))
        ));
        // Garbage header.
        assert!(matches!(
            read_catalog(&b"{\"format\":\"nope\"}\n"[..]),
            Err(IoError::BadHeader(_))
        ));
        assert!(matches!(read_catalog(&b""[..]), Err(IoError::BadHeader(_))));
    }
}
