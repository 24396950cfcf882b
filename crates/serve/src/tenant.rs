//! Per-tenant ingest books and the generation-keyed report cache.
//!
//! A tenant's state splits in two, each behind its own lock so that
//! readers never block ingest:
//!
//! * **books** — one catalog holding every accepted row, the set of
//!   days still open under the watermark, and the absorb generation.
//!   Ingest takes this lock for the duration of one `POST` (serial
//!   absorb per tenant: rows adopt in arrival order). A cold rebuild
//!   takes it only long enough to clone the catalog's `Arc` handle.
//! * **reports** — the rendered-table cache, keyed by the absorb
//!   generation. Ingest never touches it; it invalidates itself by
//!   comparing generations. The lock doubles as single-flight: when a
//!   generation misses, exactly one reader rebuilds while the rest
//!   queue for the finished result.
//!
//! The watermark moves no rows. A day falls out of the open set once
//! it is `watermark_days` behind the newest day seen, and each receipt
//! counts the days its upload sealed; on-time rows and stragglers alike
//! adopt into the one catalog.
//!
//! ## One analysis route
//!
//! A cold rebuild folds the catalog through
//! [`wtr_core::stream::materialize_catalog`] outside the books lock,
//! drops its handle, then runs `analyze` → `render_analysis`; `wtr
//! analyze` reaches the same `analyze` → `render_analysis` calls by
//! folding the catalog file chunk by chunk. The rebuild copies no rows:
//! only an ingest that lands during the fold copies the catalog, once,
//! through [`Arc::make_mut`]. Both front ends hand `analyze` canonical
//! APN symbols and summaries folded over rows in `(user, day)` order,
//! so nothing of the tenant's intern history or arrival order reaches
//! the reports: server reports are byte-identical to `wtr analyze` over
//! the same record set, for any tap count or arrival order that keeps
//! each catalog row within one upload (the row-partitioned tap
//! contract; a row *split* across uploads still absorbs, its first
//! arrival setting the identity fields, but its f64 mobility sums then
//! add in arrival order). `tests/stream_equivalence.rs` pins the
//! resident route against a replay of its JSONL export bit for bit, and
//! `tests/tenant_model.rs` checks random op sequences against a model.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
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

/// The ingest-side state: every accepted row, the days still open
/// under the watermark, and the monotone absorb generation.
#[derive(Debug)]
struct Books {
    /// Every accepted row, adopted in arrival order. A rebuild folds a
    /// clone of the handle outside the lock, and ingest writes through
    /// [`Arc::make_mut`], which copies only while such a fold holds it.
    catalog: Arc<DevicesCatalog>,
    /// Days within the watermark that are not sealed yet.
    open_days: BTreeSet<u32>,
    /// Highest day index seen; the watermark hangs off this.
    max_day: Option<u32>,
    /// Bumped once per successful ingest; keys the report cache.
    generation: u64,
}

/// What one successful `POST /ingest` did.
#[derive(Debug, Clone, Copy)]
pub struct IngestReceipt {
    /// Rows accepted from this upload.
    pub rows: u64,
    /// The tenant's absorb generation after this upload.
    pub generation: u64,
    /// Open days this upload's watermark sealed.
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
    /// Watermark width in days: a day at least this far behind the
    /// newest observed day is sealed, or never opens.
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
                catalog: Arc::new(DevicesCatalog::new(0)),
                open_days: BTreeSet::new(),
                max_day: None,
                generation: 0,
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
    /// auto-sniffed). Every row adopts into the tenant's catalog in
    /// arrival order; a row's day opens unless it is already behind the
    /// watermark, and open days that fall behind it afterwards are
    /// sealed. The absorb generation bumps exactly once on success; a
    /// malformed body changes nothing.
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

        let mut guard = self.books.lock().expect("books poisoned");
        let books = &mut *guard;
        let catalog = Arc::make_mut(&mut books.catalog);
        catalog.widen_window(upload_window);
        let rows = entries.len() as u64;
        for entry in entries {
            let day = entry.day.0;
            let newest = books.max_day.map_or(day, |m| m.max(day));
            books.max_day = Some(newest);
            if day >= newest.saturating_sub(self.watermark_days) {
                books.open_days.insert(day);
            }
            catalog.adopt_entry(entry, &table);
        }
        let low = books
            .max_day
            .map_or(0, |m| m.saturating_sub(self.watermark_days));
        let still_open = books.open_days.split_off(&low);
        let sealed_days = std::mem::replace(&mut books.open_days, still_open).len() as u64;
        books.generation += 1;
        Ok(IngestReceipt {
            rows,
            generation: books.generation,
            sealed_days,
        })
    }

    /// Seals every open day: the shutdown path. Bumps the generation
    /// if any day was open. Returns the number of days sealed.
    pub fn seal_all(&self) -> u64 {
        let mut books = self.books.lock().expect("books poisoned");
        let sealed = std::mem::take(&mut books.open_days).len() as u64;
        if sealed > 0 {
            books.generation += 1;
        }
        sealed
    }

    /// Returns the rendered reports for the current generation,
    /// rebuilding at most once per generation (single-flight under the
    /// cache lock; concurrent readers of a warm generation return the
    /// shared `Arc` immediately, and ingest never waits on this lock).
    pub fn reports(&self) -> Result<Arc<ReportSet>, String> {
        let mut cache = self.reports.lock().expect("reports poisoned");
        let (generation, catalog) = {
            let books = self.books.lock().expect("books poisoned");
            if let Some(set) = cache.as_ref() {
                if set.generation == books.generation {
                    return Ok(Arc::clone(set));
                }
            }
            (books.generation, Arc::clone(&books.catalog))
        };
        let set = Arc::new(build_reports(generation, catalog)?);
        *cache = Some(Arc::clone(&set));
        Ok(set)
    }
}

/// Runs the catalog through the batch analysis and renders every
/// table once. The handle drops right after the row fold, so an ingest
/// during analysis and render writes the catalog without copying it.
fn build_reports(generation: u64, catalog: Arc<DevicesCatalog>) -> Result<ReportSet, String> {
    let data = materialize_catalog(&catalog);
    drop(catalog);
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
        // A day-1 straggler is behind the watermark: it opens no day,
        // so nothing is newly sealed, but reports still count it.
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
}
