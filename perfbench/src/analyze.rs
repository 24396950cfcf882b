//! The `wtr analyze --stream` path over a catalog's bytes:
//! `stream_catalog` → `TacDatabase::standard` → `analyze` → render the
//! 13 bodies. `simulate-mno` runs it once per run to check the paper
//! bands and to digest the reports; `serve-feed` times the same calls
//! one by one inside its rebuild replica.

use crate::fixture::render_tables;
use crate::trace::Tracer;
use std::hint::black_box;
use wtr_core::stream::{analyze, stream_catalog, AnalysisSuite, StreamedCatalog};
use wtr_core::Classifier;
use wtr_model::tacdb::TacDatabase;
use wtr_probes::io::CatalogStream;
use wtr_sim::stream::RecordStream;

/// Drains a catalog stream with no folds: the scanner (JSONL) or
/// decoder (WTRCAT) alone. Returns the rows seen.
pub fn drain(bytes: &[u8]) -> u64 {
    let mut stream = CatalogStream::new(bytes).expect("catalog header");
    let mut rows = 0u64;
    while let Some(chunk) = stream.next_chunk().expect("catalog rows") {
        rows += chunk.len() as u64;
    }
    stream.finish().expect("catalog trailer");
    rows
}

/// One analysis of a catalog's bytes.
pub struct Analysis {
    pub data: StreamedCatalog,
    pub suite: AnalysisSuite,
    pub tables: Vec<String>,
}

/// Runs the analysis with a span around each call. When tracing, it also
/// times the scanner alone and the classifier alone as separate passes,
/// which split `stream_catalog` and `analyze`.
pub fn analyze_bytes(tracer: &mut Tracer, bytes: &[u8]) -> Analysis {
    if tracer.enabled() {
        tracer.time("probes.scan.jsonl", || black_box(drain(black_box(bytes))));
    }
    let data = tracer.time("core.stream", || {
        stream_catalog(bytes).expect("catalog streams")
    });
    let tacdb = tracer.time("model.tacdb.build", TacDatabase::standard);
    if tracer.enabled() {
        tracer.time("core.classify", || {
            black_box(Classifier::new(&tacdb).classify(&data.summaries, &data.apns))
        });
    }
    let suite = tracer.time("core.analysis", || {
        analyze(&data.summaries, &data.apns, data.window_days, &tacdb)
    });
    let tables = tracer.time("core.report.render", || render_tables(&data, &suite));
    Analysis {
        data,
        suite,
        tables,
    }
}
