//! Streaming vs materialized ingest: wall time and peak allocation.
//!
//! The PR-3 acceptance bench. A counting global allocator (delta of
//! live bytes, high-water mark) measures what the streaming refactor is
//! for: `stream_catalog` folds a catalog file chunk by chunk into
//! summaries + label shares without ever materializing a
//! `DevicesCatalog`, so its peak allocation is O(devices + chunk
//! window) while the materialized path peaks at O(rows + devices).
//! Peak numbers are printed once as JSON (see `BENCH_PR3.json`);
//! Criterion then times both paths on the same in-memory files.

use criterion::{criterion_group, criterion_main, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use wtr_core::stream::{analyze, materialize_catalog, stream_catalog};
use wtr_probes::io as probe_io;
use wtr_scenarios::{MnoScenario, MnoScenarioConfig};

/// [`System`] with live-byte and high-water-mark accounting. Counts
/// requested sizes (not allocator slack): exactly the quantity the
/// bounded-memory contract speaks about.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let cur = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(cur, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns the peak allocation above entry, in bytes.
fn peak_above_baseline<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let baseline = CURRENT.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let r = f();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
    (peak, r)
}

fn fixture() -> (Vec<u8>, Vec<u8>) {
    // ≥10× the 400-device/5-day acceptance scenario.
    let output = MnoScenario::new(MnoScenarioConfig {
        devices: 2_500,
        days: 22,
        seed: 99,
        nbiot_meter_fraction: 0.0,
        sunset_2g_uk: false,
        gsma_transparency: false,
        record_loss_fraction: 0.0,
    })
    .run();
    let mut jsonl = Vec::new();
    probe_io::write_catalog(&mut jsonl, &output.catalog).unwrap();
    let mut wtrcat = Vec::new();
    probe_io::write_catalog_bin(&mut wtrcat, &output.catalog).unwrap();
    (jsonl, wtrcat)
}

fn bench(c: &mut Criterion) {
    let (jsonl, wtrcat) = fixture();

    // One-shot peak-allocation comparison, printed as JSON for
    // BENCH_PR3.json. The file bytes themselves sit outside the
    // baseline (already allocated), so each number is the transient
    // working set of the ingest path alone.
    let (peak_mat_jsonl, data) = peak_above_baseline(|| {
        materialize_catalog(&probe_io::read_catalog_auto(jsonl.as_slice()).unwrap())
    });
    drop(data);
    let (peak_str_jsonl, data) = peak_above_baseline(|| stream_catalog(jsonl.as_slice()).unwrap());
    drop(data);
    let (peak_mat_wtrcat, data) = peak_above_baseline(|| {
        materialize_catalog(&probe_io::read_catalog_auto(wtrcat.as_slice()).unwrap())
    });
    drop(data);
    let (peak_str_wtrcat, data) =
        peak_above_baseline(|| stream_catalog(wtrcat.as_slice()).unwrap());
    eprintln!(
        "{{\"peak_alloc_bytes\":{{\"jsonl_materialized\":{peak_mat_jsonl},\
         \"jsonl_streamed\":{peak_str_jsonl},\"wtrcat_materialized\":{peak_mat_wtrcat},\
         \"wtrcat_streamed\":{peak_str_wtrcat}}}}}"
    );
    assert!(
        peak_str_jsonl < peak_mat_jsonl && peak_str_wtrcat < peak_mat_wtrcat,
        "streaming ingest must peak below materialized"
    );

    let mut g = c.benchmark_group("stream_vs_materialized");
    g.sample_size(10);
    g.bench_function("ingest_jsonl_materialized", |b| {
        b.iter(|| {
            materialize_catalog(&probe_io::read_catalog_auto(black_box(jsonl.as_slice())).unwrap())
        })
    });
    g.bench_function("ingest_jsonl_streamed", |b| {
        b.iter(|| stream_catalog(black_box(jsonl.as_slice())).unwrap())
    });
    g.bench_function("ingest_wtrcat_materialized", |b| {
        b.iter(|| {
            materialize_catalog(&probe_io::read_catalog_auto(black_box(wtrcat.as_slice())).unwrap())
        })
    });
    g.bench_function("ingest_wtrcat_streamed", |b| {
        b.iter(|| stream_catalog(black_box(wtrcat.as_slice())).unwrap())
    });
    g.finish();

    // Analysis suite: classification plus every per-summary table.
    let tacdb = wtr_model::tacdb::TacDatabase::standard();
    let mut g = c.benchmark_group("analysis_suite");
    g.sample_size(10);
    g.bench_function("analyze", |b| {
        b.iter(|| {
            analyze(
                black_box(&data.summaries),
                &data.apns,
                data.window_days,
                &tacdb,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
