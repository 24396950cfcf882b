//! Sharded simulation throughput.
//!
//! Times `MnoScenario::run_sharded` at shards = 1/2/8 on two fixtures
//! (the 400x5 acceptance scenario and the 2500x22 analysis-scale one),
//! plus the JSONL ingest hot path. One-shot wall-clock numbers are
//! printed as JSON (skippable with `WTR_BENCH_SUMMARY=0` so smoke runs
//! stay cheap); Criterion then times the same paths properly. The
//! one-shot summary also times the zero-copy scanner against the serde
//! reader (`read_catalog_auto` vs `read_catalog_serde`). `sched_storm` times
//! a firmware-campaign storm — N agents all waking in the same second,
//! per Finley & Vesselkov's synchronized firmware-update signaling
//! storms — where every pop ties on time and resolves on the tie-break
//! fields of the dispatch key.
//!
//! Acceptance: on the 1-CPU bench host, `run_sharded(1)` — one engine,
//! inline on the calling thread — must stay within 5% of the pre-PR
//! serial engine (recorded at 65.0 ms for 400x5 before the dispatch
//! tie-break moved to `(time, agent, per-agent seq)`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use wtr_model::time::{SimDuration, SimTime};
use wtr_probes::io as probe_io;
use wtr_scenarios::{MnoScenario, MnoScenarioConfig};
use wtr_sim::engine::{Agent, AgentId, Engine, Scheduler, WakeTag};

fn config(devices: usize, days: u32, seed: u64) -> MnoScenarioConfig {
    MnoScenarioConfig {
        devices,
        days,
        seed,
        nbiot_meter_fraction: 0.05,
        sunset_2g_uk: false,
        gsma_transparency: false,
        record_loss_fraction: 0.0,
    }
}

/// Wall-clock of `f` averaged over `iters` runs, in milliseconds.
fn time_ms<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1_000.0 / f64::from(iters)
}

/// Firmware-campaign storm fixture: `agents` devices all waking at the
/// same `bursts` instants, each re-scheduling `budget` same-instant
/// follow-ups. Every pop ties on time and resolves on the
/// `(agent, seq, tag)` tail of the dispatch key.
struct StormAgent {
    bursts: Vec<u64>,
    budget: u32,
}

impl Agent<u64> for StormAgent {
    fn init(&mut self, id: AgentId, _w: &mut u64, s: &mut Scheduler) {
        for t in &self.bursts {
            s.wake_at(id, WakeTag(0), SimTime::from_secs(*t));
        }
    }
    fn wake(&mut self, id: AgentId, tag: WakeTag, w: &mut u64, s: &mut Scheduler) {
        *w = w.wrapping_add(u64::from(id.0) ^ s.now().as_secs());
        if tag.0 < self.budget {
            s.wake_at(id, WakeTag(tag.0 + 1), s.now() + SimDuration::from_secs(0));
        }
    }
}

/// Runs the storm and returns the world checksum (kept live so the
/// dispatch loop can't be optimized away).
fn run_storm(agents: u32) -> u64 {
    let mut engine = Engine::new(0u64, SimTime::from_secs(7_200));
    for _ in 0..agents {
        engine.add_agent(StormAgent {
            bursts: vec![60, 1_800, 7_199],
            budget: 2,
        });
    }
    engine.run()
}

fn bench(c: &mut Criterion) {
    let small = config(400, 5, 7);
    let big = config(2_500, 22, 99);
    // Warm caches / lazy statics so the first timed shard count isn't
    // penalized for cold-start work the others skip.
    black_box(MnoScenario::new(small.clone()).run_sharded(1));

    // --- One-shot JSON summary ----------------------------------------
    // Skippable (WTR_BENCH_SUMMARY=0) so CI smoke runs pay only for the
    // Criterion groups they actually filter down to.
    if std::env::var("WTR_BENCH_SUMMARY").as_deref() != Ok("0") {
        let mut parts = Vec::new();
        for shards in [1usize, 2, 8] {
            let scenario = MnoScenario::new(small.clone());
            let ms = time_ms(10, || scenario.run_sharded(shards));
            parts.push(format!("\"sim_400x5_shards{shards}_ms\":{ms:.1}"));
        }
        // Analysis-scale fixture at 1 shard (pure dispatch cost) and 8.
        for shards in [1usize, 8] {
            let scenario = MnoScenario::new(big.clone());
            let ms = time_ms(2, || scenario.run_sharded(shards));
            parts.push(format!("\"sim_2500x22_shards{shards}_ms\":{ms:.1}"));
        }
        // Firmware-storm worst case: 20k agents, all wake-ups landing on
        // three exact instants with same-instant re-schedules.
        let storm_ms = time_ms(3, || run_storm(20_000));
        parts.push(format!("\"sched_storm_20k_calendar_ms\":{storm_ms:.1}"));
        // JSONL ingest, scanner on vs off (BENCH_PR4 recorded 1108.5 ms
        // for the serde-per-line reader on the same 2500x22 fixture).
        let output = MnoScenario::new(big.clone()).run();
        let mut jsonl = Vec::new();
        probe_io::write_catalog(&mut jsonl, &output.catalog).unwrap();
        let ingest_ms = time_ms(3, || probe_io::read_catalog_auto(jsonl.as_slice()).unwrap());
        parts.push(format!("\"jsonl_read_catalog_ms\":{ingest_ms:.1}"));
        let serde_ms = time_ms(3, || {
            probe_io::read_catalog_serde(jsonl.as_slice()).unwrap()
        });
        parts.push(format!("\"jsonl_read_catalog_serde_ms\":{serde_ms:.1}"));
        eprintln!("{{{}}}", parts.join(","));
    }

    // --- Criterion groups -------------------------------------------
    let mut g = c.benchmark_group("sim_throughput_400x5");
    g.sample_size(10);
    for shards in [1usize, 2, 8] {
        let scenario = MnoScenario::new(small.clone());
        g.bench_function(&format!("shards_{shards}"), |b| {
            b.iter(|| black_box(&scenario).run_sharded(shards))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("sim_throughput_2500x22");
    g.sample_size(10);
    for shards in [1usize, 2, 8] {
        let scenario = MnoScenario::new(big.clone());
        g.bench_function(&format!("shards_{shards}"), |b| {
            b.iter(|| black_box(&scenario).run_sharded(shards))
        });
    }
    g.finish();

    // Firmware-storm microbench: every wake-up in the run lands on one
    // of three exact seconds (synchronized firmware-update campaigns per
    // Finley & Vesselkov), so dispatch order is decided entirely by the
    // tie-break tail of the key. The calendar queue sorts each burst once
    // at width 1 s.
    let mut g = c.benchmark_group("sched_storm");
    g.sample_size(10);
    g.bench_function("20k_agents_calendar", |b| {
        b.iter(|| run_storm(black_box(20_000)))
    });
    g.finish();

    let output = MnoScenario::new(big).run();
    let mut jsonl = Vec::new();
    probe_io::write_catalog(&mut jsonl, &output.catalog).unwrap();
    let mut g = c.benchmark_group("jsonl_ingest");
    g.sample_size(10);
    g.bench_function("read_catalog_borrowed_lines", |b| {
        b.iter(|| probe_io::read_catalog_auto(black_box(jsonl.as_slice())).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
