//! Property tests for the discrete-event engine and traffic samplers,
//! including the calendar queue's dispatch order against a `BinaryHeap`
//! oracle.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wtr_model::time::{SimDuration, SimTime};
use wtr_sim::engine::{Agent, AgentId, Engine, EngineStats, Scheduler, WakeTag};
use wtr_sim::rng::SubstreamRng;

/// Agent that fires once per preset time, logging into the shared world.
struct Preset {
    times: Vec<u64>,
}

impl Agent<Vec<(u64, u32)>> for Preset {
    fn init(&mut self, id: AgentId, _w: &mut Vec<(u64, u32)>, s: &mut Scheduler) {
        for t in &self.times {
            s.wake_at(id, WakeTag(0), SimTime::from_secs(*t));
        }
    }
    fn wake(&mut self, id: AgentId, _tag: WakeTag, w: &mut Vec<(u64, u32)>, s: &mut Scheduler) {
        w.push((s.now().as_secs(), id.0));
    }
}

proptest! {
    #[test]
    fn dispatch_is_globally_time_ordered(
        schedules in prop::collection::vec(
            prop::collection::vec(0u64..5_000, 0..20),
            1..8
        ),
        horizon in 1u64..5_000
    ) {
        let mut engine = Engine::new(Vec::new(), SimTime::from_secs(horizon));
        let mut expected = 0usize;
        for times in &schedules {
            expected += times.iter().filter(|t| **t < horizon).count();
            engine.add_agent(Preset { times: times.clone() });
        }
        let log = engine.run();
        // Every in-horizon wake fires exactly once.
        prop_assert_eq!(log.len(), expected);
        // Timestamps are monotone.
        prop_assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
        // Nothing fires at or past the horizon.
        prop_assert!(log.iter().all(|(t, _)| *t < horizon));
    }

    #[test]
    fn engine_is_reproducible(
        schedules in prop::collection::vec(
            prop::collection::vec(0u64..2_000, 0..12),
            1..5
        )
    ) {
        let run = || {
            let mut engine = Engine::new(Vec::new(), SimTime::from_secs(2_000));
            for times in &schedules {
                engine.add_agent(Preset { times: times.clone() });
            }
            engine.run()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn poisson_mean_tracks_lambda(lambda in 0.1f64..40.0, seed in any::<u64>()) {
        let mut rng = SubstreamRng::derive(seed, 1);
        let n = 3_000;
        let total: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
        let mean = total as f64 / n as f64;
        // 5-sigma band for the sample mean of a Poisson.
        let sigma = (lambda / n as f64).sqrt();
        prop_assert!((mean - lambda).abs() < 5.0 * sigma + 0.05,
            "lambda {} mean {}", lambda, mean);
    }

    #[test]
    fn weighted_index_stays_in_bounds(
        weights in prop::collection::vec(0.0f64..10.0, 1..12),
        seed in any::<u64>()
    ) {
        let mut rng = SubstreamRng::derive(seed, 2);
        for _ in 0..100 {
            let idx = rng.weighted_index(&weights);
            prop_assert!(idx < weights.len());
        }
    }

    #[test]
    fn lognormal_positive(median in 0.1f64..1e6, sigma in 0.0f64..3.0, seed in any::<u64>()) {
        let mut rng = SubstreamRng::derive(seed, 3);
        for _ in 0..50 {
            prop_assert!(rng.lognormal(median, sigma) > 0.0);
        }
    }

    #[test]
    fn mobility_positions_always_valid(
        seed in any::<u64>(),
        t in 0u64..86_400 * 22
    ) {
        use wtr_model::country::Country;
        use wtr_radio::geo::CountryGeometry;
        use wtr_sim::mobility::MobilityModel;
        let geom = CountryGeometry::of(Country::by_iso("ES").unwrap());
        for model in [
            MobilityModel::stationary_in(&geom, seed),
            MobilityModel::local_area_in(&geom, 0.2, seed),
            MobilityModel::Waypoint { geometry: geom, leg_hours: 2, seed },
        ] {
            let p = model.position(SimTime::from_secs(t));
            prop_assert!((-90.0..=90.0).contains(&p.lat));
            prop_assert!((-180.0..=180.0).contains(&p.lon));
        }
    }
}

// ---------------------------------------------------------------------
// Calendar queue vs a `BinaryHeap` oracle.
//
// The engine's calendar queue must reproduce the dispatch sequence of a
// plain min-heap over the same `(time, agent, per-agent seq, tag)` keys
// *bit for bit* under every wake-up time distribution, including the
// ones its bucket geometry handles worst: pathological same-instant
// bursts (firmware-campaign storms per Finley & Vesselkov) and tight
// clusters that force the occupancy-feedback narrowing.
// ---------------------------------------------------------------------

/// How raw wake-up draws map onto the simulated horizon.
#[derive(Debug, Clone, Copy)]
enum TimeShape {
    /// Uniform over the whole horizon.
    Uniform,
    /// Everything inside a few narrow clusters.
    Clustered,
    /// Everything at a handful of exact instants (same-timestamp burst).
    Burst,
}

const EQ_HORIZON: u64 = 200_000;

/// Maps a raw `0..u32::MAX` draw to a wake-up time under `shape`.
fn shape_time(shape: TimeShape, raw: u32) -> u64 {
    let raw = u64::from(raw);
    match shape {
        TimeShape::Uniform => raw % EQ_HORIZON,
        TimeShape::Clustered => {
            // 4 clusters of 256 seconds spread over the horizon.
            let cluster = raw % 4;
            cluster * (EQ_HORIZON / 4) + (raw / 7) % 256
        }
        TimeShape::Burst => {
            // 3 exact instants: every draw collides with many others.
            [100u64, 50_000, 199_999][(raw % 3) as usize]
        }
    }
}

/// Agent driven by preset wake-ups that also re-schedules: every wake
/// with budget left schedules one follow-up `gap` seconds out (gap 0 =
/// a same-instant re-schedule, the calendar's in-window splice path).
struct Replayer {
    times: Vec<u64>,
    budget: u32,
    gap: u64,
}

type EqLog = Vec<(u64, u32, u32)>;

impl Agent<EqLog> for Replayer {
    fn init(&mut self, id: AgentId, _w: &mut EqLog, s: &mut Scheduler) {
        for t in &self.times {
            s.wake_at(id, WakeTag(0), SimTime::from_secs(*t));
        }
    }
    fn wake(&mut self, id: AgentId, tag: WakeTag, w: &mut EqLog, s: &mut Scheduler) {
        w.push((s.now().as_secs(), id.0, tag.0));
        if tag.0 < self.budget {
            s.wake_at(
                id,
                WakeTag(tag.0 + 1),
                s.now() + SimDuration::from_secs(self.gap),
            );
        }
    }
}

fn run_engine(
    shape: TimeShape,
    schedules: &[Vec<u32>],
    budget: u32,
    gap: u64,
) -> (EqLog, EngineStats) {
    let mut engine = Engine::new(EqLog::new(), SimTime::from_secs(EQ_HORIZON));
    for raws in schedules {
        engine.add_agent(Replayer {
            times: raws.iter().map(|&r| shape_time(shape, r)).collect(),
            budget,
            gap,
        });
    }
    engine.run_stats()
}

type OracleKey = Reverse<(u64, u32, u64, u32)>;

/// Replays [`Replayer`] without the engine: preset wakes in agent order,
/// per-agent sequence numbers, budgeted re-schedules at `now + gap`, and
/// the horizon drop, all on a `BinaryHeap` min-queue over the engine's
/// `(time, agent, per-agent seq, tag)` key. Returns the expected log and
/// scheduler counters.
fn heap_oracle(
    shape: TimeShape,
    schedules: &[Vec<u32>],
    budget: u32,
    gap: u64,
) -> (EqLog, EngineStats) {
    let mut stats = EngineStats {
        agents: schedules.len() as u64,
        ..EngineStats::default()
    };
    let mut seqs = vec![0u64; schedules.len()];
    let mut push = |heap: &mut BinaryHeap<OracleKey>,
                    stats: &mut EngineStats,
                    (at, agent, tag): (u64, u32, u32)| {
        if at < EQ_HORIZON {
            seqs[agent as usize] += 1;
            stats.scheduled += 1;
            heap.push(Reverse((at, agent, seqs[agent as usize], tag)));
            stats.peak_queue_max = stats.peak_queue_max.max(heap.len() as u64);
        }
    };
    let mut heap = BinaryHeap::new();
    for (agent, raws) in schedules.iter().enumerate() {
        for &raw in raws {
            push(
                &mut heap,
                &mut stats,
                (shape_time(shape, raw), agent as u32, 0),
            );
        }
    }
    let mut log = EqLog::new();
    while let Some(Reverse((now, agent, _, tag))) = heap.pop() {
        stats.dispatched += 1;
        log.push((now, agent, tag));
        if tag < budget {
            push(&mut heap, &mut stats, (now + gap, agent, tag + 1));
        }
    }
    (log, stats)
}

proptest! {
    /// The engine and the heap oracle produce the identical dispatch
    /// sequence (and scheduler counters) over random schedules drawn
    /// from clustered, uniform, and same-instant-burst time
    /// distributions, with re-scheduling agents exercising mid-run
    /// pushes — including same-instant ones.
    #[test]
    fn calendar_matches_heap_dispatch_order(
        shape in prop_oneof![
            Just(TimeShape::Uniform),
            Just(TimeShape::Clustered),
            Just(TimeShape::Burst),
        ],
        schedules in prop::collection::vec(
            prop::collection::vec(any::<u32>(), 0..40),
            1..16
        ),
        budget in 0u32..4,
        gap in prop_oneof![Just(0u64), Just(1), Just(977)],
    ) {
        let cal = run_engine(shape, &schedules, budget, gap);
        let heap = heap_oracle(shape, &schedules, budget, gap);
        prop_assert_eq!(&cal.0, &heap.0);
        prop_assert_eq!(cal.1, heap.1);
    }
}

#[test]
fn calendar_matches_heap_on_dense_storm() {
    // A firmware-campaign storm at scale: 3_000 agents all waking at the
    // same instants, repeatedly — the calendar's narrowest geometry
    // (width clamps at 1 s; the whole burst sorts as one chunk).
    let schedules: Vec<Vec<u32>> = (0..3_000u32).map(|i| vec![i, i + 1, i + 2]).collect();
    let cal = run_engine(TimeShape::Burst, &schedules, 2, 0);
    let heap = heap_oracle(TimeShape::Burst, &schedules, 2, 0);
    assert_eq!(cal.0.len(), heap.0.len());
    assert_eq!(cal.0, heap.0);
    assert_eq!(cal.1, heap.1);
}

#[test]
fn scheduler_drops_past_wakeups_in_release() {
    // Sanity companion to the proptests: durations/additions behave.
    let d = SimDuration::from_days(1) + SimDuration::from_hours(2);
    assert_eq!(d.as_secs(), 86_400 + 7_200);
}
