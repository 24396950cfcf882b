//! Sharded simulation: K independent per-shard event loops over a
//! partitioned agent population.
//!
//! Devices are embarrassingly parallel by construction — agents can only
//! self-schedule (the [`Scheduler`](crate::engine::Scheduler) exposes no
//! cross-agent wake) and every device draws from its own RNG substream —
//! so an agent population can be split into contiguous shards, each run
//! to completion on its own [`Engine`], and the per-shard results merged
//! afterwards. The engine's shard-stable dispatch order
//! `(time, agent, per-agent seq)` guarantees each agent's wake-ups are
//! dispatched in the same relative order whether it runs in a shard of 1
//! or a shard of N, so a probe that merges per-shard partials with
//! order-insensitive (or first-shard-wins keyed) semantics reproduces the
//! serial run exactly — the simulation-side twin of [`crate::par`]'s
//! map-reduce determinism contract.
//!
//! Partitioning uses [`par::split_ranges`]: contiguous index ranges that
//! are a pure function of `(agents, shards)`, so the shard an agent lands
//! in never depends on thread scheduling.

use crate::engine::{Agent, Engine, EngineStats};
use crate::par;
use wtr_model::time::SimTime;

/// Resolves the effective shard count: an explicit request (clamped to
/// at least 1) or, when `None`, the [`par::threads`] worker count.
pub fn shard_count(requested: Option<usize>) -> usize {
    requested.map_or_else(par::threads, |k| k.max(1))
}

/// Runs `agents` partitioned into (at most) `shards` contiguous shards,
/// each on its own scoped-thread event loop with a world built by
/// `make_world(shard_index)`, and returns the per-shard
/// `(world, stats)` results **in shard order**.
///
/// The partition boundaries come from [`par::split_ranges`], so they are
/// a pure function of `(agents.len(), shards)`. With `shards <= 1` (or a
/// single-shard partition) the engine runs inline on the calling thread —
/// the sharded path with K=1 is the serial path plus one closure call.
///
/// Determinism contract: each agent behaves identically regardless of
/// which shard it lands in (self-scheduling only + per-agent RNG
/// substreams + the `(time, agent, seq)` dispatch order). Callers are
/// responsible for merging the per-shard worlds with order-insensitive
/// (additive / keyed) semantics; see `MnoProbe::absorb` in `wtr-probes`.
pub fn run_sharded<W, A, F>(
    horizon: SimTime,
    shards: usize,
    agents: Vec<A>,
    make_world: F,
) -> Vec<(W, EngineStats)>
where
    W: Send,
    A: Agent<W> + Send,
    F: Fn(usize) -> W + Sync,
{
    let ranges = par::split_ranges(agents.len(), shards.max(1));
    if ranges.len() <= 1 {
        let mut engine = Engine::new(make_world(0), horizon);
        engine.add_agents(agents);
        return vec![engine.run_stats()];
    }

    // Move each contiguous agent range into its own group, preserving
    // global order (range i holds agents [ranges[i].start, ranges[i].end)).
    let mut iter = agents.into_iter();
    let groups: Vec<Vec<A>> = ranges
        .iter()
        .map(|r| iter.by_ref().take(r.len()).collect())
        .collect();
    debug_assert!(iter.next().is_none());

    let make_world = &make_world;
    let mut results: Vec<(W, EngineStats)> = Vec::with_capacity(groups.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(groups.len());
        for (shard, group) in groups.into_iter().enumerate() {
            handles.push(scope.spawn(move || {
                let mut engine = Engine::new(make_world(shard), horizon);
                engine.add_agents(group);
                engine.run_stats()
            }));
        }
        // Join in spawn order: results land in shard order.
        for h in handles {
            results.push(h.join().expect("wtr-sim::shard worker panicked"));
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AgentId, Scheduler, WakeTag};
    use wtr_model::time::SimDuration;

    /// Shard-local world: a log of (time, tag) per dispatch.
    type Log = Vec<(SimTime, u32)>;

    /// Agent that wakes every `period` seconds and logs its tag.
    struct Ticker {
        period: u64,
        tag: u32,
    }

    impl Agent<Log> for Ticker {
        fn init(&mut self, id: AgentId, _world: &mut Log, sched: &mut Scheduler) {
            sched.wake_at(id, WakeTag(self.tag), SimTime::from_secs(self.period));
        }
        fn wake(&mut self, id: AgentId, _tag: WakeTag, world: &mut Log, sched: &mut Scheduler) {
            world.push((sched.now(), self.tag));
            sched.wake_at(
                id,
                WakeTag(self.tag),
                sched.now() + SimDuration::from_secs(self.period),
            );
        }
    }

    fn population(n: u32) -> Vec<Ticker> {
        (0..n)
            .map(|i| Ticker {
                period: 5 + (i as u64 % 7),
                tag: i,
            })
            .collect()
    }

    /// The merged multiset of (time, tag) pairs must not depend on the
    /// shard count, and per-tag subsequences must stay in time order.
    #[test]
    fn merged_multiset_is_shard_count_invariant() {
        let horizon = SimTime::from_secs(200);
        let run = |k: usize| {
            let results = run_sharded(horizon, k, population(23), |_| Log::new());
            let mut all: Vec<(SimTime, u32)> = results.into_iter().flat_map(|(w, _)| w).collect();
            all.sort_unstable();
            all
        };
        let serial = run(1);
        assert!(!serial.is_empty());
        for k in [2usize, 4, 8, 64] {
            assert_eq!(run(k), serial, "shards={k}");
        }
    }

    #[test]
    fn stats_cover_all_agents_and_dispatches() {
        let horizon = SimTime::from_secs(100);
        let serial: u64 = run_sharded(horizon, 1, population(17), |_| Log::new())
            .iter()
            .map(|(_, s)| s.dispatched)
            .sum();
        let results = run_sharded(horizon, 4, population(17), |_| Log::new());
        assert_eq!(results.len(), 4);
        let mut total = EngineStats::default();
        for (_, s) in &results {
            total.absorb(s);
        }
        assert_eq!(total.agents, 17);
        assert_eq!(total.dispatched, serial);
        assert_eq!(total.scheduled, total.dispatched);
    }

    #[test]
    fn make_world_sees_shard_indices_in_order() {
        let results = run_sharded(SimTime::from_secs(10), 3, population(9), |shard| {
            vec![(SimTime::ZERO, shard as u32)]
        });
        let seeds: Vec<u32> = results
            .iter()
            .map(|(w, _)| w.first().expect("seed entry").1)
            .collect();
        assert_eq!(seeds, vec![0, 1, 2]);
    }

    #[test]
    fn empty_population_runs_one_engine() {
        let results = run_sharded(SimTime::from_secs(10), 8, Vec::<Ticker>::new(), |_| {
            Log::new()
        });
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].1.agents, 0);
    }

    #[test]
    fn shard_count_resolution() {
        assert_eq!(shard_count(Some(4)), 4);
        assert_eq!(shard_count(Some(0)), 1, "explicit zero clamps to one");
        // `None` delegates to the worker-thread resolution (>= 1). The
        // exact value depends on the global override / environment, which
        // other tests in this binary own behind their own lock.
        assert!(shard_count(None) >= 1);
    }
}
