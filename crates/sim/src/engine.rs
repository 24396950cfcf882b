//! The discrete-event core: an event queue of agent wake-ups.
//!
//! Deliberately minimal (smoltcp's "simplicity and robustness" anti-macro
//! ethos): the engine knows nothing about devices or networks. Agents
//! schedule `(time, tag)` wake-ups for themselves; the engine dispatches
//! them in strict `(time, agent, per-agent seq)` order.
//!
//! ## Why this tie-break, and not a global insertion counter
//!
//! The dispatch total order is `(time, agent id, per-agent sequence)`. The
//! per-agent sequence counts how many wake-ups *that agent* has scheduled,
//! so the key of every wake-up is a pure function of the scheduling
//! agent's own history — never of how agents from different shards happen
//! to interleave their `wake_at` calls. Earlier revisions broke ties with
//! one global insertion counter, which encodes the *interleaving* of all
//! agents into every key: splitting the agent population across K
//! independent event loops (see [`crate::shard`]) would assign different
//! counters and therefore a different dispatch order for every K. With the
//! shard-stable order, a serial run and a sharded run dispatch each
//! agent's wake-ups in exactly the same relative order, which is what
//! makes sharded simulation output mergeable and byte-identical at any
//! shard count. Since agents can only self-schedule (no cross-agent
//! wakes), the two orders dispatch the *same multiset* of wake-ups — only
//! the interleaving between different agents changes.

use crate::calendar::{CalendarQueue, Key};
use wtr_model::time::SimTime;

/// Index of an agent within an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId(pub u32);

/// Agent-defined discriminator carried by a wake-up, so one agent can
/// distinguish e.g. "periodic report" from "departure" wake-ups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WakeTag(pub u32);

/// The scheduling interface handed to agents.
///
/// Only self-scheduling is exposed: an agent cannot wake another agent,
/// which keeps agent interactions flowing through the world state `W`,
/// the dispatch order deterministic, and — because no wake-up ever
/// crosses agents — the agent population freely partitionable across
/// independent per-shard event loops.
#[derive(Debug)]
pub struct Scheduler {
    now: SimTime,
    horizon: SimTime,
    /// Per-agent wake-up counters: `seqs[agent]` is the number of
    /// wake-ups agent `agent` has scheduled so far.
    seqs: Vec<u64>,
    /// Pending wake-ups, keyed `(time, agent, per-agent seq, tag)`.
    queue: CalendarQueue,
    /// Total wake-ups accepted (past/post-horizon ones excluded).
    scheduled: u64,
    /// High-water mark of the queue depth.
    peak_queue: usize,
}

impl Scheduler {
    /// A scheduler for `agents` agents over a run ending at `horizon`;
    /// wake-ups at or beyond the horizon are dropped. The engine builds
    /// it once the agent count is known, so the sequence table and the
    /// calendar ring are sized once for the whole run.
    fn new(agents: usize, horizon: SimTime) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            horizon,
            seqs: vec![0; agents],
            queue: CalendarQueue::with_capacity(agents, horizon),
            scheduled: 0,
            peak_queue: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules a wake-up for `agent` at `at`. Wake-ups in the past are a
    /// bug in the agent; they are debug-asserted and skipped in release.
    pub fn wake_at(&mut self, agent: AgentId, tag: WakeTag, at: SimTime) {
        debug_assert!(at >= self.now, "agent scheduled a wake-up in the past");
        if at < self.now || at >= self.horizon {
            return;
        }
        let idx = agent.0 as usize;
        self.seqs[idx] += 1;
        self.scheduled += 1;
        self.queue.push((at, agent.0, self.seqs[idx], tag.0));
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Pops the next wake-up in `(time, agent, per-agent seq, tag)`
    /// order and advances the clock to it.
    #[inline]
    fn pop(&mut self) -> Option<Key> {
        let key = self.queue.pop();
        if let Some((at, _, _, _)) = key {
            self.now = at;
        }
        key
    }
}

/// A simulation actor. `W` is the shared world (radio networks, policy,
/// event sink) every agent reads and writes during its turn.
pub trait Agent<W> {
    /// Called once before the run starts; schedule the first wake-up here.
    fn init(&mut self, id: AgentId, world: &mut W, sched: &mut Scheduler);

    /// Called at each scheduled wake-up.
    fn wake(&mut self, id: AgentId, tag: WakeTag, world: &mut W, sched: &mut Scheduler);
}

/// Per-run scheduler statistics, reported by [`Engine::run_stats`] and
/// aggregated per shard by [`crate::shard::run_sharded`] so shard
/// imbalance is visible in scenario outputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EngineStats {
    /// Number of agents the engine ran.
    pub agents: u64,
    /// Total wake-ups accepted by the scheduler.
    pub scheduled: u64,
    /// Total wake-ups dispatched (equals `scheduled` when the run
    /// drains the queue).
    pub dispatched: u64,
    /// Largest single-shard queue high-water mark — the depth some event
    /// loop actually reached, and the number the CLI summary line
    /// reports as "peak queue depth".
    pub peak_queue_max: u64,
}

impl EngineStats {
    /// Adds another engine's counters into this one (used when merging
    /// shard stats into a scenario-level total). Counters are additive;
    /// the queue high-water mark keeps the per-shard maximum, a depth
    /// some event loop actually reached (shard peaks need not coincide
    /// in time, so their sum would not be one).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.agents += other.agents;
        self.scheduled += other.scheduled;
        self.dispatched += other.dispatched;
        self.peak_queue_max = self.peak_queue_max.max(other.peak_queue_max);
    }
}

/// The event loop: owns the agents and the world, and builds the queue
/// when it runs.
pub struct Engine<W, A> {
    agents: Vec<A>,
    world: W,
    horizon: SimTime,
}

impl<W, A: Agent<W>> Engine<W, A> {
    /// Creates an engine over `world` running until `horizon`.
    pub fn new(world: W, horizon: SimTime) -> Self {
        Engine {
            agents: Vec::new(),
            world,
            horizon,
        }
    }

    /// Adds an agent (before [`Engine::run`]); returns its id.
    pub fn add_agent(&mut self, agent: A) -> AgentId {
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(agent);
        id
    }

    /// Adds all agents from an iterator (before [`Engine::run`]).
    pub fn add_agents(&mut self, agents: impl IntoIterator<Item = A>) {
        self.agents.extend(agents);
    }

    /// Runs to completion: initializes every agent, then dispatches
    /// wake-ups in `(time, agent, per-agent seq)` order until the queue
    /// drains or the horizon is reached. Returns the world (with whatever
    /// the agents produced).
    pub fn run(self) -> W {
        self.run_stats().0
    }

    /// [`Engine::run`], additionally returning the scheduler statistics.
    pub fn run_stats(mut self) -> (W, EngineStats) {
        let mut sched = Scheduler::new(self.agents.len(), self.horizon);
        for (i, agent) in self.agents.iter_mut().enumerate() {
            agent.init(AgentId(i as u32), &mut self.world, &mut sched);
        }
        let mut dispatched = 0u64;
        while let Some((_, agent, _seq, tag)) = sched.pop() {
            dispatched += 1;
            self.agents[agent as usize].wake(
                AgentId(agent),
                WakeTag(tag),
                &mut self.world,
                &mut sched,
            );
        }
        let stats = EngineStats {
            agents: self.agents.len() as u64,
            scheduled: sched.scheduled,
            dispatched,
            peak_queue_max: sched.peak_queue as u64,
        };
        (self.world, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::time::SimDuration;

    /// World for tests: a log of (time, agent, tag).
    type Log = Vec<(SimTime, u32, u32)>;

    /// Agent that wakes every `period` seconds and logs.
    struct Ticker {
        period: u64,
    }

    impl Agent<Log> for Ticker {
        fn init(&mut self, id: AgentId, _world: &mut Log, sched: &mut Scheduler) {
            sched.wake_at(id, WakeTag(0), SimTime::from_secs(self.period));
        }
        fn wake(&mut self, id: AgentId, tag: WakeTag, world: &mut Log, sched: &mut Scheduler) {
            world.push((sched.now(), id.0, tag.0));
            sched.wake_at(id, tag, sched.now() + SimDuration::from_secs(self.period));
        }
    }

    #[test]
    fn dispatch_in_time_order() {
        let mut engine = Engine::new(Log::new(), SimTime::from_secs(100));
        engine.add_agent(Ticker { period: 30 });
        engine.add_agent(Ticker { period: 20 });
        let log = engine.run();
        let times: Vec<u64> = log.iter().map(|(t, _, _)| t.as_secs()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        // Ticker 1 (20s): 20,40,60,80; Ticker 0 (30s): 30,60,90.
        assert_eq!(log.len(), 7);
    }

    #[test]
    fn horizon_is_exclusive() {
        let mut engine = Engine::new(Log::new(), SimTime::from_secs(60));
        engine.add_agent(Ticker { period: 20 });
        let log = engine.run();
        // Wake at 60 dropped: only 20 and 40 fire.
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|(t, _, _)| t.as_secs() < 60));
    }

    #[test]
    fn ties_dispatch_in_agent_order() {
        struct Once {
            at: u64,
        }
        impl Agent<Log> for Once {
            fn init(&mut self, id: AgentId, _w: &mut Log, s: &mut Scheduler) {
                s.wake_at(id, WakeTag(id.0), SimTime::from_secs(self.at));
            }
            fn wake(&mut self, id: AgentId, tag: WakeTag, w: &mut Log, s: &mut Scheduler) {
                w.push((s.now(), id.0, tag.0));
            }
        }
        let mut engine = Engine::new(Log::new(), SimTime::from_secs(100));
        for _ in 0..5 {
            engine.add_agent(Once { at: 50 });
        }
        let log = engine.run();
        let order: Vec<u32> = log.iter().map(|(_, a, _)| *a).collect();
        assert_eq!(
            order,
            vec![0, 1, 2, 3, 4],
            "tie-break must follow agent-id order"
        );
    }

    #[test]
    fn same_time_same_agent_dispatches_in_schedule_order() {
        // One agent scheduling several wake-ups for the same instant:
        // the per-agent sequence preserves its own scheduling order.
        struct Burst;
        impl Agent<Log> for Burst {
            fn init(&mut self, id: AgentId, _w: &mut Log, s: &mut Scheduler) {
                for tag in [3u32, 1, 2, 0] {
                    s.wake_at(id, WakeTag(tag), SimTime::from_secs(10));
                }
            }
            fn wake(&mut self, id: AgentId, tag: WakeTag, w: &mut Log, s: &mut Scheduler) {
                w.push((s.now(), id.0, tag.0));
            }
        }
        let mut engine = Engine::new(Log::new(), SimTime::from_secs(100));
        engine.add_agent(Burst);
        let log = engine.run();
        let tags: Vec<u32> = log.iter().map(|(_, _, t)| *t).collect();
        assert_eq!(tags, vec![3, 1, 2, 0], "per-agent FIFO within one instant");
    }

    #[test]
    fn runs_are_reproducible() {
        let run = || {
            let mut engine = Engine::new(Log::new(), SimTime::from_secs(500));
            engine.add_agent(Ticker { period: 7 });
            engine.add_agent(Ticker { period: 13 });
            engine.add_agent(Ticker { period: 29 });
            engine.run()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_engine_terminates() {
        let engine: Engine<Log, Ticker> = Engine::new(Log::new(), SimTime::from_secs(10));
        let log = engine.run();
        assert!(log.is_empty());
    }

    #[test]
    fn dispatched_counter() {
        let mut engine = Engine::new(Log::new(), SimTime::from_secs(100));
        engine.add_agent(Ticker { period: 25 });
        let expected = 3; // 25, 50, 75 (100 dropped)
        let mut count = 0u64;
        let log = engine.run();
        count += log.len() as u64;
        assert_eq!(count, expected);
    }

    #[test]
    fn run_stats_reports_scheduler_counters() {
        let mut engine = Engine::new(Log::new(), SimTime::from_secs(100));
        engine.add_agent(Ticker { period: 25 });
        engine.add_agent(Ticker { period: 40 });
        let (log, stats) = engine.run_stats();
        assert_eq!(stats.agents, 2);
        assert_eq!(stats.dispatched, log.len() as u64);
        // The queue drained, so everything accepted was dispatched.
        assert_eq!(stats.scheduled, stats.dispatched);
        assert!(stats.peak_queue_max >= 2, "both init wake-ups coexist");
    }

    #[test]
    fn stats_absorb_sums_counters_and_maxes_peak() {
        let a = EngineStats {
            agents: 2,
            scheduled: 10,
            dispatched: 10,
            peak_queue_max: 3,
        };
        let b = EngineStats {
            agents: 1,
            scheduled: 4,
            dispatched: 4,
            peak_queue_max: 7,
        };
        let mut total = EngineStats::default();
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.agents, 3);
        assert_eq!(total.scheduled, 14);
        // The max is the depth a single loop actually reached.
        assert_eq!(total.peak_queue_max, 7);
    }
}
