//! # wtr-sim — deterministic discrete-event cellular simulation
//!
//! The substitution engine for the paper's proprietary datasets: device
//! agents execute real signaling procedures (Attach, Authentication, Update
//! Location, Cancel Location, Detach, Routing-Area Update) against simulated
//! radio networks, move according to mobility models, and generate data and
//! voice sessions according to per-vertical traffic profiles. Probes (in
//! `wtr-probes`) tap the resulting event stream exactly where the paper's
//! monitoring infrastructure taps the real network (Fig. 4).
//!
//! ## Determinism
//!
//! Everything is reproducible from a single master seed. Each device owns
//! its own RNG substream derived via `splitmix64`, so a device's behaviour
//! is identical regardless of how many other devices run alongside it —
//! which is what makes the scale-invariance property tests meaningful.
//!
//! ## Architecture
//!
//! * [`engine`] — a minimal event-queue core: agents schedule wake-ups,
//!   the engine dispatches them in time order from a calendar queue.
//! * [`behavior`] — declarative device behavior: validated CTMC
//!   transition matrices interpreted by one homogeneous `step` function;
//!   every device steps one, compiled from its spec or loaded from a
//!   `--behavior` file.
//! * [`events`] — the simulation's observable output: signaling
//!   transactions, data sessions, voice calls.
//! * [`mobility`] — position-over-time models (stationary meter, commuter,
//!   fleet vehicle, international tourist).
//! * [`traffic`] — per-vertical traffic profiles (session rates, volume
//!   distributions, diurnal shape).
//! * [`world`] — the shared environment: radio networks per operator,
//!   roaming access policy, event sink.
//! * [`device`] — the device agent tying it all together.
//! * [`par`] — deterministic order-stable parallel maps.
//! * [`shard`] — sharded simulation: K independent per-shard event
//!   loops over an agent population dealt round-robin.
//! * [`stream`] — chunked record streams: the shape of the
//!   bounded-memory pass over a catalog file.

#![warn(missing_docs)]

pub mod behavior;
mod calendar;
pub mod device;
pub mod engine;
pub mod events;
pub mod mobility;
pub mod par;
pub mod rng;
pub mod shard;
pub mod stream;
pub mod traffic;
pub mod world;

pub use behavior::{
    profile_matrix, spec_matrix, BehaviorError, BehaviorMatrix, BehaviorOptions, BehaviorRow,
    EmissionSpec, StateId,
};
pub use device::{DeviceAgent, DeviceSpec, PresenceModel, SpecError};
pub use engine::{Agent, AgentId, Engine, EngineStats, Scheduler, WakeTag};
pub use events::{
    DataSession, ProcedureResult, ProcedureType, SignalingEvent, SimEvent, VoiceCall,
};
pub use mobility::MobilityModel;
pub use par::par_map;
pub use rng::SubstreamRng;
pub use stream::RecordStream;
pub use traffic::TrafficProfile;
pub use world::{AccessPolicy, AllowAllPolicy, NetworkDirectory, RoamingWorld};
