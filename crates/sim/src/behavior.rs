//! Declarative device behavior: continuous-time-Markov-chain matrices.
//!
//! A [`BehaviorMatrix`] is a dense table of per-state rows — `(transitions,
//! event_rate, emission)` — interpreted by one homogeneous [`step`]
//! function. Every device steps a matrix: [`spec_matrix`] compiles a
//! device spec into the canonical four-row layout ([`states`]), and a new
//! device class is *config* (a JSON file loaded with
//! `wtr simulate-mno --behavior classes.json`), not code.
//!
//! ## Draw order
//!
//! The golden digests pin the exact byte output of the simulation, which in
//! turn pins the exact per-device [`SubstreamRng`] draw sequence. The
//! interpreter therefore draws in a fixed order:
//!
//! * a plan row draws the per-target Poisson counts **first** (one per
//!   target, in target order), then the event seconds per *scheduled*
//!   target, then the daily switch coin; targets of disabled planes still
//!   draw their count but skip the seconds;
//! * a signaling row draws switch coin → attach walk → failure coin →
//!   re-auth coin;
//! * data/voice rows draw nothing at all when the plane is disabled or the
//!   attach walk fails;
//! * successor selection consumes **zero** draws for single-transition
//!   rows (`chance` semantics for two-way rows, `weighted_index` semantics
//!   beyond), so the self-loop rows produced by [`spec_matrix`] are
//!   draw-free.
//!
//! [`step`]: BehaviorMatrix::step

use crate::events::ProcedureResult;
use crate::rng::SubstreamRng;
use crate::traffic::{DiurnalShape, TrafficProfile, VolumeDist};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Probability split of how many candidate networks a sticky-failing
/// device attempts per wake: most retry one network forever, a minority
/// hunt the candidate list (the paper's 19-VMNO tail). Indices map to
/// breadth 1 / 2 / unbounded.
pub const STICKY_BREADTH_WEIGHTS: [f64; 3] = [0.95, 0.03, 0.02];

/// Probability that a forced reselection lands further down the candidate
/// list instead of ping-ponging between the two preferred networks
/// (Fig. 3: switch counts far exceed VMNO counts).
pub const RESELECT_ROTATE_PROB: f64 = 0.1;

/// Mean data-session duration in seconds (exponential).
pub const DATA_SESSION_MEAN_SECS: f64 = 300.0;

/// Session/call durations are clamped into this range (seconds).
pub const DURATION_CLAMP_SECS: (f64, f64) = (1.0, 7_200.0);

/// Upper bound on plan-row targets (counts live in a stack array so plan
/// interpretation never allocates).
pub const MAX_PLAN_TARGETS: usize = 8;

/// Upper bound on silent-row hops per step (cycle guard).
pub const MAX_SILENT_HOPS: u32 = 8;

/// Index of a row in a [`BehaviorMatrix`]. Event wake tags carry the
/// `StateId` of the row to interpret, so the scheduler needs no knowledge
/// of the matrix shape.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct StateId(pub u32);

impl StateId {
    /// Row index as usize.
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One event target of a plan row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanTarget {
    /// Row whose `event_rate` drives the Poisson count and which is woken
    /// for each scheduled event.
    pub state: StateId,
    /// When false the count is still drawn (draw-order compatibility with
    /// plans whose plane is disabled) but no events are scheduled.
    pub scheduled: bool,
}

/// Day-planning emission: drawn once per present day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSpec {
    /// Probability the device is active on a present day.
    pub daily_active_prob: f64,
    /// Daily probability of forcing a network reselection.
    pub switch_propensity: f64,
    /// Distribution of event seconds within the day.
    pub diurnal: DiurnalShape,
    /// Event rows to schedule, in draw order.
    pub targets: Vec<PlanTarget>,
}

/// Mobility-management emission: one signaling procedure per wake.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignalingSpec {
    /// Per-event probability of forcing a network reselection.
    pub switch_propensity: f64,
    /// Per-procedure probability of a transient failure.
    pub event_failure_prob: f64,
    /// Fraction of wakes that run a full re-registration (Auth + Update
    /// Location) instead of a local Routing-Area Update.
    pub reauth_fraction: f64,
}

/// Data-session emission.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataSpec {
    /// Disabled planes wake but emit nothing (and draw nothing).
    pub enabled: bool,
    /// Number of APNs the device chooses between.
    pub apn_count: u32,
    /// Session volume distribution.
    pub volume: VolumeDist,
    /// Mean session duration (seconds, exponential, clamped to
    /// [`DURATION_CLAMP_SECS`]).
    pub session_mean_secs: f64,
}

/// Voice/SMS emission.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoiceSpec {
    /// Disabled planes wake but emit nothing.
    pub enabled: bool,
    /// Real call (with duration) vs SMS-like (duration 0).
    pub is_call: bool,
    /// Mean call duration in seconds when `is_call`.
    pub duration_mean_secs: f64,
}

/// What a row does when stepped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EmissionSpec {
    /// No emission: immediately select a successor and interpret it. Lets
    /// config matrices branch probabilistically between alternative
    /// emission rows within one wake.
    Silent,
    /// Plan a day's events.
    Plan(PlanSpec),
    /// One signaling procedure.
    Signaling(SignalingSpec),
    /// One data session.
    Data(DataSpec),
    /// One voice/SMS event.
    Voice(VoiceSpec),
}

/// One matrix row: where the chain goes next, how often this row's events
/// fire per active day, and what a wake in this state emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BehaviorRow {
    /// Successor candidates with relative weights (need not normalize; a
    /// single self-loop entry consumes no draws).
    pub transitions: Vec<(StateId, f64)>,
    /// Mean events per active day (Poisson), scaled by the per-device
    /// multiplier. Consulted by plan rows targeting this row.
    pub event_rate: f64,
    /// Row emission.
    pub emission: EmissionSpec,
}

/// Device-level compiled parameters: construction-time draws and the
/// attach-walk knobs shared by every row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceParams {
    /// LogNormal sigma of the per-device rate multiplier (0 disables the
    /// draw entirely).
    pub per_device_sigma: f64,
    /// Weighted split over sticky-attempt breadths 1 / 2 / unbounded.
    pub sticky_breadth_weights: Vec<f64>,
    /// See [`RESELECT_ROTATE_PROB`].
    pub reselect_rotate_prob: f64,
    /// Transient per-attempt failure probability inside the attach walk.
    pub event_failure_prob: f64,
    /// When set, every attach attempt fails with this result.
    pub sticky_failure: Option<ProcedureResult>,
}

/// Attach-walk knobs extracted for one wake, sourced from the matrix's
/// [`DeviceParams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttachParams {
    /// Per-attempt transient-failure probability.
    pub event_failure_prob: f64,
    /// Sticky failure result, if misprovisioned.
    pub sticky_failure: Option<ProcedureResult>,
    /// Probability a forced switch rotates down the candidate list.
    pub rotate_prob: f64,
}

/// A validated behavior matrix.
///
/// Construct with [`BehaviorMatrix::new`] (validating) or deserialize and
/// then call [`validate`](BehaviorMatrix::validate) — the serde
/// representation is canonical (struct-field order, `Vec` rows indexed by
/// `StateId`) and roundtrip-stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BehaviorMatrix {
    /// Device-level parameters.
    pub params: DeviceParams,
    /// Dense rows, indexed by [`StateId`].
    pub rows: Vec<BehaviorRow>,
    /// Entry state: the row woken on each new present day.
    pub entry: StateId,
}

/// Why a matrix failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum BehaviorError {
    /// The matrix has no rows.
    Empty,
    /// The entry state is out of range.
    EntryOutOfRange,
    /// A row's `event_rate` is non-finite or negative.
    BadEventRate(usize),
    /// A row has no transitions.
    EmptyTransitions(usize),
    /// A transition weight is non-finite or negative, or the row's total
    /// transition mass is not positive.
    BadTransitionWeights(usize),
    /// A transition or plan target names a state outside the matrix.
    StateOutOfRange {
        /// Row holding the reference.
        row: usize,
        /// The out-of-range target.
        target: u32,
    },
    /// A probability field is non-finite or outside `[0, 1]`.
    BadProbability(usize),
    /// A plan row has more than [`MAX_PLAN_TARGETS`] targets.
    TooManyPlanTargets(usize),
    /// A duration/volume parameter is non-finite or negative.
    BadEmissionParam(usize),
    /// `DeviceParams` is malformed (sigma/weights/probabilities).
    BadDeviceParams,
}

impl fmt::Display for BehaviorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BehaviorError::Empty => write!(f, "behavior matrix has no rows"),
            BehaviorError::EntryOutOfRange => write!(f, "entry state out of range"),
            BehaviorError::BadEventRate(r) => {
                write!(f, "row {r}: event_rate must be finite and >= 0")
            }
            BehaviorError::EmptyTransitions(r) => write!(f, "row {r}: empty transition list"),
            BehaviorError::BadTransitionWeights(r) => {
                write!(
                    f,
                    "row {r}: transition weights must be finite, >= 0, sum > 0"
                )
            }
            BehaviorError::StateOutOfRange { row, target } => {
                write!(f, "row {row}: state {target} out of range")
            }
            BehaviorError::BadProbability(r) => {
                write!(f, "row {r}: probabilities must be finite and within [0, 1]")
            }
            BehaviorError::TooManyPlanTargets(r) => {
                write!(f, "row {r}: more than {MAX_PLAN_TARGETS} plan targets")
            }
            BehaviorError::BadEmissionParam(r) => {
                write!(f, "row {r}: emission parameters must be finite and >= 0")
            }
            BehaviorError::BadDeviceParams => write!(f, "malformed device params"),
        }
    }
}

impl std::error::Error for BehaviorError {}

fn prob_ok(p: f64) -> bool {
    p.is_finite() && (0.0..=1.0).contains(&p)
}

fn nonneg(x: f64) -> bool {
    x.is_finite() && x >= 0.0
}

/// Per-wake context the agent computes before stepping.
#[derive(Debug, Clone, Copy)]
pub struct StepCtx {
    /// Device present on this day (presence window).
    pub present: bool,
    /// Per-device rate multiplier drawn at construction.
    pub multiplier: f64,
}

/// What a step emitted — the agent turns this into `SimEvent`s using the
/// serving network its [`StepHost::attach`] recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Emission {
    /// Nothing happened (absent/inactive day, disabled plane, failed
    /// attach).
    Idle,
    /// A day was planned.
    Planned {
        /// Events scheduled across all targets.
        events: u64,
        /// Whether the daily switch coin forced a reselection.
        reselect: bool,
    },
    /// Full re-registration (`reauth`) or local routing-area update.
    Signaling {
        /// Auth + UpdateLocation pair vs a lone RAU.
        reauth: bool,
        /// Procedure result is Ok vs NetworkFailure.
        ok: bool,
    },
    /// One data session.
    Data {
        /// Index into the device's APN list.
        apn_index: u32,
        /// Uplink bytes.
        bytes_up: u64,
        /// Downlink bytes.
        bytes_down: u64,
        /// Clamped session duration.
        duration_secs: u32,
    },
    /// One voice/SMS event.
    Voice {
        /// Real call vs SMS-like.
        call: bool,
        /// Call duration (0 for SMS-like).
        duration_secs: u32,
    },
}

/// World access the interpreter needs mid-step: the RNG substream, the
/// attach walk (whose draws interleave with emission draws), scheduling,
/// and the reselect flag. Implemented by `DeviceAgent`'s wake context.
pub trait StepHost {
    /// The device's RNG substream.
    fn rng(&mut self) -> &mut SubstreamRng;
    /// Force a network reselection on the next attach.
    fn request_reselect(&mut self);
    /// Run the attach walk (emitting its signaling); true when the device
    /// ends up attached. The host records the serving network for the
    /// emission that follows.
    fn attach(&mut self) -> bool;
    /// Schedule a wake of `state` at `second_of_day` within the current
    /// day.
    fn schedule(&mut self, state: StateId, second_of_day: u64);
}

impl BehaviorMatrix {
    /// Validating constructor.
    pub fn new(
        params: DeviceParams,
        rows: Vec<BehaviorRow>,
        entry: StateId,
    ) -> Result<BehaviorMatrix, BehaviorError> {
        let m = BehaviorMatrix {
            params,
            rows,
            entry,
        };
        m.validate()?;
        Ok(m)
    }

    /// Validates an already-built (e.g. deserialized) matrix.
    pub fn validate(&self) -> Result<(), BehaviorError> {
        if self.rows.is_empty() {
            return Err(BehaviorError::Empty);
        }
        if self.entry.idx() >= self.rows.len() {
            return Err(BehaviorError::EntryOutOfRange);
        }
        let p = &self.params;
        if !nonneg(p.per_device_sigma)
            || !prob_ok(p.reselect_rotate_prob)
            || !prob_ok(p.event_failure_prob)
            || p.sticky_breadth_weights.is_empty()
            || p.sticky_breadth_weights.iter().any(|w| !nonneg(*w))
            || p.sticky_breadth_weights.iter().sum::<f64>() <= 0.0
        {
            return Err(BehaviorError::BadDeviceParams);
        }
        for (r, row) in self.rows.iter().enumerate() {
            if !nonneg(row.event_rate) {
                return Err(BehaviorError::BadEventRate(r));
            }
            if row.transitions.is_empty() {
                return Err(BehaviorError::EmptyTransitions(r));
            }
            let mut total = 0.0;
            for (target, w) in &row.transitions {
                if target.idx() >= self.rows.len() {
                    return Err(BehaviorError::StateOutOfRange {
                        row: r,
                        target: target.0,
                    });
                }
                if !nonneg(*w) {
                    return Err(BehaviorError::BadTransitionWeights(r));
                }
                total += w;
            }
            if !(total.is_finite() && total > 0.0) {
                return Err(BehaviorError::BadTransitionWeights(r));
            }
            match &row.emission {
                EmissionSpec::Silent => {}
                EmissionSpec::Plan(plan) => {
                    if !prob_ok(plan.daily_active_prob) || !prob_ok(plan.switch_propensity) {
                        return Err(BehaviorError::BadProbability(r));
                    }
                    if plan.targets.len() > MAX_PLAN_TARGETS {
                        return Err(BehaviorError::TooManyPlanTargets(r));
                    }
                    for t in &plan.targets {
                        if t.state.idx() >= self.rows.len() {
                            return Err(BehaviorError::StateOutOfRange {
                                row: r,
                                target: t.state.0,
                            });
                        }
                    }
                }
                EmissionSpec::Signaling(sig) => {
                    if !prob_ok(sig.switch_propensity)
                        || !prob_ok(sig.event_failure_prob)
                        || !prob_ok(sig.reauth_fraction)
                    {
                        return Err(BehaviorError::BadProbability(r));
                    }
                }
                EmissionSpec::Data(data) => {
                    if !prob_ok(data.volume.uplink_ratio) {
                        return Err(BehaviorError::BadProbability(r));
                    }
                    if !nonneg(data.volume.median_bytes)
                        || !nonneg(data.volume.sigma)
                        || !data.session_mean_secs.is_finite()
                        || data.session_mean_secs <= 0.0
                    {
                        return Err(BehaviorError::BadEmissionParam(r));
                    }
                }
                EmissionSpec::Voice(voice) => {
                    if !nonneg(voice.duration_mean_secs) {
                        return Err(BehaviorError::BadEmissionParam(r));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the matrix has no rows (never true once validated).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether `state` addresses a plan row (the agent re-schedules the
    /// next day's wake after stepping a plan row, present or not).
    pub fn is_plan(&self, state: StateId) -> bool {
        matches!(
            self.rows.get(state.idx()).map(|r| &r.emission),
            Some(EmissionSpec::Plan(_))
        )
    }

    /// The attach-walk knobs compiled into this matrix.
    pub fn attach_params(&self) -> AttachParams {
        AttachParams {
            event_failure_prob: self.params.event_failure_prob,
            sticky_failure: self.params.sticky_failure,
            rotate_prob: self.params.reselect_rotate_prob,
        }
    }

    /// Construction-time draw 1: the per-device rate multiplier,
    /// LogNormal(1, `per_device_sigma`). Zero sigma consumes no draw.
    pub fn draw_multiplier(&self, rng: &mut SubstreamRng) -> f64 {
        if self.params.per_device_sigma <= 0.0 {
            1.0
        } else {
            rng.lognormal(1.0, self.params.per_device_sigma)
        }
    }

    /// Construction-time draw 2: sticky-attempt breadth (1 / 2 /
    /// unbounded).
    pub fn draw_sticky_breadth(&self, rng: &mut SubstreamRng) -> usize {
        match rng.weighted_index(&self.params.sticky_breadth_weights) {
            0 => 1,
            1 => 2,
            _ => usize::MAX,
        }
    }

    /// Selects a row's successor. Single-transition rows are draw-free;
    /// two-way rows use `chance` semantics (inheriting its no-draw
    /// short-circuit at p ∈ {0, 1}); wider rows mirror `weighted_index`
    /// without allocating.
    fn successor(&self, row: &BehaviorRow, rng: &mut SubstreamRng) -> StateId {
        let t = &row.transitions;
        match t.len() {
            1 => t[0].0,
            2 => {
                let total = t[0].1 + t[1].1;
                if rng.chance(t[0].1 / total) {
                    t[0].0
                } else {
                    t[1].0
                }
            }
            _ => {
                let total: f64 = t.iter().map(|(_, w)| *w).sum();
                let mut x = rng.unit() * total;
                for (state, w) in t {
                    x -= w;
                    if x <= 0.0 {
                        return *state;
                    }
                }
                t[t.len() - 1].0
            }
        }
    }

    /// The homogeneous interpreter: one wake of the chain at `state`.
    ///
    /// Returns the successor state and what was emitted. The successor is
    /// only *drawn* (for multi-transition rows) after a row actually
    /// emits; early exits (absent day, disabled plane, failed attach)
    /// return `state` unchanged without consuming draws. Silent rows hop
    /// to a successor and interpret it, bounded by [`MAX_SILENT_HOPS`].
    pub fn step<H: StepHost>(
        &self,
        state: StateId,
        ctx: StepCtx,
        host: &mut H,
    ) -> (StateId, Emission) {
        let mut at = state;
        let mut hops = 0u32;
        loop {
            let row = &self.rows[at.idx()];
            match &row.emission {
                EmissionSpec::Silent => {
                    at = self.successor(row, host.rng());
                    hops += 1;
                    if hops > MAX_SILENT_HOPS {
                        return (at, Emission::Idle);
                    }
                }
                EmissionSpec::Plan(plan) => return self.step_plan(at, row, plan, ctx, host),
                EmissionSpec::Signaling(sig) => return self.step_signaling(at, row, sig, host),
                EmissionSpec::Data(data) => return self.step_data(at, row, data, host),
                EmissionSpec::Voice(voice) => return self.step_voice(at, row, voice, host),
            }
        }
    }

    fn step_plan<H: StepHost>(
        &self,
        at: StateId,
        row: &BehaviorRow,
        plan: &PlanSpec,
        ctx: StepCtx,
        host: &mut H,
    ) -> (StateId, Emission) {
        // `present &&` short-circuits before the activity coin: an absent
        // day draws nothing.
        if !(ctx.present && host.rng().chance(plan.daily_active_prob)) {
            return (at, Emission::Idle);
        }
        // All per-target counts first, then seconds per scheduled
        // target, then the switch coin.
        let mut counts = [0u64; MAX_PLAN_TARGETS];
        for (i, target) in plan.targets.iter().enumerate() {
            let rate = self.rows[target.state.idx()].event_rate;
            counts[i] = host.rng().poisson(rate * ctx.multiplier);
        }
        let mut events = 0u64;
        for (i, target) in plan.targets.iter().enumerate() {
            if !target.scheduled {
                continue;
            }
            for _ in 0..counts[i] {
                let second = plan.diurnal.sample_second(host.rng());
                host.schedule(target.state, second);
            }
            events += counts[i];
        }
        let reselect = host.rng().chance(plan.switch_propensity);
        if reselect {
            host.request_reselect();
        }
        (
            self.successor(row, host.rng()),
            Emission::Planned { events, reselect },
        )
    }

    fn step_signaling<H: StepHost>(
        &self,
        at: StateId,
        row: &BehaviorRow,
        sig: &SignalingSpec,
        host: &mut H,
    ) -> (StateId, Emission) {
        if host.rng().chance(sig.switch_propensity) {
            host.request_reselect();
        }
        if !host.attach() {
            return (at, Emission::Idle);
        }
        let ok = !host.rng().chance(sig.event_failure_prob);
        let reauth = host.rng().chance(sig.reauth_fraction);
        (
            self.successor(row, host.rng()),
            Emission::Signaling { reauth, ok },
        )
    }

    fn step_data<H: StepHost>(
        &self,
        at: StateId,
        row: &BehaviorRow,
        data: &DataSpec,
        host: &mut H,
    ) -> (StateId, Emission) {
        if !data.enabled || data.apn_count == 0 {
            return (at, Emission::Idle);
        }
        if !host.attach() {
            return (at, Emission::Idle);
        }
        let (bytes_up, bytes_down) = data.volume.sample(host.rng());
        let apn_index = host.rng().index(data.apn_count as usize) as u32;
        let (lo, hi) = DURATION_CLAMP_SECS;
        let duration_secs = host.rng().exponential(data.session_mean_secs).clamp(lo, hi) as u32;
        (
            self.successor(row, host.rng()),
            Emission::Data {
                apn_index,
                bytes_up,
                bytes_down,
                duration_secs,
            },
        )
    }

    fn step_voice<H: StepHost>(
        &self,
        at: StateId,
        row: &BehaviorRow,
        voice: &VoiceSpec,
        host: &mut H,
    ) -> (StateId, Emission) {
        if !voice.enabled {
            return (at, Emission::Idle);
        }
        if !host.attach() {
            return (at, Emission::Idle);
        }
        let duration_secs = if voice.is_call {
            let (lo, hi) = DURATION_CLAMP_SECS;
            host.rng()
                .exponential(voice.duration_mean_secs.max(1.0))
                .clamp(lo, hi) as u32
        } else {
            0
        };
        (
            self.successor(row, host.rng()),
            Emission::Voice {
                call: voice.is_call,
                duration_secs,
            },
        )
    }
}

/// The canonical four-row layout [`profile_matrix`] compiles to: a plan
/// row scheduling self-looping signaling, data and voice rows.
pub mod states {
    use super::StateId;

    /// Day-planning row.
    pub const PLAN: StateId = StateId(0);
    /// Signaling row.
    pub const SIGNALING: StateId = StateId(1);
    /// Data row.
    pub const DATA: StateId = StateId(2);
    /// Voice row.
    pub const VOICE: StateId = StateId(3);
}

/// Per-class knobs that, together with a [`TrafficProfile`], fully
/// determine a compiled matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BehaviorOptions {
    /// Probability the device is active on a present day.
    pub daily_active_prob: f64,
    /// Per-event/daily probability of forcing a reselection.
    pub switch_propensity: f64,
    /// Per-procedure transient-failure probability.
    pub event_failure_prob: f64,
    /// When set, every attach attempt fails with this result.
    pub sticky_failure: Option<ProcedureResult>,
    /// Whether the subscription uses data at all.
    pub data_enabled: bool,
    /// Whether the subscription uses voice/SMS.
    pub voice_enabled: bool,
    /// APNs the device chooses between.
    pub apn_count: u32,
}

impl Default for BehaviorOptions {
    fn default() -> Self {
        BehaviorOptions {
            daily_active_prob: 1.0,
            switch_propensity: 0.0,
            event_failure_prob: 0.0,
            sticky_failure: None,
            data_enabled: true,
            voice_enabled: true,
            apn_count: 1,
        }
    }
}

/// Compiles a [`TrafficProfile`] + per-class options into the canonical
/// four-row matrix (plan → {signaling, data, voice} self-loops).
pub fn profile_matrix(profile: &TrafficProfile, opts: &BehaviorOptions) -> BehaviorMatrix {
    let self_loop = |s: StateId| vec![(s, 1.0)];
    let rows = vec![
        BehaviorRow {
            transitions: self_loop(states::PLAN),
            event_rate: 0.0,
            emission: EmissionSpec::Plan(PlanSpec {
                daily_active_prob: opts.daily_active_prob,
                switch_propensity: opts.switch_propensity,
                diurnal: profile.diurnal,
                targets: vec![
                    PlanTarget {
                        state: states::SIGNALING,
                        scheduled: true,
                    },
                    PlanTarget {
                        state: states::DATA,
                        scheduled: opts.data_enabled,
                    },
                    PlanTarget {
                        state: states::VOICE,
                        scheduled: opts.voice_enabled,
                    },
                ],
            }),
        },
        BehaviorRow {
            transitions: self_loop(states::SIGNALING),
            event_rate: profile.signaling_per_day,
            emission: EmissionSpec::Signaling(SignalingSpec {
                switch_propensity: opts.switch_propensity,
                event_failure_prob: opts.event_failure_prob,
                reauth_fraction: profile.reauth_fraction,
            }),
        },
        BehaviorRow {
            transitions: self_loop(states::DATA),
            event_rate: profile.data_sessions_per_day,
            emission: EmissionSpec::Data(DataSpec {
                enabled: opts.data_enabled,
                apn_count: opts.apn_count,
                volume: profile.volume,
                session_mean_secs: DATA_SESSION_MEAN_SECS,
            }),
        },
        BehaviorRow {
            transitions: self_loop(states::VOICE),
            event_rate: profile.voice_per_day,
            emission: EmissionSpec::Voice(VoiceSpec {
                enabled: opts.voice_enabled,
                is_call: profile.voice_is_call,
                duration_mean_secs: profile.call_duration_mean_secs,
            }),
        },
    ];
    let params = DeviceParams {
        per_device_sigma: profile.per_device_sigma,
        sticky_breadth_weights: STICKY_BREADTH_WEIGHTS.to_vec(),
        reselect_rotate_prob: RESELECT_ROTATE_PROB,
        event_failure_prob: opts.event_failure_prob,
        sticky_failure: opts.sticky_failure,
    };
    BehaviorMatrix::new(params, rows, states::PLAN).expect("profile compilation is always valid")
}

/// Compiles a [`DeviceSpec`](crate::device::DeviceSpec) into matrix form:
/// its traffic profile plus its presence, switching, failure, plane and
/// APN settings. This is the behavior of every device built without an
/// explicit matrix (`DeviceAgent::new`).
pub fn spec_matrix(spec: &crate::device::DeviceSpec) -> BehaviorMatrix {
    profile_matrix(
        &spec.traffic,
        &BehaviorOptions {
            daily_active_prob: spec.presence.daily_active_prob,
            switch_propensity: spec.switch_propensity,
            event_failure_prob: spec.event_failure_prob,
            sticky_failure: spec.sticky_failure,
            data_enabled: spec.data_enabled,
            voice_enabled: spec.voice_enabled,
            apn_count: spec.apns.len() as u32,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::vertical::Vertical;

    fn meter_matrix() -> BehaviorMatrix {
        profile_matrix(
            &TrafficProfile::for_vertical(Vertical::SmartMeter),
            &BehaviorOptions::default(),
        )
    }

    /// Host that records interpreter calls against a scripted attach
    /// outcome.
    struct ProbeHost {
        rng: SubstreamRng,
        attach_ok: bool,
        attaches: u32,
        reselects: u32,
        scheduled: Vec<(StateId, u64)>,
    }

    impl ProbeHost {
        fn new(attach_ok: bool) -> Self {
            ProbeHost {
                rng: SubstreamRng::derive(5, 5),
                attach_ok,
                attaches: 0,
                reselects: 0,
                scheduled: Vec::new(),
            }
        }
    }

    impl StepHost for ProbeHost {
        fn rng(&mut self) -> &mut SubstreamRng {
            &mut self.rng
        }
        fn request_reselect(&mut self) {
            self.reselects += 1;
        }
        fn attach(&mut self) -> bool {
            self.attaches += 1;
            self.attach_ok
        }
        fn schedule(&mut self, state: StateId, second: u64) {
            self.scheduled.push((state, second));
        }
    }

    #[test]
    fn profile_matrix_uses_canonical_layout() {
        let m = meter_matrix();
        assert_eq!(m.len(), 4);
        assert_eq!(m.entry, states::PLAN);
        assert!(m.is_plan(states::PLAN));
        assert!(!m.is_plan(states::SIGNALING));
    }

    #[test]
    fn plan_schedules_targets_within_day() {
        let m = meter_matrix();
        let mut host = ProbeHost::new(true);
        let ctx = StepCtx {
            present: true,
            multiplier: 1.0,
        };
        let (next, emission) = m.step(states::PLAN, ctx, &mut host);
        assert_eq!(next, states::PLAN, "compiled plan rows self-loop");
        match emission {
            Emission::Planned { events, .. } => {
                assert_eq!(events, host.scheduled.len() as u64)
            }
            other => panic!("expected a plan emission, got {other:?}"),
        }
        for (state, second) in &host.scheduled {
            assert!(*second < 86_400);
            assert!(matches!(
                *state,
                states::SIGNALING | states::DATA | states::VOICE
            ));
        }
    }

    #[test]
    fn plan_counts_scale_with_multiplier() {
        let m = meter_matrix();
        let signaling_events = |multiplier: f64| {
            let mut host = ProbeHost::new(true);
            let ctx = StepCtx {
                present: true,
                multiplier,
            };
            for _ in 0..2_000 {
                m.step(states::PLAN, ctx, &mut host);
            }
            host.scheduled
                .iter()
                .filter(|(state, _)| *state == states::SIGNALING)
                .count()
        };
        let ratio = signaling_events(10.0) as f64 / signaling_events(1.0).max(1) as f64;
        assert!((8.0..12.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn device_multiplier_creates_heterogeneity() {
        let m = profile_matrix(
            &TrafficProfile::for_vertical(Vertical::Smartphone),
            &BehaviorOptions::default(),
        );
        let mut r = SubstreamRng::derive(11, 11);
        let ms: Vec<f64> = (0..1_000).map(|_| m.draw_multiplier(&mut r)).collect();
        let min = ms.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ms.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 10.0, "not enough spread: {min}..{max}");
    }

    #[test]
    fn absent_day_draws_nothing() {
        let m = meter_matrix();
        let mut host = ProbeHost::new(true);
        let mut before = host.rng.clone();
        let ctx = StepCtx {
            present: false,
            multiplier: 1.0,
        };
        let (next, emission) = m.step(states::PLAN, ctx, &mut host);
        assert_eq!(next, states::PLAN);
        assert_eq!(emission, Emission::Idle);
        // The RNG state must be untouched: the next draw matches a clone
        // taken before the step.
        assert_eq!(host.rng.unit(), before.unit(), "absent day consumed draws");
        assert!(host.scheduled.is_empty());
    }

    #[test]
    fn failed_attach_is_idle() {
        let m = meter_matrix();
        let mut host = ProbeHost::new(false);
        let ctx = StepCtx {
            present: true,
            multiplier: 1.0,
        };
        let (next, emission) = m.step(states::SIGNALING, ctx, &mut host);
        assert_eq!(next, states::SIGNALING);
        assert_eq!(emission, Emission::Idle);
        assert_eq!(host.attaches, 1);
    }

    #[test]
    fn disabled_data_plane_never_attaches() {
        let opts = BehaviorOptions {
            data_enabled: false,
            ..BehaviorOptions::default()
        };
        let m = profile_matrix(&TrafficProfile::for_vertical(Vertical::SmartMeter), &opts);
        let mut host = ProbeHost::new(true);
        let mut before = host.rng.clone();
        let ctx = StepCtx {
            present: true,
            multiplier: 1.0,
        };
        let (_, emission) = m.step(states::DATA, ctx, &mut host);
        assert_eq!(emission, Emission::Idle);
        assert_eq!(host.attaches, 0);
        assert_eq!(host.rng.unit(), before.unit());
    }

    #[test]
    fn silent_rows_branch_between_emissions() {
        // Entry row branches 100% to the voice row: the step must hop
        // through and emit voice.
        let profile = TrafficProfile::for_vertical(Vertical::Smartphone);
        let mut m = profile_matrix(&profile, &BehaviorOptions::default());
        m.rows.push(BehaviorRow {
            transitions: vec![(states::VOICE, 1.0)],
            event_rate: 0.0,
            emission: EmissionSpec::Silent,
        });
        m.validate().unwrap();
        let mut host = ProbeHost::new(true);
        let ctx = StepCtx {
            present: true,
            multiplier: 1.0,
        };
        let (next, emission) = m.step(StateId(4), ctx, &mut host);
        assert_eq!(next, states::VOICE);
        assert!(matches!(emission, Emission::Voice { call: true, .. }));
    }

    #[test]
    fn silent_cycles_are_bounded() {
        let mut m = meter_matrix();
        m.rows.push(BehaviorRow {
            transitions: vec![(StateId(4), 1.0)],
            event_rate: 0.0,
            emission: EmissionSpec::Silent,
        });
        m.validate().unwrap();
        let mut host = ProbeHost::new(true);
        let ctx = StepCtx {
            present: true,
            multiplier: 1.0,
        };
        let (_, emission) = m.step(StateId(4), ctx, &mut host);
        assert_eq!(
            emission,
            Emission::Idle,
            "self-looping silent row must terminate"
        );
    }

    #[test]
    fn validation_rejects_malformed_matrices() {
        let good = meter_matrix();
        assert!(good.validate().is_ok());

        let mut m = good.clone();
        m.rows.clear();
        assert_eq!(m.validate(), Err(BehaviorError::Empty));

        let mut m = good.clone();
        m.entry = StateId(99);
        assert_eq!(m.validate(), Err(BehaviorError::EntryOutOfRange));

        let mut m = good.clone();
        m.rows[1].event_rate = f64::NAN;
        assert_eq!(m.validate(), Err(BehaviorError::BadEventRate(1)));

        let mut m = good.clone();
        m.rows[2].transitions.clear();
        assert_eq!(m.validate(), Err(BehaviorError::EmptyTransitions(2)));

        let mut m = good.clone();
        m.rows[0].transitions = vec![(StateId(7), 1.0)];
        assert_eq!(
            m.validate(),
            Err(BehaviorError::StateOutOfRange { row: 0, target: 7 })
        );

        let mut m = good.clone();
        m.rows[3].transitions = vec![(states::VOICE, 0.0)];
        assert_eq!(m.validate(), Err(BehaviorError::BadTransitionWeights(3)));

        let mut m = good.clone();
        if let EmissionSpec::Signaling(s) = &mut m.rows[1].emission {
            s.reauth_fraction = 1.5;
        }
        assert_eq!(m.validate(), Err(BehaviorError::BadProbability(1)));

        let mut m = good.clone();
        m.params.sticky_breadth_weights = vec![];
        assert_eq!(m.validate(), Err(BehaviorError::BadDeviceParams));
    }

    #[test]
    fn serde_roundtrip_is_identity() {
        for v in Vertical::ALL {
            let m = profile_matrix(
                &TrafficProfile::for_vertical(v),
                &BehaviorOptions::default(),
            );
            let json = serde_json::to_string(&m).unwrap();
            let back: BehaviorMatrix = serde_json::from_str(&json).unwrap();
            assert_eq!(back, m, "roundtrip for {v}");
            assert!(back.validate().is_ok());
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                json,
                "stable bytes for {v}"
            );
        }
    }
}
