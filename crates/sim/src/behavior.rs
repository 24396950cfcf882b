//! Device behavior: a traffic profile plus per-device options, stepped one
//! wake at a time.
//!
//! A [`Behavior`] is what a device class does — its [`TrafficProfile`]
//! (rates, volumes, shapes) and its [`Options`] (daily activity,
//! switching, failures, which planes it uses, how many APNs). Every device
//! steps one: [`Behavior::of_spec`] reads it off a device spec, and a
//! `--behavior` file (`wtr simulate-mno --behavior classes.json`) swaps in
//! one per vertical. [`Behavior::step`] interprets one [`Wake`]: the
//! day's plan, or one signaling, data or voice event it scheduled.
//!
//! ## Draw order
//!
//! The golden digests pin the exact byte output of the simulation, which in
//! turn pins the exact per-device [`SubstreamRng`] draw sequence. The
//! interpreter therefore draws in a fixed order:
//!
//! * a plan wake draws the signaling, data and voice Poisson counts
//!   **first**, then the event seconds per scheduled plane, then the daily
//!   switch coin; a disabled plane still draws its count but skips the
//!   seconds;
//! * a signaling wake draws switch coin → attach walk → failure coin →
//!   re-auth coin;
//! * data/voice wakes draw nothing at all when the plane is disabled or the
//!   attach walk fails.

use crate::engine::WakeTag;
use crate::events::ProcedureResult;
use crate::rng::SubstreamRng;
use crate::traffic::TrafficProfile;
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

/// What one wake of a device does. The engine's [`WakeTag`] carries the
/// discriminant, so the scheduler needs no knowledge of behaviors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Plan a day's events: the first wake of every present day.
    Plan,
    /// One signaling procedure.
    Signaling,
    /// One data session.
    Data,
    /// One voice/SMS event.
    Voice,
}

impl Wake {
    /// The engine tag that carries this wake.
    pub(crate) const fn tag(self) -> WakeTag {
        WakeTag(self as u32)
    }

    /// The wake `tag` carries, if it carries one.
    pub(crate) fn of_tag(tag: WakeTag) -> Option<Wake> {
        match tag.0 {
            0 => Some(Wake::Plan),
            1 => Some(Wake::Signaling),
            2 => Some(Wake::Data),
            3 => Some(Wake::Voice),
            _ => None,
        }
    }
}

/// The per-device settings a [`Behavior`] layers on its traffic profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Options {
    /// Probability the device is active on a present day.
    pub daily_active_prob: f64,
    /// Per-event and daily probability of forcing a network reselection.
    pub switch_propensity: f64,
    /// Per-procedure probability of a transient failure.
    pub event_failure_prob: f64,
    /// When set, every attach attempt fails with this result.
    pub sticky_failure: Option<ProcedureResult>,
    /// Whether the subscription uses data at all.
    pub data_enabled: bool,
    /// Whether the subscription uses voice/SMS.
    pub voice_enabled: bool,
    /// APNs the device chooses between (0 moves no data).
    pub apn_count: u32,
}

impl Default for Options {
    fn default() -> Self {
        Options {
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

/// A device's behavior: its class's traffic profile plus its options.
///
/// The serde form (`{"traffic": …, "options": …}`) is the per-vertical
/// entry of a `--behavior` file. Deserialized values are unchecked: call
/// [`validate`](Behavior::validate) before stepping one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Behavior {
    /// Event rates, session volumes and the diurnal shape.
    pub traffic: TrafficProfile,
    /// Activity, switching, failures, planes and APNs.
    pub options: Options,
}

/// Why a behavior failed validation; each variant names the field, as
/// `traffic.<name>` or `options.<name>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BehaviorError {
    /// A rate, sigma, volume or duration is negative or not finite.
    Negative(&'static str),
    /// A probability is outside `[0, 1]` or not finite.
    NotAProbability(&'static str),
}

impl fmt::Display for BehaviorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BehaviorError::Negative(field) => write!(f, "{field} must be finite and >= 0"),
            BehaviorError::NotAProbability(field) => {
                write!(f, "{field} must be a probability within [0, 1]")
            }
        }
    }
}

impl std::error::Error for BehaviorError {}

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
        /// Events scheduled across all planes.
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
    /// Schedule `wake` at `second_of_day` within the current day.
    fn schedule(&mut self, wake: Wake, second_of_day: u64);
}

fn nonneg(field: &'static str, x: f64) -> Result<(), BehaviorError> {
    if x.is_finite() && x >= 0.0 {
        Ok(())
    } else {
        Err(BehaviorError::Negative(field))
    }
}

fn prob(field: &'static str, p: f64) -> Result<(), BehaviorError> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(BehaviorError::NotAProbability(field))
    }
}

/// Construction-time draw 2 (after [`Behavior::draw_multiplier`]): how
/// many candidate networks a sticky-failing device attempts per wake (1,
/// 2 or unbounded, split by [`STICKY_BREADTH_WEIGHTS`]).
pub(crate) fn draw_sticky_breadth(rng: &mut SubstreamRng) -> usize {
    match rng.weighted_index(&STICKY_BREADTH_WEIGHTS) {
        0 => 1,
        1 => 2,
        _ => usize::MAX,
    }
}

impl Behavior {
    /// The behavior of a [`DeviceSpec`](crate::device::DeviceSpec): its
    /// traffic profile plus its presence, switching, failure, plane and
    /// APN settings. Every device built without an explicit behavior
    /// (`DeviceAgent::new`) steps this.
    pub fn of_spec(spec: &crate::device::DeviceSpec) -> Behavior {
        Behavior {
            traffic: spec.traffic.clone(),
            options: Options {
                daily_active_prob: spec.presence.daily_active_prob,
                switch_propensity: spec.switch_propensity,
                event_failure_prob: spec.event_failure_prob,
                sticky_failure: spec.sticky_failure,
                data_enabled: spec.data_enabled,
                voice_enabled: spec.voice_enabled,
                apn_count: spec.apns.len() as u32,
            },
        }
    }

    /// Checks every value: rates, sigmas, volumes and durations finite
    /// and `>= 0`, probabilities within `[0, 1]`.
    pub fn validate(&self) -> Result<(), BehaviorError> {
        let t = &self.traffic;
        let o = &self.options;
        nonneg("traffic.signaling_per_day", t.signaling_per_day)?;
        nonneg("traffic.per_device_sigma", t.per_device_sigma)?;
        nonneg("traffic.data_sessions_per_day", t.data_sessions_per_day)?;
        nonneg("traffic.volume.median_bytes", t.volume.median_bytes)?;
        nonneg("traffic.volume.sigma", t.volume.sigma)?;
        prob("traffic.volume.uplink_ratio", t.volume.uplink_ratio)?;
        nonneg("traffic.voice_per_day", t.voice_per_day)?;
        nonneg("traffic.call_duration_mean_secs", t.call_duration_mean_secs)?;
        prob("traffic.reauth_fraction", t.reauth_fraction)?;
        prob("options.daily_active_prob", o.daily_active_prob)?;
        prob("options.switch_propensity", o.switch_propensity)?;
        prob("options.event_failure_prob", o.event_failure_prob)
    }

    /// Construction-time draw 1: the per-device rate multiplier,
    /// LogNormal(1, `per_device_sigma`). Zero sigma consumes no draw.
    pub fn draw_multiplier(&self, rng: &mut SubstreamRng) -> f64 {
        if self.traffic.per_device_sigma <= 0.0 {
            1.0
        } else {
            rng.lognormal(1.0, self.traffic.per_device_sigma)
        }
    }

    /// Interprets one wake. Early exits (absent or inactive day, disabled
    /// plane, failed attach) return [`Emission::Idle`].
    pub fn step<H: StepHost>(&self, wake: Wake, ctx: StepCtx, host: &mut H) -> Emission {
        match wake {
            Wake::Plan => self.step_plan(ctx, host),
            Wake::Signaling => self.step_signaling(host),
            Wake::Data => self.step_data(host),
            Wake::Voice => self.step_voice(host),
        }
    }

    fn step_plan<H: StepHost>(&self, ctx: StepCtx, host: &mut H) -> Emission {
        let t = &self.traffic;
        let o = &self.options;
        // `present &&` short-circuits before the activity coin: an absent
        // day draws nothing.
        if !(ctx.present && host.rng().chance(o.daily_active_prob)) {
            return Emission::Idle;
        }
        // All three counts first, then seconds per scheduled plane, then
        // the switch coin.
        let planes = [
            (Wake::Signaling, t.signaling_per_day, true),
            (Wake::Data, t.data_sessions_per_day, o.data_enabled),
            (Wake::Voice, t.voice_per_day, o.voice_enabled),
        ];
        let counts = planes.map(|(_, rate, _)| host.rng().poisson(rate * ctx.multiplier));
        let mut events = 0u64;
        for ((wake, _, scheduled), count) in planes.into_iter().zip(counts) {
            if !scheduled {
                continue;
            }
            for _ in 0..count {
                let second = t.diurnal.sample_second(host.rng());
                host.schedule(wake, second);
            }
            events += count;
        }
        let reselect = host.rng().chance(o.switch_propensity);
        if reselect {
            host.request_reselect();
        }
        Emission::Planned { events, reselect }
    }

    fn step_signaling<H: StepHost>(&self, host: &mut H) -> Emission {
        if host.rng().chance(self.options.switch_propensity) {
            host.request_reselect();
        }
        if !host.attach() {
            return Emission::Idle;
        }
        let ok = !host.rng().chance(self.options.event_failure_prob);
        let reauth = host.rng().chance(self.traffic.reauth_fraction);
        Emission::Signaling { reauth, ok }
    }

    fn step_data<H: StepHost>(&self, host: &mut H) -> Emission {
        let apn_count = self.options.apn_count;
        if !self.options.data_enabled || apn_count == 0 || !host.attach() {
            return Emission::Idle;
        }
        let (bytes_up, bytes_down) = self.traffic.volume.sample(host.rng());
        let apn_index = host.rng().index(apn_count as usize) as u32;
        let (lo, hi) = DURATION_CLAMP_SECS;
        let duration_secs = host.rng().exponential(DATA_SESSION_MEAN_SECS).clamp(lo, hi) as u32;
        Emission::Data {
            apn_index,
            bytes_up,
            bytes_down,
            duration_secs,
        }
    }

    fn step_voice<H: StepHost>(&self, host: &mut H) -> Emission {
        if !self.options.voice_enabled || !host.attach() {
            return Emission::Idle;
        }
        let call = self.traffic.voice_is_call;
        let duration_secs = if call {
            let (lo, hi) = DURATION_CLAMP_SECS;
            host.rng()
                .exponential(self.traffic.call_duration_mean_secs.max(1.0))
                .clamp(lo, hi) as u32
        } else {
            0
        };
        Emission::Voice {
            call,
            duration_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::vertical::Vertical;

    fn class(vertical: Vertical, options: Options) -> Behavior {
        Behavior {
            traffic: TrafficProfile::for_vertical(vertical),
            options,
        }
    }

    fn meter() -> Behavior {
        class(Vertical::SmartMeter, Options::default())
    }

    /// Host that records interpreter calls against a scripted attach
    /// outcome.
    struct ProbeHost {
        rng: SubstreamRng,
        attach_ok: bool,
        attaches: u32,
        reselects: u32,
        scheduled: Vec<(Wake, u64)>,
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
        fn schedule(&mut self, wake: Wake, second: u64) {
            self.scheduled.push((wake, second));
        }
    }

    const PRESENT: StepCtx = StepCtx {
        present: true,
        multiplier: 1.0,
    };

    #[test]
    fn wake_tags_roundtrip() {
        for wake in [Wake::Plan, Wake::Signaling, Wake::Data, Wake::Voice] {
            assert_eq!(Wake::of_tag(wake.tag()), Some(wake));
        }
        assert_eq!(Wake::of_tag(WakeTag(4)), None);
    }

    #[test]
    fn plan_schedules_events_within_day() {
        let mut host = ProbeHost::new(true);
        match meter().step(Wake::Plan, PRESENT, &mut host) {
            Emission::Planned { events, .. } => {
                assert_eq!(events, host.scheduled.len() as u64)
            }
            other => panic!("expected a plan emission, got {other:?}"),
        }
        for (wake, second) in &host.scheduled {
            assert!(*second < 86_400);
            assert_ne!(*wake, Wake::Plan);
        }
    }

    #[test]
    fn plan_counts_scale_with_multiplier() {
        let m = meter();
        let signaling_events = |multiplier: f64| {
            let mut host = ProbeHost::new(true);
            let ctx = StepCtx {
                present: true,
                multiplier,
            };
            for _ in 0..2_000 {
                m.step(Wake::Plan, ctx, &mut host);
            }
            host.scheduled
                .iter()
                .filter(|(wake, _)| *wake == Wake::Signaling)
                .count()
        };
        let ratio = signaling_events(10.0) as f64 / signaling_events(1.0).max(1) as f64;
        assert!((8.0..12.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn device_multiplier_creates_heterogeneity() {
        let m = class(Vertical::Smartphone, Options::default());
        let mut r = SubstreamRng::derive(11, 11);
        let ms: Vec<f64> = (0..1_000).map(|_| m.draw_multiplier(&mut r)).collect();
        let min = ms.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ms.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 10.0, "not enough spread: {min}..{max}");
    }

    #[test]
    fn absent_day_draws_nothing() {
        let mut host = ProbeHost::new(true);
        let mut before = host.rng.clone();
        let ctx = StepCtx {
            present: false,
            multiplier: 1.0,
        };
        assert_eq!(meter().step(Wake::Plan, ctx, &mut host), Emission::Idle);
        // The RNG state must be untouched: the next draw matches a clone
        // taken before the step.
        assert_eq!(host.rng.unit(), before.unit(), "absent day consumed draws");
        assert!(host.scheduled.is_empty());
    }

    #[test]
    fn failed_attach_is_idle() {
        let mut host = ProbeHost::new(false);
        let emission = meter().step(Wake::Signaling, PRESENT, &mut host);
        assert_eq!(emission, Emission::Idle);
        assert_eq!(host.attaches, 1);
    }

    #[test]
    fn disabled_data_plane_never_attaches() {
        let m = class(
            Vertical::SmartMeter,
            Options {
                data_enabled: false,
                ..Options::default()
            },
        );
        let mut host = ProbeHost::new(true);
        let mut before = host.rng.clone();
        assert_eq!(m.step(Wake::Data, PRESENT, &mut host), Emission::Idle);
        assert_eq!(host.attaches, 0);
        assert_eq!(host.rng.unit(), before.unit());
    }

    #[test]
    fn validation_rejects_malformed_behaviors() {
        let good = meter();
        assert_eq!(good.validate(), Ok(()));

        let mut b = good.clone();
        b.traffic.signaling_per_day = f64::NAN;
        assert_eq!(
            b.validate(),
            Err(BehaviorError::Negative("traffic.signaling_per_day"))
        );

        let mut b = good.clone();
        b.traffic.volume.sigma = -1.0;
        assert_eq!(
            b.validate(),
            Err(BehaviorError::Negative("traffic.volume.sigma"))
        );

        let mut b = good.clone();
        b.traffic.reauth_fraction = 1.5;
        assert_eq!(
            b.validate(),
            Err(BehaviorError::NotAProbability("traffic.reauth_fraction"))
        );

        let mut b = good.clone();
        b.options.daily_active_prob = f64::INFINITY;
        let err = b.validate().unwrap_err();
        assert_eq!(
            err,
            BehaviorError::NotAProbability("options.daily_active_prob")
        );
        assert_eq!(
            err.to_string(),
            "options.daily_active_prob must be a probability within [0, 1]"
        );
    }

    #[test]
    fn serde_roundtrip_is_identity() {
        for v in Vertical::ALL {
            let b = class(v, Options::default());
            let json = serde_json::to_string(&b).unwrap();
            let back: Behavior = serde_json::from_str(&json).unwrap();
            assert_eq!(back, b, "roundtrip for {v}");
            assert!(back.validate().is_ok());
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                json,
                "stable bytes for {v}"
            );
        }
    }
}
