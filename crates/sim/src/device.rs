//! Device agents: the state machines that generate all observable traffic.
//!
//! A [`DeviceAgent`] wraps a [`DeviceSpec`] (identity + behaviour
//! parameters, produced by the scenario builders) and executes it against
//! the world: each simulated day it plans its events, and at each event it
//! ensures it is attached to a network (running the real signaling
//! procedures, with all their failure modes) before producing data/voice
//! activity.
//!
//! ## Attachment & VMNO switching
//!
//! On every event the device checks whether its camped network still serves
//! its current position for its radio capabilities. If not — or if an
//! instability coin-flip forces reselection — it walks the current
//! country's networks in directory order. A network that does not admit
//! the SIM answers one `UpdateLocation` with `RoamingNotAllowed`; an
//! admitted attempt emits `Authentication` + `UpdateLocation` (or one
//! failed `Authentication` on a transient failure), and a success
//! additionally triggers a `CancelLocation` at the previous network.
//! This is exactly the transaction mix of the paper's M2M dataset (§3.1)
//! and produces the inter-VMNO switching dynamics of Fig. 3.
//!
//! The camped network's serving `(rat, sector)` is remembered for the
//! last `(network, position)` the check asked about, and recomputed only
//! when one of them changes: a meter never moves and a person moves once
//! an hour, while a network never changes during a run and a device's
//! radio capabilities are fixed. The check draws no RNG value, so the
//! memo moves no draw.

use crate::behavior::{self, AttachParams, BehaviorMatrix, Emission, StateId, StepCtx, StepHost};
use crate::engine::{Agent, AgentId, Scheduler, WakeTag};
use crate::events::{
    DataSession, ProcedureResult, ProcedureType, SignalingEvent, SimEvent, VoiceCall, VoiceKind,
};
use crate::mobility::MobilityModel;
use crate::rng::SubstreamRng;
use crate::traffic::TrafficProfile;
use crate::world::{EventSink, NetworkDirectory, RoamingWorld};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use wtr_model::apn::Apn;
use wtr_model::ids::{Imei, Imsi, Plmn};
use wtr_model::rat::{Rat, RatSet};
use wtr_model::time::{Day, SimDuration, SimTime};
use wtr_radio::geo::GeoPoint;
use wtr_radio::sector::SectorId;

/// Why a [`DeviceSpec`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// The itinerary has no legs — `leg_at` would have nothing to return.
    EmptyItinerary,
    /// Itinerary legs are not sorted by `from_day` — `leg_at`'s forward
    /// walk assumes non-decreasing start days.
    UnsortedItinerary,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyItinerary => write!(f, "device itinerary is empty"),
            SpecError::UnsortedItinerary => {
                write!(f, "device itinerary legs are not sorted by from_day")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// When a device exists and how reliably it shows up.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PresenceModel {
    /// First day (inclusive) the device is present.
    pub first_day: u32,
    /// Last day (exclusive) — e.g. a tourist's departure.
    pub last_day: u32,
    /// Probability the device is active on any present day. Smart meters
    /// under deployment, duty-cycled sensors and flaky devices use < 1.
    pub daily_active_prob: f64,
}

impl PresenceModel {
    /// Present and potentially active on `day`?
    pub fn present_on(&self, day: Day) -> bool {
        (self.first_day..self.last_day).contains(&day.0)
    }

    /// A device present for the whole window, always active.
    pub fn always(window_days: u32) -> Self {
        PresenceModel {
            first_day: 0,
            last_day: window_days,
            daily_active_prob: 1.0,
        }
    }
}

/// One segment of a device's international itinerary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItineraryLeg {
    /// Day (within the observation window) this leg starts.
    pub from_day: u32,
    /// Country the device is in during the leg.
    pub country_iso: String,
    /// How it moves while there.
    pub mobility: MobilityModel,
}

/// Everything that defines one simulated device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Scenario-unique index (also the RNG substream selector).
    pub index: u64,
    /// The SIM.
    pub imsi: Imsi,
    /// The equipment.
    pub imei: Imei,
    /// Ground-truth vertical (never visible to classifiers).
    pub vertical: wtr_model::vertical::Vertical,
    /// Radio generations the hardware supports (from its TAC).
    pub radio_caps: RatSet,
    /// APNs the device uses for data sessions.
    pub apns: Vec<Apn>,
    /// Whether the subscription uses data at all (§6.1: 24.5% of M2M and
    /// 56.8% of feature phones never touch the data plane).
    pub data_enabled: bool,
    /// Whether the subscription uses voice/SMS services.
    pub voice_enabled: bool,
    /// Traffic rates and shapes.
    pub traffic: TrafficProfile,
    /// Presence window.
    pub presence: PresenceModel,
    /// Country/mobility schedule, sorted by `from_day`, non-empty.
    pub itinerary: Vec<ItineraryLeg>,
    /// Per-signaling-event probability of a forced network reselection
    /// (drives the inter-VMNO switch counts of Fig. 3-right).
    pub switch_propensity: f64,
    /// Per-procedure probability of a transient failure even when access
    /// is granted.
    pub event_failure_prob: f64,
    /// When set, every attach attempt fails with this result and the
    /// device never gets service — the §3.3 population of devices with
    /// only-failed 4G procedures (misprovisioned subscriptions, devices
    /// whose plan lacks the RAT).
    pub sticky_failure: Option<ProcedureResult>,
}

impl DeviceSpec {
    /// Validates the invariants [`leg_at`](DeviceSpec::leg_at) depends on:
    /// a non-empty itinerary, sorted by `from_day`. Checked once at agent
    /// construction so release builds can never walk an empty itinerary.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.itinerary.is_empty() {
            return Err(SpecError::EmptyItinerary);
        }
        if self
            .itinerary
            .windows(2)
            .any(|pair| pair[0].from_day > pair[1].from_day)
        {
            return Err(SpecError::UnsortedItinerary);
        }
        Ok(())
    }

    /// The itinerary leg covering `day`.
    pub fn leg_at(&self, day: Day) -> &ItineraryLeg {
        debug_assert!(!self.itinerary.is_empty());
        let mut current = &self.itinerary[0];
        for leg in &self.itinerary {
            if leg.from_day <= day.0 {
                current = leg;
            } else {
                break;
            }
        }
        current
    }

    /// Number of distinct countries on the itinerary.
    pub fn countries_visited(&self) -> usize {
        let mut isos: Vec<&str> = self
            .itinerary
            .iter()
            .map(|l| l.country_iso.as_str())
            .collect();
        isos.sort_unstable();
        isos.dedup();
        isos.len()
    }
}

/// The executable agent for one device.
#[derive(Debug, Clone)]
pub struct DeviceAgent {
    spec: DeviceSpec,
    /// The compiled behavior matrix driving the agent. Shared: every
    /// device of a class steps the same matrix.
    behavior: Arc<BehaviorMatrix>,
    multiplier: f64,
    /// Everything a wake changes. A wake borrows it mutably next to
    /// shared borrows of `spec` and `behavior`.
    state: AgentState,
}

/// The mutable half of a [`DeviceAgent`]: what its wakes change, plus the
/// sticky breadth the attach walk reads with it.
#[derive(Debug, Clone)]
struct AgentState {
    rng: SubstreamRng,
    /// How many candidate networks a sticky-failing device attempts per
    /// wake. Most misprovisioned devices retry one network forever; a
    /// minority hunt the whole candidate list (the paper's 19-VMNO tail).
    sticky_breadth: usize,
    camped: Option<(Plmn, Rat)>,
    camped_country: Option<String>,
    force_reselect: bool,
    /// The fast path's last question and its answer.
    serving_memo: Option<ServingMemo>,
}

/// The best `(rat, sector)` that network `plmn` serves at the position
/// whose raw coordinate bits are `pos`.
#[derive(Debug, Clone, Copy)]
struct ServingMemo {
    plmn: Plmn,
    pos: (u64, u64),
    serving: Option<(Rat, SectorId)>,
}

impl DeviceAgent {
    /// Builds the agent; RNG substream and per-device rate multiplier are
    /// derived deterministically from `master_seed` and the spec index.
    /// The spec's behavior compiles into a [`BehaviorMatrix`]
    /// ([`behavior::spec_matrix`]).
    ///
    /// # Panics
    ///
    /// On an invalid spec — use [`try_new`](DeviceAgent::try_new) to
    /// handle [`SpecError`] instead.
    pub fn new(spec: DeviceSpec, master_seed: u64) -> Self {
        Self::try_new(spec, master_seed).expect("invalid device spec")
    }

    /// Fallible [`new`](DeviceAgent::new): validates the spec first.
    pub fn try_new(spec: DeviceSpec, master_seed: u64) -> Result<Self, SpecError> {
        spec.validate()?;
        let behavior = Arc::new(behavior::spec_matrix(&spec));
        Ok(Self::assemble(spec, behavior, master_seed))
    }

    /// Builds the agent on an explicit behavior matrix (e.g. loaded from a
    /// `--behavior` file). The spec still supplies identity, radio
    /// capabilities, APNs, presence window and itinerary; the matrix
    /// supplies all behavior.
    pub fn with_behavior(
        spec: DeviceSpec,
        matrix: Arc<BehaviorMatrix>,
        master_seed: u64,
    ) -> Result<Self, SpecError> {
        spec.validate()?;
        Ok(Self::assemble(spec, matrix, master_seed))
    }

    /// Shared tail of both constructors: the construction-time draws
    /// (multiplier, then sticky breadth) from the device's substream.
    fn assemble(spec: DeviceSpec, behavior: Arc<BehaviorMatrix>, master_seed: u64) -> Self {
        let mut rng = SubstreamRng::derive(master_seed, spec.index);
        let multiplier = behavior.draw_multiplier(&mut rng);
        let sticky_breadth = behavior.draw_sticky_breadth(&mut rng);
        DeviceAgent {
            spec,
            behavior,
            multiplier,
            state: AgentState {
                rng,
                sticky_breadth,
                camped: None,
                camped_country: None,
                force_reselect: false,
                serving_memo: None,
            },
        }
    }

    /// Read access to the spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The compiled behavior matrix.
    pub fn behavior(&self) -> &Arc<BehaviorMatrix> {
        &self.behavior
    }

    /// The device's per-device rate multiplier.
    pub fn multiplier(&self) -> f64 {
        self.multiplier
    }
}

/// Emits one signaling record of `spec`'s device.
#[allow(clippy::too_many_arguments)] // mirrors the record's fields
fn signal<S: EventSink>(
    spec: &DeviceSpec,
    world: &mut RoamingWorld<S>,
    time: SimTime,
    visited: Plmn,
    sector: Option<SectorId>,
    rat: Rat,
    procedure: ProcedureType,
    result: ProcedureResult,
) {
    world.emit(SimEvent::Signaling(SignalingEvent {
        time,
        device: spec.index,
        imsi: spec.imsi,
        imei: spec.imei,
        visited,
        sector,
        rat,
        procedure,
        result,
    }));
}

impl AgentState {
    /// The best `(rat, sector)` that `plmn` serves at `pos` for `caps`,
    /// remembered for the last `(plmn, pos)` asked. Exact: `serve_best`
    /// is a pure function of a network, which never changes during a
    /// run, the position and the device's fixed radio caps.
    fn serving_at(
        &mut self,
        directory: &NetworkDirectory,
        plmn: Plmn,
        pos: GeoPoint,
        caps: RatSet,
    ) -> Option<(Rat, SectorId)> {
        let bits = (pos.lat.to_bits(), pos.lon.to_bits());
        if let Some(memo) = self.serving_memo {
            if memo.plmn == plmn && memo.pos == bits {
                return memo.serving;
            }
        }
        let serving = directory
            .get(plmn)
            .and_then(|net| net.serve_best(pos, caps.intersection(net.rats())));
        self.serving_memo = Some(ServingMemo {
            plmn,
            pos: bits,
            serving,
        });
        serving
    }

    /// Ensures the device is attached somewhere usable at `now`; returns
    /// the serving (network, RAT, sector) or `None` when every candidate
    /// failed. Emits all signaling this entails.
    fn ensure_attached<S: EventSink>(
        &mut self,
        spec: &DeviceSpec,
        world: &mut RoamingWorld<S>,
        now: SimTime,
        pos: GeoPoint,
        country_iso: &str,
        params: AttachParams,
    ) -> Option<(Plmn, Rat, SectorId)> {
        let caps = spec.radio_caps;
        let moved_country = self
            .camped_country
            .as_deref()
            .is_some_and(|c| c != country_iso);

        // Fast path: still served by the camped network.
        if !self.force_reselect && !moved_country {
            if let Some((plmn, _)) = self.camped {
                if let Some((rat, sec)) = self.serving_at(&world.directory, plmn, pos, caps) {
                    self.camped = Some((plmn, rat));
                    return Some((plmn, rat, sec));
                }
            }
        }

        // Reselection walk.
        let mut candidates: Vec<Plmn> = world.directory.in_country(country_iso).to_vec();
        let home = spec.imsi.plmn();
        if self.force_reselect {
            // A forced switch must not land on the same network again.
            if let Some((current, _)) = self.camped {
                candidates.retain(|p| *p != current);
            }
            // Devices mostly ping-pong between two preferred networks
            // (Fig. 3: switch counts far exceed VMNO counts); only
            // occasionally does a switch land further down the list.
            if candidates.len() > 1 && self.rng.chance(params.rotate_prob) {
                let k = self.rng.index(candidates.len());
                candidates.rotate_left(k);
            }
        }
        self.force_reselect = false;

        let previous = self.camped;
        let mut attempts = 0usize;
        for cand in candidates {
            let Some(net) = world.directory.get(cand) else {
                continue;
            };
            let Some((rat, sec)) = net.serve_best(pos, caps.intersection(net.rats())) else {
                continue;
            };
            if let Some(fail) = params.sticky_failure {
                // Misprovisioned device: authentication fails everywhere.
                signal(
                    spec,
                    world,
                    now,
                    cand,
                    Some(sec),
                    rat,
                    ProcedureType::Authentication,
                    fail,
                );
                signal(
                    spec,
                    world,
                    now,
                    cand,
                    Some(sec),
                    rat,
                    ProcedureType::UpdateLocation,
                    fail,
                );
                // Most failing devices retry the head of the list forever;
                // only the hunting minority walks further down the list
                // (the paper's worst devices attempt 19 VMNOs).
                attempts += 1;
                if attempts >= self.sticky_breadth {
                    break;
                }
                continue;
            }
            if !world.policy.admits(home, cand) {
                signal(
                    spec,
                    world,
                    now,
                    cand,
                    Some(sec),
                    rat,
                    ProcedureType::UpdateLocation,
                    ProcedureResult::RoamingNotAllowed,
                );
                continue;
            }
            if self.rng.chance(params.event_failure_prob) {
                // Transient failure on this attempt; try next.
                signal(
                    spec,
                    world,
                    now,
                    cand,
                    Some(sec),
                    rat,
                    ProcedureType::Authentication,
                    ProcedureResult::NetworkFailure,
                );
                continue;
            }
            signal(
                spec,
                world,
                now,
                cand,
                Some(sec),
                rat,
                ProcedureType::Authentication,
                ProcedureResult::Ok,
            );
            signal(
                spec,
                world,
                now,
                cand,
                Some(sec),
                rat,
                ProcedureType::UpdateLocation,
                ProcedureResult::Ok,
            );
            // The HSS cancels the registration at the old network.
            if let Some((old, old_rat)) = previous {
                if old != cand {
                    signal(
                        spec,
                        world,
                        now,
                        old,
                        None,
                        old_rat,
                        ProcedureType::CancelLocation,
                        ProcedureResult::Ok,
                    );
                }
            }
            self.camped = Some((cand, rat));
            self.camped_country = Some(country_iso.to_owned());
            return Some((cand, rat, sec));
        }
        // Nothing admitted us; we are detached.
        self.camped = None;
        self.camped_country = None;
        None
    }
}

/// Per-wake adapter implementing [`StepHost`] for the matrix interpreter:
/// RNG access routes to the device substream, the attach walk to
/// [`AgentState`]'s `ensure_attached` (recording the serving network for
/// the emission that follows), and scheduling to the engine with the wake
/// tag carrying the target [`StateId`].
struct AgentHost<'a, S: EventSink> {
    spec: &'a DeviceSpec,
    state: &'a mut AgentState,
    world: &'a mut RoamingWorld<S>,
    sched: &'a mut Scheduler,
    id: AgentId,
    now: SimTime,
    day: Day,
    pos: GeoPoint,
    country: &'a str,
    params: AttachParams,
    serving: Option<(Plmn, Rat, SectorId)>,
}

impl<S: EventSink> StepHost for AgentHost<'_, S> {
    fn rng(&mut self) -> &mut SubstreamRng {
        &mut self.state.rng
    }

    fn request_reselect(&mut self) {
        self.state.force_reselect = true;
    }

    fn attach(&mut self) -> bool {
        self.serving = self.state.ensure_attached(
            self.spec,
            self.world,
            self.now,
            self.pos,
            self.country,
            self.params,
        );
        self.serving.is_some()
    }

    fn schedule(&mut self, state: StateId, second_of_day: u64) {
        let at = self.day.start() + SimDuration::from_secs(second_of_day);
        self.sched.wake_at(self.id, WakeTag(state.0), at);
    }
}

impl<S: EventSink> Agent<RoamingWorld<S>> for DeviceAgent {
    fn init(&mut self, id: AgentId, _world: &mut RoamingWorld<S>, sched: &mut Scheduler) {
        let first = self.spec.presence.first_day;
        sched.wake_at(id, WakeTag(self.behavior.entry.0), Day(first).start());
    }

    /// One homogeneous interpreter step, then turn the returned
    /// [`Emission`] into events on the serving network the step's attach
    /// recorded.
    fn wake(
        &mut self,
        id: AgentId,
        tag: WakeTag,
        world: &mut RoamingWorld<S>,
        sched: &mut Scheduler,
    ) {
        // Disjoint borrows: the step reads the spec and the matrix while
        // it mutates the state.
        let DeviceAgent {
            ref spec,
            behavior: ref matrix,
            multiplier,
            ref mut state,
        } = *self;
        let state_id = StateId(tag.0);
        if state_id.idx() >= matrix.len() {
            debug_assert!(false, "unknown wake tag {}", tag.0);
            return;
        }
        let now = sched.now();
        let day = now.day();
        let leg = spec.leg_at(day);
        let pos = leg.mobility.position(now);
        let ctx = StepCtx {
            present: spec.presence.present_on(day),
            multiplier,
        };
        let mut host = AgentHost {
            spec,
            state,
            world,
            sched,
            id,
            now,
            day,
            pos,
            country: &leg.country_iso,
            params: matrix.attach_params(),
            serving: None,
        };
        let (next, emission) = matrix.step(state_id, ctx, &mut host);
        let serving = host.serving;
        match emission {
            Emission::Idle | Emission::Planned { .. } => {}
            Emission::Signaling { reauth, ok } => {
                if let Some((plmn, rat, sec)) = serving {
                    let result = if ok {
                        ProcedureResult::Ok
                    } else {
                        ProcedureResult::NetworkFailure
                    };
                    if reauth {
                        // Full re-registration: visible at the home HSS
                        // (and therefore to the M2M platform probes).
                        signal(
                            spec,
                            world,
                            now,
                            plmn,
                            Some(sec),
                            rat,
                            ProcedureType::Authentication,
                            result,
                        );
                        signal(
                            spec,
                            world,
                            now,
                            plmn,
                            Some(sec),
                            rat,
                            ProcedureType::UpdateLocation,
                            result,
                        );
                    } else {
                        // Local periodic registration on the camped network.
                        signal(
                            spec,
                            world,
                            now,
                            plmn,
                            Some(sec),
                            rat,
                            ProcedureType::RoutingAreaUpdate,
                            result,
                        );
                    }
                }
            }
            Emission::Data {
                apn_index,
                bytes_up,
                bytes_down,
                duration_secs,
            } => {
                if let Some((plmn, rat, sec)) = serving {
                    if !spec.apns.is_empty() {
                        let apn = spec.apns[apn_index as usize % spec.apns.len()].clone();
                        world.emit(SimEvent::Data(DataSession {
                            time: now,
                            device: spec.index,
                            imsi: spec.imsi,
                            imei: spec.imei,
                            visited: plmn,
                            sector: sec,
                            rat,
                            apn,
                            duration_secs,
                            bytes_up,
                            bytes_down,
                        }));
                    }
                }
            }
            Emission::Voice {
                call,
                duration_secs,
            } => {
                if let Some((plmn, rat, sec)) = serving {
                    let kind = if call {
                        VoiceKind::Call
                    } else {
                        VoiceKind::SmsLike
                    };
                    world.emit(SimEvent::Voice(VoiceCall {
                        time: now,
                        device: spec.index,
                        imsi: spec.imsi,
                        imei: spec.imei,
                        visited: plmn,
                        sector: sec,
                        rat,
                        kind,
                        duration_secs,
                    }));
                }
            }
        }
        // Plan rows re-arm the next day's planning wake (at the chain's
        // successor) while the device remains present, inactive days
        // included.
        if matrix.is_plan(state_id) {
            let next_day = Day(day.0 + 1);
            if next_day.0 < spec.presence.last_day {
                sched.wake_at(id, WakeTag(next.0), next_day.start());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::world::{AllowAllPolicy, NetworkDirectory, VecSink};
    use wtr_model::country::Country;
    use wtr_model::ids::Tac;
    use wtr_model::time::SimTime;
    use wtr_model::vertical::Vertical;
    use wtr_radio::geo::CountryGeometry;
    use wtr_radio::network::{CoverageFaults, RadioNetwork};
    use wtr_radio::sector::GridSpacing;

    const MNO: Plmn = Plmn::of(234, 30);
    const OTHER: Plmn = Plmn::of(234, 10);

    fn uk_geom() -> CountryGeometry {
        CountryGeometry::of(Country::by_iso("GB").unwrap())
    }

    fn directory() -> NetworkDirectory {
        let mut dir = NetworkDirectory::new();
        for plmn in [MNO, OTHER] {
            dir.add(
                "GB",
                RadioNetwork::new(
                    plmn,
                    RatSet::CONVENTIONAL,
                    uk_geom(),
                    GridSpacing::default(),
                    CoverageFaults::NONE,
                ),
            );
        }
        dir
    }

    fn meter_spec(index: u64) -> DeviceSpec {
        DeviceSpec {
            index,
            imsi: Imsi::new(Plmn::of(204, 4), index).unwrap(),
            imei: Imei::new(Tac::new(35_000_000).unwrap(), index as u32 % 1_000_000).unwrap(),
            vertical: Vertical::SmartMeter,
            radio_caps: RatSet::G2_ONLY,
            apns: vec!["smhp.centricaplc.com.mnc004.mcc204.gprs".parse().unwrap()],
            data_enabled: true,
            voice_enabled: false,
            traffic: TrafficProfile::for_vertical(Vertical::SmartMeter),
            presence: PresenceModel::always(7),
            itinerary: vec![ItineraryLeg {
                from_day: 0,
                country_iso: "GB".into(),
                mobility: MobilityModel::stationary_in(&uk_geom(), index),
            }],
            switch_propensity: 0.0,
            event_failure_prob: 0.0,
            sticky_failure: None,
        }
    }

    fn run(specs: Vec<DeviceSpec>, days: u32) -> Vec<SimEvent> {
        let world = RoamingWorld::new(directory(), Box::new(AllowAllPolicy), VecSink::default());
        let mut engine = Engine::new(world, SimTime::from_secs(days as u64 * 86_400));
        for spec in specs {
            engine.add_agent(DeviceAgent::new(spec, 99));
        }
        engine.run().sink.events
    }

    #[test]
    fn invalid_itineraries_are_rejected_at_construction() {
        let mut empty = meter_spec(10);
        empty.itinerary.clear();
        assert_eq!(empty.validate(), Err(SpecError::EmptyItinerary));
        assert!(DeviceAgent::try_new(empty, 99).is_err());

        let mut unsorted = meter_spec(11);
        unsorted.itinerary = vec![
            ItineraryLeg {
                from_day: 5,
                country_iso: "GB".into(),
                mobility: MobilityModel::stationary_in(&uk_geom(), 1),
            },
            ItineraryLeg {
                from_day: 0,
                country_iso: "ES".into(),
                mobility: MobilityModel::stationary_in(&uk_geom(), 2),
            },
        ];
        assert_eq!(unsorted.validate(), Err(SpecError::UnsortedItinerary));
        assert!(DeviceAgent::try_new(unsorted, 99).is_err());

        assert!(meter_spec(12).validate().is_ok());
    }

    #[test]
    fn meter_produces_signaling_and_data_on_2g() {
        let events = run(vec![meter_spec(1)], 7);
        assert!(!events.is_empty());
        let mut has_sig = false;
        let mut has_data = false;
        for e in &events {
            match e {
                SimEvent::Signaling(s) => {
                    assert_eq!(s.rat, Rat::G2, "2G-only device used {}", s.rat);
                    has_sig = true;
                }
                SimEvent::Data(d) => {
                    assert_eq!(d.rat, Rat::G2);
                    assert!(d.apn.matches_keyword("centrica"));
                    has_data = true;
                }
                SimEvent::Voice(_) => panic!("voice disabled"),
            }
        }
        assert!(has_sig && has_data);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run(vec![meter_spec(1), meter_spec(2)], 5);
        let b = run(vec![meter_spec(1), meter_spec(2)], 5);
        assert_eq!(a, b);
    }

    #[test]
    fn sticky_failure_device_never_succeeds() {
        let mut spec = meter_spec(3);
        spec.sticky_failure = Some(ProcedureResult::UnknownSubscription);
        let events = run(vec![spec], 5);
        assert!(!events.is_empty());
        for e in &events {
            match e {
                SimEvent::Signaling(s) => {
                    assert_eq!(s.result, ProcedureResult::UnknownSubscription)
                }
                _ => panic!("a failing device must not move data/voice"),
            }
        }
    }

    #[test]
    fn camped_device_does_not_reattach() {
        // With zero switch propensity, no re-registrations and full
        // coverage, exactly one successful attach (Auth+UL pair) happens;
        // everything else is RAU.
        let mut spec = meter_spec(4);
        spec.traffic.reauth_fraction = 0.0;
        let events = run(vec![spec], 7);
        let auths = events
            .iter()
            .filter(|e| {
                matches!(e, SimEvent::Signaling(s) if s.procedure == ProcedureType::Authentication)
            })
            .count();
        assert_eq!(auths, 1, "device should attach once and stay camped");
        let cancels = events
            .iter()
            .filter(|e| {
                matches!(e, SimEvent::Signaling(s) if s.procedure == ProcedureType::CancelLocation)
            })
            .count();
        assert_eq!(cancels, 0);
    }

    #[test]
    fn forced_switching_produces_cancel_location() {
        let mut spec = meter_spec(5);
        spec.switch_propensity = 1.0; // every event reselects
        let events = run(vec![spec], 7);
        let cancels = events
            .iter()
            .filter(|e| {
                matches!(e, SimEvent::Signaling(s) if s.procedure == ProcedureType::CancelLocation)
            })
            .count();
        assert!(cancels > 0, "constant reselection must produce switches");
        // Both UK networks must have been used.
        let visited: std::collections::HashSet<Plmn> = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::Signaling(s) if s.result.is_ok() => Some(s.visited),
                _ => None,
            })
            .collect();
        assert!(visited.contains(&MNO) && visited.contains(&OTHER));
    }

    #[test]
    fn every_sector_belongs_to_its_visited_network() {
        // A stationary meter that reselects on every signaling wake: its
        // data wakes take the fast path right after a switch at the same
        // position, so a sector remembered for the old network would
        // show up on the new one.
        let mut spec = meter_spec(5);
        spec.switch_propensity = 1.0;
        let events = run(vec![spec], 7);
        let mut data_sessions = 0;
        for e in &events {
            let (visited, sector) = match e {
                SimEvent::Signaling(s) => (s.visited, s.sector),
                SimEvent::Data(d) => {
                    data_sessions += 1;
                    (d.visited, Some(d.sector))
                }
                SimEvent::Voice(v) => (v.visited, Some(v.sector)),
            };
            if let Some(sector) = sector {
                assert_eq!(
                    sector.plmn_key(),
                    visited.packed(),
                    "sector of another network in {e:?}"
                );
            }
        }
        assert!(data_sessions > 0, "no data session to check");
    }

    #[test]
    fn presence_window_bounds_activity() {
        let mut spec = meter_spec(6);
        spec.presence = PresenceModel {
            first_day: 2,
            last_day: 4,
            daily_active_prob: 1.0,
        };
        let events = run(vec![spec], 7);
        assert!(!events.is_empty());
        for e in &events {
            let d = e.time().day().0;
            assert!((2..4).contains(&d), "event on day {d}");
        }
    }

    #[test]
    fn itinerary_changes_country_and_network() {
        let es_geom = CountryGeometry::of(Country::by_iso("ES").unwrap());
        let mut dir = directory();
        dir.add(
            "ES",
            RadioNetwork::new(
                Plmn::of(214, 7),
                RatSet::CONVENTIONAL,
                es_geom,
                GridSpacing::default(),
                CoverageFaults::NONE,
            ),
        );
        let mut spec = meter_spec(7);
        spec.vertical = Vertical::ConnectedCar;
        spec.traffic = TrafficProfile::for_vertical(Vertical::ConnectedCar);
        spec.radio_caps = RatSet::CONVENTIONAL;
        spec.itinerary = vec![
            ItineraryLeg {
                from_day: 0,
                country_iso: "GB".into(),
                mobility: MobilityModel::stationary_in(&uk_geom(), 7),
            },
            ItineraryLeg {
                from_day: 3,
                country_iso: "ES".into(),
                mobility: MobilityModel::stationary_in(&es_geom, 7),
            },
        ];
        let world = RoamingWorld::new(dir, Box::new(AllowAllPolicy), VecSink::default());
        let mut engine = Engine::new(world, SimTime::from_secs(6 * 86_400));
        engine.add_agent(DeviceAgent::new(spec, 99));
        let events = engine.run().sink.events;
        let countries: std::collections::HashSet<u16> = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::Signaling(s) if s.result.is_ok() => Some(s.visited.mcc.value()),
                _ => None,
            })
            .collect();
        assert!(countries.contains(&234), "no UK activity");
        assert!(countries.contains(&214), "no ES activity after the move");
    }

    #[test]
    fn leg_at_selects_correct_segment() {
        let spec = {
            let mut s = meter_spec(8);
            s.itinerary = vec![
                ItineraryLeg {
                    from_day: 0,
                    country_iso: "GB".into(),
                    mobility: MobilityModel::stationary_in(&uk_geom(), 1),
                },
                ItineraryLeg {
                    from_day: 5,
                    country_iso: "ES".into(),
                    mobility: MobilityModel::stationary_in(&uk_geom(), 2),
                },
            ];
            s
        };
        assert_eq!(spec.leg_at(Day(0)).country_iso, "GB");
        assert_eq!(spec.leg_at(Day(4)).country_iso, "GB");
        assert_eq!(spec.leg_at(Day(5)).country_iso, "ES");
        assert_eq!(spec.leg_at(Day(9)).country_iso, "ES");
        assert_eq!(spec.countries_visited(), 2);
    }

    #[test]
    fn daily_active_prob_thins_activity() {
        let mut always = meter_spec(9);
        always.presence = PresenceModel::always(14);
        let mut flaky = meter_spec(9);
        flaky.presence = PresenceModel {
            first_day: 0,
            last_day: 14,
            daily_active_prob: 0.3,
        };
        let active_days = |events: &[SimEvent]| {
            events
                .iter()
                .map(|e| e.time().day().0)
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        let a = active_days(&run(vec![always], 14));
        let f = active_days(&run(vec![flaky], 14));
        assert_eq!(a, 14);
        assert!(f < 12, "flaky device active {f}/14 days");
    }
}
