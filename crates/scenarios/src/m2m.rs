//! The M2M platform scenario (§3): the 11-day, four-HMNO global IoT SIM
//! population, observed by the HMNO-side 4G signaling probe.
//!
//! Calibration targets (all from §3.2–§3.3, checked in EXPERIMENTS.md):
//!
//! * HMNO device shares ES 52.3% / MX 42.2% / AR 4.7% / DE ≈0.8%;
//! * ES SIMs roam in ~76 countries; MX ≈90% at home; AR almost all home;
//!   DE (connected cars) few devices but many VMNOs;
//! * 40% of ES devices only ever fail 4G procedures;
//! * long-tailed records-per-device (mean ≈ 267 over 11 days, roaming
//!   median ≈ 10× native);
//! * VMNOs per roaming device: ~65% one, ~25% two, ~5% three or more;
//! * inter-VMNO switches: ~50% ≤2 total, ~20% ≥daily, ~3% extreme.

use crate::universe::Universe;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use wtr_model::country::{Country, Region};
use wtr_model::hash::{anonymize_u64, AnonKey};
use wtr_model::ids::{Imei, Plmn, Tac};
use wtr_model::operators::well_known;
use wtr_model::rat::RatSet;
use wtr_model::time::SimTime;
use wtr_model::vertical::Vertical;
use wtr_platform::platform::M2mPlatform;
use wtr_probes::m2m::M2mProbe;
use wtr_probes::records::M2mTransaction;
use wtr_radio::network::CoverageFaults;
use wtr_sim::behavior::BehaviorMatrix;
use wtr_sim::device::{DeviceAgent, DeviceSpec, ItineraryLeg, PresenceModel};
use wtr_sim::events::ProcedureResult;
use wtr_sim::mobility::MobilityModel;
use wtr_sim::rng::SubstreamRng;
use wtr_sim::shard;
use wtr_sim::traffic::{DiurnalShape, TrafficProfile, VolumeDist};
use wtr_sim::world::RoamingWorld;

/// Scenario parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct M2mScenarioConfig {
    /// Number of IoT SIMs (paper: 120 000; default 1/10 scale).
    pub devices: usize,
    /// Observation window in days (paper: 11).
    pub days: u32,
    /// Master seed.
    pub seed: u64,
    /// Fraction of 4G grid cells without coverage (drives 4G attach
    /// failures and RAT fallback).
    pub g4_hole_fraction: f64,
}

impl Default for M2mScenarioConfig {
    fn default() -> Self {
        M2mScenarioConfig {
            devices: 12_000,
            days: 11,
            seed: 0x524f414d, // "ROAM"
            g4_hole_fraction: 0.05,
        }
    }
}

/// Hidden per-device truth for validation and tests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct M2mGroundTruth {
    /// Issuing HMNO.
    pub hmno: Plmn,
    /// Whether the device's itinerary ever leaves the HMNO country.
    pub roams: bool,
    /// Whether the device was provisioned to always fail (the §3.3 40%).
    pub sticky_failure: bool,
    /// Countries on the itinerary.
    pub countries: Vec<String>,
}

/// Scenario output: the probe's transaction log plus hidden truth.
#[derive(Debug, Clone)]
pub struct M2mScenarioOutput {
    /// The §3.1-schema transaction log, time-ordered.
    pub transactions: Vec<M2mTransaction>,
    /// Ground truth per anonymized device ID.
    pub ground_truth: BTreeMap<u64, M2mGroundTruth>,
    /// Total devices simulated.
    pub devices: usize,
    /// Window length.
    pub days: u32,
    /// Per-shard engine statistics in shard order, mirroring
    /// `MnoScenarioOutput::shard_stats` (see that field for the
    /// `peak_queue` sum-vs-max semantics).
    pub shard_stats: Vec<wtr_sim::engine::EngineStats>,
}

impl M2mScenarioOutput {
    /// Sum of the per-shard engine statistics ([`EngineStats::absorb`]:
    /// counters add, queue peaks keep both the sum and the per-shard
    /// max).
    ///
    /// [`EngineStats::absorb`]: wtr_sim::engine::EngineStats::absorb
    pub fn engine_stats(&self) -> wtr_sim::engine::EngineStats {
        let mut total = wtr_sim::engine::EngineStats::default();
        for s in &self.shard_stats {
            total.absorb(s);
        }
        total
    }
}

/// The §3 scenario builder/runner.
pub struct M2mScenario {
    config: M2mScenarioConfig,
    /// Per-vertical behavior overrides keyed by `Vertical::label()`,
    /// mirroring `MnoScenario`'s hook.
    behavior_overrides: BTreeMap<String, Arc<BehaviorMatrix>>,
}

/// Traffic profile of a platform IoT device: control-plane only (the probe
/// has no data/voice visibility anyway), frequent re-registrations.
fn platform_profile(signaling_per_day: f64, sigma: f64) -> TrafficProfile {
    TrafficProfile {
        signaling_per_day,
        per_device_sigma: sigma,
        data_sessions_per_day: 0.0,
        volume: VolumeDist {
            median_bytes: 0.0,
            sigma: 0.0,
            uplink_ratio: 0.5,
        },
        voice_per_day: 0.0,
        voice_is_call: false,
        call_duration_mean_secs: 0.0,
        diurnal: DiurnalShape::Flat,
        reauth_fraction: 0.7,
    }
}

impl M2mScenario {
    /// Creates a scenario.
    pub fn new(config: M2mScenarioConfig) -> Self {
        M2mScenario {
            config,
            behavior_overrides: BTreeMap::new(),
        }
    }

    /// Installs per-vertical behavior overrides (see
    /// `MnoScenario::with_behavior_overrides`).
    pub fn with_behavior_overrides(
        mut self,
        overrides: BTreeMap<String, Arc<BehaviorMatrix>>,
    ) -> Self {
        self.behavior_overrides = overrides;
        self
    }

    /// Builds the universe, simulates, and returns the captured dataset.
    pub fn run(&self) -> M2mScenarioOutput {
        let cfg = &self.config;
        let faults = CoverageFaults {
            hole_fraction_g2: 0.0,
            hole_fraction_g3: 0.01,
            hole_fraction_g4: cfg.g4_hole_fraction,
            hole_fraction_nbiot: cfg.g4_hole_fraction,
            salt: cfg.seed,
        };
        let mut universe = Universe::standard(faults);
        let mut rng = SubstreamRng::derive(cfg.seed, 0xA11);

        // Destination pools. The platform's commercial footprint for ES
        // SIMs spans 76 countries (§3.2) — the pool is capped there.
        let es_destinations: Vec<String> = destination_pool("ES").into_iter().take(76).collect();
        let latam_destinations: Vec<String> = Country::in_region(Region::LatinAmerica)
            .filter(|c| c.iso != "MX" && c.iso != "AR")
            .map(|c| c.iso.to_owned())
            .collect();
        let eu_destinations: Vec<String> = Country::in_region(Region::Europe)
            .filter(|c| c.iso != "DE")
            .map(|c| c.iso.to_owned())
            .collect();

        let mut specs: Vec<DeviceSpec> = Vec::with_capacity(cfg.devices);
        let mut truths: Vec<M2mGroundTruth> = Vec::with_capacity(cfg.devices);
        for index in 0..cfg.devices as u64 {
            let hmno_pick = rng.weighted_index(&[0.523, 0.008, 0.422, 0.047]);
            let (hmno, home_iso) = match hmno_pick {
                0 => (well_known::ES_HMNO, "ES"),
                1 => (well_known::DE_HMNO, "DE"),
                2 => (well_known::MX_HMNO, "MX"),
                _ => (well_known::AR_HMNO, "AR"),
            };
            let provision = universe
                .platform
                .provision(hmno)
                .expect("HMNO is a platform member");

            let (spec, truth) = match hmno_pick {
                0 => self.spanish_device(
                    index,
                    provision.imsi.plmn(),
                    provision.imsi.msin(),
                    home_iso,
                    &es_destinations,
                    &mut rng,
                ),
                1 => self.german_car(
                    index,
                    provision.imsi.plmn(),
                    provision.imsi.msin(),
                    home_iso,
                    &eu_destinations,
                    &mut rng,
                ),
                2 => self.latam_device(
                    index,
                    provision.imsi.plmn(),
                    provision.imsi.msin(),
                    home_iso,
                    &latam_destinations,
                    0.10,
                    &mut rng,
                ),
                _ => self.latam_device(
                    index,
                    provision.imsi.plmn(),
                    provision.imsi.msin(),
                    home_iso,
                    &latam_destinations,
                    0.03,
                    &mut rng,
                ),
            };
            specs.push(spec);
            truths.push(truth);
        }

        // Attach a shard-local probe to each shard's world and run. Each
        // shard observes a disjoint slice of the device population, so
        // concatenating the per-shard transaction logs in shard order and
        // stable-sorting on (time, device) reproduces the serial log
        // exactly: any ties within one (time, device) key come from a
        // single device, whose own event order every shard preserves.
        let watched: Vec<wtr_model::ids::ImsiRange> = universe
            .platform
            .hmnos()
            .iter()
            .map(|h| M2mPlatform::m2m_range(*h))
            .collect();
        let horizon = SimTime::from_secs(cfg.days as u64 * 86_400);
        let mut ground_truth = BTreeMap::new();
        let agents: Vec<DeviceAgent> = specs
            .into_iter()
            .zip(truths)
            .map(|(spec, truth)| {
                let anon = anonymize_u64(AnonKey::FIXED, spec.imsi.packed());
                ground_truth.insert(anon, truth);
                match self.behavior_overrides.get(spec.vertical.label()) {
                    Some(matrix) => DeviceAgent::with_behavior(spec, Arc::clone(matrix), cfg.seed)
                        .expect("platform specs are valid"),
                    None => DeviceAgent::new(spec, cfg.seed),
                }
            })
            .collect();
        let directory = universe.directory;
        let policy = universe.policy;
        let results = shard::run_sharded(horizon, shard::shard_count(None), agents, |_shard| {
            let probe = M2mProbe::new(watched.clone(), AnonKey::FIXED);
            RoamingWorld::new(directory.clone(), Box::new(policy.clone()), probe, cfg.seed)
        });
        let mut transactions: Vec<M2mTransaction> = Vec::new();
        let mut shard_stats = Vec::with_capacity(results.len());
        for (world, stats) in results {
            transactions.extend(world.sink.transactions);
            shard_stats.push(stats);
        }
        transactions.sort_by_key(|t| (t.time, t.device));
        M2mScenarioOutput {
            transactions,
            ground_truth,
            devices: cfg.devices,
            days: cfg.days,
            shard_stats,
        }
    }

    /// ES devices: 18% native, 82% roaming across a 76-country Zipf; 40%
    /// sticky-failing; a small extreme-switching population.
    #[allow(clippy::too_many_arguments)]
    fn spanish_device(
        &self,
        index: u64,
        hmno: Plmn,
        msin: u64,
        home_iso: &str,
        destinations: &[String],
        rng: &mut SubstreamRng,
    ) -> (DeviceSpec, M2mGroundTruth) {
        let roams = rng.chance(0.82);
        let sticky = rng.chance(0.40);
        // Mobility cohorts couple footprint with switching (Fig. 3-center
        // and Fig. 3-right are views of the same population): single-VMNO
        // devices neither travel nor reselect; frequent switchers travel.
        let (n_countries, switch_propensity) = if !roams {
            (1, 0.0)
        } else {
            match rng.weighted_index(&[0.50, 0.40, 0.08, 0.02]) {
                0 => (1, 0.0),
                1 => (1, 0.008),
                2 => (2, 0.09),
                _ => (1 + rng.index(3), 0.9),
            }
        };
        let countries = if roams {
            let n = if sticky && rng.chance(0.05) {
                // A rare misprovisioned tail hunts across many countries
                // (max attempted VMNOs ≈ 19 in the paper).
                6 + rng.index(3)
            } else {
                n_countries
            };
            pick_countries(destinations, n, rng)
        } else {
            vec![home_iso.to_owned()]
        };
        // Roaming devices re-register ~10× more than native ones (§3.2).
        let profile = if roams {
            platform_profile(17.0, 1.0)
        } else {
            platform_profile(1.4, 0.8)
        };
        let spec = self.spec(
            index,
            hmno,
            msin,
            &countries,
            profile,
            switch_propensity,
            sticky.then(|| sample_sticky_result(rng)),
            rng,
        );
        let truth = M2mGroundTruth {
            hmno,
            roams,
            sticky_failure: sticky,
            countries,
        };
        (spec, truth)
    }

    /// DE devices: ~1k connected cars with high multi-country mobility.
    #[allow(clippy::too_many_arguments)]
    fn german_car(
        &self,
        index: u64,
        hmno: Plmn,
        msin: u64,
        home_iso: &str,
        destinations: &[String],
        rng: &mut SubstreamRng,
    ) -> (DeviceSpec, M2mGroundTruth) {
        let mut countries = vec![home_iso.to_owned()];
        countries.extend(pick_countries(destinations, 1 + rng.index(4), rng));
        let spec = self.spec(
            index,
            hmno,
            msin,
            &countries,
            platform_profile(20.0, 0.9),
            0.08,
            None,
            rng,
        );
        let truth = M2mGroundTruth {
            hmno,
            roams: true,
            sticky_failure: false,
            countries,
        };
        (spec, truth)
    }

    /// MX/AR devices: mostly at home (regional roaming restrictions).
    #[allow(clippy::too_many_arguments)]
    fn latam_device(
        &self,
        index: u64,
        hmno: Plmn,
        msin: u64,
        home_iso: &str,
        destinations: &[String],
        roam_prob: f64,
        rng: &mut SubstreamRng,
    ) -> (DeviceSpec, M2mGroundTruth) {
        let roams = rng.chance(roam_prob);
        let countries = if roams {
            pick_countries(destinations, 1 + rng.index(2), rng)
        } else {
            vec![home_iso.to_owned()]
        };
        let profile = if roams {
            platform_profile(12.0, 0.9)
        } else {
            platform_profile(2.5, 0.8)
        };
        let spec = self.spec(index, hmno, msin, &countries, profile, 0.0, None, rng);
        let truth = M2mGroundTruth {
            hmno,
            roams,
            sticky_failure: false,
            countries,
        };
        (spec, truth)
    }

    #[allow(clippy::too_many_arguments)]
    fn spec(
        &self,
        index: u64,
        hmno: Plmn,
        msin: u64,
        countries: &[String],
        traffic: TrafficProfile,
        switch_propensity: f64,
        sticky_failure: Option<ProcedureResult>,
        rng: &mut SubstreamRng,
    ) -> DeviceSpec {
        let days = self.config.days;
        let itinerary = build_itinerary(countries, days, index);
        let imsi = wtr_model::ids::Imsi::new(hmno, msin).expect("platform MSINs valid");
        let tac = Tac::new(35_000_000 + (index % 28) as u32 / 4 * 10_000 + index as u32 % 4)
            .expect("valid module TAC");
        DeviceSpec {
            index,
            imsi,
            imei: Imei::new(tac, (index % 1_000_000) as u32).expect("valid IMEI"),
            vertical: Vertical::IndustrialSensor,
            radio_caps: RatSet::CONVENTIONAL,
            apns: Vec::new(),
            data_enabled: false,
            voice_enabled: false,
            traffic,
            presence: PresenceModel {
                first_day: 0,
                last_day: days,
                daily_active_prob: if rng.chance(0.9) { 0.95 } else { 0.6 },
            },
            itinerary,
            switch_propensity,
            event_failure_prob: 0.01,
            sticky_failure,
        }
    }
}

/// Ordered destination pool for a home country: every other country,
/// nearest regions first (deterministic), so Zipf weighting concentrates
/// devices in a handful of countries as Fig. 2 shows.
fn destination_pool(home_iso: &str) -> Vec<String> {
    let mut pool: Vec<&Country> = Country::all()
        .iter()
        .filter(|c| c.iso != home_iso)
        .collect();
    // Europe first (the platform's dominant footprint), then the rest in
    // registry order.
    pool.sort_by_key(|c| match c.region {
        Region::Europe => 0,
        Region::LatinAmerica => 1,
        Region::NorthAmerica => 2,
        Region::AsiaPacific => 3,
        Region::MiddleEast => 4,
        Region::Africa => 5,
    });
    pool.into_iter().map(|c| c.iso.to_owned()).collect()
}

/// Draws `n` distinct countries from `pool` with Zipf(1.05) popularity.
fn pick_countries(pool: &[String], n: usize, rng: &mut SubstreamRng) -> Vec<String> {
    let weights = SubstreamRng::zipf_weights(pool.len(), 1.25);
    let mut picked: Vec<String> = Vec::new();
    let mut guard = 0;
    while picked.len() < n.min(pool.len()) && guard < 1_000 {
        guard += 1;
        let idx = rng.weighted_index(&weights);
        let iso = &pool[idx];
        if !picked.contains(iso) {
            picked.push(iso.clone());
        }
    }
    picked
}

/// Splits the window evenly across the itinerary countries.
fn build_itinerary(countries: &[String], days: u32, seed: u64) -> Vec<ItineraryLeg> {
    let n = countries.len().max(1) as u32;
    let span = (days / n).max(1);
    countries
        .iter()
        .enumerate()
        .map(|(i, iso)| {
            let geometry = Universe::geometry(iso);
            ItineraryLeg {
                from_day: i as u32 * span,
                country_iso: iso.clone(),
                mobility: MobilityModel::stationary_in(&geometry, seed.wrapping_add(i as u64)),
            }
        })
        .collect()
}

fn sample_sticky_result(rng: &mut SubstreamRng) -> ProcedureResult {
    match rng.weighted_index(&[0.5, 0.3, 0.2]) {
        0 => ProcedureResult::RoamingNotAllowed,
        1 => ProcedureResult::UnknownSubscription,
        _ => ProcedureResult::FeatureUnsupported,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> M2mScenarioOutput {
        M2mScenario::new(M2mScenarioConfig {
            devices: 600,
            days: 5,
            seed: 7,
            g4_hole_fraction: 0.05,
        })
        .run()
    }

    #[test]
    fn produces_transactions_for_most_devices() {
        let out = small();
        assert!(!out.transactions.is_empty());
        let devices: std::collections::HashSet<u64> =
            out.transactions.iter().map(|t| t.device).collect();
        // Most devices should surface in the 4G log (some 2G/3G-fallback
        // days are invisible, as in the paper).
        assert!(
            devices.len() > out.devices / 2,
            "{} of {}",
            devices.len(),
            out.devices
        );
    }

    #[test]
    fn hmno_shares_close_to_paper() {
        let out = small();
        let mut by_hmno: BTreeMap<u16, usize> = BTreeMap::new();
        for t in &out.ground_truth {
            *by_hmno.entry(t.1.hmno.mcc.value()).or_insert(0) += 1;
        }
        let total = out.ground_truth.len() as f64;
        let es = by_hmno[&214] as f64 / total;
        let mx = by_hmno[&334] as f64 / total;
        assert!((0.45..0.60).contains(&es), "ES share {es}");
        assert!((0.35..0.50).contains(&mx), "MX share {mx}");
    }

    #[test]
    fn transactions_time_ordered() {
        let out = small();
        assert!(out.transactions.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.transactions.len(), b.transactions.len());
        assert_eq!(a.transactions.first(), b.transactions.first());
        assert_eq!(a.transactions.last(), b.transactions.last());
    }

    #[test]
    fn sticky_devices_never_succeed() {
        let out = small();
        for (device, truth) in &out.ground_truth {
            if truth.sticky_failure {
                assert!(
                    out.transactions
                        .iter()
                        .filter(|t| t.device == *device)
                        .all(|t| !t.result.is_ok()),
                    "sticky device {device} has a successful transaction"
                );
            }
        }
    }

    #[test]
    fn mx_devices_mostly_at_home() {
        let out = small();
        let (mut home, mut total) = (0usize, 0usize);
        for truth in out.ground_truth.values() {
            if truth.hmno == well_known::MX_HMNO {
                total += 1;
                if !truth.roams {
                    home += 1;
                }
            }
        }
        assert!(total > 0);
        let frac = home as f64 / total as f64;
        assert!(frac > 0.8, "MX home fraction {frac}");
    }
}
