//! The visited-MNO scenario (§4–§7): one UK operator's full device
//! population over 22 days, collected through the MNO probe into the daily
//! devices-catalog.
//!
//! ## Population plan
//!
//! Device-level fractions of the requested device count, each calibrated
//! to a paper statistic (the target column names it; EXPERIMENTS.md
//! records measured values). `PopulationBuilder::build` rounds each
//! sub-population's count on its own:
//!
//! | sub-population | fraction | target |
//! |---|---|---|
//! | smartphones, native H SIM | 0.270 | §4.2 H:H ≈ 48%/day |
//! | smartphones, MVNO V SIM | 0.250 | §4.2 V:H ≈ 33%/day |
//! | smartphones, outbound legs | 0.010 | H:A rows exist |
//! | smartphones, inbound tourists | 0.080 | Fig. 6: 12.1% of smart are I:H |
//! | feature phones, native | 0.045 | 8% feat overall |
//! | feature phones, MVNO | 0.025 | |
//! | feature phones, inbound | 0.005 | Fig. 6: 6.4% of feat are I:H |
//! | smart meters, inbound (NL SIMs) | 0.125 | §4.4 SMIP roaming; Fig. 5 NL top |
//! | connected cars, inbound (DE SIMs) | 0.020 | §7.2 |
//! | asset trackers, inbound (SE SIMs) | 0.025 | Fig. 5 SE |
//! | other M2M, inbound (ES + tail) | 0.034 | Fig. 5 ES; long tail |
//! | smart meters, native SMIP (dedicated IMSI range) | 0.040 | §4.4 |
//! | industrial sensors, native | 0.021 | m2m H:H remainder |
//! | security alarms, voice-only (no APN) | 0.040 | §4.3 m2m-maybe ≈ 4% |
//!
//! Totals: the fractions sum to 0.990, so 2,500 requested devices
//! simulate 2,478. By ground truth those are 61.5% smartphones (1,525),
//! 7.6% feature phones (189) and 30.8% M2M (764: 26.8% classifiable +
//! 4.0% voice-only). Inbound M2M is 77.0% of the classifiable M2M (paper
//! 74.7%), and the inbound devices are 70.6% M2M / 27.6% smartphones
//! (the paper's I:H composition is 71.1/27.1).

use crate::universe::Universe;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use wtr_model::apn::Apn;
use wtr_model::country::Country;
use wtr_model::hash::{anonymize_u64, AnonKey};
use wtr_model::ids::{Imei, Imsi, ImsiRange, Plmn, Tac};
use wtr_model::operators::well_known;
use wtr_model::rat::RatSet;
use wtr_model::tacdb::TacDatabase;
use wtr_model::time::SimTime;
use wtr_model::vertical::Vertical;
use wtr_probes::catalog::DevicesCatalog;
use wtr_probes::faults::LossySink;
use wtr_probes::mno::MnoProbe;
use wtr_radio::network::{CoverageFaults, RadioNetwork};
use wtr_radio::sector::GridSpacing;
use wtr_sim::behavior::Behavior;
use wtr_sim::device::{DeviceAgent, DeviceSpec, ItineraryLeg, PresenceModel};
use wtr_sim::engine::EngineStats;
use wtr_sim::mobility::MobilityModel;
use wtr_sim::rng::SubstreamRng;
use wtr_sim::shard;
use wtr_sim::traffic::TrafficProfile;
use wtr_sim::world::RoamingWorld;

/// The studied MNO's dedicated SMIP IMSI block (§4.4).
pub const SMIP_MSIN_BASE: u64 = 7_000_000_000;
/// Capacity of the SMIP block.
pub const SMIP_MSIN_CAPACITY: u64 = 1_000_000_000;

/// Scenario parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MnoScenarioConfig {
    /// Number of devices (paper: 39.6M; default ≈1/2000 scale).
    pub devices: usize,
    /// Observation window in days (paper: 22).
    pub days: u32,
    /// Master seed.
    pub seed: u64,
    /// Fraction of inbound smart meters shipped with NB-IoT (instead of
    /// 2G) modules — the §8 what-if. 0 reproduces the paper's 2019
    /// population; raise it to study the post-LPWA-migration world (the
    /// `repro` harness's E20).
    pub nbiot_meter_fraction: f64,
    /// Retire 2G across every UK network — the §6.1/§8 sunset what-if
    /// ("some MNOs already shutdown 2G services"). 2G-only hardware is
    /// stranded; the E23 experiment measures how much of the M2M
    /// population vanishes.
    pub sunset_2g_uk: bool,
    /// The GSMA-transparency what-if (§1): the Dutch meter HMNO publishes
    /// its dedicated M2M IMSI range, letting the studied MNO tag those
    /// SIMs at collection time with no classification inference at all.
    pub gsma_transparency: bool,
    /// Fraction of probe records lost before aggregation (probe restarts,
    /// buffer overruns). The analysis pipeline's shares must degrade
    /// gracefully under loss — asserted by the robustness tests.
    pub record_loss_fraction: f64,
}

impl Default for MnoScenarioConfig {
    fn default() -> Self {
        MnoScenarioConfig {
            devices: 20_000,
            days: 22,
            seed: 0x57524f41, // "WROA"
            nbiot_meter_fraction: 0.0,
            sunset_2g_uk: false,
            gsma_transparency: false,
            record_loss_fraction: 0.0,
        }
    }
}

/// Scenario output: the devices-catalog plus hidden ground truth.
#[derive(Debug)]
pub struct MnoScenarioOutput {
    /// The daily devices-catalog the probe built.
    pub catalog: DevicesCatalog,
    /// Ground-truth vertical per anonymized device ID (validation only).
    pub ground_truth: BTreeMap<u64, Vertical>,
    /// The GSMA-like TAC catalog (the classifier's device-property input).
    pub tacdb: TacDatabase,
    /// The studied MNO's dedicated SMIP IMSI range.
    pub smip_range: ImsiRange,
    /// Window length in days.
    pub days: u32,
    /// Raw probe record counters: (radio events, CDRs, xDRs).
    pub record_counts: (u64, u64, u64),
    /// Per-day load on the monitored core elements (MME/SGSN/MSC/…).
    pub element_load: Vec<wtr_probes::mno::ElementLoad>,
    /// Per-shard engine statistics (agents, wake-ups scheduled and
    /// dispatched, queue high-water mark), in shard order — one entry
    /// per event loop the run used. A serial run has exactly one entry;
    /// spread in `dispatched` across entries shows shard imbalance.
    pub shard_stats: Vec<EngineStats>,
}

impl MnoScenarioOutput {
    /// Sum of the per-shard engine statistics ([`EngineStats::absorb`]).
    /// Counters are additive across shards; the queue high-water mark is
    /// `peak_queue_max`, the deepest single event loop and the figure
    /// the CLI summary prints.
    pub fn engine_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for s in &self.shard_stats {
            total.absorb(s);
        }
        total
    }
}

/// The §4–§7 scenario builder/runner.
pub struct MnoScenario {
    config: MnoScenarioConfig,
    /// Per-vertical behavior overrides keyed by [`Vertical::label`]:
    /// devices of a listed vertical step the supplied behavior instead of
    /// their spec's own (the `--behavior` CLI path).
    behavior_overrides: BTreeMap<String, Behavior>,
}

const UK: Plmn = well_known::UK_STUDIED_MNO;

impl MnoScenario {
    /// Creates a scenario.
    pub fn new(config: MnoScenarioConfig) -> Self {
        MnoScenario {
            config,
            behavior_overrides: BTreeMap::new(),
        }
    }

    /// Installs per-vertical behavior overrides (validated behaviors keyed
    /// by [`Vertical::label`], e.g. loaded from a `--behavior` file).
    /// Verticals absent from the map keep their spec's own behavior.
    pub fn with_behavior_overrides(mut self, overrides: BTreeMap<String, Behavior>) -> Self {
        self.behavior_overrides = overrides;
        self
    }

    /// The studied MNO's dedicated smart-meter IMSI range.
    pub fn smip_range() -> ImsiRange {
        ImsiRange::new(UK, SMIP_MSIN_BASE, SMIP_MSIN_BASE + SMIP_MSIN_CAPACITY)
            .expect("constant range valid")
    }

    /// Builds, simulates and collects the catalog.
    ///
    /// The agent population is dealt into `wtr_sim::par::threads()`
    /// shards, each simulated on its own event loop (see
    /// [`MnoScenario::run_sharded`]). Output is byte-identical at any
    /// shard count, so the default simply follows the `WTR_THREADS` /
    /// `par::set_threads` worker knob.
    pub fn run(&self) -> MnoScenarioOutput {
        self.run_sharded(shard::shard_count(None))
    }

    /// [`run`](MnoScenario::run) with an explicit shard count: the device
    /// population is dealt round-robin into `shards` shards
    /// ([`wtr_sim::shard::run_sharded`]: device `i` to shard `i % shards`,
    /// so every device class spreads evenly), each runs its own engine
    /// with a shard-local probe behind a shard-local [`LossySink`], and
    /// the shard probes fold left to right through `MnoProbe::absorb`,
    /// followed by APN-symbol canonicalization. `shards == 1` *is* the
    /// serial path: one engine, inline on the calling thread.
    ///
    /// The fold equals the serial run at any shard count and for any
    /// deal: shard probes tap disjoint device populations, so catalog
    /// rows never collide across shards (no floating-point regrouping),
    /// counters are additive, and the canonicalization erases the APN
    /// intern order the fold leaves.
    ///
    /// Output — catalog bytes, ground truth, record counts, element
    /// load — is byte-identical at every shard count; the shard-count
    /// determinism matrix in `tests/shard_determinism.rs` enforces it.
    pub fn run_sharded(&self, shards: usize) -> MnoScenarioOutput {
        let cfg = &self.config;
        let faults = CoverageFaults {
            hole_fraction_g2: 0.0,
            hole_fraction_g3: 0.12,
            hole_fraction_g4: 0.04,
            hole_fraction_nbiot: 0.04,
            salt: cfg.seed,
        };
        let mut universe = Universe::standard(faults);
        if cfg.sunset_2g_uk {
            universe.sunset_rat("GB", wtr_model::rat::Rat::G2);
        }
        let tacdb = TacDatabase::standard();
        let mut rng = SubstreamRng::derive(cfg.seed, 0xB22);
        let mut builder = PopulationBuilder {
            cfg,
            tacdb: &tacdb,
            rng: &mut rng,
            next_msin: HashMap::new(),
            specs: Vec::with_capacity(cfg.devices),
            truth: Vec::with_capacity(cfg.devices),
        };
        builder.build();
        let PopulationBuilder { specs, truth, .. } = builder;

        let home_network = RadioNetwork::new(
            UK,
            RatSet::CONVENTIONAL,
            Universe::geometry("GB"),
            GridSpacing::default(),
            faults,
        );
        let mut probe = MnoProbe::new(
            UK,
            universe.registry.clone(),
            home_network,
            AnonKey::FIXED,
            cfg.days,
        )
        .with_designated_range(Self::smip_range());
        if cfg.gsma_transparency {
            // The NL meter HMNO's published block: same 5_000_000_000-base
            // convention the M2M platform uses for dedicated ranges.
            probe = probe.with_published_m2m_range(
                ImsiRange::new(
                    well_known::NL_SMART_METER_HMNO,
                    5_000_000_000,
                    6_000_000_000,
                )
                .expect("constant range valid"),
            );
        }
        let horizon = SimTime::from_secs(cfg.days as u64 * 86_400);
        let mut ground_truth = BTreeMap::new();
        let agents: Vec<DeviceAgent> = specs
            .into_iter()
            .zip(truth)
            .map(|(spec, vertical)| {
                ground_truth.insert(anonymize_u64(AnonKey::FIXED, spec.imsi.packed()), vertical);
                match self.behavior_overrides.get(spec.vertical.label()) {
                    Some(behavior) => DeviceAgent::with_behavior(spec, behavior.clone(), cfg.seed)
                        .expect("population specs are valid"),
                    None => DeviceAgent::new(spec, cfg.seed),
                }
            })
            .collect();
        // Each shard gets its own world: a clone of the directory and
        // agreement graph (its access policy), plus a fresh empty probe forked from the
        // prototype. Probe records can be lossy (fault injection): each
        // shard wraps its probe in a shard-local LossySink so a configured
        // fraction never reaches aggregation. The drop coin is keyed on
        // (salt, device, per-device seq), so the dropped-record set is
        // identical across shard counts.
        let directory = universe.directory;
        let agreements = universe.agreements;
        let probe_proto = probe;
        let results = shard::run_sharded(horizon, shards, agents, |_shard| {
            let lossy =
                LossySink::new(probe_proto.fork_empty(), cfg.record_loss_fraction, cfg.seed);
            RoamingWorld::new(directory.clone(), Box::new(agreements.clone()), lossy)
        });
        // Fold the shard probes in shard order, then canonicalize APN
        // symbols: the only interleaving-dependent state is the intern
        // order, which canonicalization erases.
        let mut shard_stats = Vec::with_capacity(results.len());
        let mut shard_probes = results.into_iter().map(|(world, stats)| {
            shard_stats.push(stats);
            world.sink.into_inner()
        });
        let mut probe = shard_probes.next().expect("at least one shard");
        for shard_probe in shard_probes {
            probe.absorb(shard_probe);
        }
        probe.canonicalize();
        let record_counts = (
            probe.radio_event_count(),
            probe.cdr_count(),
            probe.xdr_count(),
        );
        let element_load = probe.element_load().to_vec();
        MnoScenarioOutput {
            catalog: probe.into_catalog(),
            ground_truth,
            tacdb,
            smip_range: Self::smip_range(),
            days: cfg.days,
            record_counts,
            element_load,
            shard_stats,
        }
    }
}

/// Internal helper assembling the device population.
struct PopulationBuilder<'a> {
    cfg: &'a MnoScenarioConfig,
    tacdb: &'a TacDatabase,
    rng: &'a mut SubstreamRng,
    next_msin: HashMap<u32, u64>,
    specs: Vec<DeviceSpec>,
    truth: Vec<Vertical>,
}

impl PopulationBuilder<'_> {
    fn build(&mut self) {
        let n = self.cfg.devices;
        let count = |f: f64| (n as f64 * f).round() as usize;
        self.smartphones_native(count(0.270), UK);
        self.smartphones_native(count(0.250), Plmn::of(234, 31)); // MVNO
        self.smartphones_outbound(count(0.010));
        self.smartphones_inbound(count(0.080));
        self.feature_phones(count(0.045), UK);
        self.feature_phones(count(0.025), Plmn::of(234, 32));
        self.feature_phones_inbound(count(0.005));
        self.meters_inbound(count(0.125));
        self.cars_inbound(count(0.020));
        self.trackers_inbound(count(0.025));
        self.other_m2m_inbound(count(0.034));
        self.meters_native_smip(count(0.040));
        self.sensors_native(count(0.021));
        self.alarms_voice_only(count(0.040));
    }

    fn alloc_imsi(&mut self, plmn: Plmn, base: u64) -> Imsi {
        let cursor = self.next_msin.entry(plmn.packed()).or_insert(0);
        let msin = base + *cursor;
        *cursor += 1;
        Imsi::new(plmn, msin).expect("MSIN within bounds")
    }

    fn tac_where<F: Fn(&wtr_model::tacdb::TacInfo) -> bool>(&mut self, pred: F) -> Tac {
        let mut tacs: Vec<Tac> = self
            .tacdb
            .iter()
            .filter(|e| pred(e))
            .map(|e| e.tac)
            .collect();
        tacs.sort();
        assert!(!tacs.is_empty(), "no TAC matches predicate");
        tacs[self.rng.index(tacs.len())]
    }

    fn push(&mut self, spec: DeviceSpec, vertical: Vertical) {
        self.specs.push(spec);
        self.truth.push(vertical);
    }

    fn next_index(&self) -> u64 {
        self.specs.len() as u64
    }

    /// Base spec with UK-local single-leg itinerary.
    #[allow(clippy::too_many_arguments)]
    fn base_spec(
        &mut self,
        imsi: Imsi,
        tac: Tac,
        vertical: Vertical,
        caps: RatSet,
        apns: Vec<Apn>,
        traffic: TrafficProfile,
        presence: PresenceModel,
        mobility: MobilityModel,
        country: &str,
    ) -> DeviceSpec {
        let index = self.next_index();
        DeviceSpec {
            index,
            imsi,
            imei: Imei::new(tac, (index % 1_000_000) as u32).expect("valid IMEI"),
            vertical,
            radio_caps: caps,
            apns,
            data_enabled: true,
            voice_enabled: true,
            traffic,
            presence,
            itinerary: vec![ItineraryLeg {
                from_day: 0,
                country_iso: country.to_owned(),
                mobility,
            }],
            switch_propensity: 0.0,
            event_failure_prob: 0.005,
            sticky_failure: None,
        }
    }

    fn smartphones_native(&mut self, count: usize, sim_plmn: Plmn) {
        let gb = Universe::geometry("GB");
        for _ in 0..count {
            let imsi = self.alloc_imsi(sim_plmn, 1_000_000_000);
            let tac = self.tac_where(|e| e.gsma_class == wtr_model::tacdb::GsmaClass::Smartphone);
            let caps = self.tacdb.get(tac).expect("allocated").rats;
            let seed = self.rng.rng_seed();
            // A slice of phone users never touches the data plane (part
            // of the paper's ~21% APN-less devices).
            let data_enabled = self.rng.chance(0.88);
            let mut spec = self.base_spec(
                imsi,
                tac,
                Vertical::Smartphone,
                caps,
                if data_enabled {
                    vec![
                        "payandgo.albion.gb".parse().unwrap(),
                        "internet.albion.gb".parse().unwrap(),
                    ]
                } else {
                    Vec::new()
                },
                TrafficProfile::for_vertical(Vertical::Smartphone),
                PresenceModel {
                    first_day: 0,
                    last_day: self.cfg.days,
                    daily_active_prob: 0.90,
                },
                MobilityModel::local_area_in(&gb, 0.15, seed),
                "GB",
            );
            spec.data_enabled = data_enabled;
            self.push(spec, Vertical::Smartphone);
        }
    }

    fn smartphones_outbound(&mut self, count: usize) {
        let gb = Universe::geometry("GB");
        for _ in 0..count {
            let imsi = self.alloc_imsi(UK, 1_500_000_000);
            let tac = self.tac_where(|e| e.gsma_class == wtr_model::tacdb::GsmaClass::Smartphone);
            let caps = self.tacdb.get(tac).expect("allocated").rats;
            let seed = self.rng.rng_seed();
            let mut spec = self.base_spec(
                imsi,
                tac,
                Vertical::Smartphone,
                caps,
                vec!["internet.albion.gb".parse().unwrap()],
                TrafficProfile::for_vertical(Vertical::Smartphone),
                PresenceModel {
                    first_day: 0,
                    last_day: self.cfg.days,
                    daily_active_prob: 0.90,
                },
                MobilityModel::local_area_in(&gb, 0.15, seed),
                "GB",
            );
            // A holiday abroad mid-window (→ H:A catalog rows via CDR/xDR
            // clearing).
            let away_start = 5 + self.rng.index(10) as u32;
            let away_len = 3 + self.rng.index(5) as u32;
            let dest = if self.rng.chance(0.6) { "ES" } else { "FR" };
            spec.itinerary = vec![
                ItineraryLeg {
                    from_day: 0,
                    country_iso: "GB".into(),
                    mobility: MobilityModel::local_area_in(&gb, 0.15, seed),
                },
                ItineraryLeg {
                    from_day: away_start,
                    country_iso: dest.into(),
                    mobility: MobilityModel::local_area_in(
                        &Universe::geometry(dest),
                        0.1,
                        seed ^ 1,
                    ),
                },
                ItineraryLeg {
                    from_day: (away_start + away_len).min(self.cfg.days),
                    country_iso: "GB".into(),
                    mobility: MobilityModel::local_area_in(&gb, 0.15, seed ^ 2),
                },
            ];
            // Clamping the return leg to the window end can reorder legs
            // when the holiday starts after the window closes; those legs
            // are unreachable (every simulated day is < `days`), so the
            // stable sort restores the spec's sorted-itinerary invariant
            // without changing which leg any day resolves to.
            spec.itinerary.sort_by_key(|leg| leg.from_day);
            self.push(spec, Vertical::Smartphone);
        }
    }

    fn smartphones_inbound(&mut self, count: usize) {
        let gb = Universe::geometry("GB");
        // Tourists' home countries: broad Zipf — top-3 ≈ 17% of smart
        // inbound (Fig. 5-bottom).
        let homes: Vec<&Country> = Country::all().iter().filter(|c| c.iso != "GB").collect();
        let weights = SubstreamRng::zipf_weights(homes.len(), 0.9);
        for _ in 0..count {
            let home = homes[self.rng.weighted_index(&weights)];
            let home_plmn = Plmn::new(
                home.primary_mcc(),
                wtr_model::ids::Mnc::new2(1).expect("valid"),
            );
            let imsi = self.alloc_imsi(home_plmn, 2_000_000_000);
            let tac = self.tac_where(|e| e.gsma_class == wtr_model::tacdb::GsmaClass::Smartphone);
            let caps = self.tacdb.get(tac).expect("allocated").rats;
            let seed = self.rng.rng_seed();
            // Short stays: median ≈ 2 active days (Fig. 7-left).
            let arrival = self.rng.index(self.cfg.days as usize) as u32;
            let stay = 1 + self.rng.index(4) as u32;
            // Bill shock: inbound tourists throttle data (§6.2).
            let traffic = TrafficProfile::for_vertical(Vertical::Smartphone).with_data_factor(0.25);
            let radius = 0.03 + self.rng.range_f64(0.0, 0.5);
            let mut spec = self.base_spec(
                imsi,
                tac,
                Vertical::Smartphone,
                caps,
                vec!["internet.roaming".parse().unwrap()],
                traffic,
                PresenceModel {
                    first_day: arrival,
                    last_day: (arrival + stay).min(self.cfg.days),
                    daily_active_prob: 0.95,
                },
                MobilityModel::local_area_in(&gb, radius, seed),
                "GB",
            );
            spec.traffic.volume.median_bytes *= 0.3;
            self.push(spec, Vertical::Smartphone);
        }
    }

    fn feature_phones(&mut self, count: usize, sim_plmn: Plmn) {
        let gb = Universe::geometry("GB");
        for _ in 0..count {
            let imsi = self.alloc_imsi(sim_plmn, 3_000_000_000);
            let tac = self.tac_where(|e| e.gsma_class == wtr_model::tacdb::GsmaClass::FeaturePhone);
            let caps = self.tacdb.get(tac).expect("allocated").rats;
            let seed = self.rng.rng_seed();
            // §6.1: 56.8% of feature phones never use data.
            let data_enabled = self.rng.chance(0.43);
            let voice_enabled = self.rng.chance(0.927);
            let mut spec = self.base_spec(
                imsi,
                tac,
                Vertical::FeaturePhone,
                caps,
                if data_enabled {
                    vec!["wap.albion.gb".parse().unwrap()]
                } else {
                    Vec::new()
                },
                TrafficProfile::for_vertical(Vertical::FeaturePhone),
                PresenceModel {
                    first_day: 0,
                    last_day: self.cfg.days,
                    daily_active_prob: 0.85,
                },
                MobilityModel::local_area_in(&gb, 0.08, seed),
                "GB",
            );
            spec.data_enabled = data_enabled;
            spec.voice_enabled = voice_enabled;
            self.push(spec, Vertical::FeaturePhone);
        }
    }

    fn feature_phones_inbound(&mut self, count: usize) {
        let gb = Universe::geometry("GB");
        let homes = ["IE", "PL", "RO", "PT", "IN", "PK"];
        for _ in 0..count {
            let iso = homes[self.rng.index(homes.len())];
            let home = Country::by_iso(iso).expect("known");
            let home_plmn = Plmn::new(
                home.primary_mcc(),
                wtr_model::ids::Mnc::new2(1).expect("valid"),
            );
            let imsi = self.alloc_imsi(home_plmn, 3_500_000_000);
            let tac = self.tac_where(|e| e.gsma_class == wtr_model::tacdb::GsmaClass::FeaturePhone);
            let caps = self.tacdb.get(tac).expect("allocated").rats;
            let seed = self.rng.rng_seed();
            let arrival = self.rng.index(self.cfg.days as usize) as u32;
            let stay = 2 + self.rng.index(6) as u32;
            let mut spec = self.base_spec(
                imsi,
                tac,
                Vertical::FeaturePhone,
                caps,
                Vec::new(),
                TrafficProfile::for_vertical(Vertical::FeaturePhone),
                PresenceModel {
                    first_day: arrival,
                    last_day: (arrival + stay).min(self.cfg.days),
                    daily_active_prob: 0.9,
                },
                MobilityModel::local_area_in(&gb, 0.1, seed),
                "GB",
            );
            spec.data_enabled = false;
            self.push(spec, Vertical::FeaturePhone);
        }
    }

    /// SMIP-roaming meters: NL global IoT SIMs, energy-company APNs,
    /// 2G-only Gemalto/Telit modules (§4.4, §7.1).
    fn meters_inbound(&mut self, count: usize) {
        let gb = Universe::geometry("GB");
        let energy_apns = [
            "smhp.centricaplc.com.mnc004.mcc204.gprs",
            "meters.elster.co.uk.mnc004.mcc204.gprs",
            "telemetry.rwe.com.mnc004.mcc204.gprs",
            "ge.generalelectric.energy.mnc004.mcc204.gprs",
            "bglobal.metering.uk.mnc004.mcc204.gprs",
        ];
        for _ in 0..count {
            let imsi = self.alloc_imsi(well_known::NL_SMART_METER_HMNO, 5_000_000_000);
            let vendor = if self.rng.chance(0.6) {
                "Gemalto"
            } else {
                "Telit"
            };
            // §8 what-if: a configurable slice of meters ships with
            // NB-IoT radios instead of 2G ones.
            let wants_nbiot = self.rng.chance(self.cfg.nbiot_meter_fraction);
            let meter_rats = if wants_nbiot {
                RatSet::NBIOT_ONLY
            } else {
                RatSet::G2_ONLY
            };
            let tac = self.tac_where(|e| e.vendor == vendor && e.rats == meter_rats);
            let apn: Apn = energy_apns[self.rng.index(energy_apns.len())]
                .parse()
                .unwrap();
            let seed = self.rng.rng_seed();
            // Roaming meters: 10× native signaling (Fig. 11-right); ~35%
            // of devices see failures; visible ≈ 8–9 of 22 days (they hop
            // UK networks; thinned via daily_active).
            let failure_prone = self.rng.chance(0.35);
            let arrival = if self.rng.chance(0.7) {
                0
            } else {
                self.rng.index(self.cfg.days as usize) as u32
            };
            // Bimodal visibility: a flaky slice hops UK networks (rarely
            // on ours), the rest camp here most days. Reproduces both the
            // Fig. 7 inbound-m2m median (~9 days) and Fig. 11's "50%
            // active ≤5 days" tail.
            let daily_active = if self.rng.chance(0.45) { 0.14 } else { 0.60 };
            let mut spec = self.base_spec(
                imsi,
                tac,
                Vertical::SmartMeter,
                meter_rats,
                vec![apn],
                TrafficProfile::for_vertical(Vertical::SmartMeter).with_signaling_factor(3.5),
                PresenceModel {
                    first_day: arrival,
                    last_day: self.cfg.days,
                    daily_active_prob: daily_active,
                },
                MobilityModel::stationary_in(&gb, seed),
                "GB",
            );
            // §6.1: most M2M uses SMS-like voice; a quarter never uses
            // data (they keep their APN configured but the probe never
            // sees it — exactly the propagation problem of §4.3).
            spec.voice_enabled = self.rng.chance(0.80);
            spec.data_enabled = self.rng.chance(0.75);
            if !spec.data_enabled {
                spec.apns.clear();
            }
            spec.switch_propensity = 0.02;
            spec.event_failure_prob = if failure_prone { 0.05 } else { 0.0 };
            self.push(spec, Vertical::SmartMeter);
        }
    }

    fn cars_inbound(&mut self, count: usize) {
        let gb = Universe::geometry("GB");
        for _ in 0..count {
            let imsi = self.alloc_imsi(well_known::DE_HMNO, 5_000_000_000);
            let tac =
                self.tac_where(|e| e.vendor == "Sierra Wireless" && e.rats == RatSet::CONVENTIONAL);
            let seed = self.rng.rng_seed();
            let spec = {
                let mut s = self.base_spec(
                    imsi,
                    tac,
                    Vertical::ConnectedCar,
                    RatSet::CONVENTIONAL,
                    vec!["fleet.connectedcar.de.mnc002.mcc262.gprs".parse().unwrap()],
                    TrafficProfile::for_vertical(Vertical::ConnectedCar),
                    PresenceModel {
                        first_day: 0,
                        last_day: self.cfg.days,
                        daily_active_prob: 0.8,
                    },
                    MobilityModel::Waypoint {
                        geometry: gb,
                        leg_hours: 3,
                        seed,
                    },
                    "GB",
                );
                s.voice_enabled = self.rng.chance(0.3);
                s
            };
            self.push(spec, Vertical::ConnectedCar);
        }
    }

    fn trackers_inbound(&mut self, count: usize) {
        let gb = Universe::geometry("GB");
        for _ in 0..count {
            let imsi = self.alloc_imsi(well_known::SE_HMNO, 5_000_000_000);
            let tac = self.tac_where(|e| e.vendor == "Quectel" && e.rats == RatSet::G2_ONLY);
            let seed = self.rng.rng_seed();
            let mut spec = self.base_spec(
                imsi,
                tac,
                Vertical::AssetTracker,
                RatSet::G2_ONLY,
                vec!["asset.tracking.se.mnc001.mcc240.gprs".parse().unwrap()],
                TrafficProfile::for_vertical(Vertical::AssetTracker),
                PresenceModel {
                    first_day: 0,
                    last_day: self.cfg.days,
                    daily_active_prob: 0.70,
                },
                MobilityModel::Waypoint {
                    geometry: gb,
                    leg_hours: 8,
                    seed,
                },
                "GB",
            );
            spec.voice_enabled = self.rng.chance(0.80);
            spec.data_enabled = self.rng.chance(0.75);
            if !spec.data_enabled {
                spec.apns.clear();
            }
            self.push(spec, Vertical::AssetTracker);
        }
    }

    fn other_m2m_inbound(&mut self, count: usize) {
        let gb = Universe::geometry("GB");
        let homes = ["ES", "FR", "IT", "BE", "AT", "CH"];
        for i in 0..count {
            // Half from ES (Fig. 5 top-3), the rest long tail.
            let iso = if i % 2 == 0 {
                "ES"
            } else {
                homes[self.rng.index(homes.len())]
            };
            let home = Country::by_iso(iso).expect("known");
            let home_plmn = if iso == "ES" {
                well_known::ES_HMNO
            } else {
                Plmn::new(
                    home.primary_mcc(),
                    wtr_model::ids::Mnc::new2(1).expect("valid"),
                )
            };
            let imsi = self.alloc_imsi(home_plmn, 5_000_000_000);
            let tac = self.tac_where(|e| e.vendor == "u-blox" && e.rats == RatSet::G2_ONLY);
            let seed = self.rng.rng_seed();
            let mut spec = self.base_spec(
                imsi,
                tac,
                Vertical::PaymentTerminal,
                RatSet::G2_ONLY,
                vec!["pos.intelligent-m2m.net.mnc007.mcc214.gprs"
                    .parse()
                    .unwrap()],
                TrafficProfile::for_vertical(Vertical::PaymentTerminal),
                PresenceModel {
                    first_day: 0,
                    last_day: self.cfg.days,
                    daily_active_prob: 0.7,
                },
                MobilityModel::stationary_in(&gb, seed),
                "GB",
            );
            spec.voice_enabled = self.rng.chance(0.80);
            spec.data_enabled = self.rng.chance(0.85);
            if !spec.data_enabled {
                spec.apns.clear();
            }
            self.push(spec, Vertical::PaymentTerminal);
        }
    }

    /// SMIP-native meters: studied MNO's SIMs from the dedicated IMSI
    /// range; 2G+3G modules with 2/3 camping on 3G (§7.1); long-lasting
    /// connectivity with an ongoing-deployment arrival tail (Fig. 11).
    fn meters_native_smip(&mut self, count: usize) {
        let gb = Universe::geometry("GB");
        for _ in 0..count {
            let imsi = self.alloc_imsi(UK, SMIP_MSIN_BASE);
            let vendor = if self.rng.chance(0.5) {
                "Gemalto"
            } else {
                "Telit"
            };
            let tac = self.tac_where(|e| e.vendor == vendor && e.rats == RatSet::G2_G3);
            let seed = self.rng.rng_seed();
            // Ongoing deployment: ~80% present from day 0, the rest arrive
            // during the window (Fig. 11-left cohort effect). A one-day
            // window has no later day to arrive on; its coin is still
            // drawn, so no later draw moves.
            let arrival = if self.rng.chance(0.8) || self.cfg.days < 2 {
                0
            } else {
                1 + self.rng.index((self.cfg.days - 1) as usize) as u32
            };
            // §7.1: 2/3 of native meters camp on 3G only; the rest use
            // both 2G and 3G (modeled with tiny position jitter across
            // cells with patchy 3G, so both RATs genuinely get used).
            let only_3g = self.rng.chance(2.0 / 3.0);
            let caps = if only_3g {
                RatSet::only(wtr_model::rat::Rat::G3)
            } else {
                RatSet::G2_G3
            };
            let mobility = if only_3g {
                MobilityModel::stationary_in(&gb, seed)
            } else {
                MobilityModel::local_area_in(&gb, 0.15, seed)
            };
            let failure_prone = self.rng.chance(0.12);
            let mut traffic = TrafficProfile::for_vertical(Vertical::SmartMeter)
                .with_signaling_factor(0.35)
                .with_data_factor(2.0);
            // Mains-powered meters report like clockwork: little
            // per-device rate spread, so long-lived devices really are
            // active every single day (Fig. 11-left's 73%/83%).
            traffic.per_device_sigma = 0.2;
            let mut spec = self.base_spec(
                imsi,
                tac,
                Vertical::SmartMeter,
                caps,
                vec!["smartmeter.smip.albion.gb".parse().unwrap()],
                traffic,
                PresenceModel {
                    first_day: arrival,
                    last_day: self.cfg.days,
                    daily_active_prob: 1.0,
                },
                mobility,
                "GB",
            );
            spec.voice_enabled = self.rng.chance(0.80);
            spec.event_failure_prob = if failure_prone { 0.03 } else { 0.0 };
            self.push(spec, Vertical::SmartMeter);
        }
    }

    fn sensors_native(&mut self, count: usize) {
        let gb = Universe::geometry("GB");
        for _ in 0..count {
            let imsi = self.alloc_imsi(UK, 6_000_000_000);
            let only_2g = self.rng.chance(0.6);
            let tac = if only_2g {
                self.tac_where(|e| e.vendor == "Cinterion Labs" && e.rats == RatSet::G2_ONLY)
            } else {
                self.tac_where(|e| e.vendor == "Cinterion Labs" && e.rats == RatSet::G2_G3)
            };
            let caps = self.tacdb.get(tac).expect("allocated").rats;
            let seed = self.rng.rng_seed();
            let mut spec = self.base_spec(
                imsi,
                tac,
                Vertical::IndustrialSensor,
                caps,
                vec!["telemetry.industrial.gb".parse().unwrap()],
                TrafficProfile::for_vertical(Vertical::IndustrialSensor),
                PresenceModel {
                    first_day: 0,
                    last_day: self.cfg.days,
                    daily_active_prob: 0.8,
                },
                MobilityModel::stationary_in(&gb, seed),
                "GB",
            );
            spec.voice_enabled = self.rng.chance(0.80);
            spec.data_enabled = self.rng.chance(0.70);
            if !spec.data_enabled {
                spec.apns.clear();
            }
            self.push(spec, Vertical::IndustrialSensor);
        }
    }

    /// Voice-only alarms: no data ⇒ no APN ⇒ the classifier can only say
    /// `m2m-maybe` (§4.3's 4%). Hardware uses the wearable-class TACs so
    /// neither the smartphone-OS nor feature-phone rules fire, and no
    /// data-using M2M device shares the TAC.
    fn alarms_voice_only(&mut self, count: usize) {
        let gb = Universe::geometry("GB");
        for i in 0..count {
            // Mostly native alarm endpoints, a small inbound slice.
            let (plmn, base) = if i % 7 == 0 {
                (well_known::NL_SMART_METER_HMNO, 6_500_000_000)
            } else {
                (UK, 6_500_000_000)
            };
            let imsi = self.alloc_imsi(plmn, base);
            let tac = self.tac_where(|e| e.gsma_class == wtr_model::tacdb::GsmaClass::Wearable);
            let seed = self.rng.rng_seed();
            let mut spec = self.base_spec(
                imsi,
                tac,
                Vertical::SecurityAlarm,
                RatSet::G2_ONLY,
                Vec::new(),
                TrafficProfile::for_vertical(Vertical::SecurityAlarm),
                PresenceModel {
                    first_day: 0,
                    last_day: self.cfg.days,
                    daily_active_prob: 0.7,
                },
                MobilityModel::stationary_in(&gb, seed),
                "GB",
            );
            spec.data_enabled = false;
            self.push(spec, Vertical::SecurityAlarm);
        }
    }
}

/// Small extension: draw a fresh 64-bit seed from a substream.
trait RngSeed {
    fn rng_seed(&mut self) -> u64;
}

impl RngSeed for SubstreamRng {
    fn rng_seed(&mut self) -> u64 {
        use rand::RngCore;
        self.rng().next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MnoScenarioOutput {
        MnoScenario::new(MnoScenarioConfig {
            devices: 1_200,
            days: 8,
            seed: 11,
            nbiot_meter_fraction: 0.0,
            sunset_2g_uk: false,
            gsma_transparency: false,
            record_loss_fraction: 0.0,
        })
        .run()
    }

    #[test]
    fn catalog_is_populated() {
        let out = small();
        assert!(
            out.catalog.device_count() > 900,
            "{}",
            out.catalog.device_count()
        );
        assert!(out.record_counts.0 > 0);
        assert!(out.record_counts.1 > 0);
        assert!(out.record_counts.2 > 0);
    }

    #[test]
    fn ground_truth_covers_population() {
        let out = small();
        // Sub-population fractions sum to ~0.99 of the requested size
        // (per-bucket rounding); every simulated device has a truth entry.
        let n = out.ground_truth.len();
        assert!((1_150..=1_210).contains(&n), "population size {n}");
        let m2m = out.ground_truth.values().filter(|v| v.is_m2m()).count();
        let frac = m2m as f64 / n as f64;
        assert!(
            (0.27..0.34).contains(&frac),
            "m2m ground-truth share {frac}"
        );
    }

    #[test]
    fn smip_native_devices_in_designated_range() {
        let out = small();
        let designated: Vec<_> = out
            .catalog
            .iter()
            .filter(|r| r.in_designated_range)
            .collect();
        assert!(!designated.is_empty());
        for row in designated {
            assert_eq!(row.sim_plmn, UK);
        }
    }

    #[test]
    fn inbound_roamers_present_with_foreign_sims() {
        let out = small();
        let inbound = out
            .catalog
            .iter()
            .filter(|r| r.label.is_international_inbound())
            .count();
        assert!(inbound > 0);
    }

    #[test]
    fn element_load_partitions_by_technology() {
        let out = small();
        assert_eq!(out.element_load.len(), 8);
        let mut total = wtr_probes::mno::ElementLoad::default();
        for day in &out.element_load {
            total.merge(*day);
        }
        // 2019-era population: 2G/3G machines keep the SGSN busy, phones
        // load the MME; voice exists, and both data cores carry sessions.
        assert!(total.mme > 0, "{total:?}");
        assert!(total.sgsn > 0, "{total:?}");
        assert!(total.msc > 0, "{total:?}");
        assert!(total.sgw > 0 && total.ggsn > 0, "{total:?}");
        // Signaling counters must reconcile with the probe's event count.
        assert_eq!(total.mme + total.sgsn, out.record_counts.0);
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.catalog.len(), b.catalog.len());
        assert_eq!(a.record_counts, b.record_counts);
    }
}
