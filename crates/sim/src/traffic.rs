//! Per-vertical traffic profiles.
//!
//! A [`TrafficProfile`] answers, for a device-day: how many signaling
//! procedures, data sessions and voice events happen, when within the day,
//! and how big the sessions are. Defaults per vertical are calibrated to
//! the paper's §6 findings:
//!
//! * M2M devices generate far fewer radio-resource events than smartphones
//!   (Fig. 10-left), most place zero calls (Fig. 10-center), and inbound
//!   roaming M2M moves almost no data (Fig. 10-right);
//! * smartphones native to the MNO move much more data than inbound
//!   roaming ones ("bill shock" dampening, §6.2);
//! * smart meters emit small periodic reports; connected cars behave like
//!   roaming smartphones (Fig. 12).

use crate::rng::SubstreamRng;
use serde::{Deserialize, Serialize};
use wtr_model::vertical::Vertical;

/// Diurnal shape: how the day's events distribute over 24 hours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiurnalShape {
    /// Uniform across the day (machines on timers).
    Flat,
    /// Human waking-hours curve, peaking in the evening.
    Human,
    /// Periodic reporting on fixed intervals with small jitter
    /// (smart-meter style).
    Periodic,
}

impl DiurnalShape {
    /// Relative weight of hour `h` (`0..24`); weights need not normalize.
    pub fn hour_weight(self, h: u32) -> f64 {
        match self {
            DiurnalShape::Flat | DiurnalShape::Periodic => 1.0,
            DiurnalShape::Human => match h {
                0..=5 => 0.15,
                6..=8 => 0.7,
                9..=16 => 1.0,
                17..=21 => 1.4,
                _ => 0.5,
            },
        }
    }

    /// Draws a second-of-day for one event.
    pub fn sample_second(self, rng: &mut SubstreamRng) -> u64 {
        match self {
            DiurnalShape::Flat => rng.range_u64(0, 86_400),
            DiurnalShape::Periodic => rng.range_u64(0, 86_400),
            DiurnalShape::Human => {
                let weights: [f64; 24] = std::array::from_fn(|h| self.hour_weight(h as u32));
                let hour = rng.weighted_index(&weights) as u64;
                hour * 3_600 + rng.range_u64(0, 3_600)
            }
        }
    }
}

/// Volume distribution for data sessions: LogNormal(median, sigma).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VolumeDist {
    /// Median bytes per session.
    pub median_bytes: f64,
    /// LogNormal sigma.
    pub sigma: f64,
    /// Fraction of bytes that are uplink (M2M is uplink-heavy, phones
    /// downlink-heavy — one of the M2M-vs-phone contrasts in \[18\]).
    pub uplink_ratio: f64,
}

impl VolumeDist {
    /// Samples (uplink, downlink) bytes for one session.
    pub fn sample(&self, rng: &mut SubstreamRng) -> (u64, u64) {
        let total = rng
            .lognormal(self.median_bytes.max(1.0), self.sigma)
            .round();
        let up = (total * self.uplink_ratio).round() as u64;
        let down = (total as u64).saturating_sub(up);
        (up, down)
    }
}

/// Traffic behaviour for one device.
///
/// ```
/// use wtr_model::vertical::Vertical;
/// use wtr_sim::traffic::TrafficProfile;
///
/// let meter = TrafficProfile::for_vertical(Vertical::SmartMeter);
/// let phone = TrafficProfile::for_vertical(Vertical::Smartphone);
/// // Fig. 10: machines signal and transfer far less than phones.
/// assert!(meter.signaling_per_day < phone.signaling_per_day);
/// assert!(meter.volume.median_bytes < phone.volume.median_bytes);
/// // Roaming SMIP meters re-register ~10× as often (Fig. 11-right).
/// let roaming_meter = meter.clone().with_signaling_factor(10.0);
/// assert_eq!(roaming_meter.signaling_per_day, meter.signaling_per_day * 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficProfile {
    /// Mean mobility/registration signaling procedures per active day
    /// (attach sequences, routing-area updates), before any per-device
    /// multiplier.
    pub signaling_per_day: f64,
    /// Per-device heterogeneity: at spec-creation time, each device draws
    /// a LogNormal(1.0, this) multiplier applied to all its rates. This is
    /// what produces the long per-device tails of Fig. 3-left / Fig. 10.
    pub per_device_sigma: f64,
    /// Mean data sessions per active day (0 = device never uses data).
    pub data_sessions_per_day: f64,
    /// Data session volume distribution.
    pub volume: VolumeDist,
    /// Mean voice events per active day (0 = never).
    pub voice_per_day: f64,
    /// Whether voice events are real calls (with duration) or SMS-like.
    pub voice_is_call: bool,
    /// Mean call duration in seconds when `voice_is_call`.
    pub call_duration_mean_secs: f64,
    /// When the day's events happen.
    pub diurnal: DiurnalShape,
    /// Fraction of signaling wake-ups that run a full re-registration
    /// (Authentication + Update Location toward the home HSS) instead of a
    /// local Routing-Area Update. Only re-registrations are visible to the
    /// HMNO-side probes of the M2M dataset (§3.1); IoT devices power-cycle
    /// and re-attach far more often than phones.
    pub reauth_fraction: f64,
}

/// The per-vertical calibration table (§6/§7): one named constant per
/// [`Vertical`], read through [`TrafficProfile::for_vertical`] by the
/// population builders and the standard behavior library. Field order everywhere: signaling rate, per-device sigma,
/// data rate, volume, voice rate/kind/duration, diurnal shape, reauth
/// fraction.
pub mod profiles {
    use super::{DiurnalShape, TrafficProfile, VolumeDist};

    /// Native smartphone: chatty, data-heavy, evening-peaked.
    pub const SMARTPHONE: TrafficProfile = TrafficProfile {
        signaling_per_day: 40.0,
        per_device_sigma: 0.7,
        data_sessions_per_day: 30.0,
        volume: VolumeDist {
            median_bytes: 6_000_000.0,
            sigma: 1.6,
            uplink_ratio: 0.15,
        },
        voice_per_day: 3.0,
        voice_is_call: true,
        call_duration_mean_secs: 120.0,
        diurnal: DiurnalShape::Human,
        reauth_fraction: 0.1,
    };

    /// Feature phone: voice-first, a trickle of data.
    pub const FEATURE_PHONE: TrafficProfile = TrafficProfile {
        signaling_per_day: 3.5,
        per_device_sigma: 0.6,
        data_sessions_per_day: 0.4,
        volume: VolumeDist {
            median_bytes: 30_000.0,
            sigma: 1.2,
            uplink_ratio: 0.3,
        },
        voice_per_day: 4.0,
        voice_is_call: true,
        call_duration_mean_secs: 90.0,
        diurnal: DiurnalShape::Human,
        reauth_fraction: 0.1,
    };

    /// Smart meter: small periodic uplink reports, frequent re-attach.
    pub const SMART_METER: TrafficProfile = TrafficProfile {
        signaling_per_day: 5.0,
        per_device_sigma: 0.5,
        data_sessions_per_day: 1.5,
        volume: VolumeDist {
            median_bytes: 2_000.0,
            sigma: 0.6,
            uplink_ratio: 0.85,
        },
        voice_per_day: 0.5,
        voice_is_call: false,
        call_duration_mean_secs: 0.0,
        diurnal: DiurnalShape::Periodic,
        reauth_fraction: 0.5,
    };

    /// Connected car: behaves like a roaming smartphone (Fig. 12).
    pub const CONNECTED_CAR: TrafficProfile = TrafficProfile {
        signaling_per_day: 60.0,
        per_device_sigma: 0.8,
        data_sessions_per_day: 20.0,
        volume: VolumeDist {
            median_bytes: 2_000_000.0,
            sigma: 1.4,
            uplink_ratio: 0.4,
        },
        voice_per_day: 0.1,
        voice_is_call: true,
        call_duration_mean_secs: 60.0,
        diurnal: DiurnalShape::Human,
        reauth_fraction: 0.4,
    };

    /// Asset tracker: uplink-only pings around the clock.
    pub const ASSET_TRACKER: TrafficProfile = TrafficProfile {
        signaling_per_day: 12.0,
        per_device_sigma: 0.9,
        data_sessions_per_day: 6.0,
        volume: VolumeDist {
            median_bytes: 5_000.0,
            sigma: 0.8,
            uplink_ratio: 0.9,
        },
        voice_per_day: 0.4,
        voice_is_call: false,
        call_duration_mean_secs: 0.0,
        diurnal: DiurnalShape::Flat,
        reauth_fraction: 0.5,
    };

    /// Wearable: light smartphone-shaped traffic.
    pub const WEARABLE: TrafficProfile = TrafficProfile {
        signaling_per_day: 12.0,
        per_device_sigma: 0.7,
        data_sessions_per_day: 5.0,
        volume: VolumeDist {
            median_bytes: 200_000.0,
            sigma: 1.2,
            uplink_ratio: 0.3,
        },
        voice_per_day: 0.2,
        voice_is_call: true,
        call_duration_mean_secs: 45.0,
        diurnal: DiurnalShape::Human,
        reauth_fraction: 0.2,
    };

    /// Payment terminal: many tiny transactions during opening hours.
    pub const PAYMENT_TERMINAL: TrafficProfile = TrafficProfile {
        signaling_per_day: 10.0,
        per_device_sigma: 0.6,
        data_sessions_per_day: 25.0,
        volume: VolumeDist {
            median_bytes: 3_000.0,
            sigma: 0.7,
            uplink_ratio: 0.6,
        },
        voice_per_day: 0.4,
        voice_is_call: false,
        call_duration_mean_secs: 0.0,
        diurnal: DiurnalShape::Human,
        reauth_fraction: 0.3,
    };

    /// Security alarm — voice-reliant M2M: the paper finds 24.5% of M2M
    /// devices use no data at all, relying on voice-like services.
    pub const SECURITY_ALARM: TrafficProfile = TrafficProfile {
        signaling_per_day: 5.0,
        per_device_sigma: 0.5,
        data_sessions_per_day: 0.0,
        volume: VolumeDist {
            median_bytes: 0.0,
            sigma: 0.0,
            uplink_ratio: 0.5,
        },
        voice_per_day: 1.0,
        voice_is_call: false,
        call_duration_mean_secs: 0.0,
        diurnal: DiurnalShape::Flat,
        reauth_fraction: 0.4,
    };

    /// Industrial sensor: periodic uplink telemetry.
    pub const INDUSTRIAL_SENSOR: TrafficProfile = TrafficProfile {
        signaling_per_day: 7.0,
        per_device_sigma: 0.8,
        data_sessions_per_day: 3.0,
        volume: VolumeDist {
            median_bytes: 8_000.0,
            sigma: 0.9,
            uplink_ratio: 0.9,
        },
        voice_per_day: 0.4,
        voice_is_call: false,
        call_duration_mean_secs: 0.0,
        diurnal: DiurnalShape::Periodic,
        reauth_fraction: 0.5,
    };
}

impl TrafficProfile {
    /// Default profile for a vertical, calibrated to §6/§7 — a lookup into
    /// the [`profiles`] constant table.
    pub fn for_vertical(v: Vertical) -> TrafficProfile {
        match v {
            Vertical::Smartphone => profiles::SMARTPHONE,
            Vertical::FeaturePhone => profiles::FEATURE_PHONE,
            Vertical::SmartMeter => profiles::SMART_METER,
            Vertical::ConnectedCar => profiles::CONNECTED_CAR,
            Vertical::AssetTracker => profiles::ASSET_TRACKER,
            Vertical::Wearable => profiles::WEARABLE,
            Vertical::PaymentTerminal => profiles::PAYMENT_TERMINAL,
            Vertical::SecurityAlarm => profiles::SECURITY_ALARM,
            Vertical::IndustrialSensor => profiles::INDUSTRIAL_SENSOR,
        }
    }

    /// Scales every rate by `factor` (used by scenarios, e.g. roaming SMIP
    /// meters generating "ten times more signaling messages than native
    /// ones", Fig. 11-right).
    pub fn scaled(mut self, factor: f64) -> TrafficProfile {
        self.signaling_per_day *= factor;
        self.data_sessions_per_day *= factor;
        self.voice_per_day *= factor;
        self
    }

    /// Multiplies only the signaling rate.
    pub fn with_signaling_factor(mut self, factor: f64) -> TrafficProfile {
        self.signaling_per_day *= factor;
        self
    }

    /// Multiplies only the data rates/volumes.
    pub fn with_data_factor(mut self, factor: f64) -> TrafficProfile {
        self.data_sessions_per_day *= factor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SubstreamRng {
        SubstreamRng::derive(11, 11)
    }

    #[test]
    fn m2m_signals_less_than_smartphones() {
        // Fig. 10-left ordering: feature < meter < smartphone signaling.
        let meter = TrafficProfile::for_vertical(Vertical::SmartMeter);
        let phone = TrafficProfile::for_vertical(Vertical::Smartphone);
        let feat = TrafficProfile::for_vertical(Vertical::FeaturePhone);
        assert!(meter.signaling_per_day < phone.signaling_per_day);
        assert!(feat.signaling_per_day < meter.signaling_per_day);
    }

    #[test]
    fn cars_look_like_roaming_smartphones() {
        // Fig. 12: connected cars ≈ inbound-roaming smartphones in
        // signaling and data, meters tiny.
        let car = TrafficProfile::for_vertical(Vertical::ConnectedCar);
        let phone = TrafficProfile::for_vertical(Vertical::Smartphone);
        let meter = TrafficProfile::for_vertical(Vertical::SmartMeter);
        assert!(car.signaling_per_day >= phone.signaling_per_day * 0.5);
        assert!(car.volume.median_bytes > meter.volume.median_bytes * 100.0);
    }

    #[test]
    fn security_alarm_is_voice_only() {
        let alarm = TrafficProfile::for_vertical(Vertical::SecurityAlarm);
        assert_eq!(alarm.data_sessions_per_day, 0.0);
        assert!(alarm.voice_per_day > 0.0);
        assert!(!alarm.voice_is_call);
    }

    #[test]
    fn meters_are_uplink_heavy() {
        let meter = TrafficProfile::for_vertical(Vertical::SmartMeter);
        let (up, down) = meter.volume.sample(&mut rng());
        assert!(
            up > down,
            "meter session should be uplink-heavy: {up}/{down}"
        );
    }

    #[test]
    fn scaled_multiplies_rates() {
        let p = TrafficProfile::for_vertical(Vertical::SmartMeter).scaled(10.0);
        let base = TrafficProfile::for_vertical(Vertical::SmartMeter);
        assert_eq!(p.signaling_per_day, base.signaling_per_day * 10.0);
        assert_eq!(p.voice_per_day, base.voice_per_day * 10.0);
    }

    #[test]
    fn human_diurnal_peaks_in_evening() {
        let mut hist = [0u64; 24];
        let mut r = rng();
        for _ in 0..20_000 {
            let s = DiurnalShape::Human.sample_second(&mut r);
            hist[(s / 3_600) as usize] += 1;
        }
        let night: u64 = hist[0..6].iter().sum();
        let evening: u64 = hist[17..22].iter().sum();
        assert!(evening > night * 3, "evening={evening} night={night}");
    }

    #[test]
    fn flat_diurnal_is_roughly_uniform() {
        let mut hist = [0u64; 24];
        let mut r = rng();
        for _ in 0..24_000 {
            hist[(DiurnalShape::Flat.sample_second(&mut r) / 3_600) as usize] += 1;
        }
        for (h, c) in hist.iter().enumerate() {
            assert!((600..1_500).contains(c), "hour {h}: {c}");
        }
    }

    #[test]
    fn sample_second_within_day() {
        let mut r = rng();
        for shape in [
            DiurnalShape::Flat,
            DiurnalShape::Human,
            DiurnalShape::Periodic,
        ] {
            for _ in 0..1_000 {
                assert!(shape.sample_second(&mut r) < 86_400);
            }
        }
    }
}
