//! IoT vertical comparison: connected cars vs smart meters (§7.2; Fig. 12).
//!
//! "Using the exposed APN information from inbound roaming IoT devices …
//! we separate devices mapping to connected cars. We further use this
//! dataset to contrast against the traffic patterns of smart energy
//! meters." Cars should look like inbound-roaming smartphones (high
//! mobility, high signaling, real data); meters should be stationary with
//! tiny traffic.

use crate::keywords::{match_m2m_keyword, VerticalHint};
use crate::metrics::Ecdf;
use crate::summary::DeviceSummary;
use serde::{Deserialize, Serialize};
use wtr_model::intern::ApnTable;

/// Traffic/mobility profile of one identified vertical.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerticalProfile {
    /// Human label ("connected-cars", "smart-meters").
    pub name: String,
    /// Devices identified.
    pub devices: usize,
    /// Radius of gyration per device, km (Fig. 12-left).
    pub gyration_km: Ecdf,
    /// Signaling events per active day (Fig. 12-center).
    pub signaling_per_day: Ecdf,
    /// Bytes per active day (Fig. 12-right).
    pub bytes_per_day: Ecdf,
}

/// Profiles one vertical's devices, sampled in input order.
fn profile(name: &str, devices: &[&DeviceSummary]) -> VerticalProfile {
    VerticalProfile {
        name: name.to_owned(),
        devices: devices.len(),
        gyration_km: Ecdf::new(devices.iter().filter_map(|s| s.gyration_km()).collect()),
        signaling_per_day: Ecdf::new(devices.iter().map(|s| s.events_per_active_day()).collect()),
        bytes_per_day: Ecdf::new(devices.iter().map(|s| s.bytes_per_active_day()).collect()),
    }
}

/// Splits inbound-roaming devices into verticals by APN hint and profiles
/// the two Fig. 12 groups. `apns` is the intern table the summaries'
/// symbols resolve through; the vertical hint is memoized per distinct
/// symbol, and a device takes the hint of its first APN that has one.
pub fn compare(summaries: &[DeviceSummary], apns: &ApnTable) -> (VerticalProfile, VerticalProfile) {
    let hints: Vec<Option<VerticalHint>> = apns
        .strings()
        .iter()
        .map(|a| match_m2m_keyword(a).map(|(_, h)| h))
        .collect();
    let (mut cars, mut meters) = (Vec::new(), Vec::new());
    for s in summaries {
        if !s.dominant_label.is_international_inbound() {
            continue;
        }
        match s.apns.iter().find_map(|sym| hints[sym.index()]) {
            Some(VerticalHint::Automotive) => cars.push(s),
            Some(VerticalHint::Energy) => meters.push(s),
            _ => {}
        }
    }
    (
        profile("connected-cars", &cars),
        profile("smart-meters", &meters),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;
    use wtr_model::ids::{Plmn, Tac};
    use wtr_model::roaming::RoamingLabel;
    use wtr_model::time::Day;
    use wtr_probes::catalog::DevicesCatalog;
    use wtr_radio::geo::GeoPoint;

    fn tac() -> Tac {
        Tac::new(35_000_000).unwrap()
    }

    fn build() -> (Vec<DeviceSummary>, ApnTable) {
        let mut cat = DevicesCatalog::new(10);
        let car_apn = cat.intern_apn("fleet.scania.com.mnc002.mcc262.gprs");
        let meter_apn = cat.intern_apn("smhp.centricaplc.com.mnc004.mcc204.gprs");
        let native_car_apn = cat.intern_apn("fleet.scania.com");
        // A car: automotive APN, mobile, chatty, data-heavy.
        for day in 0..10u32 {
            let r = cat.row_mut(1, Day(day), Plmn::of(262, 2), tac(), RoamingLabel::IH);
            r.apns.insert(car_apn);
            r.events += 50;
            r.data_sessions += 20;
            r.bytes_up += 1_000_000;
            r.bytes_down += 2_000_000;
            for k in 0..5 {
                r.mobility.add(
                    GeoPoint::new(50.0 + day as f64 * 0.3 + k as f64 * 0.1, 8.0),
                    1.0,
                );
            }
        }
        // A meter: energy APN, stationary, quiet.
        for day in 0..10u32 {
            let r = cat.row_mut(2, Day(day), Plmn::of(204, 4), tac(), RoamingLabel::IH);
            r.apns.insert(meter_apn);
            r.events += 5;
            r.data_sessions += 1;
            r.bytes_up += 1_500;
            r.mobility.add(GeoPoint::new(52.0, -1.0), 1.0);
        }
        // A native car-APN device: excluded (not inbound roaming).
        let r = cat.row_mut(3, Day(0), Plmn::of(234, 30), tac(), RoamingLabel::HH);
        r.apns.insert(native_car_apn);
        let table = cat.apn_table().clone();
        (summarize(&cat), table)
    }

    #[test]
    fn cars_and_meters_separated() {
        let (sums, table) = build();
        let (cars, meters) = compare(&sums, &table);
        assert_eq!(cars.devices, 1);
        assert_eq!(meters.devices, 1);
    }

    #[test]
    fn fig12_contrasts_hold() {
        let (sums, table) = build();
        let (cars, meters) = compare(&sums, &table);
        // Mobility: cars travel, meters don't.
        assert!(cars.gyration_km.median().unwrap() > 10.0);
        assert!(meters.gyration_km.median().unwrap() < 0.001);
        // Signaling: cars ≫ meters.
        assert!(
            cars.signaling_per_day.median().unwrap()
                > 5.0 * meters.signaling_per_day.median().unwrap()
        );
        // Data: cars ≫ meters.
        assert!(
            cars.bytes_per_day.median().unwrap() > 100.0 * meters.bytes_per_day.median().unwrap()
        );
    }

    #[test]
    fn native_devices_excluded() {
        let (sums, table) = build();
        let (cars, _) = compare(&sums, &table);
        // Device 3 has a car APN but is native: excluded.
        assert_eq!(cars.devices, 1);
    }

    #[test]
    fn empty_population() {
        let (cars, meters) = compare(&[], &ApnTable::new());
        assert_eq!(cars.devices, 0);
        assert_eq!(meters.devices, 0);
        assert!(cars.gyration_km.is_empty());
        assert!(meters.bytes_per_day.is_empty());
    }
}
