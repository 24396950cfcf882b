//! The paper's `<X:Y>` roaming-label taxonomy (§4.2).
//!
//! Every devices-catalog record is tagged with a roaming label where **X**
//! describes the SIM's origin relative to the studied MNO and **Y** where
//! the device is attached:
//!
//! | X | meaning |
//! |---|---------|
//! | `H` | the SIM belongs to the studied MNO |
//! | `V` | the SIM belongs to an MVNO hosted by the studied MNO |
//! | `N` | the SIM belongs to another MNO of the same country |
//! | `I` | the SIM belongs to an MNO of a different country |
//!
//! | Y | meaning |
//! |---|---------|
//! | `H` | attached to the studied MNO's radio network |
//! | `A` | attached to a foreign network abroad |
//!
//! Only **six** of the eight combinations are observable: an `N` or `I` SIM
//! that is abroad never touches the studied MNO's infrastructure (neither
//! its radio network nor its CDR/xDR clearing), so `N:A` and `I:A` cannot
//! appear in the dataset. The type enforces this: its fields are private,
//! so a [`RoamingLabel`] comes only from the six named constants,
//! [`RoamingLabel::derive`], [`RoamingLabel::from_parts`] or its
//! `Deserialize`, and the last three refuse `N:A` and `I:A`.

use crate::country::Country;
use crate::ids::Plmn;
use crate::operators::{OperatorKind, OperatorRegistry};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The `X` part: the SIM's origin relative to the studied MNO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SimOrigin {
    /// SIM provisioned by the studied MNO itself.
    Home,
    /// SIM provisioned by an MVNO riding on the studied MNO.
    Virtual,
    /// SIM of another MNO in the studied MNO's country.
    National,
    /// SIM of an MNO in a different country.
    International,
}

impl SimOrigin {
    /// One-letter code used in the paper's figures.
    pub const fn code(self) -> char {
        match self {
            SimOrigin::Home => 'H',
            SimOrigin::Virtual => 'V',
            SimOrigin::National => 'N',
            SimOrigin::International => 'I',
        }
    }
}

/// The `Y` part: where the device is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Presence {
    /// Attached to the studied MNO's radio network.
    Home,
    /// Attached to a network abroad (observed only via roaming records).
    Abroad,
}

impl Presence {
    /// One-letter code used in the paper's figures.
    pub const fn code(self) -> char {
        match self {
            Presence::Home => 'H',
            Presence::Abroad => 'A',
        }
    }
}

/// One of the six observable roaming labels.
///
/// ```
/// use wtr_model::operators::{well_known, OperatorRegistry};
/// use wtr_model::roaming::RoamingLabel;
///
/// let registry = OperatorRegistry::standard(3);
/// // A Dutch smart-meter SIM attached to the studied UK MNO is an
/// // international inbound roamer.
/// let label = RoamingLabel::derive(
///     well_known::UK_STUDIED_MNO,
///     &registry,
///     well_known::NL_SMART_METER_HMNO,
///     well_known::UK_STUDIED_MNO,
/// )
/// .unwrap();
/// assert_eq!(label, RoamingLabel::IH);
/// assert!(label.is_international_inbound());
/// ```
///
/// Labels order by `(sim, presence)`, which is the order of
/// [`RoamingLabel::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct RoamingLabel {
    sim: SimOrigin,
    presence: Presence,
}

impl RoamingLabel {
    /// `H:H` — native device attached to the studied MNO.
    pub const HH: RoamingLabel = RoamingLabel {
        sim: SimOrigin::Home,
        presence: Presence::Home,
    };
    /// `H:A` — the studied MNO's SIM roaming abroad (outbound roamer).
    pub const HA: RoamingLabel = RoamingLabel {
        sim: SimOrigin::Home,
        presence: Presence::Abroad,
    };
    /// `V:H` — hosted-MVNO SIM attached to the studied MNO.
    pub const VH: RoamingLabel = RoamingLabel {
        sim: SimOrigin::Virtual,
        presence: Presence::Home,
    };
    /// `V:A` — hosted-MVNO SIM roaming abroad.
    pub const VA: RoamingLabel = RoamingLabel {
        sim: SimOrigin::Virtual,
        presence: Presence::Abroad,
    };
    /// `N:H` — national inbound roamer.
    pub const NH: RoamingLabel = RoamingLabel {
        sim: SimOrigin::National,
        presence: Presence::Home,
    };
    /// `I:H` — international inbound roamer (where 71.1% are M2M, Fig. 6).
    pub const IH: RoamingLabel = RoamingLabel {
        sim: SimOrigin::International,
        presence: Presence::Home,
    };

    /// All six observable labels, in the paper's presentation order.
    pub const ALL: [RoamingLabel; 6] = [
        RoamingLabel::HH,
        RoamingLabel::HA,
        RoamingLabel::VH,
        RoamingLabel::VA,
        RoamingLabel::NH,
        RoamingLabel::IH,
    ];

    /// The label with SIM origin `sim` (`X`) and attachment `presence`
    /// (`Y`), or `None` for the unobservable `N:A` and `I:A`.
    pub const fn from_parts(sim: SimOrigin, presence: Presence) -> Option<RoamingLabel> {
        match (sim, presence) {
            (SimOrigin::National | SimOrigin::International, Presence::Abroad) => None,
            _ => Some(RoamingLabel { sim, presence }),
        }
    }

    /// SIM origin (`X`).
    pub const fn sim(self) -> SimOrigin {
        self.sim
    }

    /// Attachment location (`Y`).
    pub const fn presence(self) -> Presence {
        self.presence
    }

    /// The label's position in [`RoamingLabel::ALL`] (`0..6`), for
    /// per-label counters kept in arrays.
    pub const fn index(self) -> usize {
        match (self.sim, self.presence) {
            (SimOrigin::Home, Presence::Home) => 0,
            (SimOrigin::Home, Presence::Abroad) => 1,
            (SimOrigin::Virtual, Presence::Home) => 2,
            (SimOrigin::Virtual, Presence::Abroad) => 3,
            (SimOrigin::National, _) => 4,
            (SimOrigin::International, _) => 5,
        }
    }

    /// Derives the label for a device from the perspective of
    /// `studied_mno`, given the SIM's PLMN and the network the device was
    /// attached to.
    ///
    /// Returns `None` for the unobservable combinations (`N:A` / `I:A`):
    /// the studied MNO simply has no record of such a device, which is how
    /// the dataset builder treats them (it drops the record, as reality
    /// would).
    pub fn derive(
        studied_mno: Plmn,
        registry: &OperatorRegistry,
        sim_plmn: Plmn,
        attached_plmn: Plmn,
    ) -> Option<RoamingLabel> {
        let sim = if sim_plmn == studied_mno {
            SimOrigin::Home
        } else if let Some(op) = registry.get(sim_plmn) {
            match op.kind {
                OperatorKind::Mvno { host } if host == studied_mno => SimOrigin::Virtual,
                _ => {
                    if same_country(sim_plmn, studied_mno) {
                        SimOrigin::National
                    } else {
                        SimOrigin::International
                    }
                }
            }
        } else if same_country(sim_plmn, studied_mno) {
            SimOrigin::National
        } else {
            SimOrigin::International
        };

        let presence = if attached_plmn == studied_mno {
            Presence::Home
        } else {
            Presence::Abroad
        };
        RoamingLabel::from_parts(sim, presence)
    }

    /// Whether this label marks an *inbound roamer* — a foreign SIM on the
    /// studied network (`N:H` or `I:H`).
    pub const fn is_inbound_roamer(self) -> bool {
        matches!(
            (self.sim, self.presence),
            (SimOrigin::National, Presence::Home) | (SimOrigin::International, Presence::Home)
        )
    }

    /// Whether this label marks an *international* inbound roamer (`I:H`).
    pub const fn is_international_inbound(self) -> bool {
        matches!(
            (self.sim, self.presence),
            (SimOrigin::International, Presence::Home)
        )
    }

    /// Whether this label marks a *native* device in the broad sense the
    /// paper uses in §4.2 ("majority of devices are native, i.e. either MNO
    /// or MVNO devices connected to their home MNO"): `H:H` or `V:H`.
    pub const fn is_native_attached(self) -> bool {
        matches!(
            (self.sim, self.presence),
            (SimOrigin::Home, Presence::Home) | (SimOrigin::Virtual, Presence::Home)
        )
    }

    /// Whether this label marks an outbound roamer (`H:A` / `V:A`).
    pub const fn is_outbound_roamer(self) -> bool {
        matches!(self.presence, Presence::Abroad)
    }
}

/// Whether two PLMNs belong to the same country (by MCC registry lookup;
/// falls back to MCC equality for unregistered codes).
fn same_country(a: Plmn, b: Plmn) -> bool {
    match (Country::by_mcc(a.mcc), Country::by_mcc(b.mcc)) {
        (Some(ca), Some(cb)) => std::ptr::eq(ca, cb),
        _ => a.mcc == b.mcc,
    }
}

/// A label's serde shape, before the observability check.
#[derive(Deserialize)]
struct LabelParts {
    sim: SimOrigin,
    presence: Presence,
}

/// Reads `{"sim":…,"presence":…}` and refuses `N:A` and `I:A`, so no
/// decoded catalog row carries an unobservable label.
impl Deserialize for RoamingLabel {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let LabelParts { sim, presence } = LabelParts::deserialize_value(v)?;
        RoamingLabel::from_parts(sim, presence).ok_or_else(|| {
            serde::Error::custom(format!(
                "unobservable roaming label {}:{}",
                sim.code(),
                presence.code()
            ))
        })
    }
}

impl fmt::Display for RoamingLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.sim.code(), self.presence.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::well_known;

    fn registry() -> OperatorRegistry {
        OperatorRegistry::standard(3)
    }

    const MNO: Plmn = well_known::UK_STUDIED_MNO;

    #[test]
    fn native_device() {
        let reg = registry();
        let label = RoamingLabel::derive(MNO, &reg, MNO, MNO).unwrap();
        assert_eq!(label, RoamingLabel::HH);
        assert!(label.is_native_attached());
        assert!(!label.is_inbound_roamer());
    }

    #[test]
    fn outbound_roamer() {
        let reg = registry();
        let abroad = well_known::ES_HMNO;
        let label = RoamingLabel::derive(MNO, &reg, MNO, abroad).unwrap();
        assert_eq!(label, RoamingLabel::HA);
        assert!(label.is_outbound_roamer());
    }

    #[test]
    fn mvno_sim_is_virtual() {
        let reg = registry();
        let mvno = Plmn::of(234, 31);
        let label = RoamingLabel::derive(MNO, &reg, mvno, MNO).unwrap();
        assert_eq!(label, RoamingLabel::VH);
        assert!(label.is_native_attached());
    }

    #[test]
    fn national_inbound() {
        let reg = registry();
        let other_uk = well_known::UK_OTHER_MNOS[0];
        let label = RoamingLabel::derive(MNO, &reg, other_uk, MNO).unwrap();
        assert_eq!(label, RoamingLabel::NH);
        assert!(label.is_inbound_roamer());
        assert!(!label.is_international_inbound());
    }

    #[test]
    fn international_inbound() {
        let reg = registry();
        let nl = well_known::NL_SMART_METER_HMNO;
        let label = RoamingLabel::derive(MNO, &reg, nl, MNO).unwrap();
        assert_eq!(label, RoamingLabel::IH);
        assert!(label.is_international_inbound());
    }

    #[test]
    fn unobservable_combinations_are_none() {
        let reg = registry();
        // Foreign SIM attached to a foreign network: invisible to us.
        let nl = well_known::NL_SMART_METER_HMNO;
        let es = well_known::ES_HMNO;
        assert_eq!(RoamingLabel::derive(MNO, &reg, nl, es), None);
        // National SIM attached elsewhere: also invisible.
        let other_uk = well_known::UK_OTHER_MNOS[0];
        assert_eq!(RoamingLabel::derive(MNO, &reg, other_uk, es), None);
    }

    #[test]
    fn uk_secondary_mcc_is_national() {
        let reg = registry();
        // MCC 235 is also GB: a SIM there is National, not International.
        let sim = Plmn::of(235, 1);
        let label = RoamingLabel::derive(MNO, &reg, sim, MNO).unwrap();
        assert_eq!(label.sim(), SimOrigin::National);
    }

    #[test]
    fn display_codes() {
        assert_eq!(RoamingLabel::HH.to_string(), "H:H");
        assert_eq!(RoamingLabel::IH.to_string(), "I:H");
        assert_eq!(RoamingLabel::VA.to_string(), "V:A");
        let codes: Vec<String> = RoamingLabel::ALL.iter().map(|l| l.to_string()).collect();
        assert_eq!(codes, ["H:H", "H:A", "V:H", "V:A", "N:H", "I:H"]);
    }

    #[test]
    fn six_labels_total() {
        assert_eq!(RoamingLabel::ALL.len(), 6);
        let unique: std::collections::HashSet<_> = RoamingLabel::ALL.iter().collect();
        assert_eq!(unique.len(), 6);
    }

    #[test]
    fn index_is_the_position_in_all_and_in_label_order() {
        for (i, label) in RoamingLabel::ALL.iter().enumerate() {
            assert_eq!(label.index(), i);
            assert_eq!(
                RoamingLabel::from_parts(label.sim(), label.presence()),
                Some(*label)
            );
        }
        assert!(RoamingLabel::ALL.windows(2).all(|w| w[0] < w[1]));
        for sim in [SimOrigin::National, SimOrigin::International] {
            assert_eq!(RoamingLabel::from_parts(sim, Presence::Abroad), None);
        }
    }
}
