//! Operator registry: PLMN allocations for MNOs and MVNOs.
//!
//! The registry plays the role the GSMA IR.21 documents play for a real
//! operator: given a PLMN observed on a SIM or a radio attach, resolve which
//! operator it is, in which country, and whether it is a full MNO or an
//! MVNO riding on a host network. All operator names are synthetic — the
//! paper anonymizes its operators, and so do we.

use crate::country::Country;
use crate::error::ParseError;
use crate::hash::mix64;
use crate::ids::{Mnc, Plmn};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Index of an operator inside an [`OperatorRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct OperatorId(pub u32);

/// Whether an operator owns radio infrastructure or rides on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OperatorKind {
    /// Full Mobile Network Operator with its own radio network.
    Mno,
    /// Mobile Virtual Network Operator hosted on another MNO's radio
    /// network. SIMs of an MVNO attached to the host network get the
    /// paper's `V:H` roaming label rather than `N:H`.
    Mvno {
        /// PLMN of the hosting MNO.
        host: Plmn,
    },
}

/// One operator entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Operator {
    /// The operator's PLMN.
    pub plmn: Plmn,
    /// Synthetic display name.
    pub name: String,
    /// ISO code of the home country.
    pub country_iso: String,
    /// MNO or MVNO.
    pub kind: OperatorKind,
}

impl Operator {
    /// Country of the operator.
    pub fn country(&self) -> &'static Country {
        Country::by_iso(&self.country_iso).expect("registry countries exist")
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.plmn)
    }
}

/// Registry of all operators known to a scenario.
///
/// Built once at scenario setup; lookups by PLMN are `O(1)`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OperatorRegistry {
    operators: Vec<Operator>,
    #[serde(skip)]
    by_plmn: HashMap<u32, OperatorId>,
}

impl OperatorRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the standard registry used by the paper scenarios: every
    /// country in the country registry gets `mnos_per_country` MNOs with
    /// deterministic MNC allocations, and the paper's named networks get
    /// fixed, curated PLMNs (see [`well_known`]).
    pub fn standard(mnos_per_country: u8) -> Self {
        let mut reg = OperatorRegistry::new();
        // Curated PLMNs first so their MNCs are reserved.
        for (plmn, name, iso) in well_known::CURATED {
            reg.insert(Operator {
                plmn: *plmn,
                name: (*name).to_owned(),
                country_iso: (*iso).to_owned(),
                kind: OperatorKind::Mno,
            })
            .expect("curated PLMNs are unique");
        }
        // The studied MNO's MVNOs (paper §4.2: `V` SIM origin).
        for (plmn, name) in well_known::UK_MVNOS {
            reg.insert(Operator {
                plmn: *plmn,
                name: (*name).to_owned(),
                country_iso: "GB".to_owned(),
                kind: OperatorKind::Mvno {
                    host: well_known::UK_STUDIED_MNO,
                },
            })
            .expect("curated MVNO PLMNs are unique");
        }
        // Fill every country with synthetic MNOs.
        for country in Country::all() {
            let mcc = country.primary_mcc();
            let mut allocated = 0u8;
            let mut candidate = 1u16;
            while allocated < mnos_per_country && candidate <= 99 {
                let plmn = Plmn::new(mcc, Mnc::new2(candidate).unwrap());
                if reg.get(plmn).is_none() {
                    // Deterministic but varied naming.
                    let flavor = NAME_FLAVORS[(mix64(mcc.value() as u64 * 100 + candidate as u64)
                        % NAME_FLAVORS.len() as u64)
                        as usize];
                    reg.insert(Operator {
                        plmn,
                        name: format!("{} {}", country.iso, flavor),
                        country_iso: country.iso.to_owned(),
                        kind: OperatorKind::Mno,
                    })
                    .expect("candidate PLMN checked free");
                    allocated += 1;
                }
                candidate += 1;
            }
        }
        reg
    }

    /// Inserts an operator, failing if its PLMN is already allocated.
    pub fn insert(&mut self, op: Operator) -> Result<OperatorId, ParseError> {
        let key = op.plmn.packed();
        if self.by_plmn.contains_key(&key) {
            return Err(ParseError::UnknownPlmn {
                mcc: op.plmn.mcc.value(),
                mnc: op.plmn.mnc.value(),
            });
        }
        let id = OperatorId(self.operators.len() as u32);
        self.by_plmn.insert(key, id);
        self.operators.push(op);
        Ok(id)
    }

    /// Looks up an operator by PLMN.
    pub fn get(&self, plmn: Plmn) -> Option<&Operator> {
        self.by_plmn
            .get(&plmn.packed())
            .map(|id| &self.operators[id.0 as usize])
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.operators.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.operators.is_empty()
    }

    /// All operators.
    pub fn iter(&self) -> impl Iterator<Item = &Operator> {
        self.operators.iter()
    }

    /// All MNOs (not MVNOs) in a given country.
    pub fn mnos_in(&self, iso: &str) -> impl Iterator<Item = &Operator> + '_ {
        let iso = iso.to_owned();
        self.operators
            .iter()
            .filter(move |o| o.country_iso == iso && matches!(o.kind, OperatorKind::Mno))
    }

    /// Rebuilds the PLMN index after deserialization.
    pub fn reindex(&mut self) {
        self.by_plmn = self
            .operators
            .iter()
            .enumerate()
            .map(|(i, o)| (o.plmn.packed(), OperatorId(i as u32)))
            .collect();
    }
}

const NAME_FLAVORS: &[&str] = &[
    "Mobile", "Telecom", "Cell", "Net", "Wireless", "Connect", "Com", "Link",
];

/// Fixed PLMNs for the networks the paper names (anonymized as in the
/// paper: operators are referred to by role and country).
pub mod well_known {
    use crate::ids::Plmn;

    /// The large European (UK) MNO whose population §4–§7 studies.
    pub const UK_STUDIED_MNO: Plmn = Plmn::of(234, 30);
    /// Other UK national MNOs (for `N:H` national inbound roamers).
    pub const UK_OTHER_MNOS: &[Plmn] = &[Plmn::of(234, 10), Plmn::of(234, 15), Plmn::of(234, 20)];
    /// The Spanish HMNO behind 52.3% of the M2M platform's IoT SIMs (§3.2).
    pub const ES_HMNO: Plmn = Plmn::of(214, 7);
    /// The German HMNO (≈1k devices, 18 VMNOs — connected-car profile).
    pub const DE_HMNO: Plmn = Plmn::of(262, 2);
    /// The Mexican HMNO (42.2% of devices, 90% at home).
    pub const MX_HMNO: Plmn = Plmn::of(334, 20);
    /// The Argentinian HMNO (4.7% of devices, almost all at home).
    pub const AR_HMNO: Plmn = Plmn::of(722, 10);
    /// The Dutch operator provisioning every SMIP-roaming smart-meter SIM
    /// the paper identifies (§4.4: "all the SIMs ... are provisioned by the
    /// same cellular operator in the Netherlands", cf. `mnc004.mcc204`).
    pub const NL_SMART_METER_HMNO: Plmn = Plmn::of(204, 4);
    /// The Swedish HMNO prominent among inbound-roaming M2M SIMs (Fig. 5).
    pub const SE_HMNO: Plmn = Plmn::of(240, 1);

    /// Curated (PLMN, name, country-ISO) triples inserted before synthesis.
    pub(super) const CURATED: &[(Plmn, &str, &str)] = &[
        (UK_STUDIED_MNO, "Albion Mobile", "GB"),
        (UK_OTHER_MNOS[0], "Thames Telecom", "GB"),
        (UK_OTHER_MNOS[1], "Mercia Cell", "GB"),
        (UK_OTHER_MNOS[2], "Caledonia Net", "GB"),
        (ES_HMNO, "Iberia Movil", "ES"),
        (DE_HMNO, "Rhein Mobilfunk", "DE"),
        (MX_HMNO, "Azteca Cel", "MX"),
        (AR_HMNO, "Pampa Movil", "AR"),
        (NL_SMART_METER_HMNO, "Tulip Connect", "NL"),
        (SE_HMNO, "Norr Mobil", "SE"),
    ];

    /// MVNOs hosted on the studied UK MNO.
    pub(super) const UK_MVNOS: &[(Plmn, &str)] = &[
        (Plmn::of(234, 31), "Albion Virtual One"),
        (Plmn::of(234, 32), "Albion Virtual Two"),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_covers_every_country() {
        let reg = OperatorRegistry::standard(3);
        for c in Country::all() {
            assert!(
                reg.mnos_in(c.iso).count() >= 3,
                "{} has too few MNOs",
                c.iso
            );
        }
    }

    #[test]
    fn curated_plmns_resolve() {
        let reg = OperatorRegistry::standard(2);
        let es = reg.get(well_known::ES_HMNO).unwrap();
        assert_eq!(es.country_iso, "ES");
        assert_eq!(es.name, "Iberia Movil");
        let nl = reg.get(well_known::NL_SMART_METER_HMNO).unwrap();
        assert_eq!(nl.plmn.to_string(), "204-04");
    }

    #[test]
    fn mvnos_point_at_host() {
        let reg = OperatorRegistry::standard(2);
        let mvno = reg.get(Plmn::of(234, 31)).unwrap();
        match mvno.kind {
            OperatorKind::Mvno { host } => assert_eq!(host, well_known::UK_STUDIED_MNO),
            OperatorKind::Mno => panic!("expected MVNO"),
        }
        // MVNOs are excluded from mnos_in.
        assert!(reg
            .mnos_in("GB")
            .all(|o| matches!(o.kind, OperatorKind::Mno)));
    }

    #[test]
    fn duplicate_plmn_rejected() {
        let mut reg = OperatorRegistry::new();
        let op = Operator {
            plmn: Plmn::of(214, 7),
            name: "A".into(),
            country_iso: "ES".to_owned(),
            kind: OperatorKind::Mno,
        };
        reg.insert(op.clone()).unwrap();
        assert!(reg.insert(op).is_err());
    }

    #[test]
    fn registry_is_deterministic() {
        let a = OperatorRegistry::standard(3);
        let b = OperatorRegistry::standard(3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn reindex_restores_lookups() {
        let reg = OperatorRegistry::standard(2);
        let json = serde_json::to_string(&reg).unwrap();
        let mut back: OperatorRegistry = serde_json::from_str(&json).unwrap();
        assert!(
            back.get(well_known::ES_HMNO).is_none(),
            "index not serialized"
        );
        back.reindex();
        assert!(back.get(well_known::ES_HMNO).is_some());
        assert_eq!(back.len(), reg.len());
    }

    #[test]
    fn synthetic_names_are_stable_and_country_tagged() {
        let reg = OperatorRegistry::standard(2);
        for op in reg.iter() {
            assert!(!op.name.is_empty());
            assert!(op.plmn.mcc.value() > 0);
            // Every operator's PLMN MCC belongs to its declared country.
            assert!(op.country().mccs.contains(&op.plmn.mcc.value()));
        }
    }
}
