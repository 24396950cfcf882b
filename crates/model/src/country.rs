//! Country registry: MCC ↔ country mapping, regions, and EU
//! roam-like-at-home regulation flags.
//!
//! The M2M platform in the paper supports IoT verticals in "over 70
//! countries" and the Spanish HMNO's devices were "active in 77 different
//! countries" (§3.2). The built-in registry therefore spans 85 countries
//! across all regions, enough to reproduce the platform's geographic
//! footprint at full breadth. MCC allocations follow ITU E.212.

use crate::ids::Mcc;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Macro-region a country belongs to, used when reporting the platform's
/// geographic footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// Europe (EU and non-EU).
    Europe,
    /// United States and Canada.
    NorthAmerica,
    /// Mexico, Central and South America, Caribbean.
    LatinAmerica,
    /// East, South and South-East Asia plus Oceania.
    AsiaPacific,
    /// Middle East.
    MiddleEast,
    /// Africa.
    Africa,
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Region::Europe => "Europe",
            Region::NorthAmerica => "North America",
            Region::LatinAmerica => "Latin America",
            Region::AsiaPacific => "Asia-Pacific",
            Region::MiddleEast => "Middle East",
            Region::Africa => "Africa",
        };
        f.write_str(s)
    }
}

/// A country in the registry.
///
/// Countries are `'static` registry entries; code passes around `&'static
/// Country` or the ISO code.
#[derive(Debug, PartialEq, Eq)]
pub struct Country {
    /// ISO 3166-1 alpha-2 code.
    pub iso: &'static str,
    /// English short name.
    pub name: &'static str,
    /// E.212 MCCs allocated to the country (first entry is primary).
    pub mccs: &'static [u16],
    /// Macro-region.
    pub region: Region,
    /// Whether the EU *roam-like-at-home* regulation applies (EU/EEA).
    /// The paper notes the Spanish HMNO "is active in a region where free
    /// roaming has been promoted intensively through regulation" (§3.2).
    pub eu_rlah: bool,
}

impl Country {
    /// Primary MCC of the country.
    pub fn primary_mcc(&self) -> Mcc {
        Mcc::new(self.mccs[0]).expect("registry MCCs are valid")
    }

    /// All countries in the registry.
    pub fn all() -> &'static [Country] {
        REGISTRY
    }

    /// Looks a country up by any of its MCCs.
    pub fn by_mcc(mcc: Mcc) -> Option<&'static Country> {
        REGISTRY.iter().find(|c| c.mccs.contains(&mcc.value()))
    }

    /// Looks a country up by ISO alpha-2 code (case-sensitive, upper).
    pub fn by_iso(iso: &str) -> Option<&'static Country> {
        REGISTRY.iter().find(|c| c.iso == iso)
    }

    /// Countries within a region.
    pub fn in_region(region: Region) -> impl Iterator<Item = &'static Country> {
        REGISTRY.iter().filter(move |c| c.region == region)
    }
}

impl fmt::Display for Country {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.iso)
    }
}

macro_rules! country {
    ($iso:literal, $name:literal, [$($mcc:literal),+], $region:ident, eu) => {
        Country { iso: $iso, name: $name, mccs: &[$($mcc),+], region: Region::$region, eu_rlah: true }
    };
    ($iso:literal, $name:literal, [$($mcc:literal),+], $region:ident) => {
        Country { iso: $iso, name: $name, mccs: &[$($mcc),+], region: Region::$region, eu_rlah: false }
    };
}

/// The built-in registry: 85 countries covering the paper's footprint.
static REGISTRY: &[Country] = &[
    // --- Europe, EU/EEA (roam-like-at-home) ---
    country!("ES", "Spain", [214], Europe, eu),
    country!("DE", "Germany", [262], Europe, eu),
    country!("NL", "Netherlands", [204], Europe, eu),
    country!("SE", "Sweden", [240], Europe, eu),
    country!("FR", "France", [208], Europe, eu),
    country!("IT", "Italy", [222], Europe, eu),
    country!("PT", "Portugal", [268], Europe, eu),
    country!("IE", "Ireland", [272], Europe, eu),
    country!("BE", "Belgium", [206], Europe, eu),
    country!("AT", "Austria", [232], Europe, eu),
    country!("PL", "Poland", [260], Europe, eu),
    country!("RO", "Romania", [226], Europe, eu),
    country!("GR", "Greece", [202], Europe, eu),
    country!("CZ", "Czechia", [230], Europe, eu),
    country!("HU", "Hungary", [216], Europe, eu),
    country!("SK", "Slovakia", [231], Europe, eu),
    country!("BG", "Bulgaria", [284], Europe, eu),
    country!("HR", "Croatia", [219], Europe, eu),
    country!("SI", "Slovenia", [293], Europe, eu),
    country!("LT", "Lithuania", [246], Europe, eu),
    country!("LV", "Latvia", [247], Europe, eu),
    country!("EE", "Estonia", [248], Europe, eu),
    country!("LU", "Luxembourg", [270], Europe, eu),
    country!("CY", "Cyprus", [280], Europe, eu),
    country!("MT", "Malta", [278], Europe, eu),
    country!("FI", "Finland", [244], Europe, eu),
    country!("DK", "Denmark", [238], Europe, eu),
    country!("NO", "Norway", [242], Europe, eu),
    country!("IS", "Iceland", [274], Europe, eu),
    // --- Europe, non-EU ---
    country!("GB", "United Kingdom", [234, 235], Europe),
    country!("CH", "Switzerland", [228], Europe),
    country!("RS", "Serbia", [220], Europe),
    country!("UA", "Ukraine", [255], Europe),
    country!("TR", "Turkey", [286], Europe),
    country!("RU", "Russia", [250], Europe),
    country!("AL", "Albania", [276], Europe),
    country!("BA", "Bosnia and Herzegovina", [218], Europe),
    country!("MK", "North Macedonia", [294], Europe),
    country!("ME", "Montenegro", [297], Europe),
    // --- North America ---
    country!(
        "US",
        "United States",
        [310, 311, 312, 313, 316],
        NorthAmerica
    ),
    country!("CA", "Canada", [302], NorthAmerica),
    // --- Latin America ---
    country!("MX", "Mexico", [334], LatinAmerica),
    country!("AR", "Argentina", [722], LatinAmerica),
    country!("BR", "Brazil", [724], LatinAmerica),
    country!("CL", "Chile", [730], LatinAmerica),
    country!("CO", "Colombia", [732], LatinAmerica),
    country!("PE", "Peru", [716], LatinAmerica),
    country!("EC", "Ecuador", [740], LatinAmerica),
    country!("UY", "Uruguay", [748], LatinAmerica),
    country!("PY", "Paraguay", [744], LatinAmerica),
    country!("BO", "Bolivia", [736], LatinAmerica),
    country!("VE", "Venezuela", [734], LatinAmerica),
    country!("CR", "Costa Rica", [712], LatinAmerica),
    country!("PA", "Panama", [714], LatinAmerica),
    country!("GT", "Guatemala", [704], LatinAmerica),
    country!("DO", "Dominican Republic", [370], LatinAmerica),
    country!("SV", "El Salvador", [706], LatinAmerica),
    country!("HN", "Honduras", [708], LatinAmerica),
    country!("NI", "Nicaragua", [710], LatinAmerica),
    // --- Asia-Pacific ---
    country!("AU", "Australia", [505], AsiaPacific),
    country!("NZ", "New Zealand", [530], AsiaPacific),
    country!("JP", "Japan", [440, 441], AsiaPacific),
    country!("KR", "South Korea", [450], AsiaPacific),
    country!("CN", "China", [460], AsiaPacific),
    country!("IN", "India", [404, 405], AsiaPacific),
    country!("SG", "Singapore", [525], AsiaPacific),
    country!("MY", "Malaysia", [502], AsiaPacific),
    country!("TH", "Thailand", [520], AsiaPacific),
    country!("ID", "Indonesia", [510], AsiaPacific),
    country!("PH", "Philippines", [515], AsiaPacific),
    country!("VN", "Vietnam", [452], AsiaPacific),
    country!("HK", "Hong Kong", [454], AsiaPacific),
    country!("TW", "Taiwan", [466], AsiaPacific),
    country!("PK", "Pakistan", [410], AsiaPacific),
    country!("BD", "Bangladesh", [470], AsiaPacific),
    country!("LK", "Sri Lanka", [413], AsiaPacific),
    country!("KZ", "Kazakhstan", [401], AsiaPacific),
    // --- Middle East ---
    country!("AE", "United Arab Emirates", [424], MiddleEast),
    country!("SA", "Saudi Arabia", [420], MiddleEast),
    country!("IL", "Israel", [425], MiddleEast),
    country!("QA", "Qatar", [427], MiddleEast),
    country!("KW", "Kuwait", [419], MiddleEast),
    country!("JO", "Jordan", [416], MiddleEast),
    country!("OM", "Oman", [422], MiddleEast),
    // --- Africa ---
    country!("ZA", "South Africa", [655], Africa),
    country!("MA", "Morocco", [604], Africa),
    country!("EG", "Egypt", [602], Africa),
    country!("NG", "Nigeria", [621], Africa),
    country!("KE", "Kenya", [639], Africa),
    country!("GH", "Ghana", [620], Africa),
    country!("TN", "Tunisia", [605], Africa),
    country!("DZ", "Algeria", [603], Africa),
    country!("SN", "Senegal", [608], Africa),
    country!("CI", "Ivory Coast", [612], Africa),
    country!("TZ", "Tanzania", [640], Africa),
    country!("UG", "Uganda", [641], Africa),
    country!("ET", "Ethiopia", [636], Africa),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_is_large_enough_for_platform_footprint() {
        // §3.2: ES devices active in 77 countries — the registry must allow
        // at least that many distinct visited countries.
        assert!(
            Country::all().len() >= 77,
            "registry has {} countries",
            Country::all().len()
        );
    }

    #[test]
    fn mccs_unique_across_countries() {
        let mut seen = HashSet::new();
        for c in Country::all() {
            for &mcc in c.mccs {
                assert!(seen.insert(mcc), "MCC {mcc} allocated twice");
            }
        }
    }

    #[test]
    fn iso_codes_unique_and_two_chars() {
        let mut seen = HashSet::new();
        for c in Country::all() {
            assert_eq!(c.iso.len(), 2);
            assert!(c.iso.bytes().all(|b| b.is_ascii_uppercase()));
            assert!(seen.insert(c.iso), "ISO {} duplicated", c.iso);
        }
    }

    #[test]
    fn all_mccs_in_geographic_range() {
        for c in Country::all() {
            for &mcc in c.mccs {
                assert!(Mcc::new(mcc).is_ok(), "{} MCC {mcc} invalid", c.iso);
            }
        }
    }

    #[test]
    fn lookup_by_mcc_covers_secondary_allocations() {
        let gb = Country::by_mcc(Mcc::new(235).unwrap()).unwrap();
        assert_eq!(gb.iso, "GB");
        let us = Country::by_mcc(Mcc::new(313).unwrap()).unwrap();
        assert_eq!(us.iso, "US");
        assert!(Country::by_mcc(Mcc::new(299).unwrap()).is_none());
    }

    #[test]
    fn paper_key_countries_present() {
        // The paper's HMNOs (ES, DE, MX, AR), the studied VMNO (GB), and the
        // top inbound-roamer home countries (NL, SE, ES).
        for iso in ["ES", "DE", "MX", "AR", "GB", "NL", "SE"] {
            assert!(Country::by_iso(iso).is_some(), "{iso} missing");
        }
    }

    #[test]
    fn eu_rlah_flags() {
        assert!(Country::by_iso("ES").unwrap().eu_rlah);
        assert!(Country::by_iso("NL").unwrap().eu_rlah);
        // Post-Brexit observation window (April 2019 data predates it, but
        // the registry models the UK as non-RLAH to exercise both branches).
        assert!(!Country::by_iso("MX").unwrap().eu_rlah);
        assert!(!Country::by_iso("AU").unwrap().eu_rlah);
    }

    #[test]
    fn regions_partition_registry() {
        let total: usize = [
            Region::Europe,
            Region::NorthAmerica,
            Region::LatinAmerica,
            Region::AsiaPacific,
            Region::MiddleEast,
            Region::Africa,
        ]
        .into_iter()
        .map(|r| Country::in_region(r).count())
        .sum();
        assert_eq!(total, Country::all().len());
    }
}
