//! Access Point Name (APN) grammar and tokenization.
//!
//! APN strings "usually encode information about the specific
//! service/business they relate to" (§4.1) and are the backbone of the
//! paper's classification pipeline: the example
//! `smhp.centricaplc.com.mnc004.mcc204.gprs` both hints the vertical
//! (Centrica → energy → smart meters) and reveals the home operator
//! (`204-04`, Vodafone NL in the paper's example).
//!
//! An APN has two parts (3GPP TS 23.003):
//!
//! * the **Network Identifier** (NI) — the service name, dot-separated
//!   labels (`smhp.centricaplc.com`);
//! * an optional **Operator Identifier** (OI) — `mnc<MNC>.mcc<MCC>.gprs`,
//!   always 3-digit MNC in the OI.

use crate::error::ParseError;
use crate::ids::{Mcc, Mnc, Plmn};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A parsed, validated APN.
///
/// ```
/// use wtr_model::apn::Apn;
///
/// // The paper's worked example (§4.3): a Centrica smart meter homed on
/// // Vodafone NL.
/// let apn: Apn = "smhp.centricaplc.com.mnc004.mcc204.gprs".parse().unwrap();
/// assert_eq!(apn.network_identifier(), "smhp.centricaplc.com");
/// assert_eq!(apn.operator().unwrap().to_string(), "204-04");
/// assert!(apn.matches_keyword("centrica"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Apn {
    /// The Network Identifier labels, lowercase (e.g. `["smhp",
    /// "centricaplc", "com"]`). Shared, so a clone — one per simulated
    /// data session — copies a pointer.
    ni: Arc<[String]>,
    /// The operator the APN resolves through, when an OI is present.
    operator: Option<Plmn>,
}

impl Apn {
    /// Maximum total APN length (3GPP limit is 100 octets; we enforce it).
    pub const MAX_LEN: usize = 100;

    /// Builds an APN from a network-identifier string (dot-separated
    /// labels) and optional operator.
    ///
    /// The operator PLMN is canonicalized to the registry convention
    /// (2-digit MNC whenever the value fits): the OI wire format always
    /// writes 3 MNC digits, so the digit count carries no information
    /// there, and canonicalizing here makes `Display`/`FromStr` a true
    /// round trip. (Regression: constructing an APN with a 3-digit MNC of
    /// value ≤ 99, e.g. `mcc200 mnc000`, used to come back from parsing
    /// with a 2-digit MNC and compare unequal to the original.)
    pub fn new(ni: &str, operator: Option<Plmn>) -> Result<Self, ParseError> {
        let labels = Self::validate_ni(ni)?;
        let operator = operator.map(|op| {
            let v = op.mnc.value();
            if v <= 99 {
                Plmn::new(op.mcc, Mnc::new2(v).expect("<=99 fits 2 digits"))
            } else {
                op
            }
        });
        Ok(Apn {
            ni: labels.into(),
            operator,
        })
    }

    fn validate_ni(ni: &str) -> Result<Vec<String>, ParseError> {
        if ni.is_empty() {
            return Err(ParseError::BadApn {
                reason: "empty network identifier",
            });
        }
        if ni.len() > Self::MAX_LEN {
            return Err(ParseError::BadApn {
                reason: "network identifier exceeds 100 octets",
            });
        }
        let mut labels = Vec::new();
        for label in ni.split('.') {
            if label.is_empty() {
                return Err(ParseError::BadApn {
                    reason: "empty label (consecutive or leading/trailing dots)",
                });
            }
            if !label
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
            {
                return Err(ParseError::BadApn {
                    reason: "label contains characters outside [a-z0-9-_]",
                });
            }
            // NI labels must not start with the reserved OI prefixes.
            labels.push(label.to_ascii_lowercase());
        }
        // Reserved: an NI must not itself look like an OI tail.
        if labels.last().map(String::as_str) == Some("gprs") {
            return Err(ParseError::BadApn {
                reason: "network identifier must not end in .gprs (reserved for OI)",
            });
        }
        Ok(labels)
    }

    /// The network identifier as a dotted string.
    pub fn network_identifier(&self) -> String {
        self.ni.join(".")
    }

    /// The NI labels.
    pub fn labels(&self) -> &[String] {
        &self.ni
    }

    /// The operator from the OI, if present.
    pub fn operator(&self) -> Option<Plmn> {
        self.operator
    }

    /// All searchable tokens of the NI: the labels themselves. Keyword
    /// matching in the classifier is substring-based over these tokens
    /// (e.g. keyword `m2m` matches label `intelligent-m2m`).
    pub fn tokens(&self) -> impl Iterator<Item = &str> {
        self.ni.iter().map(String::as_str)
    }

    /// Whether any NI token contains `keyword` as a substring
    /// (case-insensitive; `keyword` must already be lowercase).
    pub fn matches_keyword(&self, keyword: &str) -> bool {
        debug_assert_eq!(keyword, keyword.to_ascii_lowercase());
        self.ni.iter().any(|t| t.contains(keyword))
    }

    /// Canonical full string, used as the deduplication key in the
    /// classifier's APN inventory.
    pub fn full(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Apn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ni.join("."))?;
        if let Some(op) = self.operator {
            // OI always uses a 3-digit MNC representation.
            write!(f, ".mnc{:03}.mcc{:03}.gprs", op.mnc.value(), op.mcc.value())?;
        }
        Ok(())
    }
}

impl FromStr for Apn {
    type Err = ParseError;

    /// Parses either a bare NI (`internet`) or NI + OI
    /// (`smhp.centricaplc.com.mnc004.mcc204.gprs`).
    fn from_str(s: &str) -> Result<Self, ParseError> {
        if s.len() > Self::MAX_LEN {
            return Err(ParseError::BadApn {
                reason: "APN exceeds 100 octets",
            });
        }
        let lower = s.to_ascii_lowercase();
        let labels: Vec<&str> = lower.split('.').collect();
        // Detect an OI suffix: [..., mncXXX, mccYYY, gprs]
        if labels.len() >= 4 && labels[labels.len() - 1] == "gprs" {
            let mcc_label = labels[labels.len() - 2];
            let mnc_label = labels[labels.len() - 3];
            if let (Some(mcc_digits), Some(mnc_digits)) =
                (mcc_label.strip_prefix("mcc"), mnc_label.strip_prefix("mnc"))
            {
                if mcc_digits.len() == 3 && mnc_digits.len() == 3 {
                    let mcc: Mcc = mcc_digits.parse()?;
                    // OI encodes MNC as 3 digits; registry PLMNs use the
                    // 2-digit European convention when the value fits.
                    let mnc_val: u16 = mnc_digits.parse::<Mnc>()?.value();
                    let mnc = if mnc_val <= 99 {
                        Mnc::new2(mnc_val).expect("<=99 fits 2 digits")
                    } else {
                        Mnc::new3(mnc_val).expect("<=999 fits 3 digits")
                    };
                    let ni = labels[..labels.len() - 3].join(".");
                    return Apn::new(&ni, Some(Plmn::new(mcc, mnc)));
                }
            }
        }
        Apn::new(&lower, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        // §4.3's worked example, Centrica smart meters homed on 204-04.
        let apn: Apn = "smhp.centricaplc.com.mnc004.mcc204.gprs".parse().unwrap();
        assert_eq!(apn.network_identifier(), "smhp.centricaplc.com");
        assert_eq!(apn.operator(), Some(Plmn::of(204, 4)));
        assert!(apn.matches_keyword("centrica"));
    }

    #[test]
    fn display_roundtrip_with_oi() {
        let apn: Apn = "telemetry.rwe.de.mnc002.mcc262.gprs".parse().unwrap();
        assert_eq!(apn.to_string(), "telemetry.rwe.de.mnc002.mcc262.gprs");
        let back: Apn = apn.to_string().parse().unwrap();
        assert_eq!(back, apn);
    }

    #[test]
    fn bare_ni_roundtrip() {
        let apn: Apn = "internet".parse().unwrap();
        assert_eq!(apn.operator(), None);
        assert_eq!(apn.to_string(), "internet");
    }

    #[test]
    fn case_is_normalized() {
        let apn: Apn = "PayAndGo.Example".parse().unwrap();
        assert_eq!(apn.network_identifier(), "payandgo.example");
        assert!(apn.matches_keyword("payandgo"));
    }

    #[test]
    fn keyword_is_substring_of_token() {
        let apn: Apn = "intelligent-m2m.provider".parse().unwrap();
        assert!(apn.matches_keyword("m2m"));
        assert!(!apn.matches_keyword("scania"));
    }

    #[test]
    fn rejects_malformed() {
        assert!("".parse::<Apn>().is_err());
        assert!("a..b".parse::<Apn>().is_err());
        assert!(".leading".parse::<Apn>().is_err());
        assert!("trailing.".parse::<Apn>().is_err());
        assert!("spa ce".parse::<Apn>().is_err());
        assert!("ends.gprs".parse::<Apn>().is_err());
        let long = "a".repeat(101);
        assert!(long.parse::<Apn>().is_err());
    }

    #[test]
    fn non_oi_gprs_like_suffix_is_rejected_not_misparsed() {
        // `mncX.mccY.gprs` with wrong digit counts is not an OI; since it
        // then ends in `.gprs` it is rejected as a reserved NI.
        assert!("service.mnc04.mcc204.gprs".parse::<Apn>().is_err());
    }

    #[test]
    fn three_digit_mnc_in_oi_preserved() {
        let apn: Apn = "fleet.example.mnc130.mcc310.gprs".parse().unwrap();
        let op = apn.operator().unwrap();
        assert_eq!(op.mnc.value(), 130);
        assert_eq!(op.mnc.digits(), 3);
    }

    #[test]
    fn constructed_three_digit_mnc_below_100_roundtrips() {
        // Regression anchor for the proptest seed `labels = ["a"],
        // has_oi = true, plmn = 200-000 (3-digit)`: `Apn::new` now
        // canonicalizes the operator MNC, so construction and parsing
        // agree.
        let op = Plmn::new(
            "200".parse::<Mcc>().unwrap(),
            Mnc::new3(0).expect("000 is a valid 3-digit MNC"),
        );
        let apn = Apn::new("a", Some(op)).unwrap();
        assert_eq!(apn.to_string(), "a.mnc000.mcc200.gprs");
        let back: Apn = apn.to_string().parse().unwrap();
        assert_eq!(back, apn);
        assert_eq!(apn.operator().unwrap().mnc.digits(), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let apn: Apn = "smhp.centricaplc.com.mnc004.mcc204.gprs".parse().unwrap();
        let json = serde_json::to_string(&apn).unwrap();
        let back: Apn = serde_json::from_str(&json).unwrap();
        assert_eq!(back, apn);
    }
}
