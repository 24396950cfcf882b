//! Record schema of the M2M platform dataset — the exact fields §3.1
//! lists.
//!
//! Nothing in a record identifies a subscriber (IDs are one-way hashes) and
//! nothing reveals simulation ground truth. The visited-MNO side keeps no
//! per-event records at all: its probe folds radio events, CDRs and xDRs
//! into the daily devices-catalog on arrival (§4.1, [`crate::catalog`]).

use serde::{Deserialize, Serialize};
use std::fmt;
use wtr_model::ids::Plmn;
use wtr_model::time::SimTime;
use wtr_sim::events::{ProcedureResult, ProcedureType};

/// Message types of the M2M platform dataset: "message type (either
/// authentication, update location or cancel location)" (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum M2mMessageType {
    /// Authentication request toward the home HSS/AuC.
    Authentication,
    /// Update Location at the home HSS.
    UpdateLocation,
    /// Cancel Location pushed by the home HSS to the old VMNO.
    CancelLocation,
}

impl M2mMessageType {
    /// Maps a simulator procedure to the HMNO-visible message type, if the
    /// procedure is visible at the home network at all (local RAUs and
    /// plain detaches are not).
    pub fn from_procedure(p: ProcedureType) -> Option<M2mMessageType> {
        match p {
            ProcedureType::Authentication => Some(M2mMessageType::Authentication),
            // An initial attach reaches the HSS as an Update Location.
            ProcedureType::Attach | ProcedureType::UpdateLocation => {
                Some(M2mMessageType::UpdateLocation)
            }
            ProcedureType::CancelLocation => Some(M2mMessageType::CancelLocation),
            ProcedureType::RoutingAreaUpdate | ProcedureType::Detach => None,
        }
    }

    /// Label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            M2mMessageType::Authentication => "authentication",
            M2mMessageType::UpdateLocation => "update-location",
            M2mMessageType::CancelLocation => "cancel-location",
        }
    }
}

impl fmt::Display for M2mMessageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One transaction of the M2M platform dataset (§3.1): "a unique device ID
/// (a one-way hash), a timestamp, SIM country code and network code,
/// visited country code and mobile network code, message type, and a
/// message result".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct M2mTransaction {
    /// Anonymized device ID.
    pub device: u64,
    /// Timestamp.
    pub time: SimTime,
    /// SIM home PLMN.
    pub sim_plmn: Plmn,
    /// Visited network PLMN.
    pub visited_plmn: Plmn,
    /// Message type.
    pub message: M2mMessageType,
    /// Message result.
    pub result: ProcedureResult,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmno_visibility_mapping() {
        use ProcedureType as P;
        assert_eq!(
            M2mMessageType::from_procedure(P::Authentication),
            Some(M2mMessageType::Authentication)
        );
        assert_eq!(
            M2mMessageType::from_procedure(P::Attach),
            Some(M2mMessageType::UpdateLocation)
        );
        assert_eq!(
            M2mMessageType::from_procedure(P::UpdateLocation),
            Some(M2mMessageType::UpdateLocation)
        );
        assert_eq!(
            M2mMessageType::from_procedure(P::CancelLocation),
            Some(M2mMessageType::CancelLocation)
        );
        // Local procedures never reach the home network.
        assert_eq!(M2mMessageType::from_procedure(P::RoutingAreaUpdate), None);
        assert_eq!(M2mMessageType::from_procedure(P::Detach), None);
    }

    #[test]
    fn records_serialize() {
        let t = M2mTransaction {
            device: 0xdead_beef,
            time: SimTime::from_secs(7),
            sim_plmn: Plmn::of(214, 7),
            visited_plmn: Plmn::of(505, 1),
            message: M2mMessageType::UpdateLocation,
            result: ProcedureResult::RoamingNotAllowed,
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: M2mTransaction = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
