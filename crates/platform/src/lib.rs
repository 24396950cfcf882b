//! # wtr-platform — the M2M platform and the roaming business layer
//!
//! Implements the ecosystem §2 of the paper describes:
//!
//! * **Roaming agreements** ([`agreements`]): bilateral relationships plus
//!   roaming-hub memberships — "operators connect to a hubbing solution
//!   provider to gain access to many roaming partners … hubs are then
//!   interconnected to further expand potential operator relationships".
//!   The [`AgreementGraph`] is the `wtr-sim` [`AccessPolicy`]: it answers
//!   yes or no for each (home, visited) pair on every attach attempt.
//! * **The M2M platform** ([`platform`]): global IoT SIM provisioning from
//!   a handful of HMNOs (ES/DE/MX/AR in the paper), and the latency model
//!   of the three roaming architectures (home-routed / local breakout /
//!   IPX breakout, Fig. 1).
//!
//! [`AccessPolicy`]: wtr_sim::world::AccessPolicy

#![warn(missing_docs)]

pub mod agreements;
pub mod platform;

pub use agreements::{AgreementGraph, HubId};
pub use platform::{ArchitectureComparison, M2mPlatform, RoamingArchitecture, SimProvisioning};
