//! # wtr-platform — the M2M platform and the roaming business layer
//!
//! Implements the ecosystem §2 of the paper describes:
//!
//! * **Roaming agreements** ([`agreements`]): bilateral relationships plus
//!   roaming-hub memberships — "operators connect to a hubbing solution
//!   provider to gain access to many roaming partners … hubs are then
//!   interconnected to further expand potential operator relationships".
//! * **IPX hubs** ([`hub`]): the international-carrier interconnect that
//!   the M2M platform is built on.
//! * **The M2M platform** ([`platform`]): global IoT SIM provisioning from
//!   a handful of HMNOs (ES/DE/MX/AR in the paper), steering-of-roaming
//!   preference lists, and per-destination roaming architecture
//!   (home-routed / local breakout / IPX breakout, Fig. 1).
//! * **The access policy** ([`policy`]): the `wtr-sim` [`AccessPolicy`]
//!   implementation that decides admissions from the agreement graph and
//!   applies steering.
//!
//! [`AccessPolicy`]: wtr_sim::world::AccessPolicy

#![warn(missing_docs)]

pub mod agreements;
pub mod hub;
pub mod platform;
pub mod policy;

pub use agreements::{AgreementGraph, AgreementPath};
pub use hub::{HubId, IpxHub};
pub use platform::{ArchitectureComparison, M2mPlatform, RoamingArchitecture, SimProvisioning};
pub use policy::PlatformPolicy;
