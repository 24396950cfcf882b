//! # wtr-scenarios — calibrated reproductions of the paper's two datasets
//!
//! The paper's datasets are NDA-covered operator data; this crate builds
//! their closest synthetic equivalents by *simulating the populations* the
//! paper describes and collecting them through the real probe pipeline:
//!
//! * [`m2m`] — the **M2M platform scenario** (§3): ~120k global IoT SIMs
//!   (scaled) from four HMNOs (ES/DE/MX/AR) roaming world-wide over 11
//!   days, observed by the HMNO-side 4G signaling probe.
//! * [`mno`] — the **visited-MNO scenario** (§4–§7): the full device
//!   population of one UK operator over 22 days — native users, MVNO
//!   users, inbound and outbound roamers, smart meters (SMIP native +
//!   roaming), connected cars — observed by the MNO probe into the daily
//!   devices-catalog.
//!
//! Every population parameter is calibrated to a number the paper reports;
//! the calibration table lives in `EXPERIMENTS.md`. Scenarios are
//! deterministic in their seed and **scale-invariant by design**: all
//! reported quantities are shares and distributions, so running at 1/100
//! of paper scale preserves every shape (a property the test suite
//! checks).
//!
//! The [`universe`] module builds the shared world: operator registry,
//! country geometries, radio networks and the agreement graph.

#![warn(missing_docs)]

pub mod m2m;
pub mod mno;
pub mod universe;

pub use m2m::{M2mScenario, M2mScenarioConfig, M2mScenarioOutput};
pub use mno::{MnoScenario, MnoScenarioConfig, MnoScenarioOutput};
pub use universe::Universe;
