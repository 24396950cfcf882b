//! # wtr-radio — radio access network model
//!
//! Models the parts of the RAN the paper's datasets observe: **geo-located
//! radio sectors** per operator and RAT, and the mapping from a device's
//! physical position to the sector handling it.
//!
//! The paper computes device mobility (weighted centroid + radius of
//! gyration, §5.3) purely from "the physical coordinates of the cell
//! sectors to which devices connect", so the simulator needs sectors with
//! coordinates — nothing more of the radio layer. Design follows the
//! smoltcp ethos: sectors are *computed, not stored*. A [`SectorId`]
//! algebraically encodes (PLMN, RAT, grid cell); its position is decoded on
//! demand, so a nationwide deployment costs zero memory and lookups are
//! `O(1)`.
//!
//! Modules:
//! * [`geo`] — latitude/longitude points, haversine distance, synthetic
//!   country geometry;
//! * [`sector`] — sector identifiers and the grid codec;
//! * [`network`] — per-operator radio networks, sector selection, coverage
//!   holes (fault injection).

#![warn(missing_docs)]

pub mod geo;
pub mod network;
pub mod sector;

pub use geo::{CountryGeometry, GeoPoint};
pub use network::{CoverageFaults, RadioNetwork};
pub use sector::{SectorGrid, SectorId};
