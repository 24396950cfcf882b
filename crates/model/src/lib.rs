//! # wtr-model — cellular identifier and domain model
//!
//! Foundation crate for the *Where Things Roam* reproduction (Lutu et al.,
//! IMC 2020). It models the identifiers and registries that every other
//! crate builds on:
//!
//! * **Identifiers** ([`ids`]): [`ids::Mcc`], [`ids::Mnc`], [`ids::Plmn`],
//!   [`ids::Imsi`], [`ids::Imei`], [`ids::Tac`] — with parsing, validation
//!   and display in standard digit-string form.
//! * **Countries** ([`country`]): an MCC ↔ country registry covering the
//!   ~80 countries the paper's M2M platform footprint spans, with region
//!   and EU *roam-like-at-home* regulation flags.
//! * **Operators** ([`operators`]): PLMN allocations for home and visited
//!   networks, MVNO relationships.
//! * **Radio** ([`rat`]): radio access technologies (2G/3G/4G), capability
//!   sets and the paper's per-device `radio-flags`.
//! * **APNs** ([`apn`]): the Access Point Name grammar
//!   (`<network-id>.mnc<MNC>.mcc<MCC>.gprs`), keyword extraction used by the
//!   classification pipeline.
//! * **APN interning** ([`intern`]): deterministic [`intern::ApnSym`]
//!   symbols + [`intern::ApnTable`], so catalog rows and the classifier
//!   work with `Copy` keys instead of owned strings.
//! * **TAC catalog** ([`tacdb`]): a GSMA-like device database mapping IMEI
//!   Type Allocation Codes to vendor / model / OS / radio-band properties.
//! * **Roaming labels** ([`roaming`]): the paper's `<X:Y>` six-label
//!   taxonomy (§4.2).
//! * **Ground truth** ([`vertical`]): the hidden device vertical used only
//!   for validating classification output.
//!
//! All types are plain data with [`serde`] support; nothing here performs IO.

#![warn(missing_docs)]

pub mod apn;
pub mod country;
pub mod error;
pub mod hash;
pub mod ids;
pub mod intern;
pub mod operators;
pub mod rat;
pub mod roaming;
pub mod tacdb;
pub mod time;
pub mod vertical;

pub use apn::Apn;
pub use country::{Country, Region};
pub use error::ParseError;
pub use ids::{Imei, Imsi, Mcc, Mnc, Plmn, Tac};
pub use intern::{ApnSym, ApnTable};
pub use rat::{RadioFlags, Rat, RatSet};
pub use roaming::{Presence, RoamingLabel, SimOrigin};
pub use tacdb::{GsmaClass, TacDatabase, TacInfo};
pub use time::{Day, SimDuration, SimTime};
pub use vertical::Vertical;
