//! # wtr-probes — passive measurement infrastructure
//!
//! The reproduction of the paper's two data-collection pipelines, attached
//! to the simulator exactly where the real probes attach to the network
//! (Fig. 4: MME, MSC, SGSN; plus CDR/xDR billing feeds):
//!
//! * [`m2m`] — the **M2M platform probe**: sits HMNO-side and records the
//!   signaling transactions of platform-issued IoT SIMs on 4G networks
//!   world-wide, producing the §3 dataset (device hash, timestamp, SIM
//!   MCC-MNC, visited MCC-MNC, message type, message result).
//! * [`mno`] — the **visited-MNO probe**: sees every device attached to
//!   one studied MNO's radio network (and the CDR/xDR clearing records of
//!   its outbound roamers), feeding the daily devices-catalog of §4.1.
//! * [`catalog`] — the **devices-catalog builder**: the daily aggregate
//!   join of radio events + service records + the GSMA TAC catalog.
//! * [`records`] — the record schemas, with the same fields the paper
//!   lists.
//! * [`wire`] — a compact binary encoding for persisting transaction logs.
//! * [`io`] — JSONL import/export so the pipeline runs on external data.
//! * [`faults`] — deterministic record-loss injection for robustness
//!   testing (the smoltcp `--drop-chance` idiom at the record layer).
//!
//! ## The information boundary
//!
//! Probes enforce the paper's privacy model: subscriber identifiers are
//! **anonymized with a stable one-way hash before anything downstream sees
//! them**, and ground-truth fields of the simulation (the device's actual
//! vertical) never cross into records. Whatever the classifier in
//! `wtr-core` achieves, it achieves from the same information a real
//! operator has.

#![warn(missing_docs)]

pub mod catalog;
pub mod faults;
mod idmap;
pub mod io;
pub mod m2m;
pub mod mno;
pub mod records;
mod scan;
pub mod wire;

pub use catalog::{CatalogEntry, DevicesCatalog};
pub use faults::LossySink;
pub use m2m::M2mProbe;
pub use mno::MnoProbe;
pub use records::{M2mMessageType, M2mTransaction};
