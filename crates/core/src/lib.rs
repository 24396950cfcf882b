//! # wtr-core — the paper's primary contribution
//!
//! *Where Things Roam* (IMC 2020) contributes, beyond its measurements, a
//! practical method a visited MNO can run on its own records to understand
//! and manage roaming IoT devices. This crate is that method as a library:
//!
//! * **Device summaries** ([`summary`]) — fold the daily devices-catalog
//!   into per-device views (the unit of classification).
//! * **Classification** ([`keywords`], [`classify`], [`baseline`]) — the
//!   multi-step pipeline of §4.3 (APN keywords → validated APNs → device-
//!   property propagation) producing `smart` / `feat` / `m2m` /
//!   `m2m-maybe`, plus the naive baselines the paper argues against.
//! * **SMIP identification** ([`analysis::smip`]) — the §4.4 recipe:
//!   dedicated IMSI ranges for native smart meters, energy-company APN
//!   patterns + single foreign home operator + module-vendor TACs for
//!   roaming ones.
//! * **Metrics** ([`metrics`]) — empirical CDFs, shares, cross-tabulations;
//!   mobility (centroid/gyration) comes with the catalog rows.
//! * **Analyses** ([`analysis`]) — one module per paper figure/table,
//!   producing plain data structs the `repro` harness prints.
//! * **Validation** ([`validate`]) — precision/recall of any classifier
//!   against generator ground truth (the measurement the paper's authors
//!   could not make).
//! * **Reports** ([`report`]) — terminal rendering of tables and CDFs.
//!
//! Everything here consumes only probe *records* — never simulator ground
//! truth — so the pipeline runs unchanged on real operator data shaped
//! like the record schemas in `wtr-probes`.

#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod classify;
pub mod keywords;
pub mod metrics;
pub mod report;
pub mod stream;
pub mod summary;
pub mod validate;

pub use classify::{Classification, Classifier, DeviceClass};
pub use metrics::{CrossTab, Ecdf};
pub use stream::{materialize_catalog, stream_catalog, AnalysisSuite, StreamedCatalog};
pub use summary::{summarize, DeviceSummary};
pub use validate::{ConfusionMatrix, Validation};
