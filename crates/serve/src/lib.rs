//! # wtr-serve — resident catalog/analysis server
//!
//! The operational posture the paper's dataset implies (a probe
//! infrastructure continuously observing roaming devices, §3–4) lifted
//! onto the reproduction pipeline: a long-running, multi-tenant HTTP
//! server where probe taps stream catalog records *in* and many clients
//! query classification and the analysis tables *out*, concurrently.
//!
//! Std-only networking: hand-rolled HTTP/1.1 over
//! [`std::net::TcpListener`] plus a bounded worker pool — no external
//! dependencies beyond the workspace's vendored compat crates.
//!
//! ## Ingest
//!
//! `POST /ingest/{tenant}` accepts a catalog body in either on-disk
//! format (JSONL or `WTRCAT`, auto-sniffed — the same
//! [`wtr_probes::io::CatalogStream`] zero-copy scanner as the batch
//! pipeline). Every row adopts into the tenant's one in-memory catalog
//! in arrival order
//! ([`wtr_probes::catalog::DevicesCatalog::adopt_entry`]). A watermark
//! tracks which days are still open: a row's day opens unless it is
//! already behind the watermark, days that fall behind it are sealed,
//! and the receipt counts them. Sealing moves no rows.
//!
//! ## Query
//!
//! `GET /report/{tenant}/{table}` serves all 11 analysis tables plus
//! `classify` and `summary` from a response cache keyed by the tenant's
//! **absorb generation**: every successful ingest bumps the generation,
//! invalidating cached renders precisely. A rebuild runs the tenant's
//! catalog through `materialize_catalog` → `analyze` →
//! `render_analysis`, the analysis route `wtr analyze` also ends in, so
//! server reports are byte-identical to `wtr analyze` over the same
//! record set, at any tap count or arrival order (see [`tenant`]).
//! Readers never block ingest: the tenant books lock is held only long
//! enough to clone the catalog's `Arc` handle, and the rebuild runs
//! outside it.

pub mod http;
pub mod pool;
pub mod server;
pub mod tenant;

pub use server::{Server, ServerConfig};
pub use tenant::{ReportSet, Tenant, TABLES};
