//! Umbrella crate for the Where-Things-Roam reproduction: re-exports
//! every workspace crate under one name for examples and downstream use.

pub use wtr_core as core;
pub use wtr_model as model;
pub use wtr_platform as platform;
pub use wtr_probes as probes;
pub use wtr_radio as radio;
pub use wtr_scenarios as scenarios;
pub use wtr_serve as serve;
pub use wtr_sim as sim;
