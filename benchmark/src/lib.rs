//! The repository's one named benchmark. `README.md` in this directory
//! is the reference: workloads, metrics, how they interact, commands.

#![warn(missing_docs)]

pub mod check;
pub mod layers;
pub mod probes;
pub mod results;
pub mod run;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod workloads;
