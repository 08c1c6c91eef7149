//! The umbrella crate's law table and the laws that share it, one binary.
//! Every module proves its laws on engines from [`support`]; [`matrix`] is
//! the table of cells that must all agree with the sequential oracle. The
//! API, chaos, dynamic-data, concurrency-stress and running-example suites
//! are binaries of their own beside this one and build through the same
//! `support`.

mod end_to_end_workloads;
mod figure_data;
mod fleet;
mod matrix;
mod methods;
mod oracle_property;
mod storage;
#[path = "../support/mod.rs"]
mod support;
