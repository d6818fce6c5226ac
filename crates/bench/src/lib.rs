//! # tm-bench
//!
//! JTS ports of the 26 SunSpider programs (the paper's evaluation
//! workload, [`SUITE`]) — what the benchmark harness in `tm_bench/`
//! imports — plus the deterministic suite gates in
//! `tests/suite_gates.rs`.

pub mod harness;
pub mod suite;

pub use harness::run_program;
pub use suite::{by_name, BenchProgram, SUITE};
