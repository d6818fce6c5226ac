//! # `tm-support` — hermetic test & measurement support
//!
//! Zero-dependency stand-ins for the registry crates the workspace used
//! before it went offline-hermetic (`rand`, `serde_json`, `proptest`).
//! Everything here is implemented on `std` alone so that
//!
//! ```sh
//! cargo build --release --offline --locked && cargo test -q --offline --locked
//! ```
//!
//! succeeds on a machine with no network and no cargo registry cache.
//!
//! The modules and what they replace:
//!
//! | module | replaces | used by |
//! |---|---|---|
//! | [`rng`] | `rand` (`StdRng::seed_from_u64`) | `tests/fuzz_differential.rs` |
//! | [`json`] | `serde`/`serde_json` | `tm_bench/` (the benchmark harness) |
//! | [`prop`] | `proptest` | `tests/property.rs` |
//! | [`binio`] | `bincode`/`byteorder` | the persistent trace cache |
//!
//! Each module's own documentation states its algorithm and its
//! reproducibility contract; the overriding design rule is that **every
//! random choice is derived from an explicit seed**, so any failure is
//! replayable from the numbers printed in its report.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod binio;
pub mod json;
pub mod prop;
pub mod rng;
pub mod sched;

pub use binio::{hash64, BinError, ByteReader, ByteWriter, WordHasher, WordMap};
pub use json::{Json, ParseError};
pub use prop::{Config, Failure};
pub use rng::TmRng;
