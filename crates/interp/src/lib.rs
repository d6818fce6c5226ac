//! # tm-interp
//!
//! The bytecode interpreter of the TraceMonkey reproduction — the
//! SpiderMonkey stand-in the paper's tracer extends.
//!
//! Dispatch is generic, through the shared operator semantics of
//! `tm_runtime::ops` (the 2009 SpiderMonkey interpreter, Figure 10's 1.0x
//! baseline).
//!
//! The interpreter owns the installed program so the trace monitor can
//! patch blacklisted loop headers to no-ops (§3.3), and returns control at
//! every monitored loop edge — the paper's "the interpreter must hit a loop
//! edge and enter the monitor" protocol (§6.1).
//!
//! ```
//! use tm_runtime::Realm;
//! use tm_interp::{Interp, RunExit};
//!
//! let ast = tm_frontend::parse("var s = 0; for (var i = 1; i <= 3; i++) s += i; s")?;
//! let mut realm = Realm::new();
//! let prog = tm_bytecode::compile(&ast, &mut realm)?;
//! let mut interp = Interp::new(prog, &mut realm);
//! let RunExit::Finished(v) = interp.run(&mut realm)? else { panic!() };
//! assert_eq!(realm.heap.number_value(v), Some(6.0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod install;
pub mod interp;

pub use install::{install, Installed, Literals};
pub use interp::{Flow, Frame, Interp, RunExit};
