//! A miniature IrGL-style graph-algorithm DSL: the compiler substrate of
//! the study.
//!
//! The paper's methodology is built around a graph-DSL compiler with a
//! tunable set of transformations. This crate provides that substrate in
//! miniature:
//!
//! - [`ast`] — the kernel IR: per-node fields, data-parallel kernels with
//!   an irregular edge loop, worklist pushes, global reductions, and
//!   host-side drivers;
//! - [`validate`] — the front-end checks and the crate's error type;
//! - [`profile`] — static derivation of per-node/per-edge operation
//!   counts (the machine's [`KernelProfile`](gpp_sim::exec::KernelProfile));
//! - [`transform`] — the optimisation passes: which of the paper's four
//!   transformations legally apply to each kernel under a configuration;
//! - [`codegen`] — pseudo-OpenCL rendering with every transformation
//!   visible in the emitted code;
//! - [`parser`] / [`printer`] — the textual front end: `.irgl` source
//!   round-trips through [`ast::Program`], and nesting deeper than
//!   [`parser::MAX_DEPTH`] is a [`ParseError`];
//! - [`interp`] — the runtime front door ([`execute`], which always runs
//!   the native tier) and the reference oracle [`execute_ast`]: a
//!   tree-walker that executes programs over real graphs, computing
//!   results while driving a timing session or trace recorder, kept for
//!   the differential tests and benches;
//! - [`native`] — the compiled tier: [`CompiledProgram`] validates a
//!   program once and lowers each kernel to one flat array of
//!   slot-addressed instructions (constants folded, launch invariants
//!   hoisted, the built-ins' edge loops fused into superinstructions)
//!   that [`NativeVm`] runs bit-identically to the tree-walker;
//! - [`programs`] — seven applications written in the DSL: `.irgl`
//!   files under the crate's `programs/` directory, embedded in the
//!   binary and parsed when called, validated against the sequential
//!   references.
//!
//! # Example
//!
//! ```
//! use gpp_irgl::{interp, programs, transform, codegen};
//! use gpp_graph::generators;
//! use gpp_sim::chip::ChipProfile;
//! use gpp_sim::exec::Machine;
//! use gpp_sim::opts::{OptConfig, Optimization};
//!
//! let program = programs::bfs_worklist();
//! let graph = generators::rmat(8, 6, 1)?;
//!
//! // Compile: plan the transformations and render the OpenCL.
//! let cfg = OptConfig::baseline().with(Optimization::CoopCv);
//! let plan = transform::plan(&program, cfg)?;
//! let source = codegen::opencl(&program, &plan)?;
//! assert!(source.contains("sub_group_reduce_add")); // coop-cv applied
//!
//! // Execute: compute real levels while timing on a simulated GPU.
//! let machine = Machine::new(ChipProfile::r9());
//! let mut session = machine.session(cfg);
//! let result = interp::execute(&program, &graph, &mut session)?;
//! assert_eq!(result.output(&program)[0], 0.0);
//! assert!(session.elapsed_ns() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod codegen;
pub mod interp;
pub mod native;
pub mod parser;
pub mod printer;
pub mod profile;
pub mod programs;
pub mod transform;
pub mod validate;

pub use ast::{Driver, Expr, Kernel, Program, Stmt};
pub use interp::{execute, execute_ast, Execution};
pub use native::{CompiledProgram, NativeVm};
pub use parser::{parse, ParseError};
pub use printer::to_source;
pub use transform::{plan, CompilationPlan};
pub use validate::{validate as validate_program, IrglError};
