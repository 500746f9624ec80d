//! # mini-backend — bytecode generation and execution
//!
//! The `GenBCode` analogue of the pipeline plus the runtime it targets: a
//! small stack VM with objects, virtual dispatch (linearization-derived
//! vtables), arrays, exceptions with handler tables, and a captured
//! `println`. Compiled MiniScala programs actually run.

#![warn(missing_docs)]

pub mod bytecode;
pub mod codegen;
pub mod vm;

pub use bytecode::{
    ClassId, Cmp, FnId, Function, Handler, Insn, MethodSlot, Program, TypeTest, VmClass, NO_FIELD,
};
pub use codegen::{
    compile_unit, fuse, generate, link, CodegenError, Linked, RelocatedUnit, UnitCode,
};
pub use vm::{Value, Vm, VmError, VmMode, VmOptions, VmStats, DEFAULT_MAX_FRAMES};

#[cfg(test)]
mod tests;
