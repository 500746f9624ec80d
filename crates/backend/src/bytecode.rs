//! Bytecode definitions for the mini VM.
//!
//! The backend plays the role of `GenBCode`: it consumes fully lowered trees
//! (no `Match`, no `Lambda`, no generics) and emits a simple stack bytecode
//! that the in-crate VM interprets, so compiled MiniScala programs actually
//! run.
//!
//! ## Method slots and link-time dispatch tables
//!
//! Virtual and direct calls do not carry method *names*; they carry dense
//! **slot ids** into [`Program::method_names`]. Slots are interned at link
//! time: [`crate::codegen::compile_unit`] numbers each unit's selectors in
//! a unit-local table, and [`crate::codegen::link`] interns all units'
//! selectors (in whole-program first-use order) and rewrites every call
//! site to the program-wide slot. Then [`Program::link`] builds per-class
//! dense dispatch tables ([`VmClass::vtable_slots`], indexed by slot) and
//! dense field-resolution tables ([`VmClass::field_slots`], indexed by
//! global field id) next to the original `HashMap`s. The VM's fast mode indexes
//! the dense tables; its reference mode resolves the slot back to a `Name`
//! and pays the original per-call `HashMap` probe, which keeps the old
//! dispatch cost honestly measurable in the `exec` A/B bench.

use mini_ir::Name;
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a class in [`Program::classes`].
pub type ClassId = u32;

/// Index of a function in [`Program::functions`].
pub type FnId = u32;

/// Index into [`Program::method_names`]: a method selector interned at
/// link time so call sites and dispatch tables agree on a dense id.
pub type MethodSlot = u32;

/// Sentinel in [`VmClass::field_slots`] for "this class has no layout slot
/// for that global field id".
pub const NO_FIELD: u16 = u16::MAX;

/// A runtime type test target (for `isInstanceOf` / checked casts).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TypeTest {
    /// Always true.
    Any,
    /// Any reference value (object, string, array, null is NOT AnyRef).
    AnyRef,
    /// 64-bit integer.
    Int,
    /// Boolean.
    Bool,
    /// Unit.
    Unit,
    /// String.
    Str,
    /// Null.
    Null,
    /// Instance of the class (or a subclass / implementing class).
    Class(ClassId),
    /// Any array.
    Array,
}

/// Comparison kind carried by the fused [`Insn::CmpBranch`]
/// superinstruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    /// Universal equality (`CmpEq`).
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

/// One bytecode instruction.
///
/// Every expression pushes exactly one value; statements are followed by
/// `Pop`.
///
/// The trailing variants never come out of codegen directly:
/// [`Insn::LoadLoad`], [`Insn::LoadConst`], [`Insn::AddConst`],
/// [`Insn::AddStore`], [`Insn::LoadCall`] and [`Insn::CmpBranch`] are
/// **superinstructions** produced by the peephole pass
/// ([`crate::codegen::fuse`]) over the hottest decoded pairs, and
/// [`Insn::CallVirtualIC`] is the inline-cache rewrite of `CallVirtual`
/// that the fast VM mode applies per call site. Both rewrites are applied
/// to a *prepared copy* of a function's code on its first call in a fast
/// VM; [`Function::code`]
/// as stored in the [`Program`] stays plain so one linked program serves
/// fast and reference execution alike.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Insn {
    /// Push an integer constant.
    ConstInt(i64),
    /// Push a boolean constant.
    ConstBool(bool),
    /// Push a string constant.
    ConstStr(Name),
    /// Push unit.
    ConstUnit,
    /// Push null.
    ConstNull,
    /// Push local slot.
    Load(u16),
    /// Pop into local slot.
    Store(u16),
    /// Push object field (receiver on stack). The operand is a *global*
    /// field id; the receiver's class resolves it to a local slot (trait
    /// fields inherited by several classes may land in different slots).
    GetField(u16),
    /// Pop value and receiver, write field (global field id).
    PutField(u16),
    /// Call a static function with `argc` arguments.
    CallStatic(FnId, u16),
    /// Virtual dispatch on the receiver (receiver + args on stack). The
    /// first operand is a [`MethodSlot`].
    CallVirtual(MethodSlot, u16),
    /// Direct (non-virtual) call into a known class's method — `super`
    /// calls and constructor invocations. The second operand is a
    /// [`MethodSlot`].
    CallDirect(ClassId, MethodSlot, u16),
    /// Allocate an instance of a class (fields null/zero-initialized).
    New(ClassId),
    /// Pop length, push a new array of unit values.
    NewArray,
    /// Pop index and array, push element.
    ALoad,
    /// Pop value, index, array; write element, push unit.
    AStore,
    /// Pop array, push length.
    ALen,
    /// Integer arithmetic.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (traps on zero → throws).
    Div,
    /// Integer remainder.
    Mod,
    /// Integer negation.
    Neg,
    /// Boolean negation.
    Not,
    /// Universal value equality (numbers by value, strings by content,
    /// objects by reference).
    CmpEq,
    /// Integer comparisons.
    CmpLt,
    /// `>`
    CmpGt,
    /// `<=`
    CmpLe,
    /// `>=`
    CmpGe,
    /// String concatenation (either operand stringified).
    Concat,
    /// Unconditional jump to instruction index.
    Jump(u32),
    /// Pop a boolean, jump when false.
    JumpIfFalse(u32),
    /// Pop a boolean, jump when true.
    JumpIfTrue(u32),
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Return the top of stack.
    Ret,
    /// Pop a value and throw it.
    Throw,
    /// Pop a value, push whether it passes the type test.
    IsInstance(TypeTest),
    /// Pop a value, push it if it passes the test, else throw a cast error.
    Cast(TypeTest),
    /// Pop a value, print it (captured by the VM), push unit.
    Println,
    /// Pop a value, push its runtime class name as a string.
    GetClassName,
    /// Pop a value, push its string rendering (default `toString`).
    ToStr,
    /// Pop a string, push its length.
    SLen,
    /// Superinstruction: `Load(a); Load(b)`.
    LoadLoad(u16, u16),
    /// Superinstruction: `Load(a); ConstInt(k)`.
    LoadConst(u16, i64),
    /// Superinstruction: `ConstInt(k); Add` — add a constant to the top of
    /// stack without materializing the constant.
    AddConst(i64),
    /// Superinstruction: `Add; Store(s)` — pop two ints, write the sum
    /// straight into a local (the `i = i + d` / accumulator pattern).
    AddStore(u16),
    /// Superinstruction: `Load(a); CallStatic(f, argc)` — push the last
    /// argument and call in one dispatch (hot in call chains).
    LoadCall(u16, FnId, u16),
    /// Superinstruction: integer compare + conditional branch. The `bool`
    /// is the branch *sense*: `true` fuses `JumpIfTrue`, `false` fuses
    /// `JumpIfFalse`.
    CmpBranch(Cmp, bool, u32),
    /// Inline-cached virtual call (VM prepare-time rewrite of
    /// `CallVirtual`): slot, argc, and the id of this call site's cache
    /// entry in the VM's cache table.
    CallVirtualIC(MethodSlot, u16, u32),
}

/// An exception-handler region (JVM-style table entry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Handler {
    /// First covered instruction index.
    pub start: u32,
    /// One past the last covered instruction index.
    pub end: u32,
    /// Jump target; the VM clears the frame stack and pushes the thrown
    /// value before continuing there.
    pub target: u32,
}

/// One compiled function (static function, method or constructor; methods
/// receive `this` in local slot 0).
#[derive(Clone, Debug)]
pub struct Function {
    /// Diagnostic name.
    pub name: String,
    /// Number of parameters (including `this` for methods).
    pub n_params: u16,
    /// Total local slots.
    pub n_locals: u16,
    /// The code.
    pub code: Vec<Insn>,
    /// Exception handlers, inner-first.
    pub handlers: Vec<Handler>,
}

/// One runtime class: field layout and virtual dispatch table.
#[derive(Clone, Debug)]
pub struct VmClass {
    /// Diagnostic name.
    pub name: String,
    /// All base classes (linearization, self first) as class ids.
    pub linearization: Vec<ClassId>,
    /// Total number of field slots (including inherited).
    pub n_fields: u16,
    /// Global field id → local slot in this class's layout.
    pub field_resolve: std::collections::HashMap<u16, u16>,
    /// Virtual dispatch table, keyed by selector name. The VM's reference
    /// mode probes this per call; fast mode uses [`VmClass::vtable_slots`].
    pub vtable: std::collections::HashMap<Name, FnId>,
    /// Dense dispatch table indexed by [`MethodSlot`]; built by
    /// [`Program::link`]. Empty until linked.
    pub vtable_slots: Vec<Option<FnId>>,
    /// Dense field resolution indexed by global field id ([`NO_FIELD`]
    /// when absent); built by [`Program::link`]. Empty until linked.
    pub field_slots: Vec<u16>,
}

impl VmClass {
    /// A class with empty dispatch/layout tables (tests, builtins).
    pub fn new(name: impl Into<String>, linearization: Vec<ClassId>, n_fields: u16) -> Self {
        VmClass {
            name: name.into(),
            linearization,
            n_fields,
            field_resolve: HashMap::new(),
            vtable: HashMap::new(),
            vtable_slots: Vec::new(),
            field_slots: Vec::new(),
        }
    }
}

/// A complete compiled program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// All classes.
    pub classes: Vec<VmClass>,
    /// All functions. Shared, so a link can place functions an earlier
    /// link relocated (a compile session reuses every unit whose code and
    /// resolved imports did not change, see [`crate::codegen::link`]) and
    /// cloning a program copies no code.
    pub functions: Vec<Arc<Function>>,
    /// The `main` entry point, if present.
    pub entry: Option<FnId>,
    /// Interned method selectors: [`MethodSlot`] → name. Call instructions
    /// index this table; the reference VM resolves through it back to the
    /// by-name `HashMap` probe.
    pub method_names: Vec<Name>,
}

impl Program {
    /// True if `sub` is `sup` or derives from it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.classes[sub as usize].linearization.contains(&sup)
    }

    /// Total instruction count (diagnostics).
    pub fn code_size(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }

    /// A canonical text rendering of everything the VM reads: per function
    /// its name, parameter/local counts, code and handlers; per class its
    /// name, linearization, field count and the dense vtable and field
    /// tables (built by [`Program::link`]); the entry point and the
    /// selector table. Two programs with equal dumps run identically. No
    /// `HashMap` iteration order leaks into it.
    pub fn canonical_dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let names: Vec<&str> = self.method_names.iter().map(|n| n.as_str()).collect();
        let _ = writeln!(out, "entry {:?}\nmethods {names:?}", self.entry);
        for (i, c) in self.classes.iter().enumerate() {
            let _ = writeln!(
                out,
                "class {i} {} lin={:?} n_fields={} vtable={:?} fields={:?}",
                c.name, c.linearization, c.n_fields, c.vtable_slots, c.field_slots
            );
        }
        for (i, f) in self.functions.iter().enumerate() {
            let _ = writeln!(
                out,
                "fn {i} {} params={} locals={} handlers={:?}",
                f.name, f.n_params, f.n_locals, f.handlers
            );
            for insn in &f.code {
                let _ = writeln!(out, "  {insn:?}");
            }
        }
        out
    }

    /// The selector name behind a slot.
    pub fn method_name(&self, slot: MethodSlot) -> Name {
        self.method_names[slot as usize]
    }

    /// Build the dense dispatch and field tables from the `HashMap`s.
    /// Idempotent; call after all code is emitted and all selectors are
    /// interned (codegen does this, hand-assembled test programs must).
    pub fn link(&mut self) {
        let index: HashMap<Name, MethodSlot> = self
            .method_names
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as MethodSlot))
            .collect();
        let n_slots = self.method_names.len();
        let n_fields = self
            .classes
            .iter()
            .flat_map(|c| c.field_resolve.keys())
            .map(|&gid| gid as usize + 1)
            .max()
            .unwrap_or(0);
        for class in &mut self.classes {
            class.vtable_slots = vec![None; n_slots];
            for (name, &fid) in &class.vtable {
                if let Some(&slot) = index.get(name) {
                    class.vtable_slots[slot as usize] = Some(fid);
                }
            }
            class.field_slots = vec![NO_FIELD; n_fields];
            for (&gid, &local) in &class.field_resolve {
                class.field_slots[gid as usize] = local;
            }
        }
    }
}
