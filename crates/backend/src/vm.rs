//! The stack VM that executes compiled [`Program`]s.
//!
//! # Execution design note
//!
//! The VM has exactly two modes, selected by [`VmOptions::mode`] and
//! pinned byte-identical to each other by the `vm_equivalence` proptest:
//!
//! - **Reference** ([`VmMode::Reference`], `VmOptions::reference()`) is the
//!   original interpreter, frozen as the semantic oracle: a recursive
//!   `invoke` over the *unfused* code that allocates a fresh locals vector
//!   and operand stack per call, probes `HashMap<Name, FnId>` vtables on
//!   every virtual/direct call, and resolves field ids through a per-class
//!   `HashMap`. It is also the honest A/B baseline for the `exec` bench —
//!   it genuinely pays the old per-call costs.
//!
//! - **Fast** ([`VmMode::Fast`], `VmOptions::fast()`, the default for
//!   [`Vm::new`]) runs a non-recursive dispatch loop over a prepared copy
//!   of the code with three classic OO-VM optimizations always on:
//!
//!   1. *Link-time dispatch resolution*: call sites carry interned
//!      [`MethodSlot`] ids and dispatch indexes the dense
//!      [`VmClass::vtable_slots`] / [`VmClass::field_slots`] tables built
//!      by [`Program::link`] — an array load instead of a hash probe.
//!   2. *Monomorphic inline caches*: when a function is prepared, every
//!      `CallVirtual` in its code is rewritten to `CallVirtualIC` with a
//!      per-site cache entry (`ClassId → FnId`, hit/miss counted in
//!      [`VmStats`]). Monomorphic sites skip even the dense-table load
//!      after the first call.
//!   3. *Superinstructions*: the peephole pass [`crate::codegen::fuse`]
//!      fuses the hottest decoded pairs (`Load;Load`, `Load;ConstInt`,
//!      `ConstInt;Add`, `Add;Store`, `Load;CallStatic`, integer-compare +
//!      branch) — on the exec corpus over 60% of logical instructions
//!      retire inside a fused pair. Fused instructions charge fuel per
//!      constituent instruction so out-of-fuel traps stay
//!      position-identical with reference execution, and the merged
//!      dataflow (e.g. `AddConst` never materializing its constant) is
//!      legal because the intermediate stack state between the two halves
//!      is unobservable.
//!
//!   Frames live on an explicit frame stack (mirroring the middle end's
//!   iterative tree walk) over **one value stack**, as on the JVM: a
//!   frame is a window of it. A call's arguments are already on top of
//!   the caller's operands, so the callee's frame base is `len - argc`;
//!   the window is padded with `Value::Unit` up to the callee's
//!   `n_locals`, and its operands sit above `base + n_locals`. No value
//!   moves on a call; `Ret` and unwinding truncate to the frame base, and
//!   a handler truncates to `base + n_locals`. Frames borrow their code
//!   from the VM's table, so a call clones no `Rc`.
//!
//!   Each function is *prepared on its first call*: fused and given its
//!   own numbered inline-cache sites, then kept for the life of the
//!   [`Vm`]. [`Vm::new`] only allocates the empty table, so a run pays
//!   for the functions it enters, not for the whole program.
//!
//! Each interpreter implements only the opcodes its prepared code can
//! contain; an opcode a mode never sees (a superinstruction or
//! `CallVirtualIC` in reference code, a plain `CallVirtual` in fast code)
//! is a [`VmError::Trap`]. The pure value arms (arithmetic, comparisons,
//! arrays, casts) are deliberately written out in both loops: sharing them
//! would stop the reference being an independent oracle.
//!
//! Both modes enforce the same guest call-depth budget
//! ([`VmOptions::max_frames`]): deep guest recursion degrades to a
//! structured [`VmError::Trap`] at the same guest depth instead of a host
//! stack overflow. Rewrites (fusion, IC) apply to a *prepared copy* of
//! the code held by the VM; the [`Program`] itself is never mutated, so
//! one linked program serves both sides of an A/B run. The reference
//! interpreter reads the program's code directly.

use crate::bytecode::*;
use std::cell::{Cell, OnceCell, RefCell};
use std::fmt;
use std::rc::Rc;

/// A runtime value. The representation is uniformly tagged, which is why the
/// pipeline needs no boxing phase (see DESIGN.md).
#[derive(Clone, Debug)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A 64-bit integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(Rc<str>),
    /// The null reference.
    Null,
    /// An object instance.
    Obj(Rc<ObjCell>),
    /// An array.
    Arr(Rc<RefCell<Vec<Value>>>),
}

/// Heap storage of one object.
#[derive(Debug)]
pub struct ObjCell {
    /// The object's class.
    pub class: ClassId,
    /// Field slots.
    pub fields: RefCell<Vec<Value>>,
}

impl Value {
    fn truthy(&self) -> Result<bool, VmError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(VmError::Trap(format!("expected boolean, got {other}"))),
        }
    }

    fn int(&self) -> Result<i64, VmError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(VmError::Trap(format!("expected int, got {other}"))),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Null => write!(f, "null"),
            Value::Obj(o) => write!(f, "<obj#{}>", o.class),
            Value::Arr(a) => {
                write!(f, "[")?;
                for (i, v) in a.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Execution failure.
#[derive(Debug)]
pub enum VmError {
    /// A MiniScala exception that was never caught; carries the thrown value.
    Uncaught(Value),
    /// A VM-level fault (type confusion, missing method, fuel exhausted...).
    Trap(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Uncaught(v) => write!(f, "uncaught exception: {v}"),
            VmError::Trap(m) => write!(f, "vm trap: {m}"),
        }
    }
}

impl std::error::Error for VmError {}

enum Flow {
    Value(Value),
    Exception(Value),
}

/// Default guest call-depth budget. Sized so that even the *recursive*
/// reference interpreter stays well inside a 2 MiB test-thread host stack
/// while allowing far deeper guest recursion than the corpora use.
pub const DEFAULT_MAX_FRAMES: u32 = 512;

/// Which interpreter a [`Vm`] runs (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmMode {
    /// Flat frame stack over fused, IC-rewritten code with slot-resolved
    /// dispatch (requires a [`Program::link`]ed program).
    Fast,
    /// The recursive, hash-probing original interpreter over unfused code:
    /// semantic oracle and A/B baseline.
    Reference,
}

/// VM configuration: the interpreter mode plus the guest call-depth
/// budget. [`VmOptions::fast`] is the [`Default`] used by [`Vm::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VmOptions {
    /// Which interpreter runs.
    pub mode: VmMode,
    /// Guest call-depth budget (both modes); exceeding it is a structured
    /// [`VmError::Trap`], never a host stack overflow.
    pub max_frames: u32,
}

impl VmOptions {
    /// The production interpreter.
    pub fn fast() -> VmOptions {
        VmOptions {
            mode: VmMode::Fast,
            max_frames: DEFAULT_MAX_FRAMES,
        }
    }

    /// The frozen reference interpreter.
    pub fn reference() -> VmOptions {
        VmOptions {
            mode: VmMode::Reference,
            max_frames: DEFAULT_MAX_FRAMES,
        }
    }
}

impl Default for VmOptions {
    fn default() -> VmOptions {
        VmOptions::fast()
    }
}

/// Execution counters, accumulated across every call made through one
/// [`Vm`]. Deterministic for a given program + options.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Instructions dispatched (a fused superinstruction counts once).
    pub insns_retired: u64,
    /// Superinstructions among [`VmStats::insns_retired`].
    pub fused_retired: u64,
    /// Inline-cache hits at `CallVirtualIC` sites.
    pub ic_hits: u64,
    /// Inline-cache misses (object receivers only; each miss refills the
    /// site's cache when resolution succeeds).
    pub ic_misses: u64,
    /// Deepest guest call depth reached.
    pub peak_frames: u64,
}

impl VmStats {
    /// Hit fraction over all inline-cache lookups (0.0 when none ran).
    pub fn ic_hit_rate(&self) -> f64 {
        let total = self.ic_hits + self.ic_misses;
        if total == 0 {
            0.0
        } else {
            self.ic_hits as f64 / total as f64
        }
    }
}

/// One inline-cache entry: last receiver class seen at the site and the
/// method it resolved to.
#[derive(Clone, Copy)]
struct IcEntry {
    class: ClassId,
    target: FnId,
}

const IC_EMPTY: IcEntry = IcEntry {
    class: ClassId::MAX,
    target: 0,
};

/// One function's code as fast mode runs it: fused, with every
/// `CallVirtual` rewritten to a `CallVirtualIC` that indexes the
/// function's own inline-cache entries. Built on the function's first call.
struct FnCode {
    /// The function this is prepared from; trap messages read its name.
    fid: FnId,
    n_params: u16,
    n_locals: u16,
    code: Vec<Insn>,
    handlers: Vec<Handler>,
    ics: Box<[Cell<IcEntry>]>,
}

impl FnCode {
    fn prepare(program: &Program, fid: FnId) -> FnCode {
        let f = &program.functions[fid as usize];
        let (mut code, handlers) = crate::codegen::fuse(&f.code, &f.handlers);
        let mut sites = 0;
        for i in &mut code {
            if let Insn::CallVirtual(slot, argc) = *i {
                *i = Insn::CallVirtualIC(slot, argc, sites);
                sites += 1;
            }
        }
        FnCode {
            fid,
            n_params: f.n_params,
            n_locals: f.n_locals,
            code,
            handlers,
            ics: vec![Cell::new(IC_EMPTY); sites as usize].into(),
        }
    }
}

/// A suspended caller in the flat-frame interpreter: its code, resume pc
/// and frame base on the value stack.
struct Frame<'c> {
    code: &'c FnCode,
    pc: usize,
    base: usize,
}

/// The virtual machine.
///
/// # Examples
///
/// Running a program requires compiling one first; see the `mini-driver`
/// crate's `compile_and_run` for the end-to-end path.
pub struct Vm<'p> {
    program: &'p Program,
    /// Captured `println` output, one entry per call.
    pub out: Vec<String>,
    /// Remaining instruction budget (guards against runaway programs).
    pub fuel: u64,
    /// Execution counters (instructions retired, IC hits, peak frames).
    pub stats: VmStats,
    opts: VmOptions,
    /// Fast mode's prepared code, one cell per function, each filled on
    /// the function's first call (empty in reference mode).
    code_tab: Vec<OnceCell<FnCode>>,
    depth: u32,
}

impl<'p> Vm<'p> {
    /// Creates a VM with the default fuel budget (100M instructions) and
    /// the fast execution options.
    pub fn new(program: &'p Program) -> Vm<'p> {
        Vm::with_options(program, VmOptions::default())
    }

    /// Creates a VM with explicit [`VmOptions`]. Fast mode requires the
    /// program to have been [`Program::link`]ed (codegen links
    /// automatically; hand-assembled programs must call it).
    pub fn with_options(program: &'p Program, opts: VmOptions) -> Vm<'p> {
        let fast = opts.mode == VmMode::Fast;
        if fast {
            let n = program.method_names.len();
            assert!(
                program.classes.iter().all(|c| c.vtable_slots.len() == n),
                "VmMode::Fast requires a linked Program (call Program::link)"
            );
        }
        let code_tab = if fast {
            program.functions.iter().map(|_| OnceCell::new()).collect()
        } else {
            Vec::new()
        };
        Vm {
            program,
            out: Vec::new(),
            fuel: 100_000_000,
            stats: VmStats::default(),
            opts,
            code_tab,
            depth: 0,
        }
    }

    /// Runs the program's `main`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Uncaught`] for user exceptions that escape `main`,
    /// or [`VmError::Trap`] for VM-level faults.
    pub fn run_main(&mut self) -> Result<Value, VmError> {
        let entry = self
            .program
            .entry
            .ok_or_else(|| VmError::Trap("program has no main".into()))?;
        self.call(entry, Vec::new())
    }

    /// Calls function `fid` with `args`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Vm::run_main`].
    pub fn call(&mut self, fid: FnId, args: Vec<Value>) -> Result<Value, VmError> {
        // Instruction accounting by fuel delta, not a per-dispatch counter
        // in the hot loop: every dispatch burns one fuel, and each fused
        // pair burns one more for its second half, so
        // dispatches = fuel spent − fused retired.
        let fuel0 = self.fuel;
        let fused0 = self.stats.fused_retired;
        let r = match self.opts.mode {
            VmMode::Fast => self.run_flat(fid, args),
            VmMode::Reference => match self.invoke(fid, args) {
                Ok(Flow::Value(v)) => Ok(v),
                Ok(Flow::Exception(v)) => Err(VmError::Uncaught(v)),
                Err(e) => Err(e),
            },
        };
        let spent = fuel0 - self.fuel;
        self.stats.insns_retired += spent - (self.stats.fused_retired - fused0);
        r
    }

    fn class_name(&self, v: &Value) -> &str {
        match v {
            Value::Unit => "Unit",
            Value::Int(_) => "Int",
            Value::Bool(_) => "Boolean",
            Value::Str(_) => "String",
            Value::Null => "Null",
            Value::Obj(o) => &self.program.classes[o.class as usize].name,
            Value::Arr(_) => "Array",
        }
    }

    fn type_test(&self, v: &Value, t: TypeTest) -> bool {
        match t {
            TypeTest::Any => true,
            TypeTest::AnyRef => matches!(v, Value::Obj(_) | Value::Str(_) | Value::Arr(_)),
            TypeTest::Int => matches!(v, Value::Int(_)),
            TypeTest::Bool => matches!(v, Value::Bool(_)),
            TypeTest::Unit => matches!(v, Value::Unit),
            TypeTest::Str => matches!(v, Value::Str(_)),
            TypeTest::Null => matches!(v, Value::Null),
            TypeTest::Array => matches!(v, Value::Arr(_)),
            TypeTest::Class(c) => match v {
                Value::Obj(o) => self.program.is_subclass(o.class, c),
                _ => false,
            },
        }
    }

    fn values_equal(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Unit, Value::Unit) => true,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Str(x), Value::Str(y)) => x == y,
            (Value::Null, Value::Null) => true,
            (Value::Obj(x), Value::Obj(y)) => Rc::ptr_eq(x, y),
            (Value::Arr(x), Value::Arr(y)) => Rc::ptr_eq(x, y),
            _ => false,
        }
    }

    /// Fast-mode method lookup: the dense slot-indexed vtable.
    #[inline]
    fn vtable_slot(&self, cls: ClassId, slot: MethodSlot) -> Option<FnId> {
        self.program.classes[cls as usize].vtable_slots[slot as usize]
    }

    /// Fast-mode field lookup: the dense slot-indexed field table.
    #[inline]
    fn field_slot(&self, cls: ClassId, gid: u16) -> Option<u16> {
        let class = &self.program.classes[cls as usize];
        match class.field_slots.get(gid as usize).copied() {
            Some(NO_FIELD) | None => None,
            slot => slot,
        }
    }

    /// Reference-mode method lookup: a by-name `HashMap` probe.
    fn vtable_by_name(&self, cls: ClassId, slot: MethodSlot) -> Option<FnId> {
        let class = &self.program.classes[cls as usize];
        class.vtable.get(&self.program.method_name(slot)).copied()
    }

    /// Reference-mode field lookup: a per-class `HashMap` probe.
    fn field_by_name(&self, cls: ClassId, gid: u16) -> Option<u16> {
        self.program.classes[cls as usize]
            .field_resolve
            .get(&gid)
            .copied()
    }

    /// The trap for an opcode outside the running mode's instruction set:
    /// fast-mode preparation rewrites every `CallVirtual`, and only a
    /// hand-built program can hand the reference interpreter a fast-only
    /// opcode.
    #[cold]
    fn foreign_opcode(insn: Insn, mode: VmMode) -> VmError {
        VmError::Trap(format!("opcode {insn:?} cannot run in {mode:?} mode"))
    }

    fn depth_trap(max: u32) -> VmError {
        VmError::Trap(format!("max call depth {max} exceeded"))
    }

    fn invoke(&mut self, fid: FnId, args: Vec<Value>) -> Result<Flow, VmError> {
        if self.depth >= self.opts.max_frames {
            return Err(Self::depth_trap(self.opts.max_frames));
        }
        self.depth += 1;
        let r = self.invoke_inner(fid, args);
        self.depth -= 1;
        r
    }

    fn invoke_inner(&mut self, fid: FnId, args: Vec<Value>) -> Result<Flow, VmError> {
        let program = self.program;
        let f = &program.functions[fid as usize];
        if f.code.is_empty() {
            return Err(VmError::Trap(format!(
                "call to abstract method `{}`",
                f.name
            )));
        }
        if args.len() != f.n_params as usize {
            return Err(VmError::Trap(format!(
                "arity mismatch calling `{}`: expected {}, got {}",
                f.name,
                f.n_params,
                args.len()
            )));
        }
        // Counted only once the callee is entered, as fast mode does.
        self.stats.peak_frames = self.stats.peak_frames.max(self.depth as u64);
        let mut locals = vec![Value::Unit; f.n_locals as usize];
        locals[..args.len()].clone_from_slice(&args);
        let mut stack: Vec<Value> = Vec::with_capacity(16);
        let mut pc: usize = 0;
        let code = &f.code;

        macro_rules! pop {
            () => {
                stack
                    .pop()
                    .ok_or_else(|| VmError::Trap(format!("stack underflow in `{}`", f.name)))?
            };
        }
        // Takes a call's `argc` operands off the stack, trapping like
        // fast mode when there are fewer.
        macro_rules! call_args {
            ($argc:expr) => {{
                let split = stack
                    .len()
                    .checked_sub($argc as usize)
                    .ok_or_else(|| VmError::Trap(format!("stack underflow in `{}`", f.name)))?;
                stack.split_off(split)
            }};
        }
        macro_rules! throw {
            ($val:expr) => {{
                let exc: Value = $val;
                // `pc` was already advanced past the faulting instruction.
                let at = pc - 1;
                let mut handled = false;
                for h in &f.handlers {
                    if (h.start as usize) <= at && at < (h.end as usize) {
                        stack.clear();
                        stack.push(exc.clone());
                        pc = h.target as usize;
                        handled = true;
                        break;
                    }
                }
                if !handled {
                    return Ok(Flow::Exception(exc));
                }
                continue;
            }};
        }
        // Universal `Any` members when dispatch found no method.
        macro_rules! virtual_fallback {
            ($recv:expr, $slot:expr, $call_args:expr) => {{
                let recv = $recv;
                let call_args: Vec<Value> = $call_args;
                match self.program.method_name($slot).as_str() {
                    "equals" => {
                        let eq = Self::values_equal(&recv, &call_args[1]);
                        stack.push(Value::Bool(eq));
                    }
                    "toString" => {
                        stack.push(Value::Str(Rc::from(self.render(&recv))));
                    }
                    "getClass" => {
                        stack.push(Value::Str(Rc::from(self.class_name(&recv))));
                    }
                    name => {
                        if matches!(recv, Value::Null) {
                            throw!(Value::Str(Rc::from("NullPointerException")));
                        }
                        return Err(VmError::Trap(format!(
                            "no method `{name}` on {}",
                            self.class_name(&recv)
                        )));
                    }
                }
            }};
        }
        macro_rules! invoke_to_stack {
            ($g:expr, $args:expr) => {
                match self.invoke($g, $args)? {
                    Flow::Value(v) => stack.push(v),
                    Flow::Exception(e) => throw!(e),
                }
            };
        }

        loop {
            if self.fuel == 0 {
                return Err(VmError::Trap("out of fuel".into()));
            }
            self.fuel -= 1;
            let insn = *code
                .get(pc)
                .ok_or_else(|| VmError::Trap(format!("pc out of range in `{}`", f.name)))?;
            pc += 1;
            match insn {
                Insn::ConstInt(i) => stack.push(Value::Int(i)),
                Insn::ConstBool(b) => stack.push(Value::Bool(b)),
                Insn::ConstStr(s) => stack.push(Value::Str(Rc::from(s.as_str()))),
                Insn::ConstUnit => stack.push(Value::Unit),
                Insn::ConstNull => stack.push(Value::Null),
                Insn::Load(s) => stack.push(locals[s as usize].clone()),
                Insn::Store(s) => {
                    let v = pop!();
                    locals[s as usize] = v;
                }
                Insn::GetField(gid) => {
                    let recv = pop!();
                    match recv {
                        Value::Obj(o) => {
                            let slot = self.field_by_name(o.class, gid).ok_or_else(|| {
                                VmError::Trap(format!("unknown field #{gid} read"))
                            })?;
                            stack.push(o.fields.borrow()[slot as usize].clone())
                        }
                        Value::Null => throw!(Value::Str(Rc::from("NullPointerException"))),
                        other => {
                            return Err(VmError::Trap(format!("field read on {other}")));
                        }
                    }
                }
                Insn::PutField(gid) => {
                    let v = pop!();
                    let recv = pop!();
                    match recv {
                        Value::Obj(o) => {
                            let slot = self.field_by_name(o.class, gid).ok_or_else(|| {
                                VmError::Trap(format!("unknown field #{gid} write"))
                            })?;
                            o.fields.borrow_mut()[slot as usize] = v;
                        }
                        Value::Null => throw!(Value::Str(Rc::from("NullPointerException"))),
                        other => {
                            return Err(VmError::Trap(format!("field write on {other}")));
                        }
                    }
                }
                Insn::CallStatic(g, argc) => {
                    let call_args = call_args!(argc);
                    invoke_to_stack!(g, call_args);
                }
                Insn::CallVirtual(slot, argc) => {
                    let call_args = call_args!(argc);
                    let recv = call_args
                        .first()
                        .ok_or_else(|| VmError::Trap("virtual call without receiver".into()))?
                        .clone();
                    let target = match &recv {
                        Value::Obj(o) => self.vtable_by_name(o.class, slot),
                        _ => None,
                    };
                    match target {
                        Some(g) => invoke_to_stack!(g, call_args),
                        None => virtual_fallback!(recv, slot, call_args),
                    }
                }
                Insn::CallDirect(cls, slot, argc) => {
                    let call_args = call_args!(argc);
                    match self.vtable_by_name(cls, slot) {
                        Some(g) => invoke_to_stack!(g, call_args),
                        None if self.program.method_name(slot) == mini_ir::std_names::init() => {
                            // Fieldless class without an explicit ctor.
                            stack.push(Value::Unit);
                        }
                        None => {
                            return Err(VmError::Trap(format!(
                                "no direct method `{}` on class {}",
                                self.program.method_name(slot),
                                self.program.classes[cls as usize].name
                            )))
                        }
                    }
                }
                Insn::New(cls) => {
                    let n = self.program.classes[cls as usize].n_fields as usize;
                    stack.push(Value::Obj(Rc::new(ObjCell {
                        class: cls,
                        fields: RefCell::new(vec![Value::Null; n]),
                    })));
                }
                Insn::NewArray => {
                    let n = pop!().int()?;
                    if n < 0 {
                        throw!(Value::Str(Rc::from("NegativeArraySizeException")));
                    }
                    stack.push(Value::Arr(Rc::new(RefCell::new(vec![
                        Value::Unit;
                        n as usize
                    ]))));
                }
                Insn::ALoad => {
                    let i = pop!().int()?;
                    let a = pop!();
                    let Value::Arr(a) = a else {
                        return Err(VmError::Trap("array read on non-array".into()));
                    };
                    let b = a.borrow();
                    match b.get(i as usize) {
                        Some(v) => stack.push(v.clone()),
                        None => {
                            drop(b);
                            throw!(Value::Str(Rc::from("ArrayIndexOutOfBoundsException")));
                        }
                    }
                }
                Insn::AStore => {
                    let v = pop!();
                    let i = pop!().int()?;
                    let a = pop!();
                    let Value::Arr(a) = a else {
                        return Err(VmError::Trap("array write on non-array".into()));
                    };
                    let mut b = a.borrow_mut();
                    let len = b.len();
                    if (i as usize) < len && i >= 0 {
                        b[i as usize] = v;
                        drop(b);
                        stack.push(Value::Unit);
                    } else {
                        drop(b);
                        throw!(Value::Str(Rc::from("ArrayIndexOutOfBoundsException")));
                    }
                }
                Insn::ALen => {
                    let a = pop!();
                    let Value::Arr(a) = a else {
                        return Err(VmError::Trap("length of non-array".into()));
                    };
                    let n = a.borrow().len() as i64;
                    stack.push(Value::Int(n));
                }
                Insn::Add => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_add(b)));
                }
                Insn::Sub => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_sub(b)));
                }
                Insn::Mul => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_mul(b)));
                }
                Insn::Div => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    if b == 0 {
                        throw!(Value::Str(Rc::from("ArithmeticException: / by zero")));
                    }
                    stack.push(Value::Int(a.wrapping_div(b)));
                }
                Insn::Mod => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    if b == 0 {
                        throw!(Value::Str(Rc::from("ArithmeticException: % by zero")));
                    }
                    stack.push(Value::Int(a.wrapping_rem(b)));
                }
                Insn::Neg => {
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_neg()));
                }
                Insn::Not => {
                    let a = pop!().truthy()?;
                    stack.push(Value::Bool(!a));
                }
                Insn::CmpEq => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(Value::Bool(Self::values_equal(&a, &b)));
                }
                Insn::CmpLt => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a < b));
                }
                Insn::CmpGt => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a > b));
                }
                Insn::CmpLe => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a <= b));
                }
                Insn::CmpGe => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a >= b));
                }
                Insn::Concat => {
                    let b = pop!();
                    let a = pop!();
                    let s = format!("{}{}", self.render(&a), self.render(&b));
                    stack.push(Value::Str(Rc::from(s)));
                }
                Insn::Jump(t) => pc = t as usize,
                Insn::JumpIfFalse(t) => {
                    if !pop!().truthy()? {
                        pc = t as usize;
                    }
                }
                Insn::JumpIfTrue(t) => {
                    if pop!().truthy()? {
                        pc = t as usize;
                    }
                }
                Insn::Pop => {
                    let _ = pop!();
                }
                Insn::Dup => {
                    let v = stack
                        .last()
                        .ok_or_else(|| VmError::Trap("dup on empty stack".into()))?
                        .clone();
                    stack.push(v);
                }
                Insn::Ret => {
                    let v = pop!();
                    return Ok(Flow::Value(v));
                }
                Insn::Throw => {
                    let v = pop!();
                    throw!(v);
                }
                Insn::IsInstance(t) => {
                    let v = pop!();
                    stack.push(Value::Bool(self.type_test(&v, t)));
                }
                Insn::Cast(t) => {
                    let v = pop!();
                    // `null` passes reference casts, as on the JVM.
                    let ok = self.type_test(&v, t)
                        || (matches!(v, Value::Null)
                            && matches!(
                                t,
                                TypeTest::Class(_)
                                    | TypeTest::AnyRef
                                    | TypeTest::Str
                                    | TypeTest::Array
                            ));
                    if ok {
                        stack.push(v);
                    } else {
                        throw!(Value::Str(Rc::from(format!(
                            "ClassCastException: {} is not {:?}",
                            self.class_name(&v),
                            t
                        ))));
                    }
                }
                Insn::Println => {
                    let v = pop!();
                    let line = self.render(&v);
                    self.out.push(line);
                    stack.push(Value::Unit);
                }
                Insn::GetClassName => {
                    let v = pop!();
                    stack.push(Value::Str(Rc::from(self.class_name(&v))));
                }
                Insn::ToStr => {
                    let v = pop!();
                    stack.push(Value::Str(Rc::from(self.render(&v))));
                }
                Insn::SLen => {
                    let v = pop!();
                    let Value::Str(s) = v else {
                        return Err(VmError::Trap("length of non-string".into()));
                    };
                    stack.push(Value::Int(s.chars().count() as i64));
                }
                Insn::CallVirtualIC(..)
                | Insn::LoadLoad(..)
                | Insn::LoadConst(..)
                | Insn::AddConst(_)
                | Insn::AddStore(_)
                | Insn::LoadCall(..)
                | Insn::CmpBranch(..) => {
                    return Err(Self::foreign_opcode(insn, VmMode::Reference));
                }
            }
        }
    }

    /// Fast mode's code for `fid`, prepared on its first call. It borrows
    /// only the table, not the whole `Vm`, so the interpreter can hold the
    /// returned code while it updates the VM's counters and output.
    #[inline]
    fn prepared<'c>(tab: &'c [OnceCell<FnCode>], program: &Program, fid: FnId) -> &'c FnCode {
        tab[fid as usize].get_or_init(|| FnCode::prepare(program, fid))
    }

    #[cold]
    fn abstract_trap(name: &str) -> VmError {
        VmError::Trap(format!("call to abstract method `{name}`"))
    }

    #[cold]
    fn arity_trap(name: &str, expected: u16, got: usize) -> VmError {
        VmError::Trap(format!(
            "arity mismatch calling `{name}`: expected {expected}, got {got}"
        ))
    }

    #[cold]
    fn underflow_trap(name: &str) -> VmError {
        VmError::Trap(format!("stack underflow in `{name}`"))
    }

    /// The non-recursive interpreter: an explicit frame stack over one
    /// value stack. Each frame is a window of it: locals at
    /// `base..base + n_locals` (the arguments the caller pushed, padded
    /// with `Value::Unit`), operands above. Guest calls therefore move no
    /// value, frames borrow their code from the prepared table (each
    /// function is prepared on its first call), and guest recursion depth
    /// is bounded by `max_frames`, not the host stack.
    fn run_flat(&mut self, fid: FnId, args: Vec<Value>) -> Result<Value, VmError> {
        if self.opts.max_frames == 0 {
            return Err(Self::depth_trap(0));
        }
        let program = self.program;
        let fn_name = |code: &FnCode| program.functions[code.fid as usize].name.as_str();
        let tab = &self.code_tab;
        let mut cur = Self::prepared(tab, program, fid);
        if cur.code.is_empty() {
            return Err(Self::abstract_trap(fn_name(cur)));
        }
        if args.len() != cur.n_params as usize {
            return Err(Self::arity_trap(fn_name(cur), cur.n_params, args.len()));
        }
        let mut stack: Vec<Value> = args;
        stack.reserve(256);
        stack.resize(cur.n_locals as usize, Value::Unit);
        let mut frames: Vec<Frame> = Vec::with_capacity(16);
        let mut pc: usize = 0;
        // The current frame's window: locals from `base`, operands from
        // `sbase` = `base + cur.n_locals`.
        let mut base: usize = 0;
        let mut sbase: usize = cur.n_locals as usize;
        self.stats.peak_frames = self.stats.peak_frames.max(1);

        macro_rules! pop {
            () => {{
                // Codegen's stack discipline keeps every pop above the
                // frame's operand base; checked in debug builds only so
                // the release hot loop pays no extra branch per pop.
                debug_assert!(stack.len() > sbase, "underflow in `{}`", fn_name(cur));
                stack.pop().expect("operand stack underflow")
            }};
        }
        // Leave the current frame, whose window is already truncated, for
        // its caller; evaluates `$top` when it is the outermost frame.
        macro_rules! resume_caller {
            ($top:expr) => {
                match frames.pop() {
                    None => $top,
                    Some(fr) => {
                        cur = fr.code;
                        pc = fr.pc;
                        base = fr.base;
                        sbase = base + cur.n_locals as usize;
                    }
                }
            };
        }
        macro_rules! throw {
            ($val:expr) => {{
                let exc: Value = $val;
                // `pc` was already advanced past the faulting instruction;
                // when unwinding into a caller, its saved pc points past
                // the call, so `pc - 1` is the call site there too.
                loop {
                    let at = pc - 1;
                    if let Some(h) = cur
                        .handlers
                        .iter()
                        .find(|h| (h.start as usize) <= at && at < (h.end as usize))
                    {
                        stack.truncate(sbase);
                        pc = h.target as usize;
                        break;
                    }
                    stack.truncate(base);
                    resume_caller!(return Err(VmError::Uncaught(exc)));
                }
                stack.push(exc);
                continue;
            }};
        }
        macro_rules! fuel2 {
            () => {
                if self.fuel == 0 {
                    return Err(VmError::Trap("out of fuel".into()));
                } else {
                    self.fuel -= 1;
                }
            };
        }
        macro_rules! virtual_fallback {
            ($recv:expr, $slot:expr, $call_args:expr) => {{
                let recv = $recv;
                let call_args: Vec<Value> = $call_args;
                match self.program.method_name($slot).as_str() {
                    "equals" => {
                        let eq = Self::values_equal(&recv, &call_args[1]);
                        stack.push(Value::Bool(eq));
                    }
                    "toString" => {
                        stack.push(Value::Str(Rc::from(self.render(&recv))));
                    }
                    "getClass" => {
                        stack.push(Value::Str(Rc::from(self.class_name(&recv))));
                    }
                    name => {
                        if matches!(recv, Value::Null) {
                            throw!(Value::Str(Rc::from("NullPointerException")));
                        }
                        return Err(VmError::Trap(format!(
                            "no method `{name}` on {}",
                            self.class_name(&recv)
                        )));
                    }
                }
            }};
        }
        // Push a frame whose window starts at the callee's arguments, pad
        // it to the callee's locals and continue the loop in the callee.
        macro_rules! do_call {
            ($g:expr, $argc:expr) => {{
                let g: FnId = $g;
                let argc: usize = $argc;
                if frames.len() as u32 + 1 >= self.opts.max_frames {
                    return Err(Self::depth_trap(self.opts.max_frames));
                }
                let callee = Self::prepared(tab, program, g);
                if callee.code.is_empty() {
                    return Err(Self::abstract_trap(fn_name(callee)));
                }
                if argc != callee.n_params as usize {
                    return Err(Self::arity_trap(fn_name(callee), callee.n_params, argc));
                }
                if stack.len() < sbase + argc {
                    return Err(Self::underflow_trap(fn_name(cur)));
                }
                let nbase = stack.len() - argc;
                sbase = nbase + callee.n_locals as usize;
                stack.resize(sbase, Value::Unit);
                frames.push(Frame {
                    code: std::mem::replace(&mut cur, callee),
                    pc,
                    base,
                });
                pc = 0;
                base = nbase;
                self.stats.peak_frames = self.stats.peak_frames.max(frames.len() as u64 + 1);
            }};
        }

        loop {
            if self.fuel == 0 {
                return Err(VmError::Trap("out of fuel".into()));
            }
            self.fuel -= 1;
            let insn = *cur
                .code
                .get(pc)
                .ok_or_else(|| VmError::Trap(format!("pc out of range in `{}`", fn_name(cur))))?;
            pc += 1;
            match insn {
                Insn::ConstInt(i) => stack.push(Value::Int(i)),
                Insn::ConstBool(b) => stack.push(Value::Bool(b)),
                Insn::ConstStr(s) => stack.push(Value::Str(Rc::from(s.as_str()))),
                Insn::ConstUnit => stack.push(Value::Unit),
                Insn::ConstNull => stack.push(Value::Null),
                Insn::Load(s) => stack.push(stack[base + s as usize].clone()),
                Insn::Store(s) => {
                    let v = pop!();
                    stack[base + s as usize] = v;
                }
                Insn::GetField(gid) => {
                    let recv = pop!();
                    match recv {
                        Value::Obj(o) => {
                            let slot = self.field_slot(o.class, gid).ok_or_else(|| {
                                VmError::Trap(format!("unknown field #{gid} read"))
                            })?;
                            stack.push(o.fields.borrow()[slot as usize].clone())
                        }
                        Value::Null => throw!(Value::Str(Rc::from("NullPointerException"))),
                        other => {
                            return Err(VmError::Trap(format!("field read on {other}")));
                        }
                    }
                }
                Insn::PutField(gid) => {
                    let v = pop!();
                    let recv = pop!();
                    match recv {
                        Value::Obj(o) => {
                            let slot = self.field_slot(o.class, gid).ok_or_else(|| {
                                VmError::Trap(format!("unknown field #{gid} write"))
                            })?;
                            o.fields.borrow_mut()[slot as usize] = v;
                        }
                        Value::Null => throw!(Value::Str(Rc::from("NullPointerException"))),
                        other => {
                            return Err(VmError::Trap(format!("field write on {other}")));
                        }
                    }
                }
                Insn::CallStatic(g, argc) => do_call!(g, argc as usize),
                Insn::CallVirtualIC(slot, argc, site) => {
                    let argc = argc as usize;
                    if argc == 0 {
                        return Err(VmError::Trap("virtual call without receiver".into()));
                    }
                    if stack.len() < sbase + argc {
                        return Err(Self::underflow_trap(fn_name(cur)));
                    }
                    let target = match &stack[stack.len() - argc] {
                        Value::Obj(o) => {
                            let entry = cur.ics[site as usize].get();
                            if entry.class == o.class {
                                self.stats.ic_hits += 1;
                                Some(entry.target)
                            } else {
                                let class = o.class;
                                self.stats.ic_misses += 1;
                                let resolved = self.vtable_slot(class, slot);
                                if let Some(g) = resolved {
                                    cur.ics[site as usize].set(IcEntry { class, target: g });
                                }
                                resolved
                            }
                        }
                        _ => None,
                    };
                    match target {
                        Some(g) => do_call!(g, argc),
                        None => {
                            let split = stack.len() - argc;
                            let call_args = stack.split_off(split);
                            let recv = call_args[0].clone();
                            virtual_fallback!(recv, slot, call_args);
                        }
                    }
                }
                Insn::CallDirect(cls, slot, argc) => {
                    let argc = argc as usize;
                    if stack.len() < sbase + argc {
                        return Err(Self::underflow_trap(fn_name(cur)));
                    }
                    match self.vtable_slot(cls, slot) {
                        Some(g) => do_call!(g, argc),
                        None if self.program.method_name(slot) == mini_ir::std_names::init() => {
                            // Fieldless class without an explicit ctor: the
                            // args (receiver via Dup) are consumed.
                            stack.truncate(stack.len() - argc);
                            stack.push(Value::Unit);
                        }
                        None => {
                            return Err(VmError::Trap(format!(
                                "no direct method `{}` on class {}",
                                self.program.method_name(slot),
                                self.program.classes[cls as usize].name
                            )))
                        }
                    }
                }
                Insn::CallVirtual(..) => return Err(Self::foreign_opcode(insn, VmMode::Fast)),
                Insn::New(cls) => {
                    let n = self.program.classes[cls as usize].n_fields as usize;
                    stack.push(Value::Obj(Rc::new(ObjCell {
                        class: cls,
                        fields: RefCell::new(vec![Value::Null; n]),
                    })));
                }
                Insn::NewArray => {
                    let n = pop!().int()?;
                    if n < 0 {
                        throw!(Value::Str(Rc::from("NegativeArraySizeException")));
                    }
                    stack.push(Value::Arr(Rc::new(RefCell::new(vec![
                        Value::Unit;
                        n as usize
                    ]))));
                }
                Insn::ALoad => {
                    let i = pop!().int()?;
                    let a = pop!();
                    let Value::Arr(a) = a else {
                        return Err(VmError::Trap("array read on non-array".into()));
                    };
                    let b = a.borrow();
                    match b.get(i as usize) {
                        Some(v) => stack.push(v.clone()),
                        None => {
                            drop(b);
                            throw!(Value::Str(Rc::from("ArrayIndexOutOfBoundsException")));
                        }
                    }
                }
                Insn::AStore => {
                    let v = pop!();
                    let i = pop!().int()?;
                    let a = pop!();
                    let Value::Arr(a) = a else {
                        return Err(VmError::Trap("array write on non-array".into()));
                    };
                    let mut b = a.borrow_mut();
                    let len = b.len();
                    if (i as usize) < len && i >= 0 {
                        b[i as usize] = v;
                        drop(b);
                        stack.push(Value::Unit);
                    } else {
                        drop(b);
                        throw!(Value::Str(Rc::from("ArrayIndexOutOfBoundsException")));
                    }
                }
                Insn::ALen => {
                    let a = pop!();
                    let Value::Arr(a) = a else {
                        return Err(VmError::Trap("length of non-array".into()));
                    };
                    let n = a.borrow().len() as i64;
                    stack.push(Value::Int(n));
                }
                Insn::Add => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_add(b)));
                }
                Insn::Sub => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_sub(b)));
                }
                Insn::Mul => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_mul(b)));
                }
                Insn::Div => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    if b == 0 {
                        throw!(Value::Str(Rc::from("ArithmeticException: / by zero")));
                    }
                    stack.push(Value::Int(a.wrapping_div(b)));
                }
                Insn::Mod => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    if b == 0 {
                        throw!(Value::Str(Rc::from("ArithmeticException: % by zero")));
                    }
                    stack.push(Value::Int(a.wrapping_rem(b)));
                }
                Insn::Neg => {
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_neg()));
                }
                Insn::Not => {
                    let a = pop!().truthy()?;
                    stack.push(Value::Bool(!a));
                }
                Insn::CmpEq => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(Value::Bool(Self::values_equal(&a, &b)));
                }
                Insn::CmpLt => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a < b));
                }
                Insn::CmpGt => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a > b));
                }
                Insn::CmpLe => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a <= b));
                }
                Insn::CmpGe => {
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    stack.push(Value::Bool(a >= b));
                }
                Insn::Concat => {
                    let b = pop!();
                    let a = pop!();
                    let s = format!("{}{}", self.render(&a), self.render(&b));
                    stack.push(Value::Str(Rc::from(s)));
                }
                Insn::Jump(t) => pc = t as usize,
                Insn::JumpIfFalse(t) => {
                    if !pop!().truthy()? {
                        pc = t as usize;
                    }
                }
                Insn::JumpIfTrue(t) => {
                    if pop!().truthy()? {
                        pc = t as usize;
                    }
                }
                Insn::Pop => {
                    let _ = pop!();
                }
                Insn::Dup => {
                    if stack.len() <= sbase {
                        return Err(VmError::Trap("dup on empty stack".into()));
                    }
                    let v = stack.last().unwrap().clone();
                    stack.push(v);
                }
                Insn::Ret => {
                    let v = pop!();
                    stack.truncate(base);
                    resume_caller!(return Ok(v));
                    stack.push(v);
                }
                Insn::Throw => {
                    let v = pop!();
                    throw!(v);
                }
                Insn::IsInstance(t) => {
                    let v = pop!();
                    stack.push(Value::Bool(self.type_test(&v, t)));
                }
                Insn::Cast(t) => {
                    let v = pop!();
                    // `null` passes reference casts, as on the JVM.
                    let ok = self.type_test(&v, t)
                        || (matches!(v, Value::Null)
                            && matches!(
                                t,
                                TypeTest::Class(_)
                                    | TypeTest::AnyRef
                                    | TypeTest::Str
                                    | TypeTest::Array
                            ));
                    if ok {
                        stack.push(v);
                    } else {
                        throw!(Value::Str(Rc::from(format!(
                            "ClassCastException: {} is not {:?}",
                            self.class_name(&v),
                            t
                        ))));
                    }
                }
                Insn::Println => {
                    let v = pop!();
                    let line = self.render(&v);
                    self.out.push(line);
                    stack.push(Value::Unit);
                }
                Insn::GetClassName => {
                    let v = pop!();
                    stack.push(Value::Str(Rc::from(self.class_name(&v))));
                }
                Insn::ToStr => {
                    let v = pop!();
                    stack.push(Value::Str(Rc::from(self.render(&v))));
                }
                Insn::SLen => {
                    let v = pop!();
                    let Value::Str(s) = v else {
                        return Err(VmError::Trap("length of non-string".into()));
                    };
                    stack.push(Value::Int(s.chars().count() as i64));
                }
                Insn::LoadLoad(a, b) => {
                    self.stats.fused_retired += 1;
                    stack.push(stack[base + a as usize].clone());
                    fuel2!();
                    stack.push(stack[base + b as usize].clone());
                }
                Insn::LoadConst(a, k) => {
                    self.stats.fused_retired += 1;
                    stack.push(stack[base + a as usize].clone());
                    fuel2!();
                    stack.push(Value::Int(k));
                }
                Insn::AddConst(k) => {
                    self.stats.fused_retired += 1;
                    fuel2!();
                    let a = pop!().int()?;
                    stack.push(Value::Int(a.wrapping_add(k)));
                }
                Insn::AddStore(s) => {
                    self.stats.fused_retired += 1;
                    let b = pop!().int()?;
                    let a = pop!().int()?;
                    fuel2!();
                    stack[base + s as usize] = Value::Int(a.wrapping_add(b));
                }
                Insn::LoadCall(x, g, argc) => {
                    self.stats.fused_retired += 1;
                    stack.push(stack[base + x as usize].clone());
                    fuel2!();
                    do_call!(g, argc as usize);
                }
                Insn::CmpBranch(kind, sense, t) => {
                    self.stats.fused_retired += 1;
                    let b = pop!();
                    let a = pop!();
                    let cond = match kind {
                        Cmp::Eq => Self::values_equal(&a, &b),
                        kind => {
                            // Type-check in the reference pop order (b first).
                            let bi = b.int()?;
                            let ai = a.int()?;
                            match kind {
                                Cmp::Lt => ai < bi,
                                Cmp::Gt => ai > bi,
                                Cmp::Le => ai <= bi,
                                Cmp::Ge => ai >= bi,
                                Cmp::Eq => unreachable!("handled above"),
                            }
                        }
                    };
                    fuel2!();
                    if cond == sense {
                        pc = t as usize;
                    }
                }
            }
        }
    }

    fn render(&self, v: &Value) -> String {
        match v {
            Value::Obj(o) => format!(
                "{}@{:p}",
                self.program.classes[o.class as usize].name,
                Rc::as_ptr(o)
            ),
            other => other.to_string(),
        }
    }
}
