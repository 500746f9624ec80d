//! The code generator (`GenBCode` analogue).
//!
//! Consumes fully lowered trees — after the whole Miniphase pipeline has run
//! there are no `Match`/`Lambda`/`TypeApply` nodes and all types are erased —
//! and produces a [`Program`] for the VM.

use crate::bytecode::*;
use mini_ir::{std_names, Ctx, Flags, Name, SymbolId, TreeKind, TreeRef, Type};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

/// A lowering-contract violation: the trees were not fully lowered, or
/// reference something the backend cannot express.
#[derive(Clone, Debug)]
pub struct CodegenError {
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen error: {}", self.msg)
    }
}

impl std::error::Error for CodegenError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodegenError> {
    Err(CodegenError { msg: msg.into() })
}

/// Generates a runnable [`Program`] from lowered compilation-unit trees.
///
/// # Errors
///
/// Returns a [`CodegenError`] if the trees still contain constructs that the
/// phases were supposed to eliminate (`Match`, `Lambda`, generic types, ...).
pub fn generate(ctx: &Ctx, units: &[TreeRef]) -> Result<Program, CodegenError> {
    let mut gen = Gen {
        ctx,
        program: Program::default(),
        class_of: HashMap::new(),
        field_slot: HashMap::new(),
        fn_of: HashMap::new(),
        class_defs: Vec::new(),
        static_defs: Vec::new(),
        methods: RefCell::new(MethodInterner::default()),
    };
    gen.collect(units)?;
    gen.layout()?;
    gen.declare_functions()?;
    gen.compile_all()?;
    gen.program.method_names = gen.methods.into_inner().names;
    gen.program.link();
    Ok(gen.program)
}

/// Method-selector interner shared by all function compilers (interior
/// mutability: `FnCompiler` holds the `Gen` immutably while emitting).
#[derive(Default)]
struct MethodInterner {
    names: Vec<Name>,
    index: HashMap<Name, MethodSlot>,
}

struct Gen<'a> {
    ctx: &'a Ctx,
    program: Program,
    class_of: HashMap<SymbolId, ClassId>,
    field_slot: HashMap<SymbolId, u16>,
    fn_of: HashMap<SymbolId, FnId>,
    /// (class sym, body trees).
    class_defs: Vec<(SymbolId, Vec<TreeRef>)>,
    static_defs: Vec<TreeRef>,
    methods: RefCell<MethodInterner>,
}

impl<'a> Gen<'a> {
    /// Intern a method selector into the program's slot table.
    fn method_slot(&self, name: Name) -> MethodSlot {
        let mut m = self.methods.borrow_mut();
        if let Some(&s) = m.index.get(&name) {
            return s;
        }
        let s = m.names.len() as MethodSlot;
        m.names.push(name);
        m.index.insert(name, s);
        s
    }

    fn collect(&mut self, units: &[TreeRef]) -> Result<(), CodegenError> {
        // Builtin classes first (function traits + Any), so closure classes
        // can reference them.
        let b = self.ctx.symbols.builtins();
        for sym in std::iter::once(b.any_class).chain(b.function_classes) {
            let id = self.program.classes.len() as ClassId;
            self.class_of.insert(sym, id);
            self.program.classes.push(VmClass::new(
                self.ctx.symbols.sym(sym).name.as_str().to_owned(),
                vec![id],
                0,
            ));
        }
        for unit in units {
            let TreeKind::PackageDef { stats, .. } = unit.kind() else {
                return err("expected PackageDef at unit root");
            };
            for s in stats {
                match s.kind() {
                    TreeKind::ClassDef { sym, body } => {
                        let id = self.program.classes.len() as ClassId;
                        self.class_of.insert(*sym, id);
                        self.program.classes.push(VmClass::new(
                            self.ctx.symbols.full_name(*sym),
                            Vec::new(),
                            0,
                        ));
                        self.class_defs.push((*sym, body.to_vec()));
                    }
                    TreeKind::DefDef { .. } => self.static_defs.push(s.clone()),
                    TreeKind::Empty => {}
                    other => {
                        return err(format!("unexpected top-level {:?} node", other.node_kind()))
                    }
                }
            }
        }
        Ok(())
    }

    /// Computes linearizations and field layouts. A class's fields are laid
    /// out base-classes-first so that inherited field slots agree.
    fn layout(&mut self) -> Result<(), CodegenError> {
        let class_defs: HashMap<SymbolId, Vec<TreeRef>> = self
            .class_defs
            .iter()
            .map(|(s, b)| (*s, b.clone()))
            .collect();
        for (sym, _) in self.class_defs.clone() {
            let id = self.class_of[&sym];
            let lin_syms = self.ctx.symbols.linearization(sym);
            let lin: Vec<ClassId> = lin_syms
                .iter()
                .filter_map(|s| self.class_of.get(s).copied())
                .collect();
            // Local layout: base classes first; the same field may resolve
            // to different local slots in different classes (trait fields),
            // so instructions carry global ids resolved through the class.
            let mut resolve = HashMap::new();
            let mut local = 0u16;
            for base in lin_syms.iter().rev() {
                if let Some(body) = class_defs.get(base) {
                    for m in body {
                        if let TreeKind::ValDef { sym: f, .. } = m.kind() {
                            let next_gid = self.field_slot.len() as u16;
                            let gid = *self.field_slot.entry(*f).or_insert(next_gid);
                            if let std::collections::hash_map::Entry::Vacant(e) = resolve.entry(gid)
                            {
                                e.insert(local);
                                local += 1;
                            }
                        }
                    }
                }
            }
            let c = &mut self.program.classes[id as usize];
            c.linearization = lin;
            c.n_fields = local;
            c.field_resolve = resolve;
        }
        Ok(())
    }

    /// Assigns `FnId`s and builds vtables (base methods first so derived
    /// definitions override).
    fn declare_functions(&mut self) -> Result<(), CodegenError> {
        // Statics.
        for d in self.static_defs.clone() {
            let TreeKind::DefDef { sym, .. } = d.kind() else {
                unreachable!("collected as DefDef")
            };
            let id = self.reserve(*sym);
            if self.ctx.symbols.sym(*sym).name == std_names::main() {
                self.program.entry = Some(id);
            }
        }
        // Methods.
        for (sym, body) in self.class_defs.clone() {
            for m in &body {
                if let TreeKind::DefDef { sym: ms, .. } = m.kind() {
                    self.reserve(*ms);
                    let _ = sym;
                }
            }
        }
        // Vtables from linearizations.
        for (sym, _) in self.class_defs.clone() {
            let id = self.class_of[&sym];
            let lin = self.ctx.symbols.linearization(sym);
            let mut vtable = HashMap::new();
            for base in lin.iter().rev() {
                for d in self.ctx.symbols.decls_of(*base) {
                    let sd = self.ctx.symbols.sym(d);
                    // Constructors are included: they are only reached via
                    // CallDirect on the exact class.
                    if sd.flags.is(Flags::METHOD) && !sd.flags.is(Flags::DEFERRED) {
                        if let Some(&f) = self.fn_of.get(&d) {
                            vtable.insert(sd.name, f);
                        }
                    }
                }
            }
            self.program.classes[id as usize].vtable = vtable;
        }
        Ok(())
    }

    fn reserve(&mut self, sym: SymbolId) -> FnId {
        let id = self.program.functions.len() as FnId;
        self.fn_of.insert(sym, id);
        self.program.functions.push(Function {
            name: self.ctx.symbols.full_name(sym),
            n_params: 0,
            n_locals: 0,
            code: Vec::new(),
            handlers: Vec::new(),
        });
        id
    }

    fn compile_all(&mut self) -> Result<(), CodegenError> {
        for d in self.static_defs.clone() {
            self.compile_def(&d, None)?;
        }
        for (cls, body) in self.class_defs.clone() {
            for m in &body {
                if matches!(m.kind(), TreeKind::DefDef { .. }) {
                    self.compile_def(m, Some(cls))?;
                }
            }
        }
        Ok(())
    }

    fn compile_def(&mut self, d: &TreeRef, in_class: Option<SymbolId>) -> Result<(), CodegenError> {
        let TreeKind::DefDef { sym, paramss, rhs } = d.kind() else {
            return err("expected DefDef");
        };
        if rhs.is_empty_tree() {
            // Abstract method: leave an empty body that traps if called.
            return Ok(());
        }
        let fid = self.fn_of[sym];
        let mut c = FnCompiler {
            gen: self,
            slots: HashMap::new(),
            next_slot: 0,
            code: Vec::new(),
            handlers: Vec::new(),
            labels: HashMap::new(),
        };
        if in_class.is_some() {
            c.next_slot = 1; // slot 0 = this
        }
        for clause in paramss {
            for p in clause {
                let ps = p.def_sym();
                let slot = c.next_slot;
                c.next_slot += 1;
                c.slots.insert(ps, slot);
            }
        }
        let n_params = c.next_slot;
        c.expr(rhs)?;
        c.code.push(Insn::Ret);
        let (code, handlers, n_locals) = (c.code, c.handlers, c.next_slot);
        let f = &mut self.program.functions[fid as usize];
        f.n_params = n_params;
        f.code = code;
        f.handlers = handlers;
        f.n_locals = n_locals;
        Ok(())
    }
}

struct FnCompiler<'g, 'a> {
    gen: &'g Gen<'a>,
    slots: HashMap<SymbolId, u16>,
    next_slot: u16,
    code: Vec<Insn>,
    handlers: Vec<Handler>,
    labels: HashMap<SymbolId, (u32, Vec<u16>)>,
}

impl FnCompiler<'_, '_> {
    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    fn emit(&mut self, i: Insn) -> u32 {
        let pc = self.pc();
        self.code.push(i);
        pc
    }

    fn patch(&mut self, at: u32, target: u32) {
        match &mut self.code[at as usize] {
            Insn::Jump(t) | Insn::JumpIfFalse(t) | Insn::JumpIfTrue(t) => *t = target,
            other => panic!("patching non-jump {other:?}"),
        }
    }

    fn slot(&mut self, sym: SymbolId) -> u16 {
        if let Some(&s) = self.slots.get(&sym) {
            return s;
        }
        let s = self.next_slot;
        self.next_slot += 1;
        self.slots.insert(sym, s);
        s
    }

    fn type_test(&self, t: &Type) -> Result<TypeTest, CodegenError> {
        Ok(match t {
            Type::Any => TypeTest::Any,
            Type::AnyRef => TypeTest::AnyRef,
            Type::Int => TypeTest::Int,
            Type::Boolean => TypeTest::Bool,
            Type::Unit => TypeTest::Unit,
            Type::Str => TypeTest::Str,
            Type::Null => TypeTest::Null,
            Type::Array(_) => TypeTest::Array,
            Type::Nothing => TypeTest::Null, // uninhabited; test never passes usefully
            Type::Class { sym, .. } => match self.gen.class_of.get(sym) {
                Some(&c) => TypeTest::Class(c),
                None => TypeTest::Any,
            },
            other => return err(format!("type {other} not erased before backend")),
        })
    }

    fn stat(&mut self, t: &TreeRef) -> Result<(), CodegenError> {
        match t.kind() {
            TreeKind::ValDef { sym, rhs } => {
                if rhs.is_empty_tree() {
                    return err("local val without initializer reached backend");
                }
                self.expr(rhs)?;
                let s = self.slot(*sym);
                self.emit(Insn::Store(s));
                Ok(())
            }
            TreeKind::Empty => Ok(()),
            _ => {
                self.expr(t)?;
                self.emit(Insn::Pop);
                Ok(())
            }
        }
    }

    fn expr(&mut self, t: &TreeRef) -> Result<(), CodegenError> {
        match t.kind() {
            TreeKind::Empty => {
                self.emit(Insn::ConstUnit);
            }
            TreeKind::Literal { value } => {
                self.emit(match value {
                    mini_ir::Constant::Unit => Insn::ConstUnit,
                    mini_ir::Constant::Bool(b) => Insn::ConstBool(*b),
                    mini_ir::Constant::Int(i) => Insn::ConstInt(*i),
                    mini_ir::Constant::Str(s) => Insn::ConstStr(*s),
                    mini_ir::Constant::Null => Insn::ConstNull,
                });
            }
            TreeKind::Ident { sym } => {
                let Some(&s) = self.slots.get(sym) else {
                    return err(format!(
                        "reference to `{}` is not a local slot (was it lifted?)",
                        self.gen.ctx.symbols.full_name(*sym)
                    ));
                };
                self.emit(Insn::Load(s));
            }
            TreeKind::This { .. } => {
                self.emit(Insn::Load(0));
            }
            TreeKind::Select { qual, name, sym } => {
                // Field read.
                if name.as_str() == "length" && matches!(qual.tpe(), Type::Array(_)) {
                    self.expr(qual)?;
                    self.emit(Insn::ALen);
                    return Ok(());
                }
                if name.as_str() == "length" && *qual.tpe() == Type::Str {
                    self.expr(qual)?;
                    self.emit(Insn::SLen);
                    return Ok(());
                }
                if sym.exists() {
                    if let Some(&slot) = self.gen.field_slot.get(sym) {
                        self.expr(qual)?;
                        self.emit(Insn::GetField(slot));
                        return Ok(());
                    }
                }
                return err(format!("naked method selection `{name}` reached backend"));
            }
            TreeKind::Apply { fun, args } => self.apply(t, fun, args)?,
            TreeKind::Block { stats, expr } => {
                for s in stats {
                    self.stat(s)?;
                }
                self.expr(expr)?;
            }
            TreeKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond)?;
                let jf = self.emit(Insn::JumpIfFalse(0));
                self.expr(then_branch)?;
                let je = self.emit(Insn::Jump(0));
                let else_pc = self.pc();
                self.patch(jf, else_pc);
                self.expr(else_branch)?;
                let end = self.pc();
                self.patch(je, end);
            }
            TreeKind::While { cond, body } => {
                let start = self.pc();
                self.expr(cond)?;
                let jf = self.emit(Insn::JumpIfFalse(0));
                self.expr(body)?;
                self.emit(Insn::Pop);
                self.emit(Insn::Jump(start));
                let end = self.pc();
                self.patch(jf, end);
                self.emit(Insn::ConstUnit);
            }
            TreeKind::Assign { lhs, rhs } => match lhs.kind() {
                TreeKind::Ident { sym } => {
                    self.expr(rhs)?;
                    let s = self.slot(*sym);
                    self.emit(Insn::Store(s));
                    self.emit(Insn::ConstUnit);
                }
                TreeKind::Select { qual, sym, name } => {
                    let Some(&slot) = self.gen.field_slot.get(sym) else {
                        return err(format!("assignment to non-field `{name}`"));
                    };
                    self.expr(qual)?;
                    self.expr(rhs)?;
                    self.emit(Insn::PutField(slot));
                    self.emit(Insn::ConstUnit);
                }
                other => return err(format!("bad assignment target {:?}", other.node_kind())),
            },
            TreeKind::Labeled { label, body } => {
                let param_slots: Vec<u16> = self
                    .gen
                    .ctx
                    .symbols
                    .sym(*label)
                    .decls
                    .iter()
                    .map(|&p| self.slot(p))
                    .collect();
                let pc = self.pc();
                self.labels.insert(*label, (pc, param_slots));
                self.expr(body)?;
            }
            TreeKind::JumpTo { label, args } => {
                for a in args {
                    self.expr(a)?;
                }
                let (pc, slots) = self
                    .labels
                    .get(label)
                    .cloned()
                    .ok_or_else(|| CodegenError {
                        msg: "jump to unknown label".into(),
                    })?;
                if slots.len() != args.len() {
                    return err("label arity mismatch");
                }
                for &s in slots.iter().rev() {
                    self.emit(Insn::Store(s));
                }
                self.emit(Insn::Jump(pc));
                // Unreachable, but keep the stack shape honest for linear
                // readers of the code.
            }
            TreeKind::Cast { expr, tpe } => {
                self.expr(expr)?;
                let tt = self.type_test(tpe)?;
                self.emit(Insn::Cast(tt));
            }
            TreeKind::IsInstance { expr, tpe } => {
                self.expr(expr)?;
                let tt = self.type_test(tpe)?;
                self.emit(Insn::IsInstance(tt));
            }
            TreeKind::Typed { expr, .. } => {
                // Transparent ascription.
                self.expr(expr)?;
            }
            TreeKind::Throw { expr } => {
                self.expr(expr)?;
                self.emit(Insn::Throw);
            }
            TreeKind::Return { expr, .. } => {
                self.expr(expr)?;
                self.emit(Insn::Ret);
            }
            TreeKind::Try {
                block,
                cases,
                finalizer,
            } => self.try_expr(block, cases, finalizer)?,
            TreeKind::SeqLiteral { elems, .. } => {
                self.emit(Insn::ConstInt(elems.len() as i64));
                self.emit(Insn::NewArray);
                for (i, e) in elems.iter().enumerate() {
                    self.emit(Insn::Dup);
                    self.emit(Insn::ConstInt(i as i64));
                    self.expr(e)?;
                    self.emit(Insn::AStore);
                    self.emit(Insn::Pop);
                }
            }
            other => {
                return err(format!(
                    "{:?} node survived the pipeline into the backend",
                    other.node_kind()
                ))
            }
        }
        Ok(())
    }

    fn try_expr(
        &mut self,
        block: &TreeRef,
        cases: &[TreeRef],
        finalizer: &TreeRef,
    ) -> Result<(), CodegenError> {
        let start = self.pc();
        self.expr(block)?;
        let end = self.pc();
        let mut end_jumps = vec![self.emit(Insn::Jump(0))];
        if !cases.is_empty() {
            let target = self.pc();
            // Post-PatternMatcher contract: exactly one catch-all case whose
            // pattern is a simple binder.
            if cases.len() != 1 {
                return err("multiple catch cases reached backend (PatternMatcher skipped?)");
            }
            let TreeKind::CaseDef { pat, guard, body } = cases[0].kind() else {
                return err("catch case is not a CaseDef");
            };
            if !guard.is_empty_tree() {
                return err("guarded catch case reached backend");
            }
            let TreeKind::Bind { sym, .. } = pat.kind() else {
                return err("catch pattern not lowered to a simple binder");
            };
            let s = self.slot(*sym);
            self.emit(Insn::Store(s));
            self.expr(body)?;
            end_jumps.push(self.emit(Insn::Jump(0)));
            self.handlers.push(Handler { start, end, target });
        }
        let after_catch = self.pc();
        for j in end_jumps {
            self.patch(j, after_catch);
        }
        if !finalizer.is_empty_tree() {
            // Normal path: result is on the stack; save, run finalizer,
            // restore.
            let tmp = self.next_slot;
            self.next_slot += 1;
            self.emit(Insn::Store(tmp));
            self.expr(finalizer)?;
            self.emit(Insn::Pop);
            self.emit(Insn::Load(tmp));
            let done = self.emit(Insn::Jump(0));
            // Exceptional path: covers the protected+catch region.
            let target = self.pc();
            let exc = self.next_slot;
            self.next_slot += 1;
            self.emit(Insn::Store(exc));
            self.expr(finalizer)?;
            self.emit(Insn::Pop);
            self.emit(Insn::Load(exc));
            self.emit(Insn::Throw);
            self.handlers.push(Handler {
                start,
                end: after_catch,
                target,
            });
            let end_pc = self.pc();
            self.patch(done, end_pc);
        }
        Ok(())
    }

    fn apply(
        &mut self,
        node: &TreeRef,
        fun: &TreeRef,
        args: &[TreeRef],
    ) -> Result<(), CodegenError> {
        match fun.kind() {
            // Constructor call: `new C(...)` / `new Array[T](n)`.
            TreeKind::Select { qual, name, .. }
                if matches!(qual.kind(), TreeKind::New { .. }) && *name == std_names::init() =>
            {
                let TreeKind::New { tpe } = qual.kind() else {
                    unreachable!("matched above")
                };
                if matches!(tpe, Type::Array(_)) {
                    if args.len() != 1 {
                        return err("array allocation takes one argument");
                    }
                    self.expr(&args[0])?;
                    self.emit(Insn::NewArray);
                    return Ok(());
                }
                let Some(cls_sym) = tpe.class_sym() else {
                    return err(format!("cannot allocate {tpe}"));
                };
                let Some(&cid) = self.gen.class_of.get(&cls_sym) else {
                    return err(format!(
                        "unknown class `{}`",
                        self.gen.ctx.symbols.full_name(cls_sym)
                    ));
                };
                self.emit(Insn::New(cid));
                self.emit(Insn::Dup);
                for a in args {
                    self.expr(a)?;
                }
                let slot = self.gen.method_slot(std_names::init());
                self.emit(Insn::CallDirect(cid, slot, args.len() as u16 + 1));
                self.emit(Insn::Pop); // drop the unit returned by <init>
                Ok(())
            }
            TreeKind::Select { qual, name, sym } => {
                self.intrinsic_or_call(node, qual, *name, *sym, args)
            }
            TreeKind::Ident { sym } => {
                // Static call (top-level def) or builtin println.
                if *sym == self.gen.ctx.symbols.builtins().println_fn {
                    if args.len() != 1 {
                        return err("println takes one argument");
                    }
                    self.expr(&args[0])?;
                    self.emit(Insn::Println);
                    return Ok(());
                }
                let Some(&fid) = self.gen.fn_of.get(sym) else {
                    return err(format!(
                        "call to unknown function `{}`",
                        self.gen.ctx.symbols.full_name(*sym)
                    ));
                };
                for a in args {
                    self.expr(a)?;
                }
                self.emit(Insn::CallStatic(fid, args.len() as u16));
                Ok(())
            }
            other => err(format!("cannot call through {:?} node", other.node_kind())),
        }
    }

    fn intrinsic_or_call(
        &mut self,
        node: &TreeRef,
        qual: &TreeRef,
        name: Name,
        sym: SymbolId,
        args: &[TreeRef],
    ) -> Result<(), CodegenError> {
        let n = name.as_str();
        // Array intrinsics.
        if matches!(qual.tpe(), Type::Array(_)) {
            match n {
                "apply" if args.len() == 1 => {
                    self.expr(qual)?;
                    self.expr(&args[0])?;
                    self.emit(Insn::ALoad);
                    return Ok(());
                }
                "update" if args.len() == 2 => {
                    self.expr(qual)?;
                    self.expr(&args[0])?;
                    self.expr(&args[1])?;
                    self.emit(Insn::AStore);
                    return Ok(());
                }
                "length" => {
                    self.expr(qual)?;
                    self.emit(Insn::ALen);
                    return Ok(());
                }
                _ => {}
            }
        }
        // Primitive / universal operators (no resolved symbol).
        if !sym.exists() {
            match (n, args.len()) {
                ("&&", 1) => {
                    self.expr(qual)?;
                    let jf = self.emit(Insn::JumpIfFalse(0));
                    self.expr(&args[0])?;
                    let je = self.emit(Insn::Jump(0));
                    let lf = self.pc();
                    self.patch(jf, lf);
                    self.emit(Insn::ConstBool(false));
                    let end = self.pc();
                    self.patch(je, end);
                    return Ok(());
                }
                ("||", 1) => {
                    self.expr(qual)?;
                    let jt = self.emit(Insn::JumpIfTrue(0));
                    self.expr(&args[0])?;
                    let je = self.emit(Insn::Jump(0));
                    let lt = self.pc();
                    self.patch(jt, lt);
                    self.emit(Insn::ConstBool(true));
                    let end = self.pc();
                    self.patch(je, end);
                    return Ok(());
                }
                ("!", 0) => {
                    self.expr(qual)?;
                    self.emit(Insn::Not);
                    return Ok(());
                }
                ("-", 0) => {
                    self.expr(qual)?;
                    self.emit(Insn::Neg);
                    return Ok(());
                }
                ("+", 1) if *node.tpe() == Type::Str => {
                    self.expr(qual)?;
                    self.expr(&args[0])?;
                    self.emit(Insn::Concat);
                    return Ok(());
                }
                (op @ ("+" | "-" | "*" | "/" | "%" | "<" | ">" | "<=" | ">="), 1) => {
                    self.expr(qual)?;
                    self.expr(&args[0])?;
                    self.emit(match op {
                        "+" => Insn::Add,
                        "-" => Insn::Sub,
                        "*" => Insn::Mul,
                        "/" => Insn::Div,
                        "%" => Insn::Mod,
                        "<" => Insn::CmpLt,
                        ">" => Insn::CmpGt,
                        "<=" => Insn::CmpLe,
                        _ => Insn::CmpGe,
                    });
                    return Ok(());
                }
                ("==", 1) => {
                    self.expr(qual)?;
                    self.expr(&args[0])?;
                    self.emit(Insn::CmpEq);
                    return Ok(());
                }
                ("!=", 1) => {
                    self.expr(qual)?;
                    self.expr(&args[0])?;
                    self.emit(Insn::CmpEq);
                    self.emit(Insn::Not);
                    return Ok(());
                }
                _ => {
                    // A by-name virtual call (e.g. trait-init calls emitted
                    // before the init symbol exists): dispatch dynamically.
                    self.expr(qual)?;
                    for a in args {
                        self.expr(a)?;
                    }
                    let slot = self.gen.method_slot(name);
                    self.emit(Insn::CallVirtual(slot, args.len() as u16 + 1));
                    return Ok(());
                }
            }
        }
        // Universal members of Any.
        let b = self.gen.ctx.symbols.builtins();
        if sym == b.equals_meth {
            self.expr(qual)?;
            self.expr(&args[0])?;
            self.emit(Insn::CmpEq);
            return Ok(());
        }
        if sym == b.to_string_meth {
            self.expr(qual)?;
            self.emit(Insn::ToStr);
            return Ok(());
        }
        if sym == b.get_class_meth {
            self.expr(qual)?;
            self.emit(Insn::GetClassName);
            return Ok(());
        }
        // Super call: direct dispatch into the defining class.
        if let TreeKind::Super { .. } = qual.kind() {
            let owner = self.gen.ctx.symbols.sym(sym).owner;
            let Some(&cid) = self.gen.class_of.get(&owner) else {
                return err("super call into unknown class");
            };
            self.emit(Insn::Load(0));
            for a in args {
                self.expr(a)?;
            }
            let slot = self.gen.method_slot(name);
            self.emit(Insn::CallDirect(cid, slot, args.len() as u16 + 1));
            return Ok(());
        }
        // Plain virtual call.
        self.expr(qual)?;
        for a in args {
            self.expr(a)?;
        }
        let slot = self.gen.method_slot(name);
        self.emit(Insn::CallVirtual(slot, args.len() as u16 + 1));
        Ok(())
    }
}

/// Peephole superinstruction selection over one function body.
///
/// Fuses the hottest decoded pairs — `Load;Load` and `Load;ConstInt` (the
/// preamble of almost every binary op), `ConstInt;Add` and `Add;Store`
/// (the increment/accumulate patterns), `Load;CallStatic` (the last-arg
/// push of every call chain) and integer-compare + conditional branch
/// (every loop header) — into single [`Insn`] variants. A pair is
/// only fused when control cannot enter between its halves: any jump
/// target, handler start/end boundary, or handler target is a **barrier**.
/// Jump operands and handler ranges are remapped to the compacted pc
/// space.
///
/// Codegen stores plain code in the [`Program`]; the VM applies this pass
/// to a prepared copy in its fast mode, so a single linked program serves
/// both fast and reference execution. Fused
/// instructions charge fuel per constituent instruction, keeping
/// out-of-fuel traps position-identical with the reference interpreter.
pub fn fuse(code: &[Insn], handlers: &[Handler]) -> (Vec<Insn>, Vec<Handler>) {
    let n = code.len();
    let mut barrier = vec![false; n + 1];
    for i in code {
        if let Insn::Jump(t) | Insn::JumpIfFalse(t) | Insn::JumpIfTrue(t) = *i {
            barrier[t as usize] = true;
        }
    }
    for h in handlers {
        barrier[h.start as usize] = true;
        barrier[h.end as usize] = true;
        barrier[h.target as usize] = true;
    }
    let mut out = Vec::with_capacity(n);
    let mut new_pc = vec![0u32; n + 1];
    let mut pc = 0usize;
    while pc < n {
        new_pc[pc] = out.len() as u32;
        let fused = if pc + 1 < n && !barrier[pc + 1] {
            fuse_pair(code[pc], code[pc + 1])
        } else {
            None
        };
        match fused {
            Some(f) => {
                // The consumed half is never a jump/handler target (it was
                // not a barrier), so its remap entry is unreferenced.
                new_pc[pc + 1] = out.len() as u32;
                out.push(f);
                pc += 2;
            }
            None => {
                out.push(code[pc]);
                pc += 1;
            }
        }
    }
    new_pc[n] = out.len() as u32;
    for i in &mut out {
        match i {
            Insn::Jump(t)
            | Insn::JumpIfFalse(t)
            | Insn::JumpIfTrue(t)
            | Insn::CmpBranch(_, _, t) => *t = new_pc[*t as usize],
            _ => {}
        }
    }
    let handlers = handlers
        .iter()
        .map(|h| Handler {
            start: new_pc[h.start as usize],
            end: new_pc[h.end as usize],
            target: new_pc[h.target as usize],
        })
        .collect();
    (out, handlers)
}

fn fuse_pair(a: Insn, b: Insn) -> Option<Insn> {
    let cmp = |i: Insn| match i {
        Insn::CmpEq => Some(Cmp::Eq),
        Insn::CmpLt => Some(Cmp::Lt),
        Insn::CmpGt => Some(Cmp::Gt),
        Insn::CmpLe => Some(Cmp::Le),
        Insn::CmpGe => Some(Cmp::Ge),
        _ => None,
    };
    match (a, b) {
        (Insn::Load(x), Insn::Load(y)) => Some(Insn::LoadLoad(x, y)),
        (Insn::Load(x), Insn::ConstInt(k)) => Some(Insn::LoadConst(x, k)),
        (Insn::Load(x), Insn::CallStatic(f, argc)) => Some(Insn::LoadCall(x, f, argc)),
        (Insn::ConstInt(k), Insn::Add) => Some(Insn::AddConst(k)),
        (Insn::Add, Insn::Store(s)) => Some(Insn::AddStore(s)),
        (c, Insn::JumpIfFalse(t)) if cmp(c).is_some() => Some(Insn::CmpBranch(cmp(c)?, false, t)),
        (c, Insn::JumpIfTrue(t)) if cmp(c).is_some() => Some(Insn::CmpBranch(cmp(c)?, true, t)),
        _ => None,
    }
}
