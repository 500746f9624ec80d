//! The code generator (`GenBCode` analogue).
//!
//! Consumes fully lowered trees — after the whole Miniphase pipeline has run
//! there are no `Match`/`Lambda`/`TypeApply` nodes and all types are erased —
//! and produces a [`Program`] for the VM in two stages, the way `GenBCode`
//! emits each unit's classes separately and leaves linking to the JVM:
//!
//! 1. [`compile_unit`] turns one unit tree into a relocatable [`UnitCode`]:
//!    the unit's functions with their names rendered and their code
//!    emitted, plus one summary per class (name, linearization symbols, own
//!    field symbols, own `(name, method)` vtable entries). Every operand
//!    that names something outside the function — a callee, a class, a
//!    field, a method selector — indexes one of the unit's **import
//!    tables** (symbols and selector names), never a program-wide id.
//! 2. [`link`] numbers the classes, functions, fields and method slots of
//!    all units, builds layouts and vtables from the summaries (it never
//!    walks the symbol table for them), rewrites every import operand to
//!    its program-wide id and calls [`Program::link`]. Everything that
//!    depends on the whole program is decided here: whether a selected
//!    symbol is a field (or a "naked method selection" error), whether a
//!    type test names a generated class (or falls back to `Any`), whether
//!    a callee or an allocated class exists, and which top-level `main` is
//!    the entry point. [`generate`] is exactly `compile_unit` per tree
//!    followed by `link`. A caller that links the same units again (a
//!    compile session after an edit) hands each unit's [`RelocatedUnit`]
//!    from the previous link back in, and `link` places those functions
//!    as they are when nothing they were relocated against changed.
//!
//! Ids come out as a whole-program generator would assign them: classes
//! in unit order after the builtin classes, every unit's top-level
//! functions before every unit's methods, fields in layout order, and
//! method selectors in first-use order over that function order.
//!
//! # What `compile_unit` may read
//!
//! The unit's own tree, and through the symbol table only: the names,
//! owners, flags and `decls` of the unit's own symbols, the builtins, the
//! linearizations of the unit's classes (which reach into dependencies
//! only through class parents), and the owners of methods a `super` call
//! names. Parents, members and owners of a dependency's symbols are part
//! of its exported surface, so a [`UnitCode`] stays valid for as long as
//! the unit's tree, its symbols and its dependencies' exported interfaces
//! do — which is exactly when an incremental compile session may reuse
//! the unit's cached tree, so the session caches the unit code beside it.

use crate::bytecode::*;
use mini_ir::{std_names, Ctx, Flags, Name, SymbolId, TreeKind, TreeRef, Type};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::mem::size_of;
use std::sync::Arc;

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

/// Generates a runnable [`Program`] from lowered compilation-unit trees:
/// [`compile_unit`] on each tree, then [`link`] (moving the fresh code
/// into the program instead of copying it).
///
/// # Errors
///
/// Returns a [`CodegenError`] if the trees still contain constructs that the
/// phases were supposed to eliminate (`Match`, `Lambda`, generic types, ...).
pub fn generate(ctx: &Ctx, units: &[TreeRef]) -> Result<Program, CodegenError> {
    let mut code = units
        .iter()
        .map(|u| compile_unit(ctx, u))
        .collect::<Result<Vec<_>, _>>()?;
    let mut linker = Linker::new(ctx, &code.iter().collect::<Vec<_>>());
    for (i, u) in code.iter_mut().enumerate() {
        for f in u.statics.drain(..) {
            linker.push(i, f.body)?;
        }
    }
    for (i, u) in code.iter_mut().enumerate() {
        for f in u.methods.drain(..) {
            linker.push(i, f.body)?;
        }
    }
    Ok(linker.finish())
}

/// One compilation unit's bytecode in relocatable form: the output of
/// [`compile_unit`] and the input of [`link`] (see the module docs).
///
/// In its functions' code, the operands of `CallStatic`, `New`,
/// `CallDirect`, `GetField`, `PutField`, `CallVirtual` and
/// `TypeTest::Class` index the unit's import tables; only [`link`] turns
/// them into program-wide ids.
#[derive(Clone, Debug, Default)]
pub struct UnitCode {
    /// Top-level functions, in tree order.
    statics: Vec<UnitFunction>,
    /// Class methods (constructors included), class by class, in tree
    /// order.
    methods: Vec<UnitFunction>,
    /// Index in `statics` of the unit's last top-level `main`.
    main: Option<usize>,
    /// One summary per class, in tree order.
    classes: Vec<ClassSummary>,
    /// Referenced classes, by symbol.
    class_imports: Vec<SymbolId>,
    /// Referenced top-level functions, by symbol.
    function_imports: Vec<SymbolId>,
    /// Referenced fields, by symbol and selected name (the name only
    /// words the error when the symbol turns out not to be a field).
    field_imports: Vec<(SymbolId, Name)>,
    /// Referenced method selectors, in first-use order.
    method_imports: Vec<Name>,
    /// How many of `method_imports` a top-level function used first —
    /// what lets [`link`] intern selectors in whole-program first-use
    /// order.
    static_methods: usize,
}

/// One function of a [`UnitCode`].
#[derive(Clone, Debug)]
struct UnitFunction {
    /// The defining symbol ([`link`] maps it to the function's id).
    sym: SymbolId,
    /// The function, with import-table operands.
    body: Function,
}

/// What [`link`] needs to know about one class without reading its tree
/// or walking the symbol table.
#[derive(Clone, Debug)]
struct ClassSummary {
    sym: SymbolId,
    /// Rendered full name.
    name: String,
    /// Linearization (self first), as symbols.
    linearization: Vec<SymbolId>,
    /// The fields the class body defines, in body order.
    fields: Vec<SymbolId>,
    /// The class's own concrete methods (`METHOD && !DEFERRED` decls), in
    /// declaration order.
    methods: Vec<(Name, SymbolId)>,
}

/// Modelled heap footprint of one function's name, code and handlers.
fn function_bytes(f: &Function) -> usize {
    f.name.len() + f.code.len() * size_of::<Insn>() + f.handlers.len() * size_of::<Handler>()
}

impl UnitCode {
    /// Modelled heap footprint in bytes (code, handlers, names, summaries
    /// and import tables), for cache accounting.
    pub fn approx_bytes(&self) -> u64 {
        let function = |f: &UnitFunction| size_of::<UnitFunction>() + function_bytes(&f.body);
        let class = |c: &ClassSummary| {
            size_of::<ClassSummary>()
                + c.name.len()
                + (c.linearization.len() + c.fields.len()) * size_of::<SymbolId>()
                + c.methods.len() * size_of::<(Name, SymbolId)>()
        };
        let bytes = size_of::<UnitCode>()
            + self
                .statics
                .iter()
                .chain(&self.methods)
                .map(function)
                .sum::<usize>()
            + self.classes.iter().map(class).sum::<usize>()
            + (self.class_imports.len() + self.function_imports.len()) * size_of::<SymbolId>()
            + self.field_imports.len() * size_of::<(SymbolId, Name)>()
            + self.method_imports.len() * size_of::<Name>();
        bytes as u64
    }
}

/// Compiles one lowered unit tree into relocatable [`UnitCode`].
///
/// # Errors
///
/// Returns a [`CodegenError`] if the tree still contains constructs that the
/// phases were supposed to eliminate. Errors that depend on other units
/// (an unknown callee or class, a selection that is not a field) surface
/// from [`link`].
pub fn compile_unit(ctx: &Ctx, unit: &TreeRef) -> Result<UnitCode, CodegenError> {
    let TreeKind::PackageDef { stats, .. } = unit.kind() else {
        return err("expected PackageDef at unit root");
    };
    let mut statics = Vec::new();
    let mut classes = Vec::new();
    for s in stats {
        match s.kind() {
            TreeKind::ClassDef { sym, body } => classes.push((*sym, body)),
            TreeKind::DefDef { .. } => statics.push(s),
            TreeKind::Empty => {}
            other => return err(format!("unexpected top-level {:?} node", other.node_kind())),
        }
    }
    let mut imports = ImportTables::default();
    let mut out = UnitCode::default();
    let main = std_names::main();
    for d in statics {
        let f = compile_def(ctx, &mut imports, d, false)?;
        if ctx.symbols.sym(f.sym).name == main {
            out.main = Some(out.statics.len());
        }
        out.statics.push(f);
    }
    out.static_methods = imports.methods.list.len();
    for (sym, body) in classes {
        let mut fields = Vec::new();
        for m in body.iter() {
            match m.kind() {
                TreeKind::ValDef { sym: f, .. } => fields.push(*f),
                TreeKind::DefDef { .. } => {
                    out.methods.push(compile_def(ctx, &mut imports, m, true)?)
                }
                _ => {}
            }
        }
        // Constructors are included: they are only reached via CallDirect
        // on the exact class.
        let methods = ctx
            .symbols
            .sym(sym)
            .decls()
            .iter()
            .filter_map(|&d| {
                let sd = ctx.symbols.sym(d);
                (sd.flags.is(Flags::METHOD) && !sd.flags.is(Flags::DEFERRED))
                    .then_some((sd.name, d))
            })
            .collect();
        out.classes.push(ClassSummary {
            sym,
            name: ctx.symbols.full_name(sym),
            linearization: ctx.symbols.linearization(sym),
            fields,
            methods,
        });
    }
    out.class_imports = imports.classes.list;
    out.function_imports = imports.functions.list;
    out.field_imports = imports.fields.list;
    out.method_imports = imports.methods.list;
    Ok(out)
}

/// Compiles one `DefDef` (an abstract one gets an empty body that traps if
/// called).
fn compile_def(
    ctx: &Ctx,
    imports: &mut ImportTables,
    d: &TreeRef,
    in_class: bool,
) -> Result<UnitFunction, CodegenError> {
    let TreeKind::DefDef { sym, paramss, rhs } = d.kind() else {
        return err("expected DefDef");
    };
    let mut body = Function {
        name: ctx.symbols.full_name(*sym),
        n_params: 0,
        n_locals: 0,
        code: Vec::new(),
        handlers: Vec::new(),
    };
    if !rhs.is_empty_tree() {
        let mut c = FnCompiler {
            ctx,
            imports,
            slots: HashMap::new(),
            next_slot: u16::from(in_class), // slot 0 = this
            code: Vec::new(),
            handlers: Vec::new(),
            labels: HashMap::new(),
        };
        for clause in paramss {
            for p in clause {
                let slot = c.next_slot;
                c.next_slot += 1;
                c.slots.insert(p.def_sym(), slot);
            }
        }
        body.n_params = c.next_slot;
        c.expr(rhs)?;
        c.code.push(Insn::Ret);
        body.n_locals = c.next_slot;
        body.code = c.code;
        body.handlers = c.handlers;
    }
    Ok(UnitFunction { sym: *sym, body })
}

/// One import table: distinct keys in first-use order.
struct Imports<K> {
    list: Vec<K>,
    index: HashMap<K, u32>,
}

impl<K> Default for Imports<K> {
    fn default() -> Self {
        Imports {
            list: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl<K: Copy + Eq + Hash> Imports<K> {
    /// The unit-local index of `key`, added on first use.
    fn get(&mut self, key: K) -> u32 {
        let next = self.list.len() as u32;
        *self.index.entry(key).or_insert_with(|| {
            self.list.push(key);
            next
        })
    }
}

/// The import tables one unit's functions fill while they are compiled.
#[derive(Default)]
struct ImportTables {
    classes: Imports<SymbolId>,
    functions: Imports<SymbolId>,
    fields: Imports<(SymbolId, Name)>,
    methods: Imports<Name>,
}

/// One unit's functions as a [`link`] relocated them, with what they were
/// relocated against. A later link of the same [`UnitCode`] places them
/// again instead of relocating the unit while its imports resolve to the
/// same ids and its functions keep theirs.
#[derive(Debug)]
pub struct RelocatedUnit {
    /// The unit's import tables as resolved by the relocating link.
    imports: Relocation,
    /// The ids of the unit's first top-level function and first method.
    bases: (FnId, FnId),
    /// The relocated top-level functions, in `UnitCode` order.
    statics: Vec<Arc<Function>>,
    /// The relocated methods, in `UnitCode` order.
    methods: Vec<Arc<Function>>,
}

impl RelocatedUnit {
    /// Modelled heap footprint in bytes (relocated code and the resolved
    /// import tables), for cache accounting.
    pub fn approx_bytes(&self) -> u64 {
        let r = &self.imports;
        let bytes = size_of::<RelocatedUnit>()
            + self
                .statics
                .iter()
                .chain(&self.methods)
                .map(|f| size_of::<Function>() + function_bytes(f))
                .sum::<usize>()
            + r.classes.len() * size_of::<Result<ClassId, SymbolId>>()
            + r.functions.len() * size_of::<Result<FnId, SymbolId>>()
            + r.fields.len() * size_of::<Result<u16, Name>>()
            + r.methods.len() * size_of::<MethodSlot>();
        bytes as u64
    }
}

/// A linked program, and the code the link relocated.
pub struct Linked {
    /// The runnable program.
    pub program: Program,
    /// Per input unit: the functions this link relocated, or `None` where
    /// it placed the unit's earlier [`RelocatedUnit`] again.
    pub relocated: Vec<Option<RelocatedUnit>>,
}

/// Links relocatable units into one runnable [`Program`] (see the module
/// docs). `ctx` supplies the builtin classes and the wording of errors.
///
/// Each unit comes with what an earlier link relocated from **that same
/// code**, if anything: pairing a unit with another unit's relocation, or
/// with one made from an older version of its code, is a caller error the
/// link cannot detect. The layout — ids, vtables, field and method tables
/// — is computed afresh on every call. A unit's earlier functions are
/// placed as they are when its freshly resolved imports equal the ones
/// they were relocated against and its function ids start where they did;
/// otherwise the unit is relocated anew. The reuse never depends on
/// symbol ids: closure classes and their `apply` methods get fresh symbols
/// whenever their unit recompiles, but a reused unit's imports are
/// compared as resolved program-wide ids.
///
/// # Errors
///
/// Returns a [`CodegenError`] for a call to a function no unit defines,
/// an allocation of or `super` call into a class no unit (or builtin)
/// defines, or a selection or assignment of a symbol that is no generated
/// class's field.
pub fn link(
    ctx: &Ctx,
    units: &[(&UnitCode, Option<&RelocatedUnit>)],
) -> Result<Linked, CodegenError> {
    let code: Vec<&UnitCode> = units.iter().map(|&(c, _)| c).collect();
    let mut linker = Linker::new(ctx, &code);
    let reuse: Vec<Option<&RelocatedUnit>> = units
        .iter()
        .zip(linker.units.iter().zip(&linker.bases))
        .map(|(&(_, earlier), (imports, bases))| {
            earlier.filter(|e| e.imports == *imports && e.bases == *bases)
        })
        .collect();
    // Function ids: every unit's top-level functions, then every unit's
    // methods (the order errors surface in, as in `generate`).
    for (i, (u, earlier)) in code.iter().zip(&reuse).enumerate() {
        match earlier {
            Some(e) => linker.program.functions.extend(e.statics.iter().cloned()),
            None => {
                for f in &u.statics {
                    linker.push(i, f.body.clone())?;
                }
            }
        }
    }
    for (i, (u, earlier)) in code.iter().zip(&reuse).enumerate() {
        match earlier {
            Some(e) => linker.program.functions.extend(e.methods.iter().cloned()),
            None => {
                for f in &u.methods {
                    linker.push(i, f.body.clone())?;
                }
            }
        }
    }
    let relocated = reuse
        .iter()
        .enumerate()
        .map(|(i, earlier)| {
            earlier.is_none().then(|| {
                let (s, m) = linker.bases[i];
                let fns = |base: FnId, n: usize| {
                    linker.program.functions[base as usize..base as usize + n].to_vec()
                };
                RelocatedUnit {
                    imports: linker.units[i].clone(),
                    bases: (s, m),
                    statics: fns(s, code[i].statics.len()),
                    methods: fns(m, code[i].methods.len()),
                }
            })
        })
        .collect();
    Ok(Linked {
        program: linker.finish(),
        relocated,
    })
}

/// A program under construction: every id assigned and every table built,
/// waiting for the function bodies, which must be pushed in function-id
/// order (every unit's top-level functions, then every unit's methods).
struct Linker<'c> {
    ctx: &'c Ctx,
    program: Program,
    /// Per unit, its import tables resolved to program-wide ids.
    units: Vec<Relocation>,
    /// Per unit, the ids of its first top-level function and first method.
    bases: Vec<(FnId, FnId)>,
}

impl<'c> Linker<'c> {
    fn new(ctx: &'c Ctx, units: &[&UnitCode]) -> Linker<'c> {
        let mut program = Program::default();
        // Builtin classes first (function traits + Any), so closure classes
        // can reference them.
        let mut class_of: HashMap<SymbolId, ClassId> = HashMap::new();
        let b = ctx.symbols.builtins();
        for sym in std::iter::once(b.any_class).chain(b.function_classes) {
            let id = program.classes.len() as ClassId;
            class_of.insert(sym, id);
            program.classes.push(VmClass::new(
                ctx.symbols.sym(sym).name.as_str().to_owned(),
                vec![id],
                0,
            ));
        }
        let first_class = program.classes.len();
        let summaries: Vec<&ClassSummary> = units.iter().flat_map(|u| &u.classes).collect();
        let mut summary_of: HashMap<SymbolId, &ClassSummary> = HashMap::new();
        for c in &summaries {
            class_of.insert(c.sym, program.classes.len() as ClassId);
            summary_of.insert(c.sym, c);
            program
                .classes
                .push(VmClass::new(c.name.clone(), Vec::new(), 0));
        }

        // Function ids: every unit's top-level functions, then every unit's
        // methods.
        let all_functions: Vec<&UnitFunction> = units
            .iter()
            .flat_map(|u| &u.statics)
            .chain(units.iter().flat_map(|u| &u.methods))
            .collect();
        program.functions.reserve_exact(all_functions.len());
        let fn_of: HashMap<SymbolId, FnId> = all_functions
            .iter()
            .enumerate()
            .map(|(id, f)| (f.sym, id as FnId))
            .collect();
        let mut bases = Vec::with_capacity(units.len());
        let (mut statics_before, mut methods_before) =
            (0, units.iter().map(|u| u.statics.len()).sum::<usize>());
        for u in units {
            if let Some(i) = u.main {
                program.entry = Some((statics_before + i) as FnId);
            }
            bases.push((statics_before as FnId, methods_before as FnId));
            statics_before += u.statics.len();
            methods_before += u.methods.len();
        }

        // Layouts (base classes first, so inherited field slots agree) and
        // vtables (base methods first, so derived definitions override).
        // The same field may resolve to different local slots in different
        // classes (trait fields), so instructions carry global field ids
        // resolved through the receiver's class.
        let mut field_id: HashMap<SymbolId, u16> = HashMap::new();
        for (i, c) in summaries.iter().enumerate() {
            let mut resolve = HashMap::new();
            let mut local = 0u16;
            let mut vtable = HashMap::new();
            for base in c.linearization.iter().rev() {
                let Some(base) = summary_of.get(base) else {
                    continue;
                };
                for f in &base.fields {
                    let next_gid = field_id.len() as u16;
                    let gid = *field_id.entry(*f).or_insert(next_gid);
                    resolve.entry(gid).or_insert_with(|| {
                        local += 1;
                        local - 1
                    });
                }
                for (name, m) in &base.methods {
                    if let Some(&f) = fn_of.get(m) {
                        vtable.insert(*name, f);
                    }
                }
            }
            let class = &mut program.classes[first_class + i];
            class.linearization = c
                .linearization
                .iter()
                .filter_map(|s| class_of.get(s).copied())
                .collect();
            class.n_fields = local;
            class.field_resolve = resolve;
            class.vtable = vtable;
        }

        // Method slots, interned in whole-program first-use order: selectors
        // first used by top-level functions, then the methods' (see
        // `UnitCode::static_methods`).
        let mut slot_of: HashMap<Name, MethodSlot> = HashMap::new();
        let mut intern = |names: &[Name]| {
            for &n in names {
                let next = program.method_names.len() as MethodSlot;
                slot_of.entry(n).or_insert_with(|| {
                    program.method_names.push(n);
                    next
                });
            }
        };
        for u in units {
            intern(&u.method_imports[..u.static_methods]);
        }
        for u in units {
            intern(&u.method_imports[u.static_methods..]);
        }

        // Each unit's imports, resolved (the error payloads word the
        // failure if a relocated instruction needs an unresolved one).
        let units = units
            .iter()
            .map(|u| Relocation {
                classes: u
                    .class_imports
                    .iter()
                    .map(|s| class_of.get(s).copied().ok_or(*s))
                    .collect(),
                functions: u
                    .function_imports
                    .iter()
                    .map(|s| fn_of.get(s).copied().ok_or(*s))
                    .collect(),
                fields: u
                    .field_imports
                    .iter()
                    .map(|(s, name)| field_id.get(s).copied().ok_or(*name))
                    .collect(),
                methods: u.method_imports.iter().map(|n| slot_of[n]).collect(),
            })
            .collect();
        Linker {
            ctx,
            program,
            units,
            bases,
        }
    }

    /// Appends the next function, a body of unit `unit`, with every import
    /// operand replaced by its id.
    fn push(&mut self, unit: usize, mut f: Function) -> Result<(), CodegenError> {
        let r = &self.units[unit];
        let name = |sym: SymbolId| self.ctx.symbols.full_name(sym);
        for insn in &mut f.code {
            *insn = match *insn {
                Insn::CallStatic(i, argc) => match r.functions[i as usize] {
                    Ok(f) => Insn::CallStatic(f, argc),
                    Err(sym) => return err(format!("call to unknown function `{}`", name(sym))),
                },
                Insn::New(i) => match r.classes[i as usize] {
                    Ok(c) => Insn::New(c),
                    Err(sym) => return err(format!("unknown class `{}`", name(sym))),
                },
                // A constructor call's class was checked at its `New`.
                Insn::CallDirect(i, m, argc) => match r.classes[i as usize] {
                    Ok(c) => Insn::CallDirect(c, r.methods[m as usize], argc),
                    Err(_) => return err("super call into unknown class"),
                },
                Insn::CallVirtual(m, argc) => Insn::CallVirtual(r.methods[m as usize], argc),
                Insn::GetField(i) => match r.fields[i as usize] {
                    Ok(g) => Insn::GetField(g),
                    Err(field) => {
                        return err(format!("naked method selection `{field}` reached backend"))
                    }
                },
                Insn::PutField(i) => match r.fields[i as usize] {
                    Ok(g) => Insn::PutField(g),
                    Err(field) => return err(format!("assignment to non-field `{field}`")),
                },
                Insn::IsInstance(t) => Insn::IsInstance(r.type_test(t)),
                Insn::Cast(t) => Insn::Cast(r.type_test(t)),
                other => other,
            };
        }
        self.program.functions.push(Arc::new(f));
        Ok(())
    }

    fn finish(mut self) -> Program {
        self.program.link();
        self.program
    }
}

/// One unit's import tables resolved to program-wide ids, or to what words
/// the error if nothing in the program defines the import.
#[derive(Clone, Debug, PartialEq)]
struct Relocation {
    classes: Vec<Result<ClassId, SymbolId>>,
    functions: Vec<Result<FnId, SymbolId>>,
    fields: Vec<Result<u16, Name>>,
    methods: Vec<MethodSlot>,
}

impl Relocation {
    /// A test against a class no unit generates accepts anything.
    fn type_test(&self, t: TypeTest) -> TypeTest {
        match t {
            TypeTest::Class(i) => self.classes[i as usize].map_or(TypeTest::Any, TypeTest::Class),
            other => other,
        }
    }
}

/// Emits one function body; operands naming anything outside the function
/// index the unit's import tables.
struct FnCompiler<'a> {
    ctx: &'a Ctx,
    imports: &'a mut ImportTables,
    slots: HashMap<SymbolId, u16>,
    next_slot: u16,
    code: Vec<Insn>,
    handlers: Vec<Handler>,
    labels: HashMap<SymbolId, (u32, Vec<u16>)>,
}

impl FnCompiler<'_> {
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

    /// The field import of a selection of `sym` as `name`.
    fn field(&mut self, sym: SymbolId, name: Name) -> Result<u16, CodegenError> {
        u16::try_from(self.imports.fields.get((sym, name)))
            .or_else(|_| err("too many distinct field references in one unit"))
    }

    fn type_test(&mut self, t: &Type) -> Result<TypeTest, CodegenError> {
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
            Type::Class { sym, .. } => TypeTest::Class(self.imports.classes.get(*sym)),
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
                        self.ctx.symbols.full_name(*sym)
                    ));
                };
                self.emit(Insn::Load(s));
            }
            TreeKind::This { .. } => {
                self.emit(Insn::Load(0));
            }
            TreeKind::Select { qual, name, sym } => {
                // Field read.
                let length = *name == std_names::length();
                if length && matches!(qual.tpe(), Type::Array(_)) {
                    self.expr(qual)?;
                    self.emit(Insn::ALen);
                    return Ok(());
                }
                if length && *qual.tpe() == Type::Str {
                    self.expr(qual)?;
                    self.emit(Insn::SLen);
                    return Ok(());
                }
                // Whether the symbol is a field at all is decided at link.
                if !sym.exists() {
                    return err(format!("naked method selection `{name}` reached backend"));
                }
                let field = self.field(*sym, *name)?;
                self.expr(qual)?;
                self.emit(Insn::GetField(field));
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
                    let field = self.field(*sym, *name)?;
                    self.expr(qual)?;
                    self.expr(rhs)?;
                    self.emit(Insn::PutField(field));
                    self.emit(Insn::ConstUnit);
                }
                other => return err(format!("bad assignment target {:?}", other.node_kind())),
            },
            TreeKind::Labeled { label, body } => {
                let ctx = self.ctx;
                let param_slots: Vec<u16> = ctx
                    .symbols
                    .sym(*label)
                    .decls()
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
                let cid = self.imports.classes.get(cls_sym);
                self.emit(Insn::New(cid));
                self.emit(Insn::Dup);
                for a in args {
                    self.expr(a)?;
                }
                let slot = self.imports.methods.get(std_names::init());
                self.emit(Insn::CallDirect(cid, slot, args.len() as u16 + 1));
                self.emit(Insn::Pop); // drop the unit returned by <init>
                Ok(())
            }
            TreeKind::Select { qual, name, sym } => {
                self.intrinsic_or_call(node, qual, *name, *sym, args)
            }
            TreeKind::Ident { sym } => {
                // Static call (top-level def) or builtin println.
                if *sym == self.ctx.symbols.builtins().println_fn {
                    if args.len() != 1 {
                        return err("println takes one argument");
                    }
                    self.expr(&args[0])?;
                    self.emit(Insn::Println);
                    return Ok(());
                }
                let fid = self.imports.functions.get(*sym);
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
        use std_names as n;
        // Array intrinsics.
        if matches!(qual.tpe(), Type::Array(_)) {
            let op = match args.len() {
                1 if name == n::apply() => Some((Insn::ALoad, args)),
                2 if name == n::update() => Some((Insn::AStore, args)),
                _ if name == n::length() => Some((Insn::ALen, &args[..0])),
                _ => None,
            };
            if let Some((op, args)) = op {
                self.expr(qual)?;
                for a in args {
                    self.expr(a)?;
                }
                self.emit(op);
                return Ok(());
            }
        }
        // Primitive / universal operators (no resolved symbol).
        if !sym.exists() {
            match args {
                [rhs] if name == n::amp_amp() => {
                    self.expr(qual)?;
                    let jf = self.emit(Insn::JumpIfFalse(0));
                    self.expr(rhs)?;
                    let je = self.emit(Insn::Jump(0));
                    let lf = self.pc();
                    self.patch(jf, lf);
                    self.emit(Insn::ConstBool(false));
                    let end = self.pc();
                    self.patch(je, end);
                    return Ok(());
                }
                [rhs] if name == n::bar_bar() => {
                    self.expr(qual)?;
                    let jt = self.emit(Insn::JumpIfTrue(0));
                    self.expr(rhs)?;
                    let je = self.emit(Insn::Jump(0));
                    let lt = self.pc();
                    self.patch(jt, lt);
                    self.emit(Insn::ConstBool(true));
                    let end = self.pc();
                    self.patch(je, end);
                    return Ok(());
                }
                [] if name == n::bang() || name == n::minus() => {
                    self.expr(qual)?;
                    self.emit(if name == n::bang() {
                        Insn::Not
                    } else {
                        Insn::Neg
                    });
                    return Ok(());
                }
                [rhs] => {
                    let ops = if name == n::plus() && *node.tpe() == Type::Str {
                        [Some(Insn::Concat), None]
                    } else if name == n::neq() {
                        [Some(Insn::CmpEq), Some(Insn::Not)]
                    } else {
                        [binary_op(name), None]
                    };
                    if ops[0].is_some() {
                        self.expr(qual)?;
                        self.expr(rhs)?;
                        for op in ops.into_iter().flatten() {
                            self.emit(op);
                        }
                        return Ok(());
                    }
                }
                _ => {}
            }
            // A by-name virtual call (e.g. trait-init calls emitted before
            // the init symbol exists): dispatch dynamically.
            self.expr(qual)?;
            for a in args {
                self.expr(a)?;
            }
            let slot = self.imports.methods.get(name);
            self.emit(Insn::CallVirtual(slot, args.len() as u16 + 1));
            return Ok(());
        }
        // Universal members of Any.
        let b = self.ctx.symbols.builtins();
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
            let owner = self.ctx.symbols.sym(sym).owner;
            let cid = self.imports.classes.get(owner);
            self.emit(Insn::Load(0));
            for a in args {
                self.expr(a)?;
            }
            let slot = self.imports.methods.get(name);
            self.emit(Insn::CallDirect(cid, slot, args.len() as u16 + 1));
            return Ok(());
        }
        // Plain virtual call.
        self.expr(qual)?;
        for a in args {
            self.expr(a)?;
        }
        let slot = self.imports.methods.get(name);
        self.emit(Insn::CallVirtual(slot, args.len() as u16 + 1));
        Ok(())
    }
}

/// The instruction of a primitive binary operator on ints (`==` included).
fn binary_op(name: Name) -> Option<Insn> {
    use std_names as n;
    [
        (n::plus(), Insn::Add),
        (n::minus(), Insn::Sub),
        (n::times(), Insn::Mul),
        (n::div(), Insn::Div),
        (n::modulo(), Insn::Mod),
        (n::lt(), Insn::CmpLt),
        (n::gt(), Insn::CmpGt),
        (n::le(), Insn::CmpLe),
        (n::ge(), Insn::CmpGe),
        (n::eq_eq(), Insn::CmpEq),
    ]
    .into_iter()
    .find_map(|(k, op)| (k == name).then_some(op))
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
