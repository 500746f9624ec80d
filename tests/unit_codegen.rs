//! Per-unit codegen with a link step, under incremental edits.
//!
//! A [`CompileSession`] caches each unit's relocatable bytecode with the
//! unit's artifact and only links on a warm compile, so a unit that is
//! reused keeps code compiled before its dependencies changed. Here a
//! reused unit extends a trait and calls a method of a class that a
//! body-only edit changes: the edit adds lambdas (new closure classes,
//! functions and fields in the edited unit, which shifts every class,
//! function and field id after it). After the relink, the program must
//! equal a from-scratch compile instruction for instruction, and print
//! the expected values.
//!
//! A link also reuses what the previous link relocated from a unit's
//! cached code, while the unit's imports resolve to the same ids and its
//! function ids stay put. The later tests pin which units a link
//! relocates (`CacheStats::units_relocated`): exactly the recompiled ones
//! over the benchmark's edit script, every unit whose function ids shift,
//! and a reused unit whose selectors are renumbered.

use miniphases::mini_backend::{Program, Vm};
use miniphases::mini_driver::{compile_sources, CompileSession, CompilerOptions};
use std::collections::BTreeMap;
use workload::EditKind;

const LIB: &str = "trait Shape {
  val base: Int = 2
  def area(): Int
  def describe(): Int = area() + base
}
class Counter(start: Int) {
  var n: Int = start
  def bump(k: Int): Int = {
    n = n + k
    n
  }
}
";

/// `LIB` with the same signatures: `describe` and `bump` now build and
/// call closures, one capturing a local `var`.
const LIB_EDITED: &str = "trait Shape {
  val base: Int = 2
  def area(): Int
  def describe(): Int = {
    var extra: Int = base
    val add: (Int) => Int = (x: Int) => x + extra + area()
    extra = extra + 1
    add(1)
  }
}
class Counter(start: Int) {
  var n: Int = start
  def bump(k: Int): Int = {
    val twice: (Int) => Int = (x: Int) => x + x + n
    n = twice(k)
    n
  }
}
";

const USER: &str = "class Square(side: Int) extends Shape {
  def area(): Int = side * side
}
def tally(start: Int): Int = {
  val c: Counter = new Counter(start)
  c.bump(2) + c.bump(3)
}
";

const MAIN: &str = "def main(): Unit = {
  val s: Shape = new Square(3)
  println(s.describe())
  println(tally(4))
}
";

fn sources(lib: &'static str) -> Vec<(&'static str, &'static str)> {
    vec![("a.ms", lib), ("b.ms", USER), ("z.ms", MAIN)]
}

fn run(program: &Program) -> Vec<String> {
    let mut vm = Vm::new(program);
    vm.run_main().expect("program runs");
    vm.out.clone()
}

fn scratch(lib: &'static str, opts: &CompilerOptions) -> Program {
    compile_sources(&sources(lib), opts)
        .expect("compiles from scratch")
        .program
}

#[test]
fn body_edit_relinks_reused_units_to_a_from_scratch_program() {
    for opts in [
        CompilerOptions::fused(),
        CompilerOptions::mega(),
        CompilerOptions::fused().with_lint(true).with_jobs(2),
    ] {
        let mut session = CompileSession::new(opts);
        for (name, src) in sources(LIB) {
            session.update(name, src);
        }
        let cold = session.compile().expect("cold compile");
        assert_eq!(
            cold.program.canonical_dump(),
            scratch(LIB, &opts).canonical_dump()
        );
        // describe = 9 + 2; tally = (4 + 2) + (6 + 3).
        assert_eq!(run(&cold.program), ["11", "15"]);

        session.update("a.ms", LIB_EDITED);
        let warm = session.compile().expect("warm compile");
        assert_eq!(
            warm.recompiled_units, 1,
            "a body-only edit does not cascade"
        );
        assert_eq!(warm.reused_units, 2);
        assert!(
            warm.program.classes.len() > cold.program.classes.len()
                && warm.program.functions.len() > cold.program.functions.len(),
            "the edit adds closure classes and functions"
        );
        let fields = |p: &Program| p.classes.iter().map(|c| c.n_fields).sum::<u16>();
        assert!(
            fields(&warm.program) > fields(&cold.program),
            "the edit adds fields"
        );
        assert_eq!(
            warm.program.canonical_dump(),
            scratch(LIB_EDITED, &opts).canonical_dump(),
            "relinked session program != from-scratch program"
        );
        // describe = 1 + 3 + 9; tally: n = 2+2+4 = 8, then 3+3+8 = 14.
        assert_eq!(run(&warm.program), ["13", "22"]);

        // Edit back: the reused units link against the original code.
        session.update("a.ms", LIB);
        let back = session.compile().expect("revert compile");
        assert_eq!(back.recompiled_units, 1);
        assert_eq!(back.program.canonical_dump(), cold.program.canonical_dump());
    }
}

/// The linked corpus of the session benchmark, its sources by name.
fn linked_corpus() -> (workload::LinkedConfig, BTreeMap<String, String>) {
    let cfg = workload::LinkedConfig::incr_bench();
    let sources = workload::generate_linked(&cfg).units.into_iter().collect();
    (cfg, sources)
}

fn scratch_dump(sources: &BTreeMap<String, String>, opts: &CompilerOptions) -> String {
    let sources: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    compile_sources(&sources, opts)
        .expect("compiles from scratch")
        .program
        .canonical_dump()
}

/// Compiles the session and checks its program against a from-scratch
/// compile of `sources`. Returns the compile's recompiled and relocated
/// unit counts.
fn compile_checked(
    session: &mut CompileSession,
    sources: &BTreeMap<String, String>,
) -> (usize, u64) {
    let before = session.cache_stats().units_relocated;
    let compiled = session.compile().expect("session compiles");
    assert_eq!(
        compiled.program.canonical_dump(),
        scratch_dump(sources, session.options()),
        "session program != from-scratch program"
    );
    let relocated = session.cache_stats().units_relocated - before;
    (compiled.recompiled_units, relocated)
}

fn session_over(sources: &BTreeMap<String, String>, opts: CompilerOptions) -> CompileSession {
    let mut session = CompileSession::new(opts);
    for (n, s) in sources {
        session.update(n.clone(), s.clone());
    }
    session
}

#[test]
fn linked_edit_script_relocates_exactly_the_recompiled_units() {
    // Body and signature edits keep every unit's function count, so no
    // unit's function ids or resolved imports move: a link relocates the
    // recompiled units and places every other unit's code as it is, even
    // though each recompiled unit's closure class and `apply` method get
    // fresh symbols.
    let (cfg, mut sources) = linked_corpus();
    let opts = CompilerOptions::fused().with_lint(true);
    let mut session = session_over(&sources, opts);
    let (recompiled, relocated) = compile_checked(&mut session, &sources);
    assert_eq!(
        (recompiled, relocated),
        (sources.len(), sources.len() as u64)
    );
    let script = workload::edit_series(&cfg, 24, 5);
    for kind in [EditKind::Body, EditKind::Signature] {
        assert!(script.edits.iter().any(|e| e.kind == kind), "{kind:?}");
    }
    for edit in &script.edits {
        sources.insert(edit.unit.clone(), edit.source.clone());
        session.update(edit.unit.clone(), edit.source.clone());
        let (recompiled, relocated) = compile_checked(&mut session, &sources);
        assert_eq!(
            relocated, recompiled as u64,
            "a {:?} edit of {} relocated {relocated} unit(s), recompiled {recompiled}",
            edit.kind, edit.unit
        );
    }
}

#[test]
fn a_new_top_level_function_relocates_every_unit_whose_ids_shift() {
    // Function ids run over every unit's top-level functions, then every
    // unit's methods. A top-level function added to unit 1 shifts the
    // later units' top-level functions and every unit's methods, and every
    // linked unit has methods (its class and its closure class), so every
    // unit relocates, also those that do not depend on unit 1.
    let (cfg, mut sources) = linked_corpus();
    let mut session = session_over(&sources, CompilerOptions::fused());
    compile_checked(&mut session, &sources);
    let unit = workload::linked_unit_name(1);
    let grown = format!(
        "{}def U1extra(n: Int): Int = n + 1\n",
        workload::linked_unit_source(&cfg, 1, 0, 0)
    );
    sources.insert(unit.clone(), grown.clone());
    session.update(unit, grown);
    let (recompiled, relocated) = compile_checked(&mut session, &sources);
    assert!(recompiled < sources.len(), "some units are reused");
    assert_eq!(relocated, sources.len() as u64);
}

/// `LIB` with a box class, and a user whose top-level function is the
/// first to call its methods.
const BOX_LIB: &str = "class Box(v: Int) {
  def get(): Int = v
  def twice(): Int = v + v
}
def one(): Int = 1
";

/// A body-only edit of `one`: it now calls `twice`, before any other
/// unit does.
const BOX_LIB_EDITED: &str = "class Box(v: Int) {
  def get(): Int = v
  def twice(): Int = v + v
}
def one(): Int = new Box(1).twice() - 1
";

const BOX_USER: &str = "def useBox(): Int = {
  val b: Box = new Box(3)
  b.get() * 10 + b.twice()
}
";

const BOX_MAIN: &str = "def main(): Unit = {
  println(one())
  println(useBox())
}
";

#[test]
fn a_reused_unit_whose_imports_resolve_differently_relocates() {
    // Method slots are numbered in whole-program first-use order, top-level
    // functions first. The edit makes `a.ms` use `twice` first, which
    // swaps the slots of `get` and `twice`. `b.ms` is reused (the edit is
    // body-only) and keeps its function ids, but its selectors now resolve
    // to other slots, so it must be relocated. `z.ms` selects no method
    // and is placed as it was.
    let sources = |lib: &str| -> BTreeMap<String, String> {
        [("a.ms", lib), ("b.ms", BOX_USER), ("z.ms", BOX_MAIN)]
            .into_iter()
            .map(|(n, s)| (n.to_owned(), s.to_owned()))
            .collect()
    };
    for opts in [CompilerOptions::fused(), CompilerOptions::mega()] {
        let mut session = session_over(&sources(BOX_LIB), opts);
        compile_checked(&mut session, &sources(BOX_LIB));
        session.update("a.ms", BOX_LIB_EDITED);
        let (recompiled, relocated) = compile_checked(&mut session, &sources(BOX_LIB_EDITED));
        assert_eq!((recompiled, relocated), (1, 2));
        let program = session.compile().expect("idle compile").program;
        assert_eq!(run(&program), ["1", "36"]);
        assert_eq!(session.cache_stats().units_relocated, 5, "3 cold + 2");
    }
}
