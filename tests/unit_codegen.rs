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

use miniphases::mini_backend::{Program, Vm};
use miniphases::mini_driver::{compile_sources, CompileSession, CompilerOptions};

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
