//! End-to-end tests: MiniScala source → full pipeline → VM execution, in all
//! three pipeline modes. Every feature here exercises at least one concrete
//! Miniphase.

use mini_driver::{compile_and_run, CompilerOptions};

fn run_all_modes(src: &str) -> Vec<String> {
    let mut reference: Option<Vec<String>> = None;
    for opts in [
        CompilerOptions::fused(),
        CompilerOptions::mega(),
        CompilerOptions::legacy(),
    ] {
        let (_, out) = match compile_and_run(src, &opts) {
            Ok(r) => r,
            Err(e) => panic!("mode {:?} failed:\n{e}\nsource:\n{src}", opts.mode),
        };
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(&out, r, "mode {:?} disagrees with fused output", opts.mode),
        }
    }
    reference.expect("at least one mode ran")
}

fn run(src: &str) -> Vec<String> {
    let (_, out) = compile_and_run(src, &CompilerOptions::fused())
        .unwrap_or_else(|e| panic!("compile failed:\n{e}\nsource:\n{src}"));
    out
}

#[test]
fn hello_world() {
    assert_eq!(
        run_all_modes(r#"def main(): Unit = println("hello")"#),
        ["hello"]
    );
}

#[test]
fn arithmetic_and_control_flow() {
    let out = run_all_modes(
        r#"
def main(): Unit = {
  var i: Int = 0
  var acc: Int = 0
  while (i < 10) {
    if (i % 2 == 0) acc = acc + i
    i = i + 1
  }
  println(acc)
  println(if (acc > 10) "big" else "small")
}
"#,
    );
    assert_eq!(out, ["20", "big"]);
}

#[test]
fn classes_fields_and_methods() {
    let out = run_all_modes(
        r#"
class Counter(start: Int) {
  var count: Int = start
  def inc(): Unit = count = count + 1
  def get(): Int = count
}
def main(): Unit = {
  val c: Counter = new Counter(40)
  c.inc()
  c.inc()
  println(c.get())
}
"#,
    );
    assert_eq!(out, ["42"]);
}

#[test]
fn getters_and_public_vals() {
    let out = run_all_modes(
        r#"
class Point(px: Int, py: Int) {
  val x: Int = px
  val y: Int = py
  def sum(): Int = x + y
}
def main(): Unit = {
  val p: Point = new Point(3, 4)
  println(p.x)
  println(p.sum())
}
"#,
    );
    assert_eq!(out, ["3", "7"]);
}

#[test]
fn inheritance_and_virtual_dispatch() {
    let out = run_all_modes(
        r#"
class Animal {
  def sound(): String = "..."
  def speak(): String = "I say " + sound()
}
class Dog extends Animal {
  override def sound(): String = "woof"
}
def main(): Unit = {
  val a: Animal = new Dog()
  println(a.speak())
}
"#,
    );
    assert_eq!(out, ["I say woof"]);
}

#[test]
fn traits_and_mixin_initialization() {
    let out = run_all_modes(
        r#"
trait Greeter {
  val greeting: String = "hi"
  def greet(): String = greeting
}
trait Counter2 {
  var n: Int = 100
  def bump(): Unit = n = n + 1
}
class Both extends Greeter with Counter2
def main(): Unit = {
  val b: Both = new Both()
  b.bump()
  println(b.greet())
  println(b.n)
}
"#,
    );
    assert_eq!(out, ["hi", "101"]);
}

#[test]
fn the_papers_listing_1_runs() {
    let out = run_all_modes(
        r#"
trait Interface {
  def interfaceMethod: Int = 1
  lazy val interfaceField: Int = 2
}

class Increment(by: Int) extends Interface {
  def incOrZero(b: Any): Int = b match {
    case b: Int => b + by
    case _ => 0
  }
}

def main(): Unit = {
  val inc: Increment = new Increment(5)
  println(inc.incOrZero(10))
  println(inc.incOrZero("not an int"))
  println(inc.interfaceMethod)
  println(inc.interfaceField)
}
"#,
    );
    assert_eq!(out, ["15", "0", "1", "2"]);
}

#[test]
fn pattern_matching_guards_binders_alternatives() {
    let out = run_all_modes(
        r#"
def classify(x: Any): String = x match {
  case 0 | 1 | 2 => "small"
  case n: Int if n < 0 => "negative"
  case n: Int => "big:" + n
  case s: String => "str:" + s
  case b: Boolean => "bool"
  case _ => "other"
}
def main(): Unit = {
  println(classify(1))
  println(classify(0 - 7))
  println(classify(100))
  println(classify("abc"))
  println(classify(true))
  println(classify(()))
}
"#,
    );
    assert_eq!(
        out,
        ["small", "negative", "big:100", "str:abc", "bool", "other"]
    );
}

#[test]
fn lazy_vals_evaluate_once() {
    let out = run_all_modes(
        r#"
class Holder {
  lazy val expensive: Int = {
    println("computing")
    42
  }
}
def main(): Unit = {
  val h: Holder = new Holder()
  println("before")
  println(h.expensive)
  println(h.expensive)
}
"#,
    );
    assert_eq!(out, ["before", "computing", "42", "42"]);
}

#[test]
fn local_lazy_vals() {
    let out = run_all_modes(
        r#"
def main(): Unit = {
  lazy val x: Int = {
    println("init")
    7
  }
  println("start")
  println(x + x)
}
"#,
    );
    assert_eq!(out, ["start", "init", "14"]);
}

#[test]
fn tail_recursion_runs_deep() {
    let out = run_all_modes(
        r#"
def sum(n: Int, acc: Int): Int = if (n == 0) acc else sum(n - 1, acc + n)
def main(): Unit = println(sum(100000, 0))
"#,
    );
    assert_eq!(out, ["5000050000"]);
}

#[test]
fn varargs_and_arrays() {
    let out = run_all_modes(
        r#"
def total(xs: Int*): Int = {
  var i: Int = 0
  var acc: Int = 0
  while (i < xs.length) {
    acc = acc + xs(i)
    i = i + 1
  }
  acc
}
def main(): Unit = {
  println(total(1, 2, 3, 4))
  println(total())
  val a: Array[Int] = new Array[Int](2)
  a(0) = 10
  a(1) = 32
  println(a(0) + a(1))
}
"#,
    );
    assert_eq!(out, ["10", "0", "42"]);
}

#[test]
fn by_name_parameters_defer_evaluation() {
    let out = run_all_modes(
        r#"
def unless(cond: Boolean, body: => Int): Int = if (cond) 0 else body
def main(): Unit = {
  println(unless(true, { println("evaluated"); 1 }))
  println(unless(false, { println("evaluated"); 2 }))
}
"#,
    );
    assert_eq!(out, ["0", "evaluated", "2"]);
}

#[test]
fn closures_capture_values_and_vars() {
    let out = run_all_modes(
        r#"
def main(): Unit = {
  val base: Int = 10
  var acc: Int = 0
  val add: (Int) => Int = (k: Int) => base + k
  val bump: (Int) => Int = (k: Int) => {
    acc = acc + k
    acc
  }
  println(add(5))
  println(bump(1))
  println(bump(2))
  println(acc)
}
"#,
    );
    assert_eq!(out, ["15", "1", "3", "3"]);
}

#[test]
fn nested_defs_are_lifted() {
    let out = run_all_modes(
        r#"
def outer(n: Int): Int = {
  var acc: Int = 0
  def add(k: Int): Unit = acc = acc + k
  def twice(k: Int): Unit = {
    add(k)
    add(k)
  }
  twice(n)
  acc
}
def main(): Unit = println(outer(21))
"#,
    );
    assert_eq!(out, ["42"]);
}

#[test]
fn try_catch_finally_and_lift_try() {
    let out = run_all_modes(
        r#"
def risky(n: Int): Int = {
  // try used as a sub-expression: LiftTry must hoist it.
  val r: Int = 1 + (try {
    if (n < 0) throw "neg"
    n
  } catch {
    case s: String => 0 - 1
  })
  r
}
def main(): Unit = {
  println(risky(10))
  println(risky(0 - 5))
  val f: Int = try 1 finally println("fin")
  println(f)
}
"#,
    );
    assert_eq!(out, ["11", "0", "fin", "1"]);
}

#[test]
fn generics_erase_and_run() {
    let out = run_all_modes(
        r#"
class Box[T](v: T) {
  def get(): T = v
}
def pick[T](c: Boolean, a: T, b: T): T = if (c) a else b
def main(): Unit = {
  val bi: Box[Int] = new Box[Int](41)
  val bs: Box[String] = new Box[String]("s")
  println(bi.get() + 1)
  println(bs.get())
  println(pick(true, 1, 2))
  println(pick[String](false, "x", "y"))
}
"#,
    );
    assert_eq!(out, ["42", "s", "1", "y"]);
}

#[test]
fn equality_and_intercepted_methods() {
    let out = run_all_modes(
        r#"
def main(): Unit = {
  println("a" == "a")
  println("a" != "b")
  println(1 == 1)
  println(1 == 2)
  println(1.getClass())
  println("x".getClass())
}
"#,
    );
    assert_eq!(out, ["true", "true", "true", "false", "Int", "String"]);
}

#[test]
fn string_concatenation() {
    let out = run_all_modes(
        r#"
def main(): Unit = {
  println("n=" + 42)
  println(1 + 2 + "!")
  println("" + true + ())
}
"#,
    );
    assert_eq!(out, ["n=42", "3!", "true()"]);
}

#[test]
fn higher_order_functions() {
    let out = run_all_modes(
        r#"
def applyTwice(f: (Int) => Int, x: Int): Int = f(f(x))
def main(): Unit = {
  println(applyTwice((n: Int) => n * 3, 2))
  val compose: (Int) => Int = (n: Int) => n + 1
  println(applyTwice(compose, 0))
}
"#,
    );
    assert_eq!(out, ["18", "2"]);
}

#[test]
fn super_calls() {
    let out = run_all_modes(
        r#"
class Base {
  def describe(): String = "base"
}
class Derived extends Base {
  override def describe(): String = super.describe() + "+derived"
}
def main(): Unit = println(new Derived().describe())
"#,
    );
    assert_eq!(out, ["base+derived"]);
}

#[test]
fn match_on_result_of_match() {
    let out = run(r#"
def f(x: Int): Int = x match {
  case 0 => 10
  case n => n * 2
}
def main(): Unit = {
  val r: Int = f(0) match {
    case 10 => 1
    case _ => 0
  }
  println(r)
}
"#);
    assert_eq!(out, ["1"]);
}

#[test]
fn fused_and_mega_produce_identical_programs() {
    let src = r#"
trait T { val base: Int = 2 }
class C extends T {
  def m(x: Int): Int = x match {
    case 0 => base
    case n => n + base
  }
}
def main(): Unit = {
  val c: C = new C()
  println(c.m(0))
  println(c.m(40))
}
"#;
    let fused = mini_driver::compile(src, &CompilerOptions::fused()).expect("fused");
    let mega = mini_driver::compile(src, &CompilerOptions::mega()).expect("mega");
    assert_eq!(fused.groups, 6);
    assert_eq!(mega.groups, 22);
    assert!(
        mega.exec.node_visits > fused.exec.node_visits * 3,
        "mega visits {} vs fused {}",
        mega.exec.node_visits,
        fused.exec.node_visits
    );
    // And they execute identically.
    let run = |c: &mini_driver::Compiled| {
        let mut vm = mini_backend::Vm::new(&c.program);
        vm.run_main().expect("runs");
        vm.out
    };
    assert_eq!(run(&fused), run(&mega));
    assert_eq!(run(&fused), vec!["2", "42"]);
}

#[test]
fn checker_passes_on_clean_program() {
    let src = r#"
class C(x: Int) {
  val doubled: Int = x * 2
  def m(v: Any): Int = v match {
    case i: Int => i + doubled
    case _ => doubled
  }
}
def main(): Unit = println(new C(5).m(1))
"#;
    let mut opts = CompilerOptions::fused();
    opts.check = true;
    let compiled = mini_driver::compile(src, &opts)
        .unwrap_or_else(|e| panic!("checker flagged a clean program:\n{e}"));
    assert!(compiled.check_failures.is_empty());
    let mut opts = CompilerOptions::mega();
    opts.check = true;
    mini_driver::compile(src, &opts).expect("mega checker clean");
}

#[test]
fn legacy_mode_allocates_more() {
    let src = r#"
class A { def m(x: Int): Int = x + 1 }
def main(): Unit = println(new A().m(1))
"#;
    let fused = mini_driver::compile(src, &CompilerOptions::fused()).expect("fused");
    let legacy = mini_driver::compile(src, &CompilerOptions::legacy()).expect("legacy");
    assert!(
        legacy.ctx.stats.nodes > fused.ctx.stats.nodes,
        "legacy {} vs fused {}",
        legacy.ctx.stats.nodes,
        fused.ctx.stats.nodes
    );
}

#[test]
fn runtime_exceptions_propagate() {
    let src = r#"def main(): Unit = println(1 / 0)"#;
    let err = compile_and_run(src, &CompilerOptions::fused()).unwrap_err();
    assert!(err.to_string().contains("Arithmetic"), "{err}");
}

/// Parallel compilation end to end: a multi-unit batch compiled with
/// `jobs = 4` must produce a runnable program with the same VM output as
/// the sequential pipeline — this exercises the whole hand-off chain
/// (per-worker tree arenas, worker symbol shards, the deterministic table
/// merge) all the way through codegen, which resolves classes, vtables and
/// field slots out of the *merged* symbol table.
#[test]
fn parallel_batch_runs_identically() {
    use mini_backend::Vm;
    use mini_driver::compile_sources;

    // Units that force transform-created symbols (closures → lifted anon
    // classes, captured vars → Ref cells) in *every* unit, so worker shards
    // are non-empty and codegen must resolve shard ids.
    let unit = |i: usize| {
        format!(
            "def work{i}(n: Int): Int = {{\n\
               var acc: Int = 0\n\
               val add = (d: Int) => {{ acc = acc + d; acc }}\n\
               var j: Int = 0\n\
               while (j < n) {{ add(j); j = j + 1 }}\n\
               acc + {i}\n\
             }}\n"
        )
    };
    let mut sources: Vec<(String, String)> =
        (0..6).map(|i| (format!("u{i}.ms"), unit(i))).collect();
    sources.push((
        "main.ms".to_owned(),
        "def main(): Unit = {\n  println(work0(4) + work1(4) + work2(4) + work3(4) + work4(4) + work5(4))\n}\n"
            .to_owned(),
    ));
    let borrowed: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();

    let run_with = |jobs: usize, check: bool| -> Vec<String> {
        let opts = CompilerOptions::fused().with_jobs(jobs).with_check(check);
        let compiled = compile_sources(&borrowed, &opts)
            .unwrap_or_else(|e| panic!("jobs={jobs} check={check} failed:\n{e}"));
        assert_eq!(
            compiled.effective_jobs,
            jobs.min(borrowed.len()),
            "driver must report the jobs actually used"
        );
        let mut vm = Vm::new(&compiled.program);
        vm.run_main().expect("runs");
        vm.out
    };
    let seq = run_with(1, false);
    let par = run_with(4, false);
    assert_eq!(seq, par, "VM output must not depend on jobs");
    // The dynamic checker no longer forces jobs=1; a checked parallel run
    // compiles, checks cleanly, and executes identically.
    let par_checked = run_with(4, true);
    assert_eq!(seq, par_checked, "VM output must not depend on check+jobs");
    assert!(!seq.is_empty());
}

/// `CompilerOptions { jobs: 0, .. }` built by struct literal bypasses the
/// `with_jobs` clamp; the driver must clamp at the use site
/// (`effective_jobs()`) instead of feeding 0 into the shard math.
#[test]
fn struct_literal_zero_jobs_runs_sequentially() {
    let opts = CompilerOptions {
        jobs: 0,
        ..CompilerOptions::fused()
    };
    assert_eq!(opts.effective_jobs(), 1);
    let compiled = mini_driver::compile("def main(): Unit = println(6 * 7)", &opts)
        .expect("jobs=0 compiles via the sequential path");
    assert_eq!(
        compiled.effective_jobs, 1,
        "downgrade is reported, not hidden"
    );
    let (_, out) = compile_and_run("def main(): Unit = println(6 * 7)", &opts).expect("runs");
    assert_eq!(out, vec!["42"]);
}
