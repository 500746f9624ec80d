//! Fast-VM ≡ reference-VM equivalence.
//!
//! The fast interpreter (slot-resolved dispatch, inline caches,
//! superinstructions, flat frames) must be invisible at every observable
//! surface: the returned value, the captured `println` stream
//! (byte-identical), and trap/exception behavior including fuel exhaustion
//! positions. Its instruction accounting must also be conserved: every
//! logical instruction the reference retires is either a fast dispatch or
//! the second half of a fused pair. These tests pin that across compiled
//! corpora, plus the guest-recursion depth ceiling.

use miniphases::mini_backend::{Program, Vm, VmOptions, VmStats};
use miniphases::mini_driver::{compile_sources, CompilerOptions};
use miniphases::workload;
use proptest::prelude::*;

/// Runs `f` on a thread with a large stack: the *reference* interpreter
/// recurses on the host stack (one `invoke` frame per guest frame, big in
/// debug builds), so equivalence sweeps that drive it near the default
/// depth budget need more headroom than a 2 MiB test thread offers. The
/// fast interpreter's flat frames don't care.
fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("test body")
}

/// Runs `program` under `opts` with the given fuel; renders the outcome
/// (value or error) to a comparable string alongside the output stream.
fn run(program: &Program, opts: VmOptions, fuel: u64) -> (String, Vec<String>, VmStats) {
    let mut vm = Vm::with_options(program, opts);
    vm.fuel = fuel;
    let outcome = match vm.run_main() {
        Ok(v) => format!("ok: {v:?}"),
        Err(e) => format!("err: {e:?}"),
    };
    (outcome, vm.out, vm.stats)
}

/// Runs `program` in both modes with the given fuel and asserts they agree
/// on outcome, output, call depth and instruction accounting.
fn assert_equivalent(program: &Program, fuel: u64, what: &str) {
    let (ref_outcome, ref_out, ref_stats) = run(program, VmOptions::reference(), fuel);
    let (outcome, out, stats) = run(program, VmOptions::fast(), fuel);
    assert_eq!(outcome, ref_outcome, "{what}: outcome diverged");
    assert_eq!(out, ref_out, "{what}: output diverged");
    assert_eq!(
        stats.insns_retired + stats.fused_retired,
        ref_stats.insns_retired,
        "{what}: fast dispatches + fused halves != reference instructions"
    );
    assert_eq!(
        ref_stats.fused_retired + ref_stats.ic_hits + ref_stats.ic_misses,
        0,
        "{what}: reference ran fast-only machinery: {ref_stats:?}"
    );
    assert_eq!(
        stats.peak_frames, ref_stats.peak_frames,
        "{what}: peak frames diverged"
    );
}

fn compile(units: &workload::Workload) -> Program {
    compile_sources(&units.sources(), &CompilerOptions::fused())
        .expect("corpus compiles")
        .program
}

#[test]
fn generated_corpus_runs_identically_under_all_ablations() {
    on_big_stack(|| {
        let w = workload::generate(&workload::WorkloadConfig {
            target_loc: 1_500,
            seed: 23,
            unit_loc: 250,
        });
        assert_equivalent(&compile(&w), u64::MAX, "generated");
    });
}

#[test]
fn linked_corpus_runs_identically_under_all_ablations() {
    on_big_stack(|| {
        let cfg = workload::LinkedConfig { units: 8, seed: 42 };
        let program = compile(&workload::generate_linked(&cfg));
        assert_equivalent(&program, u64::MAX, "linked");
    });
}

#[test]
fn exec_corpus_runs_identically_and_exercises_the_fast_paths() {
    on_big_stack(|| {
        let cfg = workload::ExecConfig::small();
        let program = compile(&workload::generate_exec(&cfg));
        assert_equivalent(&program, u64::MAX, "exec");
        // The corpus must actually light up each optimization.
        let (_, _, stats) = run(&program, VmOptions::fast(), u64::MAX);
        assert!(stats.fused_retired > 0, "superinstructions idle: {stats:?}");
        assert!(stats.ic_hits > 0, "inline caches idle: {stats:?}");
        assert!(stats.peak_frames > 100, "deep recursion missing: {stats:?}");
        assert!(stats.ic_hit_rate() > 0.5, "mostly-miss caches: {stats:?}");
    });
}

#[test]
fn fuel_exhaustion_traps_at_identical_positions() {
    // Out-of-fuel must fire after the same logical instruction in both
    // modes — superinstructions charge per constituent — so the captured
    // output up to the trap is byte-identical.
    on_big_stack(|| {
        let cfg = workload::ExecConfig::small();
        let program = compile(&workload::generate_exec(&cfg));
        for fuel in [1_000u64, 10_000, 60_000] {
            let (ref_outcome, _, _) = run(&program, VmOptions::reference(), fuel);
            assert!(ref_outcome.contains("fuel"), "fuel too high: {ref_outcome}");
            assert_equivalent(&program, fuel, &format!("fuel {fuel}"));
        }
    });
}

#[test]
fn guest_recursion_hits_the_depth_ceiling_not_the_host_stack() {
    // Recursion ~4000 deep: far past DEFAULT_MAX_FRAMES, far short of what
    // the big-stack host thread could take recursively. Both modes must
    // surface the same structured trap.
    on_big_stack(|| {
        let src = "def f(n: Int): Int = if (n <= 0) 0 else f(n - 1) + 1\n\
                   def main(): Unit = println(f(4000))\n";
        let program = compile_sources(&[("deep.ms", src)], &CompilerOptions::fused())
            .expect("compiles")
            .program;
        let (ref_outcome, _, _) = run(&program, VmOptions::reference(), u64::MAX);
        assert!(
            ref_outcome.contains("max call depth"),
            "expected depth trap, got {ref_outcome}"
        );
        assert_equivalent(&program, u64::MAX, "depth trap");
        // A raised budget lets the same program finish in either mode.
        for base in [VmOptions::fast(), VmOptions::reference()] {
            let roomy = VmOptions {
                max_frames: 8_192,
                ..base
            };
            let (outcome, out, _) = run(&program, roomy, u64::MAX);
            assert!(outcome.starts_with("ok"), "{outcome}");
            assert_eq!(out, vec!["4000"]);
        }
    });
}

#[test]
fn explicit_small_budget_traps_identically_in_both_modes() {
    let src = "def f(n: Int): Int = if (n <= 0) 0 else f(n - 1) + 1\n\
               def main(): Unit = println(f(100))\n";
    let program = compile_sources(&[("deep.ms", src)], &CompilerOptions::fused())
        .expect("compiles")
        .program;
    let mut outcomes = Vec::new();
    for base in [VmOptions::fast(), VmOptions::reference()] {
        let opts = VmOptions {
            max_frames: 16,
            ..base
        };
        let (outcome, _, _) = run(&program, opts, u64::MAX);
        assert!(
            outcome.contains("max call depth 16"),
            "expected depth trap, got {outcome}"
        );
        outcomes.push(outcome);
    }
    assert_eq!(outcomes[0], outcomes[1]);
}

#[test]
fn negating_the_minimum_int_wraps_in_both_modes() {
    // -(i64::MIN) overflows; the VM wraps it like every other arithmetic
    // arm, so a debug build prints what a release build prints.
    let src = "def main(): Unit = {\n\
               val m: Int = 0 - 9223372036854775807 - 1\n\
               println(-m)\n\
               }\n";
    let program = compile_sources(&[("neg.ms", src)], &CompilerOptions::fused())
        .expect("compiles")
        .program;
    assert_equivalent(&program, u64::MAX, "neg");
    let (outcome, out, _) = run(&program, VmOptions::fast(), u64::MAX);
    assert!(outcome.starts_with("ok"), "{outcome}");
    assert_eq!(out, vec!["-9223372036854775808".to_string()]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: for any small exec corpus (seed, size, trip count) and any
    /// fuel budget, the fast interpreter is observably identical to the
    /// reference interpreter and conserves its instruction accounting.
    #[test]
    fn vm_fast_reference_equivalence(
        seed in 0u64..1_000,
        units in 1usize..3,
        iters in 20usize..160,
        tight_fuel in 0u8..2,
    ) {
        let cfg = workload::ExecConfig { units, seed, iters };
        let fuel = if tight_fuel == 1 { 5_000 } else { u64::MAX };
        on_big_stack(move || {
            let program = compile(&workload::generate_exec(&cfg));
            assert_equivalent(&program, fuel, "proptest");
        });
    }
}
