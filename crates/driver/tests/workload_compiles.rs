//! The generated corpus must compile cleanly through every pipeline mode.
use mini_driver::{compile_sources, CompilerOptions};
use workload::{generate, WorkloadConfig};

#[test]
fn small_corpus_compiles_in_all_modes() {
    let w = generate(&WorkloadConfig::small());
    for opts in [
        CompilerOptions::fused(),
        CompilerOptions::mega(),
        CompilerOptions::legacy(),
    ] {
        let c = compile_sources(&w.sources(), &opts)
            .unwrap_or_else(|e| panic!("mode {:?} failed:\n{e}", opts.mode));
        assert!(c.program.entry.is_some());
    }
}

#[test]
fn small_corpus_passes_the_tree_checker() {
    let w = generate(&WorkloadConfig::small());
    let mut opts = CompilerOptions::fused();
    opts.check = true;
    compile_sources(&w.sources(), &opts).unwrap_or_else(|e| panic!("checker failures:\n{e}"));
}

#[test]
fn small_corpus_passes_the_tree_checker_in_parallel() {
    // `check = true` no longer downgrades to sequential execution: the
    // checker replays per unit and the run keeps its parallelism.
    let w = generate(&WorkloadConfig::small());
    let opts = CompilerOptions::fused().with_jobs(4).with_check(true);
    let c = compile_sources(&w.sources(), &opts)
        .unwrap_or_else(|e| panic!("parallel checker failures:\n{e}"));
    assert!(
        c.effective_jobs > 1,
        "checked run was silently downgraded to sequential"
    );
}
