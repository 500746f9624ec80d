//! Incremental ≡ from-scratch: the compile-session pin.
//!
//! Over generated *linked* corpora (units with cross-unit dependencies) and
//! seeded edit series, compiling incrementally through a
//! [`mini_driver::CompileSession`] must be **byte-identical** to a
//! from-scratch `compile_sources` over the same sources after every edit:
//! printed output trees, the linked program instruction for instruction
//! (the session links per-unit code cached across compiles; the one-shot
//! driver generates every unit afresh), VM output, merged `ExecStats` and
//! the checker verdict (success, or the identical `Err(Check)` finding
//! list — the comparison covers both arms, though the standard pipeline
//! produces no findings on well-typed corpora; finding *content* equality
//! under parallel splicing is pinned at the executor level by
//! `tests/parallel_determinism.rs`) all match, across fused/mega ×
//! jobs ∈ {1, 4} × subtree pruning × the dynamic checker. Scheduling,
//! caching and splicing may change wall clock and allocation layout —
//! never output.
//!
//! The cache-behaviour side is pinned too: a body-only edit recompiles
//! exactly one unit (no cascade), and the sum `reused + recompiled` always
//! covers the corpus.

use miniphases::mini_driver::{compile_sources, CompileSession, Compiled, CompilerOptions};
use miniphases::mini_ir::fingerprint::export_interface_hash;
use miniphases::mini_ir::{printer, Ctx};
use miniphases::miniphase::SubtreePruning;
use miniphases::{mini_backend, mini_front, workload};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Everything observable about one compiled program state: either the
/// compiled output (trees, VM output, counters) or the checker's finding
/// list — both arms compared between incremental and from-scratch.
#[derive(PartialEq, Debug)]
enum Observed {
    Ok {
        printed: Vec<String>,
        /// [`mini_backend::Program::canonical_dump`] of the linked program.
        program: String,
        vm_out: Vec<String>,
        exec: miniphases::miniphase::ExecStats,
    },
    CheckFindings(Vec<String>),
}

fn observe(result: Result<Compiled, miniphases::mini_driver::CompileError>) -> Observed {
    use miniphases::mini_driver::CompileError;
    let c = match result {
        Ok(c) => c,
        Err(CompileError::Check(findings)) => {
            return Observed::CheckFindings(findings.iter().map(|f| f.to_string()).collect());
        }
        Err(e) => panic!("unexpected compile failure: {e}"),
    };
    let printed = c
        .units
        .iter()
        .map(|u| {
            format!(
                "// {}\n{}",
                u.name,
                printer::print_tree(&u.tree, &c.ctx.symbols)
            )
        })
        .collect();
    let mut vm = mini_backend::Vm::new(&c.program);
    vm.run_main().expect("program runs");
    Observed::Ok {
        printed,
        program: c.program.canonical_dump(),
        vm_out: vm.out.clone(),
        exec: c.exec,
    }
}

/// From-scratch comparator: sources in unit-name order (the session's
/// canonical order) through the one-shot driver.
fn scratch(sources: &BTreeMap<String, String>, opts: &CompilerOptions) -> Observed {
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    observe(compile_sources(&refs, opts))
}

fn opts_for(mode: u8, jobs: usize, prune: u8, check: bool) -> CompilerOptions {
    let base = if mode.is_multiple_of(2) {
        CompilerOptions::fused()
    } else {
        CompilerOptions::mega()
    };
    base.with_pruning_mode(match prune % 3 {
        0 => SubtreePruning::Off,
        1 => SubtreePruning::On,
        _ => SubtreePruning::Auto,
    })
    .with_jobs(jobs)
    .with_check(check)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn incremental_compile_matches_from_scratch(
        corpus_seed in 0u64..10_000,
        edit_seed in 0u64..10_000,
        units in 4usize..9,
        mode in 0u8..2,
        jobs_pick in 0u8..2,
        prune in 0u8..3,
        check in 0u8..2,
    ) {
        let check = check == 1;
        let jobs = if jobs_pick == 0 { 1 } else { 4 };
        let opts = opts_for(mode, jobs, prune, check);
        let cfg = workload::LinkedConfig { units, seed: corpus_seed };
        let script = workload::edit_series(&cfg, 5, edit_seed);

        let mut sources: BTreeMap<String, String> = script
            .base
            .units
            .iter()
            .cloned()
            .collect();
        let mut session = CompileSession::new(opts);
        for (n, s) in &sources {
            session.update(n.clone(), s.clone());
        }

        // Cold compile ≡ scratch (both arms: output, or the same findings).
        let cold = session.compile();
        if let Ok(c) = &cold {
            prop_assert_eq!(c.recompiled_units, sources.len());
        }
        let cold_obs = observe(cold);
        prop_assert_eq!(&cold_obs, &scratch(&sources, &opts), "cold mismatch");

        // Every edit: warm compile ≡ scratch over the edited sources
        // (success *or* identical checker findings).
        for (i, edit) in script.edits.iter().enumerate() {
            sources.insert(edit.unit.clone(), edit.source.clone());
            session.update(edit.unit.clone(), edit.source.clone());
            let warm = session.compile();
            if let Ok(w) = &warm {
                prop_assert_eq!(
                    w.reused_units + w.recompiled_units,
                    sources.len(),
                    "unit accounting must cover the corpus"
                );
                prop_assert!(w.recompiled_units >= 1, "the edited unit recompiles");
                if edit.kind == workload::EditKind::Body {
                    prop_assert_eq!(
                        w.recompiled_units, 1,
                        "body-only edit {} of {} must not cascade",
                        i, edit.unit
                    );
                }
            }
            let warm_obs = observe(warm);
            let scratch_obs = scratch(&sources, &opts);
            prop_assert_eq!(
                &warm_obs, &scratch_obs,
                "after edit {} ({:?} on {}): incremental != scratch",
                i, edit.kind, edit.unit
            );
        }
    }
}

/// Satellite pin: the edit generator's contract with the interface hash —
/// body salts leave a unit's exported interface hash unchanged, signature
/// toggles change it.
#[test]
fn body_edits_preserve_interface_hash_signature_edits_change_it() {
    let cfg = workload::LinkedConfig { units: 5, seed: 11 };
    for uid in 0..cfg.units {
        let name = workload::linked_unit_name(uid);
        let hash_of = |src: &str| {
            let mut ctx = Ctx::new();
            let typed = mini_front::compile_source(&mut ctx, &name, src).expect("parses");
            assert!(!ctx.has_errors(), "unit in isolation may miss deps");
            export_interface_hash(&ctx.symbols, &typed.top_syms)
        };
        // Units with deps don't type in isolation; synthesize dep stubs.
        let deps = workload::linked_deps(&cfg, uid);
        let stubs: String = deps
            .iter()
            .map(|d| format!("def U{d}entry(n: Int): Int = n\n"))
            .collect();
        let with_stubs = |body: String| format!("{stubs}{body}");
        let h0 = hash_of(&with_stubs(workload::linked_unit_source(&cfg, uid, 0, 0)));
        let h_body = hash_of(&with_stubs(workload::linked_unit_source(&cfg, uid, 9, 0)));
        let h_sig = hash_of(&with_stubs(workload::linked_unit_source(&cfg, uid, 0, 1)));
        assert_eq!(h0, h_body, "unit {uid}: body edit moved the iface hash");
        assert_ne!(h0, h_sig, "unit {uid}: signature edit kept the iface hash");
    }
}

/// The checker composes with the session: a checked warm compile still
/// reuses cached units (no silent full recompiles to make findings line
/// up).
#[test]
fn checked_session_still_reuses() {
    let cfg = workload::LinkedConfig { units: 6, seed: 23 };
    let script = workload::edit_series(&cfg, 3, 5);
    let opts = CompilerOptions::fused().with_check(true).with_jobs(2);
    let mut session = CompileSession::new(opts);
    for (n, s) in &script.base.units {
        session.update(n.clone(), s.clone());
    }
    session.compile().expect("cold checked compile");
    let mut reused_any = false;
    for edit in &script.edits {
        session.update(edit.unit.clone(), edit.source.clone());
        let warm = session.compile().expect("warm checked compile");
        reused_any |= warm.reused_units > 0;
    }
    assert!(reused_any, "checked sessions must still hit the cache");
}
