//! Splice aliasing: a session compile assembles its program table as a
//! copy-on-write view of the frontend table and adopts cached deltas by
//! reference, so a [`Compiled`] aliases the session's frontend base and the
//! cached artifacts' symbol shards.
//!
//! Two pins:
//!
//! * **Aliasing is safe.** A `Compiled` kept alive across an edit stays
//!   valid and unchanged — its program re-runs to the same VM output and
//!   its trees print the same — while the next compile is byte-identical
//!   to a from-scratch `compile_sources`.
//! * **Aliasing is real.** A no-edit warm compile reads the very same base
//!   arena and shard allocations as the compile before it: no base-arena
//!   symbol and no cached delta is copied. This is pinned by pointer
//!   identity, not by timing.

use miniphases::mini_driver::{compile_sources, CompileSession, Compiled, CompilerOptions};
use miniphases::mini_ir::printer;
use miniphases::{mini_backend, workload};
use std::collections::BTreeMap;

/// Printed trees, VM output and merged counters of one compiled program.
#[derive(PartialEq, Debug)]
struct Observed {
    printed: Vec<String>,
    vm_out: Vec<String>,
    exec: miniphases::miniphase::ExecStats,
}

fn observe(c: &Compiled) -> Observed {
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
    Observed {
        printed,
        vm_out: vm.out.clone(),
        exec: c.exec,
    }
}

fn scratch(sources: &BTreeMap<String, String>, opts: &CompilerOptions) -> Observed {
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    observe(&compile_sources(&refs, opts).expect("from-scratch compile"))
}

#[test]
fn kept_compiled_survives_edits_and_next_compile_matches_scratch() {
    let cfg = workload::LinkedConfig { units: 6, seed: 41 };
    // The first edit series that includes a cascading signature edit.
    let script = (0..)
        .map(|seed| workload::edit_series(&cfg, 8, seed))
        .find(|s| {
            s.edits
                .iter()
                .any(|e| e.kind == workload::EditKind::Signature)
        })
        .expect("some series has a signature edit");
    for opts in [
        CompilerOptions::fused().with_lint(true),
        CompilerOptions::fused().with_jobs(2),
    ] {
        let mut sources: BTreeMap<String, String> = script.base.units.iter().cloned().collect();
        let mut session = CompileSession::new(opts);
        for (n, s) in &sources {
            session.update(n.clone(), s.clone());
        }
        let mut kept = session.compile().expect("cold compile");
        let mut kept_obs = observe(&kept);
        assert_eq!(kept_obs, scratch(&sources, &opts), "cold != scratch");
        for (i, edit) in script.edits.iter().enumerate() {
            sources.insert(edit.unit.clone(), edit.source.clone());
            session.update(edit.unit.clone(), edit.source.clone());
            let next = session.compile().expect("warm compile");
            // The frontend re-typed while `kept` aliased its base; `kept`
            // must not see any of it.
            assert_eq!(
                observe(&kept),
                kept_obs,
                "edit {i}: the kept compile changed under the next one"
            );
            let next_obs = observe(&next);
            assert_eq!(
                next_obs,
                scratch(&sources, &opts),
                "edit {i} ({:?} on {}): incremental != scratch",
                edit.kind,
                edit.unit
            );
            kept = next;
            kept_obs = next_obs;
        }
    }
}

#[test]
fn no_edit_warm_compile_copies_no_symbol() {
    let cfg = workload::LinkedConfig { units: 5, seed: 7 };
    let script = workload::edit_series(&cfg, 1, 9);
    let mut session = CompileSession::new(CompilerOptions::fused().with_lint(true));
    for (n, s) in &script.base.units {
        session.update(n.clone(), s.clone());
    }
    let cold = session.compile().expect("cold compile");
    let idle = session.compile().expect("no-edit compile");
    assert_eq!(idle.recompiled_units, 0);
    assert!(
        idle.ctx.symbols.base_shared_with(&cold.ctx.symbols),
        "a no-edit compile must alias the previous compile's base arena and shards"
    );
    assert_eq!(observe(&idle), observe(&cold));

    // An edit while `idle` is alive makes the frontend copy its base once;
    // `idle` keeps the old arena, the edited compile reads the new one.
    let edit = &script.edits[0];
    session.update(edit.unit.clone(), edit.source.clone());
    let edited = session.compile().expect("edit compile");
    assert!(!edited.ctx.symbols.base_shared_with(&idle.ctx.symbols));
    let again = session.compile().expect("no-edit compile after the edit");
    assert!(
        again.ctx.symbols.base_shared_with(&edited.ctx.symbols),
        "the edited unit's fresh delta is adopted by reference too"
    );
}
