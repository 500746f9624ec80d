//! The owner name index ≡ a linear scan of the owner's declarations.
//!
//! [`SymbolTable::decl`] answers from a per-owner name index once a scope
//! is large (the root package). The index must give exactly what the scan
//! it replaced gives: the *first* declaration with the name, in
//! declaration order, or `None`. These tests check that for every owner
//! and every name of the typed 16-unit linked corpus (17 units with
//! `zmain.ms`): after a one-shot compile at `jobs` ∈ {1, 2}, after a cold
//! session compile, and after every compile of a session edit script
//! (body and signature edits, which retract and re-enter top-level
//! symbols and merge worker deltas into the session's program table).

use miniphases::mini_driver::{compile_sources, CompileSession, CompilerOptions};
use miniphases::mini_ir::{Name, SymbolId, SymbolTable};
use miniphases::workload;
use std::collections::BTreeSet;

/// The first declaration of `name` in `owner`, by a linear scan.
fn scan(tab: &SymbolTable, owner: SymbolId, name: Name) -> Option<SymbolId> {
    tab.sym(owner)
        .decls()
        .iter()
        .copied()
        .find(|&d| tab.sym(d).name == name)
}

/// Checks `decl` against the scan for every owner with declarations and
/// every name in the table; returns the number of owners checked.
fn assert_index_agrees(tab: &SymbolTable, what: &str) -> usize {
    let names: BTreeSet<Name> = tab.ids().map(|id| tab.sym(id).name).collect();
    let owners: Vec<SymbolId> = tab
        .ids()
        .filter(|&id| !tab.sym(id).decls().is_empty())
        .collect();
    for &owner in &owners {
        for &name in &names {
            assert_eq!(
                tab.decl(owner, name),
                scan(tab, owner, name),
                "{what}: decl({}, {name}) disagrees with a scan",
                tab.full_name(owner)
            );
        }
    }
    owners.len()
}

fn corpus() -> workload::EditScript {
    workload::edit_series(&workload::LinkedConfig::incr_bench(), 12, 7)
}

#[test]
fn index_agrees_with_a_scan_after_one_shot_compiles() {
    let script = corpus();
    let sources: Vec<(&str, &str)> = script
        .base
        .units
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    assert_eq!(sources.len(), 17);
    for jobs in [1, 2] {
        let compiled = compile_sources(&sources, &CompilerOptions::fused().with_jobs(jobs))
            .expect("corpus compiles");
        let tab = &compiled.ctx.symbols;
        let root = tab.builtins().root_pkg;
        assert!(
            tab.sym(root).decls().len() >= 64,
            "the root package is large enough to be indexed"
        );
        let owners = assert_index_agrees(tab, &format!("one-shot jobs={jobs}"));
        assert!(owners > 17, "every unit contributes owners");
    }
}

#[test]
fn index_agrees_with_a_scan_across_a_session_edit_script() {
    let script = corpus();
    assert!(
        script
            .edits
            .iter()
            .any(|e| e.kind == workload::EditKind::Signature),
        "the script retracts and re-enters top-level symbols"
    );
    for jobs in [1, 2] {
        let mut session = CompileSession::new(CompilerOptions::fused().with_jobs(jobs));
        for (n, s) in &script.base.units {
            session.update(n.clone(), s.clone());
        }
        let cold = session.compile().expect("cold compile");
        assert_index_agrees(&cold.ctx.symbols, &format!("cold session jobs={jobs}"));
        for (i, edit) in script.edits.iter().enumerate() {
            session.update(edit.unit.clone(), edit.source.clone());
            let warm = session.compile().expect("warm compile");
            assert_index_agrees(&warm.ctx.symbols, &format!("edit {i} jobs={jobs}"));
        }
    }
}
