//! Cloning a type never allocates.
//!
//! [`Type`] keeps its composite parts behind `Arc`s and shared lists, so a
//! clone of any type — a tree node's `tpe`, a symbol's info — is a
//! reference-count increment. This test counts the heap allocations the
//! test thread makes (a counting global allocator, per thread so the test
//! harness's other threads do not interfere) while it clones every typed
//! node's type and every symbol's info of the 16-unit linked corpus, both
//! as the frontend typed it and after the whole pipeline (erased infos
//! read through the table's memo), and asserts the count is zero.

use miniphases::mini_driver::{compile_sources, CompilerOptions};
use miniphases::mini_ir::visit::for_each_subtree;
use miniphases::mini_ir::{Ctx, SymbolTable, TreeRef, Type};
use miniphases::{mini_front, workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the calls made on each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// counting touches a const-initialized thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn sources() -> Vec<(String, String)> {
    workload::generate_linked(&workload::LinkedConfig::incr_bench()).units
}

fn all_nodes(roots: &[TreeRef]) -> Vec<TreeRef> {
    let mut out = Vec::new();
    for root in roots {
        for_each_subtree(root, &mut |t| out.push(t.clone()));
    }
    out
}

/// Clones every node's type and every symbol's info into `sink`, and
/// returns how many allocations that made on this thread.
fn clone_allocations(nodes: &[TreeRef], tab: &SymbolTable, sink: &mut Vec<Type>) -> u64 {
    let ids: Vec<_> = tab.ids().collect();
    sink.clear();
    sink.reserve(nodes.len() + ids.len());
    let before = allocations();
    for t in nodes {
        sink.push(t.tpe().clone());
    }
    for &id in &ids {
        sink.push(tab.info(id).into_owned());
    }
    allocations() - before
}

#[test]
fn cloning_typed_trees_and_infos_allocates_nothing() {
    let mut ctx = Ctx::new();
    let roots: Vec<TreeRef> = sources()
        .iter()
        .map(|(n, s)| {
            mini_front::compile_source(&mut ctx, n, s)
                .expect("corpus parses")
                .tree
        })
        .collect();
    assert!(!ctx.has_errors(), "corpus type-checks");
    let nodes = all_nodes(&roots);
    let mut sink = Vec::new();
    let n = clone_allocations(&nodes, &ctx.symbols, &mut sink);
    assert!(
        sink.iter().filter(|t| t.is_method_like()).count() > 100,
        "the corpus has composite types to clone"
    );
    assert_eq!(n, 0, "cloning {} typed types allocated", sink.len());
}

#[test]
fn cloning_compiled_trees_and_erased_infos_allocates_nothing() {
    let srcs = sources();
    let refs: Vec<(&str, &str)> = srcs.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    let compiled = compile_sources(&refs, &CompilerOptions::fused()).expect("corpus compiles");
    let roots: Vec<TreeRef> = compiled.units.iter().map(|u| u.tree.clone()).collect();
    let nodes = all_nodes(&roots);
    let tab = &compiled.ctx.symbols;
    let mut sink = Vec::new();
    // The first read of an info above its write period computes and
    // memoizes it; the clones measured are of the memoized values.
    clone_allocations(&nodes, tab, &mut sink);
    let n = clone_allocations(&nodes, tab, &mut sink);
    assert_eq!(n, 0, "cloning {} compiled types allocated", sink.len());
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let before = allocations();
    let boxed = std::hint::black_box(Box::new(7u64));
    assert_eq!(allocations() - before, 1);
    drop(boxed);
}
