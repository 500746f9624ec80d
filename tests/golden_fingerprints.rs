//! Golden fingerprints: the content hashes a compile session keys its
//! caches on, pinned to fixed values.
//!
//! A session decides what to recompile by comparing
//! [`export_interface_hash`] values, and diagnoses cache consistency with
//! [`tree_fingerprint`]. Both hash *rendered* types, so any change to how a
//! type is represented, printed or erased must leave them bit-identical, or
//! every cached artifact silently misses. These tests pin, over the typed
//! 16-unit linked corpus of the `incr` benchmark (17 units with `zmain.ms`):
//!
//! * each unit's typed-tree fingerprint and exported-interface hash;
//! * the printed info of a sample of symbols, typed and as seen after the
//!   whole pipeline (erased);
//! * `Display` and `Debug` of a sample of typed infos;
//! * one FNV fold over the printed final-period info and parents of every
//!   symbol of a one-shot compile.
//!
//! The values were computed by the compiler before types became shared
//! (`Arc`) values; a mismatch means a representation change moved a cache
//! key or a printed type.

use miniphases::mini_driver::{compile_sources, CompilerOptions};
use miniphases::mini_ir::fingerprint::{export_interface_hash, tree_fingerprint, Fnv64};
use miniphases::mini_ir::printer::print_type;
use miniphases::mini_ir::{Ctx, SymbolId, SymbolTable, Type};
use miniphases::{mini_front, workload};

/// `(unit, tree_fingerprint, export_interface_hash)` of the typed corpus.
const UNIT_HASHES: [(&str, u64, u64); 17] = [
    ("unit0000.ms", 0x5b68b6dee90e8e8a, 0xfafa617eefd83fef),
    ("unit0001.ms", 0x5eaa5755af6c6192, 0xc85eb706e05d8cfe),
    ("unit0002.ms", 0xc3769cd55f2a4f83, 0x8268845fae943e7d),
    ("unit0003.ms", 0x6a105eb357aba46, 0x935cb85eb46f30fc),
    ("unit0004.ms", 0xfb48a4ec3260fffe, 0xc974c822bd390923),
    ("unit0005.ms", 0x24b6923fb673ee83, 0xff31036ca1dd5c0a),
    ("unit0006.ms", 0x57dcb23e8fb8a430, 0xccd70a9085863621),
    ("unit0007.ms", 0xa8efeaef48b06435, 0x759aa6af3e8d6038),
    ("unit0008.ms", 0x590ad864a7dc6264, 0x2d56b06e95b58a67),
    ("unit0009.ms", 0x11f25042e11b4c45, 0xa9a31876c9f1ec6),
    ("unit0010.ms", 0xde2c5a32250e0f2a, 0x3529185ddeeee0af),
    ("unit0011.ms", 0xc0bcc3ce4f2d1364, 0x98701810a902dd44),
    ("unit0012.ms", 0xd297b1f34c7219f1, 0x978faa4ae0127f9),
    ("unit0013.ms", 0xcaa61fcf2558c25a, 0x4fee4fd359ee925e),
    ("unit0014.ms", 0x8a840342050faa83, 0x3631a63c96c565eb),
    ("unit0015.ms", 0x6f5b13e859ecaf2f, 0x9b6948ad0a774b50),
    ("zmain.ms", 0x31e45fb03c9deb1b, 0x2ee0159add6e5b9),
];

/// The typed corpus: one frontend context over every unit, in name order.
fn typed_corpus() -> (Ctx, Vec<mini_front::TypedUnit>) {
    let w = workload::generate_linked(&workload::LinkedConfig::incr_bench());
    let mut ctx = Ctx::new();
    let units = w
        .units
        .iter()
        .map(|(n, s)| mini_front::compile_source(&mut ctx, n, s).expect("corpus parses"))
        .collect();
    assert!(!ctx.has_errors(), "corpus type-checks: {:?}", ctx.errors);
    (ctx, units)
}

fn sources() -> Vec<(String, String)> {
    workload::generate_linked(&workload::LinkedConfig::incr_bench()).units
}

/// Every symbol id of `unit`'s top level and of its classes' members, in
/// declaration order.
fn surface(tab: &SymbolTable, unit: &mini_front::TypedUnit) -> Vec<SymbolId> {
    let mut out = Vec::new();
    for &s in &unit.top_syms {
        out.push(s);
        out.extend(tab.decls_of(s));
    }
    out
}

fn printed_surface(tab: &SymbolTable, ids: &[SymbolId]) -> Vec<String> {
    ids.iter()
        .map(|&s| {
            format!(
                "{}: {}",
                tab.sym(s).name.as_str(),
                print_type(&tab.info(s), tab)
            )
        })
        .collect()
}

#[test]
fn unit_fingerprints_match_the_pinned_values() {
    let (ctx, units) = typed_corpus();
    let got: Vec<(String, u64, u64)> = units
        .iter()
        .map(|u| {
            (
                u.name.clone(),
                tree_fingerprint(&u.tree, &ctx.symbols),
                export_interface_hash(&ctx.symbols, &u.top_syms),
            )
        })
        .collect();
    let want: Vec<(String, u64, u64)> = UNIT_HASHES
        .iter()
        .map(|&(n, t, i)| (n.to_owned(), t, i))
        .collect();
    assert_eq!(got, want, "\nactual: {got:#x?}");
}

#[test]
fn typed_sample_prints_the_pinned_types() {
    let (ctx, units) = typed_corpus();
    let tab = &ctx.symbols;
    let ids = surface(tab, &units[3]);
    let printed = printed_surface(tab, &ids);
    let want: &[&str] = &[
        "U3Box: <notype>",
        "seed: Int",
        "<init>: (Int)Unit",
        "state3: Int",
        "poke: (Int)Int",
        "tag: (Any)Int",
        "U3entry: (Int)Int",
        "n: Int",
        "seedv: Int",
        "local: Int",
        "U3helper: (Int)Int",
        "v: Int",
        "acc: Int",
        "i: Int",
        "U3spare: (Int)Int",
        "n: Int",
        "U3drive: (Int)Int",
        "n: Int",
        "b: U3Box",
        "x: Int",
        "f: (Int) => Int",
        "U3lintSeedDead: (Int)Int",
        "n: Int",
        "lintSeedLocal: Int",
        "U3lintSeedCond: (Int)Int",
        "n: Int",
        "U3flowDead: (Int)Int",
        "n: Int",
        "flowAcc: Int",
        "U3flowGate: (Int)Int",
        "n: Int",
        "flowFlag: Boolean",
        "U3flowJoin: (Int, Int)Int",
        "n: Int",
        "m: Int",
        "flowJ: Int",
    ];
    assert_eq!(printed, want, "\nactual: {printed:#?}");
    let shown: Vec<String> = ids
        .iter()
        .filter(|&&s| !matches!(*tab.info(s), Type::Int | Type::NoType))
        .map(|&s| format!("{} | {:?}", tab.info(s), tab.info(s)))
        .collect();
    let want: &[&str] = &[
        "(Int)Unit | Method { params: [[Int]], ret: Unit }",
        "(Int)Int | Method { params: [[Int]], ret: Int }",
        "(Any)Int | Method { params: [[Any]], ret: Int }",
        "(Int)Int | Method { params: [[Int]], ret: Int }",
        "(Int)Int | Method { params: [[Int]], ret: Int }",
        "(Int)Int | Method { params: [[Int]], ret: Int }",
        "(Int)Int | Method { params: [[Int]], ret: Int }",
        "#145 | Class { sym: sym#145, targs: [] }",
        "(Int) => Int | Function { params: [Int], ret: Int }",
        "(Int)Int | Method { params: [[Int]], ret: Int }",
        "(Int)Int | Method { params: [[Int]], ret: Int }",
        "(Int)Int | Method { params: [[Int]], ret: Int }",
        "(Int)Int | Method { params: [[Int]], ret: Int }",
        "Boolean | Boolean",
        "(Int, Int)Int | Method { params: [[Int, Int]], ret: Int }",
    ];
    assert_eq!(shown, want, "\nactual: {shown:#?}");
}

#[test]
fn erased_infos_match_the_pinned_fold() {
    let srcs = sources();
    let refs: Vec<(&str, &str)> = srcs.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    let compiled = compile_sources(&refs, &CompilerOptions::fused()).expect("compiles");
    let tab = &compiled.ctx.symbols;
    let mut h = Fnv64::new();
    for id in tab.ids() {
        h.str(tab.sym(id).name.as_str());
        h.str(&print_type(&tab.info(id), tab));
        for p in tab.parents(id).iter() {
            h.str(&print_type(p, tab));
        }
    }
    let sample: Vec<SymbolId> = tab
        .ids()
        .filter(|&id| tab.full_name(id).starts_with("U3"))
        .collect();
    let printed = printed_surface(tab, &sample);
    let want: &[&str] = &[
        "U3Box: <notype>",
        "U3entry: (Int)Int",
        "n: Int",
        "U3helper: (Int)Int",
        "v: Int",
        "U3spare: (Int)Int",
        "n: Int",
        "seed: Int",
        "<init>: (Int)Unit",
        "state3: Int",
        "poke: (Int)Int",
        "kk: Int",
        "tag: (Any)Int",
        "x: Any",
        "U3drive: (Int)Int",
        "n: Int",
        "U3lintSeedDead: (Int)Int",
        "n: Int",
        "U3lintSeedCond: (Int)Int",
        "n: Int",
        "U3flowDead: (Int)Int",
        "n: Int",
        "U3flowGate: (Int)Int",
        "n: Int",
        "U3flowJoin: (Int, Int)Int",
        "n: Int",
        "m: Int",
        "seedv: Int",
        "local: Int",
        "acc: Int",
        "i: Int",
        "n: Int",
        "s: String",
        "b: U3Box",
        "x: Int",
        "f: Function1",
        "lintSeedLocal: Int",
        "flowAcc: Int",
        "flowFlag: Boolean",
        "flowJ: Int",
        "tailLoop$1: (Int)Int",
        "tailLoop$2: (Int)Int",
        "tailLoop$3: (Int)Int",
        "tailLoop$4: (Int)Int",
        "tailLoop$5: (Int)Int",
        "tailLoop$6: (Int)Int",
        "tailLoop$7: (Int)Int",
        "tailLoop$8: (Int)Int",
        "tailLoop$9: (Int, Int)Int",
        "sel$10: Any",
        "case3$11: ()Int",
        "case2$12: ()Int",
        "case1$13: (Any)Int",
        "case0$14: (Any)Int",
        "seed$p: Int",
    ];
    assert_eq!(printed, want, "\nactual: {printed:#?}");
    assert_eq!(
        h.finish(),
        0x3bd9ce9c5ec3a121,
        "\nactual: {:#x}",
        h.finish()
    );
}
