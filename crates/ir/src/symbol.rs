//! Symbols and the symbol table.
//!
//! Symbols are unique identifiers for definitions — classes, methods, fields,
//! parameters, locals — exactly as in the paper (§2). The [`SymbolTable`] is
//! an arena indexed by [`SymbolId`]; it also owns the class hierarchy and
//! therefore hosts the hierarchy-dependent type operations: subtyping, least
//! upper bounds, linearization, member lookup and erasure.

use crate::flags::Flags;
use crate::names::{std_names, Name};
use crate::span::Span;
use crate::types::{Type, TypeList};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A compact handle identifying one definition.
///
/// `SymbolId::NONE` is the null symbol, used for not-yet-resolved references.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(u32);

impl SymbolId {
    /// The null symbol.
    pub const NONE: SymbolId = SymbolId(0);

    /// True if this is the null symbol.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// True if this refers to an actual definition.
    pub fn exists(self) -> bool {
        self.0 != 0
    }

    /// The raw arena index.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from a raw index (for dense side tables and tests).
    pub fn from_index(i: u32) -> SymbolId {
        SymbolId(i)
    }
}

impl fmt::Debug for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// What sort of definition a symbol names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SymKind {
    /// A term definition: `val`, `var`, `def`, parameter, local.
    Term,
    /// A class or trait.
    Class,
    /// A package.
    Package,
    /// A type parameter.
    TypeParam,
    /// A jump label (introduced by `TailRec` / `PatternMatcher`).
    Label,
}

/// The data stored for one symbol.
///
/// `info` and `parents` are private: they hold the values as written at
/// the symbol's write *period* (see [`SymbolTable::info_at`]), which later
/// info transformers may still rewrite. Read them through
/// [`SymbolTable::info`] / [`SymbolTable::parents`]; write them through
/// [`SymbolTable::sym_mut`] and [`SymbolData::set_info`] /
/// [`SymbolData::set_parents`].
#[derive(Clone, Debug)]
pub struct SymbolData {
    /// The definition's name.
    pub name: Name,
    /// Property flags.
    pub flags: Flags,
    /// The enclosing definition.
    pub owner: SymbolId,
    /// The sort of definition.
    pub kind: SymKind,
    /// The symbol's type: a method type for `def`s, the value type for
    /// `val`s. `NoType` for packages.
    info: Type,
    /// Source location of the definition.
    pub span: Span,
    /// Class only: parent types, superclass first.
    parents: TypeList,
    /// Class/package only: member symbols in declaration order. Read
    /// through [`SymbolData::decls`]; written through the table
    /// ([`SymbolTable::push_decl`], [`SymbolTable::set_decls`],
    /// [`SymbolTable::retain_decls`], [`SymbolData::clear_decls`]), which
    /// keeps the name index current.
    decls: Decls,
    /// Class only: type parameters.
    pub tparams: Vec<SymbolId>,
    /// The period `info` and `parents` were written at: the info
    /// transformers below it are already applied to them.
    period: u8,
    /// Cached `info_at` results for periods above `period`.
    memo: InfoMemo,
}

/// Two symbols are equal when their data is; the memo and the name index
/// are caches.
impl PartialEq for SymbolData {
    fn eq(&self, other: &SymbolData) -> bool {
        self.name == other.name
            && self.flags == other.flags
            && self.owner == other.owner
            && self.kind == other.kind
            && self.period == other.period
            && self.span == other.span
            && self.info == other.info
            && self.parents == other.parents
            && self.tparams == other.tparams
            && self.decls.list == other.decls.list
    }
}

impl SymbolData {
    #[allow(clippy::too_many_arguments)]
    fn new(
        name: Name,
        flags: Flags,
        owner: SymbolId,
        kind: SymKind,
        info: Type,
        parents: TypeList,
        tparams: Vec<SymbolId>,
        period: u8,
    ) -> SymbolData {
        SymbolData {
            name,
            flags,
            owner,
            kind,
            info,
            span: Span::SYNTHETIC,
            parents,
            decls: Decls::default(),
            tparams,
            period,
            memo: InfoMemo::default(),
        }
    }

    /// Replaces the symbol's info. On data obtained from
    /// [`SymbolTable::sym_mut`] the new value is recorded at the table's
    /// current period: transformers of later periods still apply to it.
    pub fn set_info(&mut self, info: Type) {
        self.info = info;
    }

    /// Replaces the symbol's parents (same period rule as
    /// [`SymbolData::set_info`]).
    pub fn set_parents(&mut self, parents: TypeList) {
        self.parents = parents;
    }

    /// The member symbols, in declaration order.
    pub fn decls(&self) -> &[SymbolId] {
        &self.decls.list
    }

    /// Drops every member.
    pub fn clear_decls(&mut self) {
        self.decls = Decls::default();
    }
}

/// A name index: the first declaration of each name.
type NameIndex = HashMap<Name, SymbolId>;

/// An owner's declarations, plus an index from each name to its first
/// declaration, so that [`SymbolTable::decl`] on a large scope (the root
/// package) is one lookup instead of a scan.
///
/// The index is a cache, like the info memo: the first lookup in a scope
/// of at least [`Decls::INDEX_FROM`] members builds it from the members'
/// names as the table sees them, appends keep it current, and every other
/// write drops it, as does a clone (a copied symbol is about to diverge,
/// and snapshots in worker deltas should not carry it). Renames go through
/// [`SymbolTable::rename`], which drops the owner's index.
#[derive(Default)]
struct Decls {
    list: Vec<SymbolId>,
    /// Boxed: most symbols never index, and each symbol pays the slot.
    by_name: OnceLock<Box<NameIndex>>,
}

impl Decls {
    /// Scopes smaller than this are scanned: a short scan is cheaper than
    /// a hash lookup and saves the index's allocation.
    const INDEX_FROM: usize = 16;

    /// Appends `d`, named `name`, keeping a built index current.
    fn push(&mut self, d: SymbolId, name: Name) {
        self.list.push(d);
        if let Some(ix) = self.by_name.get_mut() {
            ix.entry(name).or_insert(d);
        }
    }

    /// The list for a write that may reorder or remove members: the index
    /// is dropped.
    fn rewrite(&mut self) -> &mut Vec<SymbolId> {
        self.by_name.take();
        &mut self.list
    }
}

impl Clone for Decls {
    fn clone(&self) -> Decls {
        Decls {
            list: self.list.clone(),
            by_name: OnceLock::new(),
        }
    }
}

/// Prints as the member list.
impl fmt::Debug for Decls {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.list).finish()
    }
}

/// A phase's symbol-info transformer — Dotty's `InfoTransformer`. Given a
/// symbol and its info and parents *as seen before* the phase, it returns
/// the info and parents *as seen after* the phase, or `None` when the
/// phase leaves the symbol unchanged.
///
/// The table applies transformers lazily and caches their results on the
/// symbol, shared by every fork and clone of the table (see
/// [`SymbolTable::info_at`]). A transformer must therefore be a pure
/// function of its arguments: it may consult the table's builtins, but
/// its result must not depend on other symbols' per-fork state.
pub type InfoTransform =
    fn(&SymbolData, &Type, &TypeList, &SymbolTable) -> Option<(Type, TypeList)>;

/// The info transformers of one pipeline, in the order their phase groups
/// start. Transformer `k` separates period `k` from period `k + 1`.
#[derive(Clone, Debug, Default)]
pub struct InfoPlan {
    transforms: Vec<InfoTransform>,
    /// Identifies the transformer list, so that memo entries computed under
    /// another plan are never read under this one.
    key: u64,
}

impl InfoPlan {
    /// A plan over `(phase name, transformer)` pairs in pipeline order.
    ///
    /// # Panics
    ///
    /// Panics on more than 255 transformers (periods are `u8`).
    pub fn new(transforms: Vec<(&str, InfoTransform)>) -> InfoPlan {
        assert!(
            transforms.len() <= usize::from(u8::MAX),
            "too many info transformers"
        );
        let mut key: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                key ^= u64::from(b);
                key = key.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (name, f) in &transforms {
            mix(name.as_bytes());
            mix(&(*f as usize).to_le_bytes());
        }
        InfoPlan {
            transforms: transforms.into_iter().map(|(_, f)| f).collect(),
            key,
        }
    }

    /// Number of transformers = the final period.
    pub fn len(&self) -> usize {
        self.transforms.len()
    }

    /// True when the plan transforms no info.
    pub fn is_empty(&self) -> bool {
        self.transforms.is_empty()
    }
}

/// Memo slot `k`: the symbol's info and parents as seen at period `k + 1`,
/// or `None` while they still equal the stored ones (most symbols pass
/// most transformers unchanged, so the value is boxed). A read at any
/// period is one slot lookup.
type MemoSlot = OnceLock<Option<Box<(Type, TypeList)>>>;

/// A symbol's cached `info_at` results, one slot per transformer of the
/// plan whose key tags them. Allocated on the first read above the
/// symbol's write period. A clone is empty: the memo is a cache, and a
/// cloned symbol is about to diverge from the original.
#[derive(Default)]
struct InfoMemo(OnceLock<(u64, Box<[MemoSlot]>)>);

impl InfoMemo {
    /// The slots for `plan`, or `None` if another plan already owns them.
    fn slots(&self, plan: &InfoPlan) -> Option<&[MemoSlot]> {
        let (key, slots) = self
            .0
            .get_or_init(|| (plan.key, (0..plan.len()).map(|_| OnceLock::new()).collect()));
        (*key == plan.key).then_some(&slots[..])
    }
}

impl Clone for InfoMemo {
    fn clone(&self) -> InfoMemo {
        InfoMemo::default()
    }
}

impl fmt::Debug for InfoMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("InfoMemo")
    }
}

/// A symbol's info and parents as seen at some period.
enum Seen<'a> {
    Borrowed(&'a Type, &'a TypeList),
    Owned(Type, TypeList),
}

impl Seen<'_> {
    fn get(&self) -> (&Type, &TypeList) {
        match self {
            Seen::Borrowed(i, p) => (i, p),
            Seen::Owned(i, p) => (i, p),
        }
    }

    fn into_owned(self) -> (Type, TypeList) {
        match self {
            Seen::Borrowed(i, p) => (i.clone(), p.clone()),
            Seen::Owned(i, p) => (i, p),
        }
    }
}

/// Well-known symbols created at table construction.
#[derive(Clone, Copy, Debug)]
pub struct Builtins {
    /// The root package.
    pub root_pkg: SymbolId,
    /// A pseudo-class holding the universal members of `Any`
    /// (`equals`, `toString`, `getClass`).
    pub any_class: SymbolId,
    /// `equals(that: Any): Boolean` on `Any`.
    pub equals_meth: SymbolId,
    /// `toString(): String` on `Any`.
    pub to_string_meth: SymbolId,
    /// `getClass(): String` on `Any` (returns the runtime class name).
    pub get_class_meth: SymbolId,
    /// `println(x: Any): Unit`, the single built-in I/O primitive.
    pub println_fn: SymbolId,
    /// `Function0` .. `Function3` classes.
    pub function_classes: [SymbolId; 4],
}

/// A contiguous block of symbols whose ids start at `start` instead of
/// extending the base arena — the unit of symbol-id space handed to one
/// parallel-compilation worker (see [`SymbolTable::fork_for_worker`]).
#[derive(Clone, Debug)]
struct Shard {
    /// First id of the shard; slot `k` holds id `start + k`.
    start: u32,
    /// Exclusive upper bound on ids this shard may allocate.
    capacity: u32,
    syms: Vec<SymbolData>,
}

impl Shard {
    fn contains(&self, id: u32) -> bool {
        id >= self.start && ((id - self.start) as usize) < self.syms.len()
    }
}

/// Index into a `start`-sorted, disjoint shard list of the shard containing
/// `id`, or `None`. The one definition of shard resolution shared by every
/// read, write, and fork-snapshot path — a boundary fix here fixes all of
/// them at once.
fn find_shard(shards: &[Arc<Shard>], id: u32) -> Option<usize> {
    let at = shards.partition_point(|s| s.start + s.syms.len() as u32 <= id);
    shards.get(at).filter(|s| s.contains(id)).map(|_| at)
}

/// Marks base-arena id `i` (if it is one) in an overlay's `overlaid_base`
/// bitset over a base arena of `base_len` symbols.
fn mark_overlaid(bits: &mut Vec<u64>, base_len: usize, i: usize) {
    if i < base_len {
        if bits.is_empty() {
            bits.resize(base_len.div_ceil(64), 0);
        }
        bits[i / 64] |= 1 << (i % 64);
    }
}

/// Where a worker fork carves **overflow shards** once its primary shard
/// fills. A symbol-heavy unit no longer aborts the compile: the fork
/// chains a fresh shard at `next_start`, then advances `next_start` by
/// `step`. The scheduler interleaves forks' overflow regions (fork `c` of
/// `k` concurrent forks steps by `k × capacity`), so chained ids stay
/// globally unique without any cross-thread coordination.
#[derive(Clone, Copy, Debug)]
pub struct ShardGrowth {
    /// First id of this fork's next overflow shard.
    pub next_start: u32,
    /// Id distance between this fork's consecutive overflow shards.
    pub step: u32,
    /// Capacity of each overflow shard.
    pub capacity: u32,
}

/// Everything a parallel-compilation worker did to its forked
/// [`SymbolTable`], packaged for the deterministic merge back into the
/// origin table: the shards of newly created symbols (globally unique ids,
/// adopted verbatim; a primary shard plus any chained overflow shards) and
/// the base symbols it mutated (fork-time snapshot + final value, merged
/// field-wise with append-aware `decls` handling).
///
/// A delta is immutable once built and its parts are `Arc`-shared: a clone
/// copies no symbol, and [`SymbolTable::adopt`] takes a reference and
/// aliases the delta's shards instead of copying them.
#[derive(Clone)]
pub struct SymbolDelta {
    shards: Vec<Arc<Shard>>,
    /// `(id, fork-time snapshot, final value)`, ascending by id.
    dirty: Arc<[(SymbolId, SymbolData, Arc<SymbolData>)]>,
}

impl SymbolDelta {
    /// True when the delta carries neither new symbols nor mutations.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty() && self.dirty.is_empty()
    }

    /// One past the highest symbol id this delta's shards occupy (0 when it
    /// created no symbols). Compile sessions use this to advance their
    /// shard cursor so the next fork's id range clears every cached delta.
    pub fn max_id_end(&self) -> u32 {
        self.shards
            .iter()
            .map(|s| s.start + s.syms.len() as u32)
            .max()
            .unwrap_or(0)
    }

    /// Looks up a symbol **created by this delta** (i.e. living in one of
    /// its shards); `None` for pre-fork ids.
    pub fn new_symbol(&self, id: SymbolId) -> Option<&SymbolData> {
        find_shard(&self.shards, id.index()).map(|at| {
            let sh = &self.shards[at];
            &sh.syms[(id.index() - sh.start) as usize]
        })
    }

    /// The *final* value this delta records for a mutated pre-fork symbol,
    /// or `None` if the fork never wrote it.
    pub fn dirty_final(&self, id: SymbolId) -> Option<&SymbolData> {
        self.dirty
            .binary_search_by_key(&id, |(d, _, _)| *d)
            .ok()
            .map(|at| &*self.dirty[at].2)
    }

    /// The dirty entries — mutated pre-fork symbols — as `(id, final
    /// value)` pairs, ascending by id.
    pub fn dirty_entries(&self) -> impl Iterator<Item = (SymbolId, &SymbolData)> {
        self.dirty.iter().map(|(id, _, fin)| (*id, &**fin))
    }
}

/// The arena of all symbols plus hierarchy-dependent type operations.
///
/// # Examples
///
/// ```
/// use mini_ir::{Flags, Name, SymKind, SymbolTable, Type};
/// let mut tab = SymbolTable::new();
/// let owner = tab.builtins().root_pkg;
/// let c = tab.new_class(owner, Name::from("C"), Flags::EMPTY, vec![Type::AnyRef], vec![]);
/// assert!(tab.is_subtype(&tab.class_type(c), &Type::AnyRef));
/// ```
///
/// Cloning is cheap (`Arc`-shared base arena and adopted shards) until the
/// clone — or the original — first mutates, at which point `Arc::make_mut`
/// copies the touched region: the whole base arena for a base symbol, one
/// shard for an adopted-shard symbol.
///
/// The incremental compile session does not clone-then-mutate. It builds
/// each program table as a [`SymbolTable::splice_view`] of its frontend
/// table and adopts every cached per-unit delta by reference: the view's
/// writes to pre-existing symbols go to a private overlay, and adopted
/// shards alias the cached delta's. No base symbol and no cached shard is
/// copied, so the info memos filled through the view stay on the shared
/// symbols for the next compile. While a view is alive, the frontend's
/// first write copies the base arena once (`Arc::make_mut`).
#[derive(Clone)]
pub struct SymbolTable {
    /// The base arena. `Arc`-shared so [`SymbolTable::fork_for_worker`] is
    /// O(1) in base-table size: forks alias the same frozen snapshot, and
    /// ordinary tables mutate through [`Arc::make_mut`] (free while no fork
    /// is alive, which the fork/merge protocol guarantees at mutation time).
    syms: Arc<Vec<SymbolData>>,
    builtins: Builtins,
    /// Worker tables only: where this fork allocates new symbols — the
    /// primary shard plus any chained overflow shards, ascending by
    /// `start`. Empty on ordinary tables, which extend `syms` contiguously.
    shards: Vec<Shard>,
    /// Worker tables only (its presence is what marks a worker fork):
    /// where overflow shards carve fresh id ranges once the primary shard
    /// fills.
    growth: Option<ShardGrowth>,
    /// Shards merged in from finished workers, sorted by `start`. A table
    /// with adopted shards keeps allocating in the gap between
    /// `syms.len()` and the first shard. The list is `Arc`-shared with
    /// forks for the same O(1)-fork reason as `syms`, and each shard is
    /// `Arc`-shared with the [`SymbolDelta`] it came from: writing into a
    /// still-shared shard copies that shard only.
    adopted: Arc<Vec<Arc<Shard>>>,
    /// Worker forks and splice views only: copy-on-write overlay holding
    /// this table's mutations of pre-existing symbols (base arena **or**
    /// adopted shards), keyed by id. The shared base is never written; the
    /// fork-time snapshot a [`SymbolDelta`] needs *is* the frozen base
    /// value. `None` on ordinary tables. Entries are `Arc`s so that a view
    /// can alias a delta's final value of a symbol instead of copying it.
    overlay: Option<BTreeMap<u32, Arc<SymbolData>>>,
    /// Worker forks and splice views only: bitset over base-arena ids
    /// marking those the overlay shadows, so reads of untouched base
    /// symbols skip the map.
    overlaid_base: Vec<u64>,
    /// The info transformers [`SymbolTable::info_at`] applies.
    plan: Arc<InfoPlan>,
    /// The current period: what [`SymbolTable::info`] reads at and what
    /// [`SymbolTable::sym_mut`] records writes at.
    period: u8,
}

impl SymbolTable {
    /// Creates a table pre-populated with the built-in definitions.
    pub fn new() -> SymbolTable {
        let sentinel = SymbolData::new(
            std_names::root_pkg(),
            Flags::EMPTY,
            SymbolId::NONE,
            SymKind::Package,
            Type::NoType,
            TypeList::new(),
            Vec::new(),
            0,
        );
        let mut tab = SymbolTable {
            // Index 0 is the NONE sentinel.
            syms: Arc::new(vec![sentinel]),
            builtins: Builtins {
                root_pkg: SymbolId::NONE,
                any_class: SymbolId::NONE,
                equals_meth: SymbolId::NONE,
                to_string_meth: SymbolId::NONE,
                get_class_meth: SymbolId::NONE,
                println_fn: SymbolId::NONE,
                function_classes: [SymbolId::NONE; 4],
            },
            shards: Vec::new(),
            growth: None,
            adopted: Arc::new(Vec::new()),
            overlay: None,
            overlaid_base: Vec::new(),
            plan: Arc::new(InfoPlan::default()),
            period: 0,
        };
        let root = tab.new_package(SymbolId::NONE, std_names::root_pkg());
        tab.builtins.root_pkg = root;

        // `Any`'s universal members live on a pseudo-class.
        let any_class = tab.new_class(root, std_names::any(), Flags::SYNTHETIC, vec![], vec![]);
        let equals_meth = tab.new_term(
            any_class,
            std_names::equals(),
            Flags::METHOD,
            Type::Method {
                params: [TypeList::from([Type::Any])].into(),
                ret: Arc::new(Type::Boolean),
            },
        );
        let to_string_meth = tab.new_term(
            any_class,
            std_names::to_string(),
            Flags::METHOD,
            Type::Method {
                params: [TypeList::new()].into(),
                ret: Arc::new(Type::Str),
            },
        );
        let get_class_meth = tab.new_term(
            any_class,
            std_names::get_class(),
            Flags::METHOD,
            Type::Method {
                params: [TypeList::new()].into(),
                ret: Arc::new(Type::Str),
            },
        );
        let println_fn = tab.new_term(
            root,
            std_names::println(),
            Flags::METHOD | Flags::SYNTHETIC,
            Type::Method {
                params: [TypeList::from([Type::Any])].into(),
                ret: Arc::new(Type::Unit),
            },
        );

        // Function0..Function3 with their `apply` methods.
        let mut function_classes = [SymbolId::NONE; 4];
        for (n, slot) in function_classes.iter_mut().enumerate() {
            let cls_name = Name::intern(&format!("Function{n}"));
            let cls = tab.new_class(
                root,
                cls_name,
                Flags::TRAIT | Flags::SYNTHETIC,
                vec![Type::AnyRef],
                vec![],
            );
            let mut tparams = Vec::new();
            for i in 0..n {
                let tp = tab.new_type_param(cls, Name::intern(&format!("T{}", i + 1)));
                tparams.push(tp);
            }
            let r = tab.new_type_param(cls, Name::intern("R"));
            let apply_info = Type::Method {
                params: [tparams
                    .iter()
                    .map(|&tp| Type::TypeParam(tp))
                    .collect::<TypeList>()]
                .into(),
                ret: Arc::new(Type::TypeParam(r)),
            };
            tab.new_term(
                cls,
                std_names::apply(),
                Flags::METHOD | Flags::DEFERRED,
                apply_info,
            );
            let mut all_tparams = tparams;
            all_tparams.push(r);
            tab.sym_mut(cls).tparams = all_tparams;
            *slot = cls;
        }

        tab.builtins = Builtins {
            root_pkg: root,
            any_class,
            equals_meth,
            to_string_meth,
            get_class_meth,
            println_fn,
            function_classes,
        };
        tab
    }

    /// The well-known symbols.
    pub fn builtins(&self) -> &Builtins {
        &self.builtins
    }

    /// Total number of symbols allocated (including builtins and any worker
    /// shards this table allocated or adopted). Mutated pre-fork symbols in
    /// a fork's overlay shadow base entries, so they do not count twice.
    pub fn len(&self) -> usize {
        self.syms.len()
            + self.shards.iter().map(|s| s.syms.len()).sum::<usize>()
            + self.adopted.iter().map(|s| s.syms.len()).sum::<usize>()
    }

    /// True if only the sentinel exists (never the case after `new`).
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Every resolvable symbol id except the `NONE` sentinel, ascending:
    /// the base arena, then adopted shards, then this table's own shards
    /// (a fork's own shards always start above every shard it inherited
    /// and chain upward, so this chain *is* ascending id order). Whole-table
    /// walks must use this rather than `1..len()` — ids are **not**
    /// contiguous once a table has a worker shard.
    pub fn ids(&self) -> impl Iterator<Item = SymbolId> + '_ {
        let base = 1..self.syms.len() as u32;
        let own = self
            .shards
            .iter()
            .flat_map(|s| s.start..s.start + s.syms.len() as u32);
        let adopted = self
            .adopted
            .iter()
            .flat_map(|s| s.start..s.start + s.syms.len() as u32);
        base.chain(adopted).chain(own).map(SymbolId)
    }

    /// The lowest id guaranteed to be above every symbol this table can
    /// resolve — the floor from which fresh worker shards may be carved.
    pub fn id_ceiling(&self) -> u32 {
        let base = self.syms.len() as u32;
        self.adopted
            .iter()
            .map(|s| &**s)
            .chain(self.shards.iter())
            .map(|s| s.start + s.syms.len() as u32)
            .fold(base, u32::max)
    }

    /// True if `self` and `other` read the same base arena and the same
    /// adopted shards from the same allocations — i.e. no symbol data was
    /// copied between them. This is the copy-on-write invariant the
    /// fork-cost and splice regression tests pin:
    /// [`SymbolTable::fork_for_worker`] and [`SymbolTable::splice_view`]
    /// are O(1) in base-table size precisely because this holds for every
    /// fresh fork or view, and adopting a delta by reference keeps it
    /// holding between two views that adopted the same deltas.
    pub fn base_shared_with(&self, other: &SymbolTable) -> bool {
        Arc::ptr_eq(&self.syms, &other.syms)
            && self.adopted.len() == other.adopted.len()
            && self
                .adopted
                .iter()
                .zip(other.adopted.iter())
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// A copy-on-write **splice view** of this table in O(1): it aliases
    /// the base arena and adopted shards like a worker fork, receives
    /// [`SymbolDelta`]s through [`SymbolTable::adopt`] — writes to
    /// pre-existing symbols go to a private overlay, shards are adopted by
    /// reference — and never writes the shared base. Reads of untouched
    /// symbols fill the info memos of the shared symbols, so a later view
    /// over the same base and deltas finds them filled.
    ///
    /// A view assembles a program from finished deltas; it cannot allocate
    /// symbols, be forked, or be turned into a delta.
    ///
    /// # Panics
    ///
    /// Panics if called on a worker fork or another view.
    pub fn splice_view(&self) -> SymbolTable {
        assert!(self.overlay.is_none(), "cannot view a fork or a view");
        SymbolTable {
            syms: Arc::clone(&self.syms),
            builtins: self.builtins,
            shards: Vec::new(),
            growth: None,
            adopted: Arc::clone(&self.adopted),
            overlay: Some(BTreeMap::new()),
            overlaid_base: Vec::new(),
            plan: Arc::clone(&self.plan),
            period: self.period,
        }
    }

    /// Forks a worker-private table for parallel compilation in **O(1)**:
    /// the fork aliases the origin's frozen base arena and adopted shards
    /// (no symbol is copied), *new* allocations receive ids in
    /// `start..start + capacity` — chaining overflow shards per `growth`
    /// when the primary shard fills — and mutations of pre-fork symbols go
    /// to a private copy-on-write overlay, so every worker's ids stay
    /// globally unique and every worker's writes stay invisible to its
    /// siblings without coordination. Ship the result back through
    /// [`SymbolTable::into_delta`] / [`SymbolTable::adopt`].
    ///
    /// The origin table must not allocate or mutate symbols while forks are
    /// alive (the parallel scheduler forks before spawning workers and
    /// merges after joining them, so this holds by construction); ordinary
    /// mutation resumes for free once every fork has been consumed.
    ///
    /// # Panics
    ///
    /// Panics if `start` is below [`SymbolTable::id_ceiling`] (the shard
    /// would shadow resolvable ids), if the overflow region overlaps the
    /// primary shard, if a capacity is zero, or if called on a table that
    /// is itself a worker fork or a splice view.
    pub fn fork_for_worker(&self, start: u32, capacity: u32, growth: ShardGrowth) -> SymbolTable {
        assert!(self.overlay.is_none(), "cannot fork a fork or a view");
        assert!(start >= self.id_ceiling(), "worker shard shadows live ids");
        assert!(
            capacity > 0 && growth.capacity > 0 && growth.step >= growth.capacity,
            "degenerate shard capacities"
        );
        assert!(
            growth.next_start >= start.saturating_add(capacity),
            "overflow region overlaps the primary shard"
        );
        SymbolTable {
            syms: Arc::clone(&self.syms),
            builtins: self.builtins,
            shards: vec![Shard {
                start,
                capacity,
                syms: Vec::new(),
            }],
            growth: Some(growth),
            adopted: Arc::clone(&self.adopted),
            overlay: Some(BTreeMap::new()),
            overlaid_base: Vec::new(),
            plan: Arc::clone(&self.plan),
            period: self.period,
        }
    }

    /// Resolves `id` in the frozen pre-fork state only (base arena and
    /// adopted shards), bypassing the overlay — the fork-time snapshot of a
    /// mutated symbol.
    fn pre_fork_sym(&self, id: SymbolId) -> &SymbolData {
        let i = id.0 as usize;
        if i < self.syms.len() {
            return &self.syms[i];
        }
        match find_shard(&self.adopted, id.0) {
            Some(at) => {
                let sh = &self.adopted[at];
                &sh.syms[(id.0 - sh.start) as usize]
            }
            None => panic!("dangling {id:?} (not in base or any adopted shard)"),
        }
    }

    /// Consumes a worker fork into the delta its origin table needs for the
    /// merge: the shards of new symbols plus every overlay mutation as a
    /// `(fork snapshot, final value)` pair. The snapshot is read straight
    /// from the shared frozen base — it *is* the fork-time value, because
    /// the base never changes while a fork is alive.
    ///
    /// # Panics
    ///
    /// Panics if the table is not a worker fork (a splice view included).
    pub fn into_delta(mut self) -> SymbolDelta {
        assert!(self.growth.is_some(), "into_delta on a non-fork table");
        let overlay = self.overlay.take().expect("worker forks have an overlay");
        // Name indexes are caches of the fork's lookups; a delta lives on
        // in session caches, so it does not keep them.
        let shards = std::mem::take(&mut self.shards)
            .into_iter()
            .filter(|s| !s.syms.is_empty())
            .map(|mut s| {
                for d in &mut s.syms {
                    d.decls.by_name.take();
                }
                Arc::new(s)
            })
            .collect();
        let dirty = overlay
            .into_iter()
            .map(|(id, mut fin)| {
                if let Some(d) = Arc::get_mut(&mut fin) {
                    d.decls.by_name.take();
                }
                let fork = self.pre_fork_sym(SymbolId(id)).clone();
                (SymbolId(id), fork, fin)
            })
            .collect();
        SymbolDelta { shards, dirty }
    }

    /// Merges one worker's [`SymbolDelta`] back in. Call once per worker
    /// fork, in unit order (one fork per unit); the merge is then
    /// deterministic:
    ///
    /// * the shards of worker-created symbols are adopted by reference —
    ///   their ids were globally unique from birth, so trees referencing
    ///   them resolve with no rewriting, and the table aliases the delta's
    ///   shards until it writes into one;
    /// * mutated pre-fork symbols (base arena or previously adopted shards)
    ///   merge field-wise against the fork snapshot: only fields the worker
    ///   actually changed overwrite, and a `decls` list that grew by
    ///   appends re-appends just the new ids (preserving appends merged
    ///   from earlier workers); a reordered/rewritten list replaces
    ///   wholesale. On a splice view, a symbol whose current value still
    ///   equals the fork snapshot merges to exactly the final value, so the
    ///   view aliases the delta's final value instead of merging a copy.
    ///
    /// Known, deliberate divergence: for owners shared across units
    /// (in practice only the root package), the merged `decls` order is
    /// *unit-major* — all of unit 0's appends across every phase group,
    /// then unit 1's — while the sequential pipeline interleaves appends
    /// *group-major*. The membership set is identical either way, printed
    /// trees and codegen never consume package-decls order (codegen walks
    /// unit trees; `RestoreScopes` guards with `decls.contains`), and
    /// first-match [`SymbolTable::decl`] lookups on the root package are
    /// not used to disambiguate the per-unit synthetic classes that share
    /// names. Reconstructing the exact sequential interleaving would need
    /// per-(group, unit) deltas; do that before adding any consumer that
    /// reads shared-owner decls order.
    pub fn adopt(&mut self, delta: &SymbolDelta) {
        // Owners of renamed symbols: their name indexes saw the old names.
        let mut renamed_in = Vec::new();
        for (id, fork, fin) in delta.dirty.iter() {
            if self
                .overlay
                .as_ref()
                .is_some_and(|ov| !ov.contains_key(&id.0))
                && self.pre_fork_sym(*id) == fork
            {
                self.shadow(*id, Arc::clone(fin));
                continue;
            }
            let cur = self.raw_mut(*id);
            if fin.name != fork.name {
                cur.name = fin.name;
                renamed_in.extend([fork.owner, fin.owner]);
            }
            if fin.flags != fork.flags {
                cur.flags = fin.flags;
            }
            if fin.owner != fork.owner {
                cur.owner = fin.owner;
            }
            if fin.kind != fork.kind {
                cur.kind = fin.kind;
            }
            // Info and parents are only meaningful together with the
            // period they were written at, so the three merge as one.
            if fin.period != fork.period || fin.info != fork.info || fin.parents != fork.parents {
                cur.info = fin.info.clone();
                cur.parents = fin.parents.clone();
                cur.period = fin.period;
                cur.memo = InfoMemo::default();
            }
            if fin.span != fork.span {
                cur.span = fin.span;
            }
            if fin.tparams != fork.tparams {
                cur.tparams = fin.tparams.clone();
            }
            let (fin_decls, fork_decls) = (fin.decls(), fork.decls());
            if fin_decls.len() >= fork_decls.len() && fin_decls[..fork_decls.len()] == *fork_decls {
                if fin_decls.len() > fork_decls.len() {
                    // New members may live in the delta's shards, which
                    // are adopted below: drop the index rather than name them.
                    cur.decls
                        .rewrite()
                        .extend_from_slice(&fin_decls[fork_decls.len()..]);
                }
            } else if fin_decls != fork_decls {
                *cur.decls.rewrite() = fin_decls.to_vec();
            }
        }
        if !delta.shards.is_empty() {
            let adopted = Arc::make_mut(&mut self.adopted);
            adopted.extend(delta.shards.iter().cloned());
            adopted.sort_by_key(|s| s.start);
        }
        for owner in renamed_in {
            // The delta's own symbols carry the fork's (final) names.
            if owner.exists() && delta.new_symbol(owner).is_none() {
                self.raw_mut(owner).decls.by_name.take();
            }
        }
    }

    /// Puts `data` in the overlay in place of pre-existing symbol `id`.
    fn shadow(&mut self, id: SymbolId, data: Arc<SymbolData>) {
        let ov = self.overlay.as_mut().expect("only forks and views shadow");
        mark_overlaid(&mut self.overlaid_base, self.syms.len(), id.0 as usize);
        ov.insert(id.0, data);
    }

    fn alloc(&mut self, data: SymbolData) -> SymbolId {
        let owner = data.owner;
        assert!(
            self.overlay.is_none() || self.growth.is_some(),
            "a splice view cannot allocate symbols"
        );
        let id = if let Some(g) = self.growth.as_mut() {
            // Worker fork: allocate in the current own shard, chaining a
            // fresh overflow shard from the growth plan when it fills —
            // a symbol-heavy unit grows instead of aborting the compile.
            if self
                .shards
                .last()
                .is_none_or(|s| s.syms.len() as u32 >= s.capacity)
            {
                let start = g.next_start;
                g.next_start = start.checked_add(g.step).expect(
                    "symbol id space exhausted: overflow shard chain wrapped the u32 id domain",
                );
                self.shards.push(Shard {
                    start,
                    capacity: g.capacity,
                    syms: Vec::new(),
                });
            }
            let sh = self.shards.last_mut().expect("shard chained above");
            let id = SymbolId(sh.start + sh.syms.len() as u32);
            sh.syms.push(data);
            id
        } else {
            let id = SymbolId(self.syms.len() as u32);
            assert!(
                self.adopted.iter().all(|s| id.0 < s.start),
                "base symbol region collided with an adopted worker shard"
            );
            Arc::make_mut(&mut self.syms).push(data);
            id
        };
        if owner.exists() {
            self.push_decl(owner, id);
        }
        id
    }

    /// Appends `d` to `owner`'s declarations.
    pub fn push_decl(&mut self, owner: SymbolId, d: SymbolId) {
        let name = self.sym(d).name;
        self.sym_mut(owner).decls.push(d, name);
    }

    /// Replaces `owner`'s declarations.
    pub fn set_decls(&mut self, owner: SymbolId, decls: Vec<SymbolId>) {
        *self.sym_mut(owner).decls.rewrite() = decls;
    }

    /// Keeps the declarations of `owner` for which `keep` holds, in order.
    pub fn retain_decls(&mut self, owner: SymbolId, keep: impl FnMut(&SymbolId) -> bool) {
        self.sym_mut(owner).decls.rewrite().retain(keep);
    }

    /// Renames symbol `id`. Its owner's name index is dropped (and, on a
    /// fork or view, the owner is copied out of the shared base, whose
    /// index other tables read).
    pub fn rename(&mut self, id: SymbolId, name: Name) {
        self.sym_mut(id).name = name;
        let owner = self.sym(id).owner;
        if owner.exists() {
            self.raw_mut(owner).decls.by_name.take();
        }
    }

    /// Creates a new term symbol (val/var/def/param/local) owned by `owner`
    /// and enters it into the owner's declarations.
    pub fn new_term(&mut self, owner: SymbolId, name: Name, flags: Flags, info: Type) -> SymbolId {
        self.alloc_new(
            name,
            flags,
            owner,
            SymKind::Term,
            info,
            TypeList::new(),
            Vec::new(),
        )
    }

    /// Creates a new class (or trait, if `flags` contains `TRAIT`).
    pub fn new_class(
        &mut self,
        owner: SymbolId,
        name: Name,
        flags: Flags,
        parents: impl Into<TypeList>,
        tparams: Vec<SymbolId>,
    ) -> SymbolId {
        self.alloc_new(
            name,
            flags,
            owner,
            SymKind::Class,
            Type::NoType,
            parents.into(),
            tparams,
        )
    }

    /// Creates a type-parameter symbol owned by `owner`.
    pub fn new_type_param(&mut self, owner: SymbolId, name: Name) -> SymbolId {
        let flags = Flags::TYPE_PARAM;
        self.alloc_new(
            name,
            flags,
            owner,
            SymKind::TypeParam,
            Type::Any,
            TypeList::new(),
            Vec::new(),
        )
    }

    /// Creates a label symbol for jumps.
    pub fn new_label(&mut self, owner: SymbolId, name: Name, info: Type) -> SymbolId {
        let flags = Flags::LABEL | Flags::SYNTHETIC;
        self.alloc_new(
            name,
            flags,
            owner,
            SymKind::Label,
            info,
            TypeList::new(),
            Vec::new(),
        )
    }

    /// Creates a package symbol.
    pub fn new_package(&mut self, owner: SymbolId, name: Name) -> SymbolId {
        let flags = Flags::PACKAGE;
        self.alloc_new(
            name,
            flags,
            owner,
            SymKind::Package,
            Type::NoType,
            TypeList::new(),
            Vec::new(),
        )
    }

    /// Allocates a symbol whose info and parents are written at the
    /// current period.
    #[allow(clippy::too_many_arguments)]
    fn alloc_new(
        &mut self,
        name: Name,
        flags: Flags,
        owner: SymbolId,
        kind: SymKind,
        info: Type,
        parents: TypeList,
        tparams: Vec<SymbolId>,
    ) -> SymbolId {
        let period = self.period;
        self.alloc(SymbolData::new(
            name, flags, owner, kind, info, parents, tparams, period,
        ))
    }

    /// Read access to a symbol's data. On a worker fork or splice view,
    /// mutated pre-existing symbols resolve from the copy-on-write overlay;
    /// everything else reads the shared frozen base.
    ///
    /// # Panics
    ///
    /// Panics if `id` is `NONE` or out of range.
    #[inline]
    pub fn sym(&self, id: SymbolId) -> &SymbolData {
        assert!(id.exists(), "dereferencing SymbolId::NONE");
        if let Some(ov) = &self.overlay {
            if let Some(d) = self.overlay_sym(ov, id) {
                return d;
            }
        }
        let i = id.0 as usize;
        if i < self.syms.len() {
            &self.syms[i]
        } else {
            self.shard_sym(id)
        }
    }

    /// A fork's or view's overlay entry for `id`, if it has one. Base-arena ids are
    /// tested against the `overlaid_base` bitset first, so reads of
    /// untouched base symbols skip the map.
    #[inline]
    fn overlay_sym<'a>(
        &self,
        ov: &'a BTreeMap<u32, Arc<SymbolData>>,
        id: SymbolId,
    ) -> Option<&'a SymbolData> {
        let i = id.0 as usize;
        if i < self.syms.len() {
            let word = self.overlaid_base.get(i / 64).copied().unwrap_or(0);
            if word & (1 << (i % 64)) == 0 {
                return None;
            }
        }
        ov.get(&id.0).map(|d| &**d)
    }

    /// Out-of-base lookup: the table's own shards, then adopted shards.
    #[cold]
    fn shard_sym(&self, id: SymbolId) -> &SymbolData {
        if let Some(sh) = self.shards.iter().find(|s| s.contains(id.0)) {
            return &sh.syms[(id.0 - sh.start) as usize];
        }
        match find_shard(&self.adopted, id.0) {
            Some(at) => {
                let sh = &self.adopted[at];
                &sh.syms[(id.0 - sh.start) as usize]
            }
            None => panic!("dangling {id:?} (not in base, own shard, or any adopted shard)"),
        }
    }

    /// Mutable access to a symbol's data, for a write at the current
    /// period. The symbol's info and parents are first brought up to the
    /// current period (the transformers between their write period and now
    /// are applied and stored), so whatever the caller writes is recorded
    /// at the current period and later transformers still apply on top of
    /// it. The symbol's memo is cleared.
    ///
    /// On a worker fork or splice view, the first mutation of any pre-fork
    /// symbol — base arena **or** an adopted shard — copies it into the
    /// table's private overlay and mutates the copy; the shared
    /// frozen base is never written, which is what makes the O(1) fork
    /// sound and gives [`SymbolTable::into_delta`] its fork-time snapshots
    /// for free. Only the fork's own shards mutate in place (they ship back
    /// wholesale).
    ///
    /// # Panics
    ///
    /// Panics if `id` is `NONE` or out of range.
    pub fn sym_mut(&mut self, id: SymbolId) -> &mut SymbolData {
        let period = self.period;
        let seen = (self.sym(id).period < period).then(|| self.seen_at(id, period).into_owned());
        let d = self.raw_mut(id);
        if let Some((info, parents)) = seen {
            d.info = info;
            d.parents = parents;
            d.period = period;
        }
        d.memo = InfoMemo::default();
        d
    }

    /// Installs the info transformers [`SymbolTable::info_at`] applies.
    /// Forks inherit the plan and the current period.
    pub fn set_info_plan(&mut self, plan: Arc<InfoPlan>) {
        self.period = self.period.min(plan.len() as u8);
        self.plan = plan;
    }

    /// The installed info transformers.
    pub fn info_plan(&self) -> &Arc<InfoPlan> {
        &self.plan
    }

    /// Moves the table to `period`. Executors call this at every phase
    /// group boundary.
    ///
    /// # Panics
    ///
    /// Panics if `period` exceeds the installed plan's length.
    pub fn set_period(&mut self, period: u8) {
        assert!(
            usize::from(period) <= self.plan.len(),
            "period beyond the info plan"
        );
        self.period = period;
    }

    /// The symbol's info as seen at the current period.
    #[inline]
    pub fn info(&self, id: SymbolId) -> Cow<'_, Type> {
        self.info_at(id, self.period)
    }

    /// The symbol's parents as seen at the current period.
    #[inline]
    pub fn parents(&self, id: SymbolId) -> Cow<'_, [Type]> {
        self.parents_at(id, self.period)
    }

    /// The symbol's info as seen at `period` — Dotty's denotation of a
    /// symbol at a phase, computed on demand instead of by rewriting the
    /// whole table when a phase starts.
    ///
    /// # Periods, memoization and invalidation
    ///
    /// * A *period* counts the info transformers (see [`InfoTransform`])
    ///   whose phase group has started. Periods are keyed by group start,
    ///   not by phase position: every member of a fused group sees the
    ///   infos of every transformer in that group, exactly as the group's
    ///   `prepare_unit` hooks would have produced them.
    /// * Each symbol records the period its info and parents were written
    ///   at (creation, or the last [`SymbolTable::sym_mut`]). The value at
    ///   `period` is the stored one with the transformers from the write
    ///   period up to `period` applied; at or below the write period it is
    ///   the stored value itself.
    /// * Results are memoized on the symbol, one slot per transformer, in
    ///   whichever table stores the symbol. A fork or splice view reading a
    ///   pre-existing symbol fills the memo in the shared frozen base (or
    ///   the shared shard, or the delta value a view aliases), so sibling
    ///   forks and later compiles over the same base reuse it; reads never
    ///   copy a symbol into an overlay.
    /// * [`SymbolTable::sym_mut`] clears the symbol's memo; clones of a
    ///   symbol start with an empty one; slots computed under a different
    ///   plan are ignored (the value is then recomputed on every read).
    #[inline]
    pub fn info_at(&self, id: SymbolId, period: u8) -> Cow<'_, Type> {
        let d = self.sym(id);
        if self.stored_is_current(d, period) {
            return Cow::Borrowed(&d.info);
        }
        match self.seen_later(d, period) {
            Seen::Borrowed(info, _) => Cow::Borrowed(info),
            Seen::Owned(info, _) => Cow::Owned(info),
        }
    }

    /// The symbol's parents as seen at `period` (see
    /// [`SymbolTable::info_at`]).
    #[inline]
    pub fn parents_at(&self, id: SymbolId, period: u8) -> Cow<'_, [Type]> {
        let d = self.sym(id);
        if self.stored_is_current(d, period) {
            return Cow::Borrowed(&d.parents);
        }
        match self.seen_later(d, period) {
            Seen::Borrowed(_, parents) => Cow::Borrowed(parents),
            Seen::Owned(_, parents) => Cow::Owned(parents.to_vec()),
        }
    }

    /// True when no transformer applies between `d`'s write period and
    /// `period`: the stored info and parents are the answer.
    #[inline]
    fn stored_is_current(&self, d: &SymbolData, period: u8) -> bool {
        usize::from(period).min(self.plan.len()) <= usize::from(d.period)
    }

    fn seen_at(&self, id: SymbolId, period: u8) -> Seen<'_> {
        let d = self.sym(id);
        if self.stored_is_current(d, period) {
            return Seen::Borrowed(&d.info, &d.parents);
        }
        self.seen_later(d, period)
    }

    /// The memoized path of [`SymbolTable::info_at`], for a `period` above
    /// `d`'s write period.
    fn seen_later<'a>(&'a self, d: &'a SymbolData, period: u8) -> Seen<'a> {
        let from = usize::from(d.period);
        let upto = usize::from(period).min(self.plan.len());
        let Some(slots) = d.memo.slots(&self.plan) else {
            let mut seen = Seen::Borrowed(&d.info, &d.parents);
            for f in &self.plan.transforms[from..upto] {
                let (info, parents) = seen.get();
                if let Some((info, parents)) = f(d, info, parents, self) {
                    seen = Seen::Owned(info, parents);
                }
            }
            return seen;
        };
        match self.memo_slot(d, slots, from, upto - 1) {
            Some(seen) => Seen::Borrowed(&seen.0, &seen.1),
            None => Seen::Borrowed(&d.info, &d.parents),
        }
    }

    /// Fills and returns memo slot `k` (see [`MemoSlot`]) of `d`, whose
    /// stored data was written at period `from <= k`.
    fn memo_slot<'a>(
        &self,
        d: &SymbolData,
        slots: &'a [MemoSlot],
        from: usize,
        k: usize,
    ) -> Option<&'a (Type, TypeList)> {
        slots[k]
            .get_or_init(|| {
                let below = if k == from {
                    None
                } else {
                    self.memo_slot(d, slots, from, k - 1)
                };
                let (info, parents) = below.map_or((&d.info, &d.parents), |b| (&b.0, &b.1));
                match (self.plan.transforms[k])(d, info, parents, self) {
                    Some(seen) => Some(Box::new(seen)),
                    None => below.map(|b| Box::new(b.clone())),
                }
            })
            .as_deref()
    }

    /// Mutable access to a symbol's stored data as written: the
    /// copy-on-write resolution of [`SymbolTable::sym_mut`] without its
    /// period bookkeeping.
    fn raw_mut(&mut self, id: SymbolId) -> &mut SymbolData {
        assert!(id.exists(), "dereferencing SymbolId::NONE");
        let SymbolTable {
            syms,
            shards,
            adopted,
            overlay,
            overlaid_base,
            ..
        } = self;
        // Fork-created symbols (own shards) mutate in place on both table
        // kinds; their ids are disjoint from everything pre-fork.
        if let Some(sh) = shards.iter_mut().find(|s| s.contains(id.0)) {
            return &mut sh.syms[(id.0 - sh.start) as usize];
        }
        if let Some(ov) = overlay {
            // Worker fork or splice view touching a pre-existing symbol:
            // copy-on-write into the overlay.
            // An entry a view aliases from a delta is copied on first write.
            let entry = ov.entry(id.0).or_insert_with(|| {
                let i = id.0 as usize;
                mark_overlaid(overlaid_base, syms.len(), i);
                if i < syms.len() {
                    Arc::new(syms[i].clone())
                } else {
                    match find_shard(adopted, id.0) {
                        Some(at) => {
                            let sh = &adopted[at];
                            Arc::new(sh.syms[(id.0 - sh.start) as usize].clone())
                        }
                        None => {
                            panic!("dangling {id:?} (not in base, own shard, or any adopted shard)")
                        }
                    }
                }
            });
            return Arc::make_mut(entry);
        }
        // Ordinary table: mutate the base arena or an adopted shard via
        // copy-on-write `Arc`s (free while no fork or view aliases them).
        let i = id.0 as usize;
        if i < syms.len() {
            return &mut Arc::make_mut(syms)[i];
        }
        // An adopted shard may still be shared with the delta it came from
        // (or a view); only that shard is copied.
        let adopted = Arc::make_mut(adopted);
        match find_shard(adopted, id.0) {
            Some(at) => {
                let sh = Arc::make_mut(&mut adopted[at]);
                &mut sh.syms[(id.0 - sh.start) as usize]
            }
            None => panic!("dangling {id:?} (not in base, own shard, or any adopted shard)"),
        }
    }

    /// The monomorphic class type of `cls` (empty type arguments).
    pub fn class_type(&self, cls: SymbolId) -> Type {
        Type::Class {
            sym: cls,
            targs: TypeList::new(),
        }
    }

    /// The fully-applied class type of `cls` with its own type parameters as
    /// arguments (the "this type" for checking purposes).
    pub fn self_type(&self, cls: SymbolId) -> Type {
        let tps = &self.sym(cls).tparams;
        Type::Class {
            sym: cls,
            targs: tps.iter().map(|&t| Type::TypeParam(t)).collect(),
        }
    }

    /// The innermost enclosing class of `sym` (or `NONE`).
    pub fn enclosing_class(&self, sym: SymbolId) -> SymbolId {
        let mut cur = sym;
        while cur.exists() {
            if self.sym(cur).kind == SymKind::Class {
                return cur;
            }
            cur = self.sym(cur).owner;
        }
        SymbolId::NONE
    }

    /// Class linearization: the class itself followed by all base classes,
    /// traits linearized right-to-left, duplicates keeping the first
    /// occurrence.
    pub fn linearization(&self, cls: SymbolId) -> Vec<SymbolId> {
        let mut out = vec![cls];
        let parents: Vec<SymbolId> = self
            .parents(cls)
            .iter()
            .filter_map(|p| p.class_sym())
            .collect();
        for p in parents.iter().rev() {
            for s in self.linearization(*p) {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// True if `sub` is `sup` or inherits from it (symbol level).
    pub fn is_subclass(&self, sub: SymbolId, sup: SymbolId) -> bool {
        self.linearization(sub).contains(&sup)
    }

    /// The instantiation of base class `target` as seen from class type `t`,
    /// or `None` if `t` does not derive from `target`.
    pub fn base_type(&self, t: &Type, target: SymbolId) -> Option<Type> {
        match t {
            Type::Class { sym, targs } => {
                if *sym == target {
                    return Some(t.clone());
                }
                let tparams = &self.sym(*sym).tparams;
                for parent in self.parents(*sym).iter() {
                    let seen = parent.subst(tparams, targs);
                    if let Some(bt) = self.base_type(&seen, target) {
                        return Some(bt);
                    }
                }
                None
            }
            Type::Function { params, ret } => {
                let n = params.len();
                if n < self.builtins.function_classes.len() {
                    let cls = self.builtins.function_classes[n];
                    let targs = function_targs(params, ret);
                    self.base_type(&Type::Class { sym: cls, targs }, target)
                } else {
                    None
                }
            }
            Type::TermRef(s) => self.base_type(&self.widen(t.clone()), target).or_else(|| {
                let _ = s;
                None
            }),
            _ => None,
        }
    }

    /// Widens singleton types to their underlying type.
    pub fn widen(&self, t: Type) -> Type {
        match t {
            Type::TermRef(s) => {
                let info = self.info(s).into_owned();
                self.widen(info)
            }
            other => other,
        }
    }

    /// Structural subtyping with nominal class subtyping (invariant type
    /// arguments, contravariant function parameters).
    pub fn is_subtype(&self, a: &Type, b: &Type) -> bool {
        if a == b {
            return true;
        }
        match (a, b) {
            (Type::Error, _) | (_, Type::Error) => true,
            (_, Type::Any) => true,
            (Type::Nothing, _) => true,
            (Type::Null, t) if t.is_ref_like() => true,
            (Type::TermRef(_), _) => self.is_subtype(&self.widen(a.clone()), b),
            (_, Type::AnyRef) if a.is_ref_like() => true,
            (Type::Or(x, y), _) => self.is_subtype(x, b) && self.is_subtype(y, b),
            (_, Type::Or(x, y)) => self.is_subtype(a, x) || self.is_subtype(a, y),
            (Type::Class { .. }, Type::Class { sym: bs, targs: bt }) => {
                match self.base_type(a, *bs) {
                    Some(Type::Class { targs: at, .. }) => at == *bt,
                    _ => false,
                }
            }
            (Type::Function { .. }, Type::Class { sym: bs, .. }) => match self.base_type(a, *bs) {
                Some(Type::Class { targs: at, .. }) => {
                    // Compare against the base instance; invariant args.
                    match self.base_type(a, *bs) {
                        Some(Type::Class { targs, .. }) => targs == at,
                        _ => false,
                    }
                }
                _ => false,
            },
            (
                Type::Function {
                    params: pa,
                    ret: ra,
                },
                Type::Function {
                    params: pb,
                    ret: rb,
                },
            ) => {
                pa.len() == pb.len()
                    && pb
                        .iter()
                        .zip(pa.iter())
                        .all(|(b_p, a_p)| self.is_subtype(b_p, a_p))
                    && self.is_subtype(ra, rb)
            }
            (Type::Array(ea), Type::Array(eb)) => ea == eb,
            (Type::ByName(x), Type::ByName(y)) => self.is_subtype(x, y),
            (Type::ByName(x), _) => self.is_subtype(x, b),
            (Type::Repeated(x), Type::Repeated(y)) => self.is_subtype(x, y),
            _ => false,
        }
    }

    /// Least upper bound, approximated: exact when one side subsumes the
    /// other; otherwise the most specific common base class, falling back to
    /// `AnyRef`/`Any`.
    pub fn lub(&self, a: &Type, b: &Type) -> Type {
        if self.is_subtype(a, b) {
            return b.clone();
        }
        if self.is_subtype(b, a) {
            return a.clone();
        }
        let wa = self.widen(a.clone());
        let wb = self.widen(b.clone());
        if let (Type::Class { sym: sa, .. }, Type::Class { .. }) = (&wa, &wb) {
            for base in self.linearization(*sa) {
                if let Some(bt) = self.base_type(&wa, base) {
                    if self.is_subtype(&wb, &bt) {
                        return bt;
                    }
                }
            }
        }
        if wa.is_ref_like() && wb.is_ref_like() {
            Type::AnyRef
        } else {
            Type::Any
        }
    }

    /// Type erasure (the `Erasure` phase's type map):
    /// * type parameters erase to `Any`;
    /// * class types lose their type arguments;
    /// * function types erase to the corresponding `FunctionN` class;
    /// * by-name types erase to `Function0`;
    /// * repeated types erase to arrays;
    /// * method types flatten their parameter lists into one;
    /// * polymorphic methods lose their binders;
    /// * union members erase to their join.
    ///
    /// A type that erasure leaves unchanged is returned shared (a clone of
    /// `t`), and so is every unchanged part of a type it rebuilds.
    pub fn erase(&self, t: &Type) -> Type {
        self.erase_changed(t).unwrap_or_else(|| t.clone())
    }

    /// The erasure of `t`, or `None` when it equals `t` itself. Exact, not
    /// [`Type::is_erased`]: a method with zero parameter lists still erases
    /// to one empty list, and a `TermRef` still widens.
    pub fn erase_changed(&self, t: &Type) -> Option<Type> {
        let class = |sym| Type::Class {
            sym,
            targs: TypeList::new(),
        };
        Some(match t {
            Type::TypeParam(_) => Type::Any,
            Type::TermRef(_) => self.erase(&self.widen(t.clone())),
            Type::Class { targs, .. } if targs.is_empty() => return None,
            Type::Class { sym, .. } => class(*sym),
            Type::Function { params, .. } => {
                let n = params.len().min(self.builtins.function_classes.len() - 1);
                class(self.builtins.function_classes[n])
            }
            Type::ByName(_) => class(self.builtins.function_classes[0]),
            Type::Repeated(e) => Type::Array(self.erase_shared(e)),
            Type::Array(e) => Type::Array(Arc::new(self.erase_changed(e)?)),
            Type::Method { params, ret } => {
                let flat_changed =
                    params.len() != 1 || params[0].iter().any(|p| self.erase_changed(p).is_some());
                let ret_changed = self.erase_changed(ret).is_some();
                if !flat_changed && !ret_changed {
                    return None;
                }
                let flat: TypeList = match &params[..] {
                    [ps] if !flat_changed => ps.clone(),
                    [ps] => ps.iter().map(|p| self.erase(p)).collect(),
                    _ => params.iter().flatten().map(|p| self.erase(p)).collect(),
                };
                Type::Method {
                    params: [flat].into(),
                    ret: self.erase_shared(ret),
                }
            }
            Type::Poly { underlying, .. } => self.erase(underlying),
            Type::Or(x, y) => {
                let ex = self.erase(x);
                let ey = self.erase(y);
                if ex == ey {
                    ex
                } else if ex.is_ref_like() && ey.is_ref_like() {
                    self.lub(&ex, &ey)
                } else {
                    Type::Any
                }
            }
            _ => return None,
        })
    }

    /// [`SymbolTable::erase`] of a shared child: the same handle when
    /// erasure leaves it unchanged.
    fn erase_shared(&self, t: &Arc<Type>) -> Arc<Type> {
        match self.erase_changed(t) {
            Some(e) => Arc::new(e),
            None => Arc::clone(t),
        }
    }

    /// Looks up a declaration of `name` directly in `owner`: the first
    /// member with that name, in declaration order.
    pub fn decl(&self, owner: SymbolId, name: Name) -> Option<SymbolId> {
        let decls = &self.sym(owner).decls;
        if decls.list.len() < Decls::INDEX_FROM {
            return self.scan_decls(&decls.list, name);
        }
        let ix = decls.by_name.get_or_init(|| {
            let mut ix = NameIndex::with_capacity(decls.list.len());
            for &d in &decls.list {
                ix.entry(self.sym(d).name).or_insert(d);
            }
            Box::new(ix)
        });
        let found = ix.get(&name).copied();
        debug_assert_eq!(
            found,
            self.scan_decls(&decls.list, name),
            "stale name index on {owner:?}"
        );
        found
    }

    fn scan_decls(&self, decls: &[SymbolId], name: Name) -> Option<SymbolId> {
        decls.iter().copied().find(|&d| self.sym(d).name == name)
    }

    /// Member lookup on a type: walks the linearization of the underlying
    /// class and returns the first member named `name` together with its info
    /// *as seen from* `t` (type arguments substituted).
    pub fn member(&self, t: &Type, name: Name) -> Option<(SymbolId, Type)> {
        match t {
            Type::TermRef(_) => self.member(&self.widen(t.clone()), name),
            Type::Class { sym, .. } => {
                for base in self.linearization(*sym) {
                    if let Some(d) = self.decl(base, name) {
                        let info = self.info(d).into_owned();
                        let seen = match self.base_type(t, base) {
                            Some(Type::Class { targs, .. }) => {
                                let tps = self.sym(base).tparams.clone();
                                if tps.len() == targs.len() {
                                    info.subst(&tps, &targs)
                                } else {
                                    info
                                }
                            }
                            _ => info,
                        };
                        return Some((d, seen));
                    }
                }
                self.universal_member(name)
            }
            Type::Function { params, ret } => {
                let n = params.len();
                if n < self.builtins.function_classes.len() {
                    let targs = function_targs(params, ret);
                    self.member(
                        &Type::Class {
                            sym: self.builtins.function_classes[n],
                            targs,
                        },
                        name,
                    )
                } else {
                    None
                }
            }
            Type::Any
            | Type::AnyRef
            | Type::Int
            | Type::Boolean
            | Type::Unit
            | Type::Str
            | Type::Array(_) => self.universal_member(name),
            Type::Or(x, _) => {
                // Selections on union types are the Splitter phase's business;
                // for lookup we use the left member (checked symmetric by the
                // typer).
                self.member(x, name)
            }
            _ => None,
        }
    }

    fn universal_member(&self, name: Name) -> Option<(SymbolId, Type)> {
        self.decl(self.builtins.any_class, name)
            .map(|d| (d, self.info(d).into_owned()))
    }

    /// The member of a parent class that `m` (a member of `cls`) overrides,
    /// if any: same name, same number of value parameters.
    pub fn overridden(&self, cls: SymbolId, m: SymbolId) -> Option<SymbolId> {
        let name = self.sym(m).name;
        let nparams = self.info(m).param_count();
        for base in self.linearization(cls).into_iter().skip(1) {
            if let Some(d) = self.decl(base, name) {
                if self.info(d).param_count() == nparams {
                    return Some(d);
                }
            }
        }
        None
    }

    /// All symbols whose owner is `owner` (snapshot).
    pub fn decls_of(&self, owner: SymbolId) -> Vec<SymbolId> {
        self.sym(owner).decls().to_vec()
    }

    /// Human-readable qualified name for diagnostics.
    pub fn full_name(&self, sym: SymbolId) -> String {
        if !sym.exists() {
            return "<none>".to_owned();
        }
        let mut names = vec![self.sym(sym).name];
        let mut owner = self.sym(sym).owner;
        while owner.exists() && owner != self.builtins.root_pkg {
            names.push(self.sym(owner).name);
            owner = self.sym(owner).owner;
        }
        let mut out = String::new();
        for (i, n) in names.iter().rev().enumerate() {
            if i > 0 {
                out.push('.');
            }
            out.push_str(n.as_str());
        }
        out
    }
}

/// The type arguments of the `FunctionN` class a function type stands
/// for: its parameter types, then its result type.
fn function_targs(params: &TypeList, ret: &Type) -> TypeList {
    params.iter().chain([ret]).cloned().collect()
}

impl Default for SymbolTable {
    fn default() -> SymbolTable {
        SymbolTable::new()
    }
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymbolTable({} symbols)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (SymbolTable, SymbolId, SymbolId, SymbolId) {
        // trait A; class B extends A; class C extends B
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let a = tab.new_class(
            pkg,
            Name::from("A"),
            Flags::TRAIT,
            vec![Type::AnyRef],
            vec![],
        );
        let b = {
            let at = tab.class_type(a);
            tab.new_class(pkg, Name::from("B"), Flags::EMPTY, vec![at], vec![])
        };
        let c = {
            let bt = tab.class_type(b);
            tab.new_class(pkg, Name::from("C"), Flags::EMPTY, vec![bt], vec![])
        };
        (tab, a, b, c)
    }

    #[test]
    fn linearization_orders_self_first() {
        let (tab, a, b, c) = fixture();
        let lin = tab.linearization(c);
        assert_eq!(lin[0], c);
        assert!(lin.contains(&b));
        assert!(lin.contains(&a));
        let pos = |s| lin.iter().position(|&x| x == s).unwrap();
        assert!(pos(c) < pos(b) && pos(b) < pos(a));
    }

    #[test]
    fn subclass_and_subtype_follow_parents() {
        let (tab, a, _b, c) = fixture();
        assert!(tab.is_subclass(c, a));
        assert!(!tab.is_subclass(a, c));
        assert!(tab.is_subtype(&tab.class_type(c), &tab.class_type(a)));
        assert!(tab.is_subtype(&tab.class_type(c), &Type::AnyRef));
        assert!(tab.is_subtype(&tab.class_type(c), &Type::Any));
        assert!(!tab.is_subtype(&Type::Int, &Type::AnyRef));
    }

    #[test]
    fn generic_base_type_substitutes_args() {
        // class Box[T]; class IntBox extends Box[Int]
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let box_cls = tab.new_class(
            pkg,
            Name::from("Box"),
            Flags::EMPTY,
            vec![Type::AnyRef],
            vec![],
        );
        let t = tab.new_type_param(box_cls, Name::from("T"));
        tab.sym_mut(box_cls).tparams = vec![t];
        let int_box = tab.new_class(
            pkg,
            Name::from("IntBox"),
            Flags::EMPTY,
            vec![Type::Class {
                sym: box_cls,
                targs: [Type::Int].into(),
            }],
            vec![],
        );
        let bt = tab
            .base_type(&tab.class_type(int_box), box_cls)
            .expect("IntBox derives Box");
        assert_eq!(
            bt,
            Type::Class {
                sym: box_cls,
                targs: [Type::Int].into()
            }
        );
        // Member as seen from IntBox substitutes T := Int.
        let v = tab.new_term(
            box_cls,
            Name::from("value"),
            Flags::EMPTY,
            Type::TypeParam(t),
        );
        let (found, seen) = tab
            .member(&tab.class_type(int_box), Name::from("value"))
            .unwrap();
        assert_eq!(found, v);
        assert_eq!(seen, Type::Int);
    }

    #[test]
    fn lub_finds_common_base() {
        let (tab, a, b, c) = fixture();
        let l = tab.lub(&tab.class_type(c), &tab.class_type(b));
        assert_eq!(l, tab.class_type(b));
        let l2 = tab.lub(&tab.class_type(c), &tab.class_type(a));
        assert_eq!(l2, tab.class_type(a));
        assert_eq!(tab.lub(&Type::Int, &Type::Str), Type::Any);
        assert_eq!(tab.lub(&Type::Nothing, &Type::Int), Type::Int);
    }

    #[test]
    fn erasure_produces_erased_types() {
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let cls = tab.new_class(
            pkg,
            Name::from("Box"),
            Flags::EMPTY,
            vec![Type::AnyRef],
            vec![],
        );
        let t = tab.new_type_param(cls, Name::from("T"));
        tab.sym_mut(cls).tparams = vec![t];
        let generic = Type::Class {
            sym: cls,
            targs: [Type::Int].into(),
        };
        assert!(tab.erase(&generic).is_erased());
        let f = Type::Function {
            params: [Type::Int].into(),
            ret: Arc::new(Type::Boolean),
        };
        let ef = tab.erase(&f);
        assert_eq!(ef.class_sym(), Some(tab.builtins().function_classes[1]));
        let m = Type::Method {
            params: [
                TypeList::from([Type::TypeParam(t)]),
                TypeList::from([Type::Int]),
            ]
            .into(),
            ret: Arc::new(Type::Repeated(Arc::new(Type::TypeParam(t)))),
        };
        let em = tab.erase(&m);
        assert!(em.is_erased(), "{em}");
        assert_eq!(em.param_lists().len(), 1);
    }

    #[test]
    fn function_types_subtype_function_classes() {
        let tab = SymbolTable::new();
        let f1 = Type::Function {
            params: [Type::Int].into(),
            ret: Arc::new(Type::Boolean),
        };
        let cls = Type::Class {
            sym: tab.builtins().function_classes[1],
            targs: [Type::Int, Type::Boolean].into(),
        };
        assert!(tab.is_subtype(&f1, &cls));
        let apply = tab.member(&f1, std_names::apply()).expect("apply member");
        assert_eq!(
            apply.1,
            Type::Method {
                params: [TypeList::from([Type::Int])].into(),
                ret: Arc::new(Type::Boolean)
            }
        );
    }

    #[test]
    fn overridden_member_is_found() {
        let (mut tab, a, _b, c) = fixture();
        let base_m = tab.new_term(
            a,
            Name::from("m"),
            Flags::METHOD,
            Type::Method {
                params: [TypeList::from([Type::Int])].into(),
                ret: Arc::new(Type::Int),
            },
        );
        let sub_m = tab.new_term(
            c,
            Name::from("m"),
            Flags::METHOD | Flags::OVERRIDE,
            Type::Method {
                params: [TypeList::from([Type::Int])].into(),
                ret: Arc::new(Type::Int),
            },
        );
        assert_eq!(tab.overridden(c, sub_m), Some(base_m));
    }

    #[test]
    fn full_name_walks_owners() {
        let (tab, _a, _b, c) = fixture();
        assert_eq!(tab.full_name(c), "C");
        assert_eq!(tab.full_name(SymbolId::NONE), "<none>");
    }

    #[test]
    fn union_subtyping() {
        let tab = SymbolTable::new();
        let u = Type::Or(Arc::new(Type::Int), Arc::new(Type::Str));
        assert!(tab.is_subtype(&Type::Int, &u));
        assert!(tab.is_subtype(&Type::Str, &u));
        assert!(tab.is_subtype(&u, &Type::Any));
        assert!(!tab.is_subtype(&u, &Type::Int));
    }

    /// A generous growth plan for tests that don't exercise overflow.
    fn roomy_growth(start: u32, capacity: u32) -> ShardGrowth {
        ShardGrowth {
            next_start: start + capacity,
            step: capacity,
            capacity,
        }
    }

    #[test]
    fn worker_fork_and_adopt_round_trip() {
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let base_len = tab.id_ceiling();

        // Run 1: worker creates a shard symbol and mutates a base symbol.
        let mut fork = tab.fork_for_worker(base_len + 100, 50, roomy_growth(base_len + 150, 50));
        let c = fork.new_class(
            pkg,
            Name::from("W1"),
            Flags::EMPTY,
            vec![Type::AnyRef],
            vec![],
        );
        assert_eq!(c.index(), base_len + 100, "shard ids start at the carve");
        fork.sym_mut(pkg).flags |= Flags::SYNTHETIC;
        tab.adopt(&fork.into_delta());
        assert_eq!(tab.sym(c).name, Name::from("W1"), "shard adopted verbatim");
        assert!(
            tab.sym(pkg).flags.is(Flags::SYNTHETIC),
            "base mutation merged"
        );
        assert!(
            tab.sym(pkg).decls().contains(&c),
            "owner decls append merged"
        );
        assert!(tab.ids().any(|i| i == c), "ids() covers adopted shards");

        // Run 2: a later fork mutates the symbol that lives in run 1's
        // adopted shard — the overlay must carry it back (regression:
        // adopted-shard mutations were once silently dropped at merge).
        let start2 = tab.id_ceiling() + 100;
        let mut fork2 = tab.fork_for_worker(start2, 50, roomy_growth(start2, 50));
        fork2.sym_mut(c).flags |= Flags::LIFTED;
        tab.adopt(&fork2.into_delta());
        assert!(
            tab.sym(c).flags.is(Flags::LIFTED),
            "adopted-shard mutation survives the merge"
        );
    }

    #[test]
    fn renames_keep_a_large_scopes_name_index_current() {
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let outer = tab.new_class(pkg, Name::from("Outer"), Flags::EMPTY, vec![], vec![]);
        for i in 0..Decls::INDEX_FROM {
            tab.new_term(
                outer,
                Name::intern(&format!("m{i}")),
                Flags::EMPTY,
                Type::Int,
            );
        }
        let inner = tab.new_class(outer, Name::from("Inner"), Flags::EMPTY, vec![], vec![]);
        let (old, new) = (Name::from("Inner"), Name::from("Outer$Inner"));
        // The lookup builds the index; the rename must not leave it stale.
        assert_eq!(tab.decl(outer, old), Some(inner));
        let view = tab.splice_view();
        tab.rename(inner, new);
        assert_eq!(tab.decl(outer, old), None);
        assert_eq!(tab.decl(outer, new), Some(inner));
        // A view over the pre-rename base still sees the old name.
        assert_eq!(view.decl(outer, old), Some(inner));
        drop(view);

        // The same through a worker fork and the merge: the fork renames
        // back, its shared base keeps its own index, and the merged table
        // and a view adopting the delta see the fork's name.
        assert_eq!(tab.decl(outer, new), Some(inner));
        let start = tab.id_ceiling() + 100;
        let mut fork = tab.fork_for_worker(start, 50, roomy_growth(start + 50, 50));
        fork.rename(inner, old);
        assert_eq!(fork.decl(outer, old), Some(inner));
        assert_eq!(fork.decl(outer, new), None);
        assert_eq!(tab.decl(outer, new), Some(inner), "the base is untouched");
        let delta = fork.into_delta();
        let mut view = tab.splice_view();
        view.adopt(&delta);
        assert_eq!(view.decl(outer, old), Some(inner));
        assert_eq!(view.decl(outer, new), None);
        // With the view gone the table merges in place, keeping the index
        // its lookups built.
        drop(view);
        tab.adopt(&delta);
        assert_eq!(tab.decl(outer, old), Some(inner));
        assert_eq!(tab.decl(outer, new), None);
    }

    #[test]
    fn fork_is_copy_on_write_not_a_deep_copy() {
        // Build a base table with a few thousand symbols so a deep copy
        // would be unmistakable, then assert the fork copies *nothing*: it
        // aliases the same frozen arena (pointer equality), and stays
        // aliased until it actually mutates a pre-fork symbol.
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        for i in 0..4000 {
            tab.new_term(pkg, Name::intern(&format!("t{i}")), Flags::EMPTY, Type::Int);
        }
        let start = tab.id_ceiling() + 10;
        let fork = tab.fork_for_worker(start, 100, roomy_growth(start + 100, 100));
        assert!(
            fork.base_shared_with(&tab),
            "fork must alias the origin's base arena, not copy it"
        );

        // Reads don't break sharing; writes to pre-fork symbols go to the
        // overlay, also without touching the shared base.
        let mut fork = fork;
        let probe = SymbolId::from_index(5);
        let before = fork.sym(probe).flags;
        fork.sym_mut(probe).flags |= Flags::SYNTHETIC;
        assert!(
            fork.base_shared_with(&tab),
            "COW overlay keeps the base shared"
        );
        assert_eq!(
            tab.sym(probe).flags,
            before,
            "origin never sees fork writes"
        );
        assert!(fork.sym(probe).flags.is(Flags::SYNTHETIC));

        // The origin resumes cheap in-place mutation after the fork dies.
        tab.adopt(&fork.into_delta());
        assert!(tab.sym(probe).flags.is(Flags::SYNTHETIC), "merge lands");
    }

    /// Calls of [`counting_transform`]: how often an info was derived
    /// rather than read from a memo. Only the splice-view memo test uses it.
    static DERIVATIONS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    /// Rewrites `Int` infos to `Boolean`, counting every call.
    fn counting_transform(
        _sym: &SymbolData,
        info: &Type,
        parents: &TypeList,
        _symbols: &SymbolTable,
    ) -> Option<(Type, TypeList)> {
        DERIVATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (*info == Type::Int).then(|| (Type::Boolean, parents.clone()))
    }

    #[test]
    fn splice_views_keep_info_memos_and_writes_still_clear_them() {
        let derivations = || DERIVATIONS.load(std::sync::atomic::Ordering::Relaxed);
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let base: Vec<SymbolId> = (0..40)
            .map(|i| tab.new_term(pkg, Name::intern(&format!("b{i}")), Flags::EMPTY, Type::Int))
            .collect();

        // A delta that writes one base symbol, appends to the root package
        // and creates shard symbols — the shape of a unit's cached delta.
        let start = tab.id_ceiling() + 10;
        let mut fork = tab.fork_for_worker(start, 100, roomy_growth(start + 100, 100));
        let written = base[0];
        fork.sym_mut(written).flags |= Flags::SYNTHETIC;
        let fresh: Vec<SymbolId> = (0..20)
            .map(|i| fork.new_term(pkg, Name::intern(&format!("f{i}")), Flags::EMPTY, Type::Int))
            .collect();
        let delta = fork.into_delta();

        let plan = Arc::new(InfoPlan::new(vec![(
            "count",
            counting_transform as InfoTransform,
        )]));
        let splice = |tab: &SymbolTable| {
            let mut view = tab.splice_view();
            view.adopt(&delta);
            view.set_info_plan(Arc::clone(&plan));
            view.set_period(1);
            view
        };
        // Untouched base symbols, the written one (the view aliases the
        // delta's final value) and the delta's shard symbols.
        let read: Vec<SymbolId> = base.iter().chain(&fresh).copied().collect();

        let first = splice(&tab);
        assert!(
            first.sym(written).flags.is(Flags::SYNTHETIC),
            "delta write visible"
        );
        assert!(
            !tab.sym(written).flags.is(Flags::SYNTHETIC),
            "base never written"
        );
        let before = derivations();
        for &id in &read {
            assert_eq!(*first.info(id), Type::Boolean);
        }
        assert_eq!(
            derivations() - before,
            read.len(),
            "cold view derives each info once"
        );

        let second = splice(&tab);
        assert!(
            second.base_shared_with(&first),
            "views alias one base arena and the delta's shards"
        );
        let before = derivations();
        for &id in &read {
            assert_eq!(*second.info(id), Type::Boolean);
        }
        assert_eq!(derivations(), before, "second view re-derives nothing");
        drop((first, second));

        // With the views gone the base is unshared again: a write happens
        // in place and still clears the written symbol's memo. A base write
        // to the symbol the delta also wrote makes the next view merge a
        // copy (delta's flags, base's new info) instead of aliasing.
        let probe = base[1];
        tab.sym_mut(probe).set_info(Type::Str);
        tab.sym_mut(written).set_info(Type::Str);
        let third = splice(&tab);
        let before = derivations();
        assert_eq!(*third.info(probe), Type::Str, "no stale memo after a write");
        assert_eq!(
            *third.info(written),
            Type::Str,
            "merged, not the stale final value"
        );
        assert!(third.sym(written).flags.is(Flags::SYNTHETIC));
        assert_eq!(*third.info(base[2]), Type::Boolean);
        assert_eq!(*third.info(fresh[0]), Type::Boolean);
        assert_eq!(
            derivations() - before,
            2,
            "only the rewritten symbols re-derive"
        );
    }

    #[test]
    #[should_panic(expected = "a splice view cannot allocate symbols")]
    fn splice_view_rejects_allocation() {
        let tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let mut view = tab.splice_view();
        view.new_term(pkg, Name::from("x"), Flags::EMPTY, Type::Int);
    }

    #[test]
    #[should_panic(expected = "into_delta on a non-fork table")]
    fn splice_view_rejects_into_delta() {
        let tab = SymbolTable::new();
        let _ = tab.splice_view().into_delta();
    }

    #[test]
    fn shard_exhaustion_chains_overflow_instead_of_panicking() {
        // Regression: a fork allocating more than its primary shard's
        // capacity used to abort the whole compile with a hard
        // `worker symbol shard overflow` assert. It must now chain
        // overflow shards with globally unique ids.
        let mut tab = SymbolTable::new();
        let pkg = tab.builtins().root_pkg;
        let start = tab.id_ceiling();
        // Deliberately tiny stride: primary holds 3, each overflow holds 3,
        // and the interleaved step leaves room for a sibling fork.
        let mut fork = tab.fork_for_worker(
            start,
            3,
            ShardGrowth {
                next_start: start + 6,
                step: 6,
                capacity: 3,
            },
        );
        let made: Vec<SymbolId> = (0..11)
            .map(|i| {
                fork.new_term(
                    pkg,
                    Name::intern(&format!("ov{i}")),
                    Flags::EMPTY,
                    Type::Int,
                )
            })
            .collect();
        // All ids unique and all resolvable in the fork.
        let mut sorted = made.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), made.len(), "chained ids stay unique");
        for (i, id) in made.iter().enumerate() {
            assert_eq!(fork.sym(*id).name, Name::intern(&format!("ov{i}")));
        }

        // The merge adopts every chained shard; the origin resolves all of
        // them and `ids()` stays strictly ascending.
        tab.adopt(&fork.into_delta());
        for (i, id) in made.iter().enumerate() {
            assert_eq!(tab.sym(*id).name, Name::intern(&format!("ov{i}")));
        }
        let ids: Vec<u32> = tab.ids().map(SymbolId::index).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids() ascending after adopting chained shards"
        );
        assert!(
            tab.id_ceiling() > made.iter().map(|s| s.index()).max().unwrap(),
            "ceiling covers overflow shards"
        );
    }
}
