//! Shared cross-session artifact store with poisoning containment.
//!
//! One process hosts many [`crate::CompileSession`]s (one per tenant — see
//! [`crate::service`]); tenants compiling the same units should pay the
//! pipeline once. The [`SharedArtifactStore`] is that exchange: a
//! content-addressed map from [`ArtifactKey`] to a finished unit artifact
//! (post-pipeline tree, per-group stats and findings, filtered symbol
//! delta), shared behind an `Arc` by every session in the process.
//!
//! # Keying: why the id environment is part of the address
//!
//! A cached artifact is **not self-contained**: its tree and delta resolve
//! dependency and member symbols by raw [`mini_ir::SymbolId`], and those
//! ids are allocator artifacts of the producing session's history. The key
//! therefore extends the PR 5 fingerprints (config, source hash, dep
//! interface hashes) with
//! [`mini_ir::fingerprint::binding_fingerprint`] — a hash that *pins* the
//! raw id assignment the unit was typed against. Sessions that agree on
//! all four components would have produced bit-identical artifacts
//! themselves, so adopting the shared copy is output-neutral; a session
//! whose id assignment drifted simply misses and compiles locally. On top
//! of the key, the consumer rejects (as a miss) any entry whose symbol-id
//! range collides with a range its own live artifacts already occupy.
//!
//! # Rc discipline: the arena-under-mutex pattern
//!
//! Trees are `Rc`-based and not `Send`. The store owns a private [`Ctx`]
//! arena holding the *master copy* of every entry's tree; publishing
//! deep-copies the producer's tree **into** the arena
//! ([`Ctx::import_tree`] — the source `Rc`s are only read), retrieval
//! deep-copies **out** into a caller-supplied scratch context. Every
//! operation that creates, clones or drops an arena `Rc` runs under the
//! store mutex, so all refcount traffic on store-owned handles is
//! serialized and the `unsafe impl Send` below is sound (the same
//! read-only/ownership-transfer argument as `miniphase`'s `UnitLoan` /
//! `UnitsHandoff`, with lock acquisition standing in for the scope join).
//! Deltas, stats and findings hold no `Rc` and cross threads normally; a
//! delta's parts are `Arc`-shared, so a published or retrieved delta
//! aliases the publishing session's cached copy instead of copying it.
//!
//! # Quarantine protocol
//!
//! Every entry carries an integrity checksum stamped at publish time and
//! re-verified on every lookup. A mismatch — today only reachable through
//! injected [`miniphase::FaultKind::StoreCorruption`] /
//! `CorruptArtifact`-style faults, tomorrow through a disk-backed store's
//! torn writes — **quarantines exactly that entry**: it is dropped from
//! the map, the detecting session recompiles the unit locally (and its
//! republish refreshes the slot), and no other tenant's healthy entries
//! are evicted or even touched. A poisoned artifact costs one recompile,
//! never a cache flush and never a wrong answer.

use mini_ir::{Ctx, IrOptions, SymbolDelta, TreeRef};
use miniphase::{CheckFailure, ExecStats, FaultPlan, Finding};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Content address of one shared unit artifact. See the module docs for
/// why the binding (id-environment) fingerprint is part of the address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArtifactKey {
    /// The session's options/plan fingerprint (`jobs` excluded).
    pub config_fp: u64,
    /// Source-text fingerprint of the unit.
    pub source_hash: u64,
    /// Fold of the unit's dependency set: `(dep name, exported-interface
    /// hash)` pairs in name order.
    pub deps_hash: u64,
    /// [`mini_ir::fingerprint::binding_fingerprint`] of the typed tree —
    /// the raw symbol-id environment the artifact resolves against.
    pub binding_fp: u64,
}

/// The payload a session publishes after compiling a unit cleanly, and
/// receives back (tree re-imported into its own scratch context) on a hit.
pub struct StoredArtifact {
    /// Post-pipeline tree. On lookup this is a fresh deep copy allocated
    /// in the caller's scratch context; the master copy never leaves the
    /// store arena.
    pub tree: TreeRef,
    /// Per-group traversal counters.
    pub stats_by_group: Vec<ExecStats>,
    /// Per-group checker findings (empty unless the config checks).
    pub failures_by_group: Vec<Vec<CheckFailure>>,
    /// Per-group lint findings (empty unless the config lints). Rides the
    /// store as plain owned payload: the integrity checksum covers the
    /// tree only, but key determinism (same key ⇒ same compile ⇒ same
    /// findings) makes replaying cached findings output-neutral.
    pub findings_by_group: Vec<Vec<Finding>>,
    /// The unit's symbol delta (its own symbols, builtins, root-pkg
    /// appends — exactly what a session splices).
    pub delta: SymbolDelta,
    /// `[lo, hi)` symbol-id range the delta's fresh symbols occupy. The
    /// consumer must reject ranges colliding with its live artifacts and
    /// advance its symbol cursor past `hi` on adoption.
    pub sym_range: (u32, u32),
}

struct StoreEntry {
    tree: TreeRef,
    stats_by_group: Vec<ExecStats>,
    failures_by_group: Vec<Vec<CheckFailure>>,
    findings_by_group: Vec<Vec<Finding>>,
    delta: SymbolDelta,
    sym_range: (u32, u32),
    /// Integrity stamp of the master tree (see [`integrity_checksum`]).
    checksum: u64,
    /// Modelled footprint (tree nodes × mean node cost), the byte-budget
    /// accounting unit.
    bytes: u64,
    /// Monotonic LRU tick of the last hit or publish.
    last_use: u64,
    /// Publishing tenant (per-tenant byte accounting).
    tenant: String,
}

/// Outcome of a [`SharedArtifactStore::lookup`].
pub enum StoreLookup {
    /// No entry under the key (or a colliding symbol-id range): compile
    /// locally, then publish.
    Miss,
    /// The entry failed its integrity check and was quarantined (dropped).
    /// Compile locally; the republish refreshes the slot. Other entries
    /// are untouched.
    Quarantined,
    /// A verified artifact, tree re-imported into the caller's context.
    Hit(StoredArtifact),
}

/// Cumulative store counters (monotonic; snapshot via
/// [`SharedArtifactStore::stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that found nothing under the key.
    pub misses: u64,
    /// Lookups rejected because the entry's symbol-id range collided with
    /// the consumer's live artifacts (counted as misses too).
    pub range_conflicts: u64,
    /// Entries accepted from publishing sessions.
    pub publishes: u64,
    /// Publishes dropped because an entry already existed under the key.
    pub redundant_publishes: u64,
    /// Entries dropped by the quarantine protocol (integrity mismatch).
    pub quarantined: u64,
    /// Entries evicted by the byte-capacity LRU.
    pub evicted_entries: u64,
    /// Modelled bytes reclaimed by those evictions.
    pub evicted_bytes: u64,
    /// Checksums flipped by injected `StoreCorruption` faults.
    pub injected_corruptions: u64,
    /// Current entry count.
    pub entries: u64,
    /// Current modelled resident bytes.
    pub bytes: u64,
}

struct StoreInner {
    /// Private arena owning every master-copy tree. All `Rc` traffic on
    /// its handles happens under the store mutex (see module docs).
    arena: Ctx,
    entries: BTreeMap<ArtifactKey, StoreEntry>,
    /// Monotonic LRU clock.
    tick: u64,
    /// Modelled resident bytes across all entries.
    bytes: u64,
    /// Byte capacity; `None` is unbounded.
    capacity: Option<u64>,
    /// Resident bytes attributed to each publishing tenant.
    tenant_bytes: BTreeMap<String, u64>,
    stats: StoreStats,
    /// Armed chaos plan, polled for `StoreCorruption` bursts on lookups.
    faults: Option<Arc<FaultPlan>>,
}

// SAFETY: `StoreInner` holds `Rc`-based trees (the arena's master copies
// and intern caches), which are not `Send`. Soundness argument: the only
// owner of `StoreInner` is the `Mutex` in `SharedArtifactStore`, every
// method locks it before touching any handle, and no `Rc` handle into the
// arena is ever returned to a caller — lookups hand out deep copies
// allocated in the *caller's* context. All refcount mutations on
// store-owned handles are therefore serialized by the mutex (whose
// acquire/release ordering publishes them between threads), which is
// exactly the guarantee `Send` requires here.
unsafe impl Send for StoreInner {}

/// The process-wide cross-session artifact exchange. Cheap to share
/// (`Arc<SharedArtifactStore>`); every operation takes one mutex.
pub struct SharedArtifactStore {
    inner: Mutex<StoreInner>,
}

impl SharedArtifactStore {
    /// An empty store with a modelled byte capacity (`None` = unbounded).
    /// Eviction is LRU over hits/publishes and never triggered by
    /// quarantine — containment must not cost healthy tenants their
    /// entries.
    pub fn new(capacity: Option<u64>) -> SharedArtifactStore {
        // The arena only ever *copies* finished trees; the producer's
        // session already enforced depth/size budgets at construction.
        let options = IrOptions {
            max_tree_depth: None,
            max_tree_size: None,
            ..IrOptions::default()
        };
        SharedArtifactStore {
            inner: Mutex::new(StoreInner {
                arena: Ctx::worker(mini_ir::SymbolTable::new(), options, 0, 0),
                entries: BTreeMap::new(),
                tick: 0,
                bytes: 0,
                capacity,
                tenant_bytes: BTreeMap::new(),
                stats: StoreStats::default(),
                faults: None,
            }),
        }
    }

    /// Arms service-level fault injection: every subsequent lookup polls
    /// `plan` for [`miniphase::FaultKind::StoreCorruption`] bursts (chaos
    /// harness only).
    pub fn inject_faults(&self, plan: Arc<FaultPlan>) {
        self.lock().faults = Some(plan);
    }

    /// Disarms store-level fault injection.
    pub fn clear_faults(&self) {
        self.lock().faults = None;
    }

    /// Publishes a finished artifact under `key`. The tree is deep-copied
    /// into the store arena (the caller's `Rc`s are only read); first
    /// publish wins, later publishes under the same key are dropped as
    /// redundant (same key ⇒ byte-identical payload by the determinism
    /// guarantee). Returns whether the entry was accepted.
    #[allow(clippy::too_many_arguments)]
    pub fn publish(
        &self,
        tenant: &str,
        key: ArtifactKey,
        tree: &TreeRef,
        stats_by_group: &[ExecStats],
        failures_by_group: &[Vec<CheckFailure>],
        findings_by_group: &[Vec<Finding>],
        delta: SymbolDelta,
        sym_range: (u32, u32),
    ) -> bool {
        let mut inner = self.lock();
        if inner.entries.contains_key(&key) {
            inner.stats.redundant_publishes += 1;
            return false;
        }
        let master = inner.arena.import_tree(tree);
        let checksum = integrity_checksum(&master);
        let bytes = u64::from(master.subtree_size()) * 64;
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(
            key,
            StoreEntry {
                tree: master,
                stats_by_group: stats_by_group.to_vec(),
                failures_by_group: failures_by_group.to_vec(),
                findings_by_group: findings_by_group.to_vec(),
                delta,
                sym_range,
                checksum,
                bytes,
                last_use: tick,
                tenant: tenant.to_owned(),
            },
        );
        inner.bytes += bytes;
        *inner.tenant_bytes.entry(tenant.to_owned()).or_insert(0) += bytes;
        inner.stats.publishes += 1;
        inner.evict_to_capacity();
        true
    }

    /// Looks up `key` for `tenant`. On a hit the tree is deep-copied into
    /// `dest` (the caller's scratch context, whose node/heap floors the
    /// caller controls); entries whose symbol-id range intersects any of
    /// the caller's `live_ranges` are rejected as misses (adopting them
    /// would collide with symbols the caller's live artifacts already
    /// use). Armed `StoreCorruption` faults are polled first, so an
    /// injected burst is observed — and quarantined — by the very next
    /// reader.
    pub fn lookup(
        &self,
        tenant: &str,
        key: ArtifactKey,
        dest: &mut Ctx,
        live_ranges: &[(u32, u32)],
    ) -> StoreLookup {
        let mut inner = self.lock();
        inner.fire_injected_corruption();
        let Some(entry) = inner.entries.get(&key) else {
            inner.stats.misses += 1;
            return StoreLookup::Miss;
        };
        if integrity_checksum(&entry.tree) != entry.checksum {
            // Quarantine: drop exactly this entry. The caller recompiles
            // and republishes; nobody else's entries move.
            let entry = inner.entries.remove(&key).expect("entry present above");
            inner.bytes = inner.bytes.saturating_sub(entry.bytes);
            if let Some(b) = inner.tenant_bytes.get_mut(&entry.tenant) {
                *b = b.saturating_sub(entry.bytes);
            }
            inner.stats.quarantined += 1;
            return StoreLookup::Quarantined;
        }
        let (lo, hi) = entry.sym_range;
        let collides = lo < hi && live_ranges.iter().any(|&(a, b)| a < b && lo < b && a < hi);
        if collides {
            inner.stats.range_conflicts += 1;
            inner.stats.misses += 1;
            return StoreLookup::Miss;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(&key).expect("entry present above");
        entry.last_use = tick;
        let artifact = StoredArtifact {
            tree: dest.import_tree(&entry.tree),
            stats_by_group: entry.stats_by_group.clone(),
            failures_by_group: entry.failures_by_group.clone(),
            findings_by_group: entry.findings_by_group.clone(),
            delta: entry.delta.clone(),
            sym_range: entry.sym_range,
        };
        inner.stats.hits += 1;
        let _ = tenant; // hits are attributed in the caller's CacheStats
        StoreLookup::Hit(artifact)
    }

    /// A point-in-time snapshot of the store counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        let mut s = inner.stats.clone();
        s.entries = inner.entries.len() as u64;
        s.bytes = inner.bytes;
        s
    }

    /// Resident modelled bytes attributed to each publishing tenant.
    pub fn tenant_bytes(&self) -> BTreeMap<String, u64> {
        self.lock().tenant_bytes.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl StoreInner {
    /// Polls the armed fault plan and flips the checksums of the first `n`
    /// entries in key order — deterministic given the plan and the
    /// entry set, like every other injected fault.
    fn fire_injected_corruption(&mut self) {
        let Some(plan) = &self.faults else { return };
        let Some(n) = plan.take_store_corruption() else {
            return;
        };
        let keys: Vec<ArtifactKey> = self.entries.keys().take(n).copied().collect();
        for k in keys {
            let entry = self.entries.get_mut(&k).expect("key just enumerated");
            entry.checksum ^= 0xBAD0_BAD0_BAD0_BAD0;
            self.stats.injected_corruptions += 1;
        }
    }

    /// LRU eviction down to the byte capacity (oldest `last_use` first,
    /// key order as tiebreak).
    fn evict_to_capacity(&mut self) {
        let Some(cap) = self.capacity else { return };
        while self.bytes > cap && !self.entries.is_empty() {
            let victim = self
                .entries
                .iter()
                .map(|(k, e)| (e.last_use, *k))
                .min()
                .expect("non-empty");
            let entry = self.entries.remove(&victim.1).expect("victim exists");
            self.bytes = self.bytes.saturating_sub(entry.bytes);
            if let Some(b) = self.tenant_bytes.get_mut(&entry.tenant) {
                *b = b.saturating_sub(entry.bytes);
            }
            self.stats.evicted_entries += 1;
            self.stats.evicted_bytes += entry.bytes;
        }
    }
}

/// Integrity stamp of a master-copy tree: node kinds, child shape, literal
/// constants and the `Debug` rendering of node types (which embeds raw
/// symbol ids). Unlike [`mini_ir::fingerprint::tree_fingerprint`] this is
/// *allocator-sensitive on purpose* — it fingerprints this exact master
/// copy, and any divergence between publish-time and lookup-time (bit rot,
/// injected corruption, a future disk store's torn read) quarantines the
/// entry.
fn integrity_checksum(root: &TreeRef) -> u64 {
    use mini_ir::fingerprint::Fnv64;
    use mini_ir::TreeKind;
    let mut h = Fnv64::new();
    let mut stack: Vec<&mini_ir::Tree> = vec![root];
    while let Some(t) = stack.pop() {
        h.u8(t.node_kind() as u8);
        h.str(&format!("{:?}", t.tpe()));
        if let TreeKind::Literal { value } = t.kind() {
            h.str(&value.to_string());
        }
        let n = t.child_count();
        h.u64(n as u64);
        for i in (0..n).rev() {
            stack.push(t.child_at(i).expect("child index below count"));
        }
    }
    h.finish()
}
