//! Multi-tenant compile service: the front door in front of
//! [`CompileSession`]s.
//!
//! # Design note
//!
//! The service is the outermost of three concentric fault rings:
//!
//! 1. **Per-unit fences** (PR 6, [`miniphase`]): a panic inside one unit's
//!    pipeline is caught at its isolation fence and becomes a structured
//!    [`CompileError::Internal`] for that unit only.
//! 2. **Per-compile degradation** ([`CompileSession`]): a compile whose
//!    workers panicked retries its faulted units sequentially at
//!    `jobs = 1` before giving up.
//! 3. **Per-request retry (this module)**: a request whose compile still
//!    failed with [`CompileError::Internal`] is retried with bounded
//!    backoff ([`ServiceConfig::retries`], [`ServiceConfig::retry_backoff`])
//!    — transient faults (injected storms, scheduler panics) drain out
//!    here; deterministic failures surface to the caller after the budget
//!    is spent, with the attempt count on the response.
//!
//! # Threading model
//!
//! Tree nodes are `Rc`-linked and **not `Send`**, so a session can never
//! migrate between threads. The service therefore runs **one worker thread
//! per tenant**: the [`CompileSession`] is constructed *on* its worker
//! thread and lives there until drain. The only cross-thread traffic is
//!
//! * the bounded job queue in front of each worker (plain data:
//!   [`CompileRequest`]s and reply channels), and
//! * the shared [`SharedArtifactStore`], whose arena-under-mutex design
//!   serializes every `Rc` refcount touch on store-owned trees.
//!
//! # Admission control
//!
//! [`CompileService::submit`] is non-blocking and either admits a request
//! or rejects it with a structured error — overload is **never** a silent
//! drop or an unbounded queue:
//!
//! * queue full → [`ServiceError::Overloaded`] with
//!   [`OverloadReason::QueueFull`];
//! * a request deadline below [`ServiceConfig::min_deadline`] →
//!   [`OverloadReason::DeadlineInfeasible`] (it could only ever burn a
//!   worker slot to produce a [`CompileError::Budget`]);
//! * a draining service → [`ServiceError::Draining`].
//!
//! Every shed is counted in the tenant's [`TenantStats`], and
//! `submitted == completed + failed + shed + rejected` holds after drain —
//! the load harness asserts this accounting closes.
//!
//! # Deadlines
//!
//! The tenant's session carries a deadline ceiling
//! ([`crate::Budgets::deadline`] of the service options). Each request may
//! tighten it: the effective deadline is the *minimum* of the ceiling and
//! [`CompileRequest::deadline`], installed via
//! [`CompileSession::set_deadline`] before the compile. Budgets are
//! excluded from the config fingerprint, so per-request deadlines never
//! invalidate cached artifacts. Expiry is checked at unit boundaries
//! inside fused groups, so oversized requests fail in bounded time with
//! [`CompileError::Budget`].
//!
//! # Memory accounting and shutdown
//!
//! Each tenant is charged a modelled [`MemoryFootprint`] (session caches,
//! sources, symbols) plus its byte share of the shared store; the store
//! evicts least-recently-used entries past its capacity. Shutdown is a
//! **graceful drain**: [`CompileService::drain`] stops admitting, lets each
//! worker finish (or deadline-out) its queued requests, joins all workers
//! and returns the final per-tenant accounting.

use crate::diagnostics::{self, Diagnostic};
use crate::session::{CacheStats, CompileSession, MemoryFootprint};
use crate::store::{SharedArtifactStore, StoreStats};
use crate::{CompileError, CompilerOptions};
use mini_backend::Vm;
use miniphase::faults::panic_message;
use miniphase::FaultPlan;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for one [`CompileService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Compiler options every tenant session is constructed with. The
    /// options' [`crate::Budgets::deadline`] is the per-tenant deadline
    /// ceiling; request deadlines can only tighten it.
    pub opts: CompilerOptions,
    /// Bounded depth of each tenant's request queue; a full queue sheds
    /// with [`OverloadReason::QueueFull`].
    pub queue_capacity: usize,
    /// Requests asking for less wall-clock than this are shed at admission
    /// with [`OverloadReason::DeadlineInfeasible`] instead of burning a
    /// worker slot on a guaranteed budget failure.
    pub min_deadline: Duration,
    /// Service-level retries for [`CompileError::Internal`] failures
    /// (ring 3; `1` means up to two attempts total).
    pub retries: u32,
    /// Base backoff slept before retry attempt `n` (scaled by `n`).
    pub retry_backoff: Duration,
    /// Byte capacity of the shared artifact store (`None` = unbounded).
    pub store_capacity: Option<u64>,
}

impl ServiceConfig {
    /// Defaults: queue of 4, 1 ms minimum deadline, one retry with 2 ms
    /// backoff, unbounded store.
    pub fn new(opts: CompilerOptions) -> ServiceConfig {
        ServiceConfig {
            opts,
            queue_capacity: 4,
            min_deadline: Duration::from_millis(1),
            retries: 1,
            retry_backoff: Duration::from_millis(2),
            store_capacity: None,
        }
    }
}

/// One unit of work for a tenant: a batch of edits plus a compile.
#[derive(Clone, Debug, Default)]
pub struct CompileRequest {
    /// Source edits applied before the compile: `Some` upserts the unit,
    /// `None` removes it.
    pub edits: Vec<(String, Option<String>)>,
    /// Optional request deadline; clamped into the tenant ceiling.
    pub deadline: Option<Duration>,
    /// Run `main` on the VM after a successful compile and return its
    /// output lines.
    pub run_main: bool,
}

impl CompileRequest {
    /// An empty request (recompile whatever is dirty).
    pub fn new() -> CompileRequest {
        CompileRequest::default()
    }

    /// Adds an upsert edit.
    pub fn edit(mut self, name: impl Into<String>, src: impl Into<String>) -> CompileRequest {
        self.edits.push((name.into(), Some(src.into())));
        self
    }

    /// Adds a unit removal.
    pub fn remove(mut self, name: impl Into<String>) -> CompileRequest {
        self.edits.push((name.into(), None));
        self
    }

    /// Sets the request deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> CompileRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Requests VM execution of `main` after the compile.
    pub fn running_main(mut self) -> CompileRequest {
        self.run_main = true;
        self
    }
}

/// What one admitted request produced.
#[derive(Clone, Debug)]
pub struct CompileResponse {
    /// Units spliced from the session cache (or the shared store).
    pub reused_units: usize,
    /// Units that ran the frontend + pipeline.
    pub recompiled_units: usize,
    /// Shared-store hits this request added (cross-tenant reuse).
    pub shared_hits: u64,
    /// True when the compile degraded to a sequential retry after a worker
    /// panic (ring 2).
    pub retried_sequential: bool,
    /// Worker threads the transform pipeline actually used.
    pub effective_jobs: usize,
    /// Compile attempts the service made (> 1 means ring-3 retries fired).
    pub attempts: u32,
    /// Admission-to-completion latency (includes queue wait).
    pub latency: Duration,
    /// `main`'s output lines when [`CompileRequest::run_main`] was set and
    /// the program ran to completion; the VM error message otherwise.
    pub output: Option<Vec<String>>,
    /// Rendered diagnostics for this compile: every lint finding (when the
    /// session lints) and checker failure (when it checks), joined against
    /// the retained sources, in the canonical finding order. Findings
    /// replayed from cache render identically to fresh ones — the join
    /// happens here, not at detection time.
    pub diagnostics: Vec<Diagnostic>,
}

/// Why an admission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadReason {
    /// The tenant's bounded queue was full.
    QueueFull {
        /// The configured queue depth that was exhausted.
        capacity: usize,
    },
    /// The request deadline cannot fit any compile.
    DeadlineInfeasible {
        /// What the request asked for.
        requested: Duration,
        /// The service's admission floor.
        minimum: Duration,
    },
}

/// A structured service failure. Overload and drain rejections happen at
/// admission ([`CompileService::submit`]); compile failures arrive through
/// [`Ticket::wait`].
#[derive(Debug)]
pub enum ServiceError {
    /// Admission refused — back off and retry later.
    Overloaded {
        /// The tenant whose request was shed.
        tenant: String,
        /// Queue-full or deadline-infeasible.
        reason: OverloadReason,
    },
    /// No such tenant was registered.
    UnknownTenant(String),
    /// A tenant with this name already exists.
    DuplicateTenant(String),
    /// The service is draining and admits nothing new.
    Draining,
    /// The tenant's worker thread is gone (it never is unless the process
    /// is tearing down — compiles are panic-fenced).
    WorkerLost(String),
    /// The compile itself failed; see [`CompileError`].
    Compile(CompileError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { tenant, reason } => match reason {
                OverloadReason::QueueFull { capacity } => write!(
                    f,
                    "tenant `{tenant}` overloaded: queue full (capacity {capacity})"
                ),
                OverloadReason::DeadlineInfeasible { requested, minimum } => write!(
                    f,
                    "tenant `{tenant}` request shed: deadline {requested:?} below the \
                     {minimum:?} admission floor"
                ),
            },
            ServiceError::UnknownTenant(t) => write!(f, "unknown tenant `{t}`"),
            ServiceError::DuplicateTenant(t) => write!(f, "tenant `{t}` already registered"),
            ServiceError::Draining => write!(f, "service is draining"),
            ServiceError::WorkerLost(t) => write!(f, "worker thread for tenant `{t}` is gone"),
            ServiceError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Per-tenant service accounting. After [`CompileService::drain`],
/// `submitted` equals [`TenantStats::accounted`] — nothing is silently
/// dropped.
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    /// [`CompileService::submit`] calls for this tenant (admitted or not).
    pub submitted: u64,
    /// Requests that entered the queue.
    pub admitted: u64,
    /// Requests whose compile succeeded.
    pub completed: u64,
    /// Requests shed at admission because the queue was full.
    pub shed_queue_full: u64,
    /// Requests shed at admission with an infeasible deadline.
    pub shed_deadline_infeasible: u64,
    /// Requests refused because the service was draining.
    pub rejected_draining: u64,
    /// Requests that failed with [`CompileError::Budget`].
    pub failed_budget: u64,
    /// Requests that failed with [`CompileError::Internal`] after the
    /// retry budget was spent.
    pub failed_internal: u64,
    /// Requests that failed with any other [`CompileError`].
    pub failed_other: u64,
    /// Ring-3 retry attempts (sleep + recompile after an `Internal`).
    pub service_retries: u64,
    /// Completed requests that degraded to a sequential retry (ring 2).
    pub degraded_compiles: u64,
    /// Lint findings reported across all completed compiles (cumulative;
    /// a finding replayed from cache on a warm compile counts again —
    /// this tracks what was *surfaced*, not what was *detected*).
    pub findings_reported: u64,
    /// Of those, findings with [`miniphase::Severity::Error`].
    pub error_findings: u64,
    /// Panics that escaped *all* compile fences and were caught by the
    /// service's last-resort fence. Zero unless the fences regress.
    pub escaped_panics: u64,
    /// Sum of admission-to-completion latencies.
    pub total_latency: Duration,
    /// Worst single-request latency.
    pub max_latency: Duration,
    /// Latest snapshot of the session's cache counters.
    pub cache: CacheStats,
    /// Latest snapshot of the session's modelled memory footprint.
    pub memory: MemoryFootprint,
    /// VM instructions retired across this tenant's `run_main` executions
    /// (cumulative; fused superinstructions count once per dispatch).
    pub vm_insns_retired: u64,
    /// Inline-cache hits across this tenant's `run_main` executions.
    pub vm_ic_hits: u64,
    /// Inline-cache misses across this tenant's `run_main` executions.
    pub vm_ic_misses: u64,
    /// Deepest guest frame stack any of this tenant's executions reached.
    pub vm_peak_frames: u64,
}

impl TenantStats {
    /// Requests shed at admission (both reasons).
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline_infeasible
    }

    /// Requests that were admitted but failed.
    pub fn failed(&self) -> u64 {
        self.failed_budget + self.failed_internal + self.failed_other
    }

    /// Every submitted request's final disposition. Equals
    /// [`TenantStats::submitted`] once the service has drained.
    pub fn accounted(&self) -> u64 {
        self.completed + self.failed() + self.shed() + self.rejected_draining
    }

    /// Inline-cache hit fraction over this tenant's executions (0.0 when
    /// nothing ran or no virtual calls dispatched through a cache).
    pub fn vm_ic_hit_rate(&self) -> f64 {
        let total = self.vm_ic_hits + self.vm_ic_misses;
        if total == 0 {
            0.0
        } else {
            self.vm_ic_hits as f64 / total as f64
        }
    }
}

/// A point-in-time view of the whole service.
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// Per-tenant accounting, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantStats>,
    /// Shared artifact store counters.
    pub store: StoreStats,
    /// Store bytes attributed to each publishing tenant.
    pub tenant_store_bytes: BTreeMap<String, u64>,
}

/// Final accounting returned by [`CompileService::drain`].
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Final per-tenant stats, after every queued request resolved.
    pub tenants: BTreeMap<String, TenantStats>,
    /// Final shared-store counters.
    pub store: StoreStats,
    /// Final per-tenant store byte attribution.
    pub tenant_store_bytes: BTreeMap<String, u64>,
}

/// A handle on an admitted request.
#[derive(Debug)]
pub struct Ticket {
    tenant: String,
    rx: Receiver<Result<CompileResponse, ServiceError>>,
}

impl Ticket {
    /// The tenant the request was admitted for.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Blocks until the request resolves.
    pub fn wait(self) -> Result<CompileResponse, ServiceError> {
        self.rx
            .recv()
            .unwrap_or(Err(ServiceError::WorkerLost(self.tenant)))
    }
}

/// What travels over a tenant's queue. Fault (dis)arming rides the same
/// ordered channel as compiles so "inject, then compile" sequences are
/// race-free.
enum Job {
    Compile {
        req: CompileRequest,
        reply: SyncSender<Result<CompileResponse, ServiceError>>,
        admitted_at: Instant,
    },
    InjectFaults(Arc<FaultPlan>),
    ClearFaults,
}

/// One registered tenant: its queue, worker and shared accounting.
struct Tenant {
    tx: SyncSender<Job>,
    handle: JoinHandle<()>,
    stats: Arc<Mutex<TenantStats>>,
}

/// The front door. See the module docs for the design note.
pub struct CompileService {
    config: ServiceConfig,
    store: Arc<SharedArtifactStore>,
    draining: Arc<AtomicBool>,
    tenants: BTreeMap<String, Tenant>,
}

impl CompileService {
    /// Starts an empty service around a fresh shared store.
    pub fn new(config: ServiceConfig) -> CompileService {
        CompileService {
            store: Arc::new(SharedArtifactStore::new(config.store_capacity)),
            config,
            draining: Arc::new(AtomicBool::new(false)),
            tenants: BTreeMap::new(),
        }
    }

    /// Registers a tenant: spawns its worker thread, which constructs the
    /// [`CompileSession`] in place (sessions are thread-pinned) and
    /// attaches the shared store under the tenant's name.
    pub fn add_tenant(&mut self, name: impl Into<String>) -> Result<(), ServiceError> {
        let name = name.into();
        if self.tenants.contains_key(&name) {
            return Err(ServiceError::DuplicateTenant(name));
        }
        let (tx, rx) = sync_channel(self.config.queue_capacity);
        let stats = Arc::new(Mutex::new(TenantStats::default()));
        let handle = {
            let tenant = name.clone();
            let config = self.config;
            let store = Arc::clone(&self.store);
            let stats = Arc::clone(&stats);
            thread::Builder::new()
                .name(format!("tenant-{name}"))
                .spawn(move || worker(tenant, config, store, stats, rx))
                .expect("spawn tenant worker")
        };
        self.tenants.insert(name, Tenant { tx, handle, stats });
        Ok(())
    }

    /// Admits or sheds a request — non-blocking, and every outcome is
    /// counted. On `Ok` the request is queued; resolve it with
    /// [`Ticket::wait`].
    pub fn submit(&self, tenant: &str, req: CompileRequest) -> Result<Ticket, ServiceError> {
        let t = self
            .tenants
            .get(tenant)
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))?;
        let mut s = lock(&t.stats);
        s.submitted += 1;
        if self.draining.load(Ordering::SeqCst) {
            s.rejected_draining += 1;
            return Err(ServiceError::Draining);
        }
        if let Some(d) = req.deadline {
            if d < self.config.min_deadline {
                s.shed_deadline_infeasible += 1;
                return Err(ServiceError::Overloaded {
                    tenant: tenant.to_string(),
                    reason: OverloadReason::DeadlineInfeasible {
                        requested: d,
                        minimum: self.config.min_deadline,
                    },
                });
            }
        }
        let (reply, rx) = sync_channel(1);
        match t.tx.try_send(Job::Compile {
            req,
            reply,
            admitted_at: Instant::now(),
        }) {
            Ok(()) => {
                s.admitted += 1;
                Ok(Ticket {
                    tenant: tenant.to_string(),
                    rx,
                })
            }
            Err(TrySendError::Full(_)) => {
                s.shed_queue_full += 1;
                Err(ServiceError::Overloaded {
                    tenant: tenant.to_string(),
                    reason: OverloadReason::QueueFull {
                        capacity: self.config.queue_capacity,
                    },
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(ServiceError::WorkerLost(tenant.to_string())),
        }
    }

    /// Arms fault injection on one tenant's session (ordered with respect
    /// to that tenant's queued compiles). Blocks if the queue is full —
    /// control-plane sends are not shed.
    pub fn inject_tenant_faults(
        &self,
        tenant: &str,
        plan: Arc<FaultPlan>,
    ) -> Result<(), ServiceError> {
        self.control(tenant, Job::InjectFaults(plan))
    }

    /// Disarms fault injection on one tenant's session.
    pub fn clear_tenant_faults(&self, tenant: &str) -> Result<(), ServiceError> {
        self.control(tenant, Job::ClearFaults)
    }

    fn control(&self, tenant: &str, job: Job) -> Result<(), ServiceError> {
        let t = self
            .tenants
            .get(tenant)
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))?;
        t.tx.send(job)
            .map_err(|_| ServiceError::WorkerLost(tenant.to_string()))
    }

    /// Arms shared-store fault injection (corruption bursts).
    pub fn inject_store_faults(&self, plan: Arc<FaultPlan>) {
        self.store.inject_faults(plan);
    }

    /// Disarms shared-store fault injection.
    pub fn clear_store_faults(&self) {
        self.store.clear_faults();
    }

    /// The shared artifact store (for out-of-band inspection).
    pub fn store(&self) -> Arc<SharedArtifactStore> {
        Arc::clone(&self.store)
    }

    /// A live snapshot of every tenant's accounting plus the store's.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            tenants: self
                .tenants
                .iter()
                .map(|(name, t)| (name.clone(), lock(&t.stats).clone()))
                .collect(),
            store: self.store.stats(),
            tenant_store_bytes: self.store.tenant_bytes(),
        }
    }

    /// Graceful shutdown: stop admitting, let every worker finish (or
    /// deadline-out) its queued requests, join them all and report the
    /// final accounting.
    pub fn drain(mut self) -> DrainReport {
        self.draining.store(true, Ordering::SeqCst);
        let mut tenants = BTreeMap::new();
        for (name, Tenant { tx, handle, stats }) in std::mem::take(&mut self.tenants) {
            drop(tx); // close the queue; the worker drains what's left
            let _ = handle.join();
            tenants.insert(name, lock(&stats).clone());
        }
        DrainReport {
            tenants,
            store: self.store.stats(),
            tenant_store_bytes: self.store.tenant_bytes(),
        }
    }
}

/// Mutex poisoning cannot corrupt plain counter structs — recover the
/// guard instead of propagating the poison.
fn lock(m: &Mutex<TenantStats>) -> MutexGuard<'_, TenantStats> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One tenant's worker loop: owns the thread-pinned session, drains the
/// queue until the service closes it.
fn worker(
    tenant: String,
    config: ServiceConfig,
    store: Arc<SharedArtifactStore>,
    stats: Arc<Mutex<TenantStats>>,
    rx: Receiver<Job>,
) {
    let mut session = CompileSession::new(config.opts);
    session.attach_shared_store(store, tenant);
    let ceiling = config.opts.budgets.deadline;
    while let Ok(job) = rx.recv() {
        match job {
            Job::InjectFaults(plan) => session.inject_faults(plan),
            Job::ClearFaults => session.clear_faults(),
            Job::Compile {
                req,
                reply,
                admitted_at,
            } => {
                let mut result = serve_one(&mut session, ceiling, &config, req, &stats);
                let latency = admitted_at.elapsed();
                {
                    let mut s = lock(&stats);
                    match &mut result {
                        Ok(resp) => {
                            resp.latency = latency;
                            s.completed += 1;
                            if resp.retried_sequential {
                                s.degraded_compiles += 1;
                            }
                            for d in &resp.diagnostics {
                                if d.code.starts_with('L') {
                                    s.findings_reported += 1;
                                    if d.severity == miniphase::Severity::Error {
                                        s.error_findings += 1;
                                    }
                                }
                            }
                        }
                        Err(ServiceError::Compile(CompileError::Budget(_))) => s.failed_budget += 1,
                        Err(ServiceError::Compile(CompileError::Internal { .. })) => {
                            s.failed_internal += 1
                        }
                        Err(_) => s.failed_other += 1,
                    }
                    s.total_latency += latency;
                    s.max_latency = s.max_latency.max(latency);
                    s.cache = session.cache_stats();
                    s.memory = session.memory_footprint();
                }
                // A dropped ticket just means nobody is waiting.
                let _ = reply.send(result);
            }
        }
    }
}

/// Applies the request's edits and runs the compile through the ring-3
/// retry loop.
fn serve_one(
    session: &mut CompileSession,
    ceiling: Option<Duration>,
    config: &ServiceConfig,
    req: CompileRequest,
    stats: &Mutex<TenantStats>,
) -> Result<CompileResponse, ServiceError> {
    for (name, src) in req.edits {
        match src {
            Some(src) => session.update(name, src),
            None => session.remove(name),
        }
    }
    let effective = match (ceiling, req.deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    session.set_deadline(effective);
    let shared_before = session.cache_stats().shared_hits;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        // Last-resort fence: the session's own fences make an escaping
        // panic unreachable, but a service must not let one tenant's
        // compile tear down the worker loop if they ever regress.
        match catch_unwind(AssertUnwindSafe(|| session.compile())) {
            Ok(Ok(compiled)) => {
                let output = req.run_main.then(|| {
                    let mut vm = Vm::new(&compiled.program);
                    let result = vm.run_main();
                    // Fold execution counters into the tenant's account
                    // before `vm.out` is moved out of the VM.
                    {
                        let mut s = lock(stats);
                        s.vm_insns_retired += vm.stats.insns_retired;
                        s.vm_ic_hits += vm.stats.ic_hits;
                        s.vm_ic_misses += vm.stats.ic_misses;
                        s.vm_peak_frames = s.vm_peak_frames.max(vm.stats.peak_frames);
                    }
                    match result {
                        Ok(_) => vm.out,
                        Err(e) => vec![format!("vm error: {e:?}")],
                    }
                });
                let diags = diagnostics::render_compiled(
                    &compiled.findings,
                    &compiled.check_failures,
                    |unit| session.source(unit),
                );
                return Ok(CompileResponse {
                    reused_units: compiled.reused_units,
                    recompiled_units: compiled.recompiled_units,
                    shared_hits: session.cache_stats().shared_hits - shared_before,
                    retried_sequential: compiled.retried_sequential,
                    effective_jobs: compiled.effective_jobs,
                    attempts,
                    latency: Duration::ZERO, // stamped by the worker
                    output,
                    diagnostics: diags,
                });
            }
            Ok(Err(e @ CompileError::Internal { .. })) if attempts <= config.retries => {
                lock(stats).service_retries += 1;
                let _ = e; // deterministic part of the log-free contract
                thread::sleep(config.retry_backoff * attempts);
            }
            Ok(Err(e)) => return Err(ServiceError::Compile(e)),
            Err(payload) => {
                lock(stats).escaped_panics += 1;
                return Err(ServiceError::Compile(CompileError::Internal {
                    unit: None,
                    phase: "service".to_string(),
                    message: panic_message(payload.as_ref()),
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miniphase::FaultKind;

    fn sources() -> Vec<(String, String)> {
        vec![
            (
                "a.ms".to_string(),
                "def base(n: Int): Int = n * 2\ndef spare(n: Int): Int = n + 1\n".to_string(),
            ),
            (
                "b.ms".to_string(),
                "class Acc(seed: Int) {\n  var total: Int = seed\n  def add(k: Int): Int = {\n    total = total + base(k)\n    total\n  }\n}\n"
                    .to_string(),
            ),
            (
                "z.ms".to_string(),
                "def main(): Unit = {\n  val acc: Acc = new Acc(base(3))\n  println(acc.add(1) + acc.add(2))\n}\n"
                    .to_string(),
            ),
        ]
    }

    fn cold_request() -> CompileRequest {
        let mut req = CompileRequest::new().running_main();
        for (n, s) in sources() {
            req = req.edit(n, s);
        }
        req
    }

    fn service_with(tenants: &[&str]) -> CompileService {
        let mut svc = CompileService::new(ServiceConfig::new(CompilerOptions::fused()));
        for t in tenants {
            svc.add_tenant(*t).expect("register");
        }
        svc
    }

    #[test]
    fn service_compiles_and_reuses_across_requests() {
        let svc = {
            let mut svc = service_with(&["alice"]);
            svc.add_tenant("alice").expect_err("duplicate rejected");
            svc
        };
        let cold = svc
            .submit("alice", cold_request())
            .expect("admitted")
            .wait()
            .expect("compiles");
        assert_eq!(cold.recompiled_units, 3);
        assert_eq!(cold.output.as_deref(), Some(&["20".to_string()][..]));

        let warm = svc
            .submit(
                "alice",
                CompileRequest::new()
                    .edit(
                        "a.ms",
                        "def base(n: Int): Int = n + n\ndef spare(n: Int): Int = n + 1\n",
                    )
                    .running_main(),
            )
            .expect("admitted")
            .wait()
            .expect("compiles");
        assert_eq!(warm.recompiled_units, 1, "body edit must not cascade");
        assert_eq!(warm.reused_units, 2);

        let report = svc.drain();
        let alice = &report.tenants["alice"];
        assert_eq!(alice.submitted, 2);
        assert_eq!(alice.completed, 2);
        assert_eq!(alice.accounted(), alice.submitted, "accounting closes");
        assert!(alice.memory.total_bytes > 0, "footprint charged");
    }

    #[test]
    fn infeasible_deadline_is_shed_at_admission() {
        let svc = service_with(&["t0"]);
        let err = svc
            .submit("t0", cold_request().with_deadline(Duration::from_nanos(1)))
            .expect_err("shed");
        match err {
            ServiceError::Overloaded {
                reason: OverloadReason::DeadlineInfeasible { .. },
                ..
            } => {}
            other => panic!("expected DeadlineInfeasible, got {other:?}"),
        }
        let report = svc.drain();
        let t = &report.tenants["t0"];
        assert_eq!(t.shed_deadline_infeasible, 1);
        assert_eq!(t.accounted(), t.submitted);
    }

    #[test]
    fn full_queue_sheds_with_structured_error() {
        let mut svc = CompileService::new(ServiceConfig {
            queue_capacity: 1,
            ..ServiceConfig::new(CompilerOptions::fused())
        });
        svc.add_tenant("busy").expect("register");
        // Stall the worker inside its first compile so follow-ups pile up.
        let plan = Arc::new(FaultPlan::new(7).with_fault(
            FaultKind::SlowUnitStall {
                unit: 0,
                millis: 300,
            },
            1,
        ));
        svc.inject_tenant_faults("busy", plan).expect("armed");
        // The inject job may still occupy the depth-1 queue — poll until
        // the worker has drained it and the compile is admitted.
        let first = loop {
            match svc.submit("busy", cold_request()) {
                Ok(t) => break t,
                Err(ServiceError::Overloaded { .. }) => thread::sleep(Duration::from_millis(5)),
                Err(e) => panic!("unexpected admission error: {e:?}"),
            }
        };
        // Let the worker dequeue the first compile and hit the stall.
        thread::sleep(Duration::from_millis(60));
        let _queued = svc.submit("busy", CompileRequest::new()).expect("queued");
        let err = svc
            .submit("busy", CompileRequest::new())
            .expect_err("queue full");
        match err {
            ServiceError::Overloaded {
                reason: OverloadReason::QueueFull { capacity: 1 },
                ..
            } => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        first.wait().expect("stalled compile still completes");
        let report = svc.drain();
        let busy = &report.tenants["busy"];
        assert!(busy.shed_queue_full >= 1, "shed counted");
        assert_eq!(busy.completed, 2);
        assert_eq!(busy.accounted(), busy.submitted);
    }

    #[test]
    fn panic_fault_retries_and_recovers() {
        let svc = {
            let mut svc = service_with(&["chaos"]);
            svc.add_tenant("other").expect("register");
            svc
        };
        // Cold compile both tenants first.
        svc.submit("chaos", cold_request())
            .expect("admitted")
            .wait()
            .expect("cold");
        svc.submit("other", cold_request())
            .expect("admitted")
            .wait()
            .expect("cold");
        // One-shot worker panic on the next chaos compile.
        let plan = Arc::new(FaultPlan::new(11).with_fault(FaultKind::PanicOnUnit { unit: 0 }, 1));
        svc.inject_tenant_faults("chaos", plan).expect("armed");
        let resp = svc
            .submit(
                "chaos",
                CompileRequest::new()
                    .edit(
                        "a.ms",
                        "def base(n: Int): Int = n + n + n\ndef spare(n: Int): Int = n + 1\n",
                    )
                    .running_main(),
            )
            .expect("admitted")
            .wait()
            .expect("degrades, not fails");
        assert!(
            resp.retried_sequential || resp.attempts > 1,
            "fault visible in per-request stats"
        );
        // The other tenant is untouched.
        let resp2 = svc
            .submit("other", CompileRequest::new().running_main())
            .expect("admitted")
            .wait()
            .expect("unaffected");
        assert_eq!(resp2.recompiled_units, 0);
        let report = svc.drain();
        assert_eq!(report.tenants["chaos"].escaped_panics, 0);
        assert_eq!(report.tenants["other"].escaped_panics, 0);
        assert!(
            report.tenants["chaos"].cache.worker_panics >= 1,
            "panic surfaced in counters"
        );
    }

    #[test]
    fn lint_diagnostics_surface_in_response_and_stats() {
        let mut svc =
            CompileService::new(ServiceConfig::new(CompilerOptions::fused().with_lint(true)));
        svc.add_tenant("lin").expect("register");
        let cold = svc
            .submit("lin", cold_request())
            .expect("admitted")
            .wait()
            .expect("compiles");
        // Lint is observation-only: the program still runs identically.
        assert_eq!(cold.output.as_deref(), Some(&["20".to_string()][..]));
        // `spare` in a.ms is defined but never referenced in its unit.
        let spare = cold
            .diagnostics
            .iter()
            .find(|d| d.unit == "a.ms" && d.msg.contains("`spare`"))
            .unwrap_or_else(|| panic!("unused-def surfaced: {:?}", cold.diagnostics));
        assert_eq!(spare.code, "L001");
        assert!(spare.line > 0, "joined against retained source");
        assert!(
            spare.rendered.contains(" --> a.ms:") && spare.rendered.contains('^'),
            "caret rendering present:\n{}",
            spare.rendered
        );

        // A warm no-op compile replays the cached findings byte-identically.
        let warm = svc
            .submit("lin", CompileRequest::new())
            .expect("admitted")
            .wait()
            .expect("compiles");
        assert_eq!(warm.recompiled_units, 0, "nothing dirty");
        assert_eq!(
            warm.diagnostics, cold.diagnostics,
            "cache-replayed findings render identically"
        );

        let report = svc.drain();
        let t = &report.tenants["lin"];
        assert_eq!(
            t.findings_reported,
            (cold.diagnostics.len() + warm.diagnostics.len()) as u64
        );
    }

    #[test]
    fn drain_rejects_new_work_but_finishes_queued() {
        let svc = service_with(&["d0"]);
        let ticket = svc.submit("d0", cold_request()).expect("admitted");
        let report = svc.drain();
        let resp = ticket.wait().expect("queued work still completes");
        assert_eq!(resp.recompiled_units, 3);
        assert_eq!(report.tenants["d0"].completed, 1);
    }
}
