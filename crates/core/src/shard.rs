//! Sharded maintenance: hash-partitioning the catalog by chronicle group.
//!
//! Theorem 4.1 restricts joins (and union/difference) to chronicles within
//! one chronicle group, and SN monotonicity is enforced per group — so a
//! chronicle group, its chronicles, and every view over them form a unit
//! whose maintenance is independent of every other group's. [`ShardedDb`]
//! exploits that: it owns `N` complete [`ChronicleDb`] instances
//! ("shards"), assigns each group to the shard `fnv1a(name) % N`, and
//! routes every statement to the shard that owns its objects. Each shard
//! keeps the existing serial maintenance loop, WAL stream, and checkpoint
//! cadence; nothing inside a shard knows it is one of many.
//!
//! Placement rules:
//!
//! * a **group** lives on `fnv1a(group name) % N`; chronicles live with
//!   their group (a chronicle created without a group lives wherever the
//!   implicit `default` group hashes);
//! * a **view** lives with the chronicle its `FROM` names — deltas then
//!   never cross a shard boundary; a view over no chronicle at all (a
//!   pure-relation view) pins to shard 0;
//! * **relations** are replicated to every shard and DML broadcasts to
//!   all replicas, because CA allows a chronicle in any group to join a
//!   relation. Each replica stamps the update against its own group
//!   watermarks, which is exactly the paper's per-group proactive
//!   semantics. Replicas stay identical because every shard applies the
//!   same DML in the same order;
//! * **DDL** is serialized through the facade (`&mut self` — exclusive
//!   access is the catalog lock); the concurrent pipeline serializes it
//!   the same way under its routing table's write lock.
//!
//! A one-shard `ShardedDb` is the general case of the engine, not a second
//! one: `ShardedDb::from(db)` wraps an existing [`ChronicleDb`] (disk
//! layout untouched) so pipelines, servers and drivers hold one type for
//! either topology.
//!
//! Durable layout: `path/SHARDS` (the
//! [`chronicle_durability::ShardManifest`]) plus one full database
//! directory per shard, `path/shard-000/`, `path/shard-001/`, ….
//! [`ShardedDb::open`] refuses a shard count that disagrees with the
//! manifest (the hash assignment is only stable for a fixed `N`) and
//! recovers all shards in parallel, one thread each.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use chronicle_durability::{
    DurabilityOptions, RecoveryPolicy, SalvageReport, ScrubReport, ShardManifest, WalRecord,
};
use chronicle_simkit::{RealFs, Vfs};
use chronicle_sql::{parse, Statement};
use chronicle_types::{mutate, ChronicleError, Chronon, Result, Tuple, Value};

use crate::db::{AppendOutcome, ChronicleDb, ExecOutcome};
use crate::stats::{DbStats, GroupRates};

/// 64-bit FNV-1a. In-tree so the group→shard assignment is deterministic
/// across runs and builds (`std`'s `DefaultHasher` is explicitly allowed
/// to change between releases, which would scatter a reopened database's
/// groups across the wrong shards).
fn fnv1a(name: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The shard that owns chronicle group `name` in an `n`-shard database.
pub fn shard_of_group(name: &str, n: usize) -> usize {
    (fnv1a(name) % n as u64) as usize
}

/// Name of the group a chronicle without an explicit `IN GROUP` joins.
const DEFAULT_GROUP: &str = "default";

/// Where one statement executes: a single owning shard, or every shard
/// (relation DDL/DML replicates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RouteTarget {
    /// Execute on this shard only.
    One(usize),
    /// Broadcast to every shard, in shard order.
    All,
}

/// The routing-table update a successful DDL statement commits. Planned
/// before execution, applied only after the owning shard accepted the
/// statement — so a rejected statement never pollutes the routes.
#[derive(Debug, Clone)]
pub(crate) enum RouteEffect {
    AddGroup(String, usize),
    AddChronicle {
        name: String,
        shard: usize,
        /// The statement had no `IN GROUP`: record where the implicit
        /// `default` group landed.
        implicit_default: bool,
    },
    AddRelation(String),
    AddView(String, usize),
    DropView(String),
}

/// Name → owning-shard maps for every kind of catalog object. Cheap to
/// clone; the pipeline front-end shares one snapshot across producers.
#[derive(Debug, Clone)]
pub struct ShardRoutes {
    shards: usize,
    groups: HashMap<String, usize>,
    chronicles: HashMap<String, usize>,
    views: HashMap<String, usize>,
    /// Relations exist on every shard; the set only answers existence.
    relations: HashSet<String>,
}

impl ShardRoutes {
    fn new(shards: usize) -> Self {
        ShardRoutes {
            shards,
            groups: HashMap::new(),
            chronicles: HashMap::new(),
            views: HashMap::new(),
            relations: HashSet::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard owning chronicle `name`.
    pub fn chronicle_shard(&self, name: &str) -> Result<usize> {
        self.chronicles
            .get(name)
            .copied()
            .ok_or_else(|| ChronicleError::NotFound {
                kind: "chronicle",
                name: name.into(),
            })
    }

    /// The shard owning chronicle group `name`. For a moved group this is
    /// its current placement, not its hash assignment.
    pub fn group_shard(&self, name: &str) -> Result<usize> {
        self.groups
            .get(name)
            .copied()
            .ok_or_else(|| ChronicleError::NotFound {
                kind: "chronicle group",
                name: name.into(),
            })
    }

    /// The shard owning persistent view `name`.
    pub fn view_shard(&self, name: &str) -> Result<usize> {
        self.views
            .get(name)
            .copied()
            .ok_or_else(|| ChronicleError::NotFound {
                kind: "view",
                name: name.into(),
            })
    }

    /// Plan one statement against the current routes: where it executes,
    /// and (for DDL) the route update to commit once it succeeds. This is
    /// the single routing authority shared by [`ShardedDb::execute`] and
    /// the concurrent pipeline's SQL front end — duplicate-name checks
    /// and placement rules live here, nowhere else.
    pub(crate) fn plan(&self, stmt: &Statement) -> Result<(RouteTarget, Option<RouteEffect>)> {
        match stmt {
            Statement::CreateGroup { name } => {
                if self.groups.contains_key(name) {
                    return Err(ChronicleError::AlreadyExists {
                        kind: "chronicle group",
                        name: name.clone(),
                    });
                }
                let target = shard_of_group(name, self.shards);
                Ok((
                    RouteTarget::One(target),
                    Some(RouteEffect::AddGroup(name.clone(), target)),
                ))
            }
            Statement::CreateChronicle { name, group, .. } => {
                if self.chronicles.contains_key(name) {
                    return Err(ChronicleError::AlreadyExists {
                        kind: "chronicle",
                        name: name.clone(),
                    });
                }
                let target = match group {
                    Some(g) => {
                        self.groups
                            .get(g)
                            .copied()
                            .ok_or_else(|| ChronicleError::NotFound {
                                kind: "chronicle group",
                                name: g.clone(),
                            })?
                    }
                    // No explicit group: the shard owning the implicit
                    // `default` group creates it on first use.
                    None => self
                        .groups
                        .get(DEFAULT_GROUP)
                        .copied()
                        .unwrap_or_else(|| shard_of_group(DEFAULT_GROUP, self.shards)),
                };
                Ok((
                    RouteTarget::One(target),
                    Some(RouteEffect::AddChronicle {
                        name: name.clone(),
                        shard: target,
                        implicit_default: group.is_none(),
                    }),
                ))
            }
            Statement::CreateRelation { name, .. } => {
                if self.relations.contains(name) {
                    return Err(ChronicleError::AlreadyExists {
                        kind: "relation",
                        name: name.clone(),
                    });
                }
                Ok((
                    RouteTarget::All,
                    Some(RouteEffect::AddRelation(name.clone())),
                ))
            }
            Statement::CreateView { name, query }
            | Statement::CreatePeriodicView { name, query, .. } => {
                self.check_new_view(name)?;
                let target = self.view_target(&query.from)?;
                Ok((
                    RouteTarget::One(target),
                    Some(RouteEffect::AddView(name.clone(), target)),
                ))
            }
            Statement::Append(a) => {
                Ok((RouteTarget::One(self.chronicle_shard(&a.chronicle)?), None))
            }
            Statement::InsertRelation { .. }
            | Statement::UpdateRelation { .. }
            | Statement::DeleteRelation { .. } => Ok((RouteTarget::All, None)),
            Statement::Select { target, .. } => {
                Ok((RouteTarget::One(self.select_shard(target)), None))
            }
            Statement::DropView { name } => Ok((
                RouteTarget::One(self.view_shard(name)?),
                Some(RouteEffect::DropView(name.clone())),
            )),
        }
    }

    /// Commit the route update of a DDL statement that succeeded.
    pub(crate) fn apply(&mut self, effect: RouteEffect) {
        match effect {
            RouteEffect::AddGroup(name, shard) => {
                self.groups.insert(name, shard);
            }
            RouteEffect::AddChronicle {
                name,
                shard,
                implicit_default,
            } => {
                if implicit_default {
                    self.groups.insert(DEFAULT_GROUP.into(), shard);
                }
                self.chronicles.insert(name, shard);
            }
            RouteEffect::AddRelation(name) => {
                self.relations.insert(name);
            }
            RouteEffect::AddView(name, shard) => {
                self.views.insert(name, shard);
            }
            RouteEffect::DropView(name) => {
                self.views.remove(&name);
            }
        }
    }

    /// The shard that answers `SELECT * FROM target`: the view's owner,
    /// any relation replica (shard 0 answers for all — replicas are
    /// identical), the chronicle's owner for a window scan, or shard 0 so
    /// an unknown name gets its NotFound from a real shard.
    pub(crate) fn select_shard(&self, target: &str) -> usize {
        if let Some(&s) = self.views.get(target) {
            s
        } else if self.relations.contains(target) {
            0
        } else if let Some(&s) = self.chronicles.get(target) {
            s
        } else {
            0
        }
    }

    fn check_new_view(&self, name: &str) -> Result<()> {
        if self.views.contains_key(name) {
            return Err(ChronicleError::AlreadyExists {
                kind: "view",
                name: name.into(),
            });
        }
        Ok(())
    }

    /// Where a view defined `FROM from` lives: with its base chronicle's
    /// group, so maintenance deltas never cross shards. A view over a
    /// relation only (no chronicle anywhere in the shard map) pins to
    /// shard 0.
    fn view_target(&self, from: &str) -> Result<usize> {
        if let Some(&s) = self.chronicles.get(from) {
            return Ok(s);
        }
        if self.relations.contains(from) {
            return Ok(0);
        }
        Err(ChronicleError::NotFound {
            kind: "chronicle",
            name: from.into(),
        })
    }
}

/// One relocation in a heavy-light placement plan (see
/// [`ShardedDb::plan_rebalance`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedMove {
    /// The group to move.
    pub group: String,
    /// The shard currently holding it.
    pub from: usize,
    /// The destination shard.
    pub to: usize,
}

/// A chronicle database hash-partitioned into independent maintenance
/// shards. See the module docs for the placement rules.
#[derive(Debug)]
pub struct ShardedDb {
    shards: Vec<ChronicleDb>,
    routes: ShardRoutes,
    /// True when a salvage open found the `SHARDS` manifest corrupt,
    /// quarantined it, and rewrote it from the requested shard count.
    manifest_salvaged: bool,
}

impl ShardedDb {
    /// An in-memory database partitioned into `shards` shards.
    pub fn new(shards: usize) -> Result<ShardedDb> {
        if shards == 0 {
            return Err(ChronicleError::Internal(
                "a sharded database needs at least one shard".into(),
            ));
        }
        Ok(ShardedDb {
            shards: (0..shards).map(|_| ChronicleDb::new()).collect(),
            routes: ShardRoutes::new(shards),
            manifest_salvaged: false,
        })
    }

    /// Open (creating if absent) a durable sharded database at `path` with
    /// default [`DurabilityOptions`]. `shards` must match the on-disk
    /// manifest when the database already exists.
    pub fn open(path: impl AsRef<Path>, shards: usize) -> Result<ShardedDb> {
        Self::open_with(path, shards, DurabilityOptions::default())
    }

    /// [`ShardedDb::open`] with explicit durability options (applied to
    /// every shard). Recovery runs all shards in parallel — each shard
    /// loads its newest checkpoint and replays its own WAL tail on its own
    /// thread — then the name→shard routes are rebuilt from the recovered
    /// catalogs.
    pub fn open_with(
        path: impl AsRef<Path>,
        shards: usize,
        opts: DurabilityOptions,
    ) -> Result<ShardedDb> {
        Self::open_with_vfs(RealFs::arc(), path, shards, opts)
    }

    /// [`ShardedDb::open_with`] against an explicit filesystem — the hook
    /// the deterministic simulation harness uses to run every shard over
    /// one shared [`SimFs`](chronicle_simkit::SimFs) world. Note the
    /// parallel per-shard recovery: a `SimFs` fault plan (crash countdown,
    /// short reads) trips in thread-scheduling order here, so simulation
    /// drivers clear fault plans before a sharded reopen and inject faults
    /// only while the database is serially executing.
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        shards: usize,
        opts: DurabilityOptions,
    ) -> Result<ShardedDb> {
        let root = path.as_ref();
        let manifest_salvaged = Self::open_root(vfs.as_ref(), root, shards, opts)?;
        let recovered: Vec<Result<ChronicleDb>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..shards)
                .map(|i| {
                    let dir = ShardManifest::shard_dir(root, i);
                    let vfs = Arc::clone(&vfs);
                    s.spawn(move || ChronicleDb::open_with_vfs(vfs, dir, opts))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard recovery thread panicked"))
                .collect()
        });
        let mut dbs = Vec::with_capacity(shards);
        for (i, r) in recovered.into_iter().enumerate() {
            dbs.push(r.map_err(|e| ChronicleError::Durability {
                detail: format!("recovering shard {i}: {e}"),
            })?);
        }
        Self::reconcile_placement(&mut dbs)?;
        Ok(Self::from_shards(dbs, manifest_salvaged))
    }

    /// Assemble a database over already-open shards, deriving the routes
    /// from their catalogs.
    pub(crate) fn from_shards(shards: Vec<ChronicleDb>, manifest_salvaged: bool) -> ShardedDb {
        let routes = Self::rebuild_routes(&shards);
        ShardedDb {
            shards,
            routes,
            manifest_salvaged,
        }
    }

    /// Prepare the root of a sharded layout: create the directory and
    /// validate — or, when absent, write — the `SHARDS` manifest. Leader
    /// and follower opens share this one manifest discipline. Returns true
    /// when a salvage open quarantined a corrupt manifest and rewrote it.
    pub(crate) fn open_root(
        vfs: &dyn Vfs,
        root: &Path,
        shards: usize,
        opts: DurabilityOptions,
    ) -> Result<bool> {
        if shards == 0 {
            return Err(ChronicleError::Internal(
                "a sharded database needs at least one shard".into(),
            ));
        }
        vfs.create_dir_all(root)
            .map_err(|e| ChronicleError::Durability {
                detail: format!("creating database directory {}: {e}", root.display()),
            })?;
        // A corrupt manifest is a loud error under Strict. Under Salvage it
        // is quarantined and rewritten from the requested shard count — the
        // caller's `shards` is the only remaining source of truth, and an
        // honest wrong guess surfaces immediately as per-shard recovery
        // errors rather than silent misrouting (shard directories for a
        // different count would not line up). A *valid* manifest that
        // disagrees with `shards` stays loud under every policy: that is an
        // operator error, not rot.
        let mut manifest_salvaged = false;
        let loaded = match ShardManifest::load_with_vfs(vfs, root) {
            Err(ChronicleError::Corruption { .. }) if opts.recovery == RecoveryPolicy::Salvage => {
                ShardManifest::quarantine_with_vfs(vfs, root, opts.fsync)?;
                manifest_salvaged = true;
                None
            }
            other => other?,
        };
        match loaded {
            Some(m) if m.shards as usize != shards => {
                return Err(ChronicleError::Durability {
                    detail: format!(
                        "shard count mismatch: {} is partitioned into {} shards, requested {} \
                         (the group hash assignment is only stable for a fixed shard count)",
                        root.display(),
                        m.shards,
                        shards
                    ),
                });
            }
            Some(_) => {}
            None => ShardManifest {
                shards: shards as u32,
            }
            .write_with_vfs(vfs, root, opts.fsync)?,
        }
        Ok(manifest_salvaged)
    }

    /// Post-recovery placement reconciliation. A crash between a group
    /// move's two WAL flushes — the target's `GroupImport`, then the
    /// source's `GroupEvict` — recovers the group onto *both* shards. The
    /// copy with the highest placement epoch is the one the move reached
    /// last (export bumps the epoch the import adopts), so it wins and the
    /// stale copies are durably evicted, rolling the interrupted move
    /// forward. The implicit `default` group is exempt: it is derived
    /// state that legitimately exists on every shard relation DML or an
    /// ungrouped chronicle materialized it on.
    fn reconcile_placement(dbs: &mut [ChronicleDb]) -> Result<()> {
        let mut holders: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, db) in dbs.iter().enumerate() {
            for g in db.catalog().groups() {
                holders.entry(g.name().to_string()).or_default().push(i);
            }
        }
        let mut contested: Vec<(String, Vec<usize>)> = holders
            .into_iter()
            .filter(|(name, shards)| name != DEFAULT_GROUP && shards.len() > 1)
            .collect();
        contested.sort();
        for (name, shards) in contested {
            let winner = shards
                .iter()
                .copied()
                .max_by_key(|&i| (dbs[i].group_epoch(&name), usize::MAX - i))
                .expect("contested group has holders");
            for i in shards {
                if i != winner {
                    dbs[i]
                        .evict_group(&name)
                        .map_err(|e| ChronicleError::Durability {
                            detail: format!(
                                "evicting stale copy of group `{name}` from shard {i} \
                                 during placement reconciliation: {e}"
                            ),
                        })?;
                }
            }
        }
        Ok(())
    }

    /// Reconstruct the name→shard maps from recovered shard catalogs.
    /// Groups route to the shard that actually holds them — after a
    /// placement move that is no longer the hash shard. The `default`
    /// group keeps its hash assignment (it may exist on several shards —
    /// relation DML broadcasts create it everywhere — but it always
    /// exists on its hash shard if it exists at all, and it never moves);
    /// everything else routes to the shard that actually holds it.
    fn rebuild_routes(dbs: &[ChronicleDb]) -> ShardRoutes {
        let n = dbs.len();
        let mut routes = ShardRoutes::new(n);
        for (i, db) in dbs.iter().enumerate() {
            for g in db.catalog().groups() {
                let shard = if g.name() == DEFAULT_GROUP {
                    shard_of_group(g.name(), n)
                } else {
                    i
                };
                routes.groups.insert(g.name().to_string(), shard);
            }
            for c in db.catalog().chronicles() {
                routes.chronicles.insert(c.name().to_string(), i);
            }
            for (name, _) in db.catalog().relations() {
                routes.relations.insert(name.to_string());
            }
            for v in db.maintainer().iter_views() {
                routes.views.insert(v.name().to_string(), i);
            }
        }
        routes
    }

    // ---- introspection ----------------------------------------------------

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's database (tests, experiments, `.views`).
    pub fn shard(&self, i: usize) -> &ChronicleDb {
        &self.shards[i]
    }

    /// All shards, in shard order.
    pub fn shards(&self) -> &[ChronicleDb] {
        &self.shards
    }

    /// The current name→shard routing table.
    pub fn routes(&self) -> &ShardRoutes {
        &self.routes
    }

    /// The shard owning chronicle `name`.
    pub fn shard_of_chronicle(&self, name: &str) -> Result<usize> {
        self.routes.chronicle_shard(name)
    }

    /// Toggle vectorized vs forced-scalar view maintenance on every shard.
    pub fn set_batch_mode(&mut self, mode: chronicle_views::BatchMode) {
        for s in &mut self.shards {
            s.set_batch_mode(mode);
        }
    }

    /// Statistics aggregated across every shard (counters add, maxima take
    /// the max, latency percentiles draw on all shards' samples). Use
    /// [`ShardedDb::shard`]`.stats()` for one shard's own numbers.
    pub fn stats(&self) -> DbStats {
        let mut total = DbStats::default();
        for s in &self.shards {
            total.absorb(s.stats());
        }
        if self.manifest_salvaged {
            total
                .salvage
                .get_or_insert_with(SalvageReport::default)
                .manifest_rewritten = true;
        }
        total
    }

    /// Per-shard salvage reports from the most recent open, in shard order
    /// (only shards that were opened with
    /// [`RecoveryPolicy::Salvage`] carry one). The aggregated view is
    /// [`ShardedDb::stats`]`.salvage`.
    pub fn salvage_reports(&self) -> Vec<(usize, SalvageReport)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.stats().salvage.clone().map(|r| (i, r)))
            .collect()
    }

    /// True when the most recent open quarantined a corrupt `SHARDS`
    /// manifest and rewrote it from the requested shard count.
    pub fn manifest_salvaged(&self) -> bool {
        self.manifest_salvaged
    }

    /// Scrub every shard's checkpoints and WAL segments (read-only; see
    /// [`chronicle_durability::scrub_database`]) and merge the findings.
    /// The `SHARDS` manifest itself is fully validated on every open, so a
    /// database that is running has a sound manifest by construction.
    pub fn scrub(&self) -> Result<ScrubReport> {
        let mut total = ScrubReport::default();
        for s in &self.shards {
            total.merge(&s.scrub()?);
        }
        Ok(total)
    }

    /// Snapshot every persistent view across all shards, sorted by view
    /// name — shard-count-independent, so a sharded database and a
    /// single-shard one holding the same logical state produce identical
    /// images (the equivalence the property tests assert).
    pub fn snapshot_views(&self) -> Vec<(String, Vec<u8>)> {
        let mut all: Vec<(String, Vec<u8>)> = self
            .shards
            .iter()
            .flat_map(|s| s.snapshot_views())
            .collect();
        all.sort();
        all
    }

    // ---- durability -------------------------------------------------------

    /// Checkpoint every shard; returns the covered LSN per shard.
    pub fn checkpoint(&mut self) -> Result<Vec<u64>> {
        self.shards.iter_mut().map(|s| s.checkpoint()).collect()
    }

    /// Flush buffered WAL records on every shard; returns the total
    /// records made durable.
    pub fn wal_flush(&mut self) -> Result<u64> {
        let mut n = 0;
        for s in &mut self.shards {
            n += s.wal_flush()?;
        }
        Ok(n)
    }

    // ---- statement routing ------------------------------------------------

    /// Parse and execute one SQL statement, routed to the owning shard
    /// (relation DDL/DML broadcasts to all shards). `&mut self` serializes
    /// DDL against everything else — exclusive access is the catalog lock.
    /// Routing decisions come from `ShardRoutes::plan`, the same
    /// authority the concurrent pipeline's SQL front end uses.
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome> {
        self.execute_routed(sql, None)
    }

    /// [`ShardedDb::execute`] with an idempotent-session stamp: the owning
    /// shard(s) dedupe `(session, seq)` against their per-shard tables
    /// (see [`ChronicleDb::execute_stamped`]). Routing is a pure function
    /// of the SQL text and the catalog, so a byte-identical retry reaches
    /// the same shards and every shard independently recognizes — or
    /// freshly applies — the statement; a broadcast interrupted mid-way is
    /// *repaired* by its retry (already-applied replicas answer from
    /// cache, the rest catch up).
    pub fn execute_stamped(&mut self, sql: &str, session: u64, seq: u64) -> Result<ExecOutcome> {
        self.execute_routed(sql, Some((session, seq)))
    }

    /// The one body behind [`ShardedDb::execute`] and
    /// [`ShardedDb::execute_stamped`]. A broadcast applies the statement to
    /// every shard's replica in shard order. All replicas see the same
    /// statements in the same order, so a failure is deterministic: it
    /// strikes shard 0 before any replica mutates, or all replicas
    /// identically.
    fn execute_routed(&mut self, sql: &str, stamp: Option<(u64, u64)>) -> Result<ExecOutcome> {
        let stmt = parse(sql)?;
        let (target, effect) = self.routes.plan(&stmt)?;
        let targets = match target {
            RouteTarget::One(i) => &mut self.shards[i..=i],
            RouteTarget::All => &mut self.shards[..],
        };
        let mut last = None;
        for s in targets {
            last = Some(s.execute_with(sql, stamp)?);
        }
        if let Some(e) = effect {
            self.routes.apply(e);
        }
        Ok(last.expect("at least one shard"))
    }

    // ---- leadership term (failover fencing, DESIGN.md §17) ----------------

    /// Current leadership term: the max over all shards (0 until a
    /// promotion has ever happened in this database's history).
    pub fn term(&self) -> u64 {
        self.shards.iter().map(|s| s.term()).max().unwrap_or(0)
    }

    /// Highest sequence number applied for `session` on any shard, or
    /// `None` if the session has never committed here. A stamped
    /// statement lands on exactly one shard, so the max across shards is
    /// the session's global high-water mark.
    pub fn session_last_seq(&self, session: u64) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|s| s.session_last_seq(session))
            .max()
    }

    /// Adopt leadership term `t`: every shard logs a flushed `Term` WAL
    /// record before this returns, so the new term is durable — and ships
    /// to any attached follower — ahead of any traffic served under it.
    pub fn begin_term(&mut self, t: u64) -> Result<()> {
        for s in &mut self.shards {
            s.note_term(t)?;
        }
        Ok(())
    }

    // ---- direct append / query (programmatic path) ------------------------

    /// Append rows to a chronicle at chronon `at` on its owning shard,
    /// maintaining that shard's views.
    pub fn append(
        &mut self,
        chronicle: &str,
        at: Chronon,
        rows: &[Vec<Value>],
    ) -> Result<AppendOutcome> {
        let target = self.routes.chronicle_shard(chronicle)?;
        self.shards[target].append(chronicle, at, rows)
    }

    /// All rows of a persistent view (ordered by group key).
    pub fn query_view(&self, name: &str) -> Result<Vec<Tuple>> {
        let target = self.routes.view_shard(name)?;
        self.shards[target].query_view(name)
    }

    /// Point lookup in a persistent view.
    pub fn query_view_key(&self, name: &str, key: &[Value]) -> Result<Option<Tuple>> {
        let target = self.routes.view_shard(name)?;
        self.shards[target].query_view_key(name, key)
    }

    /// `SELECT`-shaped read: rows of a view, relation, or chronicle
    /// window, with equality filters — what `ExecOutcome::Rows` carries,
    /// without `&mut self`, so a leader and a read-only follower answer
    /// through the same function.
    pub fn select(
        &self,
        target: &str,
        filters: &[(String, chronicle_sql::Literal)],
    ) -> Result<Vec<Tuple>> {
        self.shards[self.routes.select_shard(target)].select_rows(target, filters)
    }

    // ---- heavy-light placement (DESIGN.md §16) ----------------------------

    /// Move chronicle group `group` — its chronicles, watermark, and every
    /// view over them — onto shard `to`, overriding the hash placement.
    /// Theorem 4.1 makes the group an independent maintenance unit, so the
    /// move is invisible to view semantics: snapshots before and after are
    /// identical, only *where* maintenance runs changes.
    ///
    /// Durability is two-phase: the target logs a `GroupImport` WAL record
    /// (with the full group slice as payload) and flushes, then the source
    /// logs `GroupEvict` and flushes. A crash between the flushes leaves
    /// the group on both shards; [`ShardedDb::open`] reconciles by
    /// placement epoch, keeping the imported copy — every interrupted move
    /// rolls forward, never half-applies.
    ///
    /// `&mut self` serializes the move against all statements, exactly
    /// like DDL: callers running the concurrent pipeline must shut it down
    /// first (the shutdown barrier is the delta drain).
    pub fn move_group(&mut self, group: &str, to: usize) -> Result<()> {
        if group == DEFAULT_GROUP {
            return Err(ChronicleError::Internal(
                "the implicit `default` group cannot be moved: it is derived state \
                 that may exist on every shard"
                    .into(),
            ));
        }
        if to >= self.shards.len() {
            return Err(ChronicleError::NotFound {
                kind: "shard",
                name: to.to_string(),
            });
        }
        let from = self.routes.group_shard(group)?;
        if from == to {
            return Ok(());
        }
        let image = self.shards[from].export_group(group)?;
        self.shards[to].import_group(&image)?;
        self.shards[from].evict_group(group)?;
        self.routes = Self::rebuild_routes(&self.shards);
        Ok(())
    }

    /// Classify the current append-rate profile into a placement plan: a
    /// group is **heavy** when its decayed append rate exceeds 1.5× the
    /// per-shard average (`2·rate·n > 3·total` in integers — no floats, so
    /// the decision is bit-reproducible). Each heavy group gets a shard to
    /// itself — its current shard when available, else the lowest-index
    /// unclaimed one — with heavies capped at `n−1` so light groups keep
    /// at least one shard. Light groups stranded on a dedicated shard are
    /// evacuated longest-processing-time-first onto the least-loaded
    /// non-dedicated shard; lights elsewhere stay put (no churn). Rates of
    /// zero-traffic groups have fully decayed, so they may share a
    /// dedicated shard — they contribute no appends.
    ///
    /// Deterministic: rates are integers, groups are ranked rate-desc then
    /// name-asc, ties in shard load break toward the lowest index. With
    /// `CHRONICLE_MUTATE=static_placement` the classifier is disabled and
    /// the plan is always empty (the verify.sh mutation check proves the
    /// E18 skew gate notices).
    pub fn plan_rebalance(&self) -> Vec<PlannedMove> {
        if mutate("static_placement") {
            return Vec::new();
        }
        let n = self.shards.len();
        if n < 2 {
            return Vec::new();
        }
        let mut rates = GroupRates::default();
        for s in &self.shards {
            rates.absorb(&s.stats().group_rates);
        }
        let mut ranked: Vec<(String, u64, usize)> = rates
            .iter()
            .filter(|(g, _)| *g != DEFAULT_GROUP)
            .filter_map(|(g, r)| {
                self.routes
                    .group_shard(g)
                    .ok()
                    .map(|shard| (g.to_string(), r, shard))
            })
            .collect();
        let total: u128 = ranked.iter().map(|(_, r, _)| u128::from(*r)).sum();
        if total == 0 {
            return Vec::new();
        }
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut moves = Vec::new();
        let mut claimed: HashSet<usize> = HashSet::new();
        let mut heavy_count = 0usize;
        for (g, r, cur) in &ranked {
            if heavy_count + 1 >= n || 2 * u128::from(*r) * n as u128 <= 3 * total {
                break;
            }
            heavy_count += 1;
            let shard = if claimed.contains(cur) {
                (0..n)
                    .find(|s| !claimed.contains(s))
                    .expect("fewer heavies than shards")
            } else {
                *cur
            };
            claimed.insert(shard);
            if shard != *cur {
                moves.push(PlannedMove {
                    group: g.clone(),
                    from: *cur,
                    to: shard,
                });
            }
        }
        if claimed.is_empty() {
            return Vec::new();
        }
        // Light groups: those stranded on a now-dedicated shard evacuate;
        // the rest stay and their rates form the base load for LPT
        // assignment. `ranked` is already rate-descending — LPT order.
        let mut load = vec![0u128; n];
        let mut evacuees: Vec<(&String, u64, usize)> = Vec::new();
        for (g, r, cur) in ranked.iter().skip(heavy_count) {
            if claimed.contains(cur) {
                evacuees.push((g, *r, *cur));
            } else {
                load[*cur] += u128::from(*r);
            }
        }
        for (g, r, from) in evacuees {
            let to = (0..n)
                .filter(|s| !claimed.contains(s))
                .min_by_key(|&s| (load[s], s))
                .expect("heavies capped at n-1 leave a light shard");
            load[to] += u128::from(r);
            moves.push(PlannedMove {
                group: g.clone(),
                from,
                to,
            });
        }
        moves
    }

    /// Plan ([`ShardedDb::plan_rebalance`]) and apply
    /// ([`ShardedDb::move_group`]) a heavy-light placement pass. Returns
    /// the moves that were applied. View snapshots, checkpoint contents
    /// and per-statement work counters are identical before and after —
    /// placement only changes which shard does the work.
    pub fn rebalance(&mut self) -> Result<Vec<PlannedMove>> {
        let plan = self.plan_rebalance();
        for m in &plan {
            self.move_group(&m.group, m.to)?;
        }
        // The planner owns the rate-decay clock: folding every shard's
        // table at the same instants keeps the tables spanning the same
        // observation interval, so the next pass compares like with like
        // (see `GroupRates::decay`).
        for s in &mut self.shards {
            s.decay_group_rates();
        }
        Ok(plan)
    }

    // ---- pipeline and follower plumbing -----------------------------------

    /// Apply WAL records a leader logged on shard `shard` — the only
    /// write path of a follower's detached database — through the normal
    /// replay arms.
    pub(crate) fn apply_shipped(
        &mut self,
        shard: usize,
        records: Vec<(u64, WalRecord)>,
    ) -> Result<()> {
        let mut rerouted = false;
        for (lsn, rec) in records {
            // Group moves (import/evict) relocate objects between shards
            // just like DDL creates them — both invalidate the routes.
            rerouted |= matches!(
                rec,
                WalRecord::Ddl(_) | WalRecord::GroupImport { .. } | WalRecord::GroupEvict(_)
            );
            self.shards[shard]
                .apply_wal_record(rec)
                .map_err(|e| ChronicleError::Corruption {
                    detail: format!("shipped record lsn {lsn} does not apply: {e}"),
                })?;
        }
        if rerouted {
            // Rebuild the name→shard maps the same way recovery does. Rare
            // enough that eager rebuild beats tracking incremental effects
            // across replicated shards.
            self.routes = Self::rebuild_routes(&self.shards);
        }
        Ok(())
    }

    /// Split into per-shard databases plus the routing table (the sharded
    /// pipeline gives each shard its own worker thread).
    pub(crate) fn into_parts(self) -> (Vec<ChronicleDb>, ShardRoutes, bool) {
        (self.shards, self.routes, self.manifest_salvaged)
    }

    /// Reassemble after the pipeline returns the shards.
    pub(crate) fn from_parts(
        shards: Vec<ChronicleDb>,
        routes: ShardRoutes,
        manifest_salvaged: bool,
    ) -> ShardedDb {
        debug_assert_eq!(shards.len(), routes.shards);
        ShardedDb {
            shards,
            routes,
            manifest_salvaged,
        }
    }
}

/// The single-engine case: one shard holding `db` as it is. Nothing is
/// written — a durable `db` keeps its own directory (no `SHARDS` manifest,
/// no `shard-000/`), so its files stay byte-identical to an unwrapped
/// [`ChronicleDb`] driven through the same statements.
impl From<ChronicleDb> for ShardedDb {
    fn from(db: ChronicleDb) -> ShardedDb {
        ShardedDb::from_shards(vec![db], false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_group_db(shards: usize) -> ShardedDb {
        let mut db = ShardedDb::new(shards).unwrap();
        db.execute("CREATE GROUP telecom").unwrap();
        db.execute("CREATE GROUP banking").unwrap();
        db.execute("CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT) IN GROUP telecom")
            .unwrap();
        db.execute("CREATE CHRONICLE txns (sn SEQ, acct INT, amount FLOAT) IN GROUP banking")
            .unwrap();
        db.execute(
            "CREATE VIEW call_totals AS SELECT caller, SUM(minutes) AS m FROM calls GROUP BY caller",
        )
        .unwrap();
        db.execute("CREATE VIEW balances AS SELECT acct, SUM(amount) AS b FROM txns GROUP BY acct")
            .unwrap();
        db
    }

    #[test]
    fn routes_follow_groups() {
        let db = two_group_db(4);
        let calls_shard = db.shard_of_chronicle("calls").unwrap();
        let txns_shard = db.shard_of_chronicle("txns").unwrap();
        assert_eq!(calls_shard, shard_of_group("telecom", 4));
        assert_eq!(txns_shard, shard_of_group("banking", 4));
        // Views live with their base chronicle.
        assert_eq!(db.routes().view_shard("call_totals").unwrap(), calls_shard);
        assert_eq!(db.routes().view_shard("balances").unwrap(), txns_shard);
        // The owning shard has the view; a different shard does not.
        assert!(db.shard(calls_shard).query_view("call_totals").is_ok());
    }

    #[test]
    fn appends_and_queries_route_transparently() {
        let mut db = two_group_db(3);
        db.execute("APPEND INTO calls VALUES (555, 12.5)").unwrap();
        db.execute("APPEND INTO txns VALUES (1, 100.0)").unwrap();
        db.execute("APPEND INTO txns VALUES (1, -30.0)").unwrap();
        assert_eq!(
            db.query_view_key("balances", &[Value::Int(1)])
                .unwrap()
                .unwrap()
                .get(1),
            &Value::Float(70.0)
        );
        assert_eq!(
            db.query_view_key("call_totals", &[Value::Int(555)])
                .unwrap()
                .unwrap()
                .get(1),
            &Value::Float(12.5)
        );
        // Aggregated stats see both shards' appends.
        assert_eq!(db.stats().appends, 3);
    }

    #[test]
    fn sequence_numbers_are_per_group() {
        let mut db = two_group_db(2);
        let a = db
            .append(
                "calls",
                Chronon(1),
                &[vec![Value::Int(1), Value::Float(1.0)]],
            )
            .unwrap();
        let b = db
            .append(
                "txns",
                Chronon(1),
                &[vec![Value::Int(1), Value::Float(1.0)]],
            )
            .unwrap();
        // Each group starts its own SN sequence regardless of shard count.
        assert_eq!(a.seq, b.seq);
    }

    #[test]
    fn duplicate_names_rejected_across_shards() {
        let mut db = two_group_db(4);
        assert!(db.execute("CREATE GROUP telecom").is_err());
        assert!(db
            .execute("CREATE CHRONICLE calls (sn SEQ, x INT) IN GROUP banking")
            .is_err());
        assert!(db
            .execute(
                "CREATE VIEW balances AS SELECT caller, COUNT(*) AS n FROM calls GROUP BY caller"
            )
            .is_err());
    }

    #[test]
    fn relations_replicate_and_join_views_work_on_any_shard() {
        let mut db = two_group_db(4);
        db.execute(
            "CREATE RELATION customers (acct INT, name STRING, state STRING, PRIMARY KEY (acct))",
        )
        .unwrap();
        db.execute("INSERT INTO customers VALUES (555, 'alice', 'NJ')")
            .unwrap();
        // A join view over a chronicle in either group finds the replica
        // on its own shard.
        db.execute(
            "CREATE VIEW nj_calls AS SELECT caller, COUNT(*) AS n FROM calls \
             JOIN customers ON caller = acct WHERE state = 'NJ' GROUP BY caller",
        )
        .unwrap();
        db.execute(
            "CREATE VIEW nj_txns AS SELECT acct, COUNT(*) AS n FROM txns \
             JOIN customers ON acct = acct WHERE state = 'NJ' GROUP BY acct",
        )
        .unwrap();
        db.execute("APPEND INTO calls VALUES (555, 2.0)").unwrap();
        db.execute("APPEND INTO txns VALUES (555, 10.0)").unwrap();
        assert_eq!(db.query_view("nj_calls").unwrap().len(), 1);
        assert_eq!(db.query_view("nj_txns").unwrap().len(), 1);
        // Relation SELECTs answer from shard 0's replica.
        match db.execute("SELECT * FROM customers").unwrap() {
            ExecOutcome::Rows(rows) => assert_eq!(rows.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_shard_matches_unsharded_semantics() {
        let mut sharded = two_group_db(1);
        let mut plain = ChronicleDb::new();
        for sql in [
            "CREATE GROUP telecom",
            "CREATE GROUP banking",
            "CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT) IN GROUP telecom",
            "CREATE CHRONICLE txns (sn SEQ, acct INT, amount FLOAT) IN GROUP banking",
            "CREATE VIEW call_totals AS SELECT caller, SUM(minutes) AS m FROM calls GROUP BY caller",
            "CREATE VIEW balances AS SELECT acct, SUM(amount) AS b FROM txns GROUP BY acct",
        ] {
            plain.execute(sql).unwrap();
        }
        for sql in [
            "APPEND INTO calls VALUES (555, 12.5)",
            "APPEND INTO txns VALUES (9, 4.0)",
            "APPEND INTO calls VALUES (555, 0.5)",
        ] {
            sharded.execute(sql).unwrap();
            plain.execute(sql).unwrap();
        }
        assert_eq!(sharded.snapshot_views(), {
            let mut v = plain.snapshot_views();
            v.sort();
            v
        });
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(ShardedDb::new(0).is_err());
    }

    /// View snapshots plus every chronicle's window, each keyed by name.
    type LogicalState = (Vec<(String, Vec<u8>)>, Vec<(String, Vec<Tuple>)>);

    /// Total logical state of a sharded db, for before/after-move
    /// comparisons: sorted view snapshots plus every chronicle's window.
    fn logical_state(db: &ShardedDb) -> LogicalState {
        let mut windows: Vec<(String, Vec<Tuple>)> = db
            .shards()
            .iter()
            .flat_map(|s| {
                s.catalog()
                    .chronicles()
                    .iter()
                    .map(|c| (c.name().to_string(), c.scan_window().cloned().collect()))
            })
            .collect();
        windows.sort_by(|a, b| a.0.cmp(&b.0));
        (db.snapshot_views(), windows)
    }

    #[test]
    fn moves_relocate_state_without_changing_it() {
        let mut db = two_group_db(4);
        db.execute(
            "CREATE RELATION customers (acct INT, name STRING, state STRING, PRIMARY KEY (acct))",
        )
        .unwrap();
        db.execute("INSERT INTO customers VALUES (555, 'alice', 'NJ')")
            .unwrap();
        db.execute(
            "CREATE VIEW nj_calls AS SELECT caller, COUNT(*) AS n FROM calls \
             JOIN customers ON caller = acct WHERE state = 'NJ' GROUP BY caller",
        )
        .unwrap();
        db.execute("APPEND INTO calls VALUES (555, 12.5)").unwrap();
        db.execute("APPEND INTO txns VALUES (1, 100.0)").unwrap();
        let home = db.routes().group_shard("telecom").unwrap();
        let target = (home + 1) % 4;
        let before = logical_state(&db);
        db.move_group("telecom", target).unwrap();
        // The group, its chronicle and both its views now live on the
        // target; state is bit-identical.
        assert_eq!(db.routes().group_shard("telecom").unwrap(), target);
        assert_eq!(db.shard_of_chronicle("calls").unwrap(), target);
        assert_eq!(db.routes().view_shard("call_totals").unwrap(), target);
        assert_eq!(db.routes().view_shard("nj_calls").unwrap(), target);
        assert!(!db.shard(home).has_group("telecom"));
        assert_eq!(logical_state(&db), before);
        // The moved group keeps working: appends route to the new shard,
        // views keep maintaining, SN sequence continues.
        db.execute("APPEND INTO calls VALUES (555, 0.5)").unwrap();
        assert_eq!(
            db.query_view_key("call_totals", &[Value::Int(555)])
                .unwrap()
                .unwrap()
                .get(1),
            &Value::Float(13.0)
        );
        // Moving back works too.
        db.move_group("telecom", home).unwrap();
        assert_eq!(db.shard_of_chronicle("calls").unwrap(), home);
        assert_eq!(
            db.query_view_key("nj_calls", &[Value::Int(555)])
                .unwrap()
                .unwrap()
                .get(1),
            &Value::Int(2)
        );
    }

    #[test]
    fn default_group_and_bad_targets_are_refused() {
        let mut db = ShardedDb::new(3).unwrap();
        db.execute("CREATE CHRONICLE c (sn SEQ, x INT)").unwrap();
        assert!(db.move_group("default", 1).is_err());
        db.execute("CREATE GROUP g").unwrap();
        assert!(db.move_group("g", 9).is_err());
        assert!(db.move_group("nope", 0).is_err());
        // A no-op move (already there) succeeds.
        let cur = db.routes().group_shard("g").unwrap();
        db.move_group("g", cur).unwrap();
    }

    #[test]
    fn moved_placement_survives_reopen() {
        let tmp = chronicle_testkit::TempDir::new("sharded-moved-reopen");
        let (before, target) = {
            let mut db = ShardedDb::open(tmp.path(), 3).unwrap();
            db.execute("CREATE GROUP telecom").unwrap();
            db.execute(
                "CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT) IN GROUP telecom",
            )
            .unwrap();
            db.execute(
                "CREATE VIEW call_totals AS \
                 SELECT caller, SUM(minutes) AS m FROM calls GROUP BY caller",
            )
            .unwrap();
            db.execute("APPEND INTO calls VALUES (555, 2.5)").unwrap();
            let home = db.routes().group_shard("telecom").unwrap();
            let target = (home + 1) % 3;
            db.move_group("telecom", target).unwrap();
            db.execute("APPEND INTO calls VALUES (7, 1.0)").unwrap();
            db.wal_flush().unwrap();
            (logical_state(&db), target)
            // No clean shutdown: recovery must replay the import and the
            // post-move append from the WALs alone.
        };
        let db = ShardedDb::open(tmp.path(), 3).unwrap();
        assert_eq!(db.routes().group_shard("telecom").unwrap(), target);
        assert_eq!(logical_state(&db), before);
        // Checkpoint + reopen keeps the placement too (the epoch and the
        // group slice now come from the checkpoint image, not the WAL).
        {
            let mut db = ShardedDb::open(tmp.path(), 3).unwrap();
            db.checkpoint().unwrap();
        }
        let db = ShardedDb::open(tmp.path(), 3).unwrap();
        assert_eq!(db.routes().group_shard("telecom").unwrap(), target);
        assert_eq!(logical_state(&db), before);
    }

    #[test]
    fn interrupted_move_rolls_forward_on_reopen() {
        let tmp = chronicle_testkit::TempDir::new("sharded-interrupted-move");
        let (before, home, target) = {
            let mut db = ShardedDb::open(tmp.path(), 3).unwrap();
            db.execute("CREATE GROUP telecom").unwrap();
            db.execute(
                "CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT) IN GROUP telecom",
            )
            .unwrap();
            db.execute(
                "CREATE VIEW call_totals AS \
                 SELECT caller, SUM(minutes) AS m FROM calls GROUP BY caller",
            )
            .unwrap();
            db.execute("APPEND INTO calls VALUES (555, 2.5)").unwrap();
            db.wal_flush().unwrap();
            let home = db.routes().group_shard("telecom").unwrap();
            let target = (home + 1) % 3;
            let state = logical_state(&db);
            // Simulate a crash between the move's two flushes: the target
            // durably imported, the source never logged its eviction.
            let image = db.shards[home].export_group("telecom").unwrap();
            db.shards[target].import_group(&image).unwrap();
            (state, home, target)
        };
        let db = ShardedDb::open(tmp.path(), 3).unwrap();
        // Reconciliation kept the higher-epoch imported copy and evicted
        // the stale source copy — the move completed.
        assert_eq!(db.routes().group_shard("telecom").unwrap(), target);
        assert!(!db.shard(home).has_group("telecom"));
        assert!(db.shard(target).has_group("telecom"));
        assert_eq!(logical_state(&db), before);
        // Exactly one shard owns the group.
        let owners: Vec<usize> = (0..3)
            .filter(|&i| db.shard(i).has_group("telecom"))
            .collect();
        assert_eq!(owners, vec![target]);
    }

    #[test]
    fn classifier_dedicates_heavy_groups_and_balances_the_rest() {
        let mut db = ShardedDb::new(4).unwrap();
        // Six groups; one gets ~10x the traffic of the other five.
        for i in 0..6 {
            db.execute(&format!("CREATE GROUP g{i}")).unwrap();
            db.execute(&format!(
                "CREATE CHRONICLE c{i} (sn SEQ, x INT) IN GROUP g{i}"
            ))
            .unwrap();
        }
        for round in 0..40 {
            for _ in 0..10 {
                db.execute("APPEND INTO c0 VALUES (1)").unwrap();
            }
            let i = 1 + (round % 5);
            db.execute(&format!("APPEND INTO c{i} VALUES (1)")).unwrap();
        }
        let before = logical_state(&db);
        let plan = db.plan_rebalance();
        let heavy_to = plan
            .iter()
            .find(|m| m.group == "g0")
            .map(|m| m.to)
            .unwrap_or_else(|| db.routes().group_shard("g0").unwrap());
        // Whatever shard g0 ends on, the plan leaves it there alone.
        for m in &plan {
            if m.group != "g0" {
                assert_ne!(
                    m.to, heavy_to,
                    "light group planned onto the dedicated shard"
                );
            }
        }
        let applied = db.rebalance().unwrap();
        assert_eq!(applied, plan, "rebalance applies exactly its plan");
        // The dedicated shard now holds only the heavy group (plus at most
        // the zero-rate leftovers, of which there are none here).
        for i in 1..6 {
            let s = db.routes().group_shard(&format!("g{i}")).unwrap();
            assert_ne!(s, heavy_to, "g{i} still shares the dedicated shard");
        }
        assert_eq!(logical_state(&db), before, "placement changed state");
        // A second pass right away is a no-op: the profile is unchanged
        // and every heavy already sits on its dedicated shard.
        assert!(
            db.rebalance().unwrap().is_empty(),
            "rebalance did not converge"
        );
    }

    #[test]
    fn uniform_traffic_plans_no_moves() {
        let mut db = ShardedDb::new(4).unwrap();
        for i in 0..8 {
            db.execute(&format!("CREATE GROUP g{i}")).unwrap();
            db.execute(&format!(
                "CREATE CHRONICLE c{i} (sn SEQ, x INT) IN GROUP g{i}"
            ))
            .unwrap();
        }
        for _ in 0..20 {
            for i in 0..8 {
                db.execute(&format!("APPEND INTO c{i} VALUES (1)")).unwrap();
            }
        }
        assert!(
            db.plan_rebalance().is_empty(),
            "no group exceeds 1.5x the per-shard average under uniform load"
        );
    }

    #[test]
    fn durable_shards_recover_in_parallel() {
        let tmp = chronicle_testkit::TempDir::new("sharded-recovery");
        let snap_before = {
            let mut db = ShardedDb::open(tmp.path(), 3).unwrap();
            db.execute("CREATE GROUP telecom").unwrap();
            db.execute("CREATE GROUP banking").unwrap();
            db.execute(
                "CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT) IN GROUP telecom",
            )
            .unwrap();
            db.execute("CREATE CHRONICLE txns (sn SEQ, acct INT, amount FLOAT) IN GROUP banking")
                .unwrap();
            db.execute(
                "CREATE VIEW call_totals AS \
                 SELECT caller, SUM(minutes) AS m FROM calls GROUP BY caller",
            )
            .unwrap();
            db.execute("APPEND INTO calls VALUES (555, 2.5)").unwrap();
            db.execute("APPEND INTO txns VALUES (1, 10.0)").unwrap();
            db.checkpoint().unwrap();
            db.execute("APPEND INTO calls VALUES (555, 1.5)").unwrap();
            db.wal_flush().unwrap();
            db.snapshot_views()
            // Dropped without a clean shutdown: recovery must replay the
            // post-checkpoint WAL tail of every shard.
        };
        let db = ShardedDb::open(tmp.path(), 3).unwrap();
        assert_eq!(db.snapshot_views(), snap_before);
        assert_eq!(
            db.query_view_key("call_totals", &[Value::Int(555)])
                .unwrap()
                .unwrap()
                .get(1),
            &Value::Float(4.0)
        );
        // Routes were rebuilt from the recovered catalogs.
        assert_eq!(
            db.shard_of_chronicle("calls").unwrap(),
            shard_of_group("telecom", 3)
        );
        // A different shard count refuses to open the same directory.
        let err = ShardedDb::open(tmp.path(), 2).unwrap_err();
        assert!(matches!(err, ChronicleError::Durability { .. }));
    }
}
