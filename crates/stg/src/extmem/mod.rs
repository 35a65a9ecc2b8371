//! External-memory sharded reachability —
//! [`ReachStrategy::Spill`](crate::reach::ReachStrategy::Spill).
//!
//! There is one BFS driver (`crate::reach::Explorer`): it owns the
//! mask-compiled net, the narrow-width speculation, the BFS discovery
//! order, the enabled-set derivation, the `jobs` fan-out with its
//! ordered merge and every error. This module supplies the *paged*
//! state store it can run over, which bounds peak resident memory by
//! [`ReachConfig::memory_budget`] instead of by the state count:
//!
//! * **Paged state arena** (`arena`): packed markings live in
//!   fixed-stride pages; pages past the resident budget are written
//!   back to scratch files and faulted in on demand (clock eviction).
//! * **Hash-partitioned shards** (`shard`): the marking hash selects
//!   a shard; each shard owns its intern table and arena segment.
//!   Global state ids are assigned in BFS discovery order at intern
//!   time, so the merged graph's numbering — and therefore its bytes —
//!   are identical to the in-RAM store's.
//! * **Spill frontier and edge log** (`frontier`): the
//!   level-synchronized BFS frontier and the fired-edge log keep
//!   bounded in-memory buffers and overflow to sequential run files.
//! * **RAII manifest** (`manifest`): every scratch file lives in one
//!   run-scoped directory removed on drop — success, error and panic
//!   paths alike.
//! * **Durable checkpoints** (`checkpoint`): at a configurable level
//!   cadence ([`ReachConfig::checkpoint_every`]) the full exploration
//!   state is atomically snapshotted into
//!   [`ReachConfig::checkpoint_dir`] — a checksummed, versioned
//!   manifest committed by temp+rename over the arena pages, intern
//!   tables, pending frontier and edge log. A killed run continues from
//!   the last snapshot via [`ReachConfig::resume`], producing a graph
//!   byte-identical to an uninterrupted run.
//!
//! Checkpointing is the paged store's capability: the driver reports
//! every completed level, and the store snapshots at the configured
//! cadence. Level boundaries are the one moment the frontier's read
//! side is consumed and the driver's parallel batches are merged, so a
//! snapshot is level-consistent at any [`ReachConfig::jobs`]. Under
//! fan-out the store reads each level in bounded batches.
//!
//! What stays in memory regardless of the budget: the per-shard intern
//! tables and local→global maps (16–24 bytes per distinct state) and
//! the `O(states + edges)` outputs the caller asked for (BFS parents,
//! CSR offsets, the final materialized graph). The budget governs the
//! *working set* — marking storage, frontier, edge buffering, and the
//! parallel batch buffer — which is what otherwise dwarfs the rest on
//! token-game state explosions.

mod arena;
mod checkpoint;
mod frontier;
mod manifest;
mod shard;

use crate::petri::Stg;
use crate::reach::{
    explore_widening, narrow_width, Abort, Arcs, BfsTree, Exploration, PackedNet, ReachConfig,
    ReachError, StateStore,
};
use checkpoint::{CheckpointCtx, LoadedManifest, Snapshot};
use frontier::{EdgeLog, SpillFrontier};
use manifest::SpillManifest;
use shard::{shard_of, Interned, Shard};
use simap_sg::{Event, SignalId, StateId};
use std::path::PathBuf;
use std::rc::Rc;

/// Disk and memory counters of one spill exploration, reported through
/// [`crate::reach::ReachStats::spill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillCounters {
    /// Total bytes written to scratch files (arena pages, frontier runs,
    /// edge log). Zero when the whole run fit in the budget.
    pub spilled_bytes: u64,
    /// Scratch files created (all inside the run directory, all removed
    /// when the exploration ends).
    pub files_created: u32,
    /// Peak resident bytes of the budgeted working set: arena page
    /// caches plus frontier, edge-log and parallel batch buffers. At
    /// most [`SpillCounters::budget`], up to small per-component floors
    /// (two pages per shard, one record per frontier buffer).
    pub resident_peak: u64,
    /// In-memory index bytes outside the budgeted working set (intern
    /// tables, local→global maps): `O(distinct states)`.
    pub table_bytes: u64,
    /// The effective memory budget the run was held to.
    pub budget: u64,
    /// The effective shard count.
    pub shards: u32,
    /// Checkpoint generations committed by this run
    /// ([`ReachConfig::checkpoint_every`]; zero when checkpointing is
    /// off).
    pub checkpoints_written: u32,
    /// Total bytes of committed checkpoint artifacts and manifests.
    pub checkpoint_bytes: u64,
    /// BFS level this run resumed from ([`ReachConfig::resume`]; zero
    /// for a cold start).
    pub resume_level: u64,
}

/// Smallest honored budget (one arena page): below this the component
/// floors (two arena pages per shard, one frontier record per buffer,
/// one buffered edge) dominate anyway.
const MIN_BUDGET: usize = 4096;

/// Shard-count ceiling (each shard pins up to two arena pages).
const MAX_SHARDS: usize = 512;

/// Runs the token game with the paged store. Graphs — and errors — are
/// byte-identical to [`crate::reach::explore_packed`] on every net both
/// can elaborate.
pub(crate) fn explore_spill(stg: &Stg, config: &ReachConfig) -> Result<Exploration, ReachError> {
    let nshards = config.shards.clamp(1, MAX_SHARDS);
    let loaded = match &config.resume {
        Some(dir) => Some(checkpoint::load_manifest(dir, stg, config, nshards)?),
        None => None,
    };
    // Resume continues at the checkpoint's recorded field width. If that
    // narrow layout overflows *after* the resume point, the restart at
    // full width runs cold — the same restart an uninterrupted narrow
    // run would have taken, so the output bytes cannot tell.
    let first = loaded.as_ref().map_or_else(|| narrow_width(stg), |m| m.width);
    explore_widening(stg, config, first, |net, first_attempt| {
        PagedStore::open(stg, config, net, loaded.as_ref().filter(|_| first_attempt))
    })
}

fn io_abort(context: &str, e: std::io::Error) -> Abort {
    Abort::Error(ReachError::Spill { detail: format!("{context}: {e}") })
}

/// The paged state store: hash-partitioned shards (intern table plus
/// file-backed marking arena each), the spill frontier of pending
/// `[marking | mask]` records and the edge log — everything a
/// checkpoint persists, which makes checkpointing this store's
/// capability.
pub(crate) struct PagedStore {
    stride: usize,
    t_words: usize,
    width: u32,
    budget: usize,
    shards: Vec<Shard>,
    /// The shard the last [`StateStore::intern`] miss reserved in.
    reserved: usize,
    frontier: SpillFrontier,
    edges: EdgeLog,
    /// Parallel batch buffer, its capacity in records, and its
    /// accounted footprint once a batch was read.
    batch: Vec<u64>,
    batch_cap: usize,
    batch_bytes: u64,
    manifest: Rc<SpillManifest>,
    /// The checkpoint stream (`None`: checkpointing is off).
    pub(crate) ckpt: Option<CheckpointCtx>,
    /// BFS levels completed, counted from the resume level.
    level: u64,
    resume_level: u64,
    /// The checkpoint this run resumes from, consumed on success.
    resume_dir: Option<PathBuf>,
}

impl PagedStore {
    /// A store for `net`'s geometry, restored from `resume` when given
    /// (handing back the restored BFS tree as well).
    pub(crate) fn open(
        stg: &Stg,
        config: &ReachConfig,
        net: &PackedNet,
        resume: Option<&LoadedManifest>,
    ) -> Result<(PagedStore, Option<BfsTree>), Abort> {
        let (stride, t_words) = (net.words, net.t_words);
        if let Some(m) = resume {
            if m.stride != stride || m.t_words != t_words {
                return Err(Abort::Error(ReachError::Checkpoint {
                    detail: format!(
                        "checkpoint geometry (stride {}, mask words {}) does not match the \
                         current net (stride {stride}, mask words {t_words})",
                        m.stride, m.t_words
                    ),
                }));
            }
        }

        let budget = config.memory_budget.max(MIN_BUDGET);
        let nshards = config.shards.clamp(1, MAX_SHARDS);
        // Working-set split: half to the sharded arena page caches, a
        // quarter to the frontier buffers, the rest to the edge log. The
        // parallel batch buffer borrows half the frontier share.
        let arena_share = budget / 2;
        let frontier_share = budget / 4;
        let edge_share = budget - arena_share - frontier_share;
        let rec_words = stride + t_words;
        let batch_cap = (frontier_share / 2 / 8 / rec_words).clamp(2 * config.jobs.max(1), 8192);

        let manifest = Rc::new(SpillManifest::create(config.spill_dir.as_deref())?);
        let shards: Vec<Shard> = (0..nshards)
            .map(|i| {
                let name = format!("shard-{i}.arena");
                Shard::new(stride, arena_share / nshards, name, Rc::clone(&manifest))
            })
            .collect();
        let ckpt = match &config.checkpoint_dir {
            Some(dir) if config.checkpoint_every > 0 => Some(CheckpointCtx {
                dir: dir.clone(),
                config_digest: checkpoint::config_digest(config, nshards),
                net_digest: checkpoint::net_digest(stg),
                every: config.checkpoint_every as u64,
                written: 0,
                bytes: 0,
            }),
            _ => None,
        };
        let resume_level = resume.map_or(0, |m| m.level);
        let mut store = PagedStore {
            stride,
            t_words,
            width: net.width,
            budget,
            shards,
            reserved: 0,
            frontier: SpillFrontier::new(rec_words, frontier_share, Rc::clone(&manifest)),
            edges: EdgeLog::new(edge_share, Rc::clone(&manifest)),
            batch: Vec::new(),
            batch_cap,
            batch_bytes: 0,
            manifest,
            ckpt,
            level: resume_level,
            resume_level,
            resume_dir: config.resume.clone(),
        };
        let tree = match (resume, &config.resume) {
            (Some(m), Some(dir)) => Some(checkpoint::restore(
                dir,
                m,
                stg.transition_count(),
                &mut store.shards,
                &mut store.frontier,
                &mut store.edges,
            )?),
            _ => None,
        };
        Ok((store, tree))
    }
}

impl StateStore for PagedStore {
    fn intern(&mut self, marking: &[u64], h: u64) -> Result<Option<usize>, Abort> {
        let sh = shard_of(h, self.shards.len());
        match self.shards[sh].intern(marking, h).map_err(|e| io_abort("intern", e))? {
            Interned::Existing(g) => Ok(Some(g as usize)),
            Interned::New => {
                self.reserved = sh;
                Ok(None)
            }
        }
    }

    fn commit(&mut self, marking: &[u64], mask: &[u64], id: usize) -> Result<(), Abort> {
        self.shards[self.reserved]
            .commit(marking, id as u64)
            .map_err(|e| io_abort("arena append", e))?;
        self.frontier.push(marking, mask).map_err(|e| io_abort("frontier write", e))
    }

    fn push_edge(&mut self, event: Event, dst: usize) -> Result<(), Abort> {
        // Event code `(signal << 1) | rising`, decoded again on replay.
        let code = ((event.signal.0 as u64) << 1) | u64::from(event.rising);
        self.edges.push(code, dst as u64).map_err(|e| io_abort("edge log write", e))
    }

    fn edges(&self) -> usize {
        self.edges.len()
    }

    fn begin_level(&mut self) -> Result<usize, Abort> {
        Ok(self.frontier.begin_level() as usize)
    }

    fn next_record(&mut self, out: &mut [u64]) -> Result<bool, Abort> {
        self.frontier.next(out).map_err(|e| io_abort("frontier read", e))
    }

    fn next_batch<R>(&mut self, f: impl FnOnce(&[u64]) -> R) -> Result<Option<R>, Abort> {
        let rec_words = self.stride + self.t_words;
        if self.batch.capacity() == 0 {
            self.batch = Vec::with_capacity(self.batch_cap * rec_words);
            self.batch_bytes = (self.batch_cap * rec_words * 8) as u64;
        }
        self.batch.clear();
        let mut rec = vec![0u64; rec_words];
        while self.batch.len() < self.batch_cap * rec_words && self.next_record(&mut rec)? {
            self.batch.extend_from_slice(&rec);
        }
        Ok((!self.batch.is_empty()).then(|| f(&self.batch)))
    }

    /// Commits a checkpoint when the level count hits the cadence.
    fn end_level(&mut self, tree: &BfsTree) -> Result<(), Abort> {
        self.level += 1;
        let Some(ctx) = self.ckpt.as_mut().filter(|c| self.level.is_multiple_of(c.every)) else {
            return Ok(());
        };
        let snap = Snapshot {
            level: self.level,
            width: self.width,
            count: tree.parent.len(),
            src: tree.edge_off.len(),
            safe: tree.safe,
            stride: self.stride,
            t_words: self.t_words,
            shards: &self.shards,
            frontier: &self.frontier,
            edges: &self.edges,
            parent: &tree.parent,
            edge_off: &tree.edge_off,
            fired: &tree.fired,
        };
        Ok(checkpoint::write(ctx, &snap)?)
    }

    /// Replays the edge log, assembles the counters, and — the
    /// exploration having completed — removes its checkpoints.
    fn finish(self) -> Result<(Arcs, Option<SpillCounters>), Abort> {
        let resident_peak = self.shards.iter().map(Shard::arena_peak_bytes).sum::<u64>()
            + self.frontier.peak_bytes()
            + self.edges.peak_bytes()
            + self.batch_bytes;
        let table_bytes = self.shards.iter().map(Shard::table_bytes).sum::<u64>();
        let mut arcs: Arcs = Vec::with_capacity(self.edges.len());
        self.edges
            .replay(|code, dst| {
                let event = Event { signal: SignalId((code >> 1) as usize), rising: code & 1 == 1 };
                arcs.push((event, StateId(dst as usize)));
            })
            .map_err(|e| io_abort("edge log read", e))?;

        let counters = SpillCounters {
            spilled_bytes: self.manifest.bytes_spilled(),
            files_created: self.manifest.files_created(),
            resident_peak,
            table_bytes,
            budget: self.budget as u64,
            shards: self.shards.len() as u32,
            checkpoints_written: self.ckpt.as_ref().map_or(0, |c| c.written),
            checkpoint_bytes: self.ckpt.as_ref().map_or(0, |c| c.bytes),
            resume_level: self.resume_level,
        };
        // The checkpoints have served their purpose. Remove the managed
        // artifacts (never the directories themselves); failures here
        // must not fail a finished run.
        if let Some(ctx) = &self.ckpt {
            checkpoint::clean(&ctx.dir);
        }
        if let Some(dir) = &self.resume_dir {
            checkpoint::clean(dir);
        }
        Ok((arcs, Some(counters)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_g;
    use crate::reach::{Explorer, ReachStrategy};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    const FORK_JOIN: &str = "\
.model fj
.inputs a
.outputs b c d
.graph
a+ b+ c+
b+ d+
c+ d+
d+ a-
a- b- c-
b- d-
c- d-
d- a+
.marking { <d-,a+> }
.end
";

    fn test_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "simap-ckpt-test-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spill_config() -> ReachConfig {
        ReachConfig {
            strategy: ReachStrategy::Spill,
            memory_budget: MIN_BUDGET,
            ..ReachConfig::default()
        }
    }

    fn assert_same_exploration(a: &Exploration, b: &Exploration) {
        assert_eq!(a.count, b.count);
        assert_eq!(a.parent, b.parent);
        assert_eq!(a.edge_off, b.edge_off);
        assert_eq!(a.edge_arcs, b.edge_arcs);
        assert_eq!(a.fired, b.fired);
        assert_eq!(a.safe, b.safe);
    }

    /// A 1-safe start whose `buf` place reaches two tokens at BFS depth
    /// 4: the narrow field layout holds through level 3 and overflows
    /// while level 4 is expanded.
    const WIDENS_LATE: &str = "\
.model widen
.inputs y
.outputs x u v
.graph
p0 x+
x+ p1 buf
p1 u+
u+ p2
p2 v+
v+ p3
p3 x-
x- p4 buf
p4 u-
u- p5
p5 v-
v- p0
s1 x+
s2 x-
buf y+ y-
y+ q1 s1
q1 y-
y- q0 s2
q0 y+
.marking { p0 s1 s2 q0 }
.end
";

    /// Runs the paged store for `levels` BFS levels at the narrow field
    /// width, committing a checkpoint after each, and then *drops* the
    /// explorer — the unit-test stand-in for a SIGKILL: the RAII scratch
    /// run vanishes, the checkpoint directory survives.
    fn run_levels_then_crash(stg: &Stg, config: &ReachConfig, dir: &std::path::Path, levels: u64) {
        let config = ReachConfig {
            checkpoint_every: 1,
            checkpoint_dir: Some(dir.to_path_buf()),
            ..config.clone()
        };
        let width = narrow_width(stg).min(crate::reach::full_width(stg, config.max_tokens));
        let net = PackedNet::compile(stg, config.max_tokens, width);
        let (store, _) = PagedStore::open(stg, &config, &net, None).ok().expect("store setup");
        let mut ex = Explorer::new(stg, &config, net, store, None).ok().expect("driver setup");
        for level in 1..=levels {
            assert!(ex.step_level().ok().expect("expand"), "net exhausted before level {level}");
        }
        let ctx = ex.store.ckpt.as_ref().expect("checkpointing is on");
        assert_eq!(ctx.written, levels as u32);
        assert!(ctx.bytes > 0);
        assert!(dir.join("MANIFEST").exists());
        assert!(dir.join(format!("gen-{levels}")).exists());
    }

    #[test]
    fn resume_after_crash_is_byte_identical() {
        let config = spill_config();
        // The second net resumes at the narrow width and must widen after
        // the checkpoint level: that restart runs cold.
        for (src, widens) in [(FORK_JOIN, false), (WIDENS_LATE, true)] {
            let stg = parse_g(src).unwrap();
            let cold = explore_spill(&stg, &config).unwrap();
            assert_eq!(cold.safe, !widens, "only the second net outgrows the narrow layout");
            for levels in 1..=3 {
                let dir = test_dir("resume");
                run_levels_then_crash(&stg, &config, &dir, levels);
                let resumed = explore_spill(
                    &stg,
                    &ReachConfig { resume: Some(dir.clone()), ..config.clone() },
                )
                .unwrap();
                assert_same_exploration(&cold, &resumed);
                let counters = resumed.spill.unwrap();
                assert_eq!(counters.resume_level, if widens { 0 } else { levels });
                // Success cleans the consumed checkpoint, keeps the dir.
                assert!(!dir.join("MANIFEST").exists());
                assert!(dir.exists());
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn parallel_jobs_are_byte_identical() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let base = explore_spill(&stg, &spill_config()).unwrap();
        for jobs in [2, 4] {
            let parallel = explore_spill(&stg, &ReachConfig { jobs, ..spill_config() }).unwrap();
            assert_same_exploration(&base, &parallel);
        }
    }

    #[test]
    fn checkpointed_run_cleans_up_and_counts() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let dir = test_dir("cadence");
        let config = ReachConfig {
            checkpoint_every: 2,
            checkpoint_dir: Some(dir.clone()),
            ..spill_config()
        };
        let run = explore_spill(&stg, &config).unwrap();
        let cold = explore_spill(&stg, &spill_config()).unwrap();
        assert_same_exploration(&cold, &run);
        let counters = run.spill.unwrap();
        assert!(counters.checkpoints_written >= 2, "{}", counters.checkpoints_written);
        assert!(counters.checkpoint_bytes > 0);
        assert_eq!(counters.resume_level, 0);
        assert!(!dir.join("MANIFEST").exists(), "completed run must clean its checkpoints");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_every_without_dir_is_refused() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let config = ReachConfig { checkpoint_every: 2, ..spill_config() };
        match crate::reach::explore(&stg, &config) {
            Err(ReachError::Checkpoint { detail }) => assert!(detail.contains("checkpoint_dir")),
            other => panic!("expected a checkpoint pairing error, got {other:?}"),
        }
    }

    #[test]
    fn resume_without_manifest_is_refused() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let dir = test_dir("empty");
        let config = ReachConfig { resume: Some(dir.clone()), ..spill_config() };
        match explore_spill(&stg, &config) {
            Err(ReachError::Checkpoint { detail }) => {
                assert!(detail.contains("nothing to resume"), "{detail}")
            }
            other => panic!("expected a missing-manifest error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_config_digest_is_refused_naming_both() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let config = spill_config();
        let dir = test_dir("cfg");
        run_levels_then_crash(&stg, &config, &dir, 1);
        let other = ReachConfig { max_tokens: 3, resume: Some(dir.clone()), ..config };
        match explore_spill(&stg, &other) {
            Err(ReachError::Checkpoint { detail }) => {
                assert!(detail.contains("configuration digest mismatch"), "{detail}");
                // Both digests are spelled out for the user.
                assert_eq!(detail.matches("0x").count(), 2, "{detail}");
            }
            other => panic!("expected a config digest refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_net_digest_is_refused_naming_both() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let config = spill_config();
        let dir = test_dir("net");
        run_levels_then_crash(&stg, &config, &dir, 1);
        let other_net = parse_g(&FORK_JOIN.replace(".model fj", ".model fk")).unwrap();
        match explore_spill(&other_net, &ReachConfig { resume: Some(dir.clone()), ..config }) {
            Err(ReachError::Checkpoint { detail }) => {
                assert!(detail.contains("net digest mismatch"), "{detail}");
                assert_eq!(detail.matches("0x").count(), 2, "{detail}");
            }
            other => panic!("expected a net digest refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_and_artifacts_are_refused_by_name() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let config = spill_config();
        let dir = test_dir("corrupt");
        run_levels_then_crash(&stg, &config, &dir, 2);
        let resume = ReachConfig { resume: Some(dir.clone()), ..config };

        // Bit-flip the manifest: checksum refusal.
        let manifest_path = dir.join("MANIFEST");
        let pristine = std::fs::read(&manifest_path).unwrap();
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&manifest_path, &flipped).unwrap();
        match explore_spill(&stg, &resume) {
            Err(ReachError::Checkpoint { detail }) => {
                assert!(detail.contains("MANIFEST") && detail.contains("corrupt"), "{detail}")
            }
            other => panic!("expected a manifest corruption refusal, got {other:?}"),
        }

        // Truncated manifest: size refusal.
        std::fs::write(&manifest_path, &pristine[..pristine.len() / 2 / 8 * 8]).unwrap();
        match explore_spill(&stg, &resume) {
            Err(ReachError::Checkpoint { detail }) => {
                assert!(detail.contains("corrupt"), "{detail}")
            }
            other => panic!("expected a truncation refusal, got {other:?}"),
        }
        std::fs::write(&manifest_path, &pristine).unwrap();

        // Bit-flip an artifact: the error names the artifact file.
        for artifact in ["state", "shard-0.records", "edges.log"] {
            let path = dir.join("gen-2").join(artifact);
            let good = std::fs::read(&path).unwrap();
            if good.is_empty() {
                continue;
            }
            let mut bad = good.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x04;
            std::fs::write(&path, &bad).unwrap();
            match explore_spill(&stg, &resume) {
                Err(ReachError::Checkpoint { detail }) => {
                    assert!(detail.contains(artifact), "`{artifact}` not named in: {detail}")
                }
                other => panic!("expected `{artifact}` corruption refusal, got {other:?}"),
            }
            std::fs::write(&path, &good).unwrap();
        }

        // Truncate an artifact: length refusal naming the file.
        let path = dir.join("gen-2").join("frontier.pending");
        let good = std::fs::read(&path).unwrap();
        if !good.is_empty() {
            std::fs::write(&path, &good[..good.len() - 8]).unwrap();
            match explore_spill(&stg, &resume) {
                Err(ReachError::Checkpoint { detail }) => {
                    assert!(detail.contains("frontier.pending"), "{detail}")
                }
                other => panic!("expected a truncation refusal, got {other:?}"),
            }
            std::fs::write(&path, &good).unwrap();
        }

        // Everything restored: the checkpoint resumes cleanly again.
        let cold = explore_spill(&stg, &spill_config()).unwrap();
        let resumed = explore_spill(&stg, &resume).unwrap();
        assert_same_exploration(&cold, &resumed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
