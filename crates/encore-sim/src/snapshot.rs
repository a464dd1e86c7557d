//! Periodic interpreter checkpoints for snapshot-and-resume SFI.
//!
//! A fault-injection run is bit-identical to the golden run up to its
//! injection point, so re-executing that prefix from dynamic instruction
//! 0 for every injection is pure waste — O(N·T) over a campaign. While
//! the golden run executes, the machine can capture a [`Snapshot`] of
//! its complete architectural state every `stride` dynamic instructions;
//! each injection then restores the nearest snapshot at-or-before its
//! injection point and pays only O(stride + suffix).
//!
//! ## What a snapshot must contain
//!
//! Restoring must be indistinguishable from having executed the prefix,
//! so a snapshot captures everything the remaining execution can
//! observe: the frame stack (registers, instruction pointers, armed
//! recovery states and their checkpoint logs), the full [`Memory`]
//! arena, the [`Externs`] environment (PRNG state, clock, output
//! channel), the allocation bookkeeping (`frame_seq`, `heap_seq`, the
//! per-site last-allocation table) and every counter the run reports or
//! keys behavior off — `dyn_insts` (fuel, detection deadlines),
//! `eligible_seen` (the injection ordinal), instrumentation and region
//! accounting, and the checkpoint-log high-water mark. All counters are
//! absolute, which is what makes resumption exact: a restored machine's
//! fuel check and detection deadline arithmetic see the same numbers a
//! from-scratch run would.
//!
//! Snapshots are immutable once captured and shared via [`Arc`], so a
//! campaign's worker threads restore from the same log without copying
//! it per worker.

use crate::externs::Externs;
use crate::interp::Frame;
use crate::memory::{Memory, PageHashes, PAGE_CELLS};
use std::sync::Arc;

/// The golden run's last-access interval tables: for every memory cell
/// the run touched, the last interval that read it and the last that
/// wrote it. Interval `i` is the stretch of execution after the `i`-th
/// snapshot capture (interval 0 precedes the first), so the run reads
/// cell `c` at some point after snapshot `k` — `c` is in the suffix
/// read set of `k` — exactly when `c`'s last read lies in an interval
/// `> k`; likewise for writes. Untouched cells read as interval 0,
/// which is in no suffix.
///
/// Stored per touched 64-cell page, so memory follows the golden run's
/// footprint (a page per touched page, a directory slot per page of a
/// touched object) whatever the snapshot count, and recording is one
/// array store per access.
#[derive(Debug, Default)]
pub(crate) struct LastAccess {
    /// Per object handle: page → 1 + its index in `pages` (0 = never
    /// touched). Grown on demand.
    dir: Vec<Vec<u32>>,
    /// Per touched page, per cell: `(last read, last write)` interval.
    pages: Vec<[(u32, u32); PAGE_CELLS]>,
}

impl LastAccess {
    /// Notes an access to cell `idx` of object `obj` during `interval`
    /// (intervals arrive in non-decreasing order, so the latest wins).
    #[inline]
    pub(crate) fn record(&mut self, obj: u32, idx: u32, interval: u32, write: bool) {
        let (obj, page) = (obj as usize, idx as usize / PAGE_CELLS);
        if self.dir.len() <= obj {
            self.dir.resize_with(obj + 1, Vec::new);
        }
        let dir = &mut self.dir[obj];
        if dir.len() <= page {
            dir.resize(page + 1, 0);
        }
        if dir[page] == 0 {
            self.pages.push([(0, 0); PAGE_CELLS]);
            dir[page] = self.pages.len() as u32;
        }
        let cell = &mut self.pages[dir[page] as usize - 1][idx as usize % PAGE_CELLS];
        if write {
            cell.1 = interval;
        } else {
            cell.0 = interval;
        }
    }

    /// `(last read, last write)` interval of a cell; `(0, 0)` if never
    /// touched.
    fn get(&self, obj: u32, idx: u32) -> (u32, u32) {
        let slot = self
            .dir
            .get(obj as usize)
            .and_then(|d| d.get(idx as usize / PAGE_CELLS))
            .copied()
            .unwrap_or(0);
        match slot {
            0 => (0, 0),
            p => self.pages[p as usize - 1][idx as usize % PAGE_CELLS],
        }
    }
}

/// Complete interpreter state at one golden-run step boundary.
///
/// Captured by the campaign's golden run (see
/// [`SfiCampaign::prepare`](crate::SfiCampaign::prepare)); restored to
/// start an injection run mid-trace. Opaque outside the crate: the
/// public surface is the position accessors.
pub struct Snapshot {
    /// Position in the log's capture order (assigned by
    /// [`SnapshotLog::push`]) — the key the splice's incremental probe
    /// state uses to track which golden intervals it has absorbed.
    pub(crate) index: usize,
    /// Per-page FNV content hashes of `mem` (plus the NaN poison set),
    /// maintained incrementally by the golden run as it captures — the
    /// probe compares an injected run's dirty pages against these
    /// without reading a single golden cell.
    pub(crate) page_hashes: PageHashes,
    pub(crate) frames: Vec<Frame>,
    pub(crate) mem: Memory,
    pub(crate) externs: Externs,
    pub(crate) dyn_insts: u64,
    pub(crate) instr_dyn: u64,
    pub(crate) frame_seq: u32,
    pub(crate) heap_seq: u32,
    pub(crate) last_alloc_of_site: Vec<Option<usize>>,
    pub(crate) region_dyn: Vec<u64>,
    pub(crate) region_touched: Vec<bool>,
    pub(crate) eligible_seen: u64,
    pub(crate) ckpt_high_water: u64,
    /// Region activations (`SetRecovery` executions) retired before
    /// capture — resumed runs must keep numbering activations exactly
    /// where the golden prefix left off so the convergence splice can
    /// realign rolled-back runs against [`SnapshotLog::activation_dyn`].
    pub(crate) activations: u64,
}

impl Snapshot {
    /// Dynamic instruction count at capture.
    #[must_use]
    pub fn dyn_insts(&self) -> u64 {
        self.dyn_insts
    }

    /// Fault-eligible instructions retired before capture. A snapshot
    /// can seed any injection whose target ordinal is `>=` this.
    #[must_use]
    pub fn eligible_seen(&self) -> u64 {
        self.eligible_seen
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("dyn_insts", &self.dyn_insts)
            .field("eligible_seen", &self.eligible_seen)
            .field("frames", &self.frames.len())
            .finish_non_exhaustive()
    }
}

/// The ordered snapshot log of one golden run.
///
/// Snapshots appear in capture order, so both position counters are
/// non-decreasing and lookups are binary searches.
#[derive(Debug, Default)]
pub struct SnapshotLog {
    snaps: Vec<Arc<Snapshot>>,
    stride: u64,
    /// Dynamic instruction count at each golden `SetRecovery`
    /// execution, indexed by activation ordinal. The campaign's
    /// convergence splice uses it to realign a rolled-back run's
    /// dyn-count timeline with the golden run's.
    activation_dyn: Vec<u64>,
    /// When the golden run last read and last wrote each cell — the
    /// suffix access sets of every snapshot at once, and the dead-diff
    /// and SDC splice rules' key input (see [`SnapshotLog::read_after`]).
    last_access: LastAccess,
    /// Per snapshot `k`: the sorted `(object, page)` pages the golden
    /// run wrote in the interval `(snapshot k-1, snapshot k]` (for
    /// `k = 0`, since the golden run began). The splice probe unions
    /// these to learn which golden pages changed between two probe
    /// targets — the golden half of the incremental-diff candidate set.
    interval_pages: Vec<Vec<(u32, u32)>>,
}

impl SnapshotLog {
    /// An empty log for a run captured at `stride` (0 = capture
    /// disabled).
    #[must_use]
    pub(crate) fn new(stride: u64) -> Self {
        Self {
            snaps: Vec::new(),
            stride,
            activation_dyn: Vec::new(),
            last_access: LastAccess::default(),
            interval_pages: Vec::new(),
        }
    }

    /// Appends a capture together with the golden dirty pages drained
    /// since the previous capture (its interval page list).
    pub(crate) fn push(&mut self, mut snap: Snapshot, mut interval: Vec<(u32, u32)>) {
        debug_assert!(
            self.snaps.last().map(|s| s.eligible_seen <= snap.eligible_seen).unwrap_or(true),
            "snapshots must be captured in execution order"
        );
        snap.index = self.snaps.len();
        interval.sort_unstable();
        interval.dedup();
        self.interval_pages.push(interval);
        self.snaps.push(Arc::new(snap));
    }

    /// The capture stride this log was built with (0 = disabled).
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Number of snapshots captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// `true` when no snapshots were captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// The latest snapshot whose eligible-instruction position is
    /// `<= ordinal` — the cheapest valid starting point for an
    /// injection at `ordinal`. `None` means start from scratch.
    #[must_use]
    pub fn nearest_at_or_before(&self, ordinal: u64) -> Option<&Arc<Snapshot>> {
        let n = self.snaps.partition_point(|s| s.eligible_seen <= ordinal);
        n.checked_sub(1).map(|i| &self.snaps[i])
    }

    pub(crate) fn set_activation_dyn(&mut self, log: Vec<u64>) {
        self.activation_dyn = log;
    }

    /// Golden dyn count at each `SetRecovery` execution, by activation
    /// ordinal.
    pub(crate) fn activation_dyn(&self) -> &[u64] {
        &self.activation_dyn
    }

    /// The `i`-th snapshot in capture order.
    pub(crate) fn get(&self, i: usize) -> Option<&Snapshot> {
        self.snaps.get(i).map(Arc::as_ref)
    }

    /// Index of the first snapshot captured at `dyn_insts >= d`.
    pub(crate) fn first_at_or_after_dyn(&self, d: u64) -> usize {
        self.snaps.partition_point(|s| s.dyn_insts < d)
    }

    /// Sorted golden-written pages in the interval ending at snapshot
    /// `i` (empty when `i` is out of range or lists were not built).
    pub(crate) fn interval_pages(&self, i: usize) -> &[(u32, u32)] {
        self.interval_pages.get(i).map_or(&[][..], Vec::as_slice)
    }

    pub(crate) fn set_last_access(&mut self, tables: LastAccess) {
        self.last_access = tables;
    }

    /// `true` when the golden run reads cell `(obj, idx)` after
    /// snapshot `k`. A divergence confined to cells it never reads can
    /// never influence the golden suffix's execution.
    pub(crate) fn read_after(&self, k: usize, obj: u32, idx: u32) -> bool {
        self.last_access.get(obj, idx).0 as usize > k
    }

    /// `true` when the golden run writes cell `(obj, idx)` after
    /// snapshot `k`. A dead divergent cell it writes is overwritten by
    /// the replayed suffix and heals; one it never writes persists to
    /// the final state.
    pub(crate) fn written_after(&self, k: usize, obj: u32, idx: u32) -> bool {
        self.last_access.get(obj, idx).1 as usize > k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_function_with_snapshots, RunConfig};
    use crate::predecode::DecodedModule;
    use crate::value::Value;
    use encore_ir::{BinOp, ModuleBuilder, Operand};

    fn log_for(stride: u64) -> SnapshotLog {
        let mut mb = ModuleBuilder::new("m");
        mb.function("sum", 1, |f| {
            let n = f.param(0);
            let acc = f.mov(Operand::ImmI(0));
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                f.bin_to(acc, BinOp::Add, acc.into(), i.into());
            });
            f.ret(Some(acc.into()));
        });
        let m = mb.finish();
        let fid = m.func_by_name("sum").unwrap();
        let code = DecodedModule::new(&m, None);
        let (r, log) = run_function_with_snapshots(
            &m,
            None,
            &code,
            fid,
            &[Value::Int(200)],
            &RunConfig::default(),
            stride,
        );
        assert!(r.completed);
        log
    }

    #[test]
    fn stride_zero_captures_nothing() {
        let log = log_for(0);
        assert!(log.is_empty());
        assert!(log.nearest_at_or_before(u64::MAX).is_none());
    }

    #[test]
    fn lookup_is_at_or_before() {
        let log = log_for(64);
        assert!(!log.is_empty());
        for probe in [0, 1, 100, 500, u64::MAX] {
            match log.nearest_at_or_before(probe) {
                Some(s) => assert!(s.eligible_seen() <= probe),
                None => assert!(log.snaps[0].eligible_seen() > probe),
            }
        }
        // The lookup returns the *latest* admissible snapshot.
        let last = log.snaps.last().unwrap();
        let hit = log.nearest_at_or_before(last.eligible_seen()).unwrap();
        assert_eq!(hit.eligible_seen(), last.eligible_seen());
    }

    #[test]
    fn last_access_answers_suffix_membership() {
        // Interval 0 precedes snapshot 0; interval i follows snapshot i-1.
        let mut t = LastAccess::default();
        t.record(0, 0, 0, false);
        t.record(0, 1, 1, false);
        t.record(1, 0, 1, true);
        t.record(0, 1, 2, false);
        t.record(2, 5, 2, false);
        t.record(2, 5, 2, true);
        let log = SnapshotLog { last_access: t, ..SnapshotLog::default() };
        // Suffix of snapshot 1 = interval 2 only.
        assert!(log.read_after(1, 0, 1) && log.read_after(1, 2, 5));
        assert!(!log.read_after(1, 1, 0) && !log.read_after(1, 0, 0));
        assert!(log.written_after(1, 2, 5) && !log.written_after(1, 1, 0));
        // Suffix of snapshot 0 adds interval 1.
        assert!(log.read_after(0, 0, 1) && log.written_after(0, 1, 0));
        assert!(!log.read_after(0, 0, 0) && !log.read_after(0, 1, 0));
        // Untouched cells, pages and objects are in no suffix.
        assert!(!log.read_after(0, 0, 200) && !log.read_after(0, 9, 0));
        assert!(!log.written_after(0, 0, 1));
    }

    #[test]
    fn snapshots_are_ordered() {
        let log = log_for(32);
        for pair in log.snaps.windows(2) {
            assert!(pair[0].dyn_insts() < pair[1].dyn_insts());
            assert!(pair[0].eligible_seen() <= pair[1].eligible_seen());
        }
    }
}
