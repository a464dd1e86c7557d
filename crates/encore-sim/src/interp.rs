//! The IR interpreter with Encore's rollback-recovery runtime.
//!
//! One machine executes one entry-point call to completion, optionally:
//!
//! * collecting an execution [`Profile`] (training runs),
//! * collecting a dynamic memory-event trace (Figure 1),
//! * attributing dynamic instructions to regions (Figure 6),
//! * injecting a single transient fault and modelling its detection
//!   (Figure 8's SFI).
//!
//! Every run executes in one interpreter loop, [`Machine::step`],
//! monomorphized per [`Hooks`] set: [`NoHooks`] for plain and injection
//! runs, [`Observer`] for profiles, traces and the golden run's
//! last-access stamps. Each instruction's semantics, and each fault
//! action's, are written once.
//!
//! ## Recovery semantics
//!
//! `SetRecovery` arms the current frame with the region's recovery block
//! and an empty checkpoint log; `CheckpointMem`/`CheckpointReg` append
//! undo entries; when a fault is *detected* (latency expiring, or a
//! symptom trap while a fault is live) the machine unwinds to the nearest
//! frame with an armed recovery, redirects control to the recovery block,
//! whose `Restore` applies the log in reverse and jumps back to the
//! region header. If no frame is armed, the detection is unrecoverable —
//! exactly the paper's "no hardware support, no Encore region" case.

use crate::externs::Externs;
use crate::fault::{FaultAction, FaultPlan};
use crate::memory::{Memory, PageHashes, ProbeCost};
use crate::predecode::{BaseMode, DecodedAddr, DecodedModule, MicroOp};
use crate::snapshot::{LastAccess, Snapshot, SnapshotLog};
use crate::value::{eval_bin, eval_un, Value};
use encore_analysis::{Profile, SiteRef};
use encore_core::RegionMap;
use encore_ir::{
    AccessKind, BlockId, FuncId, Inst, InstRef, MemEvent, Module, ObjKind, Offset, Operand, Reg,
    RegionId, Terminator,
};
use std::collections::BTreeMap;

/// Why a run stopped abnormally.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TrapKind {
    /// Memory access violation (out of bounds / dangling handle).
    Memory(String),
    /// Operator/type error.
    Eval(String),
    /// The fuel budget was exhausted (livelock or runaway loop).
    FuelExhausted,
    /// A fault was detected but no recovery region was armed.
    DetectedUnrecoverable,
}

/// An abnormal termination.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trap {
    /// Category.
    pub kind: TrapKind,
    /// Dynamic instruction count at the trap.
    pub at: u64,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trap at dynamic instruction {}: {:?}", self.at, self.kind)
    }
}

impl std::error::Error for Trap {}

/// What happened to the planned fault during the run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultTelemetry {
    /// The fault was injected.
    pub injected: bool,
    /// Detection fired (latency expiry or symptom trap).
    pub detected: bool,
    /// A rollback to a recovery block happened.
    pub rolled_back: bool,
    /// The region rolled back to, if any.
    pub rollback_region: Option<RegionId>,
    /// Function and block executing when the fault was injected.
    pub inject_site: Option<(FuncId, BlockId)>,
}

/// Largest heap allocation `alloc` accepts, in cells; larger sizes trap
/// with [`TrapKind::Memory`] instead of exhausting host memory. A
/// verified module can still name any size (or a fault can flip one
/// into an alloc's size register), so the cap is what keeps such a run
/// a classified outcome rather than a panic or an abort. It is far
/// below `u32::MAX`, because the dirty, page and last-access tables
/// key cells by `u32`.
pub(crate) const MAX_ALLOC_CELLS: i64 = 1 << 24;

/// Execution options.
#[derive(Clone, PartialEq, Debug)]
pub struct RunConfig {
    /// Maximum dynamic instructions before a
    /// [`TrapKind::FuelExhausted`] trap.
    pub fuel: u64,
    /// Collect a block/edge [`Profile`].
    pub collect_profile: bool,
    /// Collect a [`MemEvent`] trace.
    pub collect_trace: bool,
    /// Attribute dynamic instructions to regions (needs a region map).
    pub region_accounting: bool,
    /// Seed for the deterministic extern environment.
    pub extern_seed: u64,
    /// Fault to inject, if any.
    pub fault: Option<FaultPlan>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            fuel: 200_000_000,
            collect_profile: false,
            collect_trace: false,
            region_accounting: false,
            extern_seed: 0x5EED,
            fault: None,
        }
    }
}

/// The outcome of a run.
#[derive(Clone, PartialEq, Debug)]
pub struct RunResult {
    /// Return value of the entry call (if the run completed).
    pub ret: Option<Value>,
    /// `true` if the program ran to completion (no trap).
    pub completed: bool,
    /// The trap, when `completed` is false.
    pub trap: Option<Trap>,
    /// Total dynamic instructions retired.
    pub dyn_insts: u64,
    /// Dynamic instructions attributable to Encore instrumentation.
    pub instr_dyn_insts: u64,
    /// Observable output channel.
    pub output: Vec<i64>,
    /// Final global memory (observable state).
    pub globals: Vec<Vec<Value>>,
    /// Training profile (when requested).
    pub profile: Option<Profile>,
    /// Memory-event trace (when requested).
    pub trace: Option<Vec<MemEvent>>,
    /// Dynamic instructions per region (when requested).
    pub region_dyn: BTreeMap<RegionId, u64>,
    /// Number of fault-eligible (value-producing) dynamic instructions —
    /// the sample space for uniform fault injection.
    pub eligible_insts: u64,
    /// Largest checkpoint-log footprint observed for any single region
    /// activation, in bytes (memory entries 16 B, register entries 8 B) —
    /// the *measured* runtime analogue of Figure 7b / Table 1 storage.
    pub ckpt_high_water_bytes: u64,
    /// Fault telemetry.
    pub fault: FaultTelemetry,
}

impl RunResult {
    /// Architecturally observable state equality: return value, output
    /// channel and final global memory.
    pub fn observably_equal(&self, other: &RunResult) -> bool {
        self.ret == other.ret && self.output == other.output && self.globals == other.globals
    }
}

#[derive(Clone)]
struct RecoveryState {
    region: RegionId,
    recovery_block: BlockId,
    log: Vec<CkptEntry>,
    /// Running byte size of `log` (memory entries 16 B, register entries
    /// 8 B), maintained incrementally so the per-checkpoint high-water
    /// update is O(1) instead of a rescan of the whole log.
    log_bytes: u64,
    /// Global activation ordinal assigned when this recovery was armed
    /// (see [`SpliceTrack`]).
    act_ordinal: u64,
}

/// Equality deliberately ignores `act_ordinal`: a rollback's re-executed
/// arming draws a fresh ordinal, so a rolled-back run's ordinals are
/// permanently offset from the golden run's even once the architectural
/// state has fully reconverged. The ordinal is only ever read when a
/// detection unwinds to the frame, which cannot happen after a
/// convergence check passes (the fault was consumed by the rollback that
/// preceded it).
impl PartialEq for RecoveryState {
    fn eq(&self, other: &Self) -> bool {
        self.region == other.region
            && self.recovery_block == other.recovery_block
            && self.log == other.log
            && self.log_bytes == other.log_bytes
    }
}

#[derive(Clone, PartialEq)]
enum CkptEntry {
    Mem { obj: usize, idx: i64, val: Value },
    Reg { reg: Reg, val: Value },
}

/// Bookkeeping for the campaign's *convergence splice*.
///
/// A rolled-back injection run usually re-executes its region cleanly
/// and then tracks the golden run instruction-for-instruction to the
/// end — all of which the campaign re-simulates just to conclude
/// "recovered". The splice shortcuts that: once the run's complete
/// architectural state *equals* a golden snapshot's, its remaining
/// execution is provably identical to the golden run's (state equality
/// is self-justifying — equal state implies equal future under the
/// deterministic interpreter), so the run can stop right there.
///
/// The only heuristic part is deciding *where* to compare. Activations
/// anchor that: the golden run logs its dynamic instruction count at
/// each `SetRecovery` (by global activation ordinal), and a rollback
/// remembers the armed ordinal so the re-executed arming can measure
/// `delta` — how far the faulted run's instruction count has drifted
/// ahead of the golden run's at the same program point. Golden
/// snapshots are then probed at `snapshot dyn + delta`. A wrong or
/// unmeasurable `delta` can only make comparisons fail, never pass, so
/// every miss falls back to plain execution.
#[derive(Default)]
struct SpliceTrack {
    /// Splice bookkeeping requested (campaign injection runs only).
    armed: bool,
    /// `SetRecovery` executions retired so far (the activation ordinal
    /// counter). Snapshots carry it so resumed runs keep numbering
    /// where the golden prefix left off.
    activations: u64,
    /// Golden capture: dyn count at each `SetRecovery`, by ordinal.
    act_log: Option<Vec<u64>>,
    /// Armed ordinal of the region a rollback unwound to; consumed by
    /// the next `SetRecovery`.
    pending_realign: Option<u64>,
    /// `(dyn at the re-executed SetRecovery, golden ordinal)` — the
    /// realignment point the splice driver probes from.
    realign: Option<(u64, u64)>,
}

impl SpliceTrack {
    /// Notes one `SetRecovery` execution at dyn count `now`, returning
    /// the activation's ordinal and whether this arming realigned a
    /// rolled-back run (a control event the sprint must surface).
    #[inline]
    fn on_set_recovery(&mut self, now: u64) -> (u64, bool) {
        let ordinal = self.activations;
        self.activations += 1;
        if let Some(log) = &mut self.act_log {
            log.push(now);
        }
        let mut event = false;
        if let Some(ord) = self.pending_realign.take() {
            self.realign = Some((now, ord));
            event = true;
        }
        (ordinal, event)
    }

    /// Notes a rollback into the recovery armed under `armed_ordinal`.
    fn on_rollback(&mut self, armed_ordinal: u64) {
        if self.armed {
            self.pending_realign = Some(armed_ordinal);
        }
    }
}

/// One activation record. `Clone` because frames are part of a
/// [`Snapshot`]; `PartialEq` because frames are part of the splice's
/// convergence predicate.
#[derive(Clone, PartialEq)]
pub(crate) struct Frame {
    func: FuncId,
    block: BlockId,
    ip: usize,
    regs: Vec<Value>,
    slots: Vec<usize>,
    recovery: Option<RecoveryState>,
    ret_dst: Option<Reg>,
}

struct FaultState {
    plan: FaultPlan,
    /// A deferred action ([`FaultAction::WrongEdge`],
    /// [`FaultAction::CorruptAddress`]) reached its eligible ordinal
    /// and now waits for its firing event (the next branch / memory
    /// access). Immediate actions never set this.
    armed: bool,
    injected: bool,
    detect_at: Option<u64>,
    detected: bool,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        Self { plan, armed: false, injected: false, detect_at: None, detected: false }
    }
}

/// Which early-exit rule certified a spliced run's outcome.
///
/// Residual-diff size cap for the divergence splice: a run diverging
/// from the golden snapshot in more than this many cells is not worth
/// looking up in the golden access tables (and is very unlikely to be
/// dead), so
/// [`Memory::diff_cells`](crate::Memory::diff_cells) reports it as
/// incomparable and the run falls back to plain execution.
pub const DIFF_CAP: usize = 64;

/// All three rules fire at a probe point where the run's control state
/// (frames, allocation counters, extern PRNG/clock) equals a golden
/// snapshot's at the realigned position — they differ only in what the
/// residual *memory/output* diff proves about the suffix.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SpliceRule {
    /// Rule (a) — generalized recovered-splice: the diff emptied (full
    /// architectural-state equality, output included). The remaining
    /// execution is bit-identical to the golden suffix: a certain
    /// `Recovered`.
    Converged,
    /// Rule (b) — dead-diff splice: the residual diff is confined to
    /// cells the golden suffix never reads, every divergent *global*
    /// cell is overwritten by the suffix (or is not architecturally
    /// observable), and the output prefix matches. The suffix executes
    /// identically and the final observable state equals golden's: a
    /// certain `Recovered` without simulating the suffix.
    DeadDiff,
    /// Rule (c) — SDC splice: the residual diff is dead (rule (b)'s
    /// read-set condition holds, so the suffix still executes
    /// identically and the run provably terminates like golden), but
    /// the append-only output prefix has diverged or a dead global cell
    /// escapes every suffix write: a certain `SilentCorruption`.
    Sdc,
}

impl SpliceRule {
    /// Every rule, in reporting order.
    pub const ALL: [SpliceRule; 3] = [SpliceRule::Converged, SpliceRule::DeadDiff, SpliceRule::Sdc];

    /// Stable snake_case label (used as JSON keys in campaign reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpliceRule::Converged => "converged",
            SpliceRule::DeadDiff => "dead_diff",
            SpliceRule::Sdc => "sdc",
        }
    }
}

/// How [`Machine::run_to_end_or_splice`] finished.
pub(crate) enum SpliceRun {
    /// Ran to completion or a terminal trap, exactly like
    /// [`Machine::run_to_end`].
    Done(Option<Trap>),
    /// A splice rule certified the outcome at a probe point; the `u64`
    /// is the golden-suffix dynamic instruction count the run did *not*
    /// execute.
    Spliced(SpliceRule, u64),
}

/// Incremental-compare probe state for the divergence splice: the
/// candidate page set carried between probes, which golden interval
/// lists it has absorbed, and the accumulated compare-cost telemetry.
#[derive(Default)]
struct ProbeState {
    /// Sorted, deduplicated `(object, page)` pages where equality with
    /// the last-probed golden snapshot is not established. See
    /// [`Memory::diff_cells_dirty`] for the invariant.
    pending: Vec<(u32, u32)>,
    /// Golden snapshot index the pending set is relative to (`None` =
    /// the golden run's start): interval page lists between here and
    /// the next probe target are unioned in before each compare.
    absorbed_through: Option<usize>,
    /// Probe/hash/word counters, merged into the campaign's
    /// [`SpliceStats`](crate::SpliceStats).
    cost: ProbeCost,
}

/// What a [`Hooks::access`] call reports.
#[derive(Clone, Copy)]
pub(crate) enum Access {
    /// A program load.
    Load,
    /// A program store.
    Store,
    /// `CheckpointMem` reading the cell it saves.
    CkptRead,
    /// `Restore` writing a saved cell back.
    RestoreWrite,
}

/// Observation points of the interpreter loop. The loop is generic
/// over its hook set and monomorphized per set, so [`NoHooks`] —
/// campaign injection runs and plain runs — compiles to the bare
/// interpreter, while [`Observer`] adds profiling, tracing and golden
/// access stamps to the *same* instruction semantics.
pub(crate) trait Hooks {
    /// Control entered `block` of `func`: a call's entry block
    /// (`from` = `None`) or the target of the taken edge `from → block`.
    #[inline(always)]
    fn enter(&mut self, _func: FuncId, _from: Option<BlockId>, _block: BlockId) {}

    /// One instruction or terminator of `func` retired at `cost`.
    #[inline(always)]
    fn retire(&mut self, _func: FuncId, _cost: u64) {}

    /// `func` returned.
    #[inline(always)]
    fn ret(&mut self, _func: FuncId) {}

    /// A successful access to cell `idx` of object `obj` by the
    /// instruction at `site`, at dynamic instruction `now`.
    #[inline(always)]
    fn access(
        &mut self,
        _mem: &Memory,
        _kind: Access,
        _site: SiteRef,
        _obj: usize,
        _idx: i64,
        _now: u64,
    ) {
    }
}

/// The empty hook set.
pub(crate) struct NoHooks;

impl Hooks for NoHooks {}

/// The observing hook set: block/edge/footprint profile counts,
/// [`MemEvent`] traces and golden last-access stamps, each when
/// requested.
#[derive(Default)]
pub(crate) struct Observer {
    profile: Option<Profile>,
    trace: Option<Vec<MemEvent>>,
    stamps: Option<LastAccess>,
    /// Golden interval the stamps record: snapshots captured so far.
    interval: u32,
}

impl Hooks for Observer {
    fn enter(&mut self, func: FuncId, from: Option<BlockId>, block: BlockId) {
        if let Some(p) = &mut self.profile {
            let fp = p.func_mut(func);
            if let Some(from) = from {
                *fp.edge_counts.entry((from, block)).or_insert(0) += 1;
            }
            *fp.block_counts.entry(block).or_insert(0) += 1;
        }
    }

    fn retire(&mut self, func: FuncId, cost: u64) {
        if let Some(p) = &mut self.profile {
            p.func_mut(func).dyn_insts += cost;
            p.total_dyn_insts += cost;
        }
    }

    fn ret(&mut self, func: FuncId) {
        if let Some(p) = &mut self.profile {
            p.func_mut(func).invocations += 1;
        }
    }

    fn access(
        &mut self,
        mem: &Memory,
        kind: Access,
        site: SiteRef,
        obj: usize,
        idx: i64,
        now: u64,
    ) {
        let (write, program) = match kind {
            Access::Load => (false, Some(AccessKind::Load)),
            Access::Store => (true, Some(AccessKind::Store)),
            Access::CkptRead => (false, None),
            Access::RestoreWrite => (true, None),
        };
        if let Some(stamps) = &mut self.stamps {
            // A successful access bounds-checked both coordinates.
            stamps.record(obj as u32, idx as u32, self.interval, write);
        }
        let Some(kind) = program else { return };
        if let Some(p) = &mut self.profile {
            p.mem.record(site, mem.cell_of(obj, idx));
        }
        if let Some(t) = &mut self.trace {
            t.push(MemEvent { kind, cell: mem.cell_of(obj, idx), at: now });
        }
    }
}

/// The interpreter. `'m` is the module's lifetime, `'c` the pre-decoded
/// stream's: a campaign owns one [`DecodedModule`] and threads it
/// through many short-lived machines. `H` is the hook set the
/// interpreter loop is instantiated with.
pub(crate) struct Machine<'m, 'c, H: Hooks = NoHooks> {
    module: &'m Module,
    code: &'c DecodedModule<'m>,
    map: Option<&'m RegionMap>,
    mem: Memory,
    frames: Vec<Frame>,
    externs: Externs,
    dyn_insts: u64,
    instr_dyn: u64,
    frame_seq: u32,
    heap_seq: u32,
    last_alloc_of_site: Vec<Option<usize>>,
    region_dyn: Vec<u64>,
    region_touched: Vec<bool>,
    region_accounting: bool,
    hooks: H,
    fault: Option<FaultState>,
    telemetry: FaultTelemetry,
    eligible_seen: u64,
    ckpt_high_water: u64,
    splice: SpliceTrack,
    fuel: u64,
    final_ret: Option<Value>,
    /// Register generation mask: bit `min(reg, 63)` is set by every
    /// register write since resume. Purely a fail-fast compare hint —
    /// golden registers churn every instruction, so unlike memory
    /// pages no register compare can ever be *skipped* soundly (see
    /// DESIGN.md §13); the mask just orders the frame compare to look
    /// at recently written registers first.
    reg_dirty: u64,
    /// Object count at the machine's dirty-tracking baseline (the
    /// resume snapshot, or module globals for a scratch start):
    /// objects below it are shape-identical to every golden snapshot's
    /// by construction.
    base_objects: usize,
    /// Incremental splice-probe state (injection runs only).
    probe: ProbeState,
}

impl<H: Hooks> std::fmt::Debug for Machine<'_, '_, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("module", &self.module.name)
            .field("dyn_insts", &self.dyn_insts)
            .field("frames", &self.frames.len())
            .finish_non_exhaustive()
    }
}

/// Reads an operand against `frame`.
#[inline]
fn opnd(frame: &Frame, op: &Operand) -> Value {
    match op {
        Operand::Reg(r) => frame.regs[r.index()],
        Operand::ImmI(v) => Value::Int(*v),
        Operand::ImmF(v) => Value::Float(*v),
    }
}

/// Writes register `r` of `frame`, marking it in the `reg_dirty` mask.
#[inline]
fn write_reg(frame: &mut Frame, reg_dirty: &mut u64, r: Reg, v: Value) {
    frame.regs[r.index()] = v;
    *reg_dirty |= 1 << r.index().min(63);
}

/// Resolves a pre-decoded address to `(object handle, cell index)`,
/// with global bases already reduced to their object handle at decode
/// time.
#[inline]
fn resolve_decoded(
    frame: &Frame,
    last_alloc_of_site: &[Option<usize>],
    now: u64,
    addr: &DecodedAddr,
) -> Result<(usize, i64), Trap> {
    let (obj, base_idx) = match addr.base {
        BaseMode::Global(h) => (h, 0i64),
        BaseMode::Slot(s) => {
            let h = *frame.slots.get(s.index()).ok_or_else(|| Trap {
                kind: TrapKind::Memory(format!("undeclared slot {s}")),
                at: now,
            })?;
            (h, 0)
        }
        BaseMode::Heap(h) => {
            let handle = last_alloc_of_site
                .get(h.index())
                .copied()
                .flatten()
                .ok_or_else(|| Trap {
                    kind: TrapKind::Memory(format!("heap site {h} has no allocation")),
                    at: now,
                })?;
            (handle, 0)
        }
        BaseMode::RegPtr(r) => match frame.regs[r.index()] {
            Value::Ptr { obj, idx } => (obj, idx),
            other => {
                return Err(Trap {
                    kind: TrapKind::Memory(format!(
                        "register {r} does not hold a pointer (holds {other})"
                    )),
                    at: now,
                })
            }
        },
    };
    let off = match addr.off {
        Offset::Const(c) => c,
        Offset::Scaled { index, scale, disp } => match frame.regs[index.index()] {
            Value::Int(i) => i.wrapping_mul(scale).wrapping_add(disp),
            other => {
                return Err(Trap {
                    kind: TrapKind::Memory(format!(
                        "index register {index} is not an integer (holds {other})"
                    )),
                    at: now,
                })
            }
        },
    };
    Ok((obj, base_idx.wrapping_add(off)))
}

/// Value injection: counts one fault-eligible instruction and, at the
/// plan's ordinal, dispatches on the [`FaultAction`]. Value corruptions
/// apply here; deferred actions (wrong-edge, address) only *arm* and
/// fire later at their matching event; a power failure marks itself
/// injected with detection due immediately (the machine dies before
/// the next instruction). Eligible instructions are counted even
/// without a plan, so golden runs report the sample space. Takes the
/// fault fields as split borrows so the current frame can stay
/// mutably borrowed across the call; sets `fired` when the fault is
/// injected by this call (the sprint loop then tightens its detection
/// bound).
#[allow(clippy::too_many_arguments)]
#[inline]
fn inject(
    fault: &mut Option<FaultState>,
    eligible_seen: &mut u64,
    now: u64,
    telemetry: &mut FaultTelemetry,
    site: (FuncId, BlockId),
    v: Value,
    fired: &mut bool,
) -> Value {
    let ordinal = *eligible_seen;
    *eligible_seen += 1;
    let Some(f) = fault else { return v };
    if f.injected || ordinal != f.plan.inject_at {
        return v;
    }
    match f.plan.action {
        FaultAction::FlipBits { mask } => {
            f.injected = true;
            f.detect_at = Some(now + f.plan.detect_latency);
            telemetry.injected = true;
            telemetry.inject_site = Some(site);
            *fired = true;
            v.flip_bits(mask)
        }
        FaultAction::WrongEdge | FaultAction::CorruptAddress { .. } => {
            f.armed = true;
            v
        }
        FaultAction::PowerFailure => {
            f.injected = true;
            f.detect_at = Some(now);
            telemetry.injected = true;
            telemetry.inject_site = Some(site);
            *fired = true;
            v
        }
    }
}

/// Fires an armed [`FaultAction::CorruptAddress`] fault, if any: the
/// first program load/store executed after the arming ordinal XORs the
/// plan's mask (folded to 16 bits, like pointer corruption) into its
/// resolved cell index. The corrupted access either lands in bounds
/// (silently hitting a neighbour cell) or traps — a symptom
/// [`Machine::step_detected`] converts into detection while the fault
/// is live.
#[inline]
fn corrupt_addr(
    fault: &mut Option<FaultState>,
    now: u64,
    telemetry: &mut FaultTelemetry,
    site: (FuncId, BlockId),
    idx: i64,
    fired: &mut bool,
) -> i64 {
    let Some(f) = fault else { return idx };
    if !f.armed || f.injected {
        return idx;
    }
    let FaultAction::CorruptAddress { mask } = f.plan.action else { return idx };
    f.injected = true;
    f.detect_at = Some(now + f.plan.detect_latency);
    telemetry.injected = true;
    telemetry.inject_site = Some(site);
    *fired = true;
    idx ^ crate::value::fold_mask16(mask) as i64
}

/// Runs `entry(args)` on `module` under `config`. `map` supplies the
/// recovery metadata for instrumented modules (pass `None` for plain
/// ones).
///
/// Decodes the module on entry; callers that run the same module many
/// times (campaigns) should decode once and use the machine-level API
/// instead.
pub fn run_function(
    module: &Module,
    map: Option<&RegionMap>,
    entry: FuncId,
    args: &[Value],
    config: &RunConfig,
) -> RunResult {
    let code = DecodedModule::new(module, map);
    if !config.collect_profile && !config.collect_trace {
        let mut m = Machine::start(module, &code, map, entry, args, config, NoHooks);
        let trap = m.run_to_end();
        return m.finish(trap).0;
    }
    let observer = Observer {
        profile: config.collect_profile.then(|| Profile::empty_for(module)),
        trace: config.collect_trace.then(Vec::new),
        ..Observer::default()
    };
    let mut m = Machine::start(module, &code, map, entry, args, config, observer);
    let trap = m.run_to_end();
    let (mut result, observer) = m.finish(trap);
    result.profile = observer.profile;
    result.trace = observer.trace;
    result
}

/// Like [`run_function`] but additionally captures a [`Snapshot`] of
/// the machine every `stride` dynamic instructions (`0` disables
/// capture), together with the golden last-access tables the splice
/// rules consult. The run itself is unperturbed: the returned
/// [`RunResult`] is bit-identical to [`run_function`]'s.
///
/// # Panics
///
/// Panics if `config` requests a fault, a profile or a trace — none of
/// those are part of a snapshot, so resuming would be lossy.
pub fn run_function_with_snapshots<'m>(
    module: &'m Module,
    map: Option<&'m RegionMap>,
    code: &DecodedModule<'m>,
    entry: FuncId,
    args: &[Value],
    config: &RunConfig,
    stride: u64,
) -> (RunResult, SnapshotLog) {
    assert!(config.fault.is_none(), "snapshot capture requires a fault-free run");
    assert!(
        !config.collect_profile && !config.collect_trace,
        "snapshots do not capture profiles or traces"
    );
    let mut log = SnapshotLog::new(stride);
    if stride == 0 {
        let mut m = Machine::start(module, code, map, entry, args, config, NoHooks);
        let trap = m.run_to_end();
        return (m.finish(trap).0, log);
    }
    let observer = Observer { stamps: Some(LastAccess::default()), ..Observer::default() };
    let mut m = Machine::start(module, code, map, entry, args, config, observer);
    m.splice.act_log = Some(Vec::new());
    let trap = m.run_to_end_capturing(stride, &mut log);
    log.set_activation_dyn(m.splice.act_log.take().unwrap_or_default());
    let (result, observer) = m.finish(trap);
    log.set_last_access(observer.stamps.unwrap_or_default());
    (result, log)
}

/// Resumes execution from `snapshot` under `config` and runs to
/// completion. With the same module, decoded stream and extern seed the
/// result is bit-identical to a from-scratch run that reached the
/// snapshot point — including fault injection: `config.fault` plans
/// with `inject_at >= snapshot.eligible_seen()` fire exactly as they
/// would from scratch, because every counter in the snapshot is
/// absolute.
pub fn resume_function<'m>(
    module: &'m Module,
    map: Option<&'m RegionMap>,
    code: &DecodedModule<'m>,
    snapshot: &Snapshot,
    config: &RunConfig,
) -> RunResult {
    let mut m = Machine::from_snapshot(module, code, map, snapshot, config);
    let trap = m.run_to_end();
    m.finish(trap).0
}

impl<'m, 'c> Machine<'m, 'c, NoHooks> {
    /// A machine restored to `snap`'s state, ready to resume under
    /// `config` (which supplies the fault plan and fuel; profiles and
    /// traces cannot cross a snapshot boundary).
    pub(crate) fn from_snapshot(
        module: &'m Module,
        code: &'c DecodedModule<'m>,
        map: Option<&'m RegionMap>,
        snap: &Snapshot,
        config: &RunConfig,
    ) -> Self {
        debug_assert!(
            !config.collect_profile && !config.collect_trace,
            "profiles/traces cannot be resumed from a snapshot"
        );
        // The restored snapshot *is* the dirty-tracking baseline: every
        // cell written from here on (program stores, fault corruption,
        // rollback restores) re-enters the dirty set.
        let mut mem = snap.mem.clone();
        mem.reset_dirty();
        Self {
            module,
            code,
            map,
            mem,
            frames: snap.frames.clone(),
            externs: snap.externs.clone(),
            dyn_insts: snap.dyn_insts,
            instr_dyn: snap.instr_dyn,
            frame_seq: snap.frame_seq,
            heap_seq: snap.heap_seq,
            last_alloc_of_site: snap.last_alloc_of_site.clone(),
            region_dyn: snap.region_dyn.clone(),
            region_touched: snap.region_touched.clone(),
            region_accounting: config.region_accounting,
            hooks: NoHooks,
            // A plan whose inject ordinal precedes the snapshot cannot
            // fire after resume; [`SfiCampaign::run_one`] only resumes
            // from snapshots with `eligible_seen <= plan.inject_at`, so
            // the rebuilt (un-armed, un-injected) state is exactly what
            // a from-scratch run carries at this point — for every
            // [`FaultAction`], deferred ones included, since arming
            // happens at or after the inject ordinal.
            fault: config.fault.map(FaultState::new),
            telemetry: FaultTelemetry::default(),
            eligible_seen: snap.eligible_seen,
            ckpt_high_water: snap.ckpt_high_water,
            splice: SpliceTrack { activations: snap.activations, ..SpliceTrack::default() },
            fuel: config.fuel,
            final_ret: None,
            reg_dirty: 0,
            base_objects: snap.mem.object_count(),
            probe: ProbeState {
                absorbed_through: Some(snap.index),
                ..ProbeState::default()
            },
        }
    }
}

impl<'m, 'c, H: Hooks> Machine<'m, 'c, H> {
    /// A machine poised at the first instruction of `entry(args)`.
    pub(crate) fn start(
        module: &'m Module,
        code: &'c DecodedModule<'m>,
        map: Option<&'m RegionMap>,
        entry: FuncId,
        args: &[Value],
        config: &RunConfig,
        hooks: H,
    ) -> Self {
        let mut m = Self {
            module,
            code,
            map,
            mem: Memory::for_module(module),
            frames: Vec::new(),
            externs: Externs::new(config.extern_seed),
            dyn_insts: 0,
            instr_dyn: 0,
            frame_seq: 0,
            heap_seq: 0,
            last_alloc_of_site: vec![None; code.heap_site_count],
            region_dyn: vec![0; code.region_count],
            region_touched: vec![false; code.region_count],
            region_accounting: config.region_accounting,
            hooks,
            fault: config.fault.map(FaultState::new),
            telemetry: FaultTelemetry::default(),
            eligible_seen: 0,
            ckpt_high_water: 0,
            splice: SpliceTrack::default(),
            fuel: config.fuel,
            final_ret: None,
            reg_dirty: 0,
            base_objects: module.globals.len(),
            probe: ProbeState::default(),
        };
        m.call(entry, args, None);
        m
    }

    /// Captures the complete resumable state at the current step
    /// boundary, with `page_hashes` the golden page hashes of `mem`.
    fn capture_snapshot(&self, page_hashes: PageHashes) -> Snapshot {
        Snapshot {
            index: 0, // assigned by SnapshotLog::push
            page_hashes,
            frames: self.frames.clone(),
            mem: self.mem.clone(),
            externs: self.externs.clone(),
            dyn_insts: self.dyn_insts,
            instr_dyn: self.instr_dyn,
            frame_seq: self.frame_seq,
            heap_seq: self.heap_seq,
            last_alloc_of_site: self.last_alloc_of_site.clone(),
            region_dyn: self.region_dyn.clone(),
            region_touched: self.region_touched.clone(),
            eligible_seen: self.eligible_seen,
            ckpt_high_water: self.ckpt_high_water,
            activations: self.splice.activations,
        }
    }

    fn call(&mut self, func: FuncId, args: &[Value], ret_dst: Option<Reg>) {
        let f = self.module.func(func);
        let mut regs = vec![Value::ZERO; f.reg_count as usize];
        for (i, a) in args.iter().enumerate().take(f.param_count as usize) {
            regs[i] = *a;
        }
        let frame_no = self.frame_seq;
        self.frame_seq += 1;
        let slots = f
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                self.mem.alloc(
                    ObjKind::Slot { frame: frame_no, slot: i as u32 },
                    s.cells as usize,
                )
            })
            .collect();
        self.hooks.enter(func, None, f.entry());
        self.frames.push(Frame {
            func,
            block: f.entry(),
            ip: 0,
            regs,
            slots,
            recovery: None,
            ret_dst,
        });
    }

    /// True when a live (injected, undetected) fault should now be
    /// detected.
    fn detection_due(&self) -> bool {
        match &self.fault {
            Some(f) if f.injected && !f.detected => {
                f.detect_at.map(|d| self.dyn_insts >= d).unwrap_or(false)
            }
            _ => false,
        }
    }

    /// Fault detection fired: unwind to the nearest armed frame and
    /// redirect to its recovery block.
    ///
    /// For a [`FaultAction::PowerFailure`] the machine additionally
    /// loses the in-flight volatile state of the region it restarts:
    /// every register the recovery log checkpointed is zeroed before
    /// the recovery block runs, modeling a reboot on an intermittent
    /// device whose memory is non-volatile but whose register file is
    /// not. The recovery block's `Restore` ops must re-materialize
    /// those registers from the log — a recovery block that missed one
    /// re-executes from a zeroed value and the campaign classifies the
    /// run as silent corruption. Registers outside the checkpoint set
    /// are assumed preserved by the runtime's region-entry context save
    /// (the standard just-in-time-checkpointing contract; our log only
    /// materializes the WAR subset Encore checkpoints).
    ///
    /// Returns `Err` when no frame is armed (unrecoverable).
    fn trigger_recovery(&mut self) -> Result<(), Trap> {
        let power = matches!(
            &self.fault,
            Some(f) if matches!(f.plan.action, FaultAction::PowerFailure)
        );
        if let Some(f) = &mut self.fault {
            f.detected = true;
        }
        self.telemetry.detected = true;
        // Find the deepest armed frame.
        while let Some(frame) = self.frames.last() {
            if let Some(rec) = &frame.recovery {
                let (region, block) = (rec.region, rec.recovery_block);
                let ordinal = rec.act_ordinal;
                let lost: Vec<usize> = if power {
                    rec.log
                        .iter()
                        .filter_map(|e| match e {
                            CkptEntry::Reg { reg, .. } => Some(reg.index()),
                            CkptEntry::Mem { .. } => None,
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                let frame = self.frames.last_mut().expect("frame");
                frame.block = block;
                frame.ip = 0;
                for r in lost {
                    frame.regs[r] = Value::ZERO;
                    self.reg_dirty |= 1 << r.min(63);
                }
                self.telemetry.rolled_back = true;
                self.telemetry.rollback_region = Some(region);
                self.splice.on_rollback(ordinal);
                // The fault is consumed: re-execution is fault-free.
                self.fault = None;
                return Ok(());
            }
            self.frames.pop();
        }
        Err(Trap { kind: TrapKind::DetectedUnrecoverable, at: self.dyn_insts })
    }

    /// Executes a *sprint* of instructions and terminators: the
    /// interpreter loop, and the only definition of every pre-lowered
    /// instruction and of `Jump`/`Branch` (the wrong-edge fault
    /// included).
    ///
    /// Splits the machine's fields once and then executes consecutive
    /// items in a tight loop, stopping — *without* executing the next
    /// item — when `limit` is reached or a pending fault detection must
    /// fire, and stopping *after* charging an instruction that stays
    /// [`MicroOp::Slow`] or a `Ret`, which [`Machine::exec_inst`] and
    /// [`Machine::exec_ret`] then execute with the whole machine in
    /// hand. Per-item fuel, detection and `limit` checks make every
    /// state transition independent of where a sprint happens to
    /// pause, so snapshot capture points and fault semantics do not
    /// depend on it; `limit` exists so capturing callers get control
    /// back at exact instruction-count boundaries (pass `u64::MAX`
    /// otherwise). The hook set `H` observes the loop without altering
    /// it.
    ///
    /// Returns `Ok(true)` while the program is still running.
    fn step(&mut self, limit: u64) -> Result<bool, Trap> {
        if self.dyn_insts >= self.fuel {
            return Err(Trap { kind: TrapKind::FuelExhausted, at: self.dyn_insts });
        }
        if self.detection_due() {
            self.trigger_recovery()?;
        }
        let Some(frame) = self.frames.last() else {
            return Ok(false);
        };
        let func_id = frame.func;
        // Copying the `&'c DecodedModule` reference out of `self` gives
        // the instruction borrow a lifetime independent of `&mut self`,
        // so execution borrows instead of cloning.
        let code = self.code;
        let dfunc = code.func(func_id);

        /// Why the sprint handed control back.
        enum Stop<'a> {
            /// `limit` reached, a detection is due, or a `SetRecovery`
            /// realigned a rolled-back run: the caller's next `step`
            /// resumes (or fires the detection) at this state.
            Boundary,
            /// A charged instruction that needs the whole machine.
            Slow(&'a Inst, InstRef),
            /// A charged `Ret`.
            Ret(Option<&'a Operand>),
        }
        let stop = {
            let fuel = self.fuel;
            let region_accounting = self.region_accounting;
            let Machine {
                frames,
                mem,
                hooks,
                fault,
                eligible_seen: seen,
                telemetry,
                last_alloc_of_site,
                dyn_insts,
                instr_dyn,
                region_dyn,
                region_touched,
                ckpt_high_water,
                splice,
                reg_dirty,
                ..
            } = self;
            let frame = frames.last_mut().expect("frame");
            let mut block = dfunc.block(frame.block);
            let mut site = (func_id, frame.block);
            // `ip` lives in a local and is written back at every sprint
            // exit except traps: a trap leaves it stale, which is
            // unobservable, because recovery overwrites (or pops) the
            // frame's position and terminal traps never read it.
            let mut ip = frame.ip;
            // One merged per-item pause bound: the caller's limit, the
            // fuel budget, and — once a fault is injected — its
            // detection due-time. The hit branch below disambiguates
            // them in priority order (limit, then fuel, then detection).
            let mut bound = limit.min(fuel);
            if let Some(f) = &*fault {
                if f.injected && !f.detected {
                    if let Some(d) = f.detect_at {
                        bound = bound.min(d);
                    }
                }
            }
            loop {
                if *dyn_insts >= bound {
                    frame.ip = ip;
                    if *dyn_insts >= limit {
                        break Stop::Boundary;
                    }
                    if *dyn_insts >= fuel {
                        return Err(Trap { kind: TrapKind::FuelExhausted, at: *dyn_insts });
                    }
                    // Detection is due: the caller's next `step` fires
                    // it at this exact state.
                    break Stop::Boundary;
                }
                if (ip as u32) < block.len {
                    let di = &dfunc.steps[block.start as usize + ip];
                    *dyn_insts += di.cost;
                    if di.instrumentation {
                        *instr_dyn += di.cost;
                    }
                    if region_accounting {
                        if let Some(rid) = block.region {
                            region_dyn[rid.index()] += di.cost;
                            region_touched[rid.index()] = true;
                        }
                    }
                    hooks.retire(func_id, di.cost);
                    ip += 1;
                    let now = *dyn_insts;
                    let at = SiteRef { func: func_id, at: di.at };
                    // Set when this instruction injected the planned
                    // fault, or — with no fault live — a `SetRecovery`
                    // realigned a rolled-back run.
                    let mut fired = false;
                    // A symptom trap here propagates to `run_to_end`,
                    // which treats it as detection while a fault is
                    // live.
                    match &di.op {
                        MicroOp::Bin { op, dst, lhs, rhs } => {
                            let v = eval_bin(*op, opnd(frame, lhs), opnd(frame, rhs))
                                .map_err(|e| Trap { kind: TrapKind::Eval(e.message), at: now })?;
                            let v = inject(fault, seen, now, telemetry, site, v, &mut fired);
                            write_reg(frame, reg_dirty, *dst, v);
                        }
                        MicroOp::Un { op, dst, src } => {
                            let v = eval_un(*op, opnd(frame, src))
                                .map_err(|e| Trap { kind: TrapKind::Eval(e.message), at: now })?;
                            let v = inject(fault, seen, now, telemetry, site, v, &mut fired);
                            write_reg(frame, reg_dirty, *dst, v);
                        }
                        MicroOp::Mov { dst, src } => {
                            let v = opnd(frame, src);
                            let v = inject(fault, seen, now, telemetry, site, v, &mut fired);
                            write_reg(frame, reg_dirty, *dst, v);
                        }
                        MicroOp::Load { dst, addr } => {
                            let (obj, idx) = resolve_decoded(frame, last_alloc_of_site, now, addr)?;
                            let idx = corrupt_addr(fault, now, telemetry, site, idx, &mut fired);
                            let v = mem
                                .read(obj, idx)
                                .map_err(|e| Trap { kind: TrapKind::Memory(e.message), at: now })?;
                            hooks.access(mem, Access::Load, at, obj, idx, now);
                            let v = inject(fault, seen, now, telemetry, site, v, &mut fired);
                            write_reg(frame, reg_dirty, *dst, v);
                        }
                        MicroOp::Store { addr, src } => {
                            let (obj, idx) = resolve_decoded(frame, last_alloc_of_site, now, addr)?;
                            let idx = corrupt_addr(fault, now, telemetry, site, idx, &mut fired);
                            let v = opnd(frame, src);
                            let v = inject(fault, seen, now, telemetry, site, v, &mut fired);
                            mem.write(obj, idx, v)
                                .map_err(|e| Trap { kind: TrapKind::Memory(e.message), at: now })?;
                            hooks.access(mem, Access::Store, at, obj, idx, now);
                        }
                        // Address materialization is not fault-eligible.
                        MicroOp::Lea { dst, addr } => {
                            let (obj, idx) = resolve_decoded(frame, last_alloc_of_site, now, addr)?;
                            write_reg(frame, reg_dirty, *dst, Value::Ptr { obj, idx });
                        }
                        // Instrumentation is not fault-eligible. The
                        // recovery block was pre-resolved at decode
                        // time; the unresolvable cases stay `Slow` and
                        // trap in `exec_inst`.
                        MicroOp::SetRecovery { region, recovery_block } => {
                            let (ordinal, realigned) = splice.on_set_recovery(now);
                            frame.recovery = Some(RecoveryState {
                                region: *region,
                                recovery_block: *recovery_block,
                                log: Vec::new(),
                                log_bytes: 0,
                                act_ordinal: ordinal,
                            });
                            fired |= realigned;
                        }
                        MicroOp::CkptMem { addr } => {
                            let (obj, idx) = resolve_decoded(frame, last_alloc_of_site, now, addr)?;
                            let val = mem
                                .read(obj, idx)
                                .map_err(|e| Trap { kind: TrapKind::Memory(e.message), at: now })?;
                            hooks.access(mem, Access::CkptRead, at, obj, idx, now);
                            if let Some(rec) = &mut frame.recovery {
                                rec.log.push(CkptEntry::Mem { obj, idx, val });
                                rec.log_bytes += 16;
                                *ckpt_high_water = (*ckpt_high_water).max(rec.log_bytes);
                            }
                        }
                        MicroOp::CkptReg { reg } => {
                            let val = frame.regs[reg.index()];
                            if let Some(rec) = &mut frame.recovery {
                                rec.log.push(CkptEntry::Reg { reg: *reg, val });
                                rec.log_bytes += 8;
                                *ckpt_high_water = (*ckpt_high_water).max(rec.log_bytes);
                            }
                        }
                        MicroOp::Slow(inst) => {
                            frame.ip = ip;
                            break Stop::Slow(inst, di.at);
                        }
                    }
                    if fired {
                        match &*fault {
                            // The fault was injected just now: start
                            // pausing at its detection due-time.
                            Some(f) => {
                                if let Some(d) = f.detect_at {
                                    bound = bound.min(d);
                                }
                            }
                            // No fault live: a `SetRecovery` realigned
                            // a rolled-back run. Pause so the splice
                            // driver can probe golden snapshots.
                            None => {
                                frame.ip = ip;
                                break Stop::Boundary;
                            }
                        }
                    }
                } else {
                    let Some(term) = block.term else {
                        return Err(Trap {
                            kind: TrapKind::Eval(format!("unterminated block {}", site.1)),
                            at: *dyn_insts,
                        });
                    };
                    *dyn_insts += 1;
                    if region_accounting {
                        if let Some(rid) = block.region {
                            region_dyn[rid.index()] += 1;
                            region_touched[rid.index()] = true;
                        }
                    }
                    hooks.retire(func_id, 1);
                    let target = match term {
                        Terminator::Jump(t) => *t,
                        Terminator::Branch { cond, then_bb, else_bb } => {
                            let taken =
                                if opnd(frame, cond).truthy() { *then_bb } else { *else_bb };
                            // An armed wrong-edge fault fires at the
                            // first conditional branch after its
                            // ordinal, taking the not-taken edge.
                            match fault.as_mut() {
                                Some(f)
                                    if f.armed
                                        && !f.injected
                                        && matches!(f.plan.action, FaultAction::WrongEdge) =>
                                {
                                    f.injected = true;
                                    let due = *dyn_insts + f.plan.detect_latency;
                                    f.detect_at = Some(due);
                                    telemetry.injected = true;
                                    telemetry.inject_site = Some(site);
                                    bound = bound.min(due);
                                    if taken == *then_bb { *else_bb } else { *then_bb }
                                }
                                _ => taken,
                            }
                        }
                        Terminator::Ret(v) => {
                            frame.ip = ip;
                            break Stop::Ret(v.as_ref());
                        }
                    };
                    hooks.enter(func_id, Some(site.1), target);
                    frame.block = target;
                    ip = 0;
                    block = dfunc.block(target);
                    site = (func_id, target);
                }
            }
        };
        match stop {
            Stop::Boundary => Ok(true),
            Stop::Slow(inst, at) => {
                self.exec_inst(func_id, at, inst)?;
                Ok(true)
            }
            Stop::Ret(v) => {
                self.exec_ret(func_id, v);
                Ok(!self.frames.is_empty())
            }
        }
    }

    /// Executes one already-charged instruction that stays
    /// [`MicroOp::Slow`]: the ops that allocate, call, touch the
    /// extern environment or roll back, plus `SetRecovery` against a
    /// region with no recovery block.
    fn exec_inst(&mut self, func_id: FuncId, at: InstRef, inst: &Inst) -> Result<(), Trap> {
        let now = self.dyn_insts;
        let frame = self.frames.last_mut().expect("frame");
        let site = (func_id, frame.block);
        match inst {
            Inst::Alloc { dst, site: heap_site, size } => {
                let n = match opnd(frame, size).as_int() {
                    Some(n) if (0..=MAX_ALLOC_CELLS).contains(&n) => n,
                    Some(n) if n > MAX_ALLOC_CELLS => {
                        return Err(Trap {
                            kind: TrapKind::Memory(format!(
                                "alloc size {n} exceeds the {MAX_ALLOC_CELLS}-cell cap"
                            )),
                            at: now,
                        })
                    }
                    _ => {
                        return Err(Trap {
                            kind: TrapKind::Memory("alloc size must be a non-negative int".into()),
                            at: now,
                        })
                    }
                };
                let handle = self.mem.alloc(ObjKind::Heap(self.heap_seq), n as usize);
                self.heap_seq += 1;
                // Decode sized the table over every Alloc site.
                self.last_alloc_of_site[heap_site.index()] = Some(handle);
                write_reg(frame, &mut self.reg_dirty, *dst, Value::Ptr { obj: handle, idx: 0 });
            }
            Inst::Call { callee, dst, args } => {
                let vals: Vec<Value> = args.iter().map(|a| opnd(frame, a)).collect();
                self.call(*callee, &vals, *dst);
            }
            Inst::CallExt { name, dst, args, .. } => {
                let vals: Vec<Value> = args.iter().map(|a| opnd(frame, a)).collect();
                let r = self
                    .externs
                    .call(name, &vals)
                    .map_err(|e| Trap { kind: TrapKind::Eval(e.message), at: now })?;
                if let Some(d) = dst {
                    let (fault, seen, tel) =
                        (&mut self.fault, &mut self.eligible_seen, &mut self.telemetry);
                    let r = inject(fault, seen, now, tel, site, r, &mut false);
                    let frame = self.frames.last_mut().expect("frame");
                    write_reg(frame, &mut self.reg_dirty, *d, r);
                }
            }
            Inst::SetRecovery { region } => {
                let message = match self.map.and_then(|m| m.regions.get(region.index())) {
                    None => format!("SetRecovery for unknown {region}"),
                    Some(_) => format!("{region} has no recovery block"),
                };
                return Err(Trap { kind: TrapKind::Eval(message), at: now });
            }
            Inst::Restore { region } => {
                let Some(rec) = &mut frame.recovery else {
                    return Err(Trap {
                        kind: TrapKind::Eval(format!("Restore {region} with no armed recovery")),
                        at: now,
                    });
                };
                let log = std::mem::take(&mut rec.log);
                rec.log_bytes = 0;
                for entry in log.into_iter().rev() {
                    match entry {
                        CkptEntry::Reg { reg, val } => frame.regs[reg.index()] = val,
                        CkptEntry::Mem { obj, idx, val } => {
                            self.mem
                                .write(obj, idx, val)
                                .map_err(|e| Trap { kind: TrapKind::Memory(e.message), at: now })?;
                            let at = SiteRef { func: func_id, at };
                            self.hooks.access(&self.mem, Access::RestoreWrite, at, obj, idx, now);
                        }
                    }
                }
            }
            _ => unreachable!("{inst:?} lowers to a MicroOp the sprint loop executes"),
        }
        Ok(())
    }

    /// Executes an already-charged `Ret` of `func_id` returning `v`.
    fn exec_ret(&mut self, func_id: FuncId, v: Option<&Operand>) {
        let frame = self.frames.pop().expect("frame");
        let val = v.map(|op| opnd(&frame, op));
        self.hooks.ret(func_id);
        match self.frames.last_mut() {
            Some(caller) => {
                if let Some(dst) = frame.ret_dst {
                    write_reg(caller, &mut self.reg_dirty, dst, val.unwrap_or(Value::ZERO));
                }
            }
            None => self.final_ret = val,
        }
    }
    fn fault_live(&self) -> bool {
        self.fault.as_ref().map(|f| f.injected && !f.detected).unwrap_or(false)
    }

    /// One [`Machine::step`] with symptom-based detection folded in: a
    /// trap while an undetected fault is live (other than fuel
    /// exhaustion) triggers the recovery path instead of terminating
    /// the run. The shared stepping primitive of [`Machine::run_to_end`]
    /// and the splice driver, so both have identical fault semantics.
    fn step_detected(&mut self, limit: u64) -> Result<bool, Trap> {
        match self.step(limit) {
            Ok(alive) => Ok(alive),
            Err(t) => {
                if self.fault_live() && !matches!(t.kind, TrapKind::FuelExhausted) {
                    self.trigger_recovery()?;
                    return Ok(true);
                }
                Err(t)
            }
        }
    }

    /// Runs until completion or a terminal trap, returning the trap.
    pub(crate) fn run_to_end(&mut self) -> Option<Trap> {
        loop {
            match self.step_detected(u64::MAX) {
                Ok(true) => continue,
                Ok(false) => return None,
                Err(t) => return Some(t),
            }
        }
    }

    /// [`Machine::run_to_end`] for campaign injection runs, with the
    /// divergence-tracked splice: after a rollback realigns the run
    /// against the golden activation timeline, successive golden
    /// snapshots are probed and the run's *diff* against each is
    /// classified by [`Machine::classify_divergence`] — a certified
    /// rule ends the run early; a miss merely falls back to plain
    /// execution. See [`SpliceTrack`] for the realignment mechanics
    /// and [`SpliceRule`] for the per-rule soundness arguments.
    pub(crate) fn run_to_end_or_splice(
        &mut self,
        snapshots: &SnapshotLog,
        golden_final_dyn: u64,
        incremental: bool,
    ) -> SpliceRun {
        self.splice.armed = true;
        // Phase 1: run normally until a rollback's re-executed arming
        // realigns the run (or the run just finishes).
        let (realign_dyn, ordinal) = loop {
            match self.step_detected(u64::MAX) {
                Ok(true) => {
                    if let Some(r) = self.splice.realign.take() {
                        break r;
                    }
                }
                Ok(false) => return SpliceRun::Done(None),
                Err(t) => return SpliceRun::Done(Some(t)),
            }
        };
        // `delta`: how many more dynamic instructions this run has
        // retired than the golden run had at the same program point.
        // Unmeasurable (ordinal past the golden log, or the golden run
        // was ahead) means the timelines cannot be aligned: finish
        // normally.
        let Some(delta) = snapshots
            .activation_dyn()
            .get(ordinal as usize)
            .and_then(|&golden_dyn| realign_dyn.checked_sub(golden_dyn))
        else {
            return SpliceRun::Done(self.run_to_end());
        };
        // Phase 2: execute on, pausing at golden snapshots' realigned
        // positions (`snapshot dyn + delta`) to classify the state
        // diff. The probe *schedule* is dense-then-backoff: the first
        // `DENSE_PROBES` misses probe consecutive snapshots (the
        // earliest certifying snapshot saves the most suffix, and runs
        // that certify at all usually do so within a few snapshots of
        // realignment), after which the stride between probes doubles
        // up to `GAP_CAP` — a run whose diff has stayed live that long
        // rarely certifies later, so spaced probes stop charging a
        // sprint pause per snapshot to hopeless runs. Each probe's
        // *compare* is O(pages dirtied since the previous probe) on
        // the incremental path, not O(state). The schedule advances
        // only on misses, which are identical between the incremental
        // and full-scan compare paths, so both paths probe the same
        // states and report identically.
        const DENSE_PROBES: u32 = 8;
        const GAP_CAP: usize = 16;
        let mut idx = snapshots.first_at_or_after_dyn(self.dyn_insts.saturating_sub(delta));
        let mut diff: Vec<(u32, u32)> = Vec::new();
        let mut misses = 0u32;
        let mut gap = 1usize;
        loop {
            let Some(snap) = snapshots.get(idx) else {
                // Past the last golden snapshot: finish normally.
                return SpliceRun::Done(self.run_to_end());
            };
            let target = snap.dyn_insts + delta;
            loop {
                match self.step_detected(target) {
                    Ok(true) => {
                        if self.dyn_insts >= target {
                            break;
                        }
                    }
                    Ok(false) => return SpliceRun::Done(None),
                    Err(t) => return SpliceRun::Done(Some(t)),
                }
            }
            // A probe is only meaningful when the pause landed exactly
            // on the realigned position (instruction costs can
            // overshoot a bound), no fault is pending, and the fuel
            // headroom covers the golden suffix at this run's offset —
            // otherwise the continuation could diverge by a fuel trap
            // the golden run never hit.
            if self.dyn_insts == target
                && self.fault.is_none()
                && golden_final_dyn.saturating_sub(snap.dyn_insts) + self.dyn_insts < self.fuel
            {
                self.probe.cost.probes += 1;
                if let Some(rule) =
                    self.classify_divergence(snapshots, idx, snap, &mut diff, incremental)
                {
                    return SpliceRun::Spliced(rule, golden_final_dyn - snap.dyn_insts);
                }
            }
            misses += 1;
            if misses >= DENSE_PROBES && gap < GAP_CAP {
                gap *= 2;
            }
            idx += gap;
        }
    }

    /// The accumulated probe-cost counters of this run.
    pub(crate) fn probe_cost(&self) -> ProbeCost {
        self.probe.cost
    }

    /// The splice's probe predicate: classifies the run's divergence
    /// from golden snapshot `snap` (index `idx`), or `None` when no
    /// rule can certify an outcome here.
    ///
    /// The gate requires control-state equality — frames (registers,
    /// positions, armed recovery logs), allocation counters and the
    /// non-output extern state — so the only admissible divergence is
    /// in memory cells and the output channel. Under a deterministic
    /// interpreter, equal control state plus a memory diff no future
    /// instruction reads means the suffix executes *identically* to
    /// the golden suffix (same control flow, same writes, same output
    /// appends): the final state is then golden's, modulo exactly the
    /// divergent cells the suffix never overwrites and the
    /// already-diverged output prefix. The rules read off the outcome:
    ///
    /// * diff empty, output equal → [`SpliceRule::Converged`];
    /// * diff dead (∉ suffix reads), every divergent global cell
    ///   healed by a suffix write, output equal →
    ///   [`SpliceRule::DeadDiff`] (final state provably golden);
    /// * diff dead but output diverged or a global cell persists →
    ///   [`SpliceRule::Sdc`] (final state provably differs).
    ///
    /// Counters that influence neither the remaining execution nor the
    /// outcome classification (`dyn_insts`, `eligible_seen`,
    /// instrumentation/region accounting, the checkpoint high-water
    /// mark) are deliberately excluded; `dyn_insts` enters through the
    /// caller's fuel-headroom check instead.
    fn classify_divergence(
        &mut self,
        snapshots: &SnapshotLog,
        idx: usize,
        snap: &Snapshot,
        diff: &mut Vec<(u32, u32)>,
        incremental: bool,
    ) -> Option<SpliceRule> {
        // Cheapest fields first so diverged runs fail fast.
        if self.frame_seq != snap.frame_seq
            || self.heap_seq != snap.heap_seq
            || self.last_alloc_of_site != snap.last_alloc_of_site
            || !self.externs.state_equal_ignoring_output(&snap.externs)
            || !self.frames_equal(snap)
        {
            return None;
        }
        let mem_comparable = if incremental {
            // Bring the candidate set up to this probe target: golden
            // pages written between the last absorbed snapshot and this
            // one (interval lists — absorbed in either direction, since
            // realignment can land a probe before the resume base),
            // pages this run wrote since the last drain, and the
            // snapshot's NaN poison pages. Everything outside the
            // resulting set is bitwise-identical on both sides.
            let Machine { mem, probe, base_objects, .. } = self;
            match probe.absorbed_through {
                None => {
                    for j in 0..=idx {
                        probe.pending.extend_from_slice(snapshots.interval_pages(j));
                    }
                }
                Some(a) if idx > a => {
                    for j in a + 1..=idx {
                        probe.pending.extend_from_slice(snapshots.interval_pages(j));
                    }
                }
                Some(a) if idx < a => {
                    for j in idx + 1..=a {
                        probe.pending.extend_from_slice(snapshots.interval_pages(j));
                    }
                }
                Some(_) => {}
            }
            probe.absorbed_through = Some(idx);
            mem.drain_dirty_pages(&mut probe.pending);
            probe.pending.extend_from_slice(snap.page_hashes.poison_pages());
            probe.pending.sort_unstable();
            probe.pending.dedup();
            mem.diff_cells_dirty(
                &snap.mem,
                &snap.page_hashes,
                &mut probe.pending,
                *base_objects,
                DIFF_CAP,
                diff,
                &mut probe.cost,
            )
        } else {
            self.probe.cost.words_compared += self.mem.cell_count();
            self.mem.diff_cells(&snap.mem, DIFF_CAP, diff)
        };
        if !mem_comparable {
            return None;
        }
        let out_eq = self.externs.output == snap.externs.output;
        if diff.is_empty() && out_eq {
            return Some(SpliceRule::Converged);
        }
        // Rules (b)/(c) consult the golden last-access tables.
        if diff.iter().any(|&(o, i)| snapshots.read_after(idx, o, i)) {
            // A divergent cell feeds the suffix: its fate is unprovable
            // here. Keep executing — later probes may still certify.
            return None;
        }
        // Dead diff. Non-global cells are architecturally invisible;
        // a global cell the suffix overwrites heals to golden's value
        // (the suffix executes identically); one it never writes
        // persists into the final observable state.
        let persists = diff
            .iter()
            .any(|&(o, i)| self.mem.is_global(o as usize) && !snapshots.written_after(idx, o, i));
        if out_eq && !persists {
            Some(SpliceRule::DeadDiff)
        } else {
            Some(SpliceRule::Sdc)
        }
    }

    /// Exactly `self.frames == snap.frames`, ordered to fail fast:
    /// frames are compared innermost-first (the top frame diverges
    /// first in practice), and the top frame's recently written
    /// registers — the `reg_dirty` generation mask — are checked before
    /// the full structural compare. Pure reordering: the verdict is
    /// identical to the derived equality, because register state can
    /// never be *skipped* (golden registers change every instruction,
    /// so there is no analogue of a clean memory page here).
    fn frames_equal(&self, snap: &Snapshot) -> bool {
        if self.frames.len() != snap.frames.len() {
            return false;
        }
        if let (Some(a), Some(b)) = (self.frames.last(), snap.frames.last()) {
            let mut mask = self.reg_dirty;
            let n = a.regs.len().min(b.regs.len()).min(63);
            while mask != 0 {
                let r = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if r < n && a.regs[r] != b.regs[r] {
                    return false;
                }
            }
        }
        self.frames.iter().rev().eq(snap.frames.iter().rev())
    }

    /// Consumes the machine into a [`RunResult`] after `run_to_end`
    /// returned `trap`, handing back the hook set (whose observations
    /// the caller attaches).
    pub(crate) fn finish(self, trap: Option<Trap>) -> (RunResult, H) {
        let mut region_dyn = BTreeMap::new();
        for (i, (&count, &touched)) in
            self.region_dyn.iter().zip(self.region_touched.iter()).enumerate()
        {
            if touched {
                region_dyn.insert(RegionId::new(i as u32), count);
            }
        }
        let result = RunResult {
            ret: self.final_ret,
            completed: trap.is_none(),
            trap,
            dyn_insts: self.dyn_insts,
            instr_dyn_insts: self.instr_dyn,
            output: self.externs.output,
            globals: self.mem.globals_snapshot(),
            profile: None,
            trace: None,
            region_dyn,
            eligible_insts: self.eligible_seen,
            ckpt_high_water_bytes: self.ckpt_high_water,
            fault: self.telemetry,
        };
        (result, self.hooks)
    }

    /// Entry call's return value (valid once `run_to_end` reported
    /// completion).
    pub(crate) fn final_ret(&self) -> Option<Value> {
        self.final_ret
    }

    /// The observable output channel.
    pub(crate) fn output(&self) -> &[i64] {
        &self.externs.output
    }

    /// The memory state.
    pub(crate) fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Fault telemetry of this run.
    pub(crate) fn telemetry(&self) -> &FaultTelemetry {
        &self.telemetry
    }
}

impl Machine<'_, '_, Observer> {
    /// [`Machine::run_to_end`] for fault-free runs, capturing a
    /// snapshot into `log` at the first step boundary past each
    /// `stride`-instruction interval.
    fn run_to_end_capturing(&mut self, stride: u64, log: &mut SnapshotLog) -> Option<Trap> {
        debug_assert!(stride > 0 && self.fault.is_none());
        // Hash every page of the current state once; each capture below
        // re-hashes only the pages written since the previous capture
        // (the drained dirty set), so golden hash maintenance is
        // O(pages written), not O(state) per snapshot.
        let mut hashes = PageHashes::of_memory(&self.mem);
        self.mem.reset_dirty();
        let mut next_at = stride;
        loop {
            if self.dyn_insts >= next_at && !self.frames.is_empty() {
                let mut interval = Vec::new();
                self.mem.drain_dirty_pages(&mut interval);
                hashes.extend_new_objects(&self.mem);
                hashes.update(&self.mem, &interval);
                log.push(self.capture_snapshot(hashes.clone()), interval);
                // Accesses from here on belong to the next interval.
                self.hooks.interval = log.len() as u32;
                next_at = self.dyn_insts + stride;
            }
            // Bounding the sprint by `next_at` keeps capture points at
            // exact instruction-count boundaries.
            match self.step(next_at) {
                Ok(true) => continue,
                Ok(false) => return None,
                // No fault is live (asserted), so a trap is terminal.
                Err(t) => return Some(t),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_ir::{AddrExpr, BinOp, ExtEffect, MemBase, ModuleBuilder};

    fn run_simple(m: &Module, entry: &str, args: &[Value]) -> RunResult {
        let fid = m.func_by_name(entry).expect("entry exists");
        run_function(m, None, fid, args, &RunConfig::default())
    }

    #[test]
    fn arithmetic_and_return() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("add", 2, |f| {
            let a = f.param(0);
            let b = f.param(1);
            let s = f.bin(BinOp::Add, a.into(), b.into());
            f.ret(Some(s.into()));
        });
        let m = mb.finish();
        let r = run_simple(&m, "add", &[Value::Int(2), Value::Int(40)]);
        assert!(r.completed);
        assert_eq!(r.ret, Some(Value::Int(42)));
        assert!(r.dyn_insts >= 2);
    }

    #[test]
    fn loop_sums_correctly() {
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
        let r = run_simple(&m, "sum", &[Value::Int(10)]);
        assert_eq!(r.ret, Some(Value::Int(45)));
    }

    #[test]
    fn memory_and_globals_observable() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 2);
        mb.function("f", 0, |f| {
            f.store(AddrExpr::global(g, 0), Operand::ImmI(7));
            let v = f.load(AddrExpr::global(g, 0));
            f.store(AddrExpr::global(g, 1), v.into());
            f.ret(None);
        });
        let m = mb.finish();
        let r = run_simple(&m, "f", &[]);
        assert_eq!(r.globals[0][0], Value::Int(7));
        assert_eq!(r.globals[0][1], Value::Int(7));
    }

    #[test]
    fn calls_and_slots() {
        let mut mb = ModuleBuilder::new("m");
        let sq = mb.function("sq", 1, |f| {
            let p = f.param(0);
            let r = f.bin(BinOp::Mul, p.into(), p.into());
            f.ret(Some(r.into()));
        });
        mb.function("main", 0, |f| {
            let s = f.slot(2);
            let v = f.call(sq, &[Operand::ImmI(6)]);
            f.store(AddrExpr::slot(s, 0), v.into());
            let w = f.load(AddrExpr::slot(s, 0));
            f.ret(Some(w.into()));
        });
        let m = mb.finish();
        let r = run_simple(&m, "main", &[]);
        assert_eq!(r.ret, Some(Value::Int(36)));
    }

    #[test]
    fn recursion_works() {
        let mut mb = ModuleBuilder::new("m");
        let fib = mb.declare("fib", 1);
        mb.define(fib, |f| {
            let n = f.param(0);
            let base = f.bin(BinOp::Lt, n.into(), Operand::ImmI(2));
            f.if_then(base.into(), |f| f.ret(Some(n.into())));
            let n1 = f.bin(BinOp::Sub, n.into(), Operand::ImmI(1));
            let n2 = f.bin(BinOp::Sub, n.into(), Operand::ImmI(2));
            let a = f.call(fib, &[n1.into()]);
            let b = f.call(fib, &[n2.into()]);
            let s = f.bin(BinOp::Add, a.into(), b.into());
            f.ret(Some(s.into()));
        });
        let m = mb.finish();
        let r = run_simple(&m, "fib", &[Value::Int(10)]);
        assert_eq!(r.ret, Some(Value::Int(55)));
    }

    #[test]
    fn heap_alloc_and_pointers() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 0, |f| {
            let p = f.alloc(Operand::ImmI(4));
            f.store(AddrExpr::reg(p, 2), Operand::ImmI(11));
            let q = f.bin(BinOp::Add, p.into(), Operand::ImmI(2));
            let v = f.load(AddrExpr::reg(q, 0));
            f.ret(Some(v.into()));
        });
        let m = mb.finish();
        let r = run_simple(&m, "f", &[]);
        assert_eq!(r.ret, Some(Value::Int(11)));
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 1);
        mb.function("f", 0, |f| {
            f.store(AddrExpr::global(g, 5), Operand::ImmI(1));
            f.ret(None);
        });
        let m = mb.finish();
        let r = run_simple(&m, "f", &[]);
        assert!(!r.completed);
        assert!(matches!(r.trap.as_ref().unwrap().kind, TrapKind::Memory(_)));
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 0, |f| {
            let header = f.add_block();
            f.jump(header);
            f.switch_to(header);
            f.jump(header);
        });
        let m = mb.finish();
        let fid = m.func_by_name("f").unwrap();
        let config = RunConfig { fuel: 1000, ..Default::default() };
        let r = run_function(&m, None, fid, &[], &config);
        assert!(!r.completed);
        assert_eq!(r.trap.unwrap().kind, TrapKind::FuelExhausted);
    }

    #[test]
    fn profile_counts_blocks_and_edges() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 1, |f| {
            let n = f.param(0);
            let acc = f.mov(Operand::ImmI(0));
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                f.bin_to(acc, BinOp::Add, acc.into(), i.into());
            });
            f.ret(Some(acc.into()));
        });
        let m = mb.finish();
        let fid = m.func_by_name("f").unwrap();
        let config = RunConfig { collect_profile: true, ..Default::default() };
        let r = run_function(&m, None, fid, &[Value::Int(5)], &config);
        let p = r.profile.expect("profile collected");
        let fp = p.func(fid);
        // Entry once; loop header 6 times (5 iterations + final check);
        // body 5 times.
        assert_eq!(fp.count(BlockId::new(0)), 1);
        assert_eq!(fp.count(BlockId::new(1)), 6);
        assert_eq!(fp.count(BlockId::new(2)), 5);
        assert_eq!(fp.invocations, 1);
        assert_eq!(p.total_dyn_insts, r.dyn_insts);
    }

    #[test]
    fn trace_records_memory_events() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 2);
        mb.function("f", 0, |f| {
            f.store(AddrExpr::global(g, 0), Operand::ImmI(1));
            let v = f.load(AddrExpr::global(g, 0));
            f.store(AddrExpr::global(g, 1), v.into());
            f.ret(None);
        });
        let m = mb.finish();
        let fid = m.func_by_name("f").unwrap();
        let config = RunConfig { collect_trace: true, ..Default::default() };
        let r = run_function(&m, None, fid, &[], &config);
        let t = r.trace.expect("trace collected");
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].kind, encore_ir::AccessKind::Store);
        assert_eq!(t[1].kind, encore_ir::AccessKind::Load);
        assert_eq!(t[0].cell, t[1].cell);
    }

    #[test]
    fn externs_flow_through() {
        let mut mb = ModuleBuilder::new("m");
        mb.function("f", 0, |f| {
            let x = f.call_ext("pow", &[Operand::ImmF(2.0), Operand::ImmF(3.0)], ExtEffect::Pure);
            let i = f.un(encore_ir::UnOp::FToI, x.into());
            f.call_ext_void("print_i64", &[i.into()], ExtEffect::Opaque);
            f.ret(Some(i.into()));
        });
        let m = mb.finish();
        let r = run_simple(&m, "f", &[]);
        assert_eq!(r.ret, Some(Value::Int(8)));
        assert_eq!(r.output, vec![8]);
    }

    #[test]
    fn profiling_collects_memory_footprints() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 8);
        mb.function("f", 1, |f| {
            let n = f.param(0);
            f.for_range(Operand::ImmI(0), n.into(), |f, i| {
                let v = f.load(AddrExpr::indexed(MemBase::Global(g), i, 1, 0));
                f.store(AddrExpr::indexed(MemBase::Global(g), i, 1, 4), v.into());
            });
            f.ret(None);
        });
        let m = mb.finish();
        let fid = m.func_by_name("f").unwrap();
        let config = RunConfig { collect_profile: true, ..Default::default() };
        let r = run_function(&m, None, fid, &[Value::Int(4)], &config);
        let profile = r.profile.expect("profile");
        assert!(profile.mem.site_count() >= 2, "load + store sites recorded");
        // The load site touched cells 0..4, the store site 4..8: disjoint.
        let sites: Vec<_> = m
            .func(fid)
            .iter_insts()
            .filter(|(_, i)| i.load_addr().is_some() || i.store_addr().is_some())
            .map(|(at, _)| encore_analysis::SiteRef { func: fid, at })
            .collect();
        assert_eq!(sites.len(), 2);
        assert!(profile.mem.observed_disjoint(sites[0], sites[1]));
    }

    #[test]
    fn deterministic_across_runs() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 4);
        mb.function("f", 0, |f| {
            f.for_range(Operand::ImmI(0), Operand::ImmI(4), |f, i| {
                let v = f.call_ext("prng_range", &[Operand::ImmI(100)], ExtEffect::Opaque);
                f.store(
                    AddrExpr::indexed(MemBase::Global(g), i, 1, 0),
                    v.into(),
                );
            });
            f.ret(None);
        });
        let m = mb.finish();
        let a = run_simple(&m, "f", &[]);
        let b = run_simple(&m, "f", &[]);
        assert!(a.observably_equal(&b));
        assert_eq!(a.dyn_insts, b.dyn_insts);
    }
}
