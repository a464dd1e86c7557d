//! Per-pass measurement context: phase timers, in-memory spans around
//! calls into each layer, deterministic work counters and output checks.
//!
//! Spans are recorded only in traced passes; an untraced pass pays one
//! branch per call site. Work done only to check outputs or to take a
//! per-layer measurement that the workload itself does not need runs
//! "aside": its time is excluded from the pass's phase and total timers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The layer a span's time is attributed to (one per repository module
/// on the measured paths, plus the benchmark's own code).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Layer {
    /// The benchmark's own code between layer calls.
    Bench,
    /// `encore-workloads`: building suite modules and fuzzed programs.
    Workloads,
    /// `encore-ir`: printing, parsing and verifying modules.
    Ir,
    /// `encore-sim` executor: profile, baseline and evaluation runs.
    SimExec,
    /// `encore-core` + `encore-analysis`: the compile pipeline.
    Core,
    /// `encore-sim` campaign set-up (`SfiCampaign::prepare`).
    SimPrepare,
    /// `encore-sim` campaign run (injections).
    SimCampaign,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Workloads,
        Layer::Ir,
        Layer::SimExec,
        Layer::Core,
        Layer::SimPrepare,
        Layer::SimCampaign,
    ];

    /// The per-layer self-time metric name.
    pub fn self_metric(self) -> &'static str {
        match self {
            Layer::Bench => "self.bench_s",
            Layer::Workloads => "self.workloads_s",
            Layer::Ir => "self.ir_s",
            Layer::SimExec => "self.sim_exec_s",
            Layer::Core => "self.core_s",
            Layer::SimPrepare => "self.sim_prepare_s",
            Layer::SimCampaign => "self.sim_campaign_s",
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (the per-layer metric stem, e.g. `sim.prepare`).
    pub name: &'static str,
    /// Layer its self time belongs to.
    pub layer: Layer,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, relative to the pass origin.
    pub start: Duration,
    /// End, relative to the pass origin.
    pub end: Duration,
    /// Outcome index for `sim.run_one` spans.
    pub tag: Option<usize>,
    /// Measurement-only work excluded from the pass timers.
    pub aside: bool,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Which timer a stretch of pass work counts towards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Set-up before the main work: build, text load, profile, baseline
    /// and evaluation runs, compile.
    Setup,
    /// Campaign set-up (`SfiCampaign::prepare`). It counts towards set-up
    /// time and towards the campaign-engine time injections are rated
    /// over.
    Prepare,
    /// The workload's main work: campaigns, or the compile sweep.
    Main,
}

/// Output-check tally.
#[derive(Clone, Default, Debug)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Labels of the first few failures.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check outcome.
    pub fn record(&mut self, ok: bool, label: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(label());
            }
        }
    }
}

/// Measurement state of one pass over a workload.
#[derive(Debug)]
pub struct Ctx {
    origin: Instant,
    traced: bool,
    checking: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    aside: Duration,
    phases: [Duration; 3],
    /// Output checks made during the pass.
    pub checks: Checks,
    /// Deterministic work counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Golden-run time of the modules whose campaigns were prepared (the
    /// base of `sim.prepare_over_golden`).
    pub golden_for_prepare: Duration,
}

impl Ctx {
    /// A fresh pass context. `traced` records spans; `checking` runs the
    /// expensive output checks (replays, round trips).
    pub fn new(traced: bool, checking: bool) -> Self {
        Self {
            origin: Instant::now(),
            traced,
            checking,
            spans: Vec::new(),
            open: Vec::new(),
            aside: Duration::ZERO,
            phases: [Duration::ZERO; 3],
            golden_for_prepare: Duration::ZERO,
            checks: Checks::default(),
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Whether expensive output checks run in this pass.
    pub fn checking(&self) -> bool {
        self.checking
    }

    /// Wall time since the pass began, minus aside work.
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed().saturating_sub(self.aside)
    }

    /// Time charged to `phase` so far.
    pub fn phase_time(&self, phase: Phase) -> Duration {
        self.phases[phase as usize]
    }

    /// Adds `n` to counter `key`.
    pub fn count(&mut self, key: &'static str, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    /// Records a cheap check outcome.
    pub fn check(&mut self, ok: bool, label: impl FnOnce() -> String) {
        self.checks.record(ok, label);
    }

    /// Runs `f`, charging its time (minus aside work inside it) to
    /// `phase`.
    pub fn phase<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Ctx) -> T) -> T {
        let (t0, a0) = (Instant::now(), self.aside);
        let out = f(self);
        let spent = t0.elapsed().saturating_sub(self.aside - a0);
        self.phases[phase as usize] += spent;
        out
    }

    /// Runs `f` inside a span named `name` (traced passes only).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce(&mut Ctx) -> T,
    ) -> T {
        self.span_impl(name, layer, false, f)
    }

    /// Runs `f` as a `sim.run_one` span tagged with the outcome index
    /// `tag` returns.
    pub fn run_one_span<T>(&mut self, f: impl FnOnce() -> T, tag: impl Fn(&T) -> usize) -> T {
        if !self.traced {
            return f();
        }
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name: "sim.run_one",
            layer: Layer::SimCampaign,
            parent: self.open.last().copied(),
            start,
            end,
            tag: Some(tag(&out)),
            aside: false,
        });
        out
    }

    /// Runs measurement- or check-only work `f`, excluded from the pass
    /// timers; in traced passes it is recorded as an aside span.
    pub fn aside<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce(&mut Ctx) -> T,
    ) -> T {
        let (t0, a0) = (Instant::now(), self.aside);
        let out = self.span_impl(name, layer, true, f);
        self.aside = a0 + t0.elapsed();
        out
    }

    fn span_impl<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        aside: bool,
        f: impl FnOnce(&mut Ctx) -> T,
    ) -> T {
        if !self.traced {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            start: now,
            end: now,
            tag: None,
            aside,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end = self.origin.elapsed();
        out
    }

    /// Ends the pass, returning its spans, checks and counters.
    pub fn into_parts(self) -> (Vec<Span>, Checks, BTreeMap<&'static str, u64>) {
        (self.spans, self.checks, self.counters)
    }
}

/// Self time per layer of one pass's spans: each span's duration minus
/// the part its direct children cover, summed by layer. Aside spans and
/// their subtrees are left out, as they are left out of the pass timers.
/// The rest of `pass_total` (time outside every span) goes to
/// [`Layer::Bench`].
pub fn self_times(spans: &[Span], pass_total: Duration) -> BTreeMap<Layer, Duration> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    let mut excluded = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            excluded[i] = excluded[p as usize];
            child_time[p as usize] += s.duration();
        }
        excluded[i] |= s.aside;
    }
    let mut out: BTreeMap<Layer, Duration> =
        Layer::ALL.iter().map(|&l| (l, Duration::ZERO)).collect();
    let mut covered = Duration::ZERO;
    for (i, s) in spans.iter().enumerate() {
        if excluded[i] {
            continue;
        }
        let own = s.duration().saturating_sub(child_time[i]);
        *out.entry(s.layer).or_default() += own;
        covered += own;
    }
    *out.entry(Layer::Bench).or_default() += pass_total.saturating_sub(covered);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: Layer,
        parent: Option<u32>,
        ms: (u64, u64),
        aside: bool,
    ) -> Span {
        Span {
            name,
            layer,
            parent,
            start: Duration::from_millis(ms.0),
            end: Duration::from_millis(ms.1),
            tag: None,
            aside,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_skips_aside_subtrees() {
        let spans = vec![
            span("sim.campaign", Layer::SimCampaign, None, (0, 10), false),
            span("sim.run_one", Layer::SimCampaign, Some(0), (1, 4), false),
            span("core.pipeline", Layer::Core, None, (10, 15), false),
            span("ir.parse", Layer::Ir, Some(2), (11, 13), false),
            span("analysis.idempotence", Layer::Core, None, (15, 18), true),
            span("ir.print", Layer::Ir, Some(4), (16, 17), true),
            span("sim.prepare", Layer::SimPrepare, None, (18, 24), false),
            span("check.replay", Layer::Bench, Some(6), (20, 22), true),
        ];
        // 24 ms of wall time, 5 of them aside.
        let st = self_times(&spans, Duration::from_millis(19));
        assert_eq!(st[&Layer::SimCampaign], Duration::from_millis(10));
        assert_eq!(st[&Layer::Core], Duration::from_millis(3));
        assert_eq!(st[&Layer::Ir], Duration::from_millis(2));
        assert_eq!(st[&Layer::SimPrepare], Duration::from_millis(4));
        assert_eq!(st[&Layer::Bench], Duration::from_millis(0));
        let total: Duration = st.values().sum();
        assert_eq!(total, Duration::from_millis(19));
    }

    #[test]
    fn aside_work_is_excluded_from_phase_timers() {
        let mut ctx = Ctx::new(false, true);
        ctx.phase(Phase::Setup, |ctx| {
            ctx.aside("check", Layer::Bench, |_| {
                std::thread::sleep(Duration::from_millis(30))
            });
        });
        assert!(ctx.phase_time(Phase::Setup) < Duration::from_millis(20));
        assert!(ctx.elapsed() < Duration::from_millis(20));
    }
}
