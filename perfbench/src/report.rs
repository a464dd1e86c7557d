//! Turns pass records into the reported metrics: the fastest pass for
//! timings, exact deterministic counters, and the trace's per-layer
//! self times and per-injection latency percentiles.

use std::collections::BTreeMap;
use std::time::Duration;

use encore_sim::FaultOutcome;

use crate::ctx::{self_times, Checks, Ctx, Layer, Phase, Span};
use crate::workloads::{PassOutput, UNTRACED_ONLY};

/// One pass's measurements.
#[derive(Debug)]
pub struct PassRecord {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Pass wall time, aside work excluded.
    pub total: Duration,
    /// Set-up time, campaign prepare included.
    pub setup: Duration,
    /// The time `ops_per_s` rates operations over: campaign prepare plus
    /// campaigns on the SFI workloads, the sweep on compile-sweep.
    pub work: Duration,
    /// Workload outputs.
    pub out: PassOutput,
    /// Deterministic work counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Spans (traced passes only).
    pub spans: Vec<Span>,
    /// Golden-run time of the modules whose campaigns were prepared.
    pub golden_for_prepare: Duration,
    /// Output checks made in the pass.
    pub checks: Checks,
}

impl PassRecord {
    /// Closes `ctx` into a record.
    pub fn finish(ctx: Ctx, out: PassOutput) -> Self {
        let total = ctx.elapsed();
        let [setup, prepare, main] =
            [Phase::Setup, Phase::Prepare, Phase::Main].map(|p| ctx.phase_time(p));
        let golden_for_prepare = ctx.golden_for_prepare;
        let traced = ctx.traced();
        let (spans, checks, counters) = ctx.into_parts();
        PassRecord {
            traced,
            total,
            setup: setup + prepare,
            work: prepare + main,
            out,
            counters,
            spans,
            golden_for_prepare,
            checks,
        }
    }
}

/// A reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of sorted `v` by the nearest-rank rule.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Span names reported as per-layer timings (`<name>_s`).
const TIMED_SPANS: [&str; 11] = [
    "workloads.build",
    "ir.parse",
    "ir.verify",
    "ir.print",
    "sim.profile",
    "sim.eval",
    "sim.golden_run",
    "core.pipeline",
    "analysis.idempotence",
    "sim.prepare",
    "sim.campaign",
];

/// Deterministic counters reported as per-layer counts.
const COUNTS: [&str; 18] = [
    "ir.static_insts",
    "sim.profile_dyn_insts",
    "core.regions",
    "core.protected_regions",
    "core.merges",
    "sim.snapshots",
    "sim.golden_dyn_insts",
    "sim.eligible_insts",
    "sim.injections",
    "sim.dyn_insts_saved",
    "sim.probes",
    "sim.pages_hashed",
    "sim.words_compared",
    "sim.outcome.benign",
    "sim.outcome.recovered",
    "sim.outcome.silent_corruption",
    "sim.outcome.crashed",
    "sim.outcome.hung",
];

/// Outcomes whose per-injection latency is reported separately. Benign
/// is left out: sfi-xl never produces it (every fault is detected before
/// its long runs end), so its latency would have no samples.
const LATENCY_OUTCOMES: [FaultOutcome; 2] =
    [FaultOutcome::Recovered, FaultOutcome::SilentCorruption];

/// Everything a run measured.
pub struct Summary<'a> {
    workload: &'a str,
    seed: u64,
    passes: &'a [PassRecord],
}

impl<'a> Summary<'a> {
    /// Summarises `passes` of `workload` under `seed`.
    pub fn new(workload: &'a str, seed: u64, passes: &'a [PassRecord]) -> Self {
        Summary {
            workload,
            seed,
            passes,
        }
    }

    fn of_kind(&self, traced: bool) -> impl Iterator<Item = &PassRecord> {
        self.passes.iter().filter(move |p| p.traced == traced)
    }

    /// The median of `f` over passes of one kind, for ratios of two times
    /// taken in the same pass, where the host's speed cancels out.
    fn median_of(&self, traced: bool, f: impl Fn(&PassRecord) -> f64) -> f64 {
        median(&self.of_kind(traced).map(f).collect::<Vec<_>>())
    }

    /// The smallest value of the time `f` over passes of one kind. Every
    /// pass does the same work (the counters check it), and the host only
    /// ever slows a pass down, so the fastest pass is the estimate least
    /// disturbed by the host. See "How a run measures" in README.md.
    fn fastest_of(&self, traced: bool, f: impl Fn(&PassRecord) -> f64) -> f64 {
        self.of_kind(traced).map(f).fold(f64::INFINITY, f64::min)
    }

    /// Operations per second of the untraced pass with the shortest
    /// `work` time.
    fn ops_per_s(&self) -> f64 {
        self.of_kind(false)
            .map(|p| p.out.ops as f64 / p.work.as_secs_f64().max(1e-9))
            .fold(0.0, f64::max)
    }

    /// The first pass: untraced, with every counter and check.
    fn reference(&self) -> &PassRecord {
        &self.passes[0]
    }

    /// All output checks: each pass's own, plus one per later pass that
    /// its counters and simulated metrics repeat the first pass's exactly
    /// (a traced pass lacks only the probe-cost counters).
    pub fn checks(&self) -> Checks {
        let mut all = Checks::default();
        let first = self.reference();
        for (i, p) in self.passes.iter().enumerate() {
            all.attempted += p.checks.attempted;
            all.failed += p.checks.failed;
            all.failures.extend(p.checks.failures.iter().cloned());
            if i == 0 {
                continue;
            }
            let mut expected = first.counters.clone();
            if p.traced {
                expected.retain(|k, _| !UNTRACED_ONLY.contains(k));
            }
            let same = p.counters == expected && p.out == first.out;
            all.record(same, || {
                format!("pass {i}: counters or simulated metrics differ from pass 0")
            });
        }
        all
    }

    /// The end-to-end metrics, from the untraced passes.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<Metric> {
        let out = self.reference().out;
        vec![
            Metric::new(
                "total_s",
                self.fastest_of(false, |p| p.total.as_secs_f64()),
                "s",
            ),
            Metric::new(
                "setup_s",
                self.fastest_of(false, |p| p.setup.as_secs_f64()),
                "s",
            ),
            Metric::new("ops_per_s", self.ops_per_s(), "1/s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
            Metric::new("overhead_dyn_pct", out.overhead_dyn_pct, "%"),
            Metric::new("sfi_safe_pct", out.sfi_safe_pct, "%"),
        ]
    }

    /// The per-layer metrics, from the traced passes (timings) and the
    /// first pass (counters).
    pub fn per_layer(&self) -> Vec<Metric> {
        let mut m = Vec::new();
        let span_sum = |p: &PassRecord, name: &str| -> f64 {
            p.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration().as_secs_f64())
                .sum()
        };
        for name in TIMED_SPANS {
            m.push(Metric::new(
                format!("{name}_s"),
                self.fastest_of(true, |p| span_sum(p, name)),
                "s",
            ));
        }
        m.push(Metric::new(
            "sim.prepare_over_golden",
            self.median_of(true, |p| {
                span_sum(p, "sim.prepare") / p.golden_for_prepare.as_secs_f64().max(1e-12)
            }),
            "ratio",
        ));
        for layer in Layer::ALL {
            m.push(Metric::new(
                layer.self_metric(),
                self.fastest_of(true, |p| {
                    self_times(&p.spans, p.total)[&layer].as_secs_f64()
                }),
                "s",
            ));
        }
        let c = &self.reference().counters;
        let get = |k: &str| c.get(k).copied().unwrap_or(0);
        for key in COUNTS {
            m.push(Metric::new(key, get(key) as f64, "count"));
        }
        let spliced =
            get("sim.splice.converged") + get("sim.splice.dead_diff") + get("sim.splice.sdc");
        m.push(Metric::new(
            "sim.spliced_pct",
            100.0 * spliced as f64 / get("sim.injections").max(1) as f64,
            "%",
        ));
        // Per-injection latencies, pooled over the traced passes (which
        // repeat the same injections).
        let latencies = |filter: Option<usize>| -> Vec<f64> {
            let mut v: Vec<f64> = self
                .of_kind(true)
                .flat_map(|p| p.spans.iter())
                .filter(|s| s.name == "sim.run_one" && filter.is_none_or(|t| s.tag == Some(t)))
                .map(|s| s.duration().as_secs_f64() * 1e6)
                .collect();
            v.sort_by(f64::total_cmp);
            v
        };
        // Sample counts are `sim.injections` and `sim.outcome.<label>`.
        let mut push_latency = |suffix: String, v: Vec<f64>| {
            m.push(Metric::new(
                format!("sim.run_one_p50_us{suffix}"),
                quantile(&v, 0.5),
                "us",
            ));
            m.push(Metric::new(
                format!("sim.run_one_p99_us{suffix}"),
                quantile(&v, 0.99),
                "us",
            ));
        };
        push_latency(String::new(), latencies(None));
        for o in LATENCY_OUTCOMES {
            push_latency(format!(".{}", o.label()), latencies(Some(o.index())));
        }
        let untraced = self.fastest_of(false, |p| p.total.as_secs_f64());
        let traced = self.fastest_of(true, |p| p.total.as_secs_f64());
        m.push(Metric::new(
            "trace.overhead_ratio",
            traced / untraced.max(1e-12),
            "ratio",
        ));
        m
    }

    /// Prints one line per pass and the deterministic counters.
    pub fn print_passes(&self) {
        println!(
            "workload {}  seed {}  passes {} ({} traced)",
            self.workload,
            self.seed,
            self.passes.len(),
            self.of_kind(true).count()
        );
        println!("pass  traced  total_s    setup_s    work_s     ops");
        for (i, p) in self.passes.iter().enumerate() {
            println!(
                "{i:>4}  {:<6}  {:<9.4}  {:<9.4}  {:<9.4}  {}",
                if p.traced { "yes" } else { "no" },
                p.total.as_secs_f64(),
                p.setup.as_secs_f64(),
                p.work.as_secs_f64(),
                p.out.ops
            );
        }
        let totals: Vec<f64> = self.of_kind(false).map(|p| p.total.as_secs_f64()).collect();
        let slowest = totals.iter().copied().fold(0.0, f64::max);
        println!(
            "total_s over {} untraced passes: fastest {:.4} (reported), median {:.4}, slowest {:.4}",
            totals.len(),
            self.fastest_of(false, |p| p.total.as_secs_f64()),
            median(&totals),
            slowest
        );
        println!("deterministic counters (per pass):");
        for (k, v) in &self.reference().counters {
            println!("  {k:<36} {v}");
        }
        let main = self.ops_per_s();
        let alias = if self.workload == "compile-sweep" {
            "compiles_per_s"
        } else {
            "injections_per_s"
        };
        println!("{alias} (= ops_per_s on this workload): {main:.2} 1/s");
    }

    /// Prints the trace: span totals by name and self time by layer.
    pub fn print_trace(&self) {
        println!("trace: fastest traced pass, per span name and per layer");
        let mut names: Vec<&str> = self
            .of_kind(true)
            .flat_map(|p| p.spans.iter().map(|s| s.name))
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let total = self.fastest_of(true, |p| {
                p.spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.duration().as_secs_f64())
                    .sum()
            });
            println!("  span {name:<24} {total:>10.4} s");
        }
        let total = self.fastest_of(true, |p| p.total.as_secs_f64());
        let mut shares: Vec<(Layer, f64)> = Layer::ALL
            .iter()
            .map(|&l| {
                (
                    l,
                    self.fastest_of(true, |p| self_times(&p.spans, p.total)[&l].as_secs_f64()),
                )
            })
            .collect();
        for (l, t) in &shares {
            println!(
                "  self {:<24} {t:>10.4} s  {:>5.1}%",
                l.self_metric(),
                100.0 * t / total.max(1e-12)
            );
        }
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!(
            "  dominant layer by self time: {}",
            shares[0].0.self_metric()
        );
    }
}

/// Prints each metric with its unit.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {:<40} {:>18} {}", m.name, m.value, m.unit);
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(traced: bool, total_ms: u64, work_ms: u64) -> PassRecord {
        PassRecord {
            traced,
            total: Duration::from_millis(total_ms),
            setup: Duration::from_millis(total_ms - work_ms),
            work: Duration::from_millis(work_ms),
            out: PassOutput {
                ops: 100,
                ..PassOutput::default()
            },
            counters: BTreeMap::new(),
            spans: Vec::new(),
            golden_for_prepare: Duration::ZERO,
            checks: Checks::default(),
        }
    }

    #[test]
    fn end_to_end_times_come_from_the_fastest_untraced_pass() {
        let passes = [
            pass(false, 900, 800),
            pass(false, 500, 400),
            pass(true, 100, 50),
            pass(false, 700, 500),
        ];
        let m = Summary::new("w", 1, &passes).end_to_end(1.0);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(get("total_s"), 0.5);
        assert_eq!(get("setup_s"), 0.1);
        assert_eq!(get("ops_per_s"), 250.0);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let checks = Checks {
            attempted: 3,
            failed: 0,
            failures: vec![],
        };
        let line = json_line(&checks, &[Metric::new("total_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"total_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
