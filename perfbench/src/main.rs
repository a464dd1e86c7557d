//! The repository benchmark: runs one named workload for a fixed time,
//! checks its outputs and prints its metrics.
//!
//! ```text
//! encore-perfbench --workload <fig8-sfi|sfi-xl|compile-sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats whole passes of the workload (set-up included) until
//! `--seconds` have passed, then reports each time as its smallest value
//! over passes (the pass the host slowed least). With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced passes and reports the per-layer
//! metrics from the traced ones. The last stdout line is one JSON object;
//! the lines before it are the same figures for people. See README.md.

mod ctx;
mod report;
mod workloads;

use std::time::{Duration, Instant};

use ctx::Ctx;
use report::{Metric, PassRecord};
use workloads::Bench;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: encore-perfbench --workload <fig8-sfi|sfi-xl|compile-sweep> \
                     --seed <n> --seconds <1..> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !Bench::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; known: {}",
            Bench::NAMES.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    })
}

/// Passes of each kind a run makes at least, however short `--seconds`.
const MIN_PASSES: usize = 3;

/// Runs passes until `seconds` have passed. A traced run alternates
/// untraced and traced passes, starting untraced. The first pass runs the
/// expensive output checks.
fn run_passes(bench: &Bench, seed: u64, seconds: u64, trace: bool) -> Vec<PassRecord> {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut passes: Vec<PassRecord> = Vec::new();
    loop {
        let traced = trace && passes.len() % 2 == 1;
        let mut ctx = Ctx::new(traced, passes.is_empty());
        let out = bench.pass(&mut ctx, seed);
        passes.push(PassRecord::finish(ctx, out));
        let of_kind = |t: bool| passes.iter().filter(|p| p.traced == t).count();
        let enough = of_kind(false) >= MIN_PASSES && (!trace || of_kind(true) >= MIN_PASSES);
        if enough && start.elapsed() >= budget {
            return passes;
        }
    }
}

/// A fixed, program-independent integer loop, in milliseconds: a
/// host-speed diagnostic reported beside the metrics, never used to
/// normalise or drop anything. It touches no memory, so it leaves the
/// peak-RSS metric alone.
fn host_loop_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..std::hint::black_box(40_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let bench = Bench::by_name(&args.workload).expect("name validated by parse_args");
    let host_start = host_loop_ms();
    let passes = run_passes(&bench, args.seed, args.seconds, args.trace);
    let host_end = host_loop_ms();
    let Some(rss) = peak_rss_mb() else {
        eprintln!("error: cannot read VmHWM from /proc/self/status");
        std::process::exit(1);
    };

    let summary = report::Summary::new(&args.workload, args.seed, &passes);
    summary.print_passes();
    println!(
        "host-speed loop: {host_start:.2} ms at start, {host_end:.2} ms at end (diagnostic only)"
    );
    let metrics = if args.trace {
        summary.print_trace();
        let mut m = summary.per_layer();
        m.push(Metric::new("host.loop_start_ms", host_start, "ms"));
        m.push(Metric::new("host.loop_end_ms", host_end, "ms"));
        m
    } else {
        summary.end_to_end(rss)
    };
    report::print_metrics(&metrics);
    let checks = summary.checks();
    println!(
        "checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    for f in &checks.failures {
        println!("  FAILED: {f}");
    }
    println!("{}", report::json_line(&checks, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload sfi-xl --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sfi-xl", 7, 3, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload fig8-sfi --trace 2").is_err());
        assert!(args("--workload fig8-sfi --seconds 0").is_err());
        assert!(args("--workload fig8-sfi --seed").is_err());
        assert!(args("--seed 1").is_err());
    }
}
