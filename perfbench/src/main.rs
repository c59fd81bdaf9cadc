//! `perfbench` — treenet's benchmark of record.
//!
//! ```text
//! perfbench --workload <serve-churn|solve-flat|dist-pods> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Builds the workload's inputs from the seed, measures for the given
//! number of seconds, checks every output against the repository's
//! oracles, and prints a human-readable report followed by one JSON
//! result line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! records spans around each layer call and reports the per-layer
//! metrics instead. See `README.md`.

#![forbid(unsafe_code)]

mod dist_pods;
mod open_loop;
mod report;
mod serve_churn;
mod solve_flat;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use report::{Metrics, Outcome};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// A second seed, kept out of tuning, for confirming a claimed change.
const CONFIRM_SEED: u64 = 2;
/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage: perfbench --workload <serve-churn|solve-flat|dist-pods> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Command-line settings of one run.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = DEFAULT_SECONDS;
        let mut trace = false;
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// 64-bit FNV-1a over the values a run produced, printed so two runs on
/// one seed can be compared at a glance.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value in.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Operations and checks attempted and failed in one run.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    /// Digest of the run's outputs.
    pub digest: Digest,
}

impl Tally {
    /// Counts one operation of the workload.
    pub fn op(&mut self, ok: bool) {
        self.ops(1, usize::from(!ok));
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// Counts one correctness check, reporting a failure on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
        }
        self.op(ok);
    }

    /// Share of attempted operations and checks that succeeded.
    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Wraps up the run.
    pub fn finish(self, metrics: Metrics) -> Outcome {
        println!("digest: {:#018x}", self.digest.0);
        Outcome {
            correct: self.failed == 0 && self.attempted > 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `setup` `reps` times, keeping the last result, and returns it
/// with the median set-up time in seconds.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(secs(t));
    }
    let median = stats::median(&mut times);
    (last.expect("at least one set-up"), median)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Median of `samples_ms`, printed with the sample count and the tail
/// (the `want` quantile, or the highest one with ten samples beyond it).
pub fn timing(label: &str, samples_ms: &mut [f64], want: f64) -> f64 {
    let p50 = stats::median(samples_ms);
    let tail = stats::tail(samples_ms, want);
    println!(
        "{label}: n = {}, p50 = {p50:.3} ms, p{:.1} = {:.3} ms",
        samples_ms.len(),
        tail.quantile * 100.0,
        tail.value
    );
    p50
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed {} (default {DEFAULT_SEED}, confirm {CONFIRM_SEED}), {} s, trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match args.workload.as_str() {
        "serve-churn" => serve_churn::run(&args),
        "solve-flat" => solve_flat::run(&args),
        "dist-pods" => dist_pods::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report::result_line(&outcome, args.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse("--workload dist-pods --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("dist-pods", 7, 3.0, true)
        );
        let d = parse("--workload solve-flat").unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--workload x --seconds 0").is_err());
        assert!(parse("--workload x --bogus").is_err());
    }
}
