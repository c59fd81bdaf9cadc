//! **Experiment F-dist-budget** — the round/message-budget regression
//! gate for the message-passing schedulers: runs every distributed
//! runner (in-network control plane) over a fixed, fully deterministic
//! scenario grid, records engine rounds / messages / bits / max message
//! size plus the serial rounds — what running the halves one engine pass
//! after the other would take, derived from the logical twin (the
//! wall-clock win of the merged wide/narrow execution) — and writes
//! `BENCH_dist_rounds.json`.
//!
//! With `--baseline <path>` the bin compares against a committed
//! baseline and **exits non-zero** when
//!
//! * a scenario's rounds, messages, heap allocations (`allocs`) or peak
//!   heap (`peak_heap_mb`) regress by more than 10%, or
//! * any message exceeds the paper's `O(M)`-bit bound (one demand
//!   descriptor), or
//! * a baseline scenario disappeared from the run.
//!
//! Independent of any baseline, the bin **exits non-zero** when the
//! recorded run of any scenario
//!
//! * differs from its logical twin (`solve_tree_unit`,
//!   `solve_tree_arbitrary`, `solve_line_unit`, `solve_line_arbitrary`,
//!   or for `auto` the one `auto_choice` dispatches to, under the same
//!   `ε` and seed): the solution, and per wide/narrow half λ
//!   `to_bits()`-exact and the schedule — `steps` equal to the logical
//!   stack mapped through `StepRecord::from` (Luby iterations included)
//!   and `pops` equal to the stack length;
//! * breaks the exact engine-round relation: solo runs take
//!   `engine_rounds() + 1` rounds, merged splits
//!   `max(wide, narrow) + 1 + COMBINE_ROUNDS`;
//! * ran on `k > 1` threads and differs in anything — solution, λ bits,
//!   schedules or `Metrics` — from the same scenario rerun at 1 thread
//!   (that rerun's wall clock is recorded as `wall_ms_1t`/`speedup`).
//!
//! The flagship mixed scenario (`auto-mixed-24x10`) must also keep its
//! engine rounds within [`CONTROL_CEILING`]× of its serial rounds — the
//! amortized control plane's headline claim, enforced on the PR smoke
//! lane where the committed baseline is not regenerated. Every failure,
//! this ceiling and the huge-grid scale gate included, is reported only
//! after the JSON report is written.
//!
//! The memory columns come from a counting global allocator installed
//! in this bin only (the protocol crates stay `unsafe`-free): `allocs`
//! counts allocator calls (`alloc`, `alloc_zeroed`, `realloc`) and
//! `peak_heap_mb` the peak of live heap bytes above the heap at the
//! run's start, both over the scenario's 1-thread run (the recorded run,
//! or at `k > 1` threads the identity rerun) — deterministic, so they
//! gate like rounds and messages. `vm_hwm_mb` records the process's
//! peak RSS (`VmHWM`) after the row, which is cumulative over the rows
//! run so far: recorded, not gated.
//!
//! The `O(M)` check is two-sided and registry-driven: the static bit
//! table in `crates/lint/protocol_registry.toml` (the same file
//! `treenet-lint` cross-checks against the `DistMsg` source) must
//! declare no width over the descriptor bound, and the largest message
//! actually observed must stay within the largest declared width — so
//! the static table and this runtime gate can never drift apart.
//!
//! Flags (shared across the dist bench bins via
//! `treenet_bench::DistArgs`): `--smoke` runs the reduced grid,
//! `--scenarios a,b` filters by name substring, `--out <path>` picks the
//! output file, `--threads <k>` sets the engine threads (default 1, and
//! [`SPEEDUP_THREADS`] for the huge scenarios), `--shuffle <seed>` turns
//! on adversarial delivery shuffling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};
use treenet_bench::dist_grid::{
    config, problem_for, run, Runner, Scenario, Surface, EPSILON, GRID, SCHEMA, SEED,
};
use treenet_bench::{DistArgs, Table};
use treenet_core::{
    auto_choice, solve_line_arbitrary, solve_line_unit, solve_tree_arbitrary, solve_tree_unit,
    AutoChoice, CombinedOutcome, Outcome, SolverConfig,
};
use treenet_dist::{descriptor_bits, DistConfig, StepRecord, COMBINE_ROUNDS};
use treenet_lint::{Registry, REGISTRY_REL_PATH};
use treenet_model::{Problem, Solution};

/// Allowed relative regression before the gate fails.
const TOLERANCE: f64 = 0.10;

/// Control-plane ceiling for [`CONTROL_CEILING_SCENARIO`]: in-network
/// engine rounds must stay within this factor of the serial rounds
/// (with amortized sweeps and the overlapped prologue the typical ratio
/// is 2–3×; the per-step legacy sweeps sat at ~37×).
const CONTROL_CEILING: f64 = 5.0;
const CONTROL_CEILING_SCENARIO: &str = "auto-mixed-24x10";

/// Thread count of the parallel leg of the huge scenarios' speedup
/// measurement (the acceptance target is ≥ [`SPEEDUP_MIN`]× vs 1
/// thread).
const SPEEDUP_THREADS: usize = 8;

/// Required huge-grid speedup at [`SPEEDUP_THREADS`] threads — enforced
/// only on hosts that actually have that many CPUs (the measurement is
/// meaningless on the 2–4-vCPU CI runners; there it is recorded, not
/// gated).
const SPEEDUP_MIN: f64 = 3.0;

/// The system allocator plus exact counters: allocator calls and live
/// heap bytes with their high-water mark.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

impl CountingAlloc {
    fn grew(by: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        new
    }
}

/// Heap use of one metered closure.
#[derive(Copy, Clone, Debug)]
struct HeapUse {
    /// Allocator calls made.
    allocs: u64,
    /// Peak live heap above the live heap at the start, in MiB.
    peak_mb: f64,
}

/// Runs `f`, counting its allocator calls and its peak heap.
fn metered<T>(f: impl FnOnce() -> T) -> (T, HeapUse) {
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - base;
    let heap = HeapUse {
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs,
        peak_mb: peak as f64 / (1u64 << 20) as f64,
    };
    (out, heap)
}

/// The process's peak resident set (`VmHWM`) in MiB, where the OS
/// reports it.
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-scenario measurements as persisted to `BENCH_dist_rounds.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ScenarioReport {
    name: String,
    /// Engine rounds of the in-network run (setup + compute + control
    /// [+ combiner]).
    rounds: u64,
    /// Total messages delivered.
    messages: u64,
    /// Total delivered bits.
    bits: u64,
    /// Largest single message, in bits.
    max_message_bits: u64,
    /// The paper's `O(M)` bound for this problem (one demand descriptor
    /// over all networks).
    bound_bits: u64,
    /// Serial rounds: Σ over the run's halves of the logical
    /// `RunStats::comm_rounds + 1` — the engine rounds of executing the
    /// halves as separate passes (one setup round each) with no control
    /// plane, the baseline the merged wide/narrow execution beats on
    /// wall-clock.
    reference_rounds: u64,
    /// Wall-clock of the recorded in-network run, milliseconds.
    wall_ms: f64,
    /// Engine worker threads of the recorded run.
    threads: u64,
    /// Runs at `threads > 1`: wall-clock of the 1-thread identity rerun
    /// (`None` at 1 thread).
    wall_ms_1t: Option<f64>,
    /// Runs at `threads > 1`: `wall_ms_1t / wall_ms` (`None` at 1
    /// thread).
    speedup: Option<f64>,
    /// Allocator calls of the 1-thread run.
    allocs: u64,
    /// Peak heap of the 1-thread run above the heap at its start, MiB.
    peak_heap_mb: f64,
    /// Process peak RSS (`VmHWM`) after this row, MiB — cumulative over
    /// the rows run before it; `None` where the OS does not report it.
    vm_hwm_mb: Option<f64>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct BudgetReport {
    schema: String,
    mode: String,
    scenarios: Vec<ScenarioReport>,
}

/// Wall-clock of `f` in milliseconds, alongside its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

/// The logical twin of the scenario's runner (for `auto`, the solver
/// `auto_choice` dispatches to): the combined solution and the outcome
/// of each half — one for a solo run, `[wide, narrow]` for a split.
fn logical(s: &Scenario, problem: &Problem) -> (Solution, Vec<Outcome>) {
    let config = SolverConfig::default()
        .with_epsilon(EPSILON)
        .with_seed(SEED);
    let choice = match s.runner {
        Runner::TreeUnit => AutoChoice::TreeUnit,
        Runner::TreeArbitrary => AutoChoice::TreeArbitrary,
        Runner::LineUnit => AutoChoice::LineUnit,
        Runner::LineArbitrary => AutoChoice::LineArbitrary,
        Runner::Auto => auto_choice(problem),
    };
    let solo = |out: Outcome| (out.solution.clone(), vec![out]);
    let split = |out: CombinedOutcome| (out.solution, vec![out.wide, out.narrow]);
    match choice {
        AutoChoice::TreeUnit => solo(solve_tree_unit(problem, &config).expect(s.name)),
        AutoChoice::TreeArbitrary => split(solve_tree_arbitrary(problem, &config).expect(s.name)),
        AutoChoice::LineUnit => solo(solve_line_unit(problem, &config).expect(s.name)),
        AutoChoice::LineArbitrary => split(solve_line_arbitrary(problem, &config).expect(s.name)),
    }
}

/// Checks the recorded run against its logical twin — the solution, and
/// per half the λ bits, the steps and the pops — and returns the serial
/// rounds (Σ over halves of the logical `comm_rounds + 1`).
fn check_logical(
    s: &Scenario,
    problem: &Problem,
    surface: &Surface,
    failures: &mut Vec<String>,
) -> u64 {
    let (solution, halves) = logical(s, problem);
    if solution != surface.solution {
        failures.push(format!(
            "{}: solution differs from the logical solver",
            s.name
        ));
    }
    // A half-count mismatch already fails here (one λ per half).
    let lambda_bits: Vec<u64> = halves.iter().map(|o| o.lambda.to_bits()).collect();
    if lambda_bits != surface.lambda_bits {
        failures.push(format!(
            "{}: λ bits {:x?} differ from the logical solver's {lambda_bits:x?}",
            s.name, surface.lambda_bits
        ));
    }
    for (half, (schedule, outcome)) in surface.schedules.iter().zip(&halves).enumerate() {
        let steps: Vec<StepRecord> = outcome.stack.iter().map(StepRecord::from).collect();
        if schedule.steps != steps {
            let at = steps
                .iter()
                .zip(&schedule.steps)
                .position(|(a, b)| a != b)
                .unwrap_or(steps.len().min(schedule.steps.len()));
            failures.push(format!(
                "{}: half {half} step {at} is {:?}, the logical stack has {:?}",
                s.name,
                schedule.steps.get(at),
                steps.get(at)
            ));
        }
        if schedule.pops != steps.len() as u64 {
            failures.push(format!(
                "{}: half {half} popped {} times for a logical stack of {}",
                s.name,
                schedule.pops,
                steps.len()
            ));
        }
    }
    halves.iter().map(|o| o.stats.comm_rounds + 1).sum()
}

/// The exact engine-round relation of an in-network run: one setup
/// round plus the schedule's compute and control rounds; a merged split
/// runs its halves side by side and adds the combiner rounds.
fn expected_rounds(surface: &Surface) -> u64 {
    match surface.schedules.as_slice() {
        [solo] => solo.engine_rounds() + 1,
        [wide, narrow] => wide.engine_rounds().max(narrow.engine_rounds()) + 1 + COMBINE_ROUNDS,
        other => unreachable!("a run has one or two halves, not {}", other.len()),
    }
}

/// Runs one scenario at its thread count `k` (`--threads`, else
/// [`SPEEDUP_THREADS`] for huge scenarios and 1 elsewhere) and checks
/// the recorded run against the logical twin and the round relation;
/// at `k > 1` it also reruns at 1 thread, which must reproduce the whole
/// surface. Check failures are appended to `failures`.
fn run_scenario(s: &Scenario, args: &DistArgs, failures: &mut Vec<String>) -> ScenarioReport {
    let problem = problem_for(s);
    let threads = args
        .threads
        .unwrap_or(if s.huge { SPEEDUP_THREADS } else { 1 });
    let config = DistConfig {
        threads,
        ..config(args)
    };
    let ((surface, wall_ms), mut heap) = metered(|| timed(|| run(s, &problem, &config)));
    let (wall_ms_1t, speedup) = if threads > 1 {
        let serial_config = DistConfig {
            threads: 1,
            ..config.clone()
        };
        // The memory columns are the 1-thread run's.
        let ((serial, wall_ms_1t), serial_heap) =
            metered(|| timed(|| run(s, &problem, &serial_config)));
        heap = serial_heap;
        if serial != surface {
            failures.push(format!(
                "{}: the run at {threads} threads differs from the 1-thread run",
                s.name
            ));
        }
        (Some(wall_ms_1t), Some(wall_ms_1t / wall_ms))
    } else {
        (None, None)
    };

    let reference_rounds = check_logical(s, &problem, &surface, failures);
    let expected = expected_rounds(&surface);
    if surface.metrics.rounds != expected {
        failures.push(format!(
            "{}: {} engine rounds, but setup + compute + control (+ combine) is {expected}",
            s.name, surface.metrics.rounds
        ));
    }

    ScenarioReport {
        name: s.name.to_string(),
        rounds: surface.metrics.rounds,
        messages: surface.metrics.messages,
        bits: surface.metrics.bits,
        max_message_bits: surface.metrics.max_message_bits,
        bound_bits: descriptor_bits(problem.network_count()),
        reference_rounds,
        wall_ms,
        threads: threads as u64,
        wall_ms_1t,
        speedup,
        allocs: heap.allocs,
        peak_heap_mb: heap.peak_mb,
        vm_hwm_mb: vm_hwm_mb(),
    }
}

/// Loads the protocol registry the lint enforces, so this gate prices
/// its bound off the same committed table. Tries the workspace-relative
/// path first (CI runs from the root), then the source-tree location.
fn load_registry() -> Registry {
    let local = std::path::Path::new(REGISTRY_REL_PATH);
    let fallback = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../crates/lint/protocol_registry.toml");
    let path = if local.is_file() {
        local
    } else {
        fallback.as_path()
    };
    match Registry::load(path) {
        Ok(registry) => registry,
        Err(e) => {
            eprintln!("cannot load {REGISTRY_REL_PATH}: {e}");
            std::process::exit(1);
        }
    }
}

/// The gate: every scenario within the O(M)-bit bound — both the
/// registry's static widths and the observed traffic — and no >10%
/// regression in rounds, messages, allocations or peak heap against the
/// baseline rows. Returns
/// the failures as human-readable lines.
fn gate(
    current: &[ScenarioReport],
    baseline: &[ScenarioReport],
    registry: &Registry,
) -> Vec<String> {
    let mut failures = Vec::new();
    for row in current {
        // Static side: no declared width may exceed the paper's O(M)
        // descriptor bound for this problem.
        let declared_max = registry.max_message_bits(row.bound_bits);
        if declared_max > row.bound_bits {
            failures.push(format!(
                "{}: {REGISTRY_REL_PATH} declares a {declared_max}-bit message, over the \
                 O(M) bound of {} bits",
                row.name, row.bound_bits
            ));
        }
        // Runtime side: observed traffic within the declared widths
        // (and hence, given the static check, within O(M)).
        if row.max_message_bits > declared_max {
            failures.push(format!(
                "{}: observed message of {} bits exceeds the largest registry-declared \
                 width of {declared_max} bits",
                row.name, row.max_message_bits
            ));
        }
        if row.max_message_bits > row.bound_bits {
            failures.push(format!(
                "{}: message of {} bits exceeds the O(M) bound of {} bits",
                row.name, row.max_message_bits, row.bound_bits
            ));
        }
    }
    for old in baseline {
        let Some(new) = current.iter().find(|r| r.name == old.name) else {
            failures.push(format!("{}: scenario missing from this run", old.name));
            continue;
        };
        let over = |label: &str, was: f64, now: f64, limit: f64| -> Option<String> {
            (now > limit).then(|| {
                format!(
                    "{}: {label} regressed {was} -> {now} (> {:.0}% budget, limit {limit})",
                    old.name,
                    TOLERANCE * 100.0
                )
            })
        };
        let count = |label: &str, was: u64, now: u64| {
            let limit = (was as f64 * (1.0 + TOLERANCE)).ceil();
            over(label, was as f64, now as f64, limit)
        };
        failures.extend(count("rounds", old.rounds, new.rounds));
        failures.extend(count("messages", old.messages, new.messages));
        failures.extend(count("allocs", old.allocs, new.allocs));
        failures.extend(over(
            "peak_heap_mb",
            old.peak_heap_mb,
            new.peak_heap_mb,
            old.peak_heap_mb * (1.0 + TOLERANCE),
        ));
    }
    failures
}

fn validate_json(path: &str) -> Result<BudgetReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report: BudgetReport =
        serde_json::from_str(&text).map_err(|e| format!("malformed {path}: {e}"))?;
    if report.schema != SCHEMA {
        return Err(format!(
            "schema tag mismatch in {path}: {} != {SCHEMA}",
            report.schema
        ));
    }
    if report.scenarios.is_empty() {
        return Err(format!("{path} contains no scenarios"));
    }
    Ok(report)
}

fn main() {
    let args = DistArgs::from_env();
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_dist_rounds.json".to_string());

    let scenarios: Vec<&Scenario> = GRID
        .iter()
        .filter(|s| (!args.smoke || s.smoke) && args.selects(s.name))
        .collect();
    assert!(
        !scenarios.is_empty(),
        "--scenarios filtered out every scenario"
    );

    let mut table = Table::new(
        "F-dist-budget — round/message budgets of the in-network runners",
        &[
            "scenario",
            "rounds",
            "reference rounds",
            "messages",
            "kbits",
            "max msg [bits]",
            "O(M) bound",
            "threads",
            "wall [ms]",
            "speedup",
            "allocs",
            "peak heap [MB]",
            "VmHWM [MB]",
        ],
    );
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for s in &scenarios {
        let row = run_scenario(s, &args, &mut failures);
        table.row(&[
            row.name.clone(),
            row.rounds.to_string(),
            row.reference_rounds.to_string(),
            row.messages.to_string(),
            format!("{:.1}", row.bits as f64 / 1000.0),
            row.max_message_bits.to_string(),
            row.bound_bits.to_string(),
            row.threads.to_string(),
            format!("{:.1}", row.wall_ms),
            row.speedup
                .map_or_else(|| "-".to_string(), |x| format!("{x:.2}x")),
            row.allocs.to_string(),
            format!("{:.2}", row.peak_heap_mb),
            row.vm_hwm_mb
                .map_or_else(|| "-".to_string(), |x| format!("{x:.0}")),
        ]);
        rows.push(row);
    }
    table.print();

    // The control-plane ceiling: baseline-independent, so the PR smoke
    // lane enforces it even though it never regenerates the baseline.
    for row in &rows {
        if row.name == CONTROL_CEILING_SCENARIO
            && row.rounds as f64 > CONTROL_CEILING * row.reference_rounds as f64
        {
            failures.push(format!(
                "{}: {} engine rounds exceed {CONTROL_CEILING}x the serial rounds ({}) — \
                 control-plane ceiling",
                row.name, row.rounds, row.reference_rounds
            ));
        }
    }

    // The huge-grid speedup target is a hardware claim: enforce it only
    // where the hardware exists (≥ SPEEDUP_THREADS CPUs); elsewhere the
    // measurement is recorded in the report for post-mortem reading.
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for (s, row) in scenarios.iter().zip(&rows) {
        let Some(speedup) = row
            .speedup
            .filter(|_| s.huge && row.threads == SPEEDUP_THREADS as u64)
        else {
            continue;
        };
        if cpus >= SPEEDUP_THREADS && speedup < SPEEDUP_MIN {
            failures.push(format!(
                "{}: {speedup:.2}x speedup at {SPEEDUP_THREADS} threads (< {SPEEDUP_MIN}x) \
                 on a {cpus}-CPU host — scale gate",
                row.name
            ));
        }
        println!(
            "{}: {speedup:.2}x at {SPEEDUP_THREADS} threads ({} CPUs visible{})",
            row.name,
            cpus,
            if cpus < SPEEDUP_THREADS {
                "; below the gate threshold, recorded only"
            } else {
                ""
            }
        );
    }

    let report = BudgetReport {
        schema: SCHEMA.to_string(),
        mode: if args.smoke { "smoke" } else { "full" }.to_string(),
        scenarios: rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("write BENCH_dist_rounds.json");
    println!("wrote {out_path}");

    let read_back = match validate_json(&out_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{out_path} failed validation: {e}");
            std::process::exit(1);
        }
    };

    // Gate the baseline scenarios this invocation *requested* — filtered
    // by the flags, never by what the run happened to produce, so a
    // baseline scenario that silently vanished from the grid still fails
    // a full run as "missing from this run". Without a baseline only the
    // O(M)-bit bound is gated, which is non-negotiable.
    let gated: Vec<ScenarioReport> = match &args.baseline {
        None => Vec::new(),
        Some(baseline_path) => {
            let baseline = match validate_json(baseline_path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("baseline failed validation: {e}");
                    std::process::exit(1);
                }
            };
            let gated: Vec<ScenarioReport> = baseline
                .scenarios
                .into_iter()
                .filter(|s| args.selects(&s.name))
                .filter(|s| !args.smoke || GRID.iter().any(|g| g.name == s.name && g.smoke))
                .collect();
            assert!(
                !gated.is_empty(),
                "no overlap between the run and the baseline"
            );
            gated
        }
    };
    failures.extend(gate(&read_back.scenarios, &gated, &load_registry()));
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("BUDGET GATE: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "budget gate passed: {} scenario(s) equal to the logical solver (solutions, λ, \
         schedules) with exact round relations, all messages within the O(M)-bit bound{}",
        read_back.scenarios.len(),
        if args.baseline.is_some() {
            format!(
                ", rounds, messages, allocs and peak heap within {:.0}% of the baseline",
                TOLERANCE * 100.0
            )
        } else {
            String::new()
        }
    );
}
