//! Experiment harness: regenerates every quantitative claim of the paper.
//!
//! The paper is a theory paper — its "tables and figures" are the
//! approximation-ratio statements (the implicit comparison table of
//! Section 1) and the round-complexity bounds of Theorems 5.3/6.3/7.1/7.2
//! and Lemmas 4.1/4.3/5.1. `exp_claims` measures all of them as rows of
//! one report; the other binaries in `src/bin` cover the distributed
//! runners, the phase-1 engine and the online service. Each writes a
//! committed `BENCH_*.json` baseline that CI gates on
//! (`docs/BENCHMARKS.md`; the README's Experiments section shows how to
//! run them):
//!
//! | binary | claim |
//! |---|---|
//! | `exp_claims` | every paper claim, one row each: the Section-1 ratio table (ours 4/23 lines, 7/80 trees vs PS 20/55, Bar-Noy 2/5, sequential 3/2), Lemmas 4.1/4.3/5.1, the rounds and stages of Thms 5.3/6.3, slackness `λ = 1-ε` vs PS `1/(5+ε)`, Luby `Time(MIS)`, and the strategy/stage/MIS-backend ablations; gated exactly against `BENCH_claims.json` |
//! | `exp_f_dist_budget` | message-passing ≡ logical (Sec. 5, Thms 7.1/7.2: solutions, λ bits, schedules = logical stacks), bit-identical at any thread count; `O(M)`-bit messages; exact setup/compute/control round relation; round/message/allocation/peak-heap budgets, CI regression gate vs `BENCH_dist_rounds.json` |
//! | `exp_f_dist_loss` | lossy links are invisible to the protocol; round/message overhead of the reliable layer; writes `BENCH_dist_loss.json` |
//! | `exp_perf_phase1` | incremental phase-1 engine vs from-scratch reference; writes `BENCH_phase1.json` |
//! | `exp_serve_throughput` | warm per-delta re-solve of `treenet serve` vs a cold solve; writes `BENCH_serve.json` |
//!
//! Running `cargo run --release -p treenet-bench --bin <name>` prints a
//! markdown table; every binary takes the [`DistArgs`] flags.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod cli;
pub mod dist_grid;
pub mod report;
pub mod stats;

pub use cli::DistArgs;
pub use report::Table;
