//! The scenario grid shared by the distributed bench bins
//! (`exp_f_dist_budget`, `exp_f_dist_loss`): one table of deterministic
//! scenarios, one protocol configuration and one run dispatch, so both
//! bins measure exactly the same executions and rows of their reports
//! can be matched by name.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_dist::{
    run_distributed_auto, run_distributed_line_arbitrary, run_distributed_line_unit,
    run_distributed_tree_arbitrary, run_distributed_tree_unit, DistAutoRun, DistCombinedOutcome,
    DistConfig, DistOutcome, DistSchedule,
};
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::{Problem, Solution};
use treenet_netsim::Metrics;

use crate::DistArgs;

/// Schema tag of the budget report (`BENCH_dist_rounds.json`), checked
/// on read-back by the budget bin and on `--baseline` by the loss bin.
pub const SCHEMA: &str = "treenet-bench/dist-budget/v3";

/// Slackness target `ε` of every grid run.
pub const EPSILON: f64 = 0.3;

/// Protocol seed of every grid run.
pub const SEED: u64 = 0x7ee5;

/// Which distributed runner a scenario exercises.
#[derive(Copy, Clone, Debug)]
pub enum Runner {
    /// `run_distributed_tree_unit` (Theorem 5.3).
    TreeUnit,
    /// `run_distributed_tree_arbitrary` (Theorem 6.3).
    TreeArbitrary,
    /// `run_distributed_line_unit` (Theorem 7.1).
    LineUnit,
    /// `run_distributed_line_arbitrary` (Theorem 7.2).
    LineArbitrary,
    /// `run_distributed_auto` (strongest applicable runner).
    Auto,
}

/// One deterministic scenario of the grid.
pub struct Scenario {
    /// Scenario id (workload family × size), the row key of every report.
    pub name: &'static str,
    /// The runner it exercises.
    pub runner: Runner,
    /// Whether the smoke grid (`--smoke`) includes it.
    pub smoke: bool,
    /// Huge (pod-structured, `m = 10⁵` processors) scenarios default to
    /// the multi-threaded executor in the budget bin and are left out of
    /// the loss grid.
    pub huge: bool,
}

/// Every scenario of the distributed bench bins.
pub const GRID: &[Scenario] = &[
    Scenario {
        name: "tree-unit-10x8",
        runner: Runner::TreeUnit,
        smoke: true,
        huge: false,
    },
    Scenario {
        name: "tree-arbitrary-10x8",
        runner: Runner::TreeArbitrary,
        smoke: true,
        huge: false,
    },
    Scenario {
        name: "line-unit-30x12",
        runner: Runner::LineUnit,
        smoke: true,
        huge: false,
    },
    Scenario {
        name: "line-arbitrary-30x12",
        runner: Runner::LineArbitrary,
        smoke: true,
        huge: false,
    },
    Scenario {
        name: "auto-mixed-24x10",
        runner: Runner::Auto,
        smoke: true,
        huge: false,
    },
    // Eight independent pods: the communication graph has several
    // connected components, so `--threads k > 1` really shards.
    Scenario {
        name: "tree-pods-8",
        runner: Runner::TreeUnit,
        smoke: true,
        huge: false,
    },
    Scenario {
        name: "tree-unit-16x14",
        runner: Runner::TreeUnit,
        smoke: false,
        huge: false,
    },
    Scenario {
        name: "line-unit-48x24",
        runner: Runner::LineUnit,
        smoke: false,
        huge: false,
    },
    Scenario {
        name: "line-arbitrary-48x24",
        runner: Runner::LineArbitrary,
        smoke: false,
        huge: false,
    },
    // The huge pod grid: 10⁵ processors split into independent pods, so
    // the communication graph shards by connected component. tree-huge
    // is smoke-selectable for the CI scale-smoke step
    // (`--smoke --scenarios tree-huge --threads N`); the PR budget gate
    // excludes the huge grid via an explicit `--scenarios` list.
    Scenario {
        name: "tree-huge-100k",
        runner: Runner::TreeUnit,
        smoke: true,
        huge: true,
    },
    Scenario {
        name: "line-huge-100k",
        runner: Runner::LineUnit,
        smoke: false,
        huge: true,
    },
];

/// The scenario's problem, generated from a fixed seed.
///
/// # Panics
///
/// Panics on a scenario that is not in [`GRID`].
pub fn problem_for(s: &Scenario) -> Problem {
    let mut rng = SmallRng::seed_from_u64(0xd157_b0d6);
    match s.name {
        "tree-unit-10x8" => TreeWorkload::new(10, 8)
            .with_networks(2)
            .with_profit_ratio(4.0)
            .generate(&mut rng),
        "tree-arbitrary-10x8" => TreeWorkload::new(10, 8)
            .with_networks(2)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.25,
            })
            .generate(&mut rng),
        "line-unit-30x12" => LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .generate(&mut rng),
        "line-arbitrary-30x12" => LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.2,
            })
            .generate(&mut rng),
        "auto-mixed-24x10" => LineWorkload::new(24, 10)
            .with_heights(HeightMode::Uniform { hmin: 0.25 })
            .generate(&mut rng),
        "tree-pods-8" => TreeWorkload::new(12, 320)
            .with_networks(1)
            .with_pods(8)
            .with_profit_ratio(4.0)
            .generate(&mut rng),
        "tree-unit-16x14" => TreeWorkload::new(16, 14)
            .with_networks(2)
            .with_profit_ratio(8.0)
            .generate(&mut rng),
        "line-unit-48x24" => LineWorkload::new(48, 24)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .generate(&mut rng),
        "line-arbitrary-48x24" => LineWorkload::new(48, 24)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.2,
            })
            .generate(&mut rng),
        "tree-huge-100k" => TreeWorkload::new(24, 100_000)
            .with_networks(1)
            .with_pods(2500)
            .with_profit_ratio(4.0)
            .generate(&mut rng),
        "line-huge-100k" => LineWorkload::new(30, 100_000)
            .with_resources(1)
            .with_pods(2500)
            .with_window_slack(0)
            .with_len_range(1, 8)
            .generate(&mut rng),
        other => unreachable!("unknown scenario {other}"),
    }
}

/// The protocol configuration of a grid run: `ε` = [`EPSILON`], seed
/// [`SEED`], `--threads` (default 1) and `--shuffle` from the flags.
pub fn config(args: &DistArgs) -> DistConfig {
    DistConfig {
        epsilon: EPSILON,
        seed: SEED,
        threads: args.threads.unwrap_or(1),
        shuffle_delivery: args.shuffle,
        ..DistConfig::default()
    }
}

/// Everything a distributed run decides or measures: the surface two
/// executions must share to count as the same run.
#[derive(Clone, Debug, PartialEq)]
pub struct Surface {
    /// The extracted solution.
    pub solution: Solution,
    /// λ bit patterns per half: `[λ]` for a solo run, `[wide, narrow]`
    /// for a wide/narrow split.
    pub lambda_bits: Vec<u64>,
    /// Executed schedules, one per half in the same order.
    pub schedules: Vec<DistSchedule>,
    /// Engine communication metrics of the whole run.
    pub metrics: Metrics,
}

impl Surface {
    fn solo(out: DistOutcome) -> Self {
        Surface {
            solution: out.solution,
            lambda_bits: vec![out.lambda.to_bits()],
            schedules: vec![out.schedule],
            metrics: out.metrics,
        }
    }

    fn split(out: DistCombinedOutcome) -> Self {
        Surface {
            solution: out.solution,
            lambda_bits: vec![out.wide.lambda.to_bits(), out.narrow.lambda.to_bits()],
            schedules: vec![out.wide.schedule, out.narrow.schedule],
            metrics: out.metrics,
        }
    }
}

/// Runs the scenario's in-network runner under `config`.
///
/// # Panics
///
/// Panics if the run fails — every grid scenario is feasible under the
/// grid's parameters, so a failure is a bug.
pub fn run(s: &Scenario, problem: &Problem, config: &DistConfig) -> Surface {
    match s.runner {
        Runner::TreeUnit => {
            Surface::solo(run_distributed_tree_unit(problem, config).expect(s.name))
        }
        Runner::TreeArbitrary => {
            Surface::split(run_distributed_tree_arbitrary(problem, config).expect(s.name))
        }
        Runner::LineUnit => {
            Surface::solo(run_distributed_line_unit(problem, config).expect(s.name))
        }
        Runner::LineArbitrary => {
            Surface::split(run_distributed_line_arbitrary(problem, config).expect(s.name))
        }
        Runner::Auto => match run_distributed_auto(problem, config).expect(s.name).run {
            DistAutoRun::Single(out) => Surface::solo(out),
            DistAutoRun::Split(out) => Surface::split(out),
        },
    }
}
