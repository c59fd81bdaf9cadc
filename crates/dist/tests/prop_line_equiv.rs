//! Property-based distributed-vs-logical equivalence: across randomized
//! line workloads (unit and arbitrary heights) and mixed tree/line
//! problems dispatched through the auto runner, the message-passing
//! execution reproduces the logical solver exactly — identical solutions,
//! `to_bits()`-exact λ, and, per half, the logical stack as the executed
//! schedule: the fully in-network control plane (echo termination +
//! convergecast combiner) decides exactly the logical step boundaries,
//! with the same Luby iterations per step and one pop per entry.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::{
    solve_auto, solve_line_arbitrary, solve_line_unit, solve_tree_arbitrary, solve_tree_unit,
    AutoChoice, SolverConfig, StackEntry,
};
use treenet_dist::{
    run_distributed_auto, run_distributed_line_arbitrary, run_distributed_line_unit, DistAutoRun,
    DistConfig, DistSchedule, StepRecord, COMBINE_ROUNDS,
};
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};

/// A half's executed schedule as the logical stack would record it: the
/// step records and the pop count.
fn schedule_of(schedule: &DistSchedule) -> (Vec<StepRecord>, u64) {
    (schedule.steps.clone(), schedule.pops)
}

/// The schedule the logical stack prescribes: one step record per entry
/// (coordinates and Luby iterations) and one pop per entry.
fn stack_schedule(stack: &[StackEntry]) -> (Vec<StepRecord>, u64) {
    (
        stack.iter().map(StepRecord::from).collect(),
        stack.len() as u64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Theorem 7.1 as a message-passing computation: bit-identical to
    /// `solve_line_unit` on window workloads, with the logical stack as
    /// the executed schedule, the shared compute-round accounting and the
    /// exact engine-round relation (setup + compute + in-network
    /// control).
    #[test]
    fn line_unit_distributed_equals_logical(seed in 0u64..3000, slack in 0u32..4) {
        let p = LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(slack)
            .with_len_range(1, 8)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
        let logical = solve_line_unit(&p, &cfg).unwrap();
        let distributed = run_distributed_line_unit(&p, &DistConfig::from(&cfg)).unwrap();
        prop_assert_eq!(&logical.solution, &distributed.solution);
        prop_assert_eq!(logical.lambda.to_bits(), distributed.lambda.to_bits());
        prop_assert_eq!(schedule_of(&distributed.schedule), stack_schedule(&logical.stack));
        prop_assert_eq!(distributed.schedule.total_rounds(), logical.stats.comm_rounds);
        prop_assert_eq!(
            distributed.metrics.rounds,
            distributed.schedule.total_rounds() + distributed.schedule.control_rounds() + 1
        );
        prop_assert!(distributed.solution.verify(&p).is_ok());
    }

    /// Theorem 7.2 as one merged message-passing computation plus the
    /// in-network combiner: the combined solution (the convergecast
    /// combiner reproduces `combine_by_network` bit-exactly) and, per
    /// half, the solution, λ bits and stack-as-schedule match the logical
    /// solver, and the engine-round relation is exact.
    #[test]
    fn line_arbitrary_distributed_equals_logical(seed in 0u64..3000) {
        let p = LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .with_heights(HeightMode::Bimodal { narrow_frac: 0.5, hmin: 0.2 })
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
        let logical = solve_line_arbitrary(&p, &cfg).unwrap();
        let distributed = run_distributed_line_arbitrary(&p, &DistConfig::from(&cfg)).unwrap();
        prop_assert_eq!(&logical.solution, &distributed.solution);
        for (a, b) in [(&distributed.wide, &logical.wide), (&distributed.narrow, &logical.narrow)] {
            prop_assert_eq!(&a.solution, &b.solution);
            prop_assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
            prop_assert_eq!(schedule_of(&a.schedule), stack_schedule(&b.stack));
        }
        prop_assert_eq!(logical.lambda().to_bits(), distributed.lambda().to_bits());
        prop_assert_eq!(
            distributed.wide.schedule.total_rounds(),
            logical.wide.stats.comm_rounds
        );
        prop_assert_eq!(
            distributed.narrow.schedule.total_rounds(),
            logical.narrow.stats.comm_rounds
        );
        prop_assert_eq!(
            distributed.metrics.rounds,
            distributed.wide.schedule.engine_rounds()
                .max(distributed.narrow.schedule.engine_rounds()) + 1 + COMBINE_ROUNDS
        );
        prop_assert!(distributed.solution.verify(&p).is_ok());
    }

    /// The auto dispatch over the mixed grid: every topology/height
    /// combination picks the same theorem as `solve_auto`, reproduces
    /// its solution and λ bitwise, and executes the dispatched logical
    /// solver's stacks as its schedules.
    #[test]
    fn auto_distributed_equals_logical(seed in 0u64..3000, shape in 0usize..4) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = match shape {
            0 => LineWorkload::new(24, 10).generate(&mut rng),
            1 => LineWorkload::new(24, 10)
                .with_heights(HeightMode::Uniform { hmin: 0.25 })
                .generate(&mut rng),
            2 => TreeWorkload::new(10, 8).with_networks(2).generate(&mut rng),
            _ => TreeWorkload::new(10, 8)
                .with_networks(2)
                .with_heights(HeightMode::Bimodal { narrow_frac: 0.5, hmin: 0.25 })
                .generate(&mut rng),
        };
        let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
        let logical = solve_auto(&p, &cfg).unwrap();
        let distributed = run_distributed_auto(&p, &DistConfig::from(&cfg)).unwrap();
        prop_assert_eq!(logical.choice, distributed.choice);
        prop_assert_eq!(&logical.solution, &distributed.solution);
        prop_assert_eq!(logical.lambda.to_bits(), distributed.lambda.to_bits());
        prop_assert!(distributed.solution.verify(&p).is_ok());

        let logical_stacks: Vec<Vec<StackEntry>> = match distributed.choice {
            AutoChoice::LineUnit => vec![solve_line_unit(&p, &cfg).unwrap().stack],
            AutoChoice::TreeUnit => vec![solve_tree_unit(&p, &cfg).unwrap().stack],
            AutoChoice::LineArbitrary => {
                let out = solve_line_arbitrary(&p, &cfg).unwrap();
                vec![out.wide.stack, out.narrow.stack]
            }
            AutoChoice::TreeArbitrary => {
                let out = solve_tree_arbitrary(&p, &cfg).unwrap();
                vec![out.wide.stack, out.narrow.stack]
            }
        };
        let schedules: Vec<&DistSchedule> = match &distributed.run {
            DistAutoRun::Single(run) => vec![&run.schedule],
            DistAutoRun::Split(run) => vec![&run.wide.schedule, &run.narrow.schedule],
        };
        prop_assert_eq!(schedules.len(), logical_stacks.len(), "dispatch shapes diverged");
        for (schedule, stack) in schedules.into_iter().zip(&logical_stacks) {
            prop_assert_eq!(schedule_of(schedule), stack_schedule(stack));
        }
    }
}
