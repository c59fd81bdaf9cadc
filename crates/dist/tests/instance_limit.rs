//! A processor announces its participating instances in one `Active`
//! mask of [`MAX_INSTANCES`] bits, so a demand with more instances cannot
//! run distributed. Every runner rejects it with a typed error before
//! any node is built; the logical solver still runs it, and a demand at
//! exactly the limit still equals its logical twin.

use treenet_core::{solve_line_unit, SolverConfig};
use treenet_dist::{
    run_distributed_auto, run_distributed_line_arbitrary, run_distributed_line_unit,
    run_distributed_tree_arbitrary, run_distributed_tree_unit, DistConfig, DistError,
    MAX_INSTANCES,
};
use treenet_graph::Tree;
use treenet_model::{Demand, DemandId, Problem, ProblemBuilder};

/// A 121-slot line with one short window demand and, second, a window of
/// `starts` possible start slots.
fn problem(starts: u32) -> Problem {
    let mut builder = ProblemBuilder::new();
    let line = builder.add_network(Tree::line(121)).unwrap();
    builder
        .add_demand(Demand::window(3, 9, 4, 2.0), &[line])
        .unwrap();
    builder
        .add_demand(Demand::window(0, starts, 2, 1.0), &[line])
        .unwrap();
    builder.build().unwrap()
}

#[test]
fn too_many_instances_is_a_typed_error_for_every_runner() {
    let p = problem(100);
    let instances = p.instances_of(DemandId(1)).len();
    assert!(instances > MAX_INSTANCES);
    let cfg = SolverConfig::default().with_epsilon(0.3);
    solve_line_unit(&p, &cfg).expect("the logical solver has no mask width");

    let dist = DistConfig::from(&cfg);
    let expected = DistError::TooManyInstances {
        demand: 1,
        instances,
    };
    assert_eq!(run_distributed_line_unit(&p, &dist).unwrap_err(), expected);
    assert_eq!(run_distributed_tree_unit(&p, &dist).unwrap_err(), expected);
    assert_eq!(
        run_distributed_line_arbitrary(&p, &dist).unwrap_err(),
        expected
    );
    assert_eq!(
        run_distributed_tree_arbitrary(&p, &dist).unwrap_err(),
        expected
    );
    assert_eq!(run_distributed_auto(&p, &dist).unwrap_err(), expected);
    assert!(expected.to_string().contains("over the 64"));
}

#[test]
fn exactly_the_limit_runs_and_equals_the_logical_solver() {
    // Window starts 0..=deadline-1: `MAX_INSTANCES` instances.
    let p = problem(MAX_INSTANCES as u32);
    assert_eq!(p.instances_of(DemandId(1)).len(), MAX_INSTANCES);
    let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(7);
    let logical = solve_line_unit(&p, &cfg).unwrap();
    let distributed = run_distributed_line_unit(&p, &DistConfig::from(&cfg)).unwrap();
    assert_eq!(logical.solution, distributed.solution);
    assert_eq!(logical.lambda.to_bits(), distributed.lambda.to_bits());
}
