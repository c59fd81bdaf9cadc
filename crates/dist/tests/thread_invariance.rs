//! Thread-count invariance of the distributed runners on pod-structured
//! problems, whose communication graphs split into many connected
//! components — so `DistConfig::threads > 1` really shards the engine.
//! Lossless links take the sharded step's fused in-shard delivery; lossy
//! links take its serial delivery pass. Both must reproduce the
//! 1-thread run exactly: metrics, `to_bits()`-exact λ and the solution.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_dist::{run_distributed_line_unit, run_distributed_tree_unit, DistConfig};
use treenet_model::workload::{LineWorkload, TreeWorkload};
use treenet_model::Problem;
use treenet_netsim::LossModel;

fn config(threads: usize, loss: Option<LossModel>) -> DistConfig {
    DistConfig {
        epsilon: 0.3,
        seed: 0x7ee5,
        loss,
        threads,
        ..DistConfig::default()
    }
}

fn loss_models() -> [Option<LossModel>; 2] {
    [None, Some(LossModel::bernoulli(0.05, 0x10ff))]
}

fn tree_pods() -> Problem {
    TreeWorkload::new(12, 160)
        .with_networks(1)
        .with_pods(8)
        .with_profit_ratio(4.0)
        .generate(&mut SmallRng::seed_from_u64(11))
}

fn line_pods() -> Problem {
    LineWorkload::new(16, 160)
        .with_resources(1)
        .with_pods(8)
        .with_window_slack(0)
        .with_len_range(1, 6)
        .generate(&mut SmallRng::seed_from_u64(12))
}

#[test]
fn tree_pods_are_thread_invariant() {
    let problem = tree_pods();
    for loss in loss_models() {
        let serial = run_distributed_tree_unit(&problem, &config(1, loss.clone())).unwrap();
        for threads in [2, 4] {
            let sharded =
                run_distributed_tree_unit(&problem, &config(threads, loss.clone())).unwrap();
            assert_eq!(serial.metrics, sharded.metrics, "{threads} threads");
            assert_eq!(serial.lambda.to_bits(), sharded.lambda.to_bits());
            assert_eq!(serial.solution, sharded.solution);
        }
    }
}

#[test]
fn line_pods_are_thread_invariant() {
    let problem = line_pods();
    for loss in loss_models() {
        let serial = run_distributed_line_unit(&problem, &config(1, loss.clone())).unwrap();
        for threads in [2, 4] {
            let sharded =
                run_distributed_line_unit(&problem, &config(threads, loss.clone())).unwrap();
            assert_eq!(serial.metrics, sharded.metrics, "{threads} threads");
            assert_eq!(serial.lambda.to_bits(), sharded.lambda.to_bits());
            assert_eq!(serial.solution, sharded.solution);
        }
    }
}
