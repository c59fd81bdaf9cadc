//! `dist-pods`: the paper's distributed scheduler as message passing over
//! the simulated network, on pod-structured tree problems, once over
//! reliable links and once over Bernoulli-lossy links, at one thread.
//!
//! The logical solve of each problem is a small fraction of the
//! simulation, so the netsim engine and the dist nodes do nearly all the
//! work. The reliable run takes the engine's fused lossless path; the
//! lossy one goes through `netsim::reliable`, so a gain on one path that
//! costs the other shows.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::{solve_tree_unit, SolverConfig};
use treenet_dist::{run_distributed_tree_unit, DistConfig, DistOutcome};
use treenet_model::workload::TreeWorkload;
use treenet_model::Problem;
use treenet_netsim::{LossModel, Metrics as NetMetrics};

use crate::report::{Metrics, Outcome};
use crate::stats::mean;
use crate::trace::Tracer;
use crate::{peak_rss_mb, repeat_setup, secs, timing, Args, Tally};

/// Distinct problems; runs cycle through them.
const PROBLEMS: usize = 8;
/// Vertices per tree-network.
const VERTICES: usize = 24;
/// One network per pod.
const NETWORKS_PER_POD: usize = 1;
/// Demands per pod.
const DEMANDS_PER_POD: usize = 40;
/// Demands per problem.
const DEMANDS: usize = 800;
/// Per-transmission drop probability of the lossy links.
const LOSS: f64 = 0.05;
/// Slackness target ε.
const EPSILON: f64 = 0.3;
/// Tail percentile sought: the highest that a run's few dozen
/// simulations support.
const TAIL: f64 = 0.75;
/// Set-ups per run; the median is reported. Set-up is short here, so it
/// is repeated more often than in the other workloads.
const SETUP_REPS: usize = 9;

/// Traffic classes of `DistMsg`, in class-index order.
const CLASSES: [&str; 6] = ["setup", "wide", "narrow", "echo", "combine", "bfs"];

fn generate(seed: u64) -> Vec<Problem> {
    (0..PROBLEMS as u64)
        .map(|k| {
            TreeWorkload::new(VERTICES, DEMANDS)
                .with_networks(NETWORKS_PER_POD)
                .with_pods(DEMANDS / DEMANDS_PER_POD)
                .with_profit_ratio(8.0)
                .generate(&mut SmallRng::seed_from_u64(
                    seed.wrapping_mul(1_000_003).wrapping_add(k),
                ))
        })
        .collect()
}

/// The first reliable and lossy outcome of each problem.
#[derive(Default)]
struct Seen {
    lossless: Option<DistOutcome>,
    lossy: Option<NetMetrics>,
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let config = SolverConfig::default().with_epsilon(EPSILON);
    // Set-up: the problems, and the logical solve of each — the oracle
    // every distributed run must equal, and the compute floor under the
    // simulation.
    let ((problems, logical, logical_ms), setup_s) = repeat_setup(SETUP_REPS, || {
        let problems = generate(args.seed);
        let t = Instant::now();
        let logical: Vec<_> = problems
            .iter()
            .map(|p| solve_tree_unit(p, &config))
            .collect();
        let logical_ms = secs(t) * 1e3 / PROBLEMS as f64;
        (problems, logical, logical_ms)
    });
    let reliable = DistConfig::from(&config);
    let lossy: Vec<DistConfig> = (0..PROBLEMS as u64)
        .map(|k| DistConfig {
            loss: Some(LossModel::bernoulli(LOSS, args.seed ^ (k << 32))),
            ..DistConfig::from(&config)
        })
        .collect();
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(args.trace);

    let mut seen: Vec<Seen> = (0..PROBLEMS).map(|_| Seen::default()).collect();
    let (mut lossless_ms, mut lossy_ms) = (Vec::new(), Vec::new());
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut pair = 0usize;
    // Messages sent by all reliable runs; transmissions by all lossy ones.
    let mut traffic = (0u64, 0u64);
    while secs(start) < args.seconds {
        // With tracing on, each problem's pairs alternate untraced and
        // traced, so the overhead share compares like with like.
        let i = if args.trace { pair / 2 } else { pair } % PROBLEMS;
        let traced = args.trace && pair % 2 == 1;
        let mut pair_ms = 0.0;
        for (lossless, cfg, name) in [
            (true, &reliable, "dist.sim"),
            (false, &lossy[i], "dist.sim_lossy"),
        ] {
            let t = Instant::now();
            let out = if traced {
                tracer.span(name, pair as u64, |_| {
                    run_distributed_tree_unit(&problems[i], cfg)
                })
            } else {
                run_distributed_tree_unit(&problems[i], cfg)
            };
            let ms = secs(t) * 1e3;
            pair_ms += ms;
            if lossless {
                &mut lossless_ms
            } else {
                &mut lossy_ms
            }
            .push(ms);
            let Ok(out) = out else {
                tally.check(false, "distributed run succeeds");
                continue;
            };
            let net = &out.metrics;
            if lossless {
                traffic.0 += net.messages;
            } else {
                traffic.1 += net.messages + net.retransmits + net.acks;
            }
            check_run(&mut tally, &logical[i], &mut seen[i], lossless, out);
        }
        if args.trace {
            if traced {
                &mut traced_ms
            } else {
                &mut untraced_ms
            }
            .push(pair_ms);
        }
        pair += 1;
    }
    for s in &seen {
        if let Some(o) = &s.lossless {
            tally.digest.add(o.lambda.to_bits());
            tally.digest.add(o.metrics.messages);
            tally.digest.add(o.metrics.rounds);
            for d in o.solution.selected() {
                tally.digest.add(u64::from(d.0));
            }
        }
    }

    let mut m = Metrics::default();
    let runs = lossless_ms.len() + lossy_ms.len();
    let busy_s = (lossless_ms.iter().sum::<f64>() + lossy_ms.iter().sum::<f64>()) / 1e3;
    let sim_s = lossless_ms.iter().sum::<f64>() / 1e3;
    let sim_lossy_s = lossy_ms.iter().sum::<f64>() / 1e3;
    let p50 = timing("reliable-link run", &mut lossless_ms, TAIL);
    let alt_p50 = timing("lossy-link run", &mut lossy_ms, TAIL);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("ok_share", tally.ok_share());
    m.set("p50_ms", p50);
    m.set("ops_per_s", runs as f64 / busy_s);
    m.set("alt_p50_ms", alt_p50);
    if args.trace {
        layer_metrics(&mut m, &seen);
        m.set("netsim.us_per_msg", sim_s * 1e6 / traffic.0.max(1) as f64);
        m.set(
            "netsim.us_per_tx_lossy",
            sim_lossy_s * 1e6 / traffic.1.max(1) as f64,
        );
        m.set("dist.logical_ms", logical_ms);
        m.set(
            "trace.overhead_share",
            mean(&traced_ms) / mean(&untraced_ms) - 1.0,
        );
        tracer.save("dist-pods", args.seed);
    }
    tally.finish(m)
}

/// Checks one run against the logical oracle and against the problem's
/// earlier runs, outside the timed call.
fn check_run(
    tally: &mut Tally,
    logical: &Result<treenet_core::Outcome, treenet_core::FrameworkError>,
    seen: &mut Seen,
    lossless: bool,
    out: DistOutcome,
) {
    let equal = logical.as_ref().is_ok_and(|l| {
        l.lambda.to_bits() == out.lambda.to_bits()
            && l.solution.selected() == out.solution.selected()
    });
    tally.check(equal, "distributed λ and solution equal solve_tree_unit's");
    if lossless {
        if let Some(first) = &seen.lossless {
            tally.check(first.metrics == out.metrics, "reliable runs repeat exactly");
        }
        seen.lossless.get_or_insert(out);
    } else {
        if let Some(first) = &seen.lossless {
            tally.check(
                first.metrics.messages == out.metrics.messages,
                "lossy links carry the same logical messages",
            );
        }
        if let Some(first) = &seen.lossy {
            tally.check(*first == out.metrics, "lossy runs repeat exactly");
        }
        seen.lossy.get_or_insert(out.metrics);
    }
}

/// Exact counts, averaged per problem over the problems run.
fn layer_metrics(m: &mut Metrics, seen: &[Seen]) {
    let reliable: Vec<&DistOutcome> = seen.iter().filter_map(|s| s.lossless.as_ref()).collect();
    let lossy: Vec<&NetMetrics> = seen.iter().filter_map(|s| s.lossy.as_ref()).collect();
    let per = |v: Vec<u64>| mean(&v.into_iter().map(|x| x as f64).collect::<Vec<_>>());
    m.set(
        "netsim.rounds",
        per(reliable.iter().map(|o| o.metrics.rounds).collect()),
    );
    m.set(
        "netsim.messages",
        per(reliable.iter().map(|o| o.metrics.messages).collect()),
    );
    let overhead: u64 = lossy.iter().map(|l| l.retransmits + l.acks).sum();
    let lossy_messages: u64 = lossy.iter().map(|l| l.messages).sum();
    m.set(
        "netsim.msg_overhead",
        overhead as f64 / lossy_messages.max(1) as f64,
    );
    m.set(
        "netsim.retransmits",
        per(lossy.iter().map(|l| l.retransmits).collect()),
    );
    m.set("netsim.acks", per(lossy.iter().map(|l| l.acks).collect()));
    m.set(
        "netsim.dropped",
        per(lossy.iter().map(|l| l.dropped).collect()),
    );
    m.set(
        "netsim.dup_suppressed",
        per(lossy.iter().map(|l| l.dup_suppressed).collect()),
    );
    m.set(
        "netsim.retransmit_rounds",
        per(lossy.iter().map(|l| l.retransmit_rounds).collect()),
    );
    for (c, class) in CLASSES.iter().enumerate() {
        let msgs = per(reliable
            .iter()
            .map(|o| o.metrics.by_class[c].messages)
            .collect());
        let rtx = per(lossy.iter().map(|l| l.by_class[c].retransmits).collect());
        m.set(&format!("netsim.class.{class}.messages"), msgs);
        m.set(&format!("netsim.class.{class}.retransmits"), rtx);
    }
    m.set(
        "dist.steps",
        per(reliable
            .iter()
            .map(|o| o.schedule.num_steps() as u64)
            .collect()),
    );
    m.set(
        "dist.pops",
        per(reliable.iter().map(|o| o.schedule.pops).collect()),
    );
    m.set(
        "dist.sweeps",
        per(reliable.iter().map(|o| o.schedule.sweeps).collect()),
    );
    m.set(
        "dist.control_stalls",
        per(reliable.iter().map(|o| o.schedule.control_stalls).collect()),
    );
}
