//! `solve-flat`: cold `solve_auto` calls on large flat problems (no pods)
//! with bimodal heights, tree and line problems alternating, back to back
//! on one thread.
//!
//! Every problem is one huge conflict component, so the phase-1 kernels
//! (conflict build, MIS, dual refresh, phase 2) do almost all the work.
//! This is the opposite use of `run_two_phase` from `serve-churn`, and
//! the only workload with line networks and the narrow rule.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::{
    combine_by_network, mis_tag, narrow_xi, resolve_narrow_hmin, run_two_phase,
    run_two_phase_reference, solve_auto, unit_xi, AutoOutcome, FrameworkConfig, FrameworkError,
    Outcome, RaiseRule, SolverConfig,
};
use treenet_decomp::LayeredDecomposition;
use treenet_mis::{luby_mis_with, CsrAdjacency, MisScratch};
use treenet_model::conflict::ConflictGraph;
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::{HeightClass, InstanceId, Problem, Solution};

use crate::report::{Metrics, Outcome as RunOutcome};
use crate::stats::mean;
use crate::trace::Tracer;
use crate::{peak_rss_mb, repeat_setup, secs, timing, Args, Tally};

/// Distinct problems per family; the batch cycles through them.
const PROBLEMS_PER_FAMILY: usize = 4;
/// Tree problems: vertices per network, networks, demands.
const TREE: (usize, usize, usize) = (1000, 3, 20_000);
/// Line problems: slots, resources, demands.
const LINE: (usize, usize, usize) = (1000, 2, 10_000);
/// Height floor and narrow share of the bimodal heights.
const HEIGHTS: HeightMode = HeightMode::Bimodal {
    narrow_frac: 0.5,
    hmin: 0.25,
};
/// Slackness target ε.
const EPSILON: f64 = 0.3;
/// Tail percentile sought.
const TAIL: f64 = 0.9;
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 3;

struct Flat {
    problem: Problem,
    tree: bool,
}

fn generate(seed: u64) -> Vec<Flat> {
    (0..PROBLEMS_PER_FAMILY as u64)
        .flat_map(|k| {
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(k));
            let tree = TreeWorkload::new(TREE.0, TREE.2)
                .with_networks(TREE.1)
                .with_profit_ratio(8.0)
                .with_heights(HEIGHTS)
                .generate(&mut rng);
            let line = LineWorkload::new(LINE.0, LINE.2)
                .with_resources(LINE.1)
                .with_window_slack(4)
                .with_len_range(2, 40)
                .with_profit_ratio(8.0)
                .with_heights(HEIGHTS)
                .generate(&mut rng);
            [
                Flat {
                    problem: tree,
                    tree: true,
                },
                Flat {
                    problem: line,
                    tree: false,
                },
            ]
        })
        .collect()
}

fn framework_config(config: &SolverConfig, xi: f64) -> FrameworkConfig {
    FrameworkConfig {
        epsilon: config.epsilon,
        xi,
        seed: config.seed,
        max_steps_per_stage: Some(1_000_000),
        record_trace: config.record_trace,
        mis_backend: config.mis_backend,
    }
}

fn split_by_height(problem: &Problem) -> (Vec<InstanceId>, Vec<InstanceId>) {
    problem.instances().map(|inst| inst.id).partition(|&d| {
        problem.demand(problem.instance(d).demand).height_class() == HeightClass::Wide
    })
}

type TwoPhase = fn(
    &Problem,
    &LayeredDecomposition,
    RaiseRule,
    &FrameworkConfig,
    &[InstanceId],
) -> Result<Outcome, FrameworkError>;

/// What `solve_auto` does for a mixed-height problem, one public call at
/// a time: layering, a wide unit-rule run, a narrow narrow-rule run,
/// then the per-network combination. `two_phase` is `run_two_phase`, or
/// `run_two_phase_reference` for the oracle.
struct Composed {
    lambda: f64,
    solution: Solution,
    wide: Outcome,
    narrow: Outcome,
    wide_ids: Vec<InstanceId>,
    narrow_ids: Vec<InstanceId>,
    layers: LayeredDecomposition,
}

fn composed(
    tr: &mut Tracer,
    id: u64,
    flat: &Flat,
    config: &SolverConfig,
    two_phase: TwoPhase,
) -> Result<Composed, FrameworkError> {
    let p = &flat.problem;
    let layers = tr.span("decomp.layering", id, |_| {
        if flat.tree {
            LayeredDecomposition::for_trees(p, config.strategy)
        } else {
            LayeredDecomposition::for_lines(p)
        }
    });
    let (wide_ids, narrow_ids) = split_by_height(p);
    let wide_cfg = framework_config(config, unit_xi(layers.delta()));
    let wide = tr.span("core.framework.wide", id, |_| {
        two_phase(p, &layers, RaiseRule::Unit, &wide_cfg, &wide_ids)
    })?;
    let hmin = resolve_narrow_hmin(p, &narrow_ids, config.hmin)
        .map_err(|reason| FrameworkError::BadParameters { reason })?;
    let narrow_cfg = framework_config(config, narrow_xi(layers.delta(), hmin));
    let narrow = tr.span("core.framework.narrow", id, |_| {
        two_phase(p, &layers, RaiseRule::Narrow, &narrow_cfg, &narrow_ids)
    })?;
    let solution = tr.span("core.solvers.combine", id, |_| {
        combine_by_network(p, &wide.solution, &narrow.solution)
    });
    Ok(Composed {
        lambda: wide.lambda.min(narrow.lambda),
        solution,
        wide,
        narrow,
        wide_ids,
        narrow_ids,
        layers,
    })
}

fn same(a_lambda: f64, a: &Solution, b_lambda: f64, b: &Solution) -> bool {
    a_lambda.to_bits() == b_lambda.to_bits() && a.selected() == b.selected()
}

/// Exact work counts of one composed solve, plus those of the extra
/// conflict-graph and MIS calls repeated for the traced run.
#[derive(Default, Clone, Copy)]
struct Work {
    steps: f64,
    epochs: f64,
    mis_rounds: f64,
    raises: f64,
    conflict_edges: f64,
    luby_rounds: f64,
}

/// Repeats, on each height class, the first conflict-graph build and the
/// first MIS of `run_two_phase`: its first epoch starts with every member
/// of the first non-empty layer group unsatisfied, so that graph and
/// that MIS are exactly the run's own. The MIS is checked against the
/// run's first raised set.
fn extra_calls(
    tr: &mut Tracer,
    tally: &mut Tally,
    id: u64,
    flat: &Flat,
    c: &Composed,
    config: &SolverConfig,
) -> Work {
    let p = &flat.problem;
    let mut work = Work {
        steps: (c.wide.stats.steps + c.narrow.stats.steps) as f64,
        epochs: (c.wide.stats.epochs + c.narrow.stats.epochs) as f64,
        mis_rounds: (c.wide.stats.mis_rounds + c.narrow.stats.mis_rounds) as f64,
        raises: (c.wide.stats.raises + c.narrow.stats.raises) as f64,
        ..Work::default()
    };
    let mut scratch = MisScratch::default();
    let mut mis = Vec::new();
    for (class, outcome) in [(&c.wide_ids, &c.wide), (&c.narrow_ids, &c.narrow)] {
        let Some(epoch) = class.iter().map(|&d| c.layers.group_of(d)).min() else {
            continue;
        };
        let members: Vec<InstanceId> = class
            .iter()
            .copied()
            .filter(|&d| c.layers.group_of(d) == epoch)
            .collect();
        let graph = tr.span("model.conflict_build", id, |_| {
            ConflictGraph::build(p, &members)
        });
        work.conflict_edges += graph.edge_count() as f64;
        let keys: Vec<u64> = members
            .iter()
            .map(|&d| p.instance(d).canonical_key())
            .collect();
        let adj = CsrAdjacency::new(graph.offsets(), graph.adjacency());
        let tag = mis_tag(epoch, 1, 0);
        work.luby_rounds += tr.span("mis.luby", id, |_| {
            luby_mis_with(&adj, &keys, config.seed, tag, &mut scratch, &mut mis)
        }) as f64;
        let raised: Vec<InstanceId> = mis.iter().map(|&v| members[v as usize]).collect();
        tally.check(
            outcome.stack.first().is_some_and(|s| s.instances == raised),
            "the repeated first MIS equals the run's first raised set",
        );
    }
    work
}

/// Runs the workload.
pub fn run(args: &Args) -> RunOutcome {
    let (batch, setup_s) = repeat_setup(SETUP_REPS, || generate(args.seed));
    let config = SolverConfig::default().with_epsilon(EPSILON);
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(args.trace);
    let mut first: Vec<Option<AutoOutcome>> = vec![None; batch.len()];
    let mut work: Vec<Option<Work>> = vec![None; batch.len()];
    let (mut tree_ms, mut line_ms) = (Vec::new(), Vec::new());
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());

    let start = Instant::now();
    let mut k = 0usize;
    while secs(start) < args.seconds {
        let i = k % batch.len();
        let flat = &batch[i];
        let t = Instant::now();
        let out = solve_auto(&flat.problem, &config);
        let dt = secs(t) * 1e3;
        // Checks run outside the timed call.
        let Ok(out) = out else {
            tally.check(false, "solve_auto succeeds");
            k += 1;
            continue;
        };
        tally.check(
            out.solution.verify(&flat.problem).is_ok(),
            "solution verifies",
        );
        if let Some(f) = &first[i] {
            tally.check(
                same(f.lambda, &f.solution, out.lambda, &out.solution),
                "repeat solve is bit-identical",
            );
        }
        // With tracing on, the same solve is repeated split at each layer
        // call, checked bit for bit against `solve_auto`, and followed by
        // the extra per-class calls; the traced time is the sample.
        let sample = if args.trace {
            untraced_ms.push(dt);
            let id = k as u64;
            let t = Instant::now();
            let c = tracer.span("solve", id, |tr| {
                composed(tr, id, flat, &config, run_two_phase)
            });
            let traced = secs(t) * 1e3;
            match c {
                Ok(c) => {
                    tally.check(
                        same(c.lambda, &c.solution, out.lambda, &out.solution),
                        "layer-by-layer solve equals solve_auto",
                    );
                    traced_ms.push(traced);
                    let w = extra_calls(&mut tracer, &mut tally, id, flat, &c, &config);
                    work[i].get_or_insert(w);
                    Some(traced)
                }
                Err(_) => {
                    tally.check(false, "layer-by-layer solve succeeds");
                    None
                }
            }
        } else {
            Some(dt)
        };
        if let Some(ms) = sample {
            if flat.tree {
                &mut tree_ms
            } else {
                &mut line_ms
            }
            .push(ms);
        }
        first[i].get_or_insert(out);
        k += 1;
    }

    // The incremental engine against the reference one: the first tree
    // and the first line problem, bit for bit.
    for i in 0..2.min(batch.len()) {
        let Some(f) = &first[i] else { continue };
        let reference = composed(
            &mut Tracer::new(false),
            0,
            &batch[i],
            &config,
            run_two_phase_reference,
        );
        tally.check(
            reference.is_ok_and(|r| same(r.lambda, &r.solution, f.lambda, &f.solution)),
            "solve_auto equals the run_two_phase_reference composition",
        );
    }
    for f in first.iter().flatten() {
        tally.digest.add(f.lambda.to_bits());
        for d in f.solution.selected() {
            tally.digest.add(u64::from(d.0));
        }
    }

    let mut m = Metrics::default();
    let solves = tree_ms.len() + line_ms.len();
    let busy_s = (tree_ms.iter().sum::<f64>() + line_ms.iter().sum::<f64>()) / 1e3;
    let tree_p50 = timing("tree solve", &mut tree_ms, TAIL);
    let line_p50 = timing("line solve", &mut line_ms, TAIL);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("ok_share", tally.ok_share());
    m.set("p50_ms", tree_p50);
    m.set("ops_per_s", solves as f64 / busy_s);
    m.set("alt_p50_ms", line_p50);

    if args.trace {
        let totals = tracer.totals();
        let per_solve_ms = |name: &str| {
            totals.get(name).map_or(0.0, |t| t.total_ns as f64) / solves.max(1) as f64 / 1e6
        };
        for (metric, span) in [
            ("decomp.layering_ms", "decomp.layering"),
            ("core.framework.wide_ms", "core.framework.wide"),
            ("core.framework.narrow_ms", "core.framework.narrow"),
            ("core.solvers.combine_ms", "core.solvers.combine"),
            ("model.conflict_build_ms", "model.conflict_build"),
            ("mis.luby_ms", "mis.luby"),
        ] {
            m.set(metric, per_solve_ms(span));
        }
        let solve = totals.get("solve").copied().unwrap_or_default();
        println!(
            "traced solve {:.3} ms = layers {:.3} ms + unattributed {:.3} ms",
            solve.total_ns as f64 / solves.max(1) as f64 / 1e6,
            (solve.total_ns - solve.self_ns) as f64 / solves.max(1) as f64 / 1e6,
            solve.self_ns as f64 / solves.max(1) as f64 / 1e6
        );
        let seen: Vec<Work> = work.iter().flatten().copied().collect();
        let avg = |f: fn(&Work) -> f64| mean(&seen.iter().map(f).collect::<Vec<_>>());
        m.set("core.framework.steps", avg(|w| w.steps));
        m.set("core.framework.epochs", avg(|w| w.epochs));
        m.set("core.framework.mis_rounds", avg(|w| w.mis_rounds));
        m.set("core.framework.raises", avg(|w| w.raises));
        m.set("model.conflict_edges", avg(|w| w.conflict_edges));
        m.set("mis.luby_rounds", avg(|w| w.luby_rounds));
        m.set("solve.tree_p50_ms", tree_p50);
        m.set("solve.line_p50_ms", line_p50);
        // Each traced solve is paired with an untraced one of the same
        // problem.
        m.set(
            "trace.overhead_share",
            traced_ms.iter().sum::<f64>() / untraced_ms.iter().sum::<f64>() - 1.0,
        );
        tracer.save("solve-flat", args.seed);
    }
    tally.finish(m)
}
