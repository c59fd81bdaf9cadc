//! `serve-churn`: the online service under a pod-local submit/withdraw
//! stream. Each request is one mutation line plus one `resolve` line
//! through the wire protocol. A closed loop (one client) is followed by
//! an open loop at a fixed offered rate.
//!
//! Each resolve touches one pod of about 50 instances out of about
//! 5×10⁴ live ones, so any cost that scales with the whole problem shows
//! up here and nowhere else.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::Value;
use treenet_core::SolverConfig;
use treenet_model::workload::TreeWorkload;
use treenet_serve::{OpenLoop, Request, Server};

use crate::open_loop::{self, WallClock};
use crate::report::{Metrics, Outcome};
use crate::stats::mean;
use crate::trace::Tracer;
use crate::{peak_rss_mb, repeat_setup, secs, timing, Args, Tally};

/// Vertices per tree-network.
const VERTICES: usize = 24;
/// Tree-networks per pod; demands never leave their pod.
const NETWORKS_PER_POD: usize = 2;
/// Bootstrap demands per pod.
const DEMANDS_PER_POD: usize = 40;
/// Queued demands at bootstrap.
const DEMANDS: usize = 40_000;
/// Slackness target ε.
const EPSILON: f64 = 0.3;
/// Share of stream requests that withdraw a live demand, in percent.
const WITHDRAW_PERCENT: u32 = 30;
/// Offered rate of the open loop, requests per second: about half the
/// closed-loop capacity measured at calibration.
pub const OPEN_RATE: f64 = 160.0;
/// Latency limit of the open loop's tail, ms.
pub const LATENCY_LIMIT_MS: f64 = 25.0;
/// Tail percentile sought for both loops.
const TAIL: f64 = 0.99;
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 3;

const RESOLVE: &str = r#"{"op":"resolve"}"#;
const OK: &str = r#""ok":true"#;

struct Setup {
    server: Server,
    vertices: u32,
    networks: u32,
    generate_s: f64,
    engine_s: f64,
    bootstrap_s: f64,
    bootstrap_ok: bool,
}

fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let problem = TreeWorkload::new(VERTICES, DEMANDS)
        .with_networks(NETWORKS_PER_POD)
        .with_pods(DEMANDS / DEMANDS_PER_POD)
        .with_profit_ratio(8.0)
        .generate(&mut SmallRng::seed_from_u64(seed));
    let generate_s = secs(t);
    let vertices = problem.vertex_count() as u32;
    let networks = problem.network_count() as u32;
    let t = Instant::now();
    let mut server = Server::new(problem, &SolverConfig::default().with_epsilon(EPSILON))
        .expect("a generated workload is admissible");
    let engine_s = secs(t);
    let t = Instant::now();
    let bootstrap_ok = server.apply(&Request::Resolve)["ok"] == true;
    Setup {
        server,
        vertices,
        networks,
        generate_s,
        engine_s,
        bootstrap_s: secs(t),
        bootstrap_ok,
    }
}

/// Counts a resolve response reports.
struct ResolveCounts {
    instances: f64,
    components: f64,
    live: f64,
}

fn count(v: &Value, key: &str) -> f64 {
    match v[key] {
        Value::Num(n) => n,
        _ => 0.0,
    }
}

/// One request through `handle_line`, as a client sees it.
fn request(server: &mut Server, line: &str) -> (f64, bool) {
    let t = Instant::now();
    let a = server.handle_line(line);
    let b = server.handle_line(RESOLVE);
    let dt = secs(t);
    (dt, a.contains(OK) && b.contains(OK))
}

/// The same request split at each layer boundary: `Request::parse`,
/// `Server::apply`, and the response encoding that `handle_line` does.
/// After it, the read-only engine accessors that `resolve` calls
/// internally are timed again on their own, so the resolve span can be
/// split into component solves, assembly and live-instance listing.
fn traced_request(
    tr: &mut Tracer,
    server: &mut Server,
    id: u64,
    line: &str,
    counts: &mut Vec<ResolveCounts>,
) -> (f64, bool) {
    let t = Instant::now();
    let ok = tr.span("serve.request", id, |tr| {
        let mut ok = true;
        for (text, layer) in [(line, "serve.mutate"), (RESOLVE, "serve.resolve")] {
            let Ok(parsed) = tr.span("serve.parse", id, |_| Request::parse(text)) else {
                ok = false;
                continue;
            };
            let response = tr.span(layer, id, |_| server.apply(&parsed));
            let encoded = tr.span("serve.encode", id, |_| serde_json::to_string(&response));
            ok &= response["ok"] == true && black_box(encoded).is_ok();
            if layer == "serve.resolve" {
                counts.push(ResolveCounts {
                    instances: count(&response, "instances_resolved"),
                    components: count(&response, "components_resolved"),
                    live: count(&response, "live_instances"),
                });
            }
        }
        ok
    });
    let dt = secs(t);
    let engine = server.engine();
    tr.span("core.delta.assemble", id, |_| {
        black_box((engine.solution(), engine.lambda()));
    });
    tr.span("model.live_instances", id, |_| {
        black_box(engine.problem().live_instances());
    });
    (dt, ok)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let (mut s, setup_s) = repeat_setup(SETUP_REPS, || setup(args.seed));
    let mut tally = Tally::default();
    tally.check(s.bootstrap_ok, "bootstrap resolve answered ok");
    // The digest covers the bootstrap schedule, which depends on the
    // seed alone; later state depends on how many requests a run made.
    let engine = s.server.engine();
    tally.digest.add(engine.lambda().to_bits());
    for d in engine.solution().selected() {
        tally.digest.add(u64::from(d.0));
    }
    let mut stream = OpenLoop::new(args.seed, s.vertices, s.networks)
        .with_id_floor(DEMANDS as u64)
        .with_depart_percent(WITHDRAW_PERCENT)
        .with_pod_local(true);
    let mut tracer = Tracer::new(args.trace);

    // Closed loop: one client, next request once the last is answered.
    // With tracing on, every other request is traced and the rest give
    // the untraced baseline for the overhead share.
    let phase = args.seconds / 2.0;
    let mut closed_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut counts = Vec::new();
    let start = Instant::now();
    let mut id = 0u64;
    while secs(start) < phase {
        let line = stream.next_request().to_json();
        let traced = args.trace && id % 2 == 1;
        let (dt, ok) = if traced {
            traced_request(&mut tracer, &mut s.server, id, &line, &mut counts)
        } else {
            request(&mut s.server, &line)
        };
        if traced {
            &mut traced_ms
        } else {
            &mut closed_ms
        }
        .push(dt * 1e3);
        tally.op(ok);
        id += 1;
    }
    let closed_busy_s: f64 = closed_ms.iter().chain(&traced_ms).sum::<f64>() / 1e3;
    let closed_ops = closed_ms.len() + traced_ms.len();

    // Open loop: requests fall due at a fixed rate whatever the server
    // is doing, and are timed from when they fell due.
    let planned = (OPEN_RATE * phase) as usize;
    let lines: Vec<String> = (0..planned)
        .map(|_| stream.next_request().to_json())
        .collect();
    let open = open_loop::drive(&WallClock::start(), OPEN_RATE, phase, phase / 2.0, |i| {
        request(&mut s.server, &lines[i]).1
    });
    tally.ops(open.offered(), open.failed + open.unserved);

    // Correctness, outside the measured phases: the warm state must be
    // bit-identical to the from-scratch oracle.
    let check = s.server.apply(&Request::Check);
    tally.check(check["ok"] == true, "check answered ok");
    tally.check(
        check["identical"] == true,
        "warm state identical to reference_solve",
    );

    let mut m = Metrics::default();
    let p50 = timing("closed-loop request", &mut closed_ms, TAIL);
    let mut open_ms: Vec<f64> = open.latency.iter().map(|l| l * 1e3).collect();
    let open_p50 = timing("open-loop request (from due time)", &mut open_ms, TAIL);
    println!(
        "open loop: {OPEN_RATE} req/s offered, {} due, {} unserved, {} failed, {:.4} over the {LATENCY_LIMIT_MS} ms limit",
        open.offered(),
        open.unserved,
        open.failed,
        open.miss_share(LATENCY_LIMIT_MS / 1e3)
    );
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("ok_share", tally.ok_share());
    m.set("p50_ms", p50);
    m.set("ops_per_s", closed_ops as f64 / closed_busy_s);
    m.set("alt_p50_ms", open_p50);

    if args.trace {
        layer_metrics(&mut m, &tracer, &counts, &closed_ms, &traced_ms);
        m.set("serve.setup.generate_s", s.generate_s);
        m.set("serve.setup.engine_s", s.engine_s);
        m.set("serve.setup.bootstrap_s", s.bootstrap_s);
        let t = Instant::now();
        let cold = s.server.engine().reference_solve();
        m.set("core.delta.cold_ms", secs(t) * 1e3);
        tally.check(cold.is_ok(), "reference_solve runs");
        m.set("serve.open.queue_ms", mean(&open.queue) * 1e3);
        m.set("serve.open.gen_late_ms", mean(&open.gen_late) * 1e3);
        m.set(
            "serve.open.miss_share",
            open.miss_share(LATENCY_LIMIT_MS / 1e3),
        );
        tracer.save("serve-churn", args.seed);
    }
    tally.finish(m)
}

/// Per-request means of each layer's self time over the traced requests;
/// they add up to the mean traced request, with `serve.unattributed_us`
/// the part no layer span covers.
fn layer_metrics(
    m: &mut Metrics,
    tracer: &Tracer,
    counts: &[ResolveCounts],
    untraced_ms: &[f64],
    traced_ms: &[f64],
) {
    let totals = tracer.totals();
    let n = totals.get("serve.request").map_or(0, |t| t.count).max(1) as f64;
    let per_request_us = |name: &str, own: bool| {
        totals
            .get(name)
            .map_or(0.0, |t| if own { t.self_ns } else { t.total_ns } as f64)
            / n
            / 1e3
    };
    let request = per_request_us("serve.request", false);
    let parse = per_request_us("serve.parse", true);
    let mutate = per_request_us("serve.mutate", true);
    let resolve = per_request_us("serve.resolve", true);
    let encode = per_request_us("serve.encode", true);
    let unattributed = per_request_us("serve.request", true);
    let assemble = per_request_us("core.delta.assemble", false);
    let live = per_request_us("model.live_instances", false);
    m.set("serve.request_us", request);
    m.set("serve.parse_us", parse);
    m.set("serve.mutate_us", mutate);
    m.set("serve.resolve_us", resolve);
    m.set("serve.encode_us", encode);
    m.set("serve.unattributed_us", unattributed);
    m.set("core.delta.assemble_us", assemble);
    m.set("model.live_instances_us", live);
    m.set("core.delta.component_us", resolve - assemble - live);
    println!(
        "traced request {request:.1} us = parse {parse:.1} + mutate {mutate:.1} + resolve {resolve:.1} \
         (component {:.1} + assemble {assemble:.1} + live_instances {live:.1}) + encode {encode:.1} \
         + unattributed {unattributed:.1}",
        resolve - assemble - live
    );
    let instances: Vec<f64> = counts.iter().map(|c| c.instances).collect();
    let components: Vec<f64> = counts.iter().map(|c| c.components).collect();
    let touched: Vec<f64> = counts
        .iter()
        .map(|c| c.instances / c.live.max(1.0))
        .collect();
    m.set("core.delta.instances_per_resolve", mean(&instances));
    m.set("core.delta.components_per_resolve", mean(&components));
    m.set("core.delta.touched_share", mean(&touched));
    m.set(
        "trace.overhead_share",
        mean(traced_ms) / mean(untraced_ms) - 1.0,
    );
}
