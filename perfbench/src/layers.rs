//! The traced run (`--trace 1`): per-layer metrics from spans the
//! benchmark records around each call it makes into a layer's public API.
//!
//! 1. **Socket pass, untraced then traced.** The workload's traffic runs
//!    for [`PHASE_S`] against the untraced server, then against a second
//!    server on the same backend with `NetServerConfig::trace` on. The
//!    traced pass yields the ring's stage stamps (decode, admission,
//!    queue wait, inference, write), the reactor's counters and the
//!    scheduler's batch counters; the two passes give the tracing
//!    overhead.
//! 2. **Layer ladder.** The same traffic replays at each in-process entry:
//!    `ServingEngine::predict_ite`, `BatchScheduler::submit`/`wait` and
//!    `ShardRouter::submit_scatter`. A layer's self time is its entry's
//!    median latency minus the median of the entry below it; the socket
//!    entry is the untraced socket pass.
//! 3. **Kernels** at the shapes the serve and learn paths use: GEMM, an
//!    MLP step on the tape, a Wasserstein step, herding, snapshot
//!    save/load and a warm swap. These give per-call cost only: how many
//!    calls `observe` makes is not visible from outside it.
//! 4. **Learn replay**: continual stages with a span around each
//!    `observe_and_swap` (all of `learn`'s domains; one stage elsewhere).
//!
//! Spans and the derived tables are written to
//! `perfbench/out/trace-<workload>-seed<n>.json` when the run ends.

use crate::fixture::{self, Backend, BULK_ROWS, BULK_SHARDS, EPOCHS};
use crate::netgen::{self, bitwise_eq, Check, Conn, ConnReport, Payload};
use crate::result::Metric;
use crate::schedule::{self, Arrival};
use crate::stats::{median, Summary};
use crate::trace::{self, Tracer};
use crate::workloads::{self, metric, Kind, Outcome, CONNS, LEARN_READ_RATE, SMALL_RATE};
use cerl_core::engine::CerlEngine;
use cerl_core::snapshot::SnapshotPayload;
use cerl_core::ServingEngine;
use cerl_math::Matrix;
use cerl_net::NetClient;
use cerl_obs::{Stage, TraceRing};
use cerl_serve::{BatchScheduler, ServeStats, ShardRouter};
use serde::Value;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Seconds per socket pass and per ladder entry.
pub const PHASE_S: f64 = 3.0;
/// Rows per engine call for `engine.us_per_row.small`: the mean batch
/// of `serve-small` at its nominal rate (about three 4-row requests).
pub const ENGINE_SMALL_ROWS: usize = 12;
/// Rows per engine call for `engine.us_per_row.bulk`: one shard's
/// sub-batch of a 2048-row request over 3 shards.
pub const ENGINE_BULK_ROWS: usize = BULK_ROWS.div_ceil(BULK_SHARDS);
/// Covariates per row.
const DIM: usize = 100;
/// Hidden width of the representation network's first layer.
const HIDDEN: usize = 64;
/// Training mini-batch rows.
const TRAIN_BATCH: usize = 64;
/// Representation width.
const REPR: usize = 32;
/// Units in a domain's train split.
const TRAIN_UNITS: usize = 480;

/// Everything measured on the socket path.
struct SocketPass {
    /// Untraced passes before and after the traced one.
    untraced: [ConnReport; 2],
    untraced_s: [f64; 2],
    traced: ConnReport,
    traced_s: f64,
    ring: Vec<cerl_obs::SpanSnapshot>,
    net: cerl_net::NetStatsSnapshot,
    sched: ServeStats,
}

/// Counter difference of two scheduler/router snapshots.
fn stats_delta(before: &ServeStats, after: &ServeStats) -> ServeStats {
    ServeStats {
        requests: after.requests - before.requests,
        rejected: after.rejected - before.rejected,
        rejected_client: after.rejected_client - before.rejected_client,
        batches: after.batches - before.batches,
        batched_requests: after.batched_requests - before.batched_requests,
        batched_rows: after.batched_rows - before.batched_rows,
        scatter_requests: after.scatter_requests - before.scatter_requests,
        scatter_subrequests: after.scatter_subrequests - before.scatter_subrequests,
        ..ServeStats::default()
    }
}

/// The workload's socket traffic for [`PHASE_S`] against `server`.
fn socket_traffic(
    kind: Kind,
    seed: u64,
    served: &workloads::Served,
    addr: std::net::SocketAddr,
    tracer: Option<&Tracer>,
) -> (ConnReport, f64) {
    match kind {
        Kind::Bulk => {
            let mut clients: Vec<NetClient> = (0..CONNS)
                .map(|_| NetClient::connect(addr).expect("loopback connect"))
                .collect();
            let orders = workloads::bulk_orders(seed, served.pool.len());
            let (rep, took) = netgen::closed_loop(
                &mut clients,
                &orders,
                &served.pool,
                &served.refs,
                PHASE_S,
                tracer,
            );
            (rep, took.as_secs_f64())
        }
        Kind::Small | Kind::Learn => {
            let conns_n = if kind == Kind::Small { CONNS } else { 1 };
            let mut conns: Vec<Conn> = (0..conns_n)
                .map(|_| Conn::connect(addr).expect("loopback connect"))
                .collect();
            let sched = traffic_schedules(kind, seed, served.pool.len());
            let (rep, took) = netgen::open_loop(
                &mut conns,
                &sched,
                &served.pool,
                &Check::Fixed(&served.refs),
                workloads::nominal_limits(),
                None,
                tracer,
            )
            .expect("socket pass I/O");
            (rep, took.as_secs_f64())
        }
    }
}

/// Open-loop schedules of the traced run (one per connection).
fn traffic_schedules(kind: Kind, seed: u64, pool: usize) -> Vec<Vec<Arrival>> {
    match kind {
        Kind::Learn => vec![schedule::poisson(
            seed,
            "trace-learn-reads",
            LEARN_READ_RATE,
            PHASE_S,
            pool,
        )],
        _ => workloads::schedules(seed, "trace-small", SMALL_RATE, PHASE_S, pool),
    }
}

/// Untraced, traced, untraced: the traced pass is compared with the
/// mean of the two around it, so drift during the run cancels.
fn socket_pass(kind: Kind, seed: u64, served: &workloads::Served, tracer: &Tracer) -> SocketPass {
    let addr = served.server.local_addr();
    let (u0, u0_s) = socket_traffic(kind, seed, served, addr, None);
    let ring = TraceRing::new(16_384, 1);
    let server = served.backend.bind(Some(Arc::clone(&ring)));
    let before = served.backend.stats();
    let (traced, traced_s) = socket_traffic(kind, seed, served, server.local_addr(), Some(tracer));
    let sched = stats_delta(&before, &served.backend.stats());
    let net = server.shutdown().expect("reactor joins cleanly");
    let (u1, u1_s) = socket_traffic(kind, seed, served, addr, None);
    SocketPass {
        untraced: [u0, u1],
        untraced_s: [u0_s, u1_s],
        traced,
        traced_s,
        ring: ring.dump(16_384),
        net,
        sched,
    }
}

/// Wakes the generator thread when a submitted request completes.
struct Unpark(std::thread::Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

type Pending = Pin<Box<dyn Future<Output = Result<Vec<f64>, String>> + Send>>;

/// One in-process layer entry.
#[derive(Clone, Copy)]
enum Entry<'a> {
    Engine(&'a ServingEngine),
    Scheduler(&'a BatchScheduler),
    Router(&'a ShardRouter),
}

impl Entry<'_> {
    fn label(self) -> (&'static str, &'static str) {
        match self {
            Entry::Engine(_) => ("cerl-core", "serving.predict_ite"),
            Entry::Scheduler(_) => ("cerl-serve", "scheduler.submit_wait"),
            Entry::Router(_) => ("cerl-serve", "router.submit_scatter"),
        }
    }

    /// Start a request; the engine answers inline.
    fn submit(self, p: &Payload) -> Result<Pending, String> {
        match self {
            Entry::Engine(e) => {
                let out = e.predict_ite(&p.x).map_err(|e| e.to_string());
                Ok(Box::pin(std::future::ready(out)))
            }
            Entry::Scheduler(s) => {
                let h = s.submit(p.x.clone()).map_err(|e| e.to_string())?;
                Ok(Box::pin(async move {
                    h.await.map(|(_, ite)| ite).map_err(|e| e.to_string())
                }))
            }
            Entry::Router(r) => {
                let h = r.submit_scatter(&p.tags, &p.x).map_err(|e| e.to_string())?;
                Ok(Box::pin(async move {
                    h.await.map(|resp| resp.ite).map_err(|e| e.to_string())
                }))
            }
        }
    }
}

/// Replay an open-loop schedule at `entry` on one thread: submit each
/// request when due, poll outstanding ones when woken, and time each from
/// its due instant. Returns latencies (ns) and failures.
fn entry_open_loop(
    entry: Entry<'_>,
    schedules: &[Vec<Arrival>],
    pool: &[Payload],
    refs: &[Vec<f64>],
    tracer: &Tracer,
) -> (Vec<u64>, u64) {
    let (layer, op) = entry.label();
    let mut merged: Vec<Arrival> = schedules.iter().flatten().copied().collect();
    merged.sort_unstable_by_key(|a| (a.at_ns, a.payload));
    let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut pending: Vec<(Pending, usize, Instant)> = Vec::new();
    let mut latencies = Vec::with_capacity(merged.len());
    let mut failed = 0u64;
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut next = 0;
    let deadline = t0 + Duration::from_secs_f64(PHASE_S + 10.0);
    while next < merged.len() || !pending.is_empty() {
        let now = Instant::now();
        while next < merged.len() && t0 + Duration::from_nanos(merged[next].at_ns) <= now {
            let a = merged[next];
            next += 1;
            match entry.submit(&pool[a.payload]) {
                Ok(f) => pending.push((f, a.payload, t0 + Duration::from_nanos(a.at_ns))),
                Err(_) => failed += 1,
            }
        }
        let mut i = 0;
        while i < pending.len() {
            if let Poll::Ready(out) = pending[i].0.as_mut().poll(&mut cx) {
                let (_, payload, due) = pending.swap_remove(i);
                let done = Instant::now();
                match out {
                    Ok(ite) if bitwise_eq(&ite, &refs[payload]) => {
                        latencies.push(done.saturating_duration_since(due).as_nanos() as u64);
                        tracer.record(layer, op, 0, tracer.offset(due), tracer.offset(done));
                    }
                    _ => failed += 1,
                }
            } else {
                i += 1;
            }
        }
        if Instant::now() > deadline {
            failed += pending.len() as u64;
            break;
        }
        let wake = if next < merged.len() {
            t0 + Duration::from_nanos(merged[next].at_ns)
        } else {
            Instant::now() + Duration::from_millis(1)
        };
        let now = Instant::now();
        if wake > now {
            std::thread::park_timeout(wake - now);
        }
    }
    (latencies, failed)
}

/// Closed loop at `entry`: [`CONNS`] threads, one request outstanding
/// each, for [`PHASE_S`].
fn entry_closed_loop(
    entry: Entry<'_>,
    orders: &[Vec<usize>],
    pool: &[Payload],
    refs: &[Vec<f64>],
    tracer: &Tracer,
) -> (Vec<u64>, u64) {
    let (layer, op) = entry.label();
    let end = Instant::now() + Duration::from_secs_f64(PHASE_S);
    let per_thread: Vec<(Vec<u64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = orders
            .iter()
            .map(|order| {
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    let mut failed = 0;
                    let mut k = 0;
                    while Instant::now() < end {
                        let idx = order[k % order.len()];
                        k += 1;
                        let start = Instant::now();
                        let out = match entry {
                            Entry::Engine(e) => {
                                e.predict_ite(&pool[idx].x).map_err(|e| e.to_string())
                            }
                            Entry::Scheduler(s) => s
                                .submit(pool[idx].x.clone())
                                .and_then(|h| h.wait())
                                .map(|(_, ite)| ite)
                                .map_err(|e| e.to_string()),
                            Entry::Router(r) => r
                                .submit_scatter(&pool[idx].tags, &pool[idx].x)
                                .and_then(|h| h.wait())
                                .map(|resp| resp.ite)
                                .map_err(|e| e.to_string()),
                        };
                        let done = Instant::now();
                        match out {
                            Ok(ite) if bitwise_eq(&ite, &refs[idx]) => {
                                lat.push((done - start).as_nanos() as u64);
                                tracer.record(
                                    layer,
                                    op,
                                    0,
                                    tracer.offset(start),
                                    tracer.offset(done),
                                );
                            }
                            _ => failed += 1,
                        }
                    }
                    (lat, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ladder thread panicked"))
            .collect()
    });
    let mut lat = Vec::new();
    let mut failed = 0;
    for (l, f) in per_thread {
        lat.extend(l);
        failed += f;
    }
    (lat, failed)
}

/// Median latency in ms of one ladder entry, plus its failures.
fn ladder_entry(
    kind: Kind,
    seed: u64,
    entry: Entry<'_>,
    served: &workloads::Served,
    tracer: &Tracer,
) -> (f64, u64, u64) {
    let (lat, failed) = match kind {
        Kind::Bulk => entry_closed_loop(
            entry,
            &workloads::bulk_orders(seed, served.pool.len()),
            &served.pool,
            &served.refs,
            tracer,
        ),
        _ => entry_open_loop(
            entry,
            &traffic_schedules(kind, seed, served.pool.len()),
            &served.pool,
            &served.refs,
            tracer,
        ),
    };
    let attempted = lat.len() as u64 + failed;
    (Summary::from_nanos(&lat).p50, attempted, failed)
}

/// Median per-call seconds of `f`, called at least 5 times and for at
/// least 0.3 s, each call inside a span.
fn time_calls<T>(
    tracer: &Tracer,
    layer: &'static str,
    op: &'static str,
    parent: u64,
    mut f: impl FnMut() -> T,
) -> f64 {
    let mut per_call = Vec::new();
    let start = Instant::now();
    while per_call.len() < 5 || start.elapsed() < Duration::from_millis(300) {
        let t = Instant::now();
        std::hint::black_box(f());
        let done = Instant::now();
        per_call.push((done - t).as_secs_f64());
        tracer.record(layer, op, parent, tracer.offset(t), tracer.offset(done));
        if per_call.len() >= 100_000 {
            break;
        }
    }
    median(&per_call)
}

/// Seeded uniform matrix.
fn matrix(rows: usize, cols: usize, seed: u64, label: &str) -> Matrix {
    let mut rng = schedule::SplitMix::new(seed, label);
    Matrix::from_fn(rows, cols, |_, _| rng.unit() - 0.5)
}

/// Kernel metrics, in report order, plus whether the snapshot round trip
/// predicted bit-identically.
fn kernels(engine: &CerlEngine, seed: u64, tracer: &Tracer) -> (Vec<Metric>, bool) {
    use cerl_nn::{Activation, Graph, Mlp, ParamStore};
    use rand::SeedableRng;
    let suite_start = Instant::now();
    let suite = tracer.reserve();
    let mut out = Vec::new();

    let gemm = |m: usize, label: &str, op: &'static str| {
        let a = matrix(m, DIM, seed, label);
        let b = matrix(DIM, HIDDEN, seed, "gemm-b");
        let secs = time_calls(tracer, "cerl-math", op, suite, || cerl_math::matmul(&a, &b));
        let flops = 2.0 * (m * DIM * HIDDEN) as f64;
        let bytes = 8.0 * (m * DIM + DIM * HIDDEN + m * HIDDEN) as f64;
        (flops / secs / 1e9, bytes)
    };
    let (serve_gflops, serve_bytes) = gemm(ENGINE_BULK_ROWS, "gemm-serve", "matmul.serve");
    let (train_gflops, train_bytes) = gemm(TRAIN_BATCH, "gemm-train", "matmul.train");
    out.push(metric("math.matmul_gflops.serve", serve_gflops, "GFLOP/s"));
    out.push(metric("math.matmul_gflops.train", train_gflops, "GFLOP/s"));
    out.push(metric("math.matmul_bytes.serve", serve_bytes, "bytes"));
    out.push(metric("math.matmul_bytes.train", train_bytes, "bytes"));

    let mut store = ParamStore::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mlp = Mlp::new(
        &mut store,
        &mut rng,
        &[DIM, HIDDEN, REPR],
        Activation::Elu(1.0),
        Activation::Identity,
        "repr",
    );
    let x = matrix(TRAIN_BATCH, DIM, seed, "nn-x");
    let step = time_calls(tracer, "cerl-nn", "graph.forward_backward", suite, || {
        let mut g = Graph::new();
        let input = g.input(x.clone());
        let h = mlp.forward(&mut g, &store, input);
        let sq = g.square(h);
        let loss = g.mean(sq);
        g.backward(loss)
    });
    out.push(metric("nn.step_us", step * 1e6, "us"));

    let sinkhorn = engine.config().sinkhorn();
    let treated = matrix(TRAIN_BATCH, REPR, seed, "ot-t");
    let control = matrix(TRAIN_BATCH, REPR, seed, "ot-c");
    let ot = time_calls(
        tracer,
        "cerl-ot",
        "wasserstein.forward_backward",
        suite,
        || {
            let mut g = Graph::new();
            let t = g.input_with_grad(treated.clone());
            let c = g.input_with_grad(control.clone());
            let w = cerl_ot::wasserstein(&mut g, t, c, sinkhorn);
            g.backward(w)
        },
    );
    out.push(metric("ot.wasserstein_step_us", ot * 1e6, "us"));

    let memory = engine.config().memory_size;
    let reprs = matrix(memory + TRAIN_UNITS, REPR, seed, "herding");
    let herd = time_calls(tracer, "cerl-core", "herding.select", suite, || {
        cerl_core::herding::herding_select(&reprs, memory / 2)
    });
    out.push(metric("herding.select_ms", herd * 1e3, "ms"));

    let bytes = engine
        .save_bytes_binary(SnapshotPayload::F64)
        .expect("trained engine saves");
    let save = time_calls(tracer, "cerl-core", "snapshot.save", suite, || {
        engine.save_bytes_binary(SnapshotPayload::F64)
    });
    let load = time_calls(tracer, "cerl-core", "snapshot.load", suite, || {
        CerlEngine::load_bytes(&bytes)
    });
    let restored = CerlEngine::load_bytes(&bytes).expect("own snapshot loads");
    let probe = matrix(64, DIM, seed, "snapshot-probe");
    let round_trip = bitwise_eq(
        &restored.predict_ite(&probe).expect("predict"),
        &engine.predict_ite(&probe).expect("predict"),
    );
    out.push(metric("snapshot.save_ms", save * 1e3, "ms"));
    out.push(metric("snapshot.load_ms", load * 1e3, "ms"));
    out.push(metric("snapshot.bytes", bytes.len() as f64, "bytes"));

    let spare = ServingEngine::new(engine.clone());
    let mut swaps = Vec::new();
    for _ in 0..20 {
        let successor = engine.clone();
        let t = Instant::now();
        spare
            .swap_engine_warm(successor)
            .expect("a trained successor passes the warm probe");
        let done = Instant::now();
        swaps.push((done - t).as_secs_f64());
        tracer.record(
            "cerl-core",
            "serving.swap_engine_warm",
            suite,
            tracer.offset(t),
            tracer.offset(done),
        );
    }
    out.push(metric("publish.swap_us", median(&swaps) * 1e6, "us"));

    let serving = ServingEngine::new(engine.clone());
    for (name, rows) in [
        ("engine.us_per_row.small", ENGINE_SMALL_ROWS),
        ("engine.us_per_row.bulk", ENGINE_BULK_ROWS),
    ] {
        let x = matrix(rows, DIM, seed, name);
        let secs = time_calls(tracer, "cerl-core", "serving.predict_ite", suite, || {
            serving.predict_ite(&x)
        });
        out.push(metric(name, secs * 1e6 / rows as f64, "us"));
    }
    tracer.record_reserved(
        suite,
        "perfbench",
        "kernel_suite",
        0,
        tracer.offset(suite_start),
        tracer.offset(Instant::now()),
    );
    (out, round_trip)
}

/// `q`-th percentile in µs of a stage-to-stage wait over the ring's spans.
fn stamp_us(ring: &[cerl_obs::SpanSnapshot], from: Stage, to: Stage, q: f64) -> f64 {
    let waits: Vec<f64> = ring
        .iter()
        .filter_map(|s| s.wait_nanos(from, to))
        .map(|n| n as f64 / 1e3)
        .collect();
    if waits.is_empty() {
        return f64::NAN;
    }
    crate::stats::percentile(&crate::stats::sorted(&waits), q)
}

/// The traced run of `kind`.
pub fn traced(kind: Kind, seed: u64) -> Outcome {
    let tracer = Tracer::new();
    let ups = workloads::set_up_repeated(kind, seed, 1);
    let served = &ups.served;
    let trained = &served.trained;
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // 1. Socket passes.
    let pass = socket_pass(kind, seed, served, &tracer);
    for rep in pass.untraced.iter().chain([&pass.traced]) {
        attempted += rep.attempted();
        failed += rep.failed();
    }
    let p50 = |r: &ConnReport| {
        Summary::from_nanos(&r.latency.iter().map(|l| l.1).collect::<Vec<_>>()).p50
    };
    let untraced_p50 = (p50(&pass.untraced[0]) + p50(&pass.untraced[1])) / 2.0;
    let traced_p50 = p50(&pass.traced);
    let overhead_pct = if kind == Kind::Bulk {
        let rate = |r: &ConnReport, s: f64| r.ok as f64 / s;
        let u = (rate(&pass.untraced[0], pass.untraced_s[0])
            + rate(&pass.untraced[1], pass.untraced_s[1]))
            / 2.0;
        (u - rate(&pass.traced, pass.traced_s)) / u * 100.0
    } else {
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0
    };
    let ring_monotone = pass.ring.iter().all(|s| s.is_monotone());

    // 2. Layer ladder over the same traffic.
    let stage0 = &trained.stage0;
    let engine_entry = ServingEngine::new(stage0.clone());
    let scheduler = match &served.backend {
        Backend::Scheduler(s) => Arc::clone(s),
        Backend::Router(_) => fixture::scheduler(&Arc::new(ServingEngine::new(stage0.clone()))),
    };
    let router = match &served.backend {
        Backend::Router(r) => Arc::clone(r),
        Backend::Scheduler(_) => fixture::fleet(stage0),
    };
    let (engine_p50, a, f) =
        ladder_entry(kind, seed, Entry::Engine(&engine_entry), served, &tracer);
    attempted += a;
    failed += f;
    let (sched_p50, a, f) = ladder_entry(kind, seed, Entry::Scheduler(&scheduler), served, &tracer);
    attempted += a;
    failed += f;
    let loads_before = router.shard_loads();
    let router_before = router.stats();
    let (router_p50, a, f) = ladder_entry(kind, seed, Entry::Router(&router), served, &tracer);
    attempted += a;
    failed += f;
    let router_delta = stats_delta(&router_before, &router.stats());
    let shard_rows: Vec<f64> = router
        .shard_loads()
        .iter()
        .zip(&loads_before)
        .map(|(after, before)| (after.rows - before.rows) as f64)
        .collect();
    let mean_rows = shard_rows.iter().sum::<f64>() / shard_rows.len() as f64;
    let skew = shard_rows.iter().copied().fold(0.0, f64::max) / mean_rows;
    let backend_p50 = if kind == Kind::Bulk {
        router_p50
    } else {
        sched_p50
    };

    // 3. Kernels, on the stage-0 engine.
    let (kernel_metrics, round_trip) = kernels(stage0, seed, &tracer);

    // 4. Learn replay.
    let (stage_times, epochs, memory_len, learn_ok) = match kind {
        Kind::Learn => {
            let ing = workloads::ingest(&ups, seed, Some(&tracer));
            let ok = workloads::ingest_consistent(&ing);
            (
                ing.publish_s,
                *ing.epochs.last().unwrap_or(&0),
                ing.memory_len,
                ok,
            )
        }
        _ => {
            let rep_seed = fixture::rep_seed(seed, 0);
            let gen = cerl_data::SyntheticGenerator::new(fixture::data_config(), rep_seed);
            let stream = cerl_data::DomainStream::synthetic(&gen, 2, 0, rep_seed);
            let d1 = stream.domain(1);
            let serving = ServingEngine::new(stage0.clone());
            let t = Instant::now();
            let (report, _) = serving
                .observe_and_swap(&d1.train, &d1.val)
                .expect("synthetic domains are well-formed");
            let took = t.elapsed();
            tracer.record(
                "cerl-core",
                "serving.observe_and_swap",
                0,
                tracer.offset(t),
                tracer.offset(t + took),
            );
            let epochs = report.train.epochs_run;
            (
                vec![took.as_secs_f64()],
                epochs,
                report.memory_len,
                epochs == EPOCHS,
            )
        }
    };
    attempted += stage_times.len() as u64;
    failed += u64::from(!learn_ok);
    let stage_s = median(&stage_times);

    let net_stats = &pass.net;
    let sched = &pass.sched;
    let per_batch = |n: u64| n as f64 / sched.batches.max(1) as f64;
    let mut metrics = vec![
        metric("net.self_ms_p50", untraced_p50 - backend_p50, "ms"),
        metric(
            "net.decode_us_p50",
            stamp_us(&pass.ring, Stage::Accepted, Stage::Decoded, 50.0),
            "us",
        ),
        metric(
            "net.admission_wait_us_p50",
            stamp_us(&pass.ring, Stage::AdmissionWait, Stage::Submitted, 50.0),
            "us",
        ),
        metric(
            "net.write_us_p50",
            stamp_us(&pass.ring, Stage::Gathered, Stage::Written, 50.0),
            "us",
        ),
        metric("net.responses_ok", net_stats.responses_ok as f64, "count"),
        metric(
            "net.rejected_serve",
            net_stats.rejected_serve as f64,
            "count",
        ),
        metric(
            "net.rejected_client",
            net_stats.rejected_client as f64,
            "count",
        ),
        metric("net.deadline_shed", net_stats.deadline_shed as f64, "count"),
        metric("sched.self_ms_p50", sched_p50 - engine_p50, "ms"),
        metric(
            "sched.queue_wait_us_p50",
            stamp_us(&pass.ring, Stage::Submitted, Stage::QueueWait, 50.0),
            "us",
        ),
        metric(
            "sched.queue_wait_us_p95",
            stamp_us(&pass.ring, Stage::Submitted, Stage::QueueWait, 95.0),
            "us",
        ),
        metric(
            "sched.rows_per_batch",
            per_batch(sched.batched_rows),
            "rows",
        ),
        metric(
            "sched.requests_per_batch",
            per_batch(sched.batched_requests),
            "count",
        ),
        metric("sched.batches", sched.batches as f64, "count"),
        metric("sched.rejected", sched.rejected as f64, "count"),
        metric("router.self_ms_p50", router_p50 - engine_p50, "ms"),
        metric(
            "router.fanout",
            router_delta.scatter_subrequests as f64 / router_delta.scatter_requests.max(1) as f64,
            "shards",
        ),
        metric("router.shard_rows_skew", skew, "ratio"),
        metric(
            "engine.inference_us_p50",
            stamp_us(&pass.ring, Stage::Batched, Stage::Inference, 50.0),
            "us",
        ),
    ];
    metrics.extend(kernel_metrics);
    metrics.extend([
        metric("learn.stage0_s", ups.publish_s[0], "s"),
        metric("learn.stage_continual_s", stage_s, "s"),
        metric("learn.s_per_epoch", stage_s / epochs.max(1) as f64, "s"),
        metric("learn.epochs_run", epochs as f64, "count"),
        metric("memory.len", memory_len as f64, "count"),
        metric("obs.trace_overhead_pct", overhead_pct, "%"),
    ]);
    let order = per_layer_order();
    metrics.sort_by_key(|m| {
        order
            .iter()
            .position(|n| *n == m.name)
            .unwrap_or(usize::MAX)
    });
    let all_numbers = metrics.iter().all(|m| m.value.is_finite());
    let correct =
        failed == 0 && ring_monotone && !pass.ring.is_empty() && round_trip && all_numbers;

    let spans = tracer.spans();
    let table = trace::summarize(&spans);
    let file = Value::Object(vec![
        ("workload".into(), Value::Str(kind.name().into())),
        ("seed".into(), Value::UInt(seed)),
        (
            "ladder_p50_ms".into(),
            Value::Object(vec![
                ("engine".into(), Value::Float(engine_p50)),
                ("scheduler".into(), Value::Float(sched_p50)),
                ("router".into(), Value::Float(router_p50)),
                ("socket".into(), Value::Float(untraced_p50)),
                ("socket_traced".into(), Value::Float(traced_p50)),
            ]),
        ),
        (
            "per_layer".into(),
            Value::Object(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), Value::Float(m.value)))
                    .collect(),
            ),
        ),
        ("span_table".into(), trace::summary_value(&table)),
        ("spans_dropped".into(), Value::UInt(tracer.dropped())),
        ("spans".into(), trace::spans_value(&spans)),
    ]);
    let path = crate::write_out(&format!("trace-{}-seed{seed}.json", kind.name()), &file);
    let mut outcome = Outcome {
        correct,
        attempted,
        failed,
        metrics,
        reported: Vec::new(),
        info: Vec::new(),
    };
    outcome
        .info
        .push(("ring_spans".into(), Value::UInt(pass.ring.len() as u64)));
    outcome
        .info
        .push(("ring_monotone".into(), Value::Bool(ring_monotone)));
    outcome.info.push((
        "snapshot_round_trip_bitwise".into(),
        Value::Bool(round_trip),
    ));
    outcome
        .info
        .push(("spans".into(), Value::UInt(spans.len() as u64)));
    if let Some(p) = path {
        outcome
            .info
            .push(("trace_file".into(), Value::Str(p.display().to_string())));
    }
    outcome
}

/// Per-layer metric names in report order (as in `BENCHMARK.json`).
pub fn per_layer_order() -> [&'static str; 38] {
    [
        "net.self_ms_p50",
        "net.decode_us_p50",
        "net.admission_wait_us_p50",
        "net.write_us_p50",
        "net.responses_ok",
        "net.rejected_serve",
        "net.rejected_client",
        "net.deadline_shed",
        "sched.self_ms_p50",
        "sched.queue_wait_us_p50",
        "sched.queue_wait_us_p95",
        "sched.rows_per_batch",
        "sched.requests_per_batch",
        "sched.batches",
        "sched.rejected",
        "router.self_ms_p50",
        "router.fanout",
        "router.shard_rows_skew",
        "engine.us_per_row.small",
        "engine.us_per_row.bulk",
        "engine.inference_us_p50",
        "math.matmul_gflops.serve",
        "math.matmul_gflops.train",
        "math.matmul_bytes.serve",
        "math.matmul_bytes.train",
        "learn.stage0_s",
        "learn.stage_continual_s",
        "learn.s_per_epoch",
        "learn.epochs_run",
        "nn.step_us",
        "ot.wasserstein_step_us",
        "herding.select_ms",
        "memory.len",
        "snapshot.save_ms",
        "snapshot.load_ms",
        "snapshot.bytes",
        "publish.swap_us",
        "obs.trace_overhead_pct",
    ]
}
