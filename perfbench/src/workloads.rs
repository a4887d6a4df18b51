//! The three workloads' untraced runs, which produce every end-to-end
//! metric.
//!
//! * `serve-small` — open loop, seeded Poisson arrivals of 4-row
//!   single-domain requests over 2 connections into
//!   `NetServer → BatchScheduler → ServingEngine`, at a nominal rate and
//!   then up a fixed ladder of rates.
//! * `serve-bulk` — closed loop, 2 connections each keeping one 2048-row
//!   request over 6 domains outstanding against a 3-shard router fleet.
//! * `learn` — continual domains 1–3 ingested with
//!   `ServingEngine::observe_and_swap`, once for each set-up replication,
//!   under an open-loop stream of 4-row reads. Its work is fixed, so it
//!   ignores `--seconds`.

use crate::fixture::{self, Backend, Trained, BULK_ROWS, EPOCHS, SMALL_ROWS};
use crate::netgen::{self, bitwise_eq, Check, Conn, ConnReport, Limits, Payload};
use crate::result::Metric;
use crate::schedule::{self, Arrival};
use crate::stats::{self, median, Summary};
use cerl_net::{NetClient, NetServer};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per `serve-*` run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Set-ups per `learn` run, and so replications (mechanisms) its ingest
/// goes through, each exactly once: the run does the same training work
/// on any machine, and the accuracy figures are means over all of them.
pub const LEARN_REPLICAS: usize = 5;
/// `serve-small` nominal offered rate, requests/s over both connections.
pub const SMALL_RATE: f64 = 6000.0;
/// `serve-small` ladder: offered rates climbed after the nominal phase
/// until the first step that misses the limit. Steps of 3k keep the
/// estimate's quantization below a tenth of the knee (≈ 35–45k here).
pub const LADDER: [f64; 13] = [
    24000.0, 27000.0, 30000.0, 33000.0, 36000.0, 39000.0, 42000.0, 45000.0, 48000.0, 51000.0,
    54000.0, 57000.0, 60000.0,
];
/// Measured seconds per ladder step; a step's p99 is the median of its
/// three equal sub-windows' p99s.
pub const STEP_S: f64 = 1.5;
/// p99 limit a ladder step must meet, milliseconds. It sits above the
/// scheduling stalls of a shared 2-vCPU machine (≈20 ms at worst), so a
/// step fails on the server's own queueing, not on a single stall.
pub const P99_LIMIT_MS: f64 = 30.0;
/// `learn` background read rate, requests/s on one connection.
pub const LEARN_READ_RATE: f64 = 500.0;
/// Connections of every serve workload.
pub const CONNS: usize = 2;

/// Everything one run reports.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Requests (serve) or requests plus ingests (learn) attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Metrics for the summary line.
    pub metrics: Vec<Metric>,
    /// Metrics printed with their units and kept in the result file, but
    /// left out of the summary line (no bound gates them).
    pub reported: Vec<Metric>,
    /// Supporting detail for the result file and the log.
    pub info: Vec<(String, Value)>,
}

impl Outcome {
    fn info(&mut self, key: &str, v: Value) {
        self.info.push((key.into(), v));
    }

    fn report(&mut self, name: &str, value: f64, unit: &str) {
        self.reported.push(metric(name, value, unit));
    }
}

/// A JSON array of numbers.
fn floats(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Float(v)).collect())
}

/// Metric helper.
pub fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

/// `cpu_us_per_row` of a serve workload: the process's CPU time over the
/// measured phase, less the load generator's own threads (`report`), per
/// row answered. CPU time leaves out the time the host ran other
/// tenants, which wall-clock figures on a shared VM follow (see the
/// README).
fn serve_cpu_per_row(process_cpu_s: f64, report: &ConnReport, rows: f64) -> Metric {
    let program = process_cpu_s - report.generator_cpu_s;
    metric("cpu_us_per_row", program * 1e6 / rows, "us")
}

/// A served workload's fixture after set-up.
pub struct Served {
    /// Trained engine and data of the last set-up.
    pub trained: Trained,
    /// Backend behind the socket.
    pub backend: Backend,
    /// The bound server.
    pub server: NetServer,
    /// Request pool.
    pub pool: Vec<Payload>,
    /// In-process references for the pool.
    pub refs: Vec<Vec<f64>>,
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve-small`.
    Small,
    /// `serve-bulk`.
    Bulk,
    /// `learn`.
    Learn,
}

impl Kind {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-small" => Some(Kind::Small),
            "serve-bulk" => Some(Kind::Bulk),
            "learn" => Some(Kind::Learn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Small => "serve-small",
            Kind::Bulk => "serve-bulk",
            Kind::Learn => "learn",
        }
    }
}

/// One full set-up of replication `rep`: data generation, stage-0
/// training, backend, bind and a checked warm-up.
pub fn set_up(kind: Kind, seed: u64, rep: usize) -> Served {
    let domains = if kind == Kind::Learn { 4 } else { 1 };
    let trained = fixture::train_stage0(seed, rep, domains);
    let (pool, backend) = match kind {
        Kind::Bulk => (
            fixture::bulk_pool(&trained.stream, seed),
            Backend::Router(fixture::fleet(&trained.stage0)),
        ),
        Kind::Small | Kind::Learn => (
            fixture::small_pool(&trained.stream, seed),
            Backend::Scheduler(fixture::scheduler(&trained.serving)),
        ),
    };
    let refs = fixture::references(&trained.stage0, &pool);
    let server = backend.bind(None);
    let rounds = if kind == Kind::Bulk { 8 } else { 200 };
    fixture::warm_up(&server, &pool, &refs, rounds);
    Served {
        trained,
        backend,
        server,
        pool,
        refs,
    }
}

/// What a set-up leaves for the measured phase besides the server.
pub struct Replica {
    /// Replication index (the data and model of set-up `rep`).
    pub rep: usize,
    /// Its domains.
    pub stream: cerl_data::DomainStream,
    /// Its stage-0 engine.
    pub stage0: cerl_core::CerlEngine,
}

/// The result of [`set_up_repeated`].
pub struct SetUps {
    /// The last set-up's fixture, which the measured phase uses.
    pub served: Served,
    /// Wall time of each set-up.
    pub setup_s: Vec<f64>,
    /// Stage-0 `observe_and_swap` time of each set-up.
    pub publish_s: Vec<f64>,
    /// Training samples × epochs of each set-up's stage 0.
    pub samples_epochs: Vec<f64>,
    /// Every set-up's replication.
    pub replicas: Vec<Replica>,
}

/// Run `count` set-ups, one per replication `0..count` (same shapes,
/// same cost, different seeded data), and keep the last one's fixture.
/// Accuracy is averaged over the replications, so one unlucky draw of
/// data moves it by a fraction.
pub fn set_up_repeated(kind: Kind, seed: u64, count: usize) -> SetUps {
    let mut setup_s = Vec::new();
    let mut publish_s = Vec::new();
    let mut samples_epochs = Vec::new();
    let mut replicas = Vec::new();
    let mut kept: Option<Served> = None;
    for rep in 0..count {
        // Release the previous server first so set-ups do not overlap.
        if let Some(old) = kept.take() {
            drop_served(old);
        }
        let t = Instant::now();
        let served = set_up(kind, seed, rep);
        setup_s.push(t.elapsed().as_secs_f64());
        let trained = &served.trained;
        publish_s.push(trained.stage0_s);
        samples_epochs.push((trained.stream.domain(0).train.n() * trained.stage0_epochs) as f64);
        replicas.push(Replica {
            rep,
            stream: trained.stream.clone(),
            stage0: trained.stage0.clone(),
        });
        kept = Some(served);
    }
    SetUps {
        served: kept.expect("at least one set-up"),
        setup_s,
        publish_s,
        samples_epochs,
        replicas,
    }
}

/// Shut a fixture's server down, joining its reactor.
pub fn drop_served(served: Served) {
    served.server.shutdown().expect("reactor joins cleanly");
}

/// Mean stage-0 √PEHE over the set-up replications, each on its own
/// held-out sample of domain 0.
fn stage0_pehe(seed: u64, replicas: &[Replica]) -> f64 {
    replicas
        .iter()
        .map(|r| fixture::sqrt_pehe(&r.stage0, &fixture::eval_sample(seed, r.rep, 0)))
        .sum::<f64>()
        / replicas.len() as f64
}

/// Per-connection Poisson schedules at `rate` in total.
pub fn schedules(
    seed: u64,
    label: &str,
    rate: f64,
    seconds: f64,
    pool: usize,
) -> Vec<Vec<Arrival>> {
    (0..CONNS)
        .map(|c| {
            schedule::poisson(
                seed,
                &format!("{label}-{c}"),
                rate / CONNS as f64,
                seconds,
                pool,
            )
        })
        .collect()
}

/// Limits of a nominal (not ladder) phase: generous, since any request
/// not answered counts as failed.
pub fn nominal_limits() -> Limits {
    Limits {
        max_outstanding: 4096,
        max_late: Duration::from_secs(2),
        drain: Duration::from_secs(5),
    }
}

/// Backlog a ladder step tolerates, in seconds of its arrivals. A stall
/// of the shared machine (tens of milliseconds) stays under it; a rate
/// 20% past capacity crosses it within a step, and a smaller excess
/// fails the p99 limit instead.
const BACKLOG_S: f64 = 0.2;

fn ladder_limits(rate: f64) -> Limits {
    Limits {
        max_outstanding: (rate * BACKLOG_S) as usize,
        max_late: Duration::from_secs_f64(BACKLOG_S),
        drain: Duration::from_millis(500),
    }
}

fn lateness_info(out: &mut Outcome, report: &ConnReport) {
    let late = Summary::from_nanos(&report.lateness_ns);
    out.report("generator_lateness_p99_ms", late.p99, "ms");
    out.report("generator_lateness_max_ms", late.max, "ms");
}

/// Metrics every workload reports the same way. `publish` and
/// `samples_epochs` pair up per training. The training figures are means
/// over the run's trainings (total work over total time for the rate):
/// on the shared reference VM single trainings fall into a fast and a
/// slow phase about 1.5× apart, and a median flips between the phases
/// where a mean blends them (10-run spread 14% against 23%).
fn common_metrics(
    setup: &[f64],
    publish: &[f64],
    samples_epochs: &[f64],
    pehe: (f64, f64),
) -> Vec<Metric> {
    let train_s: f64 = publish.iter().sum();
    vec![
        metric("setup_s", median(setup), "s"),
        metric("publish_s", train_s / publish.len() as f64, "s"),
        metric(
            "train_samples_per_s",
            samples_epochs.iter().sum::<f64>() / train_s,
            "samples/s",
        ),
        metric("pehe_prev", pehe.0, "sqrt_pehe"),
        metric("pehe_new", pehe.1, "sqrt_pehe"),
    ]
}

/// Report latency, rate, rows and memory; `samples` are
/// `(scheduled send, latency)` pairs in nanoseconds. Of these only the
/// peak memory is a gated metric. Latency (p50 to p99), `rows_per_s` and
/// `max_rate_rps` are reported beside the gated metrics: on a shared VM
/// these wall-clock serving figures follow the host's CPU steal further
/// than any bound allows, and `cpu_us_per_row` gates the serving cost
/// instead. p99 is the median of per-window p99s
/// ([`stats::windowed_p99`], windows of at least 1 s and 1000 samples),
/// or the whole-run p99 when fewer than three windows fit.
fn finish(
    mut out: Outcome,
    samples: &[(u64, u64)],
    max_rate: f64,
    rows_per_s: f64,
    peak_rss_mb: f64,
) -> Outcome {
    let ms = stats::sorted(
        &samples
            .iter()
            .map(|&(_, l)| l as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let whole = Summary::of(&ms);
    let p99 = stats::windowed_p99(samples, 1_000_000_000);
    out.metrics.push(metric("peak_rss_mb", peak_rss_mb, "MiB"));
    let order = end_to_end_order();
    out.metrics.sort_by_key(|m| {
        order
            .iter()
            .position(|n| *n == m.name)
            .unwrap_or(usize::MAX)
    });
    out.report("latency_p50_ms", whole.p50, "ms");
    out.report("rows_per_s", rows_per_s, "rows/s");
    out.report("max_rate_rps", max_rate, "req/s");
    out.report("latency_p90_ms", stats::percentile(&ms, 90.0), "ms");
    out.report("latency_p95_ms", stats::percentile(&ms, 95.0), "ms");
    out.report("latency_p99_ms", p99.map_or(whole.p99, |(p, _)| p), "ms");
    out.report("latency_whole_run_p99_ms", whole.p99, "ms");
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.report("fail_ratio", fail_ratio, "failed/attempted");
    out.info("latency_samples", Value::UInt(whole.n as u64));
    out.info(
        "latency_p99_windows",
        Value::UInt(p99.map_or(0, |(_, k)| k as u64)),
    );
    if let Some(q) = whole.tail_q {
        out.info("latency_tail_percentile", Value::Float(q));
        out.info("latency_tail_ms", Value::Float(whole.tail));
    }
    out
}

/// End-to-end metric names in report order (as in `BENCHMARK.json`).
pub fn end_to_end_order() -> [&'static str; 7] {
    [
        "setup_s",
        "cpu_us_per_row",
        "publish_s",
        "train_samples_per_s",
        "pehe_prev",
        "pehe_new",
        "peak_rss_mb",
    ]
}

/// One ladder step's verdict.
struct Step {
    rate: f64,
    p99_ms: f64,
    /// Answers per second while the step ran.
    answered_rps: f64,
    overloaded: bool,
    passed: bool,
}

/// Highest rate meeting the limit. Between the last passing step `lo`
/// and the first failing step `hi` the estimate is refined: when `hi`'s
/// backlog grew, the rate it actually answered (its throughput ceiling);
/// otherwise the rate at which p99, interpolated linearly, meets the
/// limit.
fn max_rate(steps: &[Step]) -> f64 {
    let Some(first_fail) = steps.iter().position(|s| !s.passed) else {
        return steps.last().map_or(0.0, |s| s.rate);
    };
    let hi = &steps[first_fail];
    let (lo_rate, lo_p99) = match first_fail {
        0 => (0.0, 0.0),
        i => (steps[i - 1].rate, steps[i - 1].p99_ms),
    };
    let estimate = if hi.overloaded || !hi.p99_ms.is_finite() {
        hi.answered_rps
    } else {
        let frac = (P99_LIMIT_MS - lo_p99) / (hi.p99_ms - lo_p99).max(f64::MIN_POSITIVE);
        lo_rate + frac * (hi.rate - lo_rate)
    };
    estimate.clamp(lo_rate, hi.rate)
}

/// `serve-small`: nominal open-loop phase, then the rate ladder.
pub fn serve_small(seed: u64, seconds: f64) -> Outcome {
    let ups = set_up_repeated(Kind::Small, seed, SETUPS);
    let served = &ups.served;
    let addr = served.server.local_addr();
    let mut conns: Vec<Conn> = (0..CONNS)
        .map(|_| Conn::connect(addr).expect("loopback connect"))
        .collect();
    let check = Check::Fixed(&served.refs);
    let steal0 = fixture::cpu_steal();
    let sched = schedules(
        seed,
        "small-nominal",
        SMALL_RATE,
        seconds,
        served.pool.len(),
    );
    let cpu0 = fixture::cpu_s("self");
    let (nominal, elapsed) = netgen::open_loop(
        &mut conns,
        &sched,
        &served.pool,
        &check,
        nominal_limits(),
        None,
        None,
    )
    .expect("nominal phase socket I/O");
    let cpu_nominal = fixture::cpu_s("self") - cpu0;
    let rss_after_nominal = fixture::peak_rss_mb();
    let steal = fixture::steal_pct(steal0, fixture::cpu_steal());

    let mut steps = Vec::new();
    let mut ladder_attempted = 0;
    let mut ladder_mismatch = 0;
    for (k, &rate) in LADDER.iter().enumerate() {
        let sched = schedules(
            seed,
            &format!("small-step{k}"),
            rate,
            STEP_S,
            served.pool.len(),
        );
        let (rep, took) = netgen::open_loop(
            &mut conns,
            &sched,
            &served.pool,
            &check,
            ladder_limits(rate),
            None,
            None,
        )
        .expect("ladder step socket I/O");
        // A step stopped for its backlog leaves the rest of its schedule
        // unsent by design, so only sent requests count, and of those the
        // mismatched, errored and unanswered ones fail.
        ladder_attempted += rep.sent;
        ladder_mismatch += rep.mismatched + rep.errors + rep.unanswered;
        let p99 = stats::windowed_p99(&rep.latency, (STEP_S / 4.0 * 1e9) as u64)
            .map_or(f64::INFINITY, |(p, _)| p);
        let passed = !rep.overloaded && p99 <= P99_LIMIT_MS;
        steps.push(Step {
            rate,
            p99_ms: p99,
            answered_rps: rep.ok as f64 / took.as_secs_f64(),
            overloaded: rep.overloaded,
            passed,
        });
        if !passed {
            break;
        }
    }
    let max_rate = max_rate(&steps);
    drop(conns);
    let pehe = stage0_pehe(seed, &ups.replicas);
    let mut out = Outcome {
        correct: nominal.failed() == 0 && ladder_mismatch == 0,
        attempted: nominal.attempted() + ladder_attempted,
        failed: nominal.failed() + ladder_mismatch,
        metrics: common_metrics(
            &ups.setup_s,
            &ups.publish_s,
            &ups.samples_epochs,
            (pehe, pehe),
        ),
        reported: Vec::new(),
        info: Vec::new(),
    };
    out.info("host_steal_pct", Value::Float(steal));
    out.info("train_times_s", floats(&ups.publish_s));
    out.info("setup_times_s", floats(&ups.setup_s));
    out.info("loop", Value::Str("open".into()));
    out.info("connections", Value::UInt(CONNS as u64));
    out.info("nominal_rate_rps", Value::Float(SMALL_RATE));
    out.info("p99_limit_ms", Value::Float(P99_LIMIT_MS));
    out.info(
        "ladder",
        Value::Array(
            steps
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("rate_rps".into(), Value::Float(s.rate)),
                        ("p99_ms".into(), Value::Float(s.p99_ms)),
                        ("answered_rps".into(), Value::Float(s.answered_rps)),
                        ("overloaded".into(), Value::Bool(s.overloaded)),
                        ("passed".into(), Value::Bool(s.passed)),
                    ])
                })
                .collect(),
        ),
    );
    lateness_info(&mut out, &nominal);
    let rows = (nominal.ok * SMALL_ROWS as u64) as f64;
    out.metrics
        .push(serve_cpu_per_row(cpu_nominal, &nominal, rows));
    let rows_per_s = rows / elapsed.as_secs_f64();
    drop_served(ups.served);
    finish(
        out,
        &nominal.latency,
        max_rate,
        rows_per_s,
        rss_after_nominal,
    )
}

/// Seeded payload orders for the closed-loop clients.
pub fn bulk_orders(seed: u64, pool: usize) -> Vec<Vec<usize>> {
    (0..CONNS)
        .map(|c| {
            let mut rng = schedule::SplitMix::new(seed, &format!("bulk-order-{c}"));
            (0..1024).map(|_| rng.below(pool)).collect()
        })
        .collect()
}

/// `serve-bulk`: closed loop of 2048-row scatter requests.
pub fn serve_bulk(seed: u64, seconds: f64) -> Outcome {
    let ups = set_up_repeated(Kind::Bulk, seed, SETUPS);
    let served = &ups.served;
    let mut clients: Vec<NetClient> = (0..CONNS)
        .map(|_| NetClient::connect(served.server.local_addr()).expect("loopback connect"))
        .collect();
    let orders = bulk_orders(seed, served.pool.len());
    let steal0 = fixture::cpu_steal();
    let cpu0 = fixture::cpu_s("self");
    let (rep, elapsed) = netgen::closed_loop(
        &mut clients,
        &orders,
        &served.pool,
        &served.refs,
        seconds,
        None,
    );
    let steal = fixture::steal_pct(steal0, fixture::cpu_steal());
    let cpu_loop = fixture::cpu_s("self") - cpu0;
    drop(clients);
    let pehe = stage0_pehe(seed, &ups.replicas);
    let mut out = Outcome {
        correct: rep.failed() == 0,
        attempted: rep.attempted(),
        failed: rep.failed(),
        metrics: common_metrics(
            &ups.setup_s,
            &ups.publish_s,
            &ups.samples_epochs,
            (pehe, pehe),
        ),
        reported: Vec::new(),
        info: Vec::new(),
    };
    out.info("host_steal_pct", Value::Float(steal));
    out.info("train_times_s", floats(&ups.publish_s));
    out.info("setup_times_s", floats(&ups.setup_s));
    out.info("loop", Value::Str("closed".into()));
    out.info("connections", Value::UInt(CONNS as u64));
    out.info("outstanding_per_connection", Value::UInt(1));
    out.info("rows_per_request", Value::UInt(BULK_ROWS as u64));
    let secs = elapsed.as_secs_f64();
    let rows = (rep.ok * BULK_ROWS as u64) as f64;
    out.metrics.push(serve_cpu_per_row(cpu_loop, &rep, rows));
    let rows_per_s = rows / secs;
    let rate = rep.ok as f64 / secs;
    drop_served(ups.served);
    finish(out, &rep.latency, rate, rows_per_s, fixture::peak_rss_mb())
}

/// Per-version reference answers of the `learn` read pool.
pub type VersionRefs = BTreeMap<u64, Vec<Vec<f64>>>;

/// Check deferred answers: each must equal the reference of some version
/// visible between its send and its receipt. Returns mismatches.
pub fn check_versioned(answers: &[netgen::Answer], refs: &VersionRefs) -> u64 {
    answers
        .iter()
        .filter(|a| {
            !refs
                .range(a.v_send..=a.v_recv)
                .any(|(_, r)| bitwise_eq(&a.ite, &r[a.payload]))
        })
        .count() as u64
}

/// What one `learn` ingest loop produced.
pub struct Ingest {
    /// Wall time per continual `observe_and_swap`, call to visible.
    pub publish_s: Vec<f64>,
    /// Training samples × epochs per continual stage.
    pub samples_epochs: Vec<f64>,
    /// Process CPU seconds per continual `observe_and_swap`.
    pub cpu_s: Vec<f64>,
    /// Epochs each continual stage ran.
    pub epochs: Vec<usize>,
    /// √PEHE on domain 0 and on the last domain after each cycle.
    pub pehe: Vec<(f64, f64)>,
    /// Published versions in order; must strictly increase.
    pub versions: Vec<u64>,
    /// References per published version.
    pub refs: VersionRefs,
    /// Memory size after the last stage.
    pub memory_len: usize,
    /// Re-training the first cycle's first stage gave bit-identical
    /// predictions.
    pub reproducible: bool,
}

/// Ingest domains 1..n of each set-up replication in turn, each cycle
/// starting by publishing that replication's stage-0 engine. Then
/// re-train the first cycle's first stage privately and compare its
/// predictions bit for bit.
pub fn ingest(ups: &SetUps, seed: u64, tracer: Option<&crate::trace::Tracer>) -> Ingest {
    let served = &ups.served;
    let serving = &served.trained.serving;
    let mut refs = VersionRefs::new();
    refs.insert(serving.version(), served.refs.clone());
    let mut out = Ingest {
        publish_s: Vec::new(),
        samples_epochs: Vec::new(),
        cpu_s: Vec::new(),
        epochs: Vec::new(),
        pehe: Vec::new(),
        versions: vec![serving.version()],
        refs: VersionRefs::new(),
        memory_len: 0,
        reproducible: false,
    };
    let mut first_stage: Option<Vec<f64>> = None;
    for replica in &ups.replicas {
        let stream = &replica.stream;
        let last = stream.len() - 1;
        let eval = (
            fixture::eval_sample(seed, replica.rep, 0),
            fixture::eval_sample(seed, replica.rep, last),
        );
        let v = serving.swap_engine(replica.stage0.clone());
        out.versions.push(v);
        refs.insert(v, fixture::references(&replica.stage0, &served.pool));
        for d in 1..=last {
            let dom = stream.domain(d);
            let cpu0 = fixture::cpu_s("self");
            let t = Instant::now();
            let (report, version) = serving
                .observe_and_swap(&dom.train, &dom.val)
                .expect("synthetic domains are well-formed");
            let visible = serving.version() == version;
            let took = t.elapsed();
            out.cpu_s.push(fixture::cpu_s("self") - cpu0);
            if let Some(tracer) = tracer {
                tracer.record(
                    "cerl-core",
                    "serving.observe_and_swap",
                    0,
                    tracer.offset(t),
                    tracer.offset(t + took),
                );
            }
            assert!(visible, "a published version is visible on return");
            out.publish_s.push(took.as_secs_f64());
            out.samples_epochs
                .push((dom.train.n() * report.train.epochs_run) as f64);
            out.epochs.push(report.train.epochs_run);
            out.versions.push(version);
            out.memory_len = report.memory_len;
            let current = serving.current();
            assert_eq!(current.version(), version, "no other writer publishes");
            refs.insert(version, fixture::references(current.engine(), &served.pool));
            if first_stage.is_none() {
                first_stage = Some(current.engine().predict_ite(&eval.0.x).expect("predict"));
            }
        }
        let current = serving.current();
        out.pehe.push((
            fixture::sqrt_pehe(current.engine(), &eval.0),
            fixture::sqrt_pehe(current.engine(), &eval.1),
        ));
    }
    let replica = &ups.replicas[0];
    let mut again = replica.stage0.clone();
    let dom = replica.stream.domain(1);
    again
        .observe(&dom.train, &dom.val)
        .expect("re-training succeeds");
    let eval0 = fixture::eval_sample(seed, replica.rep, 0);
    out.reproducible =
        first_stage.is_some_and(|p| bitwise_eq(&p, &again.predict_ite(&eval0.x).expect("predict")));
    out.refs = refs;
    out
}

/// Whether the ingest was consistent: strictly increasing versions,
/// every stage ran [`EPOCHS`], and training reproduced bit for bit.
pub fn ingest_consistent(ing: &Ingest) -> bool {
    let monotone = ing.versions.windows(2).all(|w| w[0] < w[1]);
    let epochs = ing.epochs.iter().all(|&e| e == EPOCHS);
    monotone && epochs && ing.reproducible
}

/// Mean √PEHE (domain 0, last domain) over the replications.
pub fn mean_pehe(ing: &Ingest) -> (f64, f64) {
    let n = ing.pehe.len() as f64;
    (
        ing.pehe.iter().map(|p| p.0).sum::<f64>() / n,
        ing.pehe.iter().map(|p| p.1).sum::<f64>() / n,
    )
}

/// Seconds of `learn` read schedule: longer than any ingest, since
/// sending stops when the ingest ends.
const LEARN_READ_SCHEDULE_S: f64 = 170.0;

/// `learn`: continual ingest under a background open-loop read stream.
pub fn learn(seed: u64) -> Outcome {
    let ups = set_up_repeated(Kind::Learn, seed, LEARN_REPLICAS);
    let served = &ups.served;
    let mut conn = Conn::connect(served.server.local_addr()).expect("loopback connect");
    let sched = schedule::poisson(
        seed,
        "learn-reads",
        LEARN_READ_RATE,
        LEARN_READ_SCHEDULE_S,
        served.pool.len(),
    );
    let stop = AtomicBool::new(false);
    let check = Check::Versioned(&served.trained.serving);
    let steal0 = fixture::cpu_steal();
    let (reads, ing) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            netgen::open_loop(
                std::slice::from_mut(&mut conn),
                std::slice::from_ref(&sched),
                &served.pool,
                &check,
                nominal_limits(),
                Some(&stop),
                None,
            )
        });
        let ing = ingest(&ups, seed, None);
        // ordering: a lone stop flag that publishes no data.
        stop.store(true, Ordering::Relaxed);
        (reader.join().expect("reader thread panicked"), ing)
    });
    let (reads, read_elapsed) = reads.expect("read stream socket I/O");
    let steal = fixture::steal_pct(steal0, fixture::cpu_steal());
    let mismatched = check_versioned(&reads.answers, &ing.refs);
    let consistent = ingest_consistent(&ing);
    let stages = ing.publish_s.len() as u64;
    let failed = reads.failed() + mismatched + u64::from(!consistent);
    let mut out = Outcome {
        correct: failed == 0,
        attempted: reads.attempted() + stages,
        failed,
        metrics: common_metrics(
            &ups.setup_s,
            &ing.publish_s,
            &ing.samples_epochs,
            mean_pehe(&ing),
        ),
        reported: Vec::new(),
        info: Vec::new(),
    };
    out.info("host_steal_pct", Value::Float(steal));
    out.info("train_times_s", floats(&ing.publish_s));
    out.info("setup_times_s", floats(&ups.setup_s));
    out.info(
        "loop",
        Value::Str("open (reads) + sequential ingest".into()),
    );
    out.info("connections", Value::UInt(1));
    out.info("read_rate_rps", Value::Float(LEARN_READ_RATE));
    out.info("continual_stages", Value::UInt(stages));
    out.info("cycles", Value::UInt(ing.pehe.len() as u64));
    out.info(
        "versions",
        Value::Array(ing.versions.iter().map(|&v| Value::UInt(v)).collect()),
    );
    out.info(
        "versions_monotone_epochs_fixed_reproducible",
        Value::Bool(consistent),
    );
    out.info("read_mismatches", Value::UInt(mismatched));
    lateness_info(&mut out, &reads);
    let rate = (reads.ok - mismatched.min(reads.ok)) as f64 / read_elapsed.as_secs_f64();
    // The process's CPU time during the continual stages per training
    // sample × epoch; it includes serving the concurrent reads, which
    // share the process.
    out.metrics.push(metric(
        "cpu_us_per_row",
        ing.cpu_s.iter().sum::<f64>() * 1e6 / ing.samples_epochs.iter().sum::<f64>(),
        "us",
    ));
    drop_served(ups.served);
    finish(
        out,
        &reads.latency,
        rate,
        rate * SMALL_ROWS as f64,
        fixture::peak_rss_mb(),
    )
}
