//! Set-up shared by the workloads: seeded synthetic domains, the
//! quick-scale model trained on domain 0 through
//! [`ServingEngine::observe_and_swap`], request pools with their
//! in-process reference answers, and the loopback servers.

use crate::netgen::{bitwise_eq, Payload};
use crate::schedule::SplitMix;
use cerl_core::config::{CerlConfig, NetConfig, TrainConfig};
use cerl_core::engine::{CerlEngine, CerlEngineBuilder};
use cerl_core::metrics::EffectMetrics;
use cerl_core::{ServingEngine, ShardMap};
use cerl_data::{CausalDataset, DomainStream, SyntheticConfig, SyntheticGenerator};
use cerl_net::{NetBackend, NetClient, NetServer, NetServerConfig};
use cerl_obs::TraceRing;
use cerl_serve::{BatchConfig, BatchScheduler, ShardRouter};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Training epochs per stage. Patience equals it, so early stopping never
/// fires and every run does the same training work.
pub const EPOCHS: usize = 60;
/// Rows per `serve-small` and `learn` read request.
pub const SMALL_ROWS: usize = 4;
/// Rows per `serve-bulk` request.
pub const BULK_ROWS: usize = 2048;
/// Domains the `serve-bulk` rows are tagged with, round-robin.
pub const BULK_DOMAINS: u64 = 6;
/// Shards of the `serve-bulk` fleet (domain `d` lives on shard `d % 3`).
pub const BULK_SHARDS: usize = 3;
/// Distinct request payloads per pool.
const SMALL_POOL: usize = 256;
const BULK_POOL: usize = 8;

/// Quick-scale synthetic domains: 800 units (480 train / 160 val / 160
/// test), the paper's 100-covariate layout.
pub fn data_config() -> SyntheticConfig {
    SyntheticConfig {
        n_units: 800,
        noise_sd: 0.4,
        mean_shift_scale: 1.0,
        sd_range: (0.5, 1.5),
        ..SyntheticConfig::default()
    }
}

/// Quick-scale CERL model with a fixed epoch count.
pub fn model_config() -> CerlConfig {
    CerlConfig {
        net: NetConfig {
            repr_hidden: vec![64],
            repr_dim: 32,
            head_hidden: vec![32],
            transform_hidden: vec![64],
            ..NetConfig::default()
        },
        train: TrainConfig {
            epochs: EPOCHS,
            batch_size: 64,
            learning_rate: 2e-3,
            clip_norm: 5.0,
            patience: EPOCHS,
            memory_batch_size: 64,
            phi_warmup_steps: 150,
        },
        ..CerlConfig::default()
    }
}

/// Scheduler knobs of every batched path in the benchmark.
pub fn batch_config() -> BatchConfig {
    BatchConfig {
        max_wait: Duration::from_micros(300),
        queue_capacity: 8192,
        ..BatchConfig::default()
    }
}

/// The generated domains plus a serving engine trained on domain 0.
pub struct Trained {
    /// Seeded synthetic domains.
    pub stream: DomainStream,
    /// Serving engine; its current version is the stage-0 model.
    pub serving: Arc<ServingEngine>,
    /// The stage-0 engine (for references and resets).
    pub stage0: CerlEngine,
    /// Wall time of the stage-0 `observe_and_swap`, call to visible.
    pub stage0_s: f64,
    /// Epochs stage 0 ran.
    pub stage0_epochs: usize,
}

/// Seed of replication `rep`: each replication draws its own causal
/// mechanism, domains and model initialization from it.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    crate::schedule::SplitMix::new(seed, &format!("replication-{rep}")).next_u64()
}

/// Generate `n_domains` domains of replication `rep` and train stage 0.
pub fn train_stage0(seed: u64, rep: usize, n_domains: usize) -> Trained {
    let seed = rep_seed(seed, rep);
    let gen = SyntheticGenerator::new(data_config(), seed);
    let stream = DomainStream::synthetic(&gen, n_domains, 0, seed);
    let engine = CerlEngineBuilder::new(model_config())
        .seed(seed)
        .build()
        .expect("the benchmark's model config is valid");
    let serving = Arc::new(ServingEngine::new(engine));
    let d0 = stream.domain(0);
    let t = Instant::now();
    let (report, version) = serving
        .observe_and_swap(&d0.train, &d0.val)
        .expect("synthetic domains are well-formed");
    assert_eq!(serving.version(), version, "published version is visible");
    let stage0_s = t.elapsed().as_secs_f64();
    let stage0 = serving.current().engine().clone();
    Trained {
        stream,
        serving,
        stage0,
        stage0_s,
        stage0_epochs: report.train.epochs_run,
    }
}

/// Units in each held-out evaluation sample.
pub const EVAL_UNITS: usize = 4000;

/// Held-out evaluation sample of domain `d` of replication `rep`:
/// [`EVAL_UNITS`] units drawn
/// from the domain's distribution after the 800 that form its
/// train/val/test splits (the generator samples rows in sequence, so the
/// first 800 rows of a larger draw are the domain's own rows). The
/// 160-unit test split alone leaves √PEHE dominated by sampling noise.
pub fn eval_sample(seed: u64, rep: usize, d: usize) -> CausalDataset {
    let n = data_config().n_units;
    let cfg = SyntheticConfig {
        n_units: n + EVAL_UNITS,
        ..data_config()
    };
    let all = SyntheticGenerator::new(cfg, rep_seed(seed, rep)).domain(d, 0);
    all.select(&(n..n + EVAL_UNITS).collect::<Vec<_>>())
}

/// √PEHE of `engine` on `data`.
pub fn sqrt_pehe(engine: &CerlEngine, data: &CausalDataset) -> f64 {
    let est = engine
        .predict_ite(&data.x)
        .expect("trained engine predicts");
    EffectMetrics::on_dataset(data, &est).sqrt_pehe
}

/// 4-row single-domain (tag 0) requests drawn from domain 0's test rows.
pub fn small_pool(stream: &DomainStream, seed: u64) -> Vec<Payload> {
    let base = &stream.domain(0).test.x;
    let mut rng = SplitMix::new(seed, "small-pool");
    (0..SMALL_POOL)
        .map(|_| {
            let idx: Vec<usize> = (0..SMALL_ROWS).map(|_| rng.below(base.rows())).collect();
            Payload {
                tags: vec![0; SMALL_ROWS],
                x: base.select_rows(&idx),
            }
        })
        .collect()
}

/// 2048-row requests drawn from all of domain 0's rows, tagged
/// round-robin over [`BULK_DOMAINS`] domains.
pub fn bulk_pool(stream: &DomainStream, seed: u64) -> Vec<Payload> {
    let d0 = stream.domain(0);
    let base = d0.train.x.clone();
    let mut rng = SplitMix::new(seed, "bulk-pool");
    (0..BULK_POOL)
        .map(|_| {
            let idx: Vec<usize> = (0..BULK_ROWS).map(|_| rng.below(base.rows())).collect();
            Payload {
                tags: (0..BULK_ROWS as u64).map(|i| i % BULK_DOMAINS).collect(),
                x: base.select_rows(&idx),
            }
        })
        .collect()
}

/// Reference answers: `CerlEngine::predict_ite` in process.
pub fn references(engine: &CerlEngine, pool: &[Payload]) -> Vec<Vec<f64>> {
    pool.iter()
        .map(|p| engine.predict_ite(&p.x).expect("reference predict"))
        .collect()
}

/// The serving backend behind the socket.
pub enum Backend {
    /// `NetBackend::Scheduler` over the trained serving engine.
    Scheduler(Arc<BatchScheduler>),
    /// `NetBackend::Router` over a 3-shard fleet of stage-0 clones.
    Router(Arc<ShardRouter>),
}

/// A batch scheduler over `serving`.
pub fn scheduler(serving: &Arc<ServingEngine>) -> Arc<BatchScheduler> {
    Arc::new(BatchScheduler::new(Arc::clone(serving), batch_config()))
}

/// A batched 3-shard router of `engine` clones; domain `d` lives on
/// shard `d % 3`.
pub fn fleet(engine: &CerlEngine) -> Arc<ShardRouter> {
    let pairs: Vec<(u64, usize)> = (0..BULK_DOMAINS)
        .map(|d| (d, d as usize % BULK_SHARDS))
        .collect();
    let map = ShardMap::from_pairs(BULK_SHARDS, &pairs).expect("pairs are in range");
    let engines = (0..BULK_SHARDS).map(|_| engine.clone()).collect();
    Arc::new(ShardRouter::with_batching(engines, map, batch_config()).expect("fleet sizes agree"))
}

impl Backend {
    /// Bind a loopback server on this backend.
    pub fn bind(&self, trace: Option<Arc<TraceRing>>) -> NetServer {
        let backend = match self {
            Backend::Scheduler(s) => NetBackend::Scheduler(Arc::clone(s)),
            Backend::Router(r) => NetBackend::Router(Arc::clone(r)),
        };
        NetServer::bind(
            "127.0.0.1:0",
            backend,
            NetServerConfig {
                trace,
                ..NetServerConfig::default()
            },
        )
        .expect("bind a loopback port")
    }

    /// Serve-path counters of the backend. A router's batch counters
    /// are the sum of its shards' schedulers.
    pub fn stats(&self) -> cerl_serve::ServeStats {
        match self {
            Backend::Scheduler(s) => s.stats(),
            Backend::Router(r) => {
                let mut total = r.stats();
                for shard in 0..r.shard_count() {
                    if let Ok(Some(s)) = r.shard_stats(shard) {
                        total.batches += s.batches;
                        total.batched_requests += s.batched_requests;
                        total.batched_rows += s.batched_rows;
                    }
                }
                total
            }
        }
    }
}

/// Warm the socket path: `rounds` blocking requests, each checked.
pub fn warm_up(server: &NetServer, pool: &[Payload], refs: &[Vec<f64>], rounds: usize) {
    let mut client = NetClient::connect(server.local_addr()).expect("loopback connect");
    for i in 0..rounds {
        let k = i % pool.len();
        let ite = client
            .predict(&pool[k].tags, &pool[k].x, None)
            .expect("warm-up request is served");
        assert!(
            bitwise_eq(&ite, &refs[k]),
            "warm-up answer differs from reference"
        );
    }
}

/// Host steal and total CPU time so far (`/proc/stat`, jiffies): time
/// this machine's virtual CPUs were runnable but not running.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Steal share, percent, between two [`cpu_steal`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    after.0.saturating_sub(before.0) as f64 / total as f64 * 100.0
}

/// CPU time in seconds charged so far to this process (`which` =
/// `"self"`) or to the calling thread (`"thread-self"`): user plus system
/// time from `/proc/<which>/stat`, whose clock ticks are 1/100 s on
/// Linux. With paravirtual steal accounting, as on the reference VM, the
/// time the host gave to other tenants is not charged, so this figure
/// does not follow the host's load the way wall time does.
pub fn cpu_s(which: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{which}/stat")).unwrap_or_default();
    // utime and stime are fields 14 and 15; the command name (field 2)
    // is parenthesised and may hold spaces, so count from after it.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum::<f64>()
        / 100.0
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::cpu_s;
    use std::time::{Duration, Instant};

    #[test]
    fn cpu_time_counts_this_threads_work() {
        let (process0, thread0) = (cpu_s("self"), cpu_s("thread-self"));
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(300) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let wall = start.elapsed().as_secs_f64();
        let thread = cpu_s("thread-self") - thread0;
        // Ticks are 10 ms, and a busy thread may still be descheduled.
        assert!(
            thread > 0.05,
            "thread CPU {thread} s over {wall} s of spinning"
        );
        assert!(
            thread <= wall + 0.02,
            "thread CPU {thread} s exceeds wall {wall} s"
        );
        assert!(cpu_s("self") - process0 >= thread - 0.02);
    }
}
