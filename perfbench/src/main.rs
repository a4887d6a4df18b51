//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <serve-small|serve-bulk|learn> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --compare <result.json> <result.json> [--allow-cross-machine]
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) prints every per-layer metric. Either way the last
//! line of standard output is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`, and the full record
//! (with the machine fingerprint) is written under `perfbench/out/`.
//! Any failed or mismatched request, non-monotone version or
//! irreproducible accuracy makes the process exit with status 1.

mod fixture;
mod layers;
mod netgen;
mod result;
mod schedule;
mod stats;
mod trace;
mod workloads;

use result::{Fingerprint, RunResult};
use serde::Value;
use std::path::PathBuf;
use std::time::Duration;
use workloads::Kind;

/// Hard cap on one run's wall time.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <serve-small|serve-bulk|learn> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --compare <a.json> <b.json> [--allow-cross-machine]"
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Args {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 60.0)
                        .unwrap_or_else(|| usage("--seconds must be in (0, 60]")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        kind: kind.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Directory for result and trace files.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write `value` as pretty JSON to `out/<name>`; failures only warn.
pub fn write_out(name: &str, value: &Value) -> Option<PathBuf> {
    let dir = out_dir();
    let path = dir.join(name);
    let text = serde_json::to_string_pretty(value).expect("a Value always renders");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("perfbench: could not write {}: {e}", path.display());
            None
        }
    }
}

fn compare(paths: &[String]) -> ! {
    let allow = paths.iter().any(|p| p == "--allow-cross-machine");
    let files: Vec<&String> = paths.iter().filter(|p| !p.starts_with("--")).collect();
    if files.len() != 2 {
        usage("--compare needs two result files");
    }
    let load = |p: &str| -> (Fingerprint, RunResult, String) {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| usage(&format!("{p}: {e}")));
        let v = serde_json::parse(&text).unwrap_or_else(|e| usage(&format!("{p}: {e}")));
        let fields = v
            .as_object()
            .unwrap_or_else(|| usage("result is not an object"));
        let get =
            |k: &str| result::field(fields, k).unwrap_or_else(|| usage(&format!("{p}: no {k}")));
        let fp = Fingerprint::from_value(get("fingerprint")).unwrap_or_else(|e| usage(&e));
        let summary = RunResult::from_value(get("summary")).unwrap_or_else(|e| usage(&e));
        let workload = match get("workload") {
            Value::Str(s) => s.clone(),
            _ => usage("workload is not a string"),
        };
        (fp, summary, workload)
    };
    let (fa, ra, wa) = load(files[0]);
    let (fb, rb, wb) = load(files[1]);
    if wa != wb {
        eprintln!("perfbench: refusing to compare workload {wa} with {wb}");
        std::process::exit(3);
    }
    let marker = if fa.same_machine(&fb) {
        ""
    } else if allow {
        "CROSS-MACHINE "
    } else {
        eprintln!(
            "perfbench: refusing to compare results from different machines:\n  {:?}\n  {:?}\n\
             (pass --allow-cross-machine to print a marked comparison)",
            fa, fb
        );
        std::process::exit(3);
    };
    println!(
        "{marker}comparison of {wa}: {} -> {}",
        fa.source_digest, fb.source_digest
    );
    for m in &ra.metrics {
        if let Some(n) = rb.metrics.iter().find(|n| n.name == m.name) {
            let change = (n.value - m.value) / m.value.abs().max(f64::MIN_POSITIVE) * 100.0;
            println!(
                "{marker}{:<28} {:>14.6} -> {:>14.6} {:<10} ({change:+.2}%)",
                m.name, m.value, n.value, m.unit
            );
        }
    }
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        compare(&argv[1..]);
    }
    let args = parse(&argv);
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; aborting");
        std::process::exit(4);
    });
    let fingerprint = Fingerprint::current();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "machine: {} | nproc {} | features {} | {} | commit {} | sources {}",
        fingerprint.cpu_model,
        fingerprint.nproc,
        fingerprint.target_features.join(","),
        fingerprint.rustc,
        fingerprint.commit,
        fingerprint.source_digest
    );
    let outcome = if args.trace {
        layers::traced(args.kind, args.seed)
    } else {
        match args.kind {
            Kind::Small => workloads::serve_small(args.seed, args.seconds),
            Kind::Bulk => workloads::serve_bulk(args.seed, args.seconds),
            Kind::Learn => workloads::learn(args.seed),
        }
    };
    for (k, v) in &outcome.info {
        println!(
            "info {k} = {}",
            serde_json::to_string(v).expect("a Value always renders")
        );
    }
    for m in &outcome.metrics {
        println!("metric {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.reported {
        println!(
            "metric {:<28} {:>16.6} {} (reported, not gated)",
            m.name, m.value, m.unit
        );
    }
    let summary = RunResult {
        correct: outcome.correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome.metrics,
    };
    let record = Value::Object(vec![
        ("workload".into(), Value::Str(args.kind.name().into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("fingerprint".into(), fingerprint.to_value()),
        (
            "reported".into(),
            RunResult::metrics_value(&outcome.reported),
        ),
        ("info".into(), Value::Object(outcome.info)),
        ("summary".into(), summary.to_value()),
    ]);
    let name = format!(
        "result-{}-seed{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Some(path) = write_out(&name, &record) {
        println!("result written to {}", path.display());
    }
    println!("{}", summary.to_line());
    if !summary.correct || summary.failed > 0 {
        std::process::exit(1);
    }
}
