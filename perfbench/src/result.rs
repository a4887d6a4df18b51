//! The result schema: the one-line JSON summary every run prints last,
//! the fuller record written beside it, and the machine fingerprint that
//! guards comparisons between records.

use serde::Value;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Fixed metric name (see `BENCHMARK.json`).
    pub name: String,
    /// Measured value, all digits kept.
    pub value: f64,
    /// Unit string.
    pub unit: String,
}

/// The summary line: exactly `correct`, `attempted`, `failed`, `metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Requests or operations the run attempted.
    pub attempted: u64,
    /// Of those, refused, errored, unsent or mismatched.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The summary as a JSON value.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Self::metrics_value(&self.metrics)),
        ])
    }

    /// `{name: {"value": v, "unit": u}, ...}` in the given order.
    pub fn metrics_value(metrics: &[Metric]) -> Value {
        Value::Object(
            metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Value::Object(vec![
                            ("value".into(), Value::Float(m.value)),
                            ("unit".into(), Value::Str(m.unit.clone())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Compact one-line JSON.
    pub fn to_line(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("a Value always renders")
    }

    /// Parse a summary back, rejecting any key outside the schema.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let fields = v.as_object().ok_or("summary is not an object")?;
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("summary keys {keys:?}"));
        }
        let get = |k: &str| field(fields, k).ok_or(format!("missing {k}"));
        let correct = match get("correct")? {
            Value::Bool(b) => *b,
            other => return Err(format!("correct: {other:?}")),
        };
        let attempted = as_u64(get("attempted")?).ok_or("attempted is not a count")?;
        let failed = as_u64(get("failed")?).ok_or("failed is not a count")?;
        let mut metrics = Vec::new();
        for (name, m) in get("metrics")?
            .as_object()
            .ok_or("metrics is not an object")?
        {
            let m = m.as_object().ok_or("metric is not an object")?;
            let value = field(m, "value").and_then(as_f64).ok_or("metric value")?;
            let unit = match field(m, "unit") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(format!("metric {name} has no unit")),
            };
            metrics.push(Metric {
                name: name.clone(),
                value,
                unit,
            });
        }
        Ok(Self {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// Look up an object field.
pub fn field<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Numeric value as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

/// Where and with what a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Target features the benchmark was compiled with.
    pub target_features: Vec<String>,
    /// `rustc --version` at build time.
    pub rustc: String,
    /// Git commit at build time, or `none` outside a checkout.
    pub commit: String,
    /// Digest of the workspace sources that were compiled.
    pub source_digest: String,
}

impl Fingerprint {
    /// Fingerprint of this process.
    pub fn current() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let candidates = [
            ("sse4.2", cfg!(target_feature = "sse4.2")),
            ("avx", cfg!(target_feature = "avx")),
            ("avx2", cfg!(target_feature = "avx2")),
            ("fma", cfg!(target_feature = "fma")),
            ("bmi2", cfg!(target_feature = "bmi2")),
            ("avx512f", cfg!(target_feature = "avx512f")),
            ("avx512vl", cfg!(target_feature = "avx512vl")),
            ("neon", cfg!(target_feature = "neon")),
        ];
        Self {
            cpu_model,
            nproc,
            target_features: candidates
                .iter()
                .filter(|(_, on)| *on)
                .map(|(f, _)| f.to_string())
                .collect(),
            rustc: env!("PERFBENCH_RUSTC").into(),
            commit: env!("PERFBENCH_COMMIT").into(),
            source_digest: env!("PERFBENCH_SOURCE_DIGEST").into(),
        }
    }

    /// The machine half only: results from different code on the same
    /// machine compare; results from different machines do not.
    pub fn same_machine(&self, other: &Self) -> bool {
        self.cpu_model == other.cpu_model
            && self.nproc == other.nproc
            && self.target_features == other.target_features
            && self.rustc == other.rustc
    }

    /// As a JSON value.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("cpu_model".into(), Value::Str(self.cpu_model.clone())),
            ("nproc".into(), Value::UInt(self.nproc as u64)),
            (
                "target_features".into(),
                Value::Array(
                    self.target_features
                        .iter()
                        .map(|f| Value::Str(f.clone()))
                        .collect(),
                ),
            ),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("commit".into(), Value::Str(self.commit.clone())),
            (
                "source_digest".into(),
                Value::Str(self.source_digest.clone()),
            ),
        ])
    }

    /// Parse back from [`Fingerprint::to_value`].
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let f = v.as_object().ok_or("fingerprint is not an object")?;
        let text = |k: &str| match field(f, k) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("fingerprint.{k} missing")),
        };
        let target_features = match field(f, "target_features") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|i| match i {
                    Value::Str(s) => Ok(s.clone()),
                    _ => Err("target feature is not a string".to_string()),
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("fingerprint.target_features missing".into()),
        };
        Ok(Self {
            cpu_model: text("cpu_model")?,
            nproc: field(f, "nproc")
                .and_then(as_f64)
                .ok_or("fingerprint.nproc missing")? as usize,
            target_features,
            rustc: text("rustc")?,
            commit: text("commit")?,
            source_digest: text("source_digest")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            correct: true,
            attempted: 120_345,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "latency_p50_ms".into(),
                    value: 0.712_345_678_9,
                    unit: "ms".into(),
                },
                Metric {
                    name: "setup_s".into(),
                    value: 1.234_5e-3,
                    unit: "s".into(),
                },
            ],
        }
    }

    #[test]
    fn summary_round_trips_exactly() {
        let r = sample();
        let line = r.to_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with(r#"{"correct":true,"attempted":120345,"failed":0,"metrics":{"#));
        let back = RunResult::from_value(&serde_json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(
            back.metrics[0].value.to_bits(),
            r.metrics[0].value.to_bits()
        );
    }

    #[test]
    fn summary_rejects_extra_keys() {
        let line = r#"{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}"#;
        assert!(RunResult::from_value(&serde_json::parse(line).unwrap()).is_err());
    }

    #[test]
    fn fingerprint_round_trips_and_compares() {
        let a = Fingerprint::current();
        let back = Fingerprint::from_value(
            &serde_json::parse(&serde_json::to_string(&a.to_value()).unwrap()).unwrap(),
        )
        .unwrap();
        assert_eq!(back, a);
        let mut other = a.clone();
        other.source_digest = "different-code".into();
        assert!(a.same_machine(&other));
        other.nproc += 1;
        assert!(!a.same_machine(&other));
    }
}
