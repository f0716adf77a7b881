//! Metric definitions, sample statistics, the host block, run records, and
//! the `compare` rule.

use std::path::Path;
use std::process::{Command, Stdio};

use serde::{DeError, Deserialize, Serialize, Value};

/// The direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `x` is strictly better than `y`.
    pub fn beats(self, x: f64, y: f64) -> bool {
        match self {
            Better::Lower => x < y,
            Better::Higher => x > y,
        }
    }

    /// Pairs (in order) in which the change run `b` beats the parent run `a`.
    pub fn wins(self, a: &[f64], b: &[f64]) -> usize {
        a.iter()
            .zip(b)
            .filter(|(x, y)| self.beats(**y, **x))
            .count()
    }
}

/// One metric the benchmark reports. `bound` (end-to-end metrics only) is
/// the share of the parent's median by which the metric may worsen before a
/// change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every workload's untraced run. The timing
/// bounds are the widest a regression gate may use: on the shared host the
/// benchmark was written on, bursts of contention that last seconds spread
/// ten runs' timings by up to 47% between their quartiles in busy periods
/// (see the baseline in the binary's documentation).
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", 0.25),
    e2e("run_s", "s", 0.25),
    e2e("step_us", "us", 0.25),
    e2e("peak_rss_mb", "MB", 0.1),
];

/// Per-layer metrics, printed by every workload's traced run (0 where the
/// workload never reaches the layer).
pub const PER_LAYER: [MetricDef; 47] = [
    layer("scenario.from_json_s", "s", Lower),
    layer("scenario.build_s", "s", Lower),
    layer("scenario.run_s", "s", Lower),
    layer("scenario.score_s", "s", Lower),
    layer("cluster.epoch_ns_per_lane", "ns", Lower),
    layer("cluster.epoch_p99_us", "us", Lower),
    layer("traffic.sample_ns_per_lane", "ns", Lower),
    layer("batch.stage_ns_per_lane", "ns", Lower),
    layer("batch.sweep_ns_per_lane", "ns", Lower),
    layer("engine.aggregate_ns_per_lane", "ns", Lower),
    layer("traffic.changed_frac", "frac", Lower),
    layer("batch.dirty_frac", "frac", Lower),
    layer("batch.kernel_lanes_frac", "frac", Lower),
    layer("engine.nodes_reused_frac", "frac", Higher),
    layer("shard.fused_run_s", "s", Lower),
    layer("shard.speedup_x", "x", Higher),
    layer("shard.spawn_epoch1_s", "s", Lower),
    layer("shard.pipe_wait_s", "s", Lower),
    layer("shard.merge_ns_per_node", "ns", Lower),
    layer("shard.epoch_encode_ns_per_node", "ns", Lower),
    layer("shard.epoch_decode_ns_per_node", "ns", Lower),
    layer("shard.frame_bytes_per_node", "B", Lower),
    layer("shard.blueprint_codec_s", "s", Lower),
    layer("fig9.ddpg_train_s", "s", Lower),
    layer("fig9.qlearn_train_s", "s", Lower),
    layer("fig9.controllers_s", "s", Lower),
    layer("fig9.maxt_throughput_x", "x", Higher),
    layer("fig9.maxt_efficiency_x", "x", Higher),
    layer("fig9.mine_throughput_x", "x", Higher),
    layer("fig9.mine_energy_frac", "frac", Lower),
    layer("envs.step_us", "us", Lower),
    layer("envs.reset_us", "us", Lower),
    layer("ddpg.act_us", "us", Lower),
    layer("ddpg.td_error_us", "us", Lower),
    layer("ddpg.update_p50_us", "us", Lower),
    layer("ddpg.update_p99_us", "us", Lower),
    layer("per.push_us", "us", Lower),
    layer("per.sample_us", "us", Lower),
    layer("per.update_priorities_us", "us", Lower),
    layer("noise.sample_us", "us", Lower),
    layer("train.eval_episode_ms", "ms", Lower),
    layer("train.updates", "count", Higher),
    layer("train.env_steps", "count", Higher),
    layer("trace.coverage", "frac", Higher),
    layer("trace.overhead_frac", "frac", Lower),
    layer("trace.untraced_s", "s", Lower),
    layer("trace.traced_s", "s", Lower),
];

/// Looks a metric up by name in either table.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

/// Quantile `p` of ascending `sorted` samples by the method Python's
/// `statistics.quantiles` uses by default ("exclusive"): position
/// `p·(n+1)`, linear interpolation, clamped to the sample range.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of an empty sample");
    let h = p * (n as f64 + 1.0);
    if h <= 1.0 {
        return sorted[0];
    }
    if h >= n as f64 {
        return sorted[n - 1];
    }
    let lo = h.floor();
    let i = lo as usize - 1;
    sorted[i] + (h - lo) * (sorted[i + 1] - sorted[i])
}

/// Percentiles the tail report may use, highest first.
const TAIL_LADDER: [f64; 3] = [0.999, 0.99, 0.9];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, and its value; `None` when fewer than 100 samples exist.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER.iter().find_map(|&p| {
        let beyond = ((1.0 - p) * sorted.len() as f64 + 1e-9).floor() as usize;
        (beyond >= 10).then(|| (p, quantile(sorted, p)))
    })
}

/// Median, quartiles, sample count, and supported tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&sorted, 0.5),
            p25: quantile(&sorted, 0.25),
            p75: quantile(&sorted, 0.75),
            n: sorted.len(),
            tail: tail_percentile(&sorted),
        }
    }
}

/// Quantile `p` of unsorted samples (0 when there are none).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, p)
}

/// Median of unsorted samples (0 when there are none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

// ---------------------------------------------------------------------------
// JSON through the vendored serde shim
// ---------------------------------------------------------------------------

/// An arbitrary JSON value, readable and writable through `serde_json`.
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

pub fn to_json(v: Value) -> String {
    serde_json::to_string(&Json(v)).expect("JSON rendering is infallible")
}

pub fn str_value(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn get<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

// ---------------------------------------------------------------------------
// Host block
// ---------------------------------------------------------------------------

/// Where a run was measured.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
    pub profile: &'static str,
}

impl Host {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Keep git from walking above the working directory, so a checkout
        // that is not a repository reports `unknown` rather than an
        // enclosing repository's commit.
        let cwd = std::env::current_dir().unwrap_or_default();
        let ceiling = cwd.parent().unwrap_or(Path::new("/")).to_path_buf();
        Host {
            nproc,
            rustc: first_line(Command::new("rustc").arg("-V")),
            commit: first_line(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .env("GIT_CEILING_DIRECTORIES", ceiling),
            ),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub fn to_value(&self, seed: u64) -> Value {
        Value::Map(vec![
            ("nproc".into(), Value::Int(self.nproc as i128)),
            ("rustc".into(), str_value(&self.rustc)),
            ("commit".into(), str_value(&self.commit)),
            ("profile".into(), str_value(self.profile)),
            ("seed".into(), Value::Int(i128::from(seed))),
        ])
    }
}

/// First stdout line of a command that exits successfully, else `unknown`.
fn first_line(cmd: &mut Command) -> String {
    cmd.stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

// ---------------------------------------------------------------------------
// Run records
// ---------------------------------------------------------------------------

/// One reported metric: its definition, the value the contract line
/// carries, and the spread of the samples behind it (`None` for a single
/// derived value such as a ratio or a count).
pub struct Reported {
    pub def: &'static MetricDef,
    pub value: f64,
    pub summary: Option<Summary>,
}

impl Reported {
    /// A timing reported as the median of `samples`.
    pub fn sampled(name: &str, samples: &[f64]) -> Self {
        let summary = Summary::of(samples);
        Reported {
            def: metric_def(name).expect("known metric"),
            value: summary.median,
            summary: Some(summary),
        }
    }

    pub fn single(name: &str, value: f64) -> Self {
        Reported {
            def: metric_def(name).expect("known metric"),
            value,
            summary: None,
        }
    }

    fn detail(&self) -> Value {
        let mut m = vec![
            ("value".into(), Value::Float(self.value)),
            ("unit".into(), str_value(self.def.unit)),
            ("better".into(), str_value(self.def.better.as_str())),
        ];
        if let Some(b) = self.def.bound {
            m.push(("bound".into(), Value::Float(b)));
        }
        if let Some(s) = &self.summary {
            m.push(("median".into(), Value::Float(s.median)));
            m.push(("p25".into(), Value::Float(s.p25)));
            m.push(("p75".into(), Value::Float(s.p75)));
            m.push(("n".into(), Value::Int(s.n as i128)));
            if let Some((p, v)) = s.tail {
                m.push(("tail_p".into(), Value::Float(p)));
                m.push(("tail".into(), Value::Float(v)));
            }
        }
        Value::Map(m)
    }

    /// One human-readable line: name, median, unit, quartiles and `n`.
    pub fn human(&self) -> String {
        match &self.summary {
            Some(s) => {
                let tail = s
                    .tail
                    .map(|(p, v)| format!(", p{} {v:.6}", p * 100.0))
                    .unwrap_or_default();
                format!(
                    "{:<32} {:>14.6} {:<5} (p25 {:.6}, p75 {:.6}{tail}, n={})",
                    self.def.name, self.value, self.def.unit, s.p25, s.p75, s.n
                )
            }
            None => format!(
                "{:<32} {:>14.6} {:<5}",
                self.def.name, self.value, self.def.unit
            ),
        }
    }
}

/// Everything one run reports.
pub struct Record<'a> {
    pub workload: &'a str,
    pub trace: bool,
    pub seed: u64,
    pub host: &'a Host,
    pub digest: u64,
    pub attempted: u64,
    pub failed: &'a [String],
    pub metrics: &'a [Reported],
    /// Extra named values shown beside the metrics (the fig9 quality
    /// ratios next to the paper's values).
    pub notes: &'a [(String, f64)],
}

impl Record<'_> {
    /// The detailed record line `compare` reads: host, digest, checks, and
    /// every metric with its spread.
    pub fn detail_line(&self) -> String {
        to_json(Value::Map(vec![
            ("record".into(), Value::Int(1)),
            ("workload".into(), str_value(self.workload)),
            ("trace".into(), Value::Bool(self.trace)),
            ("host".into(), self.host.to_value(self.seed)),
            ("digest".into(), str_value(&format!("{:016x}", self.digest))),
            ("attempted".into(), Value::Int(i128::from(self.attempted))),
            (
                "failed_checks".into(),
                Value::Seq(self.failed.iter().map(|f| str_value(f)).collect()),
            ),
            (
                "notes".into(),
                Value::Map(
                    self.notes
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Float(*v)))
                        .collect(),
                ),
            ),
            (
                "metrics".into(),
                Value::Map(
                    self.metrics
                        .iter()
                        .map(|m| (m.def.name.to_string(), m.detail()))
                        .collect(),
                ),
            ),
        ]))
    }

    /// The last stdout line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{value, unit}`.
    pub fn contract_line(&self) -> String {
        to_json(Value::Map(vec![
            ("correct".into(), Value::Bool(self.failed.is_empty())),
            ("attempted".into(), Value::Int(i128::from(self.attempted))),
            ("failed".into(), Value::Int(self.failed.len() as i128)),
            (
                "metrics".into(),
                Value::Map(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.def.name.to_string(),
                                Value::Map(vec![
                                    ("value".into(), Value::Float(m.value)),
                                    ("unit".into(), str_value(m.def.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]))
    }
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

/// Verdict of one workload × metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges change runs `b` against parent runs `a` (paired in order).
///
/// Improved: the change wins at least nine tenths of the pairs (ties count
/// for neither side) and the medians differ, in the better direction, by
/// more than the parent's quartile distance. Otherwise, when the parent's
/// own spread is wider than `bound` the metric is unresolved — unless every
/// change run beats every parent run; else a median worse by more than
/// `bound` is a regression, and anything else is within bound.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let sa = Summary::of(a);
    let sb = Summary::of(b);
    let pairs = a.len().min(b.len());
    let wins = better.wins(a, b);
    let gain = match better {
        Better::Lower => sa.median - sb.median,
        Better::Higher => sb.median - sa.median,
    };
    if pairs > 0 && wins * 10 >= pairs * 9 && gain > sa.p75 - sa.p25 {
        return Verdict::Improved;
    }
    let scale = sa.median.abs().max(f64::MIN_POSITIVE);
    let all_better = b.iter().all(|y| a.iter().all(|x| better.beats(*y, *x)));
    if (sa.p75 - sa.p25) / scale > bound && !all_better {
        Verdict::Unresolved
    } else if -gain / scale > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

/// One untraced run: its workload and each metric's value.
type Run = (String, Vec<(String, f64)>);

/// The untraced runs recorded in a file of record lines, in file order.
fn load_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(Json(Value::Map(map))) = serde_json::from_str::<Json>(line) else {
            continue;
        };
        let (Some(Value::Str(workload)), Some(Value::Map(metrics)), Some(Value::Bool(false))) = (
            get(&map, "workload"),
            get(&map, "metrics"),
            get(&map, "trace"),
        ) else {
            continue;
        };
        let values = metrics
            .iter()
            .filter_map(|(name, detail)| {
                let Value::Map(d) = detail else { return None };
                let v = get(d, "value")?.as_f64().ok()?;
                Some((name.clone(), v))
            })
            .collect();
        runs.push((workload.clone(), values));
    }
    if runs.is_empty() {
        return Err(format!("{path}: no untraced record lines"));
    }
    Ok(runs)
}

/// `benchmark compare <a.jsonl> <b.jsonl>`: one row per workload × metric.
pub fn compare(a_path: &str, b_path: &str) -> Result<String, String> {
    let a = load_runs(a_path)?;
    let b = load_runs(b_path)?;
    let mut workloads: Vec<&str> = a.iter().map(|(w, _)| w.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let values = |runs: &[Run], w: &str, m: &str| -> Vec<f64> {
        runs.iter()
            .filter(|(rw, _)| rw == w)
            .filter_map(|(_, vs)| vs.iter().find(|(n, _)| n == m).map(|(_, v)| *v))
            .collect()
    };
    let mut out = format!(
        "{:<14} {:<12} {:>36} {:>36} {:>6}  verdict\n",
        "workload", "metric", "a median [p25, p75]", "b median [p25, p75]", "wins"
    );
    for w in workloads {
        for def in &END_TO_END {
            let (va, vb) = (values(&a, w, def.name), values(&b, w, def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let wins = def.better.wins(&va, &vb);
            let v = verdict(&va, &vb, def.better, def.bound.unwrap_or(0.0));
            let cell = |s: Summary| format!("{:.6} [{:.6}, {:.6}]", s.median, s.p25, s.p75);
            out.push_str(&format!(
                "{w:<14} {:<12} {:>36} {:>36} {:>6}  {}\n",
                def.name,
                cell(sa),
                cell(sb),
                format!("{wins}/{}", va.len().min(vb.len())),
                v.as_str()
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.p25, s.median, s.p75), (2.75, 5.5, 8.25));
        assert_eq!(Summary::of(&[3.0]).median, 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let tail = |n: usize| tail_percentile(&(0..n).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(tail(99), None);
        assert_eq!(tail(100).map(|t| t.0), Some(0.9));
        assert_eq!(tail(999).map(|t| t.0), Some(0.9));
        assert_eq!(tail(1000).map(|t| t.0), Some(0.99));
        assert_eq!(tail(10_000).map(|t| t.0), Some(0.999));
    }

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(verdict(&a, &faster, Better::Lower, 0.1), Verdict::Improved);
        assert_eq!(verdict(&a, &slower, Better::Lower, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&a, &same, Better::Lower, 0.1), Verdict::WithinBound);
        assert_eq!(
            verdict(&a, &faster, Better::Higher, 0.1),
            Verdict::Regressed
        );
        // A parent whose own spread exceeds the bound cannot resolve a
        // small difference.
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 40.0 * f64::from(i % 2)).collect();
        let shifted: Vec<f64> = noisy.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(&noisy, &shifted, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
