//! The repository's benchmark: what a user of the GreenNFV reproduction
//! waits for, timed end to end, and the same loops split layer by layer.
//!
//! # Running
//!
//! From the repository root (the package builds the workspace crates from
//! source through path dependencies; its release profile must equal the
//! root's, which every run checks):
//!
//! ```text
//! cargo run --release -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload fleet-steady --seed 7 --seconds 30 --trace 0
//! ```
//!
//! * `--workload` one of `fleet-steady`, `fleet-churn`, `sharded-flows`,
//!   `train-fig9` (one workload per process, so `peak_rss_mb` is that
//!   workload's own peak).
//! * `--seed` (default 7) generates the workload's descriptor; the program
//!   receives only its serialized JSON.
//! * `--seconds` (default 30) measures reps for about this long: another
//!   rep starts while it is expected to end less than half a rep past it.
//!   A run always makes at least three reps.
//! * `--trace 1` runs the traced replica instead (see below) and prints the
//!   per-layer metrics; `--trace 0` prints the end-to-end metrics.
//! * `--smoke` shrinks every workload (≤16 nodes, 8 epochs, one rep, a
//!   4-episode training session in place of fig9) for a seconds-long check
//!   that every metric is produced; `cargo test --manifest-path
//!   benchmark/Cargo.toml` runs it for every workload, traced and not.
//!
//! Every run prints one human-readable line per metric (median, quartiles,
//! sample count and the highest percentile with at least ten samples
//! beyond it), then a detailed record line (`{"record":1,...}`: host block
//! with `nproc`, `rustc -V`, commit, profile and seed; the output digest;
//! failed checks; every metric with median, p25, p75 and n), then the
//! contract line `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! Every load is a closed loop with one caller on the benchmark's thread.
//!
//! `benchmark compare a.jsonl b.jsonl` reads untraced record lines (collect
//! them with `… | tee -a a.jsonl`), pairs the runs of each workload in file
//! order and prints one row per workload × end-to-end metric: *improved*
//! when `b` wins at least 9 of 10 pairs and the medians differ by more than
//! `a`'s quartile distance; *unresolved* when `a`'s own quartile distance
//! exceeds the metric's bound (unless every `b` run beats every `a` run);
//! *regressed* when `b`'s median is worse by more than the bound; else
//! *within bound*.
//!
//! `benchmark shard-worker` is the worker entry point: the binary sets
//! `NFV_SHARD_WORKER="<this exe> shard-worker"` for itself, so
//! `sharded-flows` does not depend on which other binaries were built.
//!
//! # Workloads
//!
//! | workload | what one rep does | why |
//! |---|---|---|
//! | `fleet-steady` | registry `fleet-diurnal-1000` (1000 nodes, 0.1% lane churn, incremental evaluation) at 2000 epochs: `from_json` + `build_cluster`, a streamed `Cluster::observe_epochs` horizon, `Scenario::run`, then the horizon streamed again on a freshly built cluster | incremental reuse skips nearly all sweep and aggregate work, so traffic sampling, staging, descriptor loading and scoring dominate: a scoring or descriptor-load fix shows here |
//! | `fleet-churn` | the same fleet with `jitter_frac: 0.05` on every lane and full evaluation | every lane is dirty every epoch, so the kernel sweep and aggregate fold do the work; an incremental-path change should not move it |
//! | `sharded-flows` | 32 nodes × one tenant × 128 seeded Poisson flows, `shards: 2`, full evaluation, 4000 epochs: `from_json` + `build_sharded`, the cluster's `run_epochs_eval` horizon, a single epoch on a freshly built cluster, then `Scenario::run` | the only workload that spawns workers and runs the frame codec, pipes and merge; heavy lanes make two shards beat the fused run, so coordinator overhead shows |
//! | `train-fig9` | the MaxT `TrainSession` fig9 trains is built, then `fig9_compare(Effort::Quick, seed)` (3 DDPG policies, Q-learning, 7 controller runs), then that session streams 64 episodes past replay warm-up | the paper's headline experiment; DDPG updates dominate and the simulator is under 1% of the time, so a simulator change should leave it unchanged |
//!
//! # End-to-end metrics (untraced, every workload)
//!
//! The output contract has every workload print every end-to-end metric, so
//! each metric has a per-workload meaning:
//!
//! | metric | unit | bound | fleet-* | sharded-flows | train-fig9 |
//! |---|---|---|---|---|---|
//! | `setup_s` | s | 25% | median `from_json` + `build_cluster` | median `from_json` + `build_sharded` | median of 25 builds of the MaxT `TrainSession`, timed after the reps so that the freed sessions do not raise `peak_rss_mb` |
//! | `run_s` | s | 25% | median `Scenario::run` (scoring included) | median sharded `Scenario::run` | median `fig9_compare` |
//! | `step_us` | µs | 25% | median gap between `observe_epochs` callbacks, pooled over both horizons of every rep | median marginal cost of an epoch: (`run_epochs_eval` of the horizon − of one epoch) / the other epochs, so worker spawn cancels out and scoring is excluded | median `TrainSession::run_episode` once past replay warm-up |
//! | `peak_rss_mb` | MB | 10% | `VmHWM` of the benchmark process (shard workers excluded), read after the reps and before the work that follows them | ← | ← |
//!
//! Output checks count as attempted operations; a failed one is printed by
//! name, counted in `failed`, and makes the process exit non-zero:
//! every rep yields the same digest; the streamed `observe_epochs` sums
//! (fleets) and the `run_epochs_eval` sums (sharded-flows) equal
//! `Scenario::run`'s means bit for bit; the sharded result equals the fused
//! (`shards: 0`) result, run once after the reps; fig9 holds the headline
//! shape bands of `tests/headline_ratios.rs`; every traced replica equals
//! its untraced call; this package's `[profile.release]` equals the root
//! workspace's. Of the fig9 bands, those that hold at every seed (the static
//! controllers' shape and the learned policies' SLA constraints) are checked
//! at the run's seed. The learned policies' margins over the static
//! controllers depend on how well one seed's training converges (6 of 187
//! seeds scanned miss one), so the traced run checks them on a fig9 run at
//! the test's seed, 42. The fig9 quality ratios are printed beside the paper's values
//! (`maxt_throughput_x` 4.4, `maxt_efficiency_x` 1.5, `mine_throughput_x`
//! 3.0, `mine_energy_frac` 0.5); they are outputs, not timings, and are
//! reported as per-layer metrics of the traced run.
//!
//! # The traced run and the layer map
//!
//! `--trace 1` runs the untraced rep once as a reference, then re-drives it
//! through the public functions of each layer with spans around the calls
//! (nothing inside the program is instrumented), asserts the replica's
//! outputs are bit-equal to the untraced call's, and writes every span to
//! `target/benchmark/spans-<workload>.jsonl`. Layers not on a workload's
//! path report 0. Each per-layer metric and the end-to-end metric it should
//! move:
//!
//! * `scenario.from_json_s`, `scenario.build_s` → `setup_s` (fleet-*,
//!   sharded-flows).
//! * `scenario.run_s`, `scenario.score_s` (run − build − epoch loop) →
//!   `run_s` and `peak_rss_mb` (fleet-*).
//! * `cluster.epoch_ns_per_lane` → `step_us` (fleet-*);
//!   `cluster.epoch_p99_us` is reported, not gated.
//! * `traffic.sample_ns_per_lane`, `batch.stage_ns_per_lane` → `step_us`
//!   on fleet-steady, where they dominate.
//! * `batch.sweep_ns_per_lane`, `engine.aggregate_ns_per_lane` → `step_us`
//!   on fleet-churn.
//! * `traffic.changed_frac`, `batch.dirty_frac`, `batch.kernel_lanes_frac`,
//!   `engine.nodes_reused_frac`: work versus useful work (≈0.001 on
//!   fleet-steady, 1.0 on fleet-churn). Only the incremental sweep reads
//!   the dirty mask, so under full evaluation every lane counts as dirty.
//! * `shard.fused_run_s`, `shard.speedup_x`, `shard.spawn_epoch1_s`,
//!   `shard.pipe_wait_s`, `shard.merge_ns_per_node`,
//!   `shard.epoch_encode_ns_per_node`, `shard.epoch_decode_ns_per_node`,
//!   `shard.frame_bytes_per_node`, `shard.blueprint_codec_s` → `run_s` and
//!   `peak_rss_mb` (sharded-flows). The per-lane layers of sharded-flows
//!   are measured on its fused replica.
//! * `fig9.ddpg_train_s`, `fig9.qlearn_train_s`, `fig9.controllers_s` →
//!   `run_s` (train-fig9).
//! * From a re-driven MaxT `TrainSession` (the one fig9 trains):
//!   `envs.step_us`, `envs.reset_us`, `ddpg.act_us`, `ddpg.td_error_us`,
//!   `ddpg.update_p50_us`, `ddpg.update_p99_us`, `per.push_us`,
//!   `per.sample_us`, `per.update_priorities_us`, `noise.sample_us`,
//!   `train.eval_episode_ms`, and the counts `train.updates`,
//!   `train.env_steps` → `run_s` and `step_us` (train-fig9). `envs.step_us`
//!   is the only simulator layer there.
//! * `trace.coverage` (span-covered time / untraced time) and
//!   `trace.overhead_frac` (traced / untraced wall time − 1), with their
//!   bases `trace.untraced_s` and `trace.traced_s`. Coverage is measured
//!   against the fleet rep, the fig9 call, and the sharded rep (whose
//!   scoring is not re-driven, and whose workers run in parallel).
//!
//! `nfv_sim::cache` and `greennfv::dag` are not exercised by any workload.
//!
//! # Baseline
//!
//! The code this benchmark was added on, default seed 7, `--seconds 30`,
//! release profile, `nproc` = 2 (AMD EPYC, 16 GB). Two sets of five runs per
//! workload, run in alternating order; median [p25, p75] of each set's five
//! values:
//!
//! | workload | metric | set a | set b |
//! |---|---|---|---|
//! | fleet-steady | `setup_s` | 1.411 [1.351, 1.473] | 1.390 [1.346, 1.409] |
//! | fleet-steady | `run_s` | 3.308 [3.147, 3.487] | 3.192 [3.154, 3.259] |
//! | fleet-steady | `step_us` | 20.50 [19.70, 20.94] | 19.80 [19.40, 19.98] |
//! | fleet-steady | `peak_rss_mb` | 219.4 [219.3, 219.5] | 219.5 [219.3, 219.5] |
//! | fleet-churn | `setup_s` | 1.399 [1.347, 1.414] | 1.391 [1.359, 1.411] |
//! | fleet-churn | `run_s` | 3.373 [3.255, 3.559] | 3.404 [3.333, 3.472] |
//! | fleet-churn | `step_us` | 83.75 [82.07, 85.10] | 84.10 [82.74, 85.48] |
//! | fleet-churn | `peak_rss_mb` | 219.4 [219.4, 219.4] | 219.4 [219.3, 219.6] |
//! | sharded-flows | `setup_s` | 0.3453 [0.3420, 0.3476] | 0.3496 [0.3412, 0.3651] |
//! | sharded-flows | `run_s` | 0.2029 [0.2007, 0.2061] | 0.2083 [0.1997, 0.2117] |
//! | sharded-flows | `step_us` | 47.05 [46.23, 47.58] | 47.62 [45.70, 49.41] |
//! | sharded-flows | `peak_rss_mb` | 105.6 [105.6, 105.8] | 105.8 [105.8, 105.8] |
//! | train-fig9 | `setup_s` | 0.000864 [0.000818, 0.001049] | 0.000840 [0.000816, 0.000872] |
//! | train-fig9 | `run_s` | 6.257 [6.095, 6.324] | 6.336 [6.030, 6.418] |
//! | train-fig9 | `step_us` | 3794 [3673, 3842] | 3790 [3668, 3862] |
//! | train-fig9 | `peak_rss_mb` | 32.43 [32.41, 32.54] | 32.48 [32.41, 32.56] |
//!
//! `benchmark compare a.jsonl b.jsonl` rates fifteen of the sixteen rows
//! *within bound* and train-fig9 `setup_s` *unresolved*: one run of set a
//! timed all 25 session builds slow (1.05 ms against 0.82 to 0.87 ms), which
//! widens set a's quartile distance to 27%. Every run of a workload has the
//! same digest, no check failed, and the fig9 ratios repeat exactly (seed 7:
//! `maxt_throughput_x` 3.897, `maxt_efficiency_x` 5.323,
//! `mine_throughput_x` 4.139, `mine_energy_frac` 0.740).
//!
//! Across ten different seeds per workload, run as two sets (seeds 301–310
//! and 401–410, about 20 minutes each), the quartile distances depend on the
//! shared host more than on the code. The second set, in a quiet period,
//! stayed under a third of the 25% bound for every metric but `setup_s`
//! (fleets 2.2% to 7.7%, sharded-flows 6.3% to 6.9%, train-fig9 4.6% to
//! 5.1%, `setup_s` up to 10%). The first set fell as the host's load eased,
//! every timing drifting down by 10% to 20% over the set, and its quartile
//! distances reached 10.7% to 27.0% (fleet-steady `step_us` to sharded-flows
//! `run_s`), `setup_s` up to 28.5%. The second set's medians were 5% to 20%
//! lower. An earlier set of 20-second runs with a single streamed fleet
//! horizon per rep, measured in a busier period, reached 47% on fleet-steady
//! `step_us`, where a burst of contention slowed every epoch by about 1.7×.
//! `peak_rss_mb` stayed within 2.1% in every set.
//!
//! Traced at seed 7, the layer spans cover 0.992 (fleet-steady), 1.024
//! (fleet-churn) and 1.000 (train-fig9) of the untraced time, and 1.032 on
//! sharded-flows, whose workers run in parallel. Coverage above 1 is the
//! traced replica running slower than its untraced reference
//! (`trace.overhead_frac` −0.008 to 0.036, on a shared host). On the
//! fleets `scenario.score_s` is ~99% of `Scenario::run` and
//! `scenario.from_json_s` ~99% of set-up; on train-fig9
//! `fig9.ddpg_train_s` is ~100% of `fig9_compare`, with
//! `ddpg.update_p50_us` ~400 µs against `envs.step_us` ~0.4 µs.

mod adapter;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use adapter::{Failure, Scale};
use stats::{Host, Record, Reported, PER_LAYER};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetSteady,
    FleetChurn,
    ShardedFlows,
    TrainFig9,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::FleetSteady,
        Workload::FleetChurn,
        Workload::ShardedFlows,
        Workload::TrainFig9,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet-steady",
            Workload::FleetChurn => "fleet-churn",
            Workload::ShardedFlows => "sharded-flows",
            Workload::TrainFig9 => "train-fig9",
        }
    }
}

const USAGE: &str =
    "usage: benchmark --workload <fleet-steady|fleet-churn|sharded-flows|train-fig9> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke]
       benchmark compare <a.jsonl> <b.jsonl>
       benchmark shard-worker";

const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 30.0;
/// Reps every untraced run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// Attempted operations and the names of the ones that failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: Vec<String>,
}

impl Tally {
    fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed.push(name.to_string());
        }
    }

    fn failure(&mut self, f: Failure) {
        self.attempted += 1;
        self.failed.push(format!("{}: {}", f.call, f.message));
    }
}

/// What one run reports.
#[derive(Default)]
struct Outcome {
    tally: Tally,
    metrics: Vec<Reported>,
    digest: u64,
    notes: Vec<(String, f64)>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("shard-worker") => {
            return match adapter::shard_worker() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("benchmark shard-worker: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            return match stats::compare(a, b) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("benchmark compare: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match std::env::current_exe() {
        Ok(exe) => std::env::set_var(
            adapter::WORKER_ENV,
            format!("{} shard-worker", exe.display()),
        ),
        Err(e) => eprintln!("benchmark: cannot locate this executable for shard workers: {e}"),
    }

    let host = Host::detect();
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let mut outcome = if args.trace {
        run_traced(&args, &scale)
    } else {
        run_untraced(&args, &scale)
    };
    outcome.tally.check(
        "release_profile_matches_root",
        release_profile_matches_root(),
    );

    let record = Record {
        workload: args.workload.name(),
        trace: args.trace,
        seed: args.seed,
        host: &host,
        digest: outcome.digest,
        attempted: outcome.tally.attempted,
        failed: &outcome.tally.failed,
        metrics: &outcome.metrics,
        notes: &outcome.notes,
    };
    println!(
        "# {} seed={} trace={} nproc={} rustc=\"{}\" commit={} profile={}",
        record.workload,
        args.seed,
        u8::from(args.trace),
        host.nproc,
        host.rustc,
        host.commit,
        host.profile
    );
    for m in &outcome.metrics {
        println!("{}", m.human());
    }
    for (name, value) in &outcome.notes {
        println!("{name:<32} {value:>14.6}");
    }
    for name in &outcome.tally.failed {
        println!("FAILED {name}");
    }
    println!("{}", record.detail_line());
    println!("{}", record.contract_line());
    if outcome.tally.failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Untraced reps until `--seconds` have passed (at least [`MIN_REPS`]; one
/// at the smoke scale), reported as medians over reps or pooled steps.
fn run_untraced(args: &Args, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    let inputs = adapter::prepare(args.workload, args.seed, scale);
    out.tally.attempted += 1;
    let max_reps = if args.smoke { 1 } else { usize::MAX };
    let (mut setup, mut run, mut steps) = (Vec::new(), Vec::new(), Vec::new());
    let mut digest = None;
    let start = Instant::now();
    // Another rep starts while it is expected to end less than half a rep
    // past `--seconds`, so a run lasts about `--seconds` however long a rep is.
    let more = |reps: usize| {
        let elapsed = start.elapsed().as_secs_f64();
        reps < MIN_REPS || elapsed + 0.5 * elapsed / (reps as f64) < args.seconds
    };
    while run.len() < max_reps && more(run.len()) {
        let rep = match adapter::rep(&inputs) {
            Ok(rep) => rep,
            Err(f) => {
                out.tally.failure(f);
                break;
            }
        };
        out.tally.attempted += rep.calls;
        for (name, ok) in &rep.checks {
            out.tally.check(name, *ok);
        }
        out.tally.check(
            "digest_equal_across_reps",
            *digest.get_or_insert(rep.digest) == rep.digest,
        );
        setup.extend(rep.setup_s);
        run.push(rep.run_s);
        steps.extend(rep.steps_us);
        out.notes = rep
            .quality
            .iter()
            .flat_map(|(name, v, paper)| {
                [(name.to_string(), *v), (format!("{name}.paper"), *paper)]
            })
            .collect();
    }
    // Read before `after_reps`, whose work is not the workload's.
    let peak_mb = peak_rss_mb();
    if let Some(digest) = digest {
        out.digest = digest;
        match adapter::after_reps(&inputs, digest) {
            Ok(after) => {
                out.tally.attempted += after.calls;
                for (name, ok) in after.checks {
                    out.tally.check(name, ok);
                }
                setup.extend(after.setup_s);
            }
            Err(f) => out.tally.failure(f),
        }
    }
    if !setup.is_empty() && !steps.is_empty() {
        out.metrics = vec![
            Reported::sampled("setup_s", &setup),
            Reported::sampled("run_s", &run),
            Reported::sampled("step_us", &steps),
            Reported::single("peak_rss_mb", peak_mb),
        ];
    }
    out
}

/// One traced run: per-layer values, coverage and overhead, spans file.
fn run_traced(args: &Args, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    let traced = adapter::traced(&adapter::prepare(args.workload, args.seed, scale));
    let t = match traced {
        Ok(t) => t,
        Err(f) => {
            out.tally.failure(f);
            return out;
        }
    };
    out.tally.attempted += t.calls + 1;
    for (name, ok) in &t.checks {
        out.tally.check(name, *ok);
    }
    let path = format!("target/benchmark/spans-{}.jsonl", args.workload.name());
    if let Err(e) = trace::write_spans(Path::new(&path), &t.tracers) {
        out.tally.failure(Failure {
            call: "write spans",
            message: format!("{path}: {e}"),
        });
    }

    let mut values: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let derived = [
        ("trace.coverage", t.covered_s / t.untraced_s),
        ("trace.overhead_frac", t.traced_s / t.untraced_s - 1.0),
        ("trace.untraced_s", t.untraced_s),
        ("trace.traced_s", t.traced_s),
    ];
    for (name, v) in t.values.iter().chain(&derived) {
        let slot = values
            .iter_mut()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        slot.1 = *v;
    }
    out.metrics = values
        .into_iter()
        .map(|(name, v)| Reported::single(name, v))
        .collect();
    out.digest = t.digest;
    out
}

/// Whether this package's `[profile.release]` is the repository root's, so
/// that the benchmark times the code as `cargo build --release` at the root
/// builds it. Both manifests are read at compile time.
fn release_profile_matches_root() -> bool {
    let own = release_profile(include_str!("../Cargo.toml"));
    !own.is_empty() && own == release_profile(include_str!("../../Cargo.toml"))
}

/// The settings of a manifest's `[profile.release]` table, comments and
/// blank lines dropped.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or_default().trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
