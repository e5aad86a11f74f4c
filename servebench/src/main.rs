//! `servebench` — the serving benchmark of the cpa fleet.
//!
//! ```text
//! servebench --workload <ingest_stream|read_mix|push_fanout> --seed N --seconds S --trace 0|1
//! servebench --mode steady --workload W --runs N --seconds S [--seed N] [--trace 0|1]
//! servebench --mode knee [--workload W] --rates 90,135,180,... --seconds S [--seed N]
//! ```
//!
//! The default mode drives a loopback `FleetServer` (K=4 CPA-SVI shards,
//! JSON wire, at most two client connections) through one workload and
//! prints, as its last line, `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a separate traced run with `--trace 1`. The first line
//! records the host, the line before the result the share of CPU time the
//! hypervisor stole during the run. A failed correctness check exits with
//! code 1. See README.md for the workloads, metrics and modes.

mod inputs;
mod replay;
mod serve;
mod stats;
mod trace;

use cpa_data::labels::LabelSet;
use cpa_eval::metrics::evaluate;
use cpa_eval::runner::restore_engine;
use cpa_serve::Fleet;
use inputs::{Inputs, Workload, SHARDS};
use serve::{round, Round};
use stats::{median, ms, nproc, quantile, quartiles, samples_beyond, Metric};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Fewest set-ups (rounds) in any run; an open-loop run makes exactly
/// this many, one per third of its window.
const MIN_ROUNDS: usize = inputs::OPEN_LOOP_ROUNDS;
/// Fewest samples a named percentile must have beyond it.
const MIN_BEYOND: usize = 10;
/// Below the knee, an open loop achieves at least this share of its
/// offered answers/s ...
const KNEE_SHARE: f64 = 0.95;
/// ... and sends its ops no later than this p90 after their due times.
const KNEE_LATE_MS: f64 = 10.0;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    rates: Vec<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: "run".into(),
        workload: Workload::ReadMix,
        seed: 1,
        seconds: 10.0,
        trace: false,
        runs: 5,
        rates: vec![],
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--mode" => args.mode = value,
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--runs" => args.runs = value.parse().map_err(|e| bad(&e))?,
            "--rates" => {
                args.rates = value
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|e| bad(&e))?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, args.mode.as_str()) {
        (Some(w), _) => args.workload = w,
        (None, "knee") => {}
        (None, _) => return Err("--workload is required".into()),
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match args.mode.as_str() {
        "run" => run(&args),
        "steady" => steady(&args),
        "knee" => knee(&args),
        other => {
            eprintln!("error: unknown mode {other}");
            ExitCode::from(2)
        }
    }
}

/// The configuration line printed before every result.
fn host_line(args: &Args) -> String {
    let mut fields = stats::host();
    fields.extend([
        (
            "workload".into(),
            serde::Value::Str(args.workload.name().into()),
        ),
        ("seed".into(), serde::Value::UInt(args.seed)),
        ("wire".into(), serde::Value::Str("json".into())),
        ("shards".into(), serde::Value::UInt(SHARDS as u64)),
        ("fleet_threads".into(), serde::Value::UInt(nproc() as u64)),
        ("trace".into(), serde::Value::Bool(args.trace)),
    ]);
    serde_json::to_string(&serde::Value::Object(vec![(
        "host".into(),
        serde::Value::Object(fields),
    )]))
    .expect("the host line encodes")
}

/// A run's verdict: ops attempted and failed, and why.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Verdict {
    fn absorb(&mut self, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.failures.extend(round.failures.iter().cloned());
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Prints the result line and returns the exit code.
    fn finish(self, metrics: &[Metric]) -> ExitCode {
        for f in &self.failures {
            eprintln!("check failed: {f}");
        }
        let correct = self.failures.is_empty();
        println!("{}", stats::machine_line());
        println!(
            "{}",
            stats::result_line(correct, self.attempted.max(1), self.failed, metrics)
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> ExitCode {
    stats::mark_start();
    println!("{}", host_line(args));
    let inputs = Inputs::new(args.seed, args.workload, args.seconds);
    if args.trace {
        traced_run(args, &inputs)
    } else {
        measured_run(args, &inputs)
    }
}

/// Checks every round against `Fleet::replay_to_epoch` of its own op
/// stream in process: its ops replayed onto a restore of the first round's
/// preloaded fleet (every round replays the same preload). Rounds that
/// sent the same ops share one replay.
fn check_rounds(inputs: &Inputs, rounds: &[Round], v: &mut Verdict) {
    for r in rounds {
        v.absorb(r);
    }
    let Some(preloaded) = rounds.first().and_then(|r| r.preloaded.as_ref()) else {
        return;
    };
    let mut replayed: Vec<(&[usize], u64, Vec<LabelSet>)> = Vec::new();
    // A round without a final read has already failed.
    for (k, r) in rounds
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.final_predictions.is_empty())
    {
        if !replayed.iter().any(|(ops, _, _)| *ops == r.ops) {
            let fleet = Fleet::restore(preloaded.clone(), nproc(), restore_engine);
            let Ok(mut fleet) = fleet else {
                v.check(false, || {
                    format!("restoring the preloaded fleet: {fleet:?}")
                });
                return;
            };
            fleet.replay_to_epoch(r.ops.iter().map(|&i| inputs.ops[i].clone()), r.final_epoch);
            replayed.push((&r.ops, fleet.epoch(), fleet.predict_all()));
        }
        let (_, epoch, predictions) = replayed
            .iter()
            .find(|(ops, _, _)| *ops == r.ops)
            .expect("replayed above");
        v.check(
            *epoch == r.final_epoch && *predictions == r.final_predictions,
            || {
                format!(
                    "round {k}: served predictions differ from replay_to_epoch({})",
                    r.final_epoch
                )
            },
        );
    }
}

fn measured_run(args: &Args, inputs: &Inputs) -> ExitCode {
    let workload = args.workload;
    let closed = workload.open_loop_rate().is_none();
    let mut rounds: Vec<Round> = Vec::new();
    // The closed loop streams the whole stream per round, so it starts
    // another round only while that round is expected to end within
    // `--seconds` of measuring.
    let mut measured = 0.0;
    while rounds.len() < MIN_ROUNDS
        || (closed && measured * (1.0 + 1.0 / rounds.len() as f64) <= args.seconds)
    {
        let plan = inputs.schedule(workload, rounds.len());
        let r = round(inputs, workload, &plan, false, rounds.is_empty());
        measured += r.window.as_secs_f64();
        let broken = !r.failures.is_empty();
        rounds.push(r);
        if broken {
            break;
        }
    }
    let mut v = Verdict::default();
    check_rounds(inputs, &rounds, &mut v);

    let ingest: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.ingests.iter().map(|i| ms(i.acked - i.due)))
        .collect();
    let (answers, busy) = rounds
        .iter()
        .filter_map(|r| throughput_terms(&r.ingests))
        .fold((0, 0.0), |(a, t), (ra, rt)| (a + ra, t + rt));
    if !closed {
        warn_past_knee(&rounds, answers as f64 / busy);
    }
    // With no reader, the ack is the first reply carrying an ingest's epoch.
    let visible: Vec<Option<f64>> = rounds
        .iter()
        .flat_map(|r| {
            let acks: Vec<_> = r.ingests.iter().map(|i| (i.acked, i.epoch)).collect();
            let seen = if workload == Workload::IngestStream {
                &acks
            } else {
                &r.seen
            };
            serve::visible(&r.ingests, seen)
                .into_iter()
                .map(|d| d.map(ms))
        })
        .collect();
    v.check(visible.iter().all(Option::is_some), || {
        "an acked ingest never became visible to the reader".into()
    });
    let visible: Vec<f64> = visible.into_iter().flatten().collect();
    for (name, samples) in [("ingest", ingest.len()), ("visible", visible.len())] {
        v.check(samples_beyond(samples, 0.9) >= MIN_BEYOND, || {
            format!("{name}: {samples} samples leave fewer than {MIN_BEYOND} beyond p90")
        });
    }
    let f1: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.final_predictions.is_empty())
        .map(|r| evaluate(&r.final_predictions, &inputs.dataset.truth).f1)
        .collect();
    let f1 = f1.iter().sum::<f64>() / f1.len() as f64;

    let setup: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    let metrics = vec![
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("ingest_answers_per_s", answers as f64 / busy, "1/s"),
        Metric::new("ingest_p50_ms", quantile(&ingest, 0.5), "ms"),
        Metric::new("ingest_p90_ms", quantile(&ingest, 0.9), "ms"),
        Metric::new("visible_p50_ms", quantile(&visible, 0.5), "ms"),
        Metric::new("visible_p90_ms", quantile(&visible, 0.9), "ms"),
        Metric::new("consensus_f1", f1, "ratio"),
        Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
    ];
    v.finish(&metrics)
}

/// Answers of every op but the last, and the seconds from the first op's
/// due time to the last ack. On an open loop that keeps up this is the
/// offered rate less the last op's latency share; a backlog delays the
/// last ack and lowers it. On the closed loop it is the capacity.
fn throughput_terms(ingests: &[serve::IngestSample]) -> Option<(usize, f64)> {
    let (first, last) = (ingests.first()?, ingests.last()?);
    let answers = ingests.iter().map(|i| i.answers).sum::<usize>() - last.answers;
    Some((answers, (last.acked - first.due).as_secs_f64()))
}

/// Warns on stderr when an open-loop run left the region below the knee:
/// achieved answers/s under 95 % of the offered rate, or the generator
/// sending its ops late. The numbers of such a run measure a backlog.
fn warn_past_knee(rounds: &[Round], achieved: f64) {
    let (answers, span) = rounds
        .iter()
        .filter_map(|r| {
            let (answers, _) = throughput_terms(&r.ingests)?;
            let (first, last) = (r.ingests.first()?, r.ingests.last()?);
            Some((answers, (last.due - first.due).as_secs_f64()))
        })
        .fold((0, 0.0), |(a, t), (ra, rt)| (a + ra, t + rt));
    let offered = answers as f64 / span;
    let late: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.ingests.iter().map(|i| ms(i.sent - i.due)))
        .collect();
    let late_p90 = quantile(&late, 0.9);
    if achieved < KNEE_SHARE * offered || late_p90 > KNEE_LATE_MS {
        eprintln!(
            "warning: past the knee: {achieved:.1} of {offered:.1} offered answers/s, \
             generator late p90 {late_p90:.2} ms"
        );
    }
}

/// One untraced round, one traced round of the same schedule, then the
/// in-process replay of the traced round's ops and reads.
fn traced_run(args: &Args, inputs: &Inputs) -> ExitCode {
    let workload = args.workload;
    let plan = inputs.schedule(workload, 0);
    let untraced = round(inputs, workload, &plan, false, true);
    let traced = round(inputs, workload, &plan, true, false);
    let mut v = Verdict::default();
    let rounds = [untraced, traced];
    check_rounds(inputs, &rounds, &mut v);
    let [untraced, traced] = rounds;

    let polled = workload == Workload::ReadMix;
    let mut reads: BTreeMap<u64, Vec<bool>> = BTreeMap::new();
    for r in traced.window_reads.iter().chain(&traced.readback) {
        reads.entry(r.epoch).or_default().push(r.ranged);
    }
    let metrics = match replay::replay(inputs, workload, &traced.ops, &reads) {
        Ok(replayed) => {
            v.check(
                replayed.final_predictions == traced.final_predictions,
                || "the in-process replay ended at different predictions than the server".into(),
            );
            for f in &replayed.failures {
                v.check(false, || f.clone());
            }
            replay::layer_metrics(&replayed, &traced, &untraced, polled)
        }
        Err(e) => {
            v.check(false, || format!("replay: {e}"));
            Vec::new()
        }
    };
    v.finish(&metrics)
}

/// Runs this binary `--runs` times with consecutive seeds and prints, per
/// metric, the median, quartiles, their spread as a share of the median,
/// and the max/min ratio.
fn steady(args: &Args) -> ExitCode {
    println!("{}", host_line(args));
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut ok = true;
    for k in 0..args.runs {
        let seed = args.seed + k as u64;
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                args.workload.name(),
                "--seed",
                &seed.to_string(),
            ])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("the benchmark re-runs itself");
        let text = String::from_utf8_lossy(&out.stdout);
        let Some(line) = text.lines().last() else {
            eprintln!("seed {seed}: no output");
            ok = false;
            continue;
        };
        eprintln!("seed {seed}: {line}");
        let parsed: serde::Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("seed {seed}: unreadable result: {e}");
                ok = false;
                continue;
            }
        };
        ok &= out.status.success();
        let Some(metrics) = field(&parsed, "metrics").and_then(serde::Value::as_object) else {
            continue;
        };
        for (name, m) in metrics {
            let unit = match field(m, "unit") {
                Some(serde::Value::Str(u)) => u.clone(),
                _ => String::new(),
            };
            if let Some(x) = field(m, "value").and_then(number) {
                values
                    .entry(name.clone())
                    .or_insert((unit, vec![]))
                    .1
                    .push(x);
            }
        }
    }
    println!(
        "{:<44} {:>6} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "metric", "unit", "median", "q1", "q3", "iqr/med", "max/min"
    );
    for (name, (unit, v)) in &values {
        let med = median(v);
        let (q1, q3) = quartiles(v);
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{name:<44} {unit:>6} {med:>12.4} {q1:>12.4} {q3:>12.4} {:>8.3} {:>8.3}",
            (q3 - q1) / med.abs(),
            hi / lo
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn field<'a>(v: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn number(v: &serde::Value) -> Option<f64> {
    match *v {
        serde::Value::Float(x) => Some(x),
        serde::Value::Int(x) => Some(x as f64),
        serde::Value::UInt(x) => Some(x as f64),
        _ => None,
    }
}

/// Steps the open-loop offered rate and reports, per rate, achieved vs
/// offered throughput, ingest latency and how late the generator ran. The
/// knee is the first rate where achieved falls below offered or the
/// generator's lateness grows.
fn knee(args: &Args) -> ExitCode {
    println!("{}", host_line(args));
    let workload = if args.workload.open_loop_rate().is_some() {
        args.workload
    } else {
        Workload::ReadMix
    };
    let inputs = Inputs::new(args.seed, workload, args.seconds);
    println!(
        "{:>8} {:>10} {:>10} {:>6} {:>10} {:>10} {:>12} {:>12}",
        "rate", "offered/s", "achieved/s", "ops", "p50_ms", "p90_ms", "late_p90_ms", "visible_p50"
    );
    let mut knee = None;
    for &rate in &args.rates {
        let plan = inputs.open_schedule(rate, args.seconds, inputs.preload);
        let r = round(&inputs, workload, &plan, false, false);
        if !r.failures.is_empty() {
            eprintln!("rate {rate}: {:?}", r.failures);
            return ExitCode::FAILURE;
        }
        let Some((answers, busy)) = throughput_terms(&r.ingests) else {
            continue;
        };
        let achieved = answers as f64 / busy;
        // The same terms over due times instead of acks.
        let (first, last) = (r.ingests[0], r.ingests[r.ingests.len() - 1]);
        let offered = answers as f64 / (last.due - first.due).as_secs_f64();
        let lat: Vec<f64> = r.ingests.iter().map(|i| ms(i.acked - i.due)).collect();
        let late: Vec<f64> = r.ingests.iter().map(|i| ms(i.sent - i.due)).collect();
        let vis: Vec<f64> = serve::visible(&r.ingests, &r.seen)
            .into_iter()
            .flatten()
            .map(ms)
            .collect();
        let late_p90 = quantile(&late, 0.9);
        println!(
            "{rate:>8.2} {offered:>10.1} {achieved:>10.1} {:>6} {:>10.2} {:>10.2} {late_p90:>12.2} {:>12.2}",
            r.ingests.len(),
            quantile(&lat, 0.5),
            quantile(&lat, 0.9),
            median(&vis),
        );
        if knee.is_none() && (achieved < KNEE_SHARE * offered || late_p90 > KNEE_LATE_MS) {
            knee = Some(rate);
        }
    }
    match knee {
        Some(rate) => println!("knee: {rate} answers/s"),
        None => println!("knee: above every rate tried"),
    }
    ExitCode::SUCCESS
}
