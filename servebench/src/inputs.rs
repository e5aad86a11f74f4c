//! The benchmark's inputs and workload shapes. Everything here is built
//! from `--seed` before timing starts and is not part of the system under
//! test: a simulated movie×1.0 crowd, its arrival stream cut into one
//! `Ingest` op per worker, and the op schedule each workload offers.

use cpa_core::engine::DynEngine;
use cpa_data::dataset::Dataset;
use cpa_data::profile::DatasetProfile;
use cpa_data::simulate::simulate;
use cpa_data::stream::{WorkerBatch, WorkerStream};
use cpa_eval::experiments::served::ranged_probe;
use cpa_eval::runner::{restore_engine, Method};
use cpa_math::rng::seeded;
use cpa_serve::{Fleet, FleetOp};
use rand::seq::SliceRandom;

/// Shards in the served fleet.
pub const SHARDS: usize = 4;

/// Offered load of the open-loop workloads, in answers per second: each
/// worker's op is followed by a gap of its answers (at least
/// [`MIN_OP_ANSWERS`]) over this rate. About half the knee measured with
/// `--mode knee` (see the README); ~5 one-worker ingests per second.
pub const OPEN_LOOP_ANSWERS_PER_S: f64 = 90.0;

/// The fewest answers an op is paced as, so that no two ops are due
/// closer than `MIN_OP_ANSWERS / rate` apart (111 ms at 90/s, well above the
/// time one ingest plus one cold read fill keeps the driver busy).
pub const MIN_OP_ANSWERS: usize = 10;

/// The population every seed serves and its recorded history: a simulated
/// movie×1.0 crowd and one arrival order of it, drawn once, as a recorded
/// dataset would be. `--seed` draws the order in which the workers of the
/// measured window arrive.
pub const DATASET_SEED: u64 = 2018;

/// The CPA-SVI engine seed, part of the served configuration.
pub const ENGINE_SEED: u64 = 7;

/// Rounds an open-loop run splits its window over. Each round sets up
/// afresh and offers its own third of the window's ops.
pub const OPEN_LOOP_ROUNDS: usize = 3;

/// Fewest ops an open-loop round offers, whatever the run's seconds: three
/// rounds then pool at least 102 samples, so every p90 has ten beyond it.
pub const MIN_OPEN_LOOP_OPS: usize = 34;

/// The named traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One closed-loop writer over the whole stream, no readers.
    IngestStream,
    /// An open-loop writer plus one closed-loop poller.
    ReadMix,
    /// An open-loop writer plus one push subscriber.
    PushFanout,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IngestStream,
        Workload::ReadMix,
        Workload::PushFanout,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestStream => "ingest_stream",
            Workload::ReadMix => "read_mix",
            Workload::PushFanout => "push_fanout",
        }
    }

    /// Share of the arrival stream's answers replayed in process during
    /// set-up.
    pub fn preload_share(self) -> f64 {
        match self {
            Workload::IngestStream => 0.1,
            Workload::ReadMix | Workload::PushFanout => 0.6,
        }
    }

    /// The open-loop offered rate in answers per second, or `None` for a
    /// closed loop.
    pub fn open_loop_rate(self) -> Option<f64> {
        match self {
            Workload::IngestStream => None,
            Workload::ReadMix | Workload::PushFanout => Some(OPEN_LOOP_ANSWERS_PER_S),
        }
    }
}

/// One seed's inputs.
pub struct Inputs {
    pub dataset: Dataset,
    /// One-worker arrival batches, in arrival order.
    pub batches: Vec<WorkerBatch>,
    /// The same batches as self-contained `Ingest` ops.
    pub ops: Vec<FleetOp>,
    /// Answers carried by each op.
    pub answers: Vec<usize>,
    /// Ops replayed in process during set-up.
    pub preload: usize,
    /// Ops after the preload that a run offers: on an open loop, those its
    /// rounds send within the run's seconds; on the closed loop, all.
    pub window: usize,
    /// The 32 items every ranged read asks for.
    pub probe: Vec<usize>,
}

impl Inputs {
    pub fn new(seed: u64, workload: Workload, seconds: f64) -> Self {
        let dataset = simulate(&DatasetProfile::movie(), DATASET_SEED).dataset;
        let mut batches = WorkerStream::new(&dataset, 1, &mut seeded(DATASET_SEED)).into_batches();
        // The preload is cut by answers, not ops: how much the engines must
        // catch up on (and every later op's cost) follows the answers seen,
        // and workers' answer counts are heavy-tailed.
        let answers_of = |b: &WorkerBatch| dataset.answers.worker_answers(b.workers[0]).len();
        let total: usize = batches.iter().map(answers_of).sum();
        let target = (total as f64 * workload.preload_share()).round() as usize;
        let preload = batches
            .iter()
            .scan(0, |seen, b| {
                *seen += answers_of(b);
                Some(*seen)
            })
            .take_while(|&seen| seen <= target)
            .count();
        let later: Vec<usize> = batches[preload..].iter().map(answers_of).collect();
        let window = match workload.open_loop_rate() {
            None => later.len(),
            Some(rate) => paced_ops(&later, rate, seconds)
                .max(OPEN_LOOP_ROUNDS * MIN_OPEN_LOOP_OPS)
                .min(later.len()),
        };
        // Every seed starts from the same history and offers the same
        // workers after it, so set-up replays the same work and the window
        // meets the same engine state and the same arrivals; the seed
        // draws their order.
        batches[preload..preload + window].shuffle(&mut seeded(seed));
        let ops: Vec<FleetOp> = batches
            .iter()
            .map(|b| FleetOp::ingest_from(&dataset.answers, b))
            .collect();
        let answers: Vec<usize> = ops
            .iter()
            .map(|op| match op {
                FleetOp::Ingest { answers, .. } => answers.len(),
                _ => unreachable!("the arrival stream holds only ingests"),
            })
            .collect();
        let probe = ranged_probe(dataset.num_items());
        Self {
            dataset,
            batches,
            ops,
            answers,
            preload,
            window,
            probe,
        }
    }

    /// A fresh K-shard CPA-SVI fleet over this population, its shard work
    /// spread over `threads` threads.
    pub fn fleet(&self, threads: usize) -> Fleet {
        let d = &self.dataset;
        let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
        Fleet::new(SHARDS, threads, i, u, c, |_| -> DynEngine {
            Method::CpaSvi.engine(i, u, c, ENGINE_SEED)
        })
        .with_restore_hook(restore_engine)
    }

    /// The writer's schedule for round `round`: the closed loop sends
    /// every op after the preload; open-loop round `r` offers the `r`-th
    /// third of the window's ops at the workload's rate.
    pub fn schedule(&self, workload: Workload, round: usize) -> Schedule {
        match workload.open_loop_rate() {
            None => Schedule {
                ops: (self.preload..self.ops.len()).collect(),
                due: None,
            },
            Some(rate) => {
                let per_round = self.window / OPEN_LOOP_ROUNDS;
                let first = self.preload + round * per_round;
                self.paced(first..first + per_round, rate)
            }
        }
    }

    /// The ops from `first` on that an open loop at `rate` answers/s
    /// offers within `seconds`.
    pub fn open_schedule(&self, rate: f64, seconds: f64, first: usize) -> Schedule {
        let n = paced_ops(&self.answers[first..], rate, seconds);
        self.paced(first..first + n, rate)
    }

    /// `ops` sent at `rate` answers/s: each op is followed by a gap of its
    /// answers (at least [`MIN_OP_ANSWERS`]) over the rate.
    fn paced(&self, ops: std::ops::Range<usize>, rate: f64) -> Schedule {
        let mut t = 0.0;
        let due = ops
            .clone()
            .map(|i| {
                let due = t;
                t += gap(self.answers[i], rate);
                due
            })
            .collect();
        Schedule {
            ops: ops.collect(),
            due: Some(due),
        }
    }
}

/// Seconds an open loop at `rate` answers/s waits after an op of `answers`.
fn gap(answers: usize, rate: f64) -> f64 {
    answers.max(MIN_OP_ANSWERS) as f64 / rate
}

/// How many ops of `answers` an open loop at `rate` offers within `seconds`.
fn paced_ops(answers: &[usize], rate: f64, seconds: f64) -> usize {
    let mut t = 0.0;
    answers
        .iter()
        .take_while(|&&a| {
            let due = t;
            t += gap(a, rate);
            due < seconds
        })
        .count()
}

/// The ops one round's writer sends, after the preload.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Indices into [`Inputs::ops`], in sending order. The k-th is applied
    /// at epoch `preload + k + 1`.
    pub ops: Vec<usize>,
    /// Each op's due offset in seconds from the window start on an open
    /// loop; `None` on the closed loop, where an op is due when the
    /// previous one is acked.
    pub due: Option<Vec<f64>>,
}
