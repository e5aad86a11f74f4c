//! One measured round over loopback TCP: set up a fleet server, drive one
//! workload's traffic through at most two client connections, read the
//! final consensus back, and shut the server down.

use crate::inputs::{Inputs, Schedule, Workload};
use crate::stats::nproc;
use crate::trace::Tracer;
use cpa_data::labels::LabelSet;
use cpa_serve::{FleetManifest, FleetOp, FleetReply, ReadKind};
use cpa_transport::{FleetClient, FleetServer, ReadSubscription, ServerConfig, WireFormat};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Full + ranged read pairs issued on the writer connection once the
/// window ends, all at the final epoch.
const READBACK_PAIRS: usize = 200;

/// The wire codec every connection uses.
pub const WIRE: WireFormat = WireFormat::Json;

/// One acknowledged ingest. Times are offsets from the round's origin.
#[derive(Debug, Clone, Copy)]
pub struct IngestSample {
    /// When the op was due: its schedule slot on an open loop, the
    /// previous ack on the closed loop.
    pub due: Duration,
    pub sent: Duration,
    pub acked: Duration,
    pub epoch: u64,
    pub answers: usize,
}

/// One polled read.
#[derive(Debug, Clone, Copy)]
pub struct ReadSample {
    pub ranged: bool,
    pub done: Duration,
    pub epoch: u64,
}

/// Everything one round observed.
#[derive(Debug, Default)]
pub struct Round {
    pub setup: Duration,
    /// Indices into `Inputs::ops` of the ops the writer sent.
    pub ops: Vec<usize>,
    /// The fleet right after the preload, when asked for (taken outside
    /// the set-up time).
    pub preloaded: Option<FleetManifest>,
    pub ingests: Vec<IngestSample>,
    /// Reads the poller made during the window (`read_mix` only).
    pub window_reads: Vec<ReadSample>,
    /// Reads made on the writer connection after the window.
    pub readback: Vec<ReadSample>,
    /// When a reader or subscriber first held a reply at each epoch.
    pub seen: Vec<(Duration, u64)>,
    pub final_predictions: Vec<LabelSet>,
    pub final_epoch: u64,
    /// Wall time from the first due op to the last ack.
    pub window: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, as messages.
    pub failures: Vec<String>,
    /// Client-side spans (empty unless traced): writer, then second client.
    pub tracers: Vec<Tracer>,
}

impl Round {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }
}

/// The second connection's role.
enum Second {
    None,
    Poller(FleetClient),
    Subscriber(ReadSubscription),
}

/// Runs one round. Set-up (fleet construction, preload replay, bind,
/// connect, subscription bootstrap) is timed into [`Round::setup`];
/// `snapshot` also keeps the preloaded state in [`Round::preloaded`].
pub fn round(
    inputs: &Inputs,
    workload: Workload,
    schedule: &Schedule,
    traced: bool,
    snapshot: bool,
) -> Round {
    let mut out = Round::default();
    let origin = Instant::now();

    let mut fleet = inputs.fleet(nproc());
    let replayed = fleet.replay(inputs.ops[..inputs.preload].iter().cloned());
    let preload = origin.elapsed();
    if snapshot {
        out.preloaded = Some(fleet.snapshot());
    }
    let connecting = Instant::now();
    if let Some(bad) = replayed
        .iter()
        .find(|r| !matches!(r, FleetReply::Ingested { .. }))
    {
        out.fail(format!("preload op rejected: {bad:?}"));
        return out;
    }
    let server = match FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_clients: 2,
            ..ServerConfig::default()
        },
    ) {
        Ok(server) => server,
        Err(e) => {
            out.fail(format!("bind: {e}"));
            return out;
        }
    };
    let addr = server
        .local_addr()
        .expect("a bound listener has an address");

    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.serve(fleet).map(|_| ()));
        let connected = connect(addr, workload);
        out.setup = preload + connecting.elapsed();
        match connected {
            Ok((mut writer, second)) => {
                drive(
                    inputs,
                    schedule,
                    traced,
                    origin,
                    &mut writer,
                    second,
                    &mut out,
                    scope,
                );
                if let Err(e) = writer.shutdown() {
                    out.fail(format!("shutdown: {e}"));
                }
            }
            Err(e) => {
                out.fail(format!("connect: {e}"));
                // Connections may have been refused half-way; a fresh one
                // still reaches the server to stop it.
                if let Ok(mut c) = FleetClient::connect_with(addr, WIRE) {
                    let _ = c.shutdown();
                }
            }
        }
        match serving.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.fail(format!("server: {e}")),
            Err(_) => out.fail("server thread panicked".into()),
        }
    });
    out
}

fn connect(
    addr: SocketAddr,
    workload: Workload,
) -> Result<(FleetClient, Second), cpa_transport::TransportError> {
    let writer = FleetClient::connect_with(addr, WIRE)?;
    let second = match workload {
        Workload::IngestStream => Second::None,
        Workload::ReadMix => Second::Poller(FleetClient::connect_with(addr, WIRE)?),
        Workload::PushFanout => Second::Subscriber(
            FleetClient::connect_with(addr, WIRE)?.subscribe_reads(ReadKind::Predictions, None)?,
        ),
    };
    Ok((writer, second))
}

/// The measured window plus the read-back, with the second client on its
/// own thread.
#[allow(clippy::too_many_arguments)]
fn drive<'scope>(
    inputs: &'scope Inputs,
    schedule: &Schedule,
    traced: bool,
    origin: Instant,
    writer: &mut FleetClient,
    second: Second,
    out: &mut Round,
    scope: &'scope std::thread::Scope<'scope, '_>,
) {
    let n = schedule.ops.len();
    let final_epoch = (inputs.preload + n) as u64;
    // The poller stops once it has read at `stop_at` or later; it is
    // raised from "never" to the final epoch when the writer is done.
    let stop_at = std::sync::Arc::new(AtomicU64::new(u64::MAX));
    let probe = inputs.probe.clone();
    let second = match second {
        Second::None => None,
        Second::Poller(client) => {
            let stop_at = stop_at.clone();
            Some(scope.spawn(move || poll(client, probe, &stop_at, traced, origin)))
        }
        Second::Subscriber(sub) => {
            Some(scope.spawn(move || subscribe(sub, final_epoch, traced, origin)))
        }
    };

    let mut tracer = Tracer::new(traced, origin);
    let start = origin.elapsed();
    let mut due = start;
    for (k, &idx) in schedule.ops.iter().enumerate() {
        let op = &inputs.ops[idx];
        if let Some(offsets) = &schedule.due {
            due = start + Duration::from_secs_f64(offsets[k]);
            let now = origin.elapsed();
            if due > now {
                tracer.span("loadgen.wait", |_| std::thread::sleep(due - now));
            }
        }
        let sent = origin.elapsed();
        let reply = tracer.span("transport.client.ingest", |_| writer.apply_op(op));
        let acked = origin.elapsed();
        out.attempted += 1;
        out.ops.push(idx);
        let expected = (inputs.preload + k + 1) as u64;
        match reply {
            Ok(FleetReply::Ingested { epoch, .. }) if epoch == expected => {
                out.ingests.push(IngestSample {
                    due,
                    sent,
                    acked,
                    epoch,
                    answers: inputs.answers[idx],
                });
            }
            other => {
                out.fail(format!(
                    "ingest {k}: expected epoch {expected}, got {other:?}"
                ));
                break;
            }
        }
        due = acked;
    }
    out.window = origin.elapsed().saturating_sub(start);
    // A writer that stopped early never reaches the final epoch: stop the
    // poller now (a subscriber ends at its read deadline).
    let broken = out.ingests.len() < n;
    stop_at.store(if broken { 0 } else { final_epoch }, Ordering::SeqCst);

    match second.map(|h| h.join()) {
        None => {}
        Some(Err(_)) => out.fail("second client thread panicked".into()),
        Some(Ok(SecondOut::Poller {
            reads,
            tracer: t,
            failures,
        })) => {
            out.attempted += reads.len() as u64;
            out.seen = first_seen(reads.iter().map(|r| (r.done, r.epoch)));
            out.window_reads = reads;
            out.tracers.push(t);
            for f in failures {
                out.fail(f);
            }
        }
        Some(Ok(SecondOut::Subscriber {
            deltas,
            sub,
            tracer: t,
            failures,
        })) => {
            out.attempted += deltas.len() as u64;
            out.seen = deltas;
            out.tracers.push(t);
            for f in failures {
                out.fail(f);
            }
            // The subscription is closed before the read-back, so that the
            // read-back meets the same server as on `ingest_stream`.
            let (cached, cached_epoch) =
                (sub.cache().predictions().map(<[_]>::to_vec), sub.epoch());
            drop(sub);
            readback(inputs, writer, &mut tracer, origin, final_epoch, out);
            match cached {
                Some(cached) if cached_epoch == final_epoch && cached == out.final_predictions => {}
                _ => out.fail(format!(
                    "push cache at epoch {cached_epoch} differs from the poll refetch at epoch {final_epoch}"
                )),
            }
            out.tracers.insert(0, tracer);
            return;
        }
    }
    readback(inputs, writer, &mut tracer, origin, final_epoch, out);
    out.tracers.insert(0, tracer);
}

/// Alternating full and ranged reads on the writer connection at the
/// final epoch; the first full read is the round's served consensus.
fn readback(
    inputs: &Inputs,
    writer: &mut FleetClient,
    tracer: &mut Tracer,
    origin: Instant,
    final_epoch: u64,
    out: &mut Round,
) {
    let ranged_op = FleetOp::PredictItems {
        items: inputs.probe.clone(),
    };
    for k in 0..2 * READBACK_PAIRS {
        let ranged = k % 2 == 1;
        let (sample, reply) = timed_read(writer, ranged, &ranged_op, tracer, origin);
        out.attempted += 1;
        match (reply, ranged) {
            (Ok(FleetReply::Predictions { predictions, epoch }), false) if epoch == final_epoch => {
                if k == 0 {
                    out.final_predictions = predictions;
                    out.final_epoch = epoch;
                } else if predictions != out.final_predictions {
                    out.fail(format!("full read {k} changed at a fixed epoch"));
                }
            }
            (
                Ok(FleetReply::PredictedItems {
                    predictions, epoch, ..
                }),
                true,
            ) if epoch == final_epoch => {
                let sliced: Vec<&LabelSet> = inputs
                    .probe
                    .iter()
                    .map(|&i| &out.final_predictions[i])
                    .collect();
                if predictions.iter().ne(sliced) {
                    out.fail("ranged read differs from the full read".into());
                }
            }
            (other, _) => {
                out.fail(format!("read-back at epoch {final_epoch}: {other:?}"));
                return;
            }
        }
        out.readback.push(sample);
    }
}

fn timed_read(
    client: &mut FleetClient,
    ranged: bool,
    ranged_op: &FleetOp,
    tracer: &mut Tracer,
    origin: Instant,
) -> (
    ReadSample,
    Result<FleetReply, cpa_transport::TransportError>,
) {
    let reply = if ranged {
        tracer.span("transport.client.predict_items", |_| {
            client.apply_op(ranged_op)
        })
    } else {
        tracer.span("transport.client.predict", |_| {
            client.apply_op(&FleetOp::Predict)
        })
    };
    let done = origin.elapsed();
    let epoch = reply.as_ref().ok().and_then(FleetReply::epoch).unwrap_or(0);
    (
        ReadSample {
            ranged,
            done,
            epoch,
        },
        reply,
    )
}

enum SecondOut {
    Poller {
        reads: Vec<ReadSample>,
        tracer: Tracer,
        failures: Vec<String>,
    },
    Subscriber {
        /// (arrival, epoch) per delta.
        deltas: Vec<(Duration, u64)>,
        sub: ReadSubscription,
        tracer: Tracer,
        failures: Vec<String>,
    },
}

/// The closed-loop poller: full and ranged reads, alternating, until it
/// has read at `stop_at`.
fn poll(
    mut client: FleetClient,
    probe: Vec<usize>,
    stop_at: &AtomicU64,
    traced: bool,
    origin: Instant,
) -> SecondOut {
    let mut tracer = Tracer::new(traced, origin);
    let ranged_op = FleetOp::PredictItems { items: probe };
    let mut reads = Vec::new();
    let mut failures = Vec::new();
    let mut last = 0;
    loop {
        let ranged = reads.len() % 2 == 1;
        let (sample, reply) = timed_read(&mut client, ranged, &ranged_op, &mut tracer, origin);
        match reply {
            Ok(FleetReply::Predictions { .. } | FleetReply::PredictedItems { .. }) => {}
            other => {
                failures.push(format!("poll: {other:?}"));
                break;
            }
        }
        if sample.epoch < last {
            failures.push(format!(
                "read epoch went back from {last} to {}",
                sample.epoch
            ));
        }
        last = sample.epoch;
        reads.push(sample);
        if last >= stop_at.load(Ordering::SeqCst) {
            break;
        }
    }
    SecondOut::Poller {
        reads,
        tracer,
        failures,
    }
}

/// The push subscriber: applies deltas until its cache reaches
/// `final_epoch`.
fn subscribe(
    mut sub: ReadSubscription,
    final_epoch: u64,
    traced: bool,
    origin: Instant,
) -> SecondOut {
    let mut tracer = Tracer::new(traced, origin);
    let mut deltas = Vec::new();
    let mut failures = Vec::new();
    let mut expected = sub.epoch() + 1;
    while sub.epoch() < final_epoch {
        match tracer.span("transport.client.next_delta", |_| sub.next_delta()) {
            Ok(Some(delta)) => {
                let epoch = delta.applied.epoch;
                if epoch != expected {
                    failures.push(format!("delta at epoch {epoch}, expected {expected}"));
                }
                expected = epoch + 1;
                deltas.push((origin.elapsed(), epoch));
            }
            Ok(None) => {
                failures.push(format!("push stream ended at epoch {}", sub.epoch()));
                break;
            }
            Err(e) => {
                failures.push(format!("push stream: {e}"));
                break;
            }
        }
    }
    SecondOut::Subscriber {
        deltas,
        sub,
        tracer,
        failures,
    }
}

/// The first time each epoch (or a later one) was held, from a time-ordered
/// series of `(time, epoch)` observations.
fn first_seen(observations: impl Iterator<Item = (Duration, u64)>) -> Vec<(Duration, u64)> {
    let mut seen: Vec<(Duration, u64)> = Vec::new();
    for (at, epoch) in observations {
        if seen.last().is_none_or(|&(_, e)| epoch > e) {
            seen.push((at, epoch));
        }
    }
    seen
}

/// Freshness per ingest: from its due time to the first moment a reader
/// or subscriber held a reply at its epoch or later. `None` for an ingest
/// no reader ever saw.
pub fn visible(ingests: &[IngestSample], seen: &[(Duration, u64)]) -> Vec<Option<Duration>> {
    ingests
        .iter()
        .map(|i| {
            let k = seen.partition_point(|&(_, e)| e < i.epoch);
            seen.get(k).map(|&(at, _)| at.saturating_sub(i.due))
        })
        .collect()
}
