//! The traced in-process replay: one round's op schedule, with reads at
//! the epochs the traced round made them, driven through each layer's
//! public functions under spans.
//!
//! Three copies of the state advance in lock step from the same preload:
//! standalone per-shard engines fed by `ShardRouter::split_batch` (the
//! engine layer alone, which `shard_determinism` proves does the fleet's
//! engine work), a fleet with the server's thread count (the serve layer),
//! and a serial follower fed the shipped ops (replication; serial, so its
//! apply time minus the engine time of the same op is the fleet's own
//! work). Layers a workload does not exercise are probed on its last few
//! ops, so every layer metric is printed on every workload.

use crate::inputs::{Inputs, Workload, SHARDS};
use crate::stats::{median, ms, nproc, quantile, us, Metric};
use crate::trace::Tracer;
use cpa_core::engine::DynEngine;
use cpa_data::labels::LabelSet;
use cpa_data::stream::WorkerBatch;
use cpa_eval::runner::restore_engine;
use cpa_serve::{Fleet, FleetOp, FleetReply, Follower, ReadCache, ReadKind, ShippedOp};
use cpa_transport::codec::{self, assemble_delta_reply, assemble_ranged_reply};
use cpa_transport::WireFormat;
use std::collections::BTreeMap;
use std::time::Instant;

/// Ops at the end of the schedule on which an unexercised push path is
/// probed.
const PROBE_OPS: usize = 4;
/// Every this many ops, one dirty shard's truth estimate is timed.
const ESTIMATE_EVERY: usize = 8;
/// Repeat reads of one kind replayed per epoch (the rest are the same
/// cache hit again).
const HITS_PER_EPOCH: usize = 16;

/// What the replay measured.
pub struct Replayed {
    pub tracer: Tracer,
    pub dirty_per_op: Vec<usize>,
    pub ingest_bytes: [Vec<usize>; 2],
    pub full_reply_bytes: [Vec<usize>; 2],
    pub delta_bytes: Vec<usize>,
    pub final_predictions: Vec<LabelSet>,
    pub failures: Vec<String>,
}

/// Replays `ops` (indices into `Inputs::ops`) after the preload, with
/// `reads[e]` the kinds (`true` = ranged) of the reads made at epoch `e`,
/// in order.
pub fn replay(
    inputs: &Inputs,
    workload: Workload,
    ops: &[usize],
    reads: &BTreeMap<u64, Vec<bool>>,
) -> Result<Replayed, String> {
    let n = ops.len();
    let mut t = Tracer::new(true, Instant::now());
    let mut fleet = inputs.fleet(nproc());
    let preload = &inputs.ops[..inputs.preload];
    t.span("serve.fleet.replay", |_| {
        fleet.replay(preload.iter().cloned())
    });
    let manifest = fleet.snapshot();
    let mut engines: Vec<DynEngine> = manifest
        .shards
        .iter()
        .map(|c| restore_engine(c.clone()).map_err(|e| format!("shard restore: {e}")))
        .collect::<Result<_, _>>()?;
    let mut follower = Follower::new(
        Fleet::restore(manifest, 1, restore_engine).map_err(|e| format!("follower: {e}"))?,
    );
    let router = fleet.router();
    let index = fleet.shard_index();
    let answers = &inputs.dataset.answers;
    let universes = router.split_answers(answers);
    let mut cache: Option<ReadCache> = None;
    let ranged_op = FleetOp::PredictItems {
        items: inputs.probe.clone(),
    };
    // The push path runs on the fleet itself on `push_fanout`. Elsewhere it
    // is probed over the last ops on the follower's copy, so that warming
    // does not fill the slabs the workload's own reads would fill.
    let pushed = workload == Workload::PushFanout;
    let push_from = if pushed {
        0
    } else {
        n.saturating_sub(PROBE_OPS)
    };

    let mut out = Replayed {
        tracer: Tracer::new(false, Instant::now()),
        dirty_per_op: Vec::new(),
        ingest_bytes: [Vec::new(), Vec::new()],
        full_reply_bytes: [Vec::new(), Vec::new()],
        delta_bytes: Vec::new(),
        final_predictions: Vec::new(),
        failures: Vec::new(),
    };
    // Shards whose read slab is older than their engine.
    let mut stale = [false; SHARDS];
    let mut epoch = inputs.preload as u64;
    let mut ranged_filled = false;
    for k in 0..=n {
        if k > 0 {
            let root = t.begin("replay.op");
            let idx = ops[k - 1];
            let op = &inputs.ops[idx];
            epoch = (inputs.preload + k) as u64;
            // The fleet numbers the batch by its arrival position.
            let batch = WorkerBatch {
                index: epoch as usize,
                ..inputs.batches[idx].clone()
            };
            let encoded = [WireFormat::Json, WireFormat::Binary]
                .map(|f| codec::encode(f, op).expect("ingest ops encode"));
            for (bytes, e) in out.ingest_bytes.iter_mut().zip(&encoded) {
                bytes.push(e.len());
            }
            t.span("transport.codec.json.ingest_decode", |_| {
                codec::decode::<FleetOp>(WireFormat::Json, &encoded[0])
            })
            .map_err(|e| e.to_string())?;
            t.span("transport.codec.binary.ingest_decode", |_| {
                codec::decode::<FleetOp>(WireFormat::Binary, &encoded[1])
            })
            .map_err(|e| e.to_string())?;
            let splits = t.span("serve.router.split", |_| {
                router.split_batch(&batch, answers)
            });
            let dirty: Vec<usize> = (0..SHARDS)
                .filter(|&s| !splits[s].items.is_empty())
                .collect();
            out.dirty_per_op.push(dirty.len());
            for &s in &dirty {
                t.span("core.engine.ingest", |_| {
                    engines[s].ingest(&universes[s], &splits[s])
                });
                stale[s] = true;
            }
            let owned = op.clone();
            let reply = t.span("serve.fleet.apply_ingest", |_| fleet.apply(owned));
            if !matches!(reply, FleetReply::Ingested { epoch: e, .. } if e == epoch) {
                return Err(format!("replayed ingest {k}: {reply:?}"));
            }
            let shipped = ShippedOp::tagged(epoch, op.clone());
            t.span("serve.replica.apply", |_| follower.apply_shipped(shipped))
                .map_err(|e| format!("follower: {e}"))?;
            if k % ESTIMATE_EVERY == 0 {
                let s = dirty.first().copied().unwrap_or(0);
                t.span("core.engine.estimate", |_| engines[s].estimate());
            }
            if let Some(cache) = cache.as_mut() {
                let pusher = if pushed { &fleet } else { follower.fleet() };
                if pushed {
                    predict_stale(&mut t, &engines, &mut stale, &dirty);
                }
                t.span("serve.view.warm", |_| {
                    pusher.warm_view(ReadKind::Predictions, &dirty)
                });
                // Rows for the dirty shards' items, encoded once per (epoch,
                // shard) as the server's row cache does, then spliced.
                let view = pusher.view_handle().current();
                let mut rows: Vec<(usize, Vec<u8>)> = Vec::new();
                for &s in &dirty {
                    let slab = view
                        .shard_predictions(s)
                        .ok_or_else(|| format!("shard {s} not warm at epoch {epoch}"))?;
                    for &i in index.items_of(s) {
                        let row = codec::encode(WireFormat::Json, &slab[i as usize])
                            .expect("label sets encode");
                        rows.push((i as usize, row));
                    }
                }
                rows.sort_by_key(|&(i, _)| i);
                let items: Vec<usize> = rows.iter().map(|&(i, _)| i).collect();
                let refs: Vec<&[u8]> = rows.iter().map(|(_, r)| r.as_slice()).collect();
                let delta = t.span("transport.codec.json.delta_splice", |_| {
                    assemble_delta_reply(
                        WireFormat::Json,
                        "PredictedDelta",
                        "predictions",
                        &items,
                        &refs,
                        &dirty,
                        epoch,
                    )
                });
                out.delta_bytes.push(delta.len());
                let frame: FleetReply = codec::decode(WireFormat::Json, &delta)
                    .map_err(|e| format!("delta frame: {e}"))?;
                t.span("serve.push.cache_apply", |_| cache.apply(&frame))
                    .map_err(|e| format!("delta apply: {e}"))?;
            }
            t.end(root);
        }
        if k == push_from {
            let pusher = if pushed { &fleet } else { follower.fleet() };
            cache = Some(bootstrap(pusher)?);
        }

        // A workload that never reads ranged before its last epoch gets one
        // probe read there, so the ranged fill path is timed everywhere.
        let probe = [true];
        let scheduled: &[bool] = reads.get(&epoch).map_or(&[], Vec::as_slice);
        let at_epoch = if k + 1 == n && !ranged_filled && scheduled.is_empty() {
            &probe[..]
        } else {
            scheduled
        };
        let mut served = [0usize; 2];
        for (j, &ranged) in at_epoch.iter().enumerate() {
            let count = &mut served[usize::from(ranged)];
            if *count >= HITS_PER_EPOCH {
                continue;
            }
            *count += 1;
            // The first read of an epoch falls through to the driver and
            // fills the slabs; every later read is a view hit.
            let first = j == 0;
            if first {
                let all: Vec<usize> = (0..SHARDS).collect();
                predict_stale(&mut t, &engines, &mut stale, &all);
                ranged_filled |= ranged;
            }
            let name = match (ranged, first) {
                (false, true) => "serve.view.fill",
                (true, true) => "serve.view.ranged_fill",
                (false, false) => "serve.view.hit",
                (true, false) => "serve.view.ranged_hit",
            };
            let op = if ranged {
                ranged_op.clone()
            } else {
                FleetOp::Predict
            };
            let reply = t.span(name, |_| fleet.apply(op));
            match (&reply, ranged) {
                (
                    FleetReply::Predictions {
                        epoch: e,
                        predictions,
                    },
                    false,
                ) if *e == epoch => {
                    if served[0] == 1 {
                        let json = t.span("transport.codec.json.full_reply_encode", |_| {
                            codec::encode(WireFormat::Json, &reply)
                        });
                        let bin = codec::encode(WireFormat::Binary, &reply);
                        out.full_reply_bytes[0].push(json.map_or(0, |b| b.len()));
                        out.full_reply_bytes[1].push(bin.map_or(0, |b| b.len()));
                        out.final_predictions = predictions.clone();
                    }
                }
                (
                    FleetReply::PredictedItems {
                        epoch: e,
                        predictions,
                        ..
                    },
                    true,
                ) if *e == epoch => {
                    let rows: Vec<Vec<u8>> = predictions
                        .iter()
                        .map(|p| codec::encode(WireFormat::Json, p).expect("label sets encode"))
                        .collect();
                    let rows: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
                    t.span("transport.codec.json.ranged_splice", |_| {
                        assemble_ranged_reply(
                            WireFormat::Json,
                            "PredictedItems",
                            "predictions",
                            &inputs.probe,
                            &rows,
                            epoch,
                        )
                    });
                }
                _ => return Err(format!("replayed read at epoch {epoch}: {reply:?}")),
            }
        }
    }
    if out.final_predictions.is_empty() {
        out.final_predictions = fleet.predict_all();
    }
    if cache.as_ref().and_then(ReadCache::predictions) != Some(&out.final_predictions[..]) {
        out.failures
            .push("replayed push cache differs from the full read".into());
    }
    if follower.fleet().predict_all() != out.final_predictions {
        out.failures
            .push("follower diverged from the fleet it replicates".into());
    }
    for (s, engine) in engines.iter().enumerate() {
        let standalone = engine.predict_all();
        if index
            .items_of(s)
            .iter()
            .any(|&i| standalone[i as usize] != out.final_predictions[i as usize])
        {
            out.failures.push(format!(
                "standalone shard {s} engine diverged from the fleet"
            ));
        }
    }
    out.tracer = t;
    Ok(out)
}

/// A predictions cache bootstrapped from `fleet` at its current epoch, as
/// a `SubscribeReads` over every item would start it.
fn bootstrap(fleet: &Fleet) -> Result<ReadCache, String> {
    let predictions = fleet.predict_all();
    let frame = FleetReply::PredictedDelta {
        items: (0..predictions.len()).collect(),
        predictions,
        dirty_shards: (0..SHARDS).collect(),
        epoch: fleet.epoch(),
    };
    ReadCache::from_bootstrap(ReadKind::Predictions, &frame).map_err(|e| format!("bootstrap: {e}"))
}

/// Runs the standalone engines' predictor for those of `shards` whose
/// slab is stale, under one span.
fn predict_stale(
    t: &mut Tracer,
    engines: &[DynEngine],
    stale: &mut [bool; SHARDS],
    shards: &[usize],
) {
    let todo: Vec<usize> = shards.iter().copied().filter(|&s| stale[s]).collect();
    if todo.is_empty() {
        return;
    }
    t.span("core.engine.predict", |_| {
        for &s in &todo {
            std::hint::black_box(engines[s].predict_all());
        }
    });
    for s in todo {
        stale[s] = false;
    }
}

/// The per-layer metrics of a traced run: the replay's spans, plus the
/// client-side view of the traced round and its untraced twin.
pub fn layer_metrics(
    replayed: &Replayed,
    traced: &crate::serve::Round,
    untraced: &crate::serve::Round,
    reads_polled: bool,
) -> Vec<Metric> {
    let t = &replayed.tracer;
    let med_ms = |name: &str| median(&t.durations(name).into_iter().map(ms).collect::<Vec<_>>());
    let med_us = |name: &str| median(&t.durations(name).into_iter().map(us).collect::<Vec<_>>());
    let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;

    // Per op: engine ingest summed over the dirty shards, and the serial
    // follower's apply minus that same engine work (the fleet's own work).
    let ops = t.ids("replay.op");
    let engine: Vec<f64> = ops
        .iter()
        .map(|&op| ms(t.child_total(op, "core.engine.ingest")))
        .collect();
    let fleet_self: Vec<f64> = ops
        .iter()
        .zip(&engine)
        .map(|(&op, e)| ms(t.child_total(op, "serve.replica.apply")) - e)
        .collect();
    let late = &engine[engine.len() - engine.len().div_ceil(4)..];

    // Client-side spans of the traced round, over both connections.
    let client_ms = |name: &str| {
        let spans: Vec<f64> = traced
            .tracers
            .iter()
            .flat_map(|t| t.durations(name))
            .map(ms)
            .collect();
        median(&spans)
    };
    let due_latency = |r: &crate::serve::Round| {
        median(
            &r.ingests
                .iter()
                .map(|i| ms(i.acked - i.due))
                .collect::<Vec<_>>(),
        )
    };
    let reads = if reads_polled {
        &traced.window_reads
    } else {
        &traced.readback
    };
    let mut epochs: Vec<u64> = reads.iter().map(|r| r.epoch).collect();
    epochs.dedup();
    let hits = reads.len() - epochs.len();
    let late_ms: Vec<f64> = traced.ingests.iter().map(|i| ms(i.sent - i.due)).collect();

    vec![
        Metric::new("core.engine.ingest_ms", median(&engine), "ms"),
        Metric::new("core.engine.ingest_late_ms", median(late), "ms"),
        Metric::new(
            "core.engine.estimate_ms",
            med_ms("core.engine.estimate"),
            "ms",
        ),
        Metric::new(
            "core.engine.predict_ms",
            med_ms("core.engine.predict"),
            "ms",
        ),
        Metric::new("serve.view.fill_ms", med_ms("serve.view.fill"), "ms"),
        Metric::new(
            "serve.view.ranged_fill_ms",
            med_ms("serve.view.ranged_fill"),
            "ms",
        ),
        Metric::new("serve.view.warm_ms", med_ms("serve.view.warm"), "ms"),
        Metric::new("serve.view.hit_us", med_us("serve.view.hit"), "us"),
        Metric::new(
            "serve.view.hit_ratio",
            hits as f64 / reads.len().max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "transport.codec.json.full_reply_encode_us",
            med_us("transport.codec.json.full_reply_encode"),
            "us",
        ),
        Metric::new(
            "transport.codec.json.ranged_splice_us",
            med_us("transport.codec.json.ranged_splice"),
            "us",
        ),
        Metric::new(
            "transport.codec.json.ingest_decode_us",
            med_us("transport.codec.json.ingest_decode"),
            "us",
        ),
        Metric::new(
            "transport.codec.binary.ingest_decode_us",
            med_us("transport.codec.binary.ingest_decode"),
            "us",
        ),
        Metric::new("serve.router.split_us", med_us("serve.router.split"), "us"),
        Metric::new("serve.fleet.self_ms", median(&fleet_self), "ms"),
        Metric::new(
            "serve.fleet.apply_ingest_ms",
            med_ms("serve.fleet.apply_ingest"),
            "ms",
        ),
        Metric::new(
            "transport.server.overhead_p50_ms.ingest",
            client_ms("transport.client.ingest") - med_ms("serve.fleet.apply_ingest"),
            "ms",
        ),
        Metric::new(
            "transport.client.read_full_p50_ms",
            client_ms("transport.client.predict"),
            "ms",
        ),
        Metric::new(
            "transport.client.read_ranged_p50_ms",
            client_ms("transport.client.predict_items"),
            "ms",
        ),
        Metric::new(
            "transport.server.overhead_p50_ms.read",
            client_ms("transport.client.predict") - med_ms("serve.view.hit"),
            "ms",
        ),
        Metric::new(
            "serve.push.cache_apply_us",
            med_us("serve.push.cache_apply"),
            "us",
        ),
        Metric::new(
            "transport.codec.json.delta_splice_us",
            med_us("transport.codec.json.delta_splice"),
            "us",
        ),
        Metric::new(
            "serve.push.delta_bytes_per_epoch",
            mean(&replayed.delta_bytes),
            "bytes",
        ),
        Metric::new(
            "serve.push.full_bytes_per_epoch",
            mean(&replayed.full_reply_bytes[0]),
            "bytes",
        ),
        Metric::new(
            "serve.fleet.replay_s",
            median(
                &t.durations("serve.fleet.replay")
                    .into_iter()
                    .map(|d| d.as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        Metric::new(
            "serve.replica.apply_ms",
            med_ms("serve.replica.apply"),
            "ms",
        ),
        Metric::new(
            "serve.router.dirty_shards_per_ingest",
            mean(&replayed.dirty_per_op),
            "count",
        ),
        Metric::new(
            "transport.codec.json.ingest_bytes",
            mean(&replayed.ingest_bytes[0]),
            "bytes",
        ),
        Metric::new(
            "transport.codec.binary.ingest_bytes",
            mean(&replayed.ingest_bytes[1]),
            "bytes",
        ),
        Metric::new(
            "transport.codec.json.full_reply_bytes",
            mean(&replayed.full_reply_bytes[0]),
            "bytes",
        ),
        Metric::new(
            "transport.codec.binary.full_reply_bytes",
            mean(&replayed.full_reply_bytes[1]),
            "bytes",
        ),
        Metric::new("loadgen.late_p90_ms", quantile(&late_ms, 0.9), "ms"),
        Metric::new("loadgen.ops_sent", traced.ingests.len() as f64, "count"),
        Metric::new(
            "trace.overhead_ratio",
            due_latency(traced) / due_latency(untraced),
            "ratio",
        ),
    ]
}
