//! `serve-linear`: open-loop point queries through the serving engine at a
//! fixed light rate, a batch phase, then a closed window that keeps the one
//! worker saturated; between rounds, churn batches are folded into new
//! snapshots and published with no reads in flight.
//!
//! Thread budget: one engine worker plus one generator (this thread, asleep
//! between sends or parked on `Ticket::wait`). Workers plus busy generator
//! threads never exceed two.

use crate::alloc;
use crate::layers::{self, Values};
use crate::oracle::{answer_hash, check_tickets, Change, Oracle, Verdict};
use crate::report::Outcome;
use crate::stats::{calibrate_ms, median, percentile, thread_cpu_s, SplitMix};
use crate::trace::{self, Kind, Observed, Span, TracedIndex, Tracer};
use rknn_core::{CursorScratch, Dataset, Euclidean, Neighbor, PointId, SearchStats};
use rknn_index::{DynamicIndex, KnnIndex, LinearScan};
use rknn_rdt::algorithm::{run_algorithm_batch, AlgorithmAnswer, RdtAlgorithm, RknnAlgorithm};
use rknn_rdt::{RdtParams, RknnAnswer};
use rknn_serve::{
    advance_snapshot, AdvanceReport, ChurnOp, Engine, EngineConfig, QueryError, QueryResponse,
    Snapshot, Ticket,
};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NAME: &str = "serve-linear";
const N: usize = 4_000;
const DIM: usize = 16;
const CLUSTERS: usize = 10;
const SIGMA: f64 = 1.0;
const K: usize = 10;
const T: f64 = 5.0;
/// Open-loop arrival rate: at most ~40% of one worker's saturated rate.
const RATE_QPS: f64 = 200.0;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 7;
/// Distinct point ids queries are drawn from; churn never removes them.
const QUERY_POOL: usize = 2_048;
/// Outstanding tickets in the closed phase.
const WINDOW: usize = 4;
/// Inserts and removes per churn batch.
const CHURN_HALF: usize = 8;
/// Churn batches folded in after each round.
const ADVANCE_PER_ROUND: usize = 4;
/// Length of each round's open-loop phase.
const OPEN_PHASE: Duration = Duration::from_millis(700);
/// Queries per `run_algorithm_batch` call, and calls per round.
const BATCH_CHUNK: usize = 100;
const BATCH_CHUNKS: usize = 2;
/// Closed-window completions per `sat_qps` sample, and samples per round.
const SAT_CHUNK: usize = 100;
const SAT_CHUNKS: usize = 2;
/// Queries replayed through the batch driver in the traced run.
const REPLAY: usize = 400;
/// A ticket unresolved this long after the run is counted lost.
const LOST_AFTER: Duration = Duration::from_secs(20);

/// Nominal length of one round. `--seconds` fixes the number of rounds,
/// so every run does the same work (and the same churn) however fast the
/// box is at the time.
const ROUND: Duration = Duration::from_millis(1_100);

fn rounds(seconds: f64) -> usize {
    ((seconds / ROUND.as_secs_f64()).round() as usize).max(3)
}

/// The seeded inputs: points, churn batches and the query stream.
struct Inputs {
    ds: Arc<Dataset>,
    batches: Vec<Vec<ChurnOp>>,
    pool: Vec<PointId>,
    seed: u64,
}

impl Inputs {
    fn new(seed: u64, seconds: f64) -> Self {
        let removable = N - QUERY_POOL;
        let batch_count = (rounds(seconds) * ADVANCE_PER_ROUND).min(removable / CHURN_HALF);
        let extra = batch_count * CHURN_HALF;
        let full = rknn_data::gaussian_blobs(N + extra, DIM, CLUSTERS, SIGMA, seed);
        let ds = full
            .subset(&(0..N).collect::<Vec<_>>())
            .expect("ids are in range")
            .into_shared();
        let mut rng = SplitMix::new(seed ^ 0x5e7e);
        let mut ids: Vec<PointId> = (0..N).collect();
        rng.shuffle(&mut ids);
        let (pool, removable) = ids.split_at(QUERY_POOL);
        let batches = (0..batch_count)
            .map(|b| {
                let at = b * CHURN_HALF;
                (at..at + CHURN_HALF)
                    .map(|i| ChurnOp::Insert(full.point(N + i).to_vec()))
                    .chain(
                        removable[at..at + CHURN_HALF]
                            .iter()
                            .map(|&id| ChurnOp::Remove(id)),
                    )
                    .collect()
            })
            .collect();
        Inputs {
            ds,
            batches,
            pool: pool.to_vec(),
            seed,
        }
    }

    /// The query stream: uniform draws from the query pool.
    fn stream(&self, salt: u64) -> impl Iterator<Item = PointId> + '_ {
        let mut rng = SplitMix::new(self.seed ^ salt);
        std::iter::repeat_with(move || self.pool[rng.below(self.pool.len())])
    }
}

/// How one submitted request ended.
enum Resolution {
    Answered {
        epoch: u64,
        submitted: Instant,
        started: Instant,
        finished: Instant,
        neighbors: std::ops::Range<usize>,
        work: SearchStats,
    },
    Failed(String),
    Lost,
}

/// Where a query was measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Through `run_algorithm_batch` on the live snapshot.
    Batch,
    /// Submitted open-loop on the fixed schedule.
    Open,
    /// Submitted in the closed window.
    Closed,
}

/// One query and how it ended.
struct Record {
    /// The request id (batch queries: 0, they are not tickets).
    id: u64,
    q: PointId,
    /// When the open loop was due to send it (otherwise: when sent).
    due: Instant,
    phase: Phase,
    round: usize,
    resolution: Resolution,
}

/// One churn batch folded in and published.
struct Advanced {
    total_ms: f64,
    publish_us: f64,
    report: AdvanceReport,
}

/// Everything a serving run measured, before it is turned into metrics.
struct Served<I> {
    setup: Vec<f64>,
    build: Vec<f64>,
    prepare: Vec<f64>,
    batch_qps: Vec<f64>,
    records: Vec<Record>,
    neighbors: Vec<Neighbor>,
    submit_us: Vec<f64>,
    accepted: Vec<u64>,
    rejected: u64,
    max_lag_ms: f64,
    gen_cpu_s: f64,
    advanced: Vec<Advanced>,
    advance_errors: Vec<String>,
    /// `d_k` cache (hits, misses) of the reads (open, batch and closed
    /// phases), not of the re-prewarm between rounds.
    read_dk: (u64, u64),
    stats: rknn_serve::EngineStats,
    peak_mb: f64,
    last: Arc<Snapshot<Euclidean, I, RdtAlgorithm>>,
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let build = |ds| LinearScan::build(ds, Euclidean);
    let mut v = Values::new();
    v.insert("env.calib_ms", calibrate_ms());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let inputs = Inputs::new(seed, seconds);
    let mut oracle = Oracle::new(&inputs.ds, K, threads);
    if !traced {
        let served = serve(&inputs, seconds, &build, None);
        let (mut out, _) = check(&inputs, &served, &mut oracle, &mut v);
        eprintln!(
            "{NAME}: env.calib_ms={:.3} gen.max_lag_ms={:.3} gen.lag_p50_ms={:.3} \
             serve.queue_wait_p50_ms={:.3} serve.service_p50_ms={:.3} served={} swaps={}",
            v["env.calib_ms"],
            served.max_lag_ms,
            v["gen.lag_p50_ms"],
            v["serve.queue_wait_p50_ms"],
            v["serve.service_p50_ms"],
            served.records.len(),
            served.advanced.len()
        );
        end_to_end(&mut out, &served, &v);
        return out;
    }

    let tracer = Arc::new(Tracer::new(RdtParams::new(K, T).rank_cap(N - 1), K));
    let wrap = {
        let tracer = Arc::clone(&tracer);
        move |ds| TracedIndex::new(build(ds), Arc::clone(&tracer))
    };
    let served = serve(&inputs, seconds, &wrap, Some(&tracer));
    let (mut out, work) = check(&inputs, &served, &mut oracle, &mut v);

    // Served queries: the engine's service interval is the query span; the
    // worker's cursor spans are adopted by the interval that encloses them.
    let mut spans = tracer.take();
    for r in served.records.iter().filter(|r| r.phase != Phase::Batch) {
        if let Resolution::Answered {
            started, finished, ..
        } = r.resolution
        {
            spans.push(Span {
                req: r.id,
                id: tracer.next_id(),
                parent: 0,
                kind: Kind::Query,
                thread: 0,
                start_ns: tracer.ns(started),
                end_ns: tracer.ns(finished),
                busy_ns: (finished - started).as_nanos() as u64,
                items: 0,
            });
        }
    }
    Tracer::adopt_orphans(&mut spans);
    match trace::breakdown(&spans) {
        Ok(rows) => layers::span_times(&rows, &mut v),
        Err(e) => out.problems.push(format!("trace: {e}")),
    }
    layers::work_counters(&work, &mut v);

    // Replay the query stream on the final snapshot through the batch
    // driver, untraced and traced in turn: RDT's own counters (which the
    // engine's responses do not carry), the tracing overhead, and a check
    // that tracing changes no answer.
    let snap = &served.last;
    let queries: Vec<PointId> = inputs.stream(0xb47c).take(REPLAY).collect();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut replay = None;
    let mut same = true;
    // One untimed replay first, so neither side pays for cold caches.
    run_algorithm_batch(snap.algo(), snap.index().inner(), &queries, 1);
    for _ in 0..5 {
        let plain = run_algorithm_batch(snap.algo(), snap.index().inner(), &queries, 1);
        plain_s.push(plain.elapsed.as_secs_f64());
        tracer.take();
        let observed = Observed::new(snap.algo(), Some(&tracer), None);
        let run = run_algorithm_batch(&observed, snap.index(), &queries, 1);
        traced_s.push(run.elapsed.as_secs_f64());
        same &= answer_hash(&run.answers) == answer_hash(&plain.answers);
        replay = Some(run);
    }
    out.require(same, || "traced replay answers differ from untraced".into());
    let run = replay.expect("five replays ran");
    let mut verdict = Verdict::default();
    for (&q, a) in queries.iter().zip(&run.answers) {
        oracle.check(q, &a.result, &mut verdict);
    }
    out.require(verdict.exact_where_answered(), || {
        format!("replay oracle mismatch: {verdict:?}")
    });
    let replay_spans = tracer.take();
    let rows = trace::breakdown(&replay_spans).unwrap_or_else(|e| {
        out.problems.push(format!("replay trace: {e}"));
        Vec::new()
    });
    let refs: Vec<&RknnAnswer> = run.answers.iter().collect();
    layers::rdt_counters(&refs, &mut v);
    let (dist_ns, tile_ns) = layers::kernel_ns(&inputs.ds);
    v.insert("kernel.ns_per_dist", dist_ns);
    v.insert("kernel.ns_per_dist_tile", tile_ns);
    v.insert(
        "kernel.share",
        layers::kernel_share(&refs, &rows, tile_ns, tile_ns),
    );
    let busy: f64 = rows.iter().map(|r| r.total_ns as f64 / 1e9).sum();
    v.insert("driver.wall_s", run.elapsed.as_secs_f64());
    v.insert("driver.busy_s", busy);
    v.insert("driver.parallel_eff", busy / run.elapsed.as_secs_f64());
    v.insert(
        "trace.overhead_frac",
        median(&traced_s) / median(&plain_s) - 1.0,
    );
    spans.extend(replay_spans);
    spans.sort_by_key(|s| s.start_ns);
    crate::write_trace(NAME, &spans);
    out.correct = out.problems.is_empty();
    crate::emit(&mut out, &layers::PER_LAYER, &v);
    out
}

fn cache_counts(algo: &RdtAlgorithm) -> (u64, u64) {
    algo.dk_cache().map_or((0, 0), |c| c.hit_stats())
}

fn resolve(ticket: &Ticket) -> Option<Result<QueryResponse, QueryError>> {
    ticket.wait_timeout(LOST_AFTER)
}

/// Stores an outcome compactly, so the memory the benchmark keeps per
/// response was reserved before the heap mark was reset.
fn settle(
    outcome: Option<Result<QueryResponse, QueryError>>,
    q: PointId,
    neighbors: &mut Vec<Neighbor>,
) -> Resolution {
    match outcome {
        None => Resolution::Lost,
        Some(Err(e)) => Resolution::Failed(e.to_string()),
        Some(Ok(resp)) if resp.point_id() != Some(q) => {
            Resolution::Failed(format!("answer for {:?} returned for {q}", resp.query))
        }
        Some(Ok(resp)) => {
            let from = neighbors.len();
            neighbors.extend_from_slice(&resp.neighbors);
            Resolution::Answered {
                epoch: resp.epoch,
                submitted: resp.submitted_at,
                started: resp.started_at,
                finished: resp.finished_at,
                neighbors: from..neighbors.len(),
                work: resp.work,
            }
        }
    }
}

fn serve<I>(
    inputs: &Inputs,
    seconds: f64,
    build: &dyn Fn(Arc<Dataset>) -> I,
    tracer: Option<&Tracer>,
) -> Served<I>
where
    I: DynamicIndex<Euclidean> + Clone + 'static,
{
    let per_round = (RATE_QPS * OPEN_PHASE.as_secs_f64()) as usize
        + BATCH_CHUNK * BATCH_CHUNKS
        + SAT_CHUNK * SAT_CHUNKS
        + WINDOW;
    let expected = per_round * rounds(seconds);
    let mut records: Vec<Record> = Vec::with_capacity(expected);
    let mut neighbors: Vec<Neighbor> = Vec::with_capacity(expected * 24);
    let mut submit_us: Vec<f64> = Vec::with_capacity(expected);
    let mut accepted: Vec<u64> = Vec::with_capacity(expected);
    let mut batch_qps: Vec<f64> = Vec::with_capacity(expected / BATCH_CHUNK);
    let mut pending: VecDeque<(u64, PointId, Instant, Ticket)> = VecDeque::with_capacity(4_096);
    let mut advanced = Vec::with_capacity(inputs.batches.len());
    let mut batch_stream = inputs.stream(0xba7c);
    let mut stream = inputs.stream(0x0be7);
    alloc::reset_peak();

    // Set-up: index build, prepare with every d_k prewarmed, engine start.
    let (mut setup, mut build_s, mut prepare) = (Vec::new(), Vec::new(), Vec::new());
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let t0 = Instant::now();
        let index = build(Arc::clone(&inputs.ds));
        build_s.push(t0.elapsed().as_secs_f64());
        let algo = RdtAlgorithm::new(RdtParams::new(K, T)).with_prewarm(N);
        let snapshot = Snapshot::prepare(0, index, algo);
        let e = Engine::new(
            snapshot,
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        setup.push(t0.elapsed().as_secs_f64());
        let algo = e.snapshot();
        prepare.push(RknnAlgorithm::<Euclidean, I>::precompute_time(algo.algo()).as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");
    if let Some(t) = tracer {
        t.take();
    }

    let mut rejected = 0u64;
    let mut next_id = 1u64;
    let mut max_lag = Duration::ZERO;
    let mut gen_cpu_s = 0.0;
    let mut advance_errors = Vec::new();
    let mut read_dk = (0u64, 0u64);
    let mut batches = inputs.batches.chunks(ADVANCE_PER_ROUND);
    let interval = Duration::from_secs_f64(1.0 / RATE_QPS);
    // Short rounds of open, batch and closed phases, so that every phase
    // samples the whole run. The batch and closed phases do a fixed amount
    // of work, so that on a slow stretch of a shared box they do not do
    // less of it.
    for round in 0..rounds(seconds) {
        // Every read of the round runs on this one fully prewarmed epoch.
        let dk_before = cache_counts(engine.snapshot().algo());

        // Open loop: sleep to each send time; drain finished tickets in
        // arrival order without blocking.
        let cpu_open = thread_cpu_s();
        let open_start = Instant::now() + Duration::from_millis(1);
        let open_end = open_start + OPEN_PHASE;
        let mut due = open_start;
        while due < open_end {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            max_lag = max_lag.max(sent - due);
            let q = stream.next().expect("the stream is endless");
            let id = next_id;
            next_id += 1;
            let result = engine.submit(q);
            let done = Instant::now();
            submit_us.push((done - sent).as_secs_f64() * 1e6);
            if let Some(t) = tracer {
                t.record(id, t.next_id(), 0, Kind::Submit, sent, done, done - sent, 0);
            }
            match result {
                Ok(ticket) => {
                    accepted.push(id);
                    pending.push_back((id, q, due, ticket));
                }
                Err(_) => rejected += 1,
            }
            while let Some(outcome) = pending.front().and_then(|p| p.3.try_take()) {
                let (id, q, due, _) = pending.pop_front().expect("front exists");
                let resolution = settle(Some(outcome), q, &mut neighbors);
                records.push(Record {
                    id,
                    q,
                    due,
                    phase: Phase::Open,
                    round,
                    resolution,
                });
            }
            due += interval;
        }
        while let Some((id, q, due, ticket)) = pending.pop_front() {
            let resolution = settle(resolve(&ticket), q, &mut neighbors);
            records.push(Record {
                id,
                q,
                due,
                phase: Phase::Open,
                round,
                resolution,
            });
        }

        gen_cpu_s += thread_cpu_s() - cpu_open;

        // Batch: chunks of the query stream through the batch driver on
        // this thread, against the live snapshot, no serving layer.
        for _ in 0..BATCH_CHUNKS {
            let snap = engine.snapshot();
            let qs: Vec<PointId> = batch_stream.by_ref().take(BATCH_CHUNK).collect();
            let run = run_algorithm_batch(snap.algo(), snap.index(), &qs, 1);
            batch_qps.push(BATCH_CHUNK as f64 / run.elapsed.as_secs_f64());
            let finished = Instant::now();
            let started = finished - run.elapsed;
            for (&q, a) in qs.iter().zip(&run.answers) {
                let at = neighbors.len();
                neighbors.extend_from_slice(&a.result);
                records.push(Record {
                    id: 0,
                    q,
                    due: started,
                    phase: Phase::Batch,
                    round,
                    resolution: Resolution::Answered {
                        epoch: snap.epoch(),
                        submitted: started,
                        started,
                        finished,
                        neighbors: at..neighbors.len(),
                        work: a.work(),
                    },
                });
            }
        }

        // Closed window: park on the oldest ticket, then send the next,
        // until SAT_CHUNKS × SAT_CHUNK have been sent.
        let cpu_closed = thread_cpu_s();
        let mut to_send = SAT_CHUNK * SAT_CHUNKS + 1;
        let mut send = |pending: &mut VecDeque<(u64, PointId, Instant, Ticket)>| {
            let q = stream.next().expect("the stream is endless");
            let id = next_id;
            next_id += 1;
            let sent = Instant::now();
            match engine.submit(q) {
                Ok(ticket) => {
                    accepted.push(id);
                    pending.push_back((id, q, sent, ticket));
                }
                Err(_) => rejected += 1,
            }
        };
        for _ in 0..WINDOW {
            send(&mut pending);
            to_send -= 1;
        }
        while let Some((id, q, sent, ticket)) = pending.pop_front() {
            let resolution = settle(resolve(&ticket), q, &mut neighbors);
            records.push(Record {
                id,
                q,
                due: sent,
                phase: Phase::Closed,
                round,
                resolution,
            });
            if to_send > 0 {
                send(&mut pending);
                to_send -= 1;
            }
        }

        gen_cpu_s += thread_cpu_s() - cpu_closed;
        let dk_after = cache_counts(engine.snapshot().algo());
        read_dk.0 += dk_after.0 - dk_before.0;
        read_dk.1 += dk_after.1 - dk_before.1;

        // A few batches with no reads in flight measure the advance path
        // alone. The worker may still hold the epoch its last query pinned
        // for a moment after the answer arrived; wait for it, so no extra
        // epoch stays alive.
        let quiet_by = Instant::now() + Duration::from_millis(100);
        while Arc::strong_count(&engine.snapshot()) > 2 && Instant::now() < quiet_by {
            std::thread::sleep(Duration::from_micros(50));
        }
        for ops in batches.next().into_iter().flatten() {
            match advance_one(&engine, ops, tracer, advanced.len() as u64 + 1) {
                Ok(a) => advanced.push(a),
                Err(e) => advance_errors.push(e),
            }
        }
        // Eviction left some thresholds unset; refill them outside every
        // timed region, so the next round's reads see no `d_k` miss.
        let live_ids = N + advanced.len() * CHURN_HALF;
        match tracer {
            Some(t) => t.scoped(0, Kind::Rewarm, || rewarm(&engine, live_ids)),
            None => rewarm(&engine, live_ids),
        }
    }
    let last = engine.snapshot();
    let stats = engine.shutdown();
    let peak_mb = alloc::peak_mb_since_reset();
    Served {
        setup,
        build: build_s,
        prepare,
        batch_qps,
        records,
        neighbors,
        submit_us,
        accepted,
        rejected,
        max_lag_ms: max_lag.as_secs_f64() * 1e3,
        gen_cpu_s,
        advanced,
        advance_errors,
        read_dk,
        stats,
        peak_mb,
        last,
    }
}

/// Computes every unset `d_k` threshold of the live snapshot's cache, for
/// point ids below `ids` still in the index.
fn rewarm<I>(engine: &Engine<Euclidean, I, RdtAlgorithm>, ids: usize)
where
    I: DynamicIndex<Euclidean> + Clone + 'static,
{
    let snap = engine.snapshot();
    let Some(cache) = snap.algo().dk_cache() else {
        return;
    };
    let mut scratch = CursorScratch::new();
    let mut stats = SearchStats::new();
    for id in (0..ids).filter(|&id| snap.index().has_point(id)) {
        cache.dk_or_compute::<Euclidean, I>(snap.index(), id, &mut scratch, &mut stats);
    }
}

/// Advances and publishes one batch; returns its record.
fn advance_one<I>(
    engine: &Engine<Euclidean, I, RdtAlgorithm>,
    ops: &[ChurnOp],
    tracer: Option<&Tracer>,
    req: u64,
) -> Result<Advanced, String>
where
    I: DynamicIndex<Euclidean> + Clone + 'static,
{
    let t0 = Instant::now();
    let prev = engine.snapshot();
    let advanced = match tracer {
        Some(t) => t.scoped(req, Kind::Advance, || advance_snapshot(&prev, ops)),
        None => advance_snapshot(&prev, ops),
    };
    drop(prev);
    let (next, report) = advanced.map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    match tracer {
        Some(t) => t.scoped(req, Kind::Publish, || engine.publish(next)),
        None => engine.publish(next),
    };
    let t2 = Instant::now();
    Ok(Advanced {
        total_ms: (t2 - t0).as_secs_f64() * 1e3,
        publish_us: (t2 - t1).as_secs_f64() * 1e6,
        report,
    })
}

/// Checks every answer against the oracle at the epoch it reports, every
/// ticket against the ledger, and the engine's own accounting. Returns the
/// outcome (per-layer serving figures in `v`) and the served queries' work.
fn check<I>(
    inputs: &Inputs,
    s: &Served<I>,
    oracle: &mut Oracle,
    v: &mut Values,
) -> (Outcome, Vec<SearchStats>)
where
    I: KnnIndex<Euclidean>,
{
    let mut out = Outcome::default();
    let mut verdict = Verdict::default();
    // Answers, in epoch order, against the oracle replaying the same
    // batches with the ids the engine assigned.
    let mut answered: Vec<(u64, usize)> = Vec::new();
    let mut failures = 0u64;
    for (i, r) in s.records.iter().enumerate() {
        match &r.resolution {
            Resolution::Answered { epoch, .. } => answered.push((*epoch, i)),
            Resolution::Failed(e) => {
                failures += 1;
                if failures <= 3 {
                    eprintln!("{NAME}: request {} failed: {e}", r.id);
                }
            }
            Resolution::Lost => {}
        }
    }
    answered.sort_unstable();
    let mut epoch = 0u64;
    let mut epochs = BTreeSet::new();
    let apply = |oracle: &mut Oracle, upto: u64, epoch: &mut u64| -> bool {
        while *epoch < upto {
            let Some(a) = s.advanced.get(*epoch as usize) else {
                return false;
            };
            let mut changes: Vec<Change> = Vec::new();
            let inserts = inputs.batches[*epoch as usize]
                .iter()
                .filter_map(|op| match op {
                    ChurnOp::Insert(p) => Some(p),
                    ChurnOp::Remove(_) => None,
                });
            changes.extend(
                a.report
                    .inserted
                    .iter()
                    .zip(inserts)
                    .map(|(&id, p)| Change::Insert(id, p.clone())),
            );
            changes.extend(a.report.removed.iter().map(|&id| Change::Remove(id)));
            oracle.apply(&changes);
            *epoch += 1;
        }
        true
    };
    let mut unknown_epoch = false;
    for &(e, i) in &answered {
        unknown_epoch |= !apply(oracle, e, &mut epoch);
        epochs.insert(e);
        let r = &s.records[i];
        if let Resolution::Answered { neighbors, .. } = &r.resolution {
            oracle.check(r.q, &s.neighbors[neighbors.clone()], &mut verdict);
        }
    }
    unknown_epoch |= !apply(oracle, s.advanced.len() as u64, &mut epoch);
    out.require(!unknown_epoch, || {
        "an answer reports an epoch never published".into()
    });
    out.require(verdict.exact_where_answered(), || {
        format!("oracle mismatch: {verdict:?}")
    });

    let served: Vec<&Record> = s
        .records
        .iter()
        .filter(|r| r.phase != Phase::Batch)
        .collect();
    let batch = s.records.len() - served.len();
    let resolved: Vec<u64> = served
        .iter()
        .filter(|r| !matches!(r.resolution, Resolution::Lost))
        .map(|r| r.id)
        .collect();
    let tickets = check_tickets(&s.accepted, &resolved);
    out.require(tickets.ok(), || format!("tickets: {tickets:?}"));
    let st = &s.stats;
    out.require(st.submitted == st.completed + st.failed, || {
        format!("engine accounting: {st:?}")
    });
    let answers = (answered.len() - batch) as u64;
    out.require(st.completed == answers, || {
        format!(
            "engine completed {} but {answers} answers arrived",
            st.completed
        )
    });

    let advance_failed = s.advance_errors.len() as u64;
    for e in &s.advance_errors {
        out.problems.push(format!("advance failed: {e}"));
    }
    out.attempted = s.accepted.len() as u64
        + s.rejected
        + batch as u64
        + s.advanced.len() as u64
        + advance_failed;
    out.failed = s.rejected + failures + tickets.lost + advance_failed;
    out.correct = out.problems.is_empty();
    v.insert("recall", verdict.recall());

    // Serving-layer figures (open phase) and the advance path.
    let open: Vec<&Record> = s
        .records
        .iter()
        .filter(|r| r.phase == Phase::Open)
        .collect();
    let pick = |f: &dyn Fn(&Record) -> Option<f64>| -> Vec<f64> {
        open.iter().filter_map(|r| f(r)).collect()
    };
    let queue_wait = pick(&|r| match r.resolution {
        Resolution::Answered {
            submitted, started, ..
        } => Some((started - submitted).as_secs_f64() * 1e3),
        _ => None,
    });
    let service = pick(&|r| match r.resolution {
        Resolution::Answered {
            started, finished, ..
        } => Some((finished - started).as_secs_f64() * 1e3),
        _ => None,
    });
    let lag = pick(&|r| match r.resolution {
        Resolution::Answered { submitted, .. } => {
            Some(submitted.saturating_duration_since(r.due).as_secs_f64() * 1e3)
        }
        _ => None,
    });
    let latency = open_latency_ms(s);
    v.insert("gen.lag_p50_ms", median(&lag));
    v.insert("serve.submit_us", median(&s.submit_us));
    v.insert("serve.queue_wait_p50_ms", percentile(&queue_wait, 50.0));
    v.insert("serve.queue_wait_p99_ms", percentile(&queue_wait, 99.0));
    v.insert("serve.service_p50_ms", percentile(&service, 50.0));
    v.insert("serve.service_p99_ms", percentile(&service, 99.0));
    v.insert("serve.latency_p90_ms", percentile(&latency, 90.0));
    v.insert("serve.latency_p99_ms", percentile(&latency, 99.0));
    v.insert("serve.stolen", st.stolen as f64);
    v.insert("serve.rejected", st.rejected as f64);
    v.insert("serve.failed", st.failed as f64);
    let reports: Vec<&AdvanceReport> = s.advanced.iter().map(|a| &a.report).collect();
    v.insert(
        "advance.build_ms",
        median(
            &reports
                .iter()
                .map(|r| r.build_time.as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    v.insert(
        "advance.publish_us",
        median(&s.advanced.iter().map(|a| a.publish_us).collect::<Vec<_>>()),
    );
    v.insert(
        "advance.maint_dist",
        median(
            &reports
                .iter()
                .map(|r| r.maintenance.dist_computations as f64)
                .collect::<Vec<_>>(),
        ),
    );
    if let Some(r) = reports.last() {
        let slots = N + s.advanced.len() * CHURN_HALF;
        v.insert(
            "advance.cache_fill_frac",
            r.cache_filled.unwrap_or(0) as f64 / slots as f64,
        );
    }
    v.insert("advance.epochs_seen", epochs.len() as f64);
    let (hits, misses) = s.read_dk;
    v.insert(
        "rdt.dk_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.insert("rdt.dk_misses", misses as f64);
    v.insert("gen.max_lag_ms", s.max_lag_ms);
    v.insert("gen.cpu_s", s.gen_cpu_s);
    v.insert("index.build_s", median(&s.build));
    v.insert("rdt.prepare_s", median(&s.prepare));
    let work = served
        .iter()
        .filter_map(|r| match r.resolution {
            Resolution::Answered { work, .. } => Some(work),
            _ => None,
        })
        .collect();
    (out, work)
}

fn rounds_of<I>(s: &Served<I>) -> usize {
    s.records.iter().map(|r| r.round + 1).max().unwrap_or(0)
}

/// Open-loop latency of each answered request, from its scheduled send.
fn open_latency_ms<I>(s: &Served<I>) -> Vec<f64> {
    s.records
        .iter()
        .filter(|r| r.phase == Phase::Open)
        .filter_map(|r| match r.resolution {
            Resolution::Answered { finished, .. } => Some((finished - r.due).as_secs_f64() * 1e3),
            _ => None,
        })
        .collect()
}

fn end_to_end<I>(out: &mut Outcome, s: &Served<I>, v: &Values) {
    // Latency percentiles per round, then the median over rounds: one
    // slow stretch of a shared box moves one round, not the result.
    let rounds: Vec<Vec<f64>> = (0..rounds_of(s))
        .map(|round| {
            s.records
                .iter()
                .filter(|r| r.phase == Phase::Open && r.round == round)
                .filter_map(|r| match r.resolution {
                    Resolution::Answered { finished, .. } => {
                        Some((finished - r.due).as_secs_f64() * 1e3)
                    }
                    _ => None,
                })
                .collect()
        })
        .collect();
    let round_pct = |p: f64| median(&rounds.iter().map(|l| percentile(l, p)).collect::<Vec<_>>());
    // Closed-window rate over each run of SAT_CHUNK consecutive
    // completions within a round.
    let mut sat = Vec::new();
    for round in 0..rounds_of(s) {
        let done: Vec<Instant> = s
            .records
            .iter()
            .filter(|r| r.phase == Phase::Closed && r.round == round)
            .filter_map(|r| match r.resolution {
                Resolution::Answered { finished, .. } => Some(finished),
                _ => None,
            })
            .collect();
        for w in done.windows(SAT_CHUNK + 1).step_by(SAT_CHUNK) {
            sat.push(SAT_CHUNK as f64 / (w[SAT_CHUNK] - w[0]).as_secs_f64());
        }
    }
    let e2e = Values::from([
        ("setup_s", median(&s.setup)),
        ("peak_heap_mb", s.peak_mb),
        ("recall", v["recall"]),
        ("batch_qps", median(&s.batch_qps)),
        ("latency_p50_ms", round_pct(50.0)),
        ("sat_qps", median(&sat)),
        (
            "advance_ms",
            median(&s.advanced.iter().map(|a| a.total_ms).collect::<Vec<_>>()),
        ),
    ]);
    crate::emit(out, &layers::END_TO_END, &e2e);
}
