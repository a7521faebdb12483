//! Spans recorded from outside the program: a delegating index wrapper that
//! times every cursor, and an algorithm wrapper that times every query.
//!
//! Spans stay in memory until the run ends. A span carries the id of the
//! request it belongs to and of its parent span; cursor spans opened inside
//! a traced query take both from the query's thread-local context. Cursors
//! opened by an engine worker (no context) are attached afterwards to the
//! query span that encloses them in time ([`Tracer::adopt_orphans`]).

use rknn_core::{CoreError, CursorScratch, Dataset, Metric, Neighbor, PointId, SearchStats};
use rknn_index::{DynamicIndex, KnnIndex, NnCursor};
use rknn_rdt::algorithm::RknnAlgorithm;
use rknn_rdt::RknnAnswer;
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `RknnAlgorithm::query` call (or one engine service interval).
    Query,
    /// RDT's filter cursor: `cursor_bounded` with the rank cap `⌊2^t·k⌋`.
    Filter,
    /// A verification cursor: `cursor_bounded` with limit `k`.
    Verify,
    /// Any other index call (unbounded cursors, `knn`, `range`, ...).
    Index,
    /// One `Engine::submit` call.
    Submit,
    /// One `advance_snapshot` call.
    Advance,
    /// One `Engine::publish` call.
    Publish,
    /// The benchmark refilling evicted `d_k` thresholds between rounds.
    Rewarm,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Query => "query",
            Kind::Filter => "filter_cursor",
            Kind::Verify => "verify_cursor",
            Kind::Index => "index_call",
            Kind::Submit => "submit",
            Kind::Advance => "advance",
            Kind::Publish => "publish",
            Kind::Rewarm => "rewarm",
        }
    }

    /// Index spans are the children a query's self time excludes.
    pub fn is_index(self) -> bool {
        matches!(self, Kind::Filter | Kind::Verify | Kind::Index)
    }
}

/// One recorded span. Times are ns since the tracer was created; `busy_ns`
/// is the time spent inside the call(s) the span covers, which for a
/// cursor excludes the caller's work between `next` calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: u64,
    pub kind: Kind,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    /// Entries a cursor yielded.
    pub items: u64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(request id, parent span id)` of the traced call running on this
    /// thread; `(0, 0)` outside one.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Relaxed);
}

fn thread_tag() -> u64 {
    THREAD.with(|t| *t)
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    filter_limit: usize,
    verify_limit: usize,
}

impl Tracer {
    /// A tracer that classifies `cursor_bounded(limit = filter_limit)` as a
    /// filter cursor and `limit = verify_limit` as a verification cursor.
    pub fn new(filter_limit: usize, verify_limit: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            filter_limit,
            verify_limit,
        }
    }

    /// A fresh span or request id (never 0).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Relaxed)
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span covering `start..end` on the calling thread.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        req: u64,
        id: u64,
        parent: u64,
        kind: Kind,
        start: Instant,
        end: Instant,
        busy: Duration,
        items: u64,
    ) {
        let span = Span {
            req,
            id,
            parent,
            kind,
            thread: thread_tag(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            busy_ns: busy.as_nanos() as u64,
            items,
        };
        self.spans
            .lock()
            .expect("no span writer panicked")
            .push(span);
    }

    /// Runs `f` as a span of `kind` for request `req`, with the span as the
    /// parent of every span `f` opens on this thread.
    pub fn scoped<T>(&self, req: u64, kind: Kind, f: impl FnOnce() -> T) -> T {
        let id = self.next_id();
        let outer = CONTEXT.with(|c| c.replace((req, id)));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        CONTEXT.with(|c| c.set(outer));
        self.record(req, id, outer.1, kind, start, end, end - start, 0);
        out
    }

    fn kind_for_limit(&self, limit: usize) -> Kind {
        if limit == self.filter_limit {
            Kind::Filter
        } else if limit == self.verify_limit {
            Kind::Verify
        } else {
            Kind::Index
        }
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span writer panicked"))
    }

    /// Gives each index span recorded outside any traced call the request
    /// and parent of the query span that encloses it in time. Only valid
    /// when the enclosing queries ran one at a time (one engine worker).
    pub fn adopt_orphans(spans: &mut [Span]) {
        let mut queries: Vec<(u64, u64, u64, u64)> = spans
            .iter()
            .filter(|s| s.kind == Kind::Query)
            .map(|s| (s.start_ns, s.end_ns, s.req, s.id))
            .collect();
        queries.sort_unstable();
        for s in spans
            .iter_mut()
            .filter(|s| s.kind.is_index() && s.parent == 0)
        {
            let at = queries.partition_point(|q| q.0 <= s.start_ns);
            if let Some(&(start, end, req, id)) = at.checked_sub(1).map(|i| &queries[i]) {
                if start <= s.start_ns && s.end_ns <= end {
                    s.req = req;
                    s.parent = id;
                }
            }
        }
    }
}

/// Per-query decomposition of one traced query span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryBreakdown {
    pub total_ns: u64,
    pub filter_ns: u64,
    pub verify_ns: u64,
    pub other_index_ns: u64,
    pub self_ns: u64,
    pub retrieved: u64,
}

/// Splits every query span into its index children and its own (self)
/// time, checking that children lie inside their parent and do not
/// overlap. Self time is the span minus its children's busy time, so self
/// plus child time equals the query span by definition; the checks make
/// sure that subtraction never counts time outside the span or twice.
pub fn breakdown(spans: &[Span]) -> Result<Vec<QueryBreakdown>, String> {
    let mut children: std::collections::HashMap<u64, Vec<&Span>> = Default::default();
    for s in spans.iter().filter(|s| s.kind.is_index() && s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out = Vec::new();
    for q in spans.iter().filter(|s| s.kind == Kind::Query) {
        let total = q.end_ns - q.start_ns;
        let mut b = QueryBreakdown {
            total_ns: total,
            ..Default::default()
        };
        let mut kids = children.remove(&q.id).unwrap_or_default();
        kids.sort_by_key(|c| c.start_ns);
        let mut prev_end = q.start_ns;
        for c in kids {
            if c.start_ns < prev_end || c.end_ns > q.end_ns || c.req != q.req {
                return Err(format!(
                    "span {} ({}) is not a disjoint child inside query span {}",
                    c.id,
                    c.kind.label(),
                    q.id
                ));
            }
            prev_end = c.end_ns;
            match c.kind {
                Kind::Filter => {
                    b.filter_ns += c.busy_ns;
                    b.retrieved += c.items;
                }
                Kind::Verify => b.verify_ns += c.busy_ns,
                _ => b.other_index_ns += c.busy_ns,
            }
        }
        let child = b.filter_ns + b.verify_ns + b.other_index_ns;
        b.self_ns = total
            .checked_sub(child)
            .ok_or_else(|| format!("query span {} is shorter than its children", q.id))?;
        out.push(b);
    }
    Ok(out)
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"req\":{},\"id\":{},\"parent\":{},\"kind\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"items\":{}}}",
            s.req, s.id, s.parent, s.kind.label(), s.thread, s.start_ns, s.end_ns, s.busy_ns, s.items
        )?;
    }
    out.flush()
}

/// A cursor that times its opening and every `next` call.
struct TracedCursor<'a> {
    inner: Box<dyn NnCursor + 'a>,
    tracer: &'a Tracer,
    kind: Kind,
    context: (u64, u64),
    start: Instant,
    last: Instant,
    busy: Duration,
    items: u64,
}

impl NnCursor for TracedCursor<'_> {
    fn next(&mut self) -> Option<Neighbor> {
        let t0 = Instant::now();
        let got = self.inner.next();
        self.last = Instant::now();
        self.busy += self.last - t0;
        self.items += u64::from(got.is_some());
        got
    }

    fn stats(&self) -> SearchStats {
        self.inner.stats()
    }
}

impl Drop for TracedCursor<'_> {
    fn drop(&mut self) {
        let (req, parent) = self.context;
        let id = self.tracer.next_id();
        self.tracer.record(
            req, id, parent, self.kind, self.start, self.last, self.busy, self.items,
        );
    }
}

/// A delegating index that records one span per cursor and per direct
/// index call. Every `KnnIndex` and `DynamicIndex` method is forwarded,
/// the defaulted ones included, so the wrapped index behaves exactly as
/// the inner one.
#[derive(Debug, Clone)]
pub struct TracedIndex<I> {
    inner: I,
    tracer: Arc<Tracer>,
}

impl<I> TracedIndex<I> {
    pub fn new(inner: I, tracer: Arc<Tracer>) -> Self {
        TracedIndex { inner, tracer }
    }

    pub fn inner(&self) -> &I {
        &self.inner
    }

    fn wrap<'a>(
        &'a self,
        kind: Kind,
        open: impl FnOnce() -> Box<dyn NnCursor + 'a>,
    ) -> Box<dyn NnCursor + 'a> {
        let context = CONTEXT.with(|c| c.get());
        let start = Instant::now();
        let inner = open();
        let last = Instant::now();
        Box::new(TracedCursor {
            inner,
            tracer: &self.tracer,
            kind,
            context,
            start,
            last,
            busy: last - start,
            items: 0,
        })
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let (req, parent) = CONTEXT.with(|c| c.get());
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.tracer.next_id();
        self.tracer
            .record(req, id, parent, Kind::Index, start, end, end - start, 0);
        out
    }
}

impl<M: Metric, I: KnnIndex<M>> KnnIndex<M> for TracedIndex<I> {
    fn num_points(&self) -> usize {
        self.inner.num_points()
    }

    fn has_point(&self, id: PointId) -> bool {
        self.inner.has_point(id)
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn point(&self, id: PointId) -> &[f64] {
        self.inner.point(id)
    }

    fn metric(&self) -> &M {
        self.inner.metric()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn base_rows(&self) -> Option<&Dataset> {
        self.inner.base_rows()
    }

    fn cursor<'a>(&'a self, q: &'a [f64], exclude: Option<PointId>) -> Box<dyn NnCursor + 'a> {
        self.wrap(Kind::Index, || self.inner.cursor(q, exclude))
    }

    fn cursor_with<'a>(
        &'a self,
        q: &'a [f64],
        exclude: Option<PointId>,
        scratch: &'a mut CursorScratch,
    ) -> Box<dyn NnCursor + 'a> {
        self.wrap(Kind::Index, || self.inner.cursor_with(q, exclude, scratch))
    }

    fn cursor_bounded<'a>(
        &'a self,
        q: &'a [f64],
        exclude: Option<PointId>,
        limit: usize,
        scratch: &'a mut CursorScratch,
    ) -> Box<dyn NnCursor + 'a> {
        self.wrap(self.tracer.kind_for_limit(limit), || {
            self.inner.cursor_bounded(q, exclude, limit, scratch)
        })
    }

    fn knn(
        &self,
        q: &[f64],
        k: usize,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        self.timed(|| self.inner.knn(q, k, exclude, stats))
    }

    fn range(
        &self,
        q: &[f64],
        r: f64,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        self.timed(|| self.inner.range(q, r, exclude, stats))
    }

    fn range_count(
        &self,
        q: &[f64],
        r: f64,
        strict: bool,
        exclude: Option<PointId>,
        stats: &mut SearchStats,
    ) -> usize {
        self.timed(|| self.inner.range_count(q, r, strict, exclude, stats))
    }
}

impl<M: Metric, I: DynamicIndex<M>> DynamicIndex<M> for TracedIndex<I> {
    fn insert(&mut self, point: &[f64]) -> Result<PointId, CoreError> {
        self.inner.insert(point)
    }

    fn remove(&mut self, id: PointId) -> bool {
        self.inner.remove(id)
    }

    fn compact(&mut self) {
        self.inner.compact()
    }

    fn needs_compaction(&self) -> bool {
        self.inner.needs_compaction()
    }
}

/// Wraps an already-prepared algorithm for a batch-driver run: records each
/// query's latency by point id and, with a tracer, one query span whose
/// context the index wrapper's cursor spans pick up.
pub struct Observed<'a, A> {
    inner: &'a A,
    tracer: Option<&'a Tracer>,
    latency_ns: Option<&'a [AtomicU64]>,
}

impl<'a, A> Observed<'a, A> {
    pub fn new(
        inner: &'a A,
        tracer: Option<&'a Tracer>,
        latency_ns: Option<&'a [AtomicU64]>,
    ) -> Self {
        Observed {
            inner,
            tracer,
            latency_ns,
        }
    }
}

impl<M, I, A> RknnAlgorithm<M, I> for Observed<'_, A>
where
    M: Metric,
    I: KnnIndex<M> + ?Sized,
    A: RknnAlgorithm<M, I, Answer = RknnAnswer>,
{
    type Worker = A::Worker;
    type Answer = RknnAnswer;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn precompute_time(&self) -> Duration {
        self.inner.precompute_time()
    }

    fn precompute_stats(&self) -> SearchStats {
        self.inner.precompute_stats()
    }

    fn make_worker(&self, index: &I) -> A::Worker {
        self.inner.make_worker(index)
    }

    fn query(&self, index: &I, q: PointId, worker: &mut A::Worker) -> RknnAnswer {
        let start = Instant::now();
        let answer = match self.tracer {
            Some(tracer) => {
                let req = tracer.next_id();
                tracer.scoped(req, Kind::Query, || self.inner.query(index, q, worker))
            }
            None => self.inner.query(index, q, worker),
        };
        if let Some(slot) = self.latency_ns.and_then(|l| l.get(q)) {
            slot.store(start.elapsed().as_nanos() as u64, Relaxed);
        }
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknn_core::Euclidean;
    use rknn_index::{CoverTree, LinearScan};
    use rknn_rdt::algorithm::{run_algorithm_all_points, RdtAlgorithm};
    use rknn_rdt::RdtParams;

    fn drain(mut c: Box<dyn NnCursor + '_>) -> Vec<(PointId, u64)> {
        std::iter::from_fn(|| c.next())
            .map(|n| (n.id, n.dist.to_bits()))
            .collect()
    }

    fn bits(v: &[Neighbor]) -> Vec<(PointId, u64)> {
        v.iter().map(|n| (n.id, n.dist.to_bits())).collect()
    }

    /// Every forwarded method answers exactly as the inner index, and the
    /// RDT answers through the wrapper are identical.
    fn same_answers<I>(mut plain: I)
    where
        I: DynamicIndex<Euclidean> + Clone,
    {
        let params = RdtParams::new(4, 4.0);
        let cap = params.rank_cap(plain.num_points() - 1);
        let tracer = Arc::new(Tracer::new(cap, 4));
        let mut traced = TracedIndex::new(plain.clone(), Arc::clone(&tracer));
        for round in 0..2 {
            assert_eq!(traced.num_points(), plain.num_points());
            assert_eq!(traced.dim(), plain.dim());
            assert_eq!(traced.name(), plain.name());
            assert_eq!(traced.base_rows().is_some(), plain.base_rows().is_some());
            for q in [0usize, 7, 33] {
                assert_eq!(traced.has_point(q), plain.has_point(q));
                if !plain.has_point(q) {
                    continue;
                }
                let qp = plain.point(q).to_vec();
                assert_eq!(traced.point(q), qp.as_slice());
                let mut s1 = CursorScratch::new();
                let mut s2 = CursorScratch::new();
                assert_eq!(
                    drain(traced.cursor(&qp, Some(q))),
                    drain(plain.cursor(&qp, Some(q)))
                );
                assert_eq!(
                    drain(traced.cursor_with(&qp, None, &mut s1)),
                    drain(plain.cursor_with(&qp, None, &mut s2))
                );
                let a = drain(traced.cursor_bounded(&qp, Some(q), 5, &mut s1));
                let b = drain(plain.cursor_bounded(&qp, Some(q), 5, &mut s2));
                assert_eq!(a[..5], b[..5]);
                let (mut st1, mut st2) = (SearchStats::new(), SearchStats::new());
                assert_eq!(
                    bits(&traced.knn(&qp, 6, Some(q), &mut st1)),
                    bits(&plain.knn(&qp, 6, Some(q), &mut st2))
                );
                assert_eq!(
                    bits(&traced.range(&qp, 0.8, None, &mut st1)),
                    bits(&plain.range(&qp, 0.8, None, &mut st2))
                );
                assert_eq!(
                    traced.range_count(&qp, 0.8, true, None, &mut st1),
                    plain.range_count(&qp, 0.8, true, None, &mut st2)
                );
                assert_eq!(st1, st2);
            }
            let mut a1 = RdtAlgorithm::new(params);
            let mut a2 = RdtAlgorithm::new(params);
            RknnAlgorithm::<Euclidean, I>::prepare(&mut a2, &plain);
            RknnAlgorithm::<Euclidean, TracedIndex<I>>::prepare(&mut a1, &traced);
            let observed = Observed::new(&a1, Some(&tracer), None);
            let got = run_algorithm_all_points(&observed, &traced, 2);
            let want = run_algorithm_all_points(&a2, &plain, 2);
            for (x, y) in got.answers.iter().zip(&want.answers) {
                assert_eq!(bits(&x.result), bits(&y.result));
            }
            let spans = tracer.take();
            let rows = breakdown(&spans).expect("spans nest");
            assert_eq!(rows.len(), plain.num_points());
            assert!(rows.iter().all(|r| r.retrieved > 0 && r.filter_ns > 0));
            if round == 0 {
                // Churn both copies the same way, then compare again.
                let p = plain.point(3).iter().map(|v| v + 0.01).collect::<Vec<_>>();
                assert_eq!(traced.insert(&p).unwrap(), plain.insert(&p).unwrap());
                assert_eq!(traced.remove(7), plain.remove(7));
                assert_eq!(traced.remove(7), plain.remove(7));
                assert_eq!(traced.needs_compaction(), plain.needs_compaction());
                traced.compact();
                plain.compact();
            }
        }
    }

    #[test]
    fn wrapper_is_transparent_on_every_workload_substrate() {
        let ds = rknn_data::gaussian_blobs(150, 4, 3, 0.6, 21).into_shared();
        same_answers(CoverTree::build(Arc::clone(&ds), Euclidean));
        same_answers(LinearScan::build(ds, Euclidean));
    }

    #[test]
    fn orphan_cursor_spans_join_the_enclosing_query() {
        let span = |id, kind, start_ns, end_ns, parent| Span {
            req: if parent == 0 && kind != Kind::Query {
                0
            } else {
                9
            },
            id,
            parent,
            kind,
            thread: 1,
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            items: 3,
        };
        let mut spans = vec![
            span(1, Kind::Query, 100, 200, 0),
            span(2, Kind::Filter, 110, 150, 0),
            span(3, Kind::Verify, 160, 170, 0),
        ];
        Tracer::adopt_orphans(&mut spans);
        let rows = breakdown(&spans).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].filter_ns, 40);
        assert_eq!(rows[0].verify_ns, 10);
        assert_eq!(rows[0].self_ns, 50);
        assert_eq!(rows[0].retrieved, 3);
        // Overlapping children are a broken trace.
        spans.push(span(4, Kind::Verify, 165, 180, 1));
        spans[3].req = 9;
        assert!(breakdown(&spans).is_err());
    }
}
