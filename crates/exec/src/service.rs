//! A thin, thread-safe serving front-end over an owned [`Engine`].
//!
//! The engine's `queries × segments` scheduler is batch-shaped: it
//! amortizes per-query setup and keeps the worker pool saturated when
//! handed many requests at once. A real service, however, receives
//! requests one at a time from concurrent clients. [`Server`] is the seam
//! between the two: callers [`Server::submit`] individual [`QuerySpec`]s
//! from any thread, a background worker drains the submission queues and
//! *coalesces* whatever has accumulated — up to
//! [`ServerBuilder::max_batch`] requests — into one [`RequestBatch`] per
//! engine pass, and each answer is routed back to the submitter through
//! the [`Ticket`] it received at admission.
//!
//! Admission happens at the door, and the queue is first come, first
//! served within a priority class:
//!
//! * [`Server::submit`] validates the spec against the engine
//!   ([`Engine::validate`]) and rejects invalid requests immediately
//!   (counted in [`Server::queries_rejected`]), so one bad request can
//!   never poison a coalesced batch;
//! * every accepted spec is queued under its [`crate::batch::Priority`]
//!   class;
//! * the worker admits [`crate::batch::Priority::Interactive`] before
//!   `Normal` before `Batch`, in arrival order within a class, until the
//!   pass holds [`ServerBuilder::max_batch`] requests; whatever a pass
//!   leaves behind leads the next one.
//!
//! This is deliberately a *synchronous* queue + condvar design — no async
//! runtime exists in this dependency-free workspace — but the seam is the
//! one the ROADMAP's async service layer calls for: requests form batches,
//! batches form engine passes, and the queue is where admission policy
//! grows.
//!
//! ```
//! use bond_exec::service::Server;
//! use bond_exec::{Engine, Priority, QuerySpec, RuleKind};
//! use vdstore::DecomposedTable;
//!
//! let vectors: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![i as f64 / 100.0, 1.0 - i as f64 / 100.0])
//!     .collect();
//! let table = DecomposedTable::from_vectors("demo", &vectors).unwrap();
//! let engine = Engine::builder(table).partitions(4).threads(2).build().unwrap();
//!
//! let server = Server::new(engine);
//! let spec = QuerySpec::new(vec![0.25, 0.75], 3).priority(Priority::Interactive);
//! let ticket = server.submit(spec).unwrap();
//! let answer = ticket.wait().unwrap();
//! assert_eq!(answer.hits.len(), 3);
//! ```

use crate::batch::{BatchOutcome, QueryOutcome, QuerySpec, RequestBatch};
use crate::engine::Engine;
use bond::{BondError, Result};
use bond_obs::{names, span, Counter, Gauge, Histogram, MetricsRegistry, Span};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued request: the spec, when it was admitted, and the channel its
/// answer travels back on.
#[derive(Debug)]
struct Pending {
    spec: QuerySpec,
    /// When the request was admitted — the queue-wait clock.
    submitted: Instant,
    tx: mpsc::Sender<Result<QueryOutcome>>,
}

/// The server's pre-registered metric handles, living in the fronted
/// engine's [`MetricsRegistry`] — one registry covers the whole serving
/// stack, and the legacy accessors ([`Server::queries_served`] & co.) are
/// thin reads of the same counters.
#[derive(Debug)]
struct ServiceMetrics {
    /// `service.batch.executed` — engine passes executed.
    batches: Counter,
    /// `service.query.served` — requests answered (success or error).
    served: Counter,
    /// `service.admission.rejected` — requests rejected at admission
    /// (validation failure or shutdown).
    rejected: Counter,
    /// `service.queue.depth` — requests currently queued, all classes.
    queue_depth: Gauge,
    /// `service.queue.wait_us` — admission-to-drain wait per request.
    queue_wait_us: Histogram,
}

impl ServiceMetrics {
    fn new(registry: &MetricsRegistry) -> ServiceMetrics {
        ServiceMetrics {
            batches: registry.counter(names::SERVICE_BATCH_EXECUTED),
            served: registry.counter(names::SERVICE_QUERY_SERVED),
            rejected: registry.counter(names::SERVICE_ADMISSION_REJECTED),
            queue_depth: registry.gauge(names::SERVICE_QUEUE_DEPTH),
            queue_wait_us: registry.histogram(names::SERVICE_QUEUE_WAIT_US),
        }
    }
}

/// The queue shared between submitters and the worker.
#[derive(Debug)]
struct Shared {
    state: Mutex<QueueState>,
    wake: Condvar,
    metrics: ServiceMetrics,
}

impl Shared {
    /// Locks the queue. No critical section can panic halfway through an
    /// update (each is a push, a FIFO drain or a flag write), so a poisoned
    /// lock still guards a consistent queue.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes the queued count; called with the lock held, so the gauge
    /// moves in the same order as the queue itself.
    fn publish_depth(&self, state: &QueueState) {
        let queued: usize = state.pending.iter().map(VecDeque::len).sum();
        self.metrics.queue_depth.set(queued as i64);
    }
}

#[derive(Debug)]
struct QueueState {
    /// One FIFO per priority class, indexed by [`Priority::index`].
    pending: [VecDeque<Pending>; 3],
    shutdown: bool,
}

impl QueueState {
    fn is_empty(&self) -> bool {
        self.pending.iter().all(VecDeque::is_empty)
    }
}

/// Drains up to `max_batch` requests for one engine pass: strict priority
/// classes first (`Interactive` → `Normal` → `Batch`), arrival order within
/// a class. Strict priority between classes is deliberate: `Batch` work
/// yields to a sustained `Interactive` stream by design.
fn drain_batch(state: &mut QueueState, max_batch: usize) -> Vec<Pending> {
    let mut batch = Vec::new();
    for queue in &mut state.pending {
        let take = queue.len().min(max_batch - batch.len());
        batch.extend(queue.drain(..take));
    }
    batch
}

/// Builds a [`Server`] over an engine.
#[derive(Debug)]
pub struct ServerBuilder {
    engine: Engine,
    max_batch: usize,
}

impl ServerBuilder {
    /// Upper bound on how many queued requests one engine pass coalesces
    /// (default 64). Larger batches amortize setup further; smaller ones
    /// bound per-request latency. `0` is rejected at
    /// [`ServerBuilder::build`].
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Finishes the build and starts the worker thread.
    ///
    /// # Errors
    ///
    /// [`BondError::InvalidParams`] when `max_batch` is zero.
    pub fn build(self) -> Result<Server> {
        self.build_with(Engine::execute)
    }

    /// [`ServerBuilder::build`] with the worker's per-batch execute step
    /// supplied by the caller — the engine pass in production, a fault
    /// injector in tests.
    fn build_with(
        self,
        execute: impl FnMut(&Engine, &RequestBatch) -> Result<BatchOutcome> + Send + 'static,
    ) -> Result<Server> {
        if self.max_batch == 0 {
            return Err(BondError::InvalidParams("max_batch must be non-zero".into()));
        }
        Ok(self.start(execute))
    }

    /// Starts the worker over a validated configuration.
    fn start(
        self,
        execute: impl FnMut(&Engine, &RequestBatch) -> Result<BatchOutcome> + Send + 'static,
    ) -> Server {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                pending: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                shutdown: false,
            }),
            wake: Condvar::new(),
            metrics: ServiceMetrics::new(self.engine.metrics()),
        });
        let worker = {
            let engine = self.engine.clone();
            let shared = Arc::clone(&shared);
            let max_batch = self.max_batch;
            std::thread::spawn(move || worker_loop(&engine, &shared, max_batch, execute))
        };
        Server { engine: self.engine, shared, worker: Some(worker) }
    }
}

/// A long-lived, thread-safe k-NN server: an `Arc`'d [`Engine`] plus
/// per-priority submission queues whose worker coalesces concurrent
/// requests into engine batches of at most [`ServerBuilder::max_batch`].
///
/// `Server` is `Send + Sync`; submit from as many threads as you like.
/// Dropping the server shuts the worker down after it drains the queues
/// (every accepted ticket is answered).
#[derive(Debug)]
pub struct Server {
    engine: Engine,
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

/// A claim on one submitted request's answer.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<QueryOutcome>>,
}

impl Ticket {
    /// Blocks until the answer arrives.
    ///
    /// # Errors
    ///
    /// Whatever the engine reported for the coalesced batch, or
    /// [`BondError::ServiceUnavailable`] when the server's worker died
    /// before answering.
    pub fn wait(self) -> Result<QueryOutcome> {
        self.rx.recv().map_err(|_| BondError::ServiceUnavailable("server worker exited".into()))?
    }
}

impl Server {
    /// A server over `engine` with default settings.
    pub fn new(engine: Engine) -> Server {
        // the default `max_batch` of 64 is valid by construction
        Server::builder(engine).start(Engine::execute)
    }

    /// Starts building a server over `engine`.
    pub fn builder(engine: Engine) -> ServerBuilder {
        ServerBuilder { engine, max_batch: 64 }
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Submits one request and returns the [`Ticket`] its answer arrives
    /// on. Validation happens here, at admission: an invalid spec is
    /// rejected immediately (and counted in [`Server::queries_rejected`]),
    /// so every accepted ticket eventually resolves. The accepted spec is
    /// queued at the back of its [`crate::batch::Priority`] class.
    ///
    /// # Errors
    ///
    /// [`Engine::validate`]'s errors for an invalid spec, or
    /// [`BondError::ServiceUnavailable`] after [`Server::shutdown`] —
    /// either way the rejection is recorded.
    pub fn submit(&self, spec: QuerySpec) -> Result<Ticket> {
        if let Err(e) = self.engine.validate(&spec) {
            self.shared.metrics.rejected.inc();
            return Err(e);
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut state = self.shared.lock();
            if state.shutdown {
                drop(state);
                self.shared.metrics.rejected.inc();
                return Err(BondError::ServiceUnavailable("server is shut down".into()));
            }
            state.pending[spec.priority_override().unwrap_or_default().index()]
                .push_back(Pending { spec, submitted: Instant::now(), tx });
            self.shared.publish_depth(&state);
        }
        self.shared.wake.notify_one();
        Ok(Ticket { rx })
    }

    /// Number of engine passes executed so far. Together with
    /// [`Server::queries_served`] this exposes the coalescing ratio:
    /// `queries_served / batches_executed` requests were answered per
    /// engine pass on average. A thin read of the registry's
    /// `service.batch.executed` counter.
    pub fn batches_executed(&self) -> usize {
        self.shared.metrics.batches.get() as usize
    }

    /// Number of requests answered so far (successfully or with an error).
    /// A thin read of the registry's `service.query.served` counter.
    pub fn queries_served(&self) -> usize {
        self.shared.metrics.served.get() as usize
    }

    /// Number of requests rejected at admission — validation failures and
    /// post-shutdown submissions. Together with [`Server::queries_served`]
    /// this accounts for every spec ever submitted. A thin read of the
    /// registry's `service.admission.rejected` counter.
    pub fn queries_rejected(&self) -> usize {
        self.shared.metrics.rejected.get() as usize
    }

    /// The metrics registry covering the whole serving stack — the fronted
    /// engine's registry, which this server's `service.*` metrics also
    /// live in. [`MetricsRegistry::render_text`] and
    /// [`MetricsRegistry::render_json`] export it.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.engine.metrics()
    }

    /// Stops accepting new requests and wakes the worker so it drains what
    /// is already queued and exits. Called automatically on drop; explicit
    /// calls are idempotent.
    pub fn shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The worker: wait for requests, drain a priority-ordered batch of at
/// most `max_batch`, execute it as one engine pass, route each answer to
/// its submitter. A pass that panics fails its own batch with
/// [`BondError::ServiceUnavailable`] and the worker keeps serving: were the
/// panic to unwind the worker, every request queued behind it would wait
/// forever while `submit` kept admitting more.
fn worker_loop(
    engine: &Engine,
    shared: &Shared,
    max_batch: usize,
    mut execute: impl FnMut(&Engine, &RequestBatch) -> Result<BatchOutcome>,
) {
    loop {
        let drained: Vec<Pending> = {
            let mut state = shared.lock();
            while state.is_empty() && !state.shutdown {
                state = shared.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            if state.is_empty() {
                // shutdown and fully drained
                return;
            }
            let drained = drain_batch(&mut state, max_batch);
            shared.publish_depth(&state);
            drained
        };

        for pending in &drained {
            // admission-to-drain wait: recorded per request, plus a
            // `service.queue_wait` span (detail = priority class) when
            // tracing is enabled
            let waited_us = pending.submitted.elapsed().as_micros() as u64;
            shared.metrics.queue_wait_us.record(waited_us);
            span::record(
                names::SPAN_SERVICE_QUEUE_WAIT,
                pending.spec.priority_override().unwrap_or_default().index() as u64,
                waited_us,
            );
        }
        let (specs, txs): (Vec<QuerySpec>, Vec<_>) =
            drained.into_iter().map(|p| (p.spec, p.tx)).unzip();
        let batch = RequestBatch::from_specs(specs);
        let exec_span = Span::begin(names::SPAN_SERVICE_EXECUTE).detail(batch.len() as u64);
        let result =
            catch_unwind(AssertUnwindSafe(|| execute(engine, &batch))).unwrap_or_else(|payload| {
                Err(BondError::ServiceUnavailable(format!(
                    "engine pass panicked: {}",
                    panic_message(payload.as_ref())
                )))
            });
        drop(exec_span);
        // Counters tick *before* each answer is routed, so a submitter that
        // has received its answer always observes itself as served.
        shared.metrics.batches.inc();
        match result {
            Ok(outcome) => {
                for (tx, answer) in txs.into_iter().zip(outcome.queries) {
                    shared.metrics.served.inc();
                    // a submitter that dropped its ticket just misses out
                    let _ = tx.send(Ok(answer));
                }
            }
            Err(e) => {
                // Specs were validated at admission, so this is an engine-
                // level failure (or a caught panic); report it to every
                // requester in the batch.
                for tx in txs {
                    shared.metrics.served.inc();
                    let _ = tx.send(Err(e.clone()));
                }
            }
        }
    }
}

/// The text a panic was raised with, when it carried one.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Priority;
    use crate::planner::PlannerKind;
    use crate::rules::RuleKind;
    use vdstore::DecomposedTable;

    fn engine() -> Engine {
        let vectors: Vec<Vec<f64>> = (0..120)
            .map(|r| {
                let mut v: Vec<f64> =
                    (0..6).map(|d| ((r * 31 + d * 17) % 97) as f64 + 1.0).collect();
                let total: f64 = v.iter().sum();
                v.iter_mut().for_each(|x| *x /= total);
                v
            })
            .collect();
        let table = DecomposedTable::from_vectors("svc", &vectors).unwrap();
        Engine::builder(table).partitions(3).threads(2).build().unwrap()
    }

    fn pending(k: usize) -> Pending {
        // drain tests never answer, so the receiver end can drop
        let (tx, _rx) = mpsc::channel();
        Pending { spec: QuerySpec::new(vec![0.5; 6], k), submitted: Instant::now(), tx }
    }

    fn queue_state(classes: [Vec<Pending>; 3]) -> QueueState {
        QueueState { pending: classes.map(VecDeque::from), shutdown: false }
    }

    #[test]
    fn answers_match_direct_engine_searches() {
        let engine = engine();
        let server = Server::new(engine.clone());
        let q = engine.table().row(17).unwrap();
        let ticket = server.submit(QuerySpec::new(q.clone(), 4)).unwrap();
        let answer = ticket.wait().unwrap();
        assert_eq!(answer.hits, engine.search(&q, 4).unwrap().hits);
        assert_eq!(server.queries_served(), 1);
        assert_eq!(server.queries_rejected(), 0);
        assert!(server.batches_executed() >= 1);
    }

    #[test]
    fn per_request_overrides_are_honoured() {
        let engine = engine();
        let server = Server::new(engine.clone());
        let q = engine.table().row(3).unwrap();
        let spec = QuerySpec::new(q.clone(), 2)
            .rule(RuleKind::EuclideanEv)
            .planner(PlannerKind::Adaptive)
            .priority(Priority::Interactive);
        let answer = server.submit(spec.clone()).unwrap().wait().unwrap();
        assert_eq!(answer.hits, engine.search_spec(&spec).unwrap().hits);
    }

    #[test]
    fn invalid_specs_are_rejected_and_counted_at_admission() {
        let server = Server::new(engine());
        assert!(matches!(
            server.submit(QuerySpec::new(vec![0.5; 4], 1)),
            Err(BondError::QueryDimensionMismatch { .. })
        ));
        assert!(matches!(
            server.submit(QuerySpec::new(vec![0.5; 6], 0)),
            Err(BondError::InvalidK { .. })
        ));
        assert_eq!(server.queries_served(), 0);
        assert_eq!(server.queries_rejected(), 2, "every rejection is recorded");
    }

    #[test]
    fn shutdown_rejects_new_submissions_but_answers_queued_ones() {
        let engine = engine();
        let server = Server::new(engine.clone());
        let q = engine.table().row(0).unwrap();
        let ticket = server.submit(QuerySpec::new(q, 1)).unwrap();
        server.shutdown();
        let q2 = engine.table().row(1).unwrap();
        assert!(matches!(
            server.submit(QuerySpec::new(q2, 1)),
            Err(BondError::ServiceUnavailable(_))
        ));
        assert_eq!(server.queries_rejected(), 1, "post-shutdown submissions count as rejected");
        // the pre-shutdown ticket still resolves
        assert_eq!(ticket.wait().unwrap().hits.len(), 1);
    }

    /// Runs `f` on a helper thread and waits at most 30 s for it, so a hang
    /// fails the test instead of stalling the suite.
    fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{what} did not return within 30 s"))
    }

    #[test]
    fn a_panicking_engine_pass_fails_its_batch_and_the_worker_keeps_serving() {
        let engine = engine();
        let mut faulted = false;
        let server = Server::builder(engine.clone())
            .build_with(move |engine, batch| {
                if !std::mem::replace(&mut faulted, true) {
                    panic!("injected engine fault");
                }
                engine.execute(batch)
            })
            .unwrap();
        let q = engine.table().row(5).unwrap();
        let ticket = server.submit(QuerySpec::new(q.clone(), 3)).unwrap();
        match within("the panicking batch's ticket", move || ticket.wait()) {
            Err(BondError::ServiceUnavailable(msg)) => {
                assert!(msg.contains("injected engine fault"), "{msg}")
            }
            other => panic!("expected ServiceUnavailable, got {other:?}"),
        }
        let ticket = server.submit(QuerySpec::new(q.clone(), 3)).unwrap();
        let answer = within("a later request", move || ticket.wait()).unwrap();
        assert_eq!(answer.hits, engine.search(&q, 3).unwrap().hits);
        assert_eq!(server.queries_served(), 2);
        within("dropping the server", move || drop(server));
    }

    #[test]
    fn invalid_server_configurations_are_rejected() {
        assert!(matches!(
            Server::builder(engine()).max_batch(0).build(),
            Err(BondError::InvalidParams(_))
        ));
        assert!(Server::builder(engine()).max_batch(1).build().is_ok());
    }

    #[test]
    fn drain_respects_priority_classes_then_arrival_within_a_class() {
        let mut state = queue_state([
            vec![pending(31)],
            vec![pending(10), pending(11), pending(12)],
            vec![pending(90)],
        ]);
        let batch = drain_batch(&mut state, 8);
        let ks: Vec<usize> = batch.iter().map(|p| p.spec.k()).collect();
        // interactive first, then normal in arrival order, then batch work
        assert_eq!(ks, vec![31, 10, 11, 12, 90]);
        assert!(state.is_empty());
    }

    #[test]
    fn drain_honours_max_batch_across_classes() {
        let mut state =
            queue_state([vec![pending(1), pending(2)], vec![pending(3)], vec![pending(4)]]);
        let batch = drain_batch(&mut state, 3);
        assert_eq!(batch.len(), 3);
        assert_eq!(state.pending[2].len(), 1, "the batch-class request waits");
    }

    #[test]
    fn batch_bounded_server_still_answers_everything() {
        let engine = engine();
        // a two-request cap forces many small engine passes; every ticket
        // must still resolve with the right answer
        let server = Server::builder(engine.clone()).max_batch(2).build().unwrap();
        let expected: Vec<_> = (0..12)
            .map(|i| {
                let q = engine.table().row(i * 7).unwrap();
                (q.clone(), engine.search(&q, 2).unwrap().hits)
            })
            .collect();
        std::thread::scope(|scope| {
            for (i, (q, hits)) in expected.iter().enumerate() {
                let server = &server;
                let priority = Priority::ALL[i % 3];
                scope.spawn(move || {
                    let spec = QuerySpec::new(q.clone(), 2).priority(priority);
                    let answer = server.submit(spec).unwrap().wait().unwrap();
                    assert_eq!(&answer.hits, hits, "answer routed to the wrong requester");
                });
            }
        });
        assert_eq!(server.queries_served(), 12);
        assert!(server.batches_executed() >= 6, "the batch cap splits the burst");
    }

    #[test]
    fn registry_counters_back_the_legacy_accessors() {
        let engine = engine();
        let server = Server::new(engine.clone());
        let q = engine.table().row(8).unwrap();
        server.submit(QuerySpec::new(q, 2)).unwrap().wait().unwrap();
        let _ = server.submit(QuerySpec::new(vec![0.5; 4], 1)); // wrong dims
        assert_eq!(server.queries_served(), 1);
        assert_eq!(server.queries_rejected(), 1);
        // one counting path: the legacy accessors read the registry
        let registry = server.metrics();
        assert_eq!(registry.counter_value("service.query.served"), Some(1));
        assert_eq!(registry.counter_value("service.admission.rejected"), Some(1));
        assert_eq!(
            registry.counter_value("service.batch.executed"),
            Some(server.batches_executed() as u64)
        );
        assert_eq!(registry.gauge_value("service.queue.depth"), Some(0), "queue drained");
        let wait = registry.histogram_snapshot("service.queue.wait_us").unwrap();
        assert_eq!(wait.count, 1, "one served request, one queue-wait sample");
        // engine metrics land in the same registry (shared serving stack)
        assert_eq!(registry.counter_value("engine.query.count"), Some(1));
        let text = registry.render_text();
        assert!(text.contains("service_query_served 1"), "{text}");
        assert!(text.contains("engine_query_count 1"), "{text}");
        let json = registry.render_json();
        assert!(json.contains("\"service.query.served\":1"), "{json}");
    }

    #[test]
    fn queue_depth_counts_the_requests_waiting_behind_a_running_pass() {
        let engine = engine();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let mut first = true;
        // the first pass blocks inside its execute step until released
        let server = Server::builder(engine.clone())
            .build_with(move |engine, batch| {
                if std::mem::replace(&mut first, false) {
                    let _ = entered_tx.send(());
                    let _ = release_rx.recv();
                }
                engine.execute(batch)
            })
            .unwrap();
        let depth = || server.metrics().gauge_value("service.queue.depth");
        let q = engine.table().row(9).unwrap();
        let running = server.submit(QuerySpec::new(q.clone(), 2)).unwrap();
        entered_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the worker starts its first pass");
        let queued: Vec<Ticket> =
            (0..3).map(|_| server.submit(QuerySpec::new(q.clone(), 2)).unwrap()).collect();
        assert_eq!(depth(), Some(3), "three requests wait behind the running pass");
        release_tx.send(()).unwrap();
        for ticket in std::iter::once(running).chain(queued) {
            within("a queued request", move || ticket.wait()).unwrap();
        }
        assert_eq!(depth(), Some(0), "the queue drained");
        assert_eq!(server.batches_executed(), 2, "the three waiting requests share one pass");
    }

    #[test]
    fn bursts_coalesce_into_fewer_engine_passes() {
        let engine = engine();
        // a paused server cannot exist (the worker starts immediately), so
        // submit a burst from many threads and merely assert every answer
        // routes to the right requester; coalescing shows up as
        // batches_executed <= queries_served.
        let server = Server::builder(engine.clone()).max_batch(8).build().unwrap();
        let n = 24;
        let expected: Vec<_> = (0..n)
            .map(|i| {
                let q = engine.table().row((i * 5) as u32).unwrap();
                (q.clone(), engine.search(&q, 3).unwrap().hits)
            })
            .collect();
        std::thread::scope(|scope| {
            for (q, hits) in &expected {
                let server = &server;
                scope.spawn(move || {
                    let answer =
                        server.submit(QuerySpec::new(q.clone(), 3)).unwrap().wait().unwrap();
                    assert_eq!(&answer.hits, hits, "answer routed to the wrong requester");
                });
            }
        });
        assert_eq!(server.queries_served(), n);
        assert!(server.batches_executed() <= n);
    }
}
