//! The serving front end: a TCP acceptor, a thread per connection, and JSON
//! routes wired to the model registry and batching queue.
//!
//! Routes:
//!
//! * `POST /predict` — body `{"model"?: "name", "input": {"shape": [F,h,H,W],
//!   "data": [..]}}`; answers the predicted demand maps `(p, H, W)` plus the
//!   batch size the request rode in on. A full queue answers `503`.
//! * `GET /healthz` — liveness plus the registered model names.
//! * `GET /metrics` — counters, batch-size histogram, queue depth, latency
//!   quantiles (see [`crate::metrics::Metrics::to_json`]).
//! * `POST /admin/reload` — body `{"model"?: "name", "checkpoint": "path"}`;
//!   hot-swaps the named slot from a checkpoint without dropping requests.
//! * `GET /debug/requests` — the top-K slowest recent requests from the
//!   trace ring: per-request trace id plus queue/batch/compute/serialize
//!   stage timings; the same trace ids annotate the `/metrics` latency
//!   histogram buckets as OpenMetrics exemplars.
//!
//! Shutdown is graceful: the acceptor stops, open connections finish, and the
//! batcher drains every accepted job before workers exit.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bikecap_core::BikeCapConfig;
use bikecap_tensor::Tensor;

use crate::batcher::{BatchConfig, Batcher, PredictJob, SubmitError};
use crate::http::{self, HttpError, Request};
use crate::json::Json;
use crate::metrics::{Metrics, RequestTrace};
use crate::registry::{ModelRegistry, RegistryError};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port `0` picks an ephemeral one).
    pub addr: String,
    /// Batching queue and worker pool settings.
    pub batch: BatchConfig,
    /// How long one request may wait for its prediction before `504`.
    pub request_timeout: Duration,
    /// Socket read/write timeout (bounds how long a slow client can pin a
    /// connection thread).
    pub io_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Extra bind attempts when the address is already in use (covers the
    /// `TIME_WAIT` window after a restart); `0` fails immediately.
    pub bind_retries: u32,
    /// Base delay between bind attempts (grows exponentially with jitter).
    pub bind_backoff: Duration,
    /// Extra submit attempts when the batching queue rejects a request
    /// before answering `503`; `0` sheds load on the first rejection.
    pub submit_retries: u32,
    /// Base delay between submit attempts (grows exponentially with
    /// jitter, never past the request deadline).
    pub submit_backoff: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            batch: BatchConfig::default(),
            request_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(10),
            max_body_bytes: 16 * 1024 * 1024,
            bind_retries: 3,
            bind_backoff: Duration::from_millis(200),
            submit_retries: 2,
            submit_backoff: Duration::from_millis(2),
        }
    }
}

struct Inner {
    registry: Arc<ModelRegistry>,
    batcher: Batcher,
    metrics: Arc<Metrics>,
    config: ServeConfig,
    stop: AtomicBool,
    conns: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops the
/// acceptor, joins open connections, and drains the batcher.
pub struct Server {
    addr: SocketAddr,
    inner: Arc<Inner>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts the acceptor and batch workers. An
    /// address already in use (the `TIME_WAIT` window after a restart, or a
    /// predecessor still draining) is retried `config.bind_retries` times
    /// with jittered exponential backoff before giving up.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable after all
    /// retries (non-`AddrInUse` bind errors fail immediately).
    pub fn start(config: ServeConfig, registry: Arc<ModelRegistry>) -> io::Result<Server> {
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::start(config.batch.clone(), Arc::clone(&metrics));
        let listener = bind_with_retry(&config)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            registry,
            batcher,
            metrics,
            config,
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("bikecap-accept".to_string())
                .spawn(move || accept_loop(&listener, &inner))
                .expect("spawn acceptor")
        };
        Ok(Server {
            addr,
            inner,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics handle.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// The registry this server routes to.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.inner.registry)
    }

    /// Blocks until `stop` becomes true (e.g. the flag from
    /// [`crate::signal::install_shutdown_flag`]), then shuts down gracefully.
    pub fn run_until(self, stop: &AtomicBool) {
        while !stop.load(Ordering::SeqCst) && !self.inner.stop.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(50));
        }
        self.shutdown();
    }

    /// Graceful shutdown: stop accepting, finish open connections, drain and
    /// answer every queued prediction, then join all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.acceptor.take() {
            // An acceptor the wake never reached is left detached rather
            // than joined: it exits on the next connection it accepts.
            if wake_acceptor(self.addr, &handle) {
                let _ = handle.join();
            }
        }
        let conns: Vec<_> = self
            .inner
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for handle in conns {
            let _ = handle.join();
        }
        // Connections are done submitting; now drain what they queued.
        self.inner.batcher.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds the configured address, retrying `bind_retries` times with
/// jittered exponential backoff when the error is `AddrInUse`.
fn bind_with_retry(config: &ServeConfig) -> io::Result<TcpListener> {
    let mut attempt = 0u32;
    loop {
        match TcpListener::bind(&config.addr) {
            Ok(listener) => return Ok(listener),
            Err(e) if e.kind() == io::ErrorKind::AddrInUse && attempt < config.bind_retries => {
                thread::sleep(crate::backoff::jittered(
                    config.bind_backoff,
                    attempt,
                    0xb1de_ca9b,
                ));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Unparks an acceptor blocked in `accept` after `stop` is set, by
/// connecting to the listener (a wildcard bind is reached through the
/// loopback of the same family). Retries until the acceptor thread has
/// finished, bounded at about a second; returns whether it finished.
fn wake_acceptor(addr: SocketAddr, acceptor: &thread::JoinHandle<()>) -> bool {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let give_up = Instant::now() + Duration::from_secs(1);
    while !acceptor.is_finished() && Instant::now() < give_up {
        // The acceptor drops this connection unanswered once it sees `stop`.
        let _ = TcpStream::connect_timeout(&target, Duration::from_millis(100));
        thread::sleep(Duration::from_millis(2));
    }
    acceptor.is_finished()
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let accepted = listener.accept();
        // Shutdown wakes this blocking accept with a connection of its own;
        // it (and anything else accepted after `stop`) is dropped unanswered.
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let conn_inner = Arc::clone(inner);
                let handle = thread::Builder::new()
                    .name("bikecap-conn".to_string())
                    .spawn(move || handle_connection(&conn_inner, stream));
                let mut conns = inner.conns.lock().unwrap_or_else(|e| e.into_inner());
                if let Ok(handle) = handle {
                    conns.push(handle);
                }
                // Reap finished connections so the handle list stays bounded
                // under sustained load (dropping a finished handle is a no-op
                // join-wise; the thread has already exited).
                if conns.len() > 64 {
                    conns.retain(|h| !h.is_finished());
                }
            }
            // A real accept error (EMFILE and the like) would fail again at
            // once; back off so the loop cannot spin.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn handle_connection(inner: &Inner, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(inner.config.io_timeout));
    let _ = stream.set_write_timeout(Some(inner.config.io_timeout));
    let request = match http::read_request(&mut stream, inner.config.max_body_bytes) {
        Ok(Ok(request)) => request,
        Ok(Err(e)) => {
            inner.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
            let (status, body) = error_response(e);
            let _ = http::write_response(&mut stream, status, &body);
            return;
        }
        // Transport error (client vanished, read timed out): nothing to say.
        Err(_) => return,
    };
    let (status, body) = route(inner, &request);
    let content_type = if request.path == "/metrics" && status == 200 {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    };
    let _ = http::write_response_typed(&mut stream, status, content_type, &body);
}

fn route(inner: &Inner, request: &Request) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/predict") => predict(inner, &request.body),
        ("GET", "/healthz") => healthz(inner),
        ("GET", "/metrics") => {
            let degraded = is_degraded(inner);
            inner.metrics.degraded.store(degraded, Ordering::Relaxed);
            (200, inner.metrics.to_prometheus())
        }
        ("GET", "/metrics.json") => {
            let degraded = is_degraded(inner);
            inner.metrics.degraded.store(degraded, Ordering::Relaxed);
            (200, inner.metrics.to_json().to_string())
        }
        ("POST", "/admin/reload") => reload(inner, &request.body),
        ("GET", "/debug/requests") => debug_requests(inner),
        (
            _,
            "/predict" | "/healthz" | "/metrics" | "/metrics.json" | "/admin/reload"
            | "/debug/requests",
        ) => error_response(HttpError::new(405, "method not allowed for this route")),
        _ => error_response(HttpError::new(404, "no such route")),
    }
}

fn error_response(e: HttpError) -> (u16, String) {
    (
        e.status,
        Json::obj([
            ("error", Json::Str(e.message)),
            ("code", Json::Str(e.code.to_string())),
        ])
        .to_string(),
    )
}

/// Whether the server is running in degraded mode: still answering, but a
/// registry slot is pinned to a stale network after a failed reload, or a
/// fault schedule is actively armed (chaos testing). `metrics.degraded` is
/// a mirror of this value, never an input — reading it back would latch
/// degraded on permanently.
fn is_degraded(inner: &Inner) -> bool {
    inner.registry.any_degraded() || bikecap_faults::active()
}

fn healthz(inner: &Inner) -> (u16, String) {
    let degraded = is_degraded(inner);
    // Keep the metrics mirror current even if nobody polls /metrics.
    inner.metrics.degraded.store(degraded, Ordering::Relaxed);
    let models: Vec<Json> = inner.registry.names().into_iter().map(Json::Str).collect();
    // Model "versions": the hot-swap generation of each registry slot. A
    // live-adaptation swap (or POST /admin/reload) bumps the count, so
    // clients — and the live-loop tests — can see which weights serve.
    let versions = Json::Obj(
        inner
            .registry
            .names()
            .into_iter()
            .filter_map(|name| {
                inner
                    .registry
                    .get(Some(name.as_str()))
                    .ok()
                    .map(|entry| (name, Json::Num(entry.swap_count() as f64)))
            })
            .collect(),
    );
    // Per-model numeric precision ("f32", "q8_0", "f16"): reflects the
    // checkpoint each slot last loaded, so operators can confirm a
    // quantized deploy actually took (and spot a rollback to f32).
    let precision = Json::Obj(
        inner
            .registry
            .names()
            .into_iter()
            .filter_map(|name| {
                inner
                    .registry
                    .get(Some(name.as_str()))
                    .ok()
                    .map(|entry| (name, Json::Str(entry.current().precision().to_string())))
            })
            .collect(),
    );
    // The executor every request routes through: read from the default
    // model so the answer reflects what is actually serving (hot-swapped
    // models included), not just how the process was configured.
    let executor = inner
        .registry
        .get(None)
        .map(|entry| entry.current().exec_mode().name())
        .unwrap_or("none");
    // Ditto for the plan-verification mode (BIKECAP_VERIFY).
    let verify = inner
        .registry
        .get(None)
        .map(|entry| entry.current().verify_mode().name())
        .unwrap_or("none");
    let doc = Json::obj([
        (
            "status",
            Json::Str(if degraded { "degraded" } else { "ok" }.to_string()),
        ),
        ("degraded", Json::Bool(degraded)),
        ("executor", Json::Str(executor.to_string())),
        ("verify", Json::Str(verify.to_string())),
        ("models", Json::Arr(models)),
        ("versions", versions),
        ("precision", precision),
        (
            "queue_depth",
            Json::Num(inner.metrics.queue_depth.load(Ordering::Relaxed) as f64),
        ),
    ]);
    (200, doc.to_string())
}

/// How many tail requests `GET /debug/requests` returns.
const DEBUG_REQUESTS_TOP_K: usize = 16;

/// Dumps the top-K slowest requests still in the trace ring, slowest
/// first, with their per-stage breakdowns. The trace ids here are the same
/// ones stamped on the `/metrics` latency-histogram exemplars.
fn debug_requests(inner: &Inner) -> (u16, String) {
    let traces = inner.metrics.top_requests(DEBUG_REQUESTS_TOP_K);
    let rows: Vec<Json> = traces
        .iter()
        .map(|t| {
            Json::obj([
                ("trace_id", Json::Num(t.trace_id as f64)),
                ("total_us", Json::Num(t.total_us as f64)),
                ("batch_size", Json::Num(t.batch_size as f64)),
                (
                    "stages",
                    Json::obj([
                        ("queue_wait_us", Json::Num(t.queue_wait_us as f64)),
                        ("batch_assembly_us", Json::Num(t.batch_assembly_us as f64)),
                        ("compute_us", Json::Num(t.compute_us as f64)),
                        ("serialize_us", Json::Num(t.serialize_us as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("count", Json::Num(rows.len() as f64)),
        ("requests", Json::Arr(rows)),
    ]);
    (200, doc.to_string())
}

/// Decrements `in_flight` on drop so every exit path of [`predict`] —
/// success, client error, shed, timeout, or panic unwind — stays balanced.
struct InFlightGuard<'a>(&'a Metrics);

impl<'a> InFlightGuard<'a> {
    fn enter(metrics: &'a Metrics) -> Self {
        metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlightGuard(metrics)
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

fn predict(inner: &Inner, body: &[u8]) -> (u16, String) {
    inner.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
    let _in_flight = InFlightGuard::enter(&inner.metrics);
    let _span = bikecap_obs::span("serve.predict");
    let started = Instant::now();
    match predict_impl(inner, body, started) {
        Ok((doc, mut trace)) => {
            inner.metrics.responses_ok.fetch_add(1, Ordering::Relaxed);
            let serialize_start = Instant::now();
            let body = {
                let _ser_span = bikecap_obs::span("serve.predict.serialize");
                doc.to_string()
            };
            let serialize = serialize_start.elapsed();
            inner.metrics.stage_serialize.observe(serialize);
            trace.serialize_us = serialize.as_micros().min(u64::MAX as u128) as u64;
            trace.total_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
            // One call records latency, the stage breakdown, and (if this
            // is its bucket's slowest) the exemplar — all under one id.
            inner.metrics.record_request(trace);
            (200, body)
        }
        Err(e) => {
            if e.status == 503 {
                inner.metrics.rejected_total.fetch_add(1, Ordering::Relaxed);
            } else if (400..500).contains(&e.status) {
                inner.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
            }
            error_response(e)
        }
    }
}

fn predict_impl(
    inner: &Inner,
    body: &[u8],
    started: Instant,
) -> Result<(Json, RequestTrace), HttpError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| HttpError::with_code(400, "bad_encoding", "body is not utf-8"))?;
    let doc = Json::parse(text)
        .map_err(|e| HttpError::with_code(400, "bad_json", format!("invalid json: {e}")))?;
    let entry = inner
        .registry
        .get(doc.get("model").and_then(Json::as_str))
        .map_err(|e| match e {
            RegistryError::UnknownModel(name) => {
                HttpError::with_code(404, "unknown_model", format!("unknown model '{name}'"))
            }
            other => HttpError::new(500, other.to_string()),
        })?;
    let input = parse_input(&doc, entry.config())?;
    let deadline = started + inner.config.request_timeout;

    let trace_id = inner.metrics.next_trace_id();
    let (respond, result_rx) = mpsc::channel();
    let mut job = PredictJob {
        trace_id,
        entry: Arc::clone(&entry),
        input,
        enqueued: started,
        deadline,
        respond,
    };
    // A full queue is often a few-millisecond condition (one batch draining),
    // so retry with jittered backoff before answering 503 — but never past
    // the request deadline, and never when the server is shutting down.
    let mut attempt = 0u32;
    loop {
        match inner.batcher.submit_or_return(job) {
            Ok(()) => break,
            Err((SubmitError::ShuttingDown, _)) => {
                return Err(HttpError::with_code(
                    503,
                    "shutting_down",
                    "server is shutting down",
                ));
            }
            Err((SubmitError::QueueFull, rejected)) => {
                let pause =
                    crate::backoff::jittered(inner.config.submit_backoff, attempt, 0x5e7b_cafe);
                if attempt >= inner.config.submit_retries || Instant::now() + pause >= deadline {
                    return Err(HttpError::with_code(
                        503,
                        "queue_full",
                        "prediction queue full, retry later",
                    ));
                }
                inner
                    .metrics
                    .submit_retries_total
                    .fetch_add(1, Ordering::Relaxed);
                thread::sleep(pause);
                attempt += 1;
                job = rejected;
            }
        }
    }
    let wait = deadline.saturating_duration_since(Instant::now());
    let _wait_span = bikecap_obs::span("serve.predict.wait");
    let result = result_rx
        .recv_timeout(wait)
        .map_err(|_| HttpError::with_code(504, "deadline_exceeded", "prediction timed out"))?;
    drop(_wait_span);
    let output = result.output.map_err(|msg| HttpError::new(500, msg))?;

    // serialize_us and total_us are filled by the caller once the response
    // body is rendered.
    let trace = RequestTrace {
        trace_id,
        total_us: 0,
        queue_wait_us: result.queue_wait_us,
        batch_assembly_us: result.batch_assembly_us,
        compute_us: result.compute_us,
        serialize_us: 0,
        batch_size: result.batch_size,
    };
    let doc = Json::obj([
        ("model", Json::Str(entry.name().to_string())),
        ("shape", Json::from_usizes(output.shape())),
        ("data", Json::from_f32s(output.as_slice())),
        ("batch_size", Json::Num(result.batch_size as f64)),
        ("trace_id", Json::Num(trace_id as f64)),
        (
            "latency_us",
            Json::Num(started.elapsed().as_micros() as f64),
        ),
    ]);
    Ok((doc, trace))
}

/// Validates the `input` payload against the model's architecture and builds
/// the `(F, h, H, W)` window tensor.
fn parse_input(doc: &Json, config: &BikeCapConfig) -> Result<Tensor, HttpError> {
    let input = doc
        .get("input")
        .ok_or_else(|| HttpError::with_code(400, "missing_input", "missing 'input'"))?;
    let shape: Vec<usize> = input
        .get("shape")
        .and_then(Json::as_arr)
        .ok_or_else(|| {
            HttpError::with_code(400, "bad_shape", "'input.shape' must be an array of integers")
        })?
        .iter()
        .map(Json::as_usize)
        .collect::<Option<_>>()
        .ok_or_else(|| {
            HttpError::with_code(400, "bad_shape", "'input.shape' must be non-negative integers")
        })?;
    // The forward pass takes the full 4-feature layout and drops the subway
    // channels itself when the variant ignores them, so both the canonical
    // F=4 and the variant's own feature count are accepted.
    let features_ok = shape.first() == Some(&4) || shape.first() == Some(&config.input_features());
    let dims_ok = shape.len() == 4
        && shape[1] == config.history
        && shape[2] == config.grid_height
        && shape[3] == config.grid_width;
    if !features_ok || !dims_ok {
        return Err(HttpError::with_code(
            400,
            "bad_shape",
            format!(
                "input shape {:?} does not match model window ({}, {}, {}, {})",
                shape, 4, config.history, config.grid_height, config.grid_width
            ),
        ));
    }
    let data = input
        .get("data")
        .and_then(Json::as_arr)
        .ok_or_else(|| {
            HttpError::with_code(400, "bad_data", "'input.data' must be an array of numbers")
        })?;
    let expected: usize = shape.iter().product();
    if data.len() != expected {
        return Err(HttpError::with_code(
            400,
            "bad_shape",
            format!(
                "'input.data' has {} values, shape {:?} needs {}",
                data.len(),
                shape,
                expected
            ),
        ));
    }
    let values: Vec<f32> = data
        .iter()
        .map(|v| v.as_f64().map(|f| f as f32))
        .collect::<Option<_>>()
        .ok_or_else(|| {
            HttpError::with_code(400, "bad_data", "'input.data' must contain only numbers")
        })?;
    if values.iter().any(|v| !v.is_finite()) {
        return Err(HttpError::with_code(
            400,
            "non_finite_input",
            "'input.data' must be finite (no NaN or Inf)",
        ));
    }
    Ok(Tensor::from_vec(values, &shape))
}

fn reload(inner: &Inner, body: &[u8]) -> (u16, String) {
    let outcome = (|| -> Result<Json, HttpError> {
        let text =
            std::str::from_utf8(body).map_err(|_| HttpError::new(400, "body is not utf-8"))?;
        let doc =
            Json::parse(text).map_err(|e| HttpError::new(400, format!("invalid json: {e}")))?;
        let path = doc
            .get("checkpoint")
            .and_then(Json::as_str)
            .ok_or_else(|| HttpError::new(400, "missing 'checkpoint'"))?;
        let entry = inner
            .registry
            .get(doc.get("model").and_then(Json::as_str))
            .map_err(|e| HttpError::new(404, e.to_string()))?;
        // 409: the running model is untouched when the checkpoint is bad.
        entry
            .reload(path)
            .map_err(|e| HttpError::new(409, e.to_string()))?;
        inner.metrics.swaps_total.fetch_add(1, Ordering::Relaxed);
        Ok(Json::obj([
            ("status", Json::Str("reloaded".to_string())),
            ("model", Json::Str(entry.name().to_string())),
            ("swaps", Json::Num(entry.swap_count() as f64)),
        ]))
    })();
    match outcome {
        Ok(doc) => (200, doc.to_string()),
        Err(e) => {
            inner.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
            error_response(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DEFAULT_MODEL;
    use bikecap_core::BikeCap;

    fn tiny_config() -> BikeCapConfig {
        BikeCapConfig::new(4, 4)
            .history(4)
            .horizon(2)
            .pyramid_size(2)
            .capsule_dim(2)
            .out_capsule_dim(2)
            .decoder_channels(2)
    }

    fn start_tiny() -> Server {
        let registry = Arc::new(ModelRegistry::new());
        registry.insert(DEFAULT_MODEL, BikeCap::seeded(tiny_config(), 5));
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        };
        Server::start(config, registry).unwrap()
    }

    fn get(server: &Server, path: &str) -> (u16, String) {
        http::client_request(
            server.local_addr(),
            "GET",
            path,
            None,
            Duration::from_secs(5),
        )
        .unwrap()
    }

    fn post(server: &Server, path: &str, body: &str) -> (u16, String) {
        http::client_request(
            server.local_addr(),
            "POST",
            path,
            Some(body),
            Duration::from_secs(10),
        )
        .unwrap()
    }

    fn predict_body() -> String {
        let data: Vec<f32> = (0..4 * 4 * 4 * 4).map(|i| (i % 7) as f32 * 0.1).collect();
        Json::obj([(
            "input",
            Json::obj([
                ("shape", Json::from_usizes(&[4, 4, 4, 4])),
                ("data", Json::from_f32s(&data)),
            ]),
        )])
        .to_string()
    }

    #[test]
    fn healthz_and_metrics_respond() {
        let server = start_tiny();
        let (status, body) = get(&server, "/healthz");
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        // The plan-verification mode rides next to the executor; both come
        // from the default model, so neither may be "none" here.
        let executor = doc.get("executor").and_then(Json::as_str);
        assert!(matches!(executor, Some("compiled" | "eager")), "{body}");
        let verify = doc.get("verify").and_then(Json::as_str);
        assert!(matches!(verify, Some("strict" | "warn" | "off")), "{body}");
        // Every registered model reports its numeric precision; the test
        // model is built from f32 weights, so no quantized set is attached.
        let precision = doc
            .get("precision")
            .and_then(|p| p.get("default"))
            .and_then(Json::as_str);
        assert_eq!(precision, Some("f32"), "{body}");

        // /metrics is Prometheus text now…
        let (status, body) = get(&server, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE bikecap_requests_total counter"), "{body}");
        assert!(
            body.contains("bikecap_stage_duration_us_bucket{stage=\"compute\""),
            "{body}"
        );

        // …and the JSON snapshot moved to /metrics.json.
        let (status, body) = get(&server, "/metrics.json");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        assert!(doc.get("batch_size_histogram").is_some());
        assert_eq!(doc.get("in_flight").and_then(Json::as_usize), Some(0));
        server.shutdown();
    }

    #[test]
    fn shutdown_wakes_a_blocked_acceptor() {
        // The acceptor blocks in `accept`; shutdown must wake it promptly,
        // including through the loopback for a wildcard bind.
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let registry = Arc::new(ModelRegistry::new());
            registry.insert(DEFAULT_MODEL, BikeCap::seeded(tiny_config(), 5));
            let config = ServeConfig {
                addr: addr.to_string(),
                ..ServeConfig::default()
            };
            let server = Server::start(config, registry).unwrap();
            let port = server.local_addr().port();
            let (status, body) = http::client_request(
                SocketAddr::from((Ipv4Addr::LOCALHOST, port)),
                "POST",
                "/predict",
                Some(&predict_body()),
                Duration::from_secs(10),
            )
            .unwrap();
            assert_eq!(status, 200, "{addr}: {body}");
            let started = Instant::now();
            server.shutdown();
            let took = started.elapsed();
            assert!(
                took < Duration::from_millis(500),
                "{addr}: shutdown took {took:?}"
            );
        }
    }

    #[test]
    fn gauges_balance_after_retries_and_timeouts() {
        // A saturating burst exercises the retry, shed, and deadline paths;
        // afterwards the queue-depth and in-flight gauges must both read 0.
        let registry = Arc::new(ModelRegistry::new());
        registry.insert(DEFAULT_MODEL, BikeCap::seeded(tiny_config(), 5));
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            batch: BatchConfig {
                queue_cap: 2,
                max_batch: 1,
                max_wait: Duration::ZERO,
                workers: 1,
                worker_delay: Duration::from_millis(80),
                ..BatchConfig::default()
            },
            request_timeout: Duration::from_millis(200),
            submit_retries: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(config, registry).unwrap();
        let addr = server.local_addr();
        let body = predict_body();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let body = body.clone();
                thread::spawn(move || {
                    http::client_request(addr, "POST", "/predict", Some(&body), Duration::from_secs(10))
                        .map(|(status, _)| status)
                })
            })
            .collect();
        let mut statuses = Vec::new();
        for h in handles {
            statuses.push(h.join().unwrap().unwrap());
        }
        // Every request got a definite answer (200, shed 503, or timeout 504).
        assert!(statuses.iter().all(|s| [200, 503, 504].contains(s)), "{statuses:?}");
        let metrics = server.metrics();
        // Give the worker a beat to finish the last drained batch.
        for _ in 0..100 {
            if metrics.in_flight.load(Ordering::Relaxed) == 0 {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(metrics.in_flight.load(Ordering::Relaxed), 0);
        server.shutdown();
        // Post-drain: nothing left queued, nothing left in flight.
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn predict_end_to_end() {
        let server = start_tiny();
        let (status, body) = post(&server, "/predict", &predict_body());
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        let shape: Vec<usize> = doc
            .get("shape")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_usize().unwrap())
            .collect();
        assert_eq!(shape, vec![2, 4, 4]);
        assert!(doc.get("batch_size").and_then(Json::as_usize).unwrap() >= 1);
        let metrics = server.metrics();
        assert_eq!(metrics.responses_ok.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn debug_requests_and_exemplars_agree() {
        let server = start_tiny();
        let mut response_ids = Vec::new();
        for _ in 0..5 {
            let (status, body) = post(&server, "/predict", &predict_body());
            assert_eq!(status, 200, "{body}");
            let doc = Json::parse(&body).unwrap();
            let id = doc.get("trace_id").and_then(Json::as_usize).unwrap();
            assert!(id >= 1, "trace ids are 1-based");
            response_ids.push(id as u64);
        }

        let (status, body) = get(&server, "/debug/requests");
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_usize), Some(5));
        let requests = doc.get("requests").and_then(Json::as_arr).unwrap();
        assert_eq!(requests.len(), 5);
        let mut dumped_ids = Vec::new();
        let mut last_total = u64::MAX;
        for req in requests {
            let total = req.get("total_us").and_then(Json::as_usize).unwrap() as u64;
            assert!(total <= last_total, "dump must be sorted slowest-first");
            last_total = total;
            dumped_ids.push(req.get("trace_id").and_then(Json::as_usize).unwrap() as u64);
            let stages = req.get("stages").unwrap();
            // Every stage is reported. Stages can overlap (queue_wait spans
            // the assembly window, batch compute is charged to every member
            // of the batch), so they need not sum to the total — but each
            // one is contained in the request's wall-clock span.
            for stage in ["queue_wait_us", "batch_assembly_us", "compute_us", "serialize_us"] {
                let us = stages.get(stage).and_then(Json::as_usize).unwrap() as u64;
                assert!(us <= total, "{stage} {us} exceeds total {total}");
            }
        }
        dumped_ids.sort_unstable();
        let mut expected = response_ids.clone();
        expected.sort_unstable();
        assert_eq!(dumped_ids, expected, "dump covers exactly the served requests");

        // Every exemplar on /metrics names a trace id visible in the dump.
        let (status, text) = get(&server, "/metrics");
        assert_eq!(status, 200);
        let mut exemplar_ids = Vec::new();
        for line in text.lines().filter(|l| l.contains("# {trace_id=\"")) {
            assert!(line.contains("bikecap_request_latency_us_bucket"), "{line}");
            let id = line
                .split("trace_id=\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .and_then(|id| id.parse::<u64>().ok())
                .unwrap();
            exemplar_ids.push(id);
        }
        assert!(!exemplar_ids.is_empty(), "5 requests must leave an exemplar");
        assert!(
            exemplar_ids.iter().all(|id| dumped_ids.contains(id)),
            "exemplar ids {exemplar_ids:?} must appear in /debug/requests {dumped_ids:?}"
        );
        server.shutdown();
    }

    #[test]
    fn bad_requests_get_structured_errors() {
        let server = start_tiny();
        let (status, _) = post(&server, "/predict", "not json");
        assert_eq!(status, 400);
        let (status, body) = post(
            &server,
            "/predict",
            r#"{"input":{"shape":[1,2,3],"data":[0]}}"#,
        );
        assert_eq!(status, 400, "{body}");
        let (status, _) = post(
            &server,
            "/predict",
            &predict_body().replace("\"input\"", "\"model\":\"nope\",\"input\""),
        );
        assert_eq!(status, 404);
        let (status, _) = get(&server, "/nope");
        assert_eq!(status, 404);
        let (status, _) = get(&server, "/predict");
        assert_eq!(status, 405);
        assert!(server.metrics().client_errors.load(Ordering::Relaxed) >= 3);
        server.shutdown();
    }

    #[test]
    fn admin_reload_hot_swaps() {
        let server = start_tiny();
        let path = std::env::temp_dir().join(format!(
            "bikecap-serve-reload-{}.ckpt",
            std::process::id()
        ));
        BikeCap::seeded(tiny_config(), 42)
            .save_checkpoint(&path)
            .unwrap();
        let body = Json::obj([(
            "checkpoint",
            Json::Str(path.display().to_string()),
        )])
        .to_string();
        let (status, reply) = post(&server, "/admin/reload", &body);
        assert_eq!(status, 200, "{reply}");
        assert_eq!(server.metrics().swaps_total.load(Ordering::Relaxed), 1);

        // A missing checkpoint leaves the model serving and reports 409.
        let bad = r#"{"checkpoint":"/nonexistent/nope.ckpt"}"#;
        let (status, _) = post(&server, "/admin/reload", bad);
        assert_eq!(status, 409);
        let (status, _) = post(&server, "/predict", &predict_body());
        assert_eq!(status, 200);
        std::fs::remove_file(path).ok();
        server.shutdown();
    }
}
