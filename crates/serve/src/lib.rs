//! `bikecap-serve` — a batched, multi-threaded inference server for BikeCAP
//! models, built on the standard library alone.
//!
//! The pipeline, front to back:
//!
//! 1. **HTTP front end** ([`http`], [`server`]) — a hand-rolled HTTP/1.1 JSON
//!    protocol on `std::net::TcpListener`, one thread per connection.
//!    `POST /predict` takes a history window, `GET /healthz` and
//!    `GET /metrics` cover operations, `POST /admin/reload` hot-swaps
//!    checkpoints.
//! 2. **Dynamic micro-batching** ([`batcher`]) — requests land on a bounded
//!    queue; a free worker takes the first waiting request plus everything
//!    queued behind it (up to `max_batch`, with no linger by default),
//!    stacks the windows, and runs a *single* batched forward pass via
//!    `BikeCap::predict_batch`. Batched outputs are bit-for-bit identical
//!    to single-request predictions. A full queue rejects immediately (503)
//!    instead of letting latency grow without bound.
//! 3. **Model registry** ([`registry`]) — named models loaded from versioned
//!    checkpoints (config-hash verified), hot-swappable behind
//!    `RwLock<Arc<BikeCap>>` so in-flight batches never observe a
//!    half-loaded model.
//! 4. **Observability** ([`metrics`]) — request counters, queue depth, a
//!    batch-size histogram, and p50/p99 latency over a sliding window.
//! 5. **Lifecycle** ([`signal`]) — SIGINT/SIGTERM set a flag;
//!    [`server::Server::run_until`] then stops accepting, finishes open
//!    connections, and drains every queued prediction before exit.
//!
//! ```no_run
//! use std::sync::Arc;
//! use bikecap_serve::registry::ModelRegistry;
//! use bikecap_serve::server::{ServeConfig, Server};
//!
//! let registry = Arc::new(ModelRegistry::new());
//! registry
//!     .load_checkpoint("default", bikecap_core::BikeCapConfig::new(16, 8), "model.ckpt")
//!     .unwrap();
//! let server = Server::start(ServeConfig::default(), registry).unwrap();
//! println!("listening on {}", server.local_addr());
//! server.run_until(bikecap_serve::signal::install_shutdown_flag());
//! ```

#![deny(missing_docs)]

mod backoff;
pub mod batcher;
pub mod http;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod signal;

pub use batcher::{compute_threads_per_worker, BatchConfig, Batcher, SubmitError};
pub use json::Json;
pub use metrics::Metrics;
pub use registry::{ModelEntry, ModelRegistry, RegistryError, DEFAULT_MODEL};
pub use server::{ServeConfig, Server};
