//! `bikecap-live` — the live-city adaptation loop.
//!
//! The rest of the workspace trains once and serves forever; this crate
//! closes the loop. Record-level trip streams (from `bikecap-city-sim`,
//! or in production from a message bus) flow through four stages:
//!
//! 1. **Streaming ingestion** ([`stream`]) — a deterministic, time-ordered
//!    replay of bike and subway records, merged into one event stream.
//!    Replays are a pure function of the generating seed, so every chaos
//!    scenario reproduces bit for bit.
//! 2. **Rolling aggregation** ([`window`]) — records land in a bounded ring
//!    of 15-minute demand frames, the streaming twin of
//!    `DemandSeries::from_trips`. Empty slots, boundary-straddling records
//!    and out-of-order arrivals aggregate deterministically; anything the
//!    window must refuse is a typed [`window::WindowError`], never a silent
//!    drop.
//! 3. **Drift detection** ([`drift`]) — a hysteresis state machine
//!    (`Stable → Suspect → Drifted → Retraining → RolledBack`) over three
//!    signals: the serving model's rolling prediction error against the
//!    live window, plus the routing telemetry (coupling entropy, agreement
//!    delta) its forward pass returns with the prediction. Single noisy
//!    slots never trigger; sustained regime shifts always do, within a
//!    configured confirmation window.
//! 4. **Adaptation** ([`adapt`]) — on confirmed drift the incumbent is
//!    fine-tuned on the fresh window via `fit_resilient` (inheriting its
//!    autosave and divergence-rollback machinery), shadow-evaluated against
//!    the serving incumbent on a held-out slice, and hot-swapped through
//!    the same reload path `POST /admin/reload` uses — only if it wins. A
//!    losing or diverging candidate is rolled back and the refusal
//!    recorded; the incumbent never stops serving.
//!
//! Every stage carries `live.*` failpoints (see `bikecap-faults`; armed
//! only under the `faultline` feature) and emits `live.*` spans and value
//! events through `bikecap-obs`; the crate never installs an obs sink, so
//! whatever sink the process set up keeps receiving them. DESIGN.md
//! Appendix H documents the state machine, default thresholds, and
//! failpoint site names.

#![deny(missing_docs)]

pub mod adapt;
pub mod drift;
pub mod stream;
pub mod window;

pub use adapt::{AdaptOutcome, LiveConfig, LiveLoop, LiveReport};
pub use drift::{DriftDetector, DriftState, DriftThresholds, SlotSignals};
pub use stream::{LiveRecord, RecordStream};
pub use window::{RollingWindow, WindowError};
