//! The adaptation driver: monitor → detect → fine-tune → shadow-eval →
//! hot-swap (or roll back).
//!
//! [`LiveLoop`] wires the crate's pieces to a serving [`ModelEntry`]:
//!
//! 1. The serving model itself predicts each newly sealed slot from the
//!    rolling window through `BikeCap::predict_with_telemetry`, which
//!    returns the routing entropy/agreement statistics of that pass next to
//!    the prediction. Its absolute error plus those statistics feed the
//!    [`DriftDetector`]. The loop installs no obs sink.
//! 2. On confirmed drift the incumbent's weights are checkpointed, a
//!    candidate is fine-tuned on the fresh window through
//!    `BikeCap::fit_resilient` — inheriting its autosave and
//!    divergence-rollback machinery — and shadow-evaluated against the
//!    serving incumbent on the window's held-out validation slice.
//! 3. Only a winning candidate is hot-swapped, through the same
//!    [`ModelEntry::reload`] path `POST /admin/reload` uses (so the
//!    `serve.reload.swap` failpoint and degraded-mode pinning apply). A
//!    diverging, failing, or losing candidate rolls back: the incumbent
//!    keeps serving, untouched, and the refusal is recorded.
//!
//! Failpoints: `live.adapt.finetune` (fine-tune refused to start),
//! `live.adapt.shadow` (shadow evaluation invalidated), `live.adapt.swap`
//! (swap vetoed after a winning eval). Obs: `live.slot` / `live.adapt` /
//! `live.adapt.shadow` spans and `live.monitor.error`, `live.adapt.*`
//! value events. Metrics: drift score/state gauges and
//! swap/rollback/refusal counters when a [`Metrics`] handle is attached.
//!
//! Determinism: the loop holds no RNG and never reads the clock; model
//! training and inference are bitwise-reproducible across thread counts
//! (the workspace's `bikecap-rt` contract), so a replayed stream yields a
//! bitwise identical [`LiveReport`] fingerprint for any `BIKECAP_THREADS`.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bikecap_city_sim::dataset::{ForecastDataset, Normalizer, Split};
use bikecap_city_sim::{FEATURES, F_BIKE_PICKUP};
use bikecap_core::trainer::{ResilientOptions, TrainerError};
use bikecap_core::{BikeCap, TrainOptions};
use bikecap_obs::Sink;
use bikecap_serve::registry::ModelEntry;
use bikecap_serve::Metrics;
use bikecap_tensor::Tensor;

use crate::drift::{DriftDetector, DriftState, DriftThresholds, SlotSignals};
use crate::stream::RecordStream;
use crate::window::{RollingWindow, WindowError};

/// Configuration of a [`LiveLoop`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Input history slots `h` (must match the served model).
    pub history: usize,
    /// Prediction horizon slots `p` (must match the served model).
    pub horizon: usize,
    /// Slot length in minutes (15 in the paper).
    pub slot_minutes: u32,
    /// Rolling-window retention in slots (open slot included). Must retain
    /// more than `5 × (history + horizon)` sealed slots for fine-tuning to
    /// be possible.
    pub window_capacity: usize,
    /// Drift-detector thresholds.
    pub thresholds: DriftThresholds,
    /// The normaliser the incumbent was trained with; replaced by the
    /// fresh window's normaliser after each successful swap.
    pub normalizer: Normalizer,
    /// Fine-tuning budget.
    pub train: TrainOptions,
    /// Seed for the fine-tuning epoch streams.
    pub seed: u64,
    /// Directory for the incumbent and candidate checkpoints written while
    /// adapting.
    pub work_dir: PathBuf,
    /// Fractional validation-MAE improvement a candidate must show to be
    /// swapped in (`0.0` = any improvement wins).
    pub min_improvement: f64,
    /// Divergence rollbacks allowed per fine-tune epoch.
    pub max_retries: usize,
    /// Divergence spike factor for the fine-tune guard.
    pub spike_factor: f32,
    /// Minibatch size used for shadow evaluation.
    pub eval_batch: usize,
}

impl LiveConfig {
    /// A configuration with test-scale training budgets.
    pub fn new(history: usize, horizon: usize, normalizer: Normalizer, work_dir: PathBuf) -> Self {
        LiveConfig {
            history,
            horizon,
            slot_minutes: 15,
            window_capacity: 128,
            thresholds: DriftThresholds::default(),
            normalizer,
            train: TrainOptions::smoke(),
            seed: 0,
            work_dir,
            min_improvement: 0.0,
            max_retries: 3,
            spike_factor: 4.0,
            eval_batch: 8,
        }
    }
}

/// What one adaptation attempt decided.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptOutcome {
    /// The candidate won shadow evaluation and was hot-swapped in.
    Swapped {
        /// Slot at which drift was confirmed.
        slot: usize,
        /// Incumbent validation MAE (normalized domain).
        incumbent_mae: f32,
        /// Candidate validation MAE (normalized domain).
        candidate_mae: f32,
    },
    /// The candidate trained fine but lost (or tied) shadow evaluation.
    Refused {
        /// Slot at which drift was confirmed.
        slot: usize,
        /// Incumbent validation MAE (normalized domain).
        incumbent_mae: f32,
        /// Candidate validation MAE (normalized domain).
        candidate_mae: f32,
    },
    /// Fine-tuning or the swap itself failed; the incumbent keeps serving.
    RolledBack {
        /// Slot at which drift was confirmed.
        slot: usize,
        /// Why the candidate was abandoned.
        reason: String,
    },
}

/// Everything a finished live run reports. All numeric fields are bitwise
/// deterministic for a given stream and seed.
#[derive(Debug, Clone, Default)]
pub struct LiveReport {
    /// Records ingested (after ingestion drops).
    pub records: u64,
    /// Records dropped by the `live.ingest.record` failpoint.
    pub dropped_records: u64,
    /// Sealed slots observed.
    pub slots: usize,
    /// Records refused by the window with a typed error.
    pub window_refusals: u64,
    /// `live.window.slot` faults observed at seal boundaries.
    pub injected_faults: u64,
    /// Detector transition log `(slot, entered state)`.
    pub transitions: Vec<(usize, DriftState)>,
    /// Adaptation attempts in order.
    pub outcomes: Vec<AdaptOutcome>,
    /// Successful hot-swaps.
    pub swaps: u64,
    /// Fine-tune failures rolled back.
    pub rollbacks: u64,
    /// Shadow-evaluation refusals.
    pub refusals: u64,
    /// Per-slot drift scores as IEEE-754 bit patterns — the bitwise
    /// reproducibility fingerprint.
    pub score_bits: Vec<u64>,
}

impl LiveReport {
    /// Order-sensitive FNV-1a fold of the report's deterministic fields,
    /// for cross-run / cross-thread-count bitwise comparison.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.records);
        mix(self.slots as u64);
        mix(self.swaps);
        mix(self.rollbacks);
        mix(self.refusals);
        for &(slot, state) in &self.transitions {
            mix(slot as u64);
            mix(u64::from(state.as_index()));
        }
        for &bits in &self.score_bits {
            mix(bits);
        }
        h
    }
}

/// The live-city adaptation loop bound to one serving slot.
pub struct LiveLoop {
    entry: Arc<ModelEntry>,
    config: LiveConfig,
    window: RollingWindow,
    detector: DriftDetector,
    normalizer: Normalizer,
    metrics: Option<Arc<Metrics>>,
    report: LiveReport,
}

impl LiveLoop {
    /// Binds a loop to `entry` and creates `config.work_dir`. The loop
    /// monitors whatever model `entry` serves and leaves the process obs
    /// sink alone.
    ///
    /// `_trace` is ignored: routing telemetry is returned by the forward
    /// pass, so there is no sink to forward to. The parameter stays only
    /// because `perfbench/src/live.rs` still passes it; drop it when that
    /// benchmark harness next changes.
    ///
    /// # Errors
    ///
    /// Returns an error when the work directory cannot be created.
    pub fn new(
        entry: Arc<ModelEntry>,
        config: LiveConfig,
        metrics: Option<Arc<Metrics>>,
        _trace: Option<Arc<dyn Sink>>,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(&config.work_dir)?;
        let cfg = entry.config();
        let window = RollingWindow::new(
            cfg.grid_height,
            cfg.grid_width,
            config.slot_minutes,
            config.window_capacity,
        );
        let detector = DriftDetector::new(config.thresholds.clone());
        let normalizer = config.normalizer.clone();
        Ok(LiveLoop {
            entry,
            config,
            window,
            detector,
            normalizer,
            metrics,
            report: LiveReport::default(),
        })
    }

    /// The detector's current state.
    pub fn state(&self) -> DriftState {
        self.detector.state()
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &LiveReport {
        &self.report
    }

    /// Consumes a record stream end to end: ingest, aggregate, monitor,
    /// and adapt on confirmed drift. `final_time_min` (e.g. the simulation
    /// horizon) flushes trailing slots. Returns the finished report.
    ///
    /// # Errors
    ///
    /// Returns an error only for local I/O failures the loop cannot route
    /// around (work-dir checkpoints); model-quality failures roll back and
    /// are recorded, never returned.
    pub fn run(
        &mut self,
        mut stream: RecordStream,
        final_time_min: f64,
    ) -> std::io::Result<LiveReport> {
        let _span = bikecap_obs::span("live.run");
        for record in stream.by_ref() {
            self.report.records += 1;
            match self.window.push(&record) {
                Ok(sealed) => self.on_sealed(sealed)?,
                Err(WindowError::Injected { .. }) => {
                    self.report.injected_faults += 1;
                }
                Err(_) => {
                    self.report.window_refusals += 1;
                }
            }
        }
        match self.window.seal_until(final_time_min) {
            Ok(sealed) => self.on_sealed(sealed)?,
            Err(WindowError::Injected { .. }) => {
                self.report.injected_faults += 1;
            }
            Err(_) => {
                self.report.window_refusals += 1;
            }
        }
        self.report.dropped_records = stream.dropped();
        self.report.transitions = self.detector.transitions().to_vec();
        Ok(self.report.clone())
    }

    /// Observes each newly sealed slot in order.
    fn on_sealed(&mut self, sealed: usize) -> std::io::Result<()> {
        if sealed == 0 {
            return Ok(());
        }
        let newest = self.window.open_slot() - 1;
        for slot in (newest + 1 - sealed)..=newest {
            self.observe_slot(slot)?;
        }
        Ok(())
    }

    /// Scores the serving model on one sealed slot and drives the detector.
    fn observe_slot(&mut self, slot: usize) -> std::io::Result<()> {
        let _span = bikecap_obs::span("live.slot");
        self.report.slots += 1;
        let h = self.config.history;
        let p = self.config.horizon;
        let needed = h + p;
        let signals = if slot + 1 >= needed && slot + 1 - needed >= self.window.oldest_slot() {
            self.monitor_signals(slot)
        } else {
            None
        };
        // Slots the monitor cannot score (warm-up, evictions) advance the
        // detector's clock but never feed its baseline — zero-signal
        // samples would drag the baseline down and fake drift later.
        let state = match signals {
            Some(signals) => {
                bikecap_obs::value("live.monitor.error", signals.error);
                self.detector.observe(signals)
            }
            None => self.detector.observe_unscored(),
        };
        self.report.score_bits.push(self.detector.score().to_bits());
        if let Some(m) = &self.metrics {
            m.set_drift(self.detector.score(), state.as_index());
        }
        if state == DriftState::Drifted {
            self.adapt(slot)?;
        }
        Ok(())
    }

    /// Predicts slot `slot-p+1..=slot` from the history before it with the
    /// serving model and returns its error plus routing telemetry.
    fn monitor_signals(&self, slot: usize) -> Option<SlotSignals> {
        let h = self.config.history;
        let p = self.config.horizon;
        let model = self.entry.current();
        let (gh, gw) = (model.config().grid_height, model.config().grid_width);
        let plane = gh * gw;
        let frame_len = FEATURES * plane;

        // Input: slots (slot-p-h+1 ..= slot-p), shape (1, F, h, H, W).
        let mut input = Tensor::zeros(&[1, FEATURES, h, gh, gw]);
        {
            let buf = input.as_mut_slice();
            for (di, s) in ((slot + 1 - p - h)..=(slot - p)).enumerate() {
                let frame = self.window.frame(s)?;
                debug_assert_eq!(frame.len(), frame_len);
                for f in 0..FEATURES {
                    let dst = (f * h + di) * plane;
                    let src = f * plane;
                    buf.get_mut(dst..dst + plane)?
                        .copy_from_slice(frame.get(src..src + plane)?);
                }
            }
        }
        let input = self.normalize_input(&input);

        // (1, p, H, W), normalized.
        let (pred, telemetry) = model.predict_with_telemetry(&input);
        let (entropy, agreement) = telemetry.means();

        // Target: observed bike pick-ups over slots (slot-p+1 ..= slot),
        // normalized with the bike channel's fitted range.
        let (lo, hi) = self.normalizer.channel_range(F_BIKE_PICKUP);
        let scale = (hi - lo).max(1e-6);
        let mut abs_err = 0.0f64;
        let pred_buf = pred.as_slice();
        for (pi, s) in ((slot + 1 - p)..=slot).enumerate() {
            let frame = self.window.frame(s)?;
            let observed = frame.get(F_BIKE_PICKUP * plane..(F_BIKE_PICKUP + 1) * plane)?;
            let predicted = pred_buf.get(pi * plane..(pi + 1) * plane)?;
            for (&count, &pv) in observed.iter().zip(predicted) {
                let norm = (count - lo) / scale;
                abs_err += f64::from((pv - norm).abs());
            }
        }
        let error = abs_err / (p * plane) as f64;
        Some(SlotSignals {
            error,
            entropy,
            agreement,
        })
    }

    /// One adaptation attempt at a confirmed-drift slot.
    fn adapt(&mut self, slot: usize) -> std::io::Result<()> {
        let _span = bikecap_obs::span("live.adapt");
        self.detector.begin_retraining();
        if let Some(m) = &self.metrics {
            m.set_drift(self.detector.score(), DriftState::Retraining.as_index());
        }

        if let Some(fault) = bikecap_faults::hit("live.adapt.finetune") {
            self.roll_back(slot, format!("fine-tune fault: {fault}"));
            return Ok(());
        }
        let series = match self.window.to_series() {
            Some(s) => s,
            None => {
                self.roll_back(slot, "window has no sealed slots".into());
                return Ok(());
            }
        };
        let min_slots = 5 * (self.config.history + self.config.horizon) + 2;
        if series.num_slots() < min_slots {
            self.roll_back(
                slot,
                format!(
                    "window too short to fine-tune: {} sealed slots, need {min_slots}",
                    series.num_slots()
                ),
            );
            return Ok(());
        }
        let dataset = ForecastDataset::new(&series, self.config.history, self.config.horizon);

        // Checkpoint the incumbent, then fine-tune a copy of it.
        let incumbent = self.entry.current();
        let incumbent_path = self.config.work_dir.join("incumbent.ckpt");
        let candidate_path = self.config.work_dir.join("candidate.ckpt");
        incumbent.save_checkpoint(&incumbent_path)?;
        let mut candidate = match BikeCap::build_seeded(self.entry.config().clone(), 0) {
            Ok(m) => m,
            Err(e) => {
                self.roll_back(slot, format!("candidate build failed: {e}"));
                return Ok(());
            }
        };
        if let Err(e) = candidate.load_checkpoint(&incumbent_path) {
            self.roll_back(slot, format!("incumbent reload failed: {e}"));
            return Ok(());
        }
        let opts = ResilientOptions {
            train: self.config.train.clone(),
            seed: self.config.seed,
            checkpoint: Some(candidate_path.clone()),
            autosave_every: 1,
            resume: false,
            max_retries: self.config.max_retries,
            spike_factor: self.config.spike_factor,
        };
        match candidate.fit_resilient(&dataset, &opts) {
            Ok(report) => {
                bikecap_obs::value("live.adapt.rollbacks", report.rollbacks as f64);
            }
            Err(TrainerError::Diverged { epoch, loss, .. }) => {
                self.roll_back(
                    slot,
                    format!("fine-tune diverged at epoch {epoch} (loss {loss})"),
                );
                return Ok(());
            }
            Err(e) => {
                self.roll_back(slot, format!("fine-tune failed: {e}"));
                return Ok(());
            }
        }

        // Shadow evaluation on the held-out validation slice of the window.
        let (incumbent_mae, candidate_mae) = {
            let _shadow = bikecap_obs::span("live.adapt.shadow");
            let anchors = dataset.anchors(Split::Val);
            if anchors.is_empty() {
                self.roll_back(slot, "no validation anchors in window".into());
                return Ok(());
            }
            (
                mae_over(&incumbent, &dataset, &anchors, self.config.eval_batch),
                mae_over(&candidate, &dataset, &anchors, self.config.eval_batch),
            )
        };
        bikecap_obs::value("live.adapt.incumbent_mae", f64::from(incumbent_mae));
        bikecap_obs::value("live.adapt.candidate_mae", f64::from(candidate_mae));
        if let Some(fault) = bikecap_faults::hit("live.adapt.shadow") {
            self.roll_back(slot, format!("shadow evaluation fault: {fault}"));
            return Ok(());
        }

        let wins = f64::from(candidate_mae)
            < f64::from(incumbent_mae) * (1.0 - self.config.min_improvement);
        if !wins {
            self.detector.complete(false);
            self.report.refusals += 1;
            self.report.outcomes.push(AdaptOutcome::Refused {
                slot,
                incumbent_mae,
                candidate_mae,
            });
            if let Some(m) = &self.metrics {
                m.live_refusals_total.fetch_add(1, Ordering::Relaxed);
                m.set_drift(self.detector.score(), self.detector.state().as_index());
            }
            return Ok(());
        }

        if let Some(fault) = bikecap_faults::hit("live.adapt.swap") {
            self.roll_back(slot, format!("swap vetoed: {fault}"));
            return Ok(());
        }
        // The same path POST /admin/reload takes: serve.reload.swap
        // failpoint, degraded pinning on failure, swap counter on success.
        if let Err(e) = self.entry.reload(&candidate_path) {
            if let Some(m) = &self.metrics {
                m.degraded.store(true, Ordering::Relaxed);
            }
            self.roll_back(slot, format!("hot-swap failed: {e}"));
            return Ok(());
        }
        if let Some(m) = &self.metrics {
            m.swaps_total.fetch_add(1, Ordering::Relaxed);
            m.live_swaps_total.fetch_add(1, Ordering::Relaxed);
            m.degraded.store(false, Ordering::Relaxed);
        }
        // The entry now serves the candidate; its normaliser goes with it.
        self.normalizer = dataset.normalizer().clone();
        self.detector.complete(true);
        self.report.swaps += 1;
        self.report.outcomes.push(AdaptOutcome::Swapped {
            slot,
            incumbent_mae,
            candidate_mae,
        });
        bikecap_obs::value("live.adapt.swapped", self.report.swaps as f64);
        if let Some(m) = &self.metrics {
            m.set_drift(self.detector.score(), self.detector.state().as_index());
        }
        Ok(())
    }

    /// Records a rolled-back adaptation: incumbent untouched.
    fn roll_back(&mut self, slot: usize, reason: String) {
        bikecap_obs::value("live.adapt.rolled_back", 1.0);
        self.detector.complete(false);
        self.report.rollbacks += 1;
        self.report
            .outcomes
            .push(AdaptOutcome::RolledBack { slot, reason });
        if let Some(m) = &self.metrics {
            m.live_rollbacks_total.fetch_add(1, Ordering::Relaxed);
            m.set_drift(self.detector.score(), self.detector.state().as_index());
        }
    }

    fn normalize_input(&self, input: &Tensor) -> Tensor {
        // `Normalizer::normalize` scales axis 1 channel-wise over the
        // trailing plane, which for (1, F, h, H, W) is exactly the per-
        // channel (h, H, W) block.
        self.normalizer.normalize(input)
    }
}

/// Mean absolute error of `model` over explicit anchors, accumulated in
/// fixed chunk order so the result is bitwise deterministic.
fn mae_over(model: &BikeCap, dataset: &ForecastDataset, anchors: &[usize], chunk: usize) -> f32 {
    let mut abs = 0.0f64;
    let mut n = 0usize;
    for part in anchors.chunks(chunk.max(1)) {
        let batch = dataset.batch(part);
        let pred = model.predict(&batch.input);
        let target = batch.target.as_slice();
        for (p, t) in pred.as_slice().iter().zip(target) {
            abs += f64::from((p - t).abs());
        }
        n += target.len();
    }
    if n == 0 {
        f32::INFINITY
    } else {
        (abs / n as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn report_fingerprint_tracks_content() {
        let mut a = LiveReport::default();
        a.score_bits.push(1.25f64.to_bits());
        a.transitions.push((3, DriftState::Suspect));
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.score_bits.push(0.5f64.to_bits());
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.transitions[0] = (3, DriftState::Drifted);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn mae_over_is_exact_on_a_known_model() {
        // mae_over with an untrained model against itself is zero.
        use bikecap_city_sim::generate::{SimConfig, Simulator};
        use bikecap_city_sim::{CityLayout, DemandSeries};
        use bikecap_core::BikeCapConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(5);
        let config = SimConfig::small();
        let layout = CityLayout::generate(&config, &mut rng);
        let trips = Simulator::new(config, layout).run(&mut rng);
        let series = DemandSeries::from_trips(&trips, 15);
        let ds = ForecastDataset::new(&series, 4, 2);
        let model = BikeCap::seeded(
            BikeCapConfig::new(series.height, series.width)
                .history(4)
                .horizon(2)
                .pyramid_size(2)
                .capsule_dim(2)
                .out_capsule_dim(2)
                .decoder_channels(2),
            1,
        );
        let anchors = ds.anchors(Split::Val);
        let m1 = mae_over(&model, &ds, &anchors, 4);
        let m2 = mae_over(&model, &ds, &anchors, 4);
        assert_eq!(m1.to_bits(), m2.to_bits(), "shadow eval must be bitwise stable");
        assert!(m1.is_finite() && m1 >= 0.0);
        assert_eq!(mae_over(&model, &ds, &[], 4), f32::INFINITY);
    }
}
