//! Drift detection: typed thresholds and a hysteresis/cooldown state
//! machine over prediction-error and routing-telemetry signals.
//!
//! Every sealed slot contributes one [`SlotSignals`] sample: the serving
//! model's rolling prediction error against the live window, plus the two
//! routing-telemetry statistics its forward pass returns next to the
//! prediction (`BikeCap::predict_with_telemetry`; obs records the same
//! values as `core.routing.iter*.entropy` and `.agreement_delta`). The
//! detector freezes a baseline (per-signal mean and standard deviation)
//! over the first [`DriftThresholds::min_baseline_slots`] samples, then
//! scores each slot by its worst normalized deviation: distance from the
//! baseline mean over a margin of `sigmas × std` plus a per-signal floor.
//! A score of `1.0` means "exactly at threshold". The default warm-up is
//! one full day of 15-minute slots, so the baseline variance captures the
//! diurnal cycle instead of mistaking every morning peak for drift.
//!
//! The state machine (documented in DESIGN.md Appendix H):
//!
//! ```text
//! Stable ──hot──► Suspect ──hot × confirm_slots──► Drifted
//!   ▲                │ calm × release_slots            │ begin_retraining()
//!   │                ▼                                 ▼
//!   └◄─cooldown── RolledBack ◄──failure/refusal── Retraining
//!   └◄─cooldown────────────────────swap────────────────┘
//! ```
//!
//! Hysteresis: a single hot slot only reaches `Suspect`; `Drifted` needs
//! `confirm_slots` *consecutive* hot slots, and `release_slots` consecutive
//! calm slots walk `Suspect` back to `Stable`. After an adaptation outcome
//! (swap, rollback, or refusal) a cooldown of `cooldown_slots` ignores hot
//! slots entirely, so the loop cannot thrash.
//!
//! Everything here is pure `f64` arithmetic on the caller's thread — no
//! RNG, no time, no parallelism — so a replayed stream produces a bitwise
//! identical score sequence and transition log on any machine.
//!
//! Failpoint: `live.detect.signal` — a fired hit forces that slot's score
//! to `+∞` (a wildly corrupted signal); the hysteresis tests prove a single
//! injected hit never reaches `Drifted`.

/// Typed thresholds for the drift detector.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftThresholds {
    /// Margin width in baseline standard deviations: a signal is hot when
    /// its deviation exceeds `sigmas × std` plus that signal's floor.
    pub sigmas: f64,
    /// Minimum margin for the prediction-error signal (normalized demand
    /// units); keeps a near-constant warm-up from making noise look hot.
    pub error_floor: f64,
    /// Minimum margin for coupling-entropy moves from the baseline mean
    /// (absolute, in nats).
    pub entropy_jump: f64,
    /// Minimum margin for routing agreement-delta drops below the baseline
    /// mean.
    pub agreement_drop: f64,
    /// Samples used to freeze the baseline; no slot can be hot before the
    /// baseline exists.
    pub min_baseline_slots: usize,
    /// Consecutive hot slots required to confirm `Suspect → Drifted`.
    pub confirm_slots: usize,
    /// Consecutive calm slots required to release `Suspect → Stable`.
    pub release_slots: usize,
    /// Slots after an adaptation outcome during which hot slots are
    /// ignored.
    pub cooldown_slots: usize,
}

impl Default for DriftThresholds {
    fn default() -> Self {
        DriftThresholds {
            sigmas: 3.0,
            error_floor: 0.05,
            entropy_jump: 0.5,
            agreement_drop: 0.25,
            // One full day of 15-minute slots: the baseline std must see
            // the whole diurnal cycle or every morning peak looks like
            // drift.
            min_baseline_slots: 96,
            confirm_slots: 3,
            release_slots: 4,
            cooldown_slots: 8,
        }
    }
}

/// The detector's position in the adaptation lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftState {
    /// Signals within thresholds (or baseline still warming up).
    Stable,
    /// At least one recent hot slot; drift not yet confirmed.
    Suspect,
    /// Drift confirmed; the adaptation driver should act.
    Drifted,
    /// A candidate model is being fine-tuned / shadow-evaluated.
    Retraining,
    /// The last adaptation failed or was refused; incumbent still serving.
    RolledBack,
}

impl DriftState {
    /// Stable lowercase name (CLI/report output).
    pub fn as_str(self) -> &'static str {
        match self {
            DriftState::Stable => "stable",
            DriftState::Suspect => "suspect",
            DriftState::Drifted => "drifted",
            DriftState::Retraining => "retraining",
            DriftState::RolledBack => "rolled-back",
        }
    }

    /// Small integer for the `/metrics` gauge and obs value events.
    pub fn as_index(self) -> u8 {
        match self {
            DriftState::Stable => 0,
            DriftState::Suspect => 1,
            DriftState::Drifted => 2,
            DriftState::Retraining => 3,
            DriftState::RolledBack => 4,
        }
    }
}

/// One sealed slot's worth of monitoring signals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotSignals {
    /// Mean absolute prediction error of the serving model on this slot
    /// (normalized domain).
    pub error: f64,
    /// Mean routing coupling entropy over the scoring predict's iterations.
    pub entropy: f64,
    /// Mean routing agreement delta over the scoring predict's refinements.
    pub agreement: f64,
}

/// One signal's frozen baseline statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stat {
    mean: f64,
    std: f64,
}

impl Stat {
    fn from_samples(samples: impl Iterator<Item = f64> + Clone) -> Stat {
        let n = samples.clone().count().max(1) as f64;
        let mean = samples.clone().sum::<f64>() / n;
        let var = samples.map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        Stat {
            mean,
            std: var.sqrt(),
        }
    }
}

/// Frozen per-signal baseline statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Baseline {
    error: Stat,
    entropy: Stat,
    agreement: Stat,
}

/// The hysteresis drift detector. Feed one [`SlotSignals`] per sealed slot
/// through [`DriftDetector::observe`]; drive lifecycle edges with
/// [`DriftDetector::begin_retraining`] and [`DriftDetector::complete`].
#[derive(Debug)]
pub struct DriftDetector {
    thresholds: DriftThresholds,
    state: DriftState,
    /// Accumulators while the baseline warms up.
    warmup: Vec<SlotSignals>,
    baseline: Option<Baseline>,
    hot_streak: usize,
    calm_streak: usize,
    cooldown_remaining: usize,
    slot: usize,
    last_score: f64,
    /// `(slot index, entered state)` log, for reports and fingerprints.
    transitions: Vec<(usize, DriftState)>,
}

impl DriftDetector {
    /// A detector in `Stable` with an empty baseline.
    pub fn new(thresholds: DriftThresholds) -> Self {
        DriftDetector {
            warmup: Vec::with_capacity(thresholds.min_baseline_slots),
            thresholds,
            state: DriftState::Stable,
            baseline: None,
            hot_streak: 0,
            calm_streak: 0,
            cooldown_remaining: 0,
            slot: 0,
            last_score: 0.0,
            transitions: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> DriftState {
        self.state
    }

    /// The most recent slot's drift score (`>= 1.0` means hot; `0.0` while
    /// the baseline warms up).
    pub fn score(&self) -> f64 {
        self.last_score
    }

    /// Whether the baseline has been frozen yet.
    pub fn baseline_ready(&self) -> bool {
        self.baseline.is_some()
    }

    /// Sealed slots observed so far.
    pub fn slots_observed(&self) -> usize {
        self.slot
    }

    /// The `(slot, entered state)` transition log.
    pub fn transitions(&self) -> &[(usize, DriftState)] {
        &self.transitions
    }

    /// Scores one slot's signals and advances the state machine. Returns
    /// the state after the observation; the caller acts on
    /// [`DriftState::Drifted`].
    pub fn observe(&mut self, signals: SlotSignals) -> DriftState {
        let slot = self.slot;
        self.slot += 1;
        self.observe_at(slot, signals)
    }

    /// Advances the slot clock past a slot the monitor could not score
    /// (warm-up, window evictions) without touching the baseline or the
    /// hot/calm streaks. Feeding such slots as zero-signal samples would
    /// drag the frozen baseline toward zero and make ordinary traffic look
    /// hot. Cooldown still ticks: lifecycle time passes either way.
    pub fn observe_unscored(&mut self) -> DriftState {
        let slot = self.slot;
        self.slot += 1;
        self.last_score = 0.0;
        if bikecap_obs::enabled() {
            bikecap_obs::value("live.drift.score", 0.0);
            bikecap_obs::value("live.drift.state", f64::from(self.state.as_index()));
        }
        if self.state == DriftState::RolledBack {
            if self.tick_cooldown() {
                self.enter(slot, DriftState::Stable);
            }
        } else if self.cooldown_remaining > 0 {
            self.tick_cooldown();
        }
        self.state
    }

    fn observe_at(&mut self, slot: usize, signals: SlotSignals) -> DriftState {
        let mut score = self.score_signals(signals);
        if bikecap_faults::hit("live.detect.signal").is_some() {
            // Injected sensor corruption: one wildly hot slot.
            score = f64::INFINITY;
        }
        self.last_score = score;
        if bikecap_obs::enabled() {
            bikecap_obs::value("live.drift.score", score);
            bikecap_obs::value("live.drift.state", f64::from(self.state.as_index()));
        }

        // Adaptation in flight or just finished: no detection transitions.
        match self.state {
            DriftState::Retraining | DriftState::Drifted => return self.state,
            DriftState::RolledBack => {
                if self.tick_cooldown() {
                    self.enter(slot, DriftState::Stable);
                }
                return self.state;
            }
            DriftState::Stable | DriftState::Suspect => {}
        }
        if self.cooldown_remaining > 0 {
            self.tick_cooldown();
            return self.state;
        }

        let hot = score >= 1.0;
        if hot {
            self.hot_streak += 1;
            self.calm_streak = 0;
            if self.state == DriftState::Stable {
                self.enter(slot, DriftState::Suspect);
            }
            if self.hot_streak >= self.thresholds.confirm_slots {
                self.enter(slot, DriftState::Drifted);
            }
        } else {
            self.hot_streak = 0;
            if self.state == DriftState::Suspect {
                self.calm_streak += 1;
                if self.calm_streak >= self.thresholds.release_slots {
                    self.calm_streak = 0;
                    self.enter(slot, DriftState::Stable);
                }
            }
        }
        self.state
    }

    /// Marks the start of fine-tuning (`Drifted → Retraining`). A no-op in
    /// any other state.
    pub fn begin_retraining(&mut self) {
        if self.state == DriftState::Drifted {
            let slot = self.slot.saturating_sub(1);
            self.enter(slot, DriftState::Retraining);
        }
    }

    /// Records the adaptation outcome. `swapped: true` re-enters `Stable`
    /// and *resets the baseline* (the new model has new statistics);
    /// `false` enters `RolledBack`. Both arm the cooldown.
    pub fn complete(&mut self, swapped: bool) {
        let slot = self.slot.saturating_sub(1);
        self.cooldown_remaining = self.thresholds.cooldown_slots;
        self.hot_streak = 0;
        self.calm_streak = 0;
        if swapped {
            self.baseline = None;
            self.warmup.clear();
            self.enter(slot, DriftState::Stable);
        } else {
            self.enter(slot, DriftState::RolledBack);
        }
    }

    /// Decrements the cooldown; returns true when it just expired.
    fn tick_cooldown(&mut self) -> bool {
        if self.cooldown_remaining > 0 {
            self.cooldown_remaining -= 1;
            self.cooldown_remaining == 0
        } else {
            true
        }
    }

    fn enter(&mut self, slot: usize, state: DriftState) {
        if self.state != state {
            self.state = state;
            self.transitions.push((slot, state));
            if bikecap_obs::enabled() {
                bikecap_obs::value("live.drift.state", f64::from(state.as_index()));
            }
        }
    }

    /// Worst normalized deviation across the three signals; accumulates the
    /// baseline while warming up (returning 0.0 until frozen).
    fn score_signals(&mut self, signals: SlotSignals) -> f64 {
        let baseline = match self.baseline {
            Some(b) => b,
            None => {
                self.warmup.push(signals);
                if self.warmup.len() < self.thresholds.min_baseline_slots.max(1) {
                    return 0.0;
                }
                let frozen = Baseline {
                    error: Stat::from_samples(self.warmup.iter().map(|s| s.error)),
                    entropy: Stat::from_samples(self.warmup.iter().map(|s| s.entropy)),
                    agreement: Stat::from_samples(self.warmup.iter().map(|s| s.agreement)),
                };
                self.baseline = Some(frozen);
                self.warmup.clear();
                return 0.0;
            }
        };
        let t = &self.thresholds;
        let margin = |stat: Stat, floor: f64| (t.sigmas * stat.std + floor).max(1e-9);
        // error: one-sided — only an error *increase* beyond the diurnal
        // envelope is drift.
        let error_score = if signals.error.is_finite() {
            (signals.error - baseline.error.mean) / margin(baseline.error, t.error_floor)
        } else {
            f64::INFINITY
        };
        // entropy: two-sided — routing confidence shifting either way.
        let entropy_score = (signals.entropy - baseline.entropy.mean).abs()
            / margin(baseline.entropy, t.entropy_jump);
        // agreement: one-sided — only a *drop* in routing agreement.
        let agreement_score = (baseline.agreement.mean - signals.agreement)
            / margin(baseline.agreement, t.agreement_drop);
        error_score.max(entropy_score).max(agreement_score).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thresholds() -> DriftThresholds {
        DriftThresholds {
            min_baseline_slots: 4,
            confirm_slots: 3,
            release_slots: 2,
            cooldown_slots: 3,
            ..DriftThresholds::default()
        }
    }

    fn calm() -> SlotSignals {
        SlotSignals {
            error: 0.1,
            entropy: 1.0,
            agreement: 0.5,
        }
    }

    fn hot() -> SlotSignals {
        SlotSignals {
            error: 1.0,
            entropy: 1.0,
            agreement: 0.5,
        }
    }

    fn warmed_up() -> DriftDetector {
        let mut d = DriftDetector::new(thresholds());
        for _ in 0..4 {
            assert_eq!(d.observe(calm()), DriftState::Stable);
        }
        assert!(d.baseline_ready());
        d
    }

    #[test]
    fn warmup_never_goes_hot() {
        let mut d = DriftDetector::new(thresholds());
        for _ in 0..3 {
            // Huge errors during warmup only feed the baseline.
            assert_eq!(
                d.observe(SlotSignals {
                    error: 100.0,
                    ..calm()
                }),
                DriftState::Stable
            );
            assert_eq!(d.score(), 0.0);
        }
    }

    #[test]
    fn unscored_slots_advance_the_clock_but_not_the_baseline() {
        let mut d = DriftDetector::new(thresholds());
        // A monitor warm-up: eight slots it cannot score. If these fed the
        // baseline as zero-signal samples, the frozen mean error would be
        // tiny and every ordinary slot afterwards would look hot.
        for _ in 0..8 {
            assert_eq!(d.observe_unscored(), DriftState::Stable);
            assert!(!d.baseline_ready());
        }
        for _ in 0..4 {
            d.observe(calm());
        }
        assert!(d.baseline_ready());
        assert_eq!(d.slots_observed(), 12);
        // Ordinary traffic stays calm against the clean baseline…
        assert_eq!(d.observe(calm()), DriftState::Stable);
        assert!(d.score() < 1.0);
        // …and unscored slots mid-stream leave streaks untouched.
        d.observe(hot());
        assert_eq!(d.state(), DriftState::Suspect);
        d.observe_unscored();
        d.observe(hot());
        d.observe(hot());
        assert_eq!(d.state(), DriftState::Drifted);
    }

    #[test]
    fn single_hot_slot_only_suspects() {
        let mut d = warmed_up();
        assert_eq!(d.observe(hot()), DriftState::Suspect);
        assert!(d.score() >= 1.0);
        // Two calm slots release back to Stable.
        assert_eq!(d.observe(calm()), DriftState::Suspect);
        assert_eq!(d.observe(calm()), DriftState::Stable);
        assert!(d.transitions().iter().all(|(_, s)| *s != DriftState::Drifted));
    }

    #[test]
    fn sustained_hot_slots_confirm_drift() {
        let mut d = warmed_up();
        assert_eq!(d.observe(hot()), DriftState::Suspect);
        assert_eq!(d.observe(hot()), DriftState::Suspect);
        assert_eq!(d.observe(hot()), DriftState::Drifted);
        // Further observations hold Drifted until the driver acts.
        assert_eq!(d.observe(calm()), DriftState::Drifted);
    }

    #[test]
    fn interrupted_streak_does_not_confirm() {
        let mut d = warmed_up();
        d.observe(hot());
        d.observe(hot());
        d.observe(calm()); // streak broken
        assert_eq!(d.observe(hot()), DriftState::Suspect);
        assert_eq!(d.observe(hot()), DriftState::Suspect);
    }

    #[test]
    fn entropy_and_agreement_signals_also_trigger() {
        let mut d = warmed_up();
        let entropy_shift = SlotSignals {
            entropy: 2.0,
            ..calm()
        };
        assert_eq!(d.observe(entropy_shift), DriftState::Suspect);

        let mut d2 = warmed_up();
        let agreement_collapse = SlotSignals {
            agreement: 0.0,
            ..calm()
        };
        assert_eq!(d2.observe(agreement_collapse), DriftState::Suspect);
    }

    #[test]
    fn lifecycle_swap_resets_baseline_and_cools_down() {
        let mut d = warmed_up();
        for _ in 0..3 {
            d.observe(hot());
        }
        assert_eq!(d.state(), DriftState::Drifted);
        d.begin_retraining();
        assert_eq!(d.state(), DriftState::Retraining);
        d.complete(true);
        assert_eq!(d.state(), DriftState::Stable);
        assert!(!d.baseline_ready(), "swap must reset the baseline");
        // Cooldown: hot slots right after the swap feed the new baseline
        // and are ignored for detection.
        for _ in 0..3 {
            assert_eq!(d.observe(hot()), DriftState::Stable);
        }
    }

    #[test]
    fn lifecycle_rollback_holds_then_releases() {
        let mut d = warmed_up();
        for _ in 0..3 {
            d.observe(hot());
        }
        d.begin_retraining();
        d.complete(false);
        assert_eq!(d.state(), DriftState::RolledBack);
        assert!(d.baseline_ready(), "rollback keeps the incumbent baseline");
        // Cooldown of 3: two observations stay RolledBack, the third
        // releases to Stable.
        assert_eq!(d.observe(hot()), DriftState::RolledBack);
        assert_eq!(d.observe(hot()), DriftState::RolledBack);
        assert_eq!(d.observe(calm()), DriftState::Stable);
    }

    #[test]
    fn begin_retraining_is_a_noop_outside_drifted() {
        let mut d = warmed_up();
        d.begin_retraining();
        assert_eq!(d.state(), DriftState::Stable);
    }

    #[test]
    fn transition_log_is_ordered_and_deterministic() {
        let run = || {
            let mut d = warmed_up();
            d.observe(hot());
            d.observe(calm());
            d.observe(calm());
            for _ in 0..3 {
                d.observe(hot());
            }
            d.begin_retraining();
            d.complete(true);
            d.transitions().to_vec()
        };
        let a = run();
        assert_eq!(a, run());
        let states: Vec<DriftState> = a.iter().map(|(_, s)| *s).collect();
        assert_eq!(
            states,
            vec![
                DriftState::Suspect,
                DriftState::Stable,
                DriftState::Suspect,
                DriftState::Drifted,
                DriftState::Retraining,
                DriftState::Stable,
            ]
        );
        for pair in a.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }

    #[test]
    fn state_names_and_indices_are_stable() {
        let all = [
            DriftState::Stable,
            DriftState::Suspect,
            DriftState::Drifted,
            DriftState::Retraining,
            DriftState::RolledBack,
        ];
        let names: Vec<&str> = all.iter().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            vec!["stable", "suspect", "drifted", "retraining", "rolled-back"]
        );
        for (i, s) in all.iter().enumerate() {
            assert_eq!(s.as_index() as usize, i);
        }
    }

    #[test]
    fn non_finite_error_scores_infinite_not_nan() {
        let mut d = warmed_up();
        d.observe(SlotSignals {
            error: f64::NAN,
            ..calm()
        });
        assert_eq!(d.score(), f64::INFINITY);
        assert_eq!(d.state(), DriftState::Suspect);
    }
}
