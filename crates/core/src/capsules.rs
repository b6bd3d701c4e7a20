//! Historical capsules and the spatial-temporal routing mechanism.

use bikecap_autograd::{ParamId, ParamStore, Tape, Var};
use bikecap_nn::{glorot_uniform, Conv3d, PyramidConv3d};
use bikecap_tensor::conv::Conv3dSpec;
use bikecap_tensor::Tensor;
use rand::Rng;

use crate::config::{BikeCapConfig, Encoder};

/// The historical-capsule stage (paper Sec. III-C): a convolutional encoder
/// over the `(B, F, h, H, W)` input producing one squashed capsule vector per
/// historical slot (times `hist_capsules_per_slot`) per grid cell:
/// `(B, S, n_l, H, W)` with `S = hist_capsules_per_slot * h`.
#[derive(Debug, Clone)]
pub struct HistoricalCapsules {
    /// The first encoder layer (mapping input features to capsule channels).
    /// Holding it apart from `rest` makes "at least one layer" a structural
    /// invariant instead of a runtime assertion.
    first: EncoderLayer,
    /// Further stacked layers (DeepCaps-style depth), possibly empty.
    rest: Vec<EncoderLayer>,
    capsules_per_slot: usize,
    capsule_dim: usize,
    history: usize,
}

#[derive(Debug, Clone)]
enum EncoderLayer {
    Pyramid(PyramidConv3d),
    Standard(Conv3d),
    PerSlot(Conv3d),
}

impl EncoderLayer {
    fn forward(&self, tape: &mut Tape, x: Var, store: &ParamStore) -> Var {
        match self {
            EncoderLayer::Pyramid(l) => l.forward(tape, x, store),
            EncoderLayer::Standard(l) => l.forward(tape, x, store),
            EncoderLayer::PerSlot(l) => l.forward(tape, x, store),
        }
    }

    /// Observability site name for layer index `li` (DESIGN.md Appendix D).
    fn site(&self, li: usize) -> String {
        match self {
            EncoderLayer::Pyramid(_) => format!("core.encoder.pyramid{li}"),
            EncoderLayer::Standard(_) => format!("core.encoder.conv3d{li}"),
            EncoderLayer::PerSlot(_) => format!("core.encoder.conv2d{li}"),
        }
    }
}

impl HistoricalCapsules {
    /// Builds the encoder configured by `config.encoder`, stacking
    /// `config.hist_layers` layers (DeepCaps-style depth) with a squash
    /// between consecutive layers.
    pub fn new<R: Rng + ?Sized>(config: &BikeCapConfig, store: &mut ParamStore, rng: &mut R) -> Self {
        let out_ch = config.hist_capsules_per_slot * config.capsule_dim;
        let first = Self::make_layer(config, 0, config.input_features(), out_ch, store, rng);
        let rest = (1..config.hist_layers)
            .map(|li| Self::make_layer(config, li, out_ch, out_ch, store, rng))
            .collect();
        HistoricalCapsules {
            first,
            rest,
            capsules_per_slot: config.hist_capsules_per_slot,
            capsule_dim: config.capsule_dim,
            history: config.history,
        }
    }

    fn make_layer<R: Rng + ?Sized>(
        config: &BikeCapConfig,
        li: usize,
        in_ch: usize,
        out_ch: usize,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> EncoderLayer {
        match config.encoder {
            Encoder::Pyramid => EncoderLayer::Pyramid(PyramidConv3d::new(
                store,
                &format!("hist.pyramid{li}"),
                in_ch,
                out_ch,
                config.pyramid_size,
                rng,
            )),
            Encoder::StandardConv3d => EncoderLayer::Standard(Conv3d::new(
                store,
                &format!("hist.conv3d{li}"),
                in_ch,
                out_ch,
                (3, 3, 3),
                Conv3dSpec::padded(1, 1, 1),
                rng,
            )),
            Encoder::Conv2dPerSlot => EncoderLayer::PerSlot(Conv3d::new(
                store,
                &format!("hist.conv2d{li}"),
                in_ch,
                out_ch,
                (1, 3, 3),
                Conv3dSpec::padded(0, 1, 1),
                rng,
            )),
        }
    }

    /// Capsule dimension `n^l`.
    pub fn capsule_dim(&self) -> usize {
        self.capsule_dim
    }

    /// Number of stacked encoder layers.
    pub fn num_layers(&self) -> usize {
        1 + self.rest.len()
    }

    /// Reorders channel layout `(B, c*n, h, H, W)` into capsule layout
    /// `(B, c*h, n, H, W)`.
    #[allow(clippy::too_many_arguments)]
    fn to_capsule_layout(
        tape: &mut Tape,
        y: Var,
        b: usize,
        c: usize,
        n: usize,
        h: usize,
        gh: usize,
        gw: usize,
    ) -> Var {
        let y = tape.reshape(y, &[b, c, n, h, gh, gw]);
        let y = tape.permute(y, &[0, 1, 3, 2, 4, 5]);
        tape.reshape(y, &[b, c * h, n, gh, gw])
    }

    /// Inverse of [`Self::to_capsule_layout`].
    #[allow(clippy::too_many_arguments)]
    fn to_channel_layout(
        tape: &mut Tape,
        y: Var,
        b: usize,
        c: usize,
        n: usize,
        h: usize,
        gh: usize,
        gw: usize,
    ) -> Var {
        let y = tape.reshape(y, &[b, c, h, n, gh, gw]);
        let y = tape.permute(y, &[0, 1, 3, 2, 4, 5]);
        tape.reshape(y, &[b, c * n, h, gh, gw])
    }

    /// Encodes `(B, F, h, H, W)` into squashed capsules `(B, S, n_l, H, W)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward(&self, tape: &mut Tape, x: Var, store: &ParamStore) -> Var {
        let xs = tape.value(x).shape().to_vec();
        assert_eq!(xs.len(), 5, "HistoricalCapsules expects (B, F, h, H, W)");
        assert_eq!(xs[2], self.history, "history mismatch: {} vs {}", xs[2], self.history);
        let (b, h, gh, gw) = (xs[0], xs[2], xs[3], xs[4]);
        let c = self.capsules_per_slot;
        let n = self.capsule_dim;
        let _enc_span = bikecap_obs::span("core.encoder");
        let mut squashed = self.encode_one(tape, &self.first, x, store, b, h, gh, gw, 0);
        for (li, layer) in self.rest.iter().enumerate() {
            let cur = Self::to_channel_layout(tape, squashed, b, c, n, h, gh, gw);
            squashed = self.encode_one(tape, layer, cur, store, b, h, gh, gw, li + 1);
        }
        squashed
    }

    /// One encoder layer followed by the capsule-layout reshape and squash,
    /// with a forward span and a backward segment mark per stage.
    #[allow(clippy::too_many_arguments)]
    fn encode_one(
        &self,
        tape: &mut Tape,
        layer: &EncoderLayer,
        x: Var,
        store: &ParamStore,
        b: usize,
        h: usize,
        gh: usize,
        gw: usize,
        li: usize,
    ) -> Var {
        if bikecap_obs::enabled() {
            tape.mark(&layer.site(li));
        }
        let y = {
            let _span = bikecap_obs::span_with(|| layer.site(li));
            layer.forward(tape, x, store)
        };
        let caps =
            Self::to_capsule_layout(tape, y, b, self.capsules_per_slot, self.capsule_dim, h, gh, gw);
        if bikecap_obs::enabled() {
            tape.mark(&format!("core.encoder.squash{li}"));
        }
        let _span = bikecap_obs::span_with(|| format!("core.encoder.squash{li}"));
        if bikecap_obs::enabled() {
            // caps is (B, S, n, H, W), squashed along axis 2.
            let cs = tape.value(caps).shape();
            bikecap_obs::Work::squash(cs[0] * cs[1] * cs[3] * cs[4], cs[2]).record();
        }
        tape.squash(caps, 2)
    }
}

/// The future-capsule stage (paper Sec. III-D): a strided 3-D convolution
/// produces, for every historical capsule `s`, an independent prediction of
/// each of the `p` future capsules; dynamic routing with the 3-D softmax of
/// Eq. 4 combines them by agreement.
#[derive(Debug, Clone)]
pub struct SpatialTemporalRouting {
    /// One shared transform, or one per historical slot when the Sec. V-B
    /// "separated capsules" extension is enabled.
    transforms: Vec<ParamId>,
    bias: ParamId,
    horizon: usize,
    in_dim: usize,
    out_dim: usize,
    iters: usize,
    softmax_over_grid: bool,
}

impl SpatialTemporalRouting {
    /// Builds the routing stage for the configured horizon and capsule
    /// dimensions.
    pub fn new<R: Rng + ?Sized>(config: &BikeCapConfig, store: &mut ParamStore, rng: &mut R) -> Self {
        let (p, n_in, n_out) = (config.horizon, config.capsule_dim, config.out_capsule_dim);
        // (C_out = p*n_out, C_in = 1, KD = n_in, 3, 3) with depth stride n_in:
        // exactly the paper's "convolve with (c^{l+1} x n^{l+1}) 3-D kernels,
        // strides (1, 1, n^l)".
        let transforms = if config.separate_slot_transforms {
            (0..config.num_hist_capsules())
                .map(|s| {
                    store.add(
                        format!("routing.transform{s}"),
                        glorot_uniform(&[p * n_out, 1, n_in, 3, 3], n_in * 9, p * n_out * 9, rng),
                    )
                })
                .collect()
        } else {
            vec![store.add(
                "routing.transform",
                glorot_uniform(&[p * n_out, 1, n_in, 3, 3], n_in * 9, p * n_out * 9, rng),
            )]
        };
        let bias = store.add("routing.bias", Tensor::zeros(&[1, p * n_out, 1, 1, 1]));
        // `forward` hoists the first routing iteration out of its loop, which
        // is only equivalent to the paper's procedure when at least one
        // iteration runs; make the invariant hold from construction.
        assert!(config.routing_iters >= 1, "need >= 1 routing iteration");
        SpatialTemporalRouting {
            transforms,
            bias,
            horizon: p,
            in_dim: n_in,
            out_dim: n_out,
            iters: config.routing_iters,
            softmax_over_grid: config.routing_softmax_over_grid,
        }
    }

    /// Number of routing iterations.
    pub fn iterations(&self) -> usize {
        self.iters
    }

    /// Computes the per-capsule predictions `V` in the transform conv's own
    /// output layout `(B, p·n_out, S, H, W)` — the layout the fused routing
    /// kernels walk directly, so no permute or reshape follows the conv.
    fn predictions(&self, tape: &mut Tape, phi: Var, store: &ParamStore) -> Var {
        let ps = tape.value(phi).shape().to_vec();
        let (b, s, n, gh, gw) = (ps[0], ps[1], ps[2], ps[3], ps[4]);
        assert_eq!(n, self.in_dim, "capsule dim mismatch: {} vs {}", n, self.in_dim);
        let bias = tape.param(store, self.bias);
        let spec = Conv3dSpec {
            stride: (n, 1, 1),
            padding: (0, 1, 1),
        };
        // Parallelism: both branches bottom out in the bikecap-rt-parallel
        // conv3d/matmul kernels, whose patch rows span batch × historical
        // slot × grid cell — the routing transform fans out over the S
        // historical capsules without any tape-level threading (the tape is
        // `&mut` and must stay single-writer).
        let v = if self.transforms.len() == 1 {
            // Shared transform over all slots: one strided conv.
            let flat = tape.reshape(phi, &[b, 1, s * n, gh, gw]);
            let w = tape.param(store, self.transforms[0]);
            if bikecap_obs::enabled() {
                // The routing transform *is* this strided conv; model it as
                // such (one shared weight read, S output slots).
                bikecap_obs::Work::conv3d(b, 1, self.horizon * self.out_dim, (s, gh, gw), (n, 3, 3))
                    .record();
            }
            tape.conv3d(flat, w, spec) // (B, p*n_out, S, H, W)
        } else {
            // Separated per-slot transforms (Sec. V-B stability extension),
            // stacked along the depth axis into the shared variant's layout.
            assert_eq!(
                self.transforms.len(),
                s,
                "routing was built for {} slots, got {s}",
                self.transforms.len()
            );
            let mut slices = Vec::with_capacity(s);
            for (si, &wid) in self.transforms.iter().enumerate() {
                let phi_s = tape.narrow(phi, 1, si, 1); // (B, 1, n, H, W)
                let w = tape.param(store, wid);
                if bikecap_obs::enabled() {
                    bikecap_obs::Work::conv3d(
                        b,
                        1,
                        self.horizon * self.out_dim,
                        (1, gh, gw),
                        (n, 3, 3),
                    )
                    .record();
                }
                slices.push(tape.conv3d(phi_s, w, spec)); // (B, p*n_out, 1, H, W)
            }
            tape.concat(&slices, 2) // (B, p*n_out, S, H, W)
        };
        tape.add(v, bias)
    }

    /// Runs the routing, returning squashed future capsules
    /// `(B, p, n_out, H, W)`.
    ///
    /// Each iteration is three tape ops: the coupling softmax (kept apart so
    /// the coefficients stay inspectable for telemetry), the fused coupling
    /// step and — from the second iteration on, before them — the fused
    /// agreement step (DESIGN.md Appendix K).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward(&self, tape: &mut Tape, phi: Var, store: &ParamStore) -> Var {
        let ps = tape.value(phi).shape().to_vec();
        assert_eq!(ps.len(), 5, "routing expects capsules (B, S, n, H, W)");
        let (b, s, gh, gw) = (ps[0], ps[1], ps[3], ps[4]);
        let p = self.horizon;
        let _routing_span = bikecap_obs::span("core.routing");
        if bikecap_obs::enabled() {
            tape.mark("core.routing.transform");
        }
        let v = {
            let _span = bikecap_obs::span("core.routing.transform");
            self.predictions(tape, phi, store) // (B, p*n_out, S, H, W)
        };

        // Logits B_s initialised to zero (paper Sec. III-D). The first
        // iteration is hoisted out of the loop so the "at least one result"
        // invariant is structural rather than asserted after the fact; each
        // further iteration refines the logits by agreement, then recouples.
        let mut logits = tape.constant(Tensor::zeros(&[b, s, gh, gw, p]));
        if bikecap_obs::enabled() {
            tape.mark("core.routing.iter0");
        }
        let (mut s_hat, first_k) = {
            let _span = bikecap_obs::span("core.routing.iter0");
            self.record_iteration_work(b, s, gh * gw, false);
            let k = self.coefficients(tape, logits);
            (tape.routing_couple(v, k), k)
        };
        self.iteration_telemetry(tape, 0, first_k, None);
        for it in 1..self.iters {
            if bikecap_obs::enabled() {
                tape.mark(&format!("core.routing.iter{it}"));
            }
            let _span = bikecap_obs::span_with(|| format!("core.routing.iter{it}"));
            self.record_iteration_work(b, s, gh * gw, true);
            let refined = tape.routing_agree(v, s_hat, logits);
            let k = self.coefficients(tape, refined);
            s_hat = tape.routing_couple(v, k);
            self.iteration_telemetry(tape, it, k, Some((logits, refined)));
            logits = refined;
        }
        tape.value(s_hat).debug_assert_finite("routing.forward");
        s_hat
    }

    /// Coupling coefficients `(B, S, H, W, p)` from the logits.
    ///
    /// They default to a softmax over the p predicted capsules at each grid
    /// location (the paper's prose reading of Eq. 4); optionally the literal
    /// volume normalisation over (N_g1, N_g2, p) — see
    /// `BikeCapConfig::routing_softmax_over_grid`.
    fn coefficients(&self, tape: &mut Tape, logits: Var) -> Var {
        tape.softmax_trailing(logits, if self.softmax_over_grid { 3 } else { 1 })
    }

    /// Stamps the work model of one routing iteration (softmax, fused
    /// couple, and the fused agree from the second iteration on) into the
    /// current `core.routing.iterN` span.
    fn record_iteration_work(&self, b: usize, s: usize, cells: usize, agree: bool) {
        if !bikecap_obs::enabled() {
            return;
        }
        let (p, n_out) = (self.horizon, self.out_dim);
        if agree {
            bikecap_obs::Work::routing_agree(b, s, p, n_out, cells).record();
        }
        if self.softmax_over_grid {
            bikecap_obs::Work::softmax(b * s, cells * p).record();
        } else {
            bikecap_obs::Work::softmax(b * s * cells, p).record();
        }
        bikecap_obs::Work::routing_couple(b, s, p, n_out, cells).record();
    }

    /// Per-iteration routing telemetry (paper-specific convergence signals),
    /// recorded only when obs is enabled: the mean entropy of the coupling
    /// coefficients over their softmax group (low entropy = capsules have
    /// committed) and the mean absolute logit update contributed by the
    /// agreement step (shrinking deltas = routing has converged).
    fn iteration_telemetry(
        &self,
        tape: &Tape,
        iteration: usize,
        coupling: Var,
        logit_update: Option<(Var, Var)>,
    ) {
        if !bikecap_obs::enabled() {
            return;
        }
        let trailing = if self.softmax_over_grid { 3 } else { 1 };
        let entropy = coupling_entropy(tape.value(coupling), trailing);
        bikecap_obs::value_with(
            || format!("core.routing.iter{iteration}.entropy"),
            entropy,
        );
        if let Some((before, after)) = logit_update {
            let diff = tape.value(after).sub(tape.value(before));
            let count = diff.as_slice().len().max(1);
            let delta = diff.abs().sum() as f64 / count as f64;
            bikecap_obs::value_with(
                || format!("core.routing.iter{iteration}.agreement_delta"),
                delta,
            );
        }
    }
}

/// Mean Shannon entropy (nats) of the coupling coefficients over their
/// softmax group: the trailing `trailing` axes of `k` form one distribution,
/// and the result averages `-Σ p·ln p` over all leading positions. Uniform
/// coupling over `g` options gives `ln g`; fully committed routing gives 0.
pub(crate) fn coupling_entropy(k: &Tensor, trailing: usize) -> f64 {
    let shape = k.shape();
    let group: usize = shape.iter().rev().take(trailing).product();
    let data = k.as_slice();
    if group == 0 || data.is_empty() {
        return 0.0;
    }
    let rows = (data.len() / group).max(1);
    // Row chunks map in parallel on the bikecap-rt pool and fold on its
    // fixed binary reduction tree, so the recorded entropy is bitwise-stable
    // across thread counts (and identical under Backend::Serial).
    let total = bikecap_rt::reduce(
        rows,
        64,
        |r| {
            let seg = &data[r.start * group..(r.end * group).min(data.len())];
            let mut part = 0.0f64;
            for &p in seg {
                let p = f64::from(p);
                if p > 0.0 {
                    part -= p * p.ln();
                }
            }
            part
        },
        |a, b| a + b,
    )
    .unwrap_or(0.0);
    total / rows as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BikeCapConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn tiny_config() -> BikeCapConfig {
        BikeCapConfig::new(4, 4)
            .history(4)
            .horizon(3)
            .pyramid_size(2)
            .capsule_dim(3)
            .out_capsule_dim(2)
    }

    #[test]
    fn historical_capsules_shapes() {
        let cfg = tiny_config();
        let mut store = ParamStore::new();
        let enc = HistoricalCapsules::new(&cfg, &mut store, &mut rng());
        assert_eq!(enc.capsule_dim(), 3);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, cfg.input_features(), 4, 4, 4]));
        let caps = enc.forward(&mut tape, x, &store);
        assert_eq!(tape.value(caps).shape(), &[2, 4, 3, 4, 4]);
    }

    #[test]
    fn historical_capsules_norm_below_one() {
        let cfg = tiny_config();
        let mut store = ParamStore::new();
        let enc = HistoricalCapsules::new(&cfg, &mut store, &mut rng());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::rand_uniform(
            &[1, cfg.input_features(), 4, 4, 4],
            0.0,
            5.0,
            &mut rng(),
        ));
        let caps = enc.forward(&mut tape, x, &store);
        let normsq = tape.value(caps).square().sum_axes(&[2], true);
        assert!(normsq.max_value() < 1.0, "squash must bound capsule norms");
    }

    #[test]
    fn encoder_variants_share_output_shape() {
        for encoder in [Encoder::Pyramid, Encoder::StandardConv3d, Encoder::Conv2dPerSlot] {
            let mut cfg = tiny_config();
            cfg.encoder = encoder;
            let mut store = ParamStore::new();
            let enc = HistoricalCapsules::new(&cfg, &mut store, &mut rng());
            let mut tape = Tape::new();
            let x = tape.constant(Tensor::ones(&[1, cfg.input_features(), 4, 4, 4]));
            let caps = enc.forward(&mut tape, x, &store);
            assert_eq!(tape.value(caps).shape(), &[1, 4, 3, 4, 4], "{encoder:?}");
        }
    }

    #[test]
    fn stacked_encoder_layers_keep_shapes_and_add_parameters() {
        let base = tiny_config();
        let mut store1 = ParamStore::new();
        let enc1 = HistoricalCapsules::new(&base, &mut store1, &mut rng());
        let deep_cfg = base.clone().hist_layers(2);
        let mut store2 = ParamStore::new();
        let enc2 = HistoricalCapsules::new(&deep_cfg, &mut store2, &mut rng());
        assert_eq!(enc1.num_layers(), 1);
        assert_eq!(enc2.num_layers(), 2);
        assert!(store2.num_scalars() > store1.num_scalars());

        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, base.input_features(), 4, 4, 4]));
        let caps = enc2.forward(&mut tape, x, &store2);
        assert_eq!(tape.value(caps).shape(), &[2, 4, 3, 4, 4]);
        // Still squashed.
        let normsq = tape.value(caps).square().sum_axes(&[2], true);
        assert!(normsq.max_value() < 1.0);
    }

    #[test]
    fn stacked_encoder_gradients_reach_both_layers() {
        let cfg = tiny_config().hist_layers(2);
        let mut store = ParamStore::new();
        let enc = HistoricalCapsules::new(&cfg, &mut store, &mut rng());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::rand_uniform(
            &[1, cfg.input_features(), 4, 4, 4],
            0.0,
            1.0,
            &mut rng(),
        ));
        let caps = enc.forward(&mut tape, x, &store);
        let sq = tape.square(caps);
        let loss = tape.sum(sq);
        tape.backward(loss, &mut store);
        for (id, name, _) in store.iter().collect::<Vec<_>>() {
            assert!(store.grad(id).abs().sum() > 0.0, "no gradient for {name}");
        }
    }

    #[test]
    fn multi_capsules_per_slot_expand_s_axis() {
        let mut cfg = tiny_config();
        cfg.hist_capsules_per_slot = 2;
        let mut store = ParamStore::new();
        let enc = HistoricalCapsules::new(&cfg, &mut store, &mut rng());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, cfg.input_features(), 4, 4, 4]));
        let caps = enc.forward(&mut tape, x, &store);
        assert_eq!(tape.value(caps).shape(), &[1, 8, 3, 4, 4]);
    }

    #[test]
    fn routing_output_shape_and_norm() {
        let cfg = tiny_config();
        let mut store = ParamStore::new();
        let routing = SpatialTemporalRouting::new(&cfg, &mut store, &mut rng());
        assert_eq!(routing.iterations(), 3);
        let mut tape = Tape::new();
        let phi = tape.constant(Tensor::rand_uniform(&[2, 4, 3, 4, 4], -0.4, 0.4, &mut rng()));
        let out = routing.forward(&mut tape, phi, &store);
        assert_eq!(tape.value(out).shape(), &[2, 3, 2, 4, 4]);
        let normsq = tape.value(out).square().sum_axes(&[2], true);
        assert!(normsq.max_value() < 1.0);
    }

    #[test]
    fn routing_single_iteration_is_uniform_coupling() {
        // With one iteration the coefficients stay at the softmax of zeros,
        // i.e. uniform; the result must not depend on any logit update.
        let mut cfg = tiny_config();
        cfg.routing_iters = 1;
        let mut store = ParamStore::new();
        let routing = SpatialTemporalRouting::new(&cfg, &mut store, &mut rng());
        let mut tape = Tape::new();
        let phi = tape.constant(Tensor::rand_uniform(&[1, 4, 3, 4, 4], -0.4, 0.4, &mut rng()));
        let out = routing.forward(&mut tape, phi, &store);
        assert_eq!(tape.value(out).shape(), &[1, 3, 2, 4, 4]);
        assert!(tape.value(out).all_finite());
    }

    #[test]
    fn more_routing_iterations_change_the_output() {
        let base = tiny_config();
        let mut store1 = ParamStore::new();
        let mut r = rng();
        let routing1 = SpatialTemporalRouting::new(&{ let mut c = base.clone(); c.routing_iters = 1; c }, &mut store1, &mut r);
        // Re-seed so both transforms share weights.
        let mut store3 = ParamStore::new();
        let mut r2 = rng();
        let routing3 = SpatialTemporalRouting::new(&{ let mut c = base.clone(); c.routing_iters = 3; c }, &mut store3, &mut r2);
        let phi_t = Tensor::rand_uniform(&[1, 4, 3, 4, 4], -2.0, 2.0, &mut rng());
        let run = |routing: &SpatialTemporalRouting, store: &ParamStore| {
            let mut tape = Tape::new();
            let phi = tape.constant(phi_t.clone());
            let out = routing.forward(&mut tape, phi, store);
            tape.value(out).clone()
        };
        let o1 = run(&routing1, &store1);
        let o3 = run(&routing3, &store3);
        assert_eq!(o1.shape(), o3.shape());
        // With untrained weights the agreement updates are small, so the
        // difference is subtle but must be strictly present.
        assert!(o1.sub(&o3).abs().sum() > 1e-7, "routing refinement must matter");
    }

    #[test]
    fn separated_slot_transforms_match_shapes_and_add_parameters() {
        let base = tiny_config();
        let mut shared_store = ParamStore::new();
        let shared = SpatialTemporalRouting::new(&base, &mut shared_store, &mut rng());
        let mut sep_cfg = base.clone();
        sep_cfg.separate_slot_transforms = true;
        let mut sep_store = ParamStore::new();
        let separated = SpatialTemporalRouting::new(&sep_cfg, &mut sep_store, &mut rng());
        // h = 4 slots => 4x the transform parameters (bias shared).
        assert!(sep_store.num_scalars() > shared_store.num_scalars());

        let phi_t = Tensor::rand_uniform(&[2, 4, 3, 4, 4], -0.5, 0.5, &mut rng());
        let run = |r: &SpatialTemporalRouting, store: &ParamStore| {
            let mut tape = Tape::new();
            let phi = tape.constant(phi_t.clone());
            let out = r.forward(&mut tape, phi, store);
            tape.value(out).clone()
        };
        let o_shared = run(&shared, &shared_store);
        let o_sep = run(&separated, &sep_store);
        assert_eq!(o_shared.shape(), o_sep.shape());
        assert!(o_sep.all_finite());
    }

    #[test]
    fn separated_transforms_gradients_reach_every_slot() {
        let mut cfg = tiny_config();
        cfg.separate_slot_transforms = true;
        let mut store = ParamStore::new();
        let routing = SpatialTemporalRouting::new(&cfg, &mut store, &mut rng());
        let mut tape = Tape::new();
        let phi = tape.constant(Tensor::rand_uniform(&[1, 4, 3, 4, 4], -0.4, 0.4, &mut rng()));
        let out = routing.forward(&mut tape, phi, &store);
        let sq = tape.square(out);
        let loss = tape.sum(sq);
        tape.backward(loss, &mut store);
        for (id, name, _) in store.iter().collect::<Vec<_>>() {
            assert!(
                store.grad(id).abs().sum() > 0.0,
                "no gradient for {name}"
            );
        }
    }

    #[test]
    fn squash_is_finite_on_zero_norm_capsules() {
        // Epsilon-guard audit (paper Eq. 2): squash divides by the capsule
        // norm, which is exactly 0 here; the guard under the square root
        // must keep the output finite (and zero).
        let mut tape = Tape::new();
        let z = tape.constant(Tensor::zeros(&[2, 4, 3, 4, 4]));
        let s = tape.squash(z, 2);
        let out = tape.value(s);
        assert!(out.all_finite(), "squash(0) must be finite");
        assert_eq!(out.abs().sum(), 0.0, "squash(0) must be exactly 0");
    }

    #[test]
    fn encoder_output_finite_on_all_zero_input() {
        // Zero input + zero-initialised conv bias means every capsule enters
        // the squash with norm exactly 0.
        let cfg = tiny_config();
        let mut store = ParamStore::new();
        let enc = HistoricalCapsules::new(&cfg, &mut store, &mut rng());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[1, cfg.input_features(), 4, 4, 4]));
        let caps = enc.forward(&mut tape, x, &store);
        assert!(tape.value(caps).all_finite());
    }

    #[test]
    fn routing_output_finite_on_all_zero_input() {
        // All-zero historical capsules: the routing softmax sees all-zero
        // logits and the squash sees all-zero pre-activations, in both
        // softmax normalisation modes.
        for over_grid in [false, true] {
            let mut cfg = tiny_config();
            cfg.routing_softmax_over_grid = over_grid;
            let mut store = ParamStore::new();
            let routing = SpatialTemporalRouting::new(&cfg, &mut store, &mut rng());
            let mut tape = Tape::new();
            let phi = tape.constant(Tensor::zeros(&[1, 4, 3, 4, 4]));
            let out = routing.forward(&mut tape, phi, &store);
            assert!(
                tape.value(out).all_finite(),
                "routing must stay finite on zero input (over_grid={over_grid})"
            );
        }
    }

    #[test]
    fn coupling_entropy_of_uniform_and_committed_distributions() {
        // Uniform over 4 options -> ln 4; one-hot -> 0.
        let uniform = Tensor::from_vec(vec![0.25; 8], &[2, 4]);
        let e = coupling_entropy(&uniform, 1);
        assert!((e - (4.0f64).ln()).abs() < 1e-6, "uniform entropy {e}");
        let onehot = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], &[1, 4]);
        assert_eq!(coupling_entropy(&onehot, 1), 0.0);
        // Grouping over 2 trailing axes: (2, 2) uniform -> ln 4 as well.
        let grid = Tensor::from_vec(vec![0.25; 4], &[1, 2, 2]);
        assert!((coupling_entropy(&grid, 2) - (4.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn routing_gradients_reach_transform() {
        let cfg = tiny_config();
        let mut store = ParamStore::new();
        let routing = SpatialTemporalRouting::new(&cfg, &mut store, &mut rng());
        let mut tape = Tape::new();
        let phi = tape.constant(Tensor::rand_uniform(&[1, 4, 3, 4, 4], -0.4, 0.4, &mut rng()));
        let out = routing.forward(&mut tape, phi, &store);
        let sq = tape.square(out);
        let loss = tape.sum(sq);
        tape.backward(loss, &mut store);
        for (id, _, _) in store.iter().collect::<Vec<_>>() {
            assert!(
                store.grad(id).abs().sum() > 0.0,
                "no gradient for {}",
                store.name(id)
            );
        }
    }
}
