//! Convolutional layers, including the paper's pyramid convolution.

use bikecap_autograd::{ParamId, ParamStore, Tape, Var};
use bikecap_tensor::conv::Conv3dSpec;
use bikecap_tensor::Tensor;
use rand::Rng;

use crate::init::glorot_uniform;

/// 2-D convolution layer over `(N, C, H, W)` tensors with bias.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: ParamId,
    bias: ParamId,
    stride: (usize, usize),
    padding: (usize, usize),
}

impl Conv2d {
    /// Registers a 2-D convolution with kernel `(kh, kw)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        rng: &mut R,
    ) -> Self {
        let k = kernel.0 * kernel.1;
        let weight = store.add(
            format!("{name}.weight"),
            glorot_uniform(
                &[out_channels, in_channels, kernel.0, kernel.1],
                in_channels * k,
                out_channels * k,
                rng,
            ),
        );
        let bias = store.add(
            format!("{name}.bias"),
            Tensor::zeros(&[1, out_channels, 1, 1]),
        );
        Conv2d {
            weight,
            bias,
            stride,
            padding,
        }
    }

    /// Applies the convolution to a `(N, C_in, H, W)` var.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatch.
    pub fn forward(&self, tape: &mut Tape, x: Var, store: &ParamStore) -> Var {
        let _span = bikecap_obs::span("nn.conv2d");
        let w = tape.param(store, self.weight);
        let b = tape.param(store, self.bias);
        let y = tape.conv2d(x, w, self.stride, self.padding);
        tape.add(y, b)
    }
}

/// 3-D convolution layer over `(N, C, D, H, W)` tensors with bias.
#[derive(Debug, Clone)]
pub struct Conv3d {
    weight: ParamId,
    bias: ParamId,
    spec: Conv3dSpec,
}

impl Conv3d {
    /// Registers a 3-D convolution with kernel `(kd, kh, kw)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: (usize, usize, usize),
        spec: Conv3dSpec,
        rng: &mut R,
    ) -> Self {
        let k = kernel.0 * kernel.1 * kernel.2;
        let weight = store.add(
            format!("{name}.weight"),
            glorot_uniform(
                &[out_channels, in_channels, kernel.0, kernel.1, kernel.2],
                in_channels * k,
                out_channels * k,
                rng,
            ),
        );
        let bias = store.add(
            format!("{name}.bias"),
            Tensor::zeros(&[1, out_channels, 1, 1, 1]),
        );
        Conv3d { weight, bias, spec }
    }

    /// Applies the convolution to a `(N, C_in, D, H, W)` var.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatch.
    pub fn forward(&self, tape: &mut Tape, x: Var, store: &ParamStore) -> Var {
        let _span = bikecap_obs::span("nn.conv3d");
        let w = tape.param(store, self.weight);
        let b = tape.param(store, self.bias);
        if bikecap_obs::enabled() {
            let (batch, c_in, dims) = unpack5(tape.value(x).shape());
            let (c_out, _, kernel) = unpack5(tape.value(w).shape());
            let out = bikecap_tensor::conv::conv3d_out_dims(dims, kernel, self.spec);
            bikecap_obs::Work::conv3d(batch, c_in, c_out, dims, out, kernel).record();
        }
        let y = tape.conv3d(x, w, self.spec);
        tape.add(y, b)
    }
}

/// Transposed 3-D convolution (deconvolution) layer with bias, used by the
/// paper's 3-D decoder (Sec. III-E).
#[derive(Debug, Clone)]
pub struct ConvTranspose3d {
    weight: ParamId,
    bias: ParamId,
    spec: Conv3dSpec,
}

impl ConvTranspose3d {
    /// Registers a transposed 3-D convolution with kernel `(kd, kh, kw)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: (usize, usize, usize),
        spec: Conv3dSpec,
        rng: &mut R,
    ) -> Self {
        let k = kernel.0 * kernel.1 * kernel.2;
        let weight = store.add(
            format!("{name}.weight"),
            glorot_uniform(
                &[in_channels, out_channels, kernel.0, kernel.1, kernel.2],
                in_channels * k,
                out_channels * k,
                rng,
            ),
        );
        let bias = store.add(
            format!("{name}.bias"),
            Tensor::zeros(&[1, out_channels, 1, 1, 1]),
        );
        ConvTranspose3d { weight, bias, spec }
    }

    /// Applies the transposed convolution to a `(N, C_in, D, H, W)` var.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatch.
    pub fn forward(&self, tape: &mut Tape, x: Var, store: &ParamStore) -> Var {
        let _span = bikecap_obs::span("nn.deconv3d");
        let w = tape.param(store, self.weight);
        let b = tape.param(store, self.bias);
        if bikecap_obs::enabled() {
            let (batch, c_in, dims) = unpack5(tape.value(x).shape());
            // ConvTranspose3d weights are (C_in, C_out, KD, KH, KW).
            let (_, c_out, kernel) = unpack5(tape.value(w).shape());
            let out = bikecap_tensor::conv::conv_transpose3d_out_dims(dims, kernel, self.spec);
            bikecap_obs::Work::conv_transpose3d(batch, c_in, c_out, dims, out, kernel).record();
        }
        let y = tape.conv_transpose3d(x, w, self.spec);
        tape.add(y, b)
    }
}

/// The paper's pyramid convolutional layer (Sec. II-A / III-C).
///
/// A 3-D convolution over `(N, C, h, H, W)` whose kernel depth equals the
/// pyramid size `k` and whose **spatial support widens with temporal lag**:
/// the most recent kernel slice is `1x1`, the previous `3x3`, …, the oldest
/// `(2k-1)x(2k-1)`. (The paper's text writes `(2k+1)` for the oldest slice,
/// inconsistent with its own `1, 3, …` progression; we use the consistent
/// `2·lag+1` reading — see DESIGN.md.)
///
/// The weight is stored dense, `(C_out, C_in, k, 2k-1, 2k-1)`, and run by
/// [`Tape::pyramid_conv`], which reads only the active taps: coefficients
/// outside a slice's square are never read and receive exactly zero
/// gradient.
///
/// Time is **causal**: output slot `t` only sees input slots `t-k+1..=t`,
/// matching the flow-propagation intuition of Fig. 3.
#[derive(Debug, Clone)]
pub struct PyramidConv3d {
    weight: ParamId,
    bias: ParamId,
    pyramid_size: usize,
}

impl PyramidConv3d {
    /// Registers a pyramid convolution with pyramid size `k >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `pyramid_size` is 0.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        pyramid_size: usize,
        rng: &mut R,
    ) -> Self {
        assert!(pyramid_size >= 1, "pyramid size must be at least 1");
        let k = pyramid_size;
        let s = 2 * k - 1;
        // Fan-in counts only active coefficients.
        let active: usize = (0..k).map(|lag| (2 * lag + 1) * (2 * lag + 1)).sum();
        let weight = store.add(
            format!("{name}.weight"),
            glorot_uniform(
                &[out_channels, in_channels, k, s, s],
                in_channels * active,
                out_channels * active,
                rng,
            ),
        );
        let bias = store.add(
            format!("{name}.bias"),
            Tensor::zeros(&[1, out_channels, 1, 1, 1]),
        );
        PyramidConv3d {
            weight,
            bias,
            pyramid_size,
        }
    }

    /// The binary pyramid mask: kernel depth index `kd` (0 = oldest) keeps a
    /// centred `(2·lag+1)` square where `lag = k-1-kd`. The layer never
    /// applies it; it is the oracle tests compare the active-tap walk with.
    pub fn pyramid_mask(out_channels: usize, in_channels: usize, k: usize) -> Tensor {
        let s = 2 * k - 1;
        let center = (k - 1) as isize;
        Tensor::from_fn(&[out_channels, in_channels, k, s, s], |ix| {
            let lag = (k - 1 - ix[2]) as isize;
            let dh = ix[3] as isize - center;
            let dw = ix[4] as isize - center;
            if dh.abs() <= lag && dw.abs() <= lag {
                1.0
            } else {
                0.0
            }
        })
    }

    /// The configured pyramid size `k`.
    pub fn pyramid_size(&self) -> usize {
        self.pyramid_size
    }

    /// Number of *active* (unmasked) coefficients per output/input channel
    /// pair — the effective kernel volume.
    pub fn active_coefficients(&self) -> usize {
        (0..self.pyramid_size)
            .map(|lag| (2 * lag + 1) * (2 * lag + 1))
            .sum()
    }

    /// Applies the pyramid convolution to a `(N, C_in, h, H, W)` var,
    /// preserving all extents (`h`, `H`, `W` unchanged).
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatch.
    pub fn forward(&self, tape: &mut Tape, x: Var, store: &ParamStore) -> Var {
        let _span = bikecap_obs::span("nn.pyramid");
        let k = self.pyramid_size;
        let xs = tape.value(x).shape();
        assert_eq!(xs.len(), 5, "PyramidConv3d expects rank-5 input, got {xs:?}");
        let w = tape.param(store, self.weight);
        if bikecap_obs::enabled() {
            let (batch, c_in, dims) = unpack5(tape.value(x).shape());
            let c_out = tape.value(w).shape()[0];
            bikecap_obs::Work::pyramid_conv(batch, c_in, c_out, dims, k).record();
        }
        let y = tape.pyramid_conv(x, w, k);
        let b = tape.param(store, self.bias);
        tape.add(y, b)
    }
}

/// Splits a rank-5 shape into `(dim0, dim1, (dim2, dim3, dim4))` — batch,
/// channels, and the trailing volume for inputs; out-channels, in-channels,
/// and the kernel extents for weights.
fn unpack5(shape: &[usize]) -> (usize, usize, (usize, usize, usize)) {
    (shape[0], shape[1], (shape[2], shape[3], shape[4]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn conv2d_shapes_and_grads() {
        let mut store = ParamStore::new();
        let layer = Conv2d::new(&mut store, "c", 2, 3, (3, 3), (1, 1), (1, 1), &mut rng());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 2, 5, 5]));
        let y = layer.forward(&mut tape, x, &store);
        assert_eq!(tape.value(y).shape(), &[2, 3, 5, 5]);
        let loss = tape.sum(y);
        tape.backward(loss, &mut store);
        for (id, _, _) in store.iter().collect::<Vec<_>>() {
            assert!(store.grad(id).abs().sum() > 0.0);
        }
    }

    #[test]
    fn conv3d_strided_output_shape() {
        let mut store = ParamStore::new();
        let spec = Conv3dSpec {
            stride: (2, 1, 1),
            padding: (0, 1, 1),
        };
        let layer = Conv3d::new(&mut store, "c", 1, 4, (2, 3, 3), spec, &mut rng());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, 1, 8, 4, 4]));
        let y = layer.forward(&mut tape, x, &store);
        assert_eq!(tape.value(y).shape(), &[1, 4, 4, 4, 4]);
    }

    #[test]
    fn conv_transpose3d_preserves_extent_with_same_padding() {
        let mut store = ParamStore::new();
        let layer = ConvTranspose3d::new(
            &mut store,
            "d",
            3,
            1,
            (3, 3, 3),
            Conv3dSpec::padded(1, 1, 1),
            &mut rng(),
        );
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 3, 4, 6, 6]));
        let y = layer.forward(&mut tape, x, &store);
        assert_eq!(tape.value(y).shape(), &[2, 1, 4, 6, 6]);
    }

    #[test]
    fn pyramid_mask_extents() {
        // k = 3: slices (oldest -> newest) keep 5x5, 3x3, 1x1.
        let m = PyramidConv3d::pyramid_mask(1, 1, 3);
        assert_eq!(m.shape(), &[1, 1, 3, 5, 5]);
        let per_slice: Vec<f32> = (0..3)
            .map(|kd| {
                let mut s = 0.0;
                for h in 0..5 {
                    for w in 0..5 {
                        s += m.get(&[0, 0, kd, h, w]);
                    }
                }
                s
            })
            .collect();
        assert_eq!(per_slice, vec![25.0, 9.0, 1.0]);
        // The newest slice keeps exactly the centre.
        assert_eq!(m.get(&[0, 0, 2, 2, 2]), 1.0);
        assert_eq!(m.get(&[0, 0, 2, 2, 3]), 0.0);
    }

    #[test]
    fn pyramid_active_coefficients() {
        let mut store = ParamStore::new();
        let layer = PyramidConv3d::new(&mut store, "p", 1, 1, 3, &mut rng());
        assert_eq!(layer.active_coefficients(), 1 + 9 + 25);
        assert_eq!(layer.pyramid_size(), 3);
    }

    #[test]
    fn pyramid_preserves_input_extents() {
        let mut store = ParamStore::new();
        let layer = PyramidConv3d::new(&mut store, "p", 3, 4, 3, &mut rng());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 3, 8, 6, 6]));
        let y = layer.forward(&mut tape, x, &store);
        assert_eq!(tape.value(y).shape(), &[2, 4, 8, 6, 6]);
    }

    #[test]
    fn pyramid_is_causal_in_time() {
        // Perturbing a *future* input slot must not change earlier outputs.
        let mut store = ParamStore::new();
        let layer = PyramidConv3d::new(&mut store, "p", 1, 2, 2, &mut rng());

        let base = Tensor::zeros(&[1, 1, 4, 3, 3]);
        let mut bumped = base.clone();
        bumped.set(&[0, 0, 3, 1, 1], 10.0); // change only the last slot

        let run = |input: Tensor, store: &ParamStore| {
            let mut tape = Tape::new();
            let x = tape.constant(input);
            let y = layer.forward(&mut tape, x, store);
            tape.value(y).clone()
        };
        let y0 = run(base, &store);
        let y1 = run(bumped, &store);
        // Outputs for slots 0..3 must be identical; slot 3 may differ.
        for d in 0..3 {
            for c in 0..2 {
                for h in 0..3 {
                    for w in 0..3 {
                        assert_eq!(
                            y0.get(&[0, c, d, h, w]),
                            y1.get(&[0, c, d, h, w]),
                            "future leak at slot {d}"
                        );
                    }
                }
            }
        }
        assert!(y0.sub(&y1).abs().sum() > 0.0, "last slot must react");
    }

    #[test]
    fn pyramid_spatial_reach_grows_with_lag() {
        // A perturbation far from the centre must influence the output only
        // through sufficiently old time slots. With k=2 the newest slice is
        // 1x1: a spatial neighbour at the same slot cannot affect the output
        // at the centre cell in the same slot.
        let mut store = ParamStore::new();
        let layer = PyramidConv3d::new(&mut store, "p", 1, 1, 2, &mut rng());
        let run = |input: Tensor| {
            let mut tape = Tape::new();
            let x = tape.constant(input);
            let y = layer.forward(&mut tape, x, &store);
            tape.value(y).clone()
        };
        let base = run(Tensor::zeros(&[1, 1, 2, 3, 3]));
        // Bump the neighbour (0,1) at the *latest* slot: centre output at the
        // latest slot must not move (1x1 kernel there), but at lag 1 it would.
        let mut b1 = Tensor::zeros(&[1, 1, 2, 3, 3]);
        b1.set(&[0, 0, 1, 0, 1], 5.0);
        let y1 = run(b1);
        assert_eq!(y1.get(&[0, 0, 1, 1, 1]), base.get(&[0, 0, 1, 1, 1]));

        let mut b2 = Tensor::zeros(&[1, 1, 2, 3, 3]);
        b2.set(&[0, 0, 0, 0, 1], 5.0); // same neighbour, one slot earlier
        let y2 = run(b2);
        assert!(
            (y2.get(&[0, 0, 1, 1, 1]) - base.get(&[0, 0, 1, 1, 1])).abs() > 0.0,
            "lag-1 neighbour should reach the centre"
        );
    }

    #[test]
    fn pyramid_masked_weights_get_zero_gradient() {
        let mut store = ParamStore::new();
        let layer = PyramidConv3d::new(&mut store, "p", 1, 1, 2, &mut rng());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, 1, 3, 4, 4]));
        let y = layer.forward(&mut tape, x, &store);
        let loss = tape.sum(y);
        tape.backward(loss, &mut store);
        let wid = store.iter().find(|(_, n, _)| *n == "p.weight").unwrap().0;
        let grad = store.grad(wid).clone();
        let mask = PyramidConv3d::pyramid_mask(1, 1, 2);
        // Gradient must vanish exactly where the mask is zero.
        for (g, m) in grad.as_slice().iter().zip(mask.as_slice()) {
            if *m == 0.0 {
                assert_eq!(*g, 0.0);
            }
        }
        assert!(grad.abs().sum() > 0.0);
    }
}
