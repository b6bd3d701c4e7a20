//! Static shape-contract checking.
//!
//! [`check_config`] walks a [`BikeCapConfig`] and symbolically composes every
//! convolution and reshape the assembled network would execute — the pyramid
//! encoder's causal padding, the routing stage's depth-strided transform, the
//! decoder's transposed convolutions — over `(channels, time, height, width)`
//! extents, **without allocating a single tensor**. Illegal configurations
//! are rejected with a typed [`ShapeError`] naming the exact layer and axis,
//! so a bad config fails at construction (or in `bikecap check-config`)
//! instead of deep inside a kernel.
//!
//! The checker is deliberately stricter than the runtime convolution, which
//! floors `(in + 2p - k) / stride`: here a stride that does not divide the
//! convolved extent is an error ([`ShapeErrorKind::StrideMisaligned`]),
//! because a flooring division silently drops rows — exactly the class of
//! bug that corrupts every downstream prediction without crashing.
//!
//! What-if strides ([`StrideOverrides`]) let tooling probe contracts the
//! production architecture holds by construction (every BikeCAP layer is
//! extent-preserving): `bikecap-check check-config --encoder-spatial-stride 3`
//! asks "what if this conv strided spatially?" and gets the typed rejection.

use std::fmt;

use crate::config::{BikeCapConfig, DecoderKind, Encoder};

/// The axis of a symbolic `(C, D, H, W)` volume on which a contract broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Channel axis (capsule dimensions, feature maps).
    Channel,
    /// Temporal axis (history slots in the encoder, horizon in the decoder,
    /// flattened capsule depth in the routing transform).
    Time,
    /// Grid rows.
    Height,
    /// Grid cols.
    Width,
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Axis::Channel => "channel",
            Axis::Time => "time",
            Axis::Height => "height",
            Axis::Width => "width",
        })
    }
}

/// Why a layer's shape contract is violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeErrorKind {
    /// A configuration field is degenerate (zero extent, zero capsules, …).
    Degenerate {
        /// Human-readable statement of the violated bound.
        message: String,
    },
    /// The kernel is larger than the padded input extent.
    KernelExceedsInput {
        /// Kernel extent on the failing axis.
        kernel: usize,
        /// Input extent on the failing axis.
        input: usize,
        /// Per-side padding on the failing axis.
        padding: usize,
    },
    /// The stride does not evenly divide the convolved extent, so the
    /// convolution would silently drop trailing positions.
    StrideMisaligned {
        /// Input extent on the failing axis.
        input: usize,
        /// Kernel extent on the failing axis.
        kernel: usize,
        /// Per-side padding on the failing axis.
        padding: usize,
        /// The offending stride.
        stride: usize,
    },
    /// A stride of zero can never advance.
    ZeroStride,
    /// A layer's output extent disagrees with what the next stage requires
    /// (the reshape/permute contracts between encoder, routing and decoder).
    ExtentMismatch {
        /// Extent the downstream stage requires.
        expected: usize,
        /// Extent this layer actually produces.
        found: usize,
    },
}

impl fmt::Display for ShapeErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeErrorKind::Degenerate { message } => f.write_str(message),
            ShapeErrorKind::KernelExceedsInput {
                kernel,
                input,
                padding,
            } => write!(
                f,
                "kernel {kernel} exceeds padded input {input} + 2*{padding}"
            ),
            ShapeErrorKind::StrideMisaligned {
                input,
                kernel,
                padding,
                stride,
            } => write!(
                f,
                "stride {stride} does not divide the convolved extent \
                 (input {input} + 2*{padding} pad - kernel {kernel} = {})",
                input + 2 * padding - kernel
            ),
            ShapeErrorKind::ZeroStride => f.write_str("stride must be >= 1"),
            ShapeErrorKind::ExtentMismatch { expected, found } => write!(
                f,
                "produces extent {found} but the next stage requires {expected}"
            ),
        }
    }
}

/// A typed shape-contract violation: the exact layer and axis, plus why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// The layer (parameter-store name) being composed when the contract
    /// broke; `"config"` for degenerate configuration fields.
    pub layer: String,
    /// The failing axis.
    pub axis: Axis,
    /// What went wrong.
    pub kind: ShapeErrorKind,
}

impl ShapeError {
    fn new(layer: &str, axis: Axis, kind: ShapeErrorKind) -> Self {
        ShapeError {
            layer: layer.to_string(),
            axis,
            kind,
        }
    }

    fn degenerate(axis: Axis, message: &str) -> Self {
        ShapeError::new(
            "config",
            axis,
            ShapeErrorKind::Degenerate {
                message: message.to_string(),
            },
        )
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layer '{}', {} axis: {}", self.layer, self.axis, self.kind)
    }
}

impl std::error::Error for ShapeError {}

/// Symbolic extents of one `(B, C, D, H, W)` activation (batch elided — it
/// never participates in a contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extents {
    /// Channel extent.
    pub channels: usize,
    /// Temporal extent.
    pub time: usize,
    /// Grid rows.
    pub height: usize,
    /// Grid cols.
    pub width: usize,
}

impl fmt::Display for Extents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(C={}, D={}, H={}, W={})",
            self.channels, self.time, self.height, self.width
        )
    }
}

/// One composed layer of a [`ShapePlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerShape {
    /// Layer name (matches the parameter-store prefix where one exists).
    pub layer: String,
    /// The symbolic output extents of this layer.
    pub output: Extents,
}

/// The full symbolic trace of a configuration's forward pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapePlan {
    /// The `(F, h, H, W)` window the network consumes.
    pub input: Extents,
    /// Every composed layer, in execution order.
    pub layers: Vec<LayerShape>,
}

impl ShapePlan {
    /// The final output extents: `(1, p, H, W)` demand maps.
    pub fn output(&self) -> Extents {
        self.layers.last().map_or(self.input, |l| l.output)
    }
}

/// What-if stride overrides for probing contracts the production
/// architecture satisfies by construction. `None` means "use the stride the
/// model actually uses".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrideOverrides {
    /// Spatial (H and W) stride of every encoder convolution (model: 1).
    pub encoder_spatial: Option<usize>,
    /// Temporal stride of every encoder convolution (model: 1).
    pub encoder_time: Option<usize>,
    /// Depth stride of the routing transform (model: `capsule_dim`).
    pub routing_depth: Option<usize>,
    /// Spatial stride of the routing transform (model: 1).
    pub routing_spatial: Option<usize>,
}

impl StrideOverrides {
    /// True when no override is set (the plan describes the real model).
    pub fn is_identity(&self) -> bool {
        *self == StrideOverrides::default()
    }
}

/// Composes one convolution axis: `out = (in + 2p - k) / s + 1`, rejecting
/// zero strides, kernels that exceed the padded input, and strides that do
/// not divide the convolved extent (see the module docs for why the last is
/// an error here even though the runtime kernel floors).
fn conv_axis(
    layer: &str,
    axis: Axis,
    input: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<usize, ShapeError> {
    if stride == 0 {
        return Err(ShapeError::new(layer, axis, ShapeErrorKind::ZeroStride));
    }
    let padded = input + 2 * padding;
    if kernel == 0 || kernel > padded {
        return Err(ShapeError::new(
            layer,
            axis,
            ShapeErrorKind::KernelExceedsInput {
                kernel,
                input,
                padding,
            },
        ));
    }
    let span = padded - kernel;
    if !span.is_multiple_of(stride) {
        return Err(ShapeError::new(
            layer,
            axis,
            ShapeErrorKind::StrideMisaligned {
                input,
                kernel,
                padding,
                stride,
            },
        ));
    }
    Ok(span / stride + 1)
}

/// Composes a full Conv3D: kernel/stride/padding given as `(D, H, W)`.
fn conv3d(
    layer: &str,
    input: Extents,
    out_channels: usize,
    kernel: (usize, usize, usize),
    stride: (usize, usize, usize),
    padding: (usize, usize, usize),
) -> Result<Extents, ShapeError> {
    Ok(Extents {
        channels: out_channels,
        time: conv_axis(layer, Axis::Time, input.time, kernel.0, stride.0, padding.0)?,
        height: conv_axis(layer, Axis::Height, input.height, kernel.1, stride.1, padding.1)?,
        width: conv_axis(layer, Axis::Width, input.width, kernel.2, stride.2, padding.2)?,
    })
}

/// Composes one transposed-convolution axis: `out = (in - 1)*s + k - 2p`.
fn deconv_axis(
    layer: &str,
    axis: Axis,
    input: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<usize, ShapeError> {
    if stride == 0 {
        return Err(ShapeError::new(layer, axis, ShapeErrorKind::ZeroStride));
    }
    let grown = (input - 1) * stride + kernel;
    if grown <= 2 * padding {
        return Err(ShapeError::new(
            layer,
            axis,
            ShapeErrorKind::KernelExceedsInput {
                kernel,
                input,
                padding,
            },
        ));
    }
    Ok(grown - 2 * padding)
}

/// Composes a full Deconv3D (transposed convolution).
fn deconv3d(
    layer: &str,
    input: Extents,
    out_channels: usize,
    kernel: (usize, usize, usize),
    stride: (usize, usize, usize),
    padding: (usize, usize, usize),
) -> Result<Extents, ShapeError> {
    Ok(Extents {
        channels: out_channels,
        time: deconv_axis(layer, Axis::Time, input.time, kernel.0, stride.0, padding.0)?,
        height: deconv_axis(layer, Axis::Height, input.height, kernel.1, stride.1, padding.1)?,
        width: deconv_axis(layer, Axis::Width, input.width, kernel.2, stride.2, padding.2)?,
    })
}

/// Requires `found == expected` on `axis`, as the reshape/permute contract
/// between two stages does.
fn require(
    layer: &str,
    axis: Axis,
    expected: usize,
    found: usize,
) -> Result<(), ShapeError> {
    if expected == found {
        Ok(())
    } else {
        Err(ShapeError::new(
            layer,
            axis,
            ShapeErrorKind::ExtentMismatch { expected, found },
        ))
    }
}

/// Field-level validation, mirroring the panicking
/// [`BikeCapConfig::validate`] with typed errors.
fn validate_fields(config: &BikeCapConfig) -> Result<(), ShapeError> {
    if config.grid_height < 2 {
        return Err(ShapeError::degenerate(Axis::Height, "grid too small: need height >= 2"));
    }
    if config.grid_width < 2 {
        return Err(ShapeError::degenerate(Axis::Width, "grid too small: need width >= 2"));
    }
    if config.history < 1 {
        return Err(ShapeError::degenerate(Axis::Time, "history must be >= 1"));
    }
    if config.horizon < 1 {
        return Err(ShapeError::degenerate(Axis::Time, "horizon must be >= 1"));
    }
    if config.pyramid_size < 1 {
        return Err(ShapeError::degenerate(Axis::Height, "pyramid size must be >= 1"));
    }
    if config.capsule_dim < 1 {
        return Err(ShapeError::degenerate(Axis::Channel, "capsule dim must be >= 1"));
    }
    if config.out_capsule_dim < 1 {
        return Err(ShapeError::degenerate(Axis::Channel, "out capsule dim must be >= 1"));
    }
    if config.hist_capsules_per_slot < 1 {
        return Err(ShapeError::degenerate(Axis::Channel, "need >= 1 capsule per slot"));
    }
    if config.hist_layers < 1 {
        return Err(ShapeError::degenerate(Axis::Channel, "need >= 1 encoder layer"));
    }
    if config.routing_iters < 1 {
        return Err(ShapeError::degenerate(Axis::Channel, "need >= 1 routing iteration"));
    }
    if config.decoder_channels < 1 {
        return Err(ShapeError::degenerate(Axis::Channel, "decoder channels must be >= 1"));
    }
    Ok(())
}

/// Checks `config` against every shape contract of the assembled network.
///
/// # Errors
///
/// Returns the first [`ShapeError`] encountered, in execution order.
pub fn check_config(config: &BikeCapConfig) -> Result<ShapePlan, ShapeError> {
    check_config_with(config, &StrideOverrides::default())
}

/// Like [`check_config`], but with what-if [`StrideOverrides`] applied.
///
/// # Errors
///
/// Returns the first [`ShapeError`] encountered, in execution order.
pub fn check_config_with(
    config: &BikeCapConfig,
    overrides: &StrideOverrides,
) -> Result<ShapePlan, ShapeError> {
    validate_fields(config)?;
    let (h, gh, gw) = (config.history, config.grid_height, config.grid_width);
    let caps_channels = config.hist_capsules_per_slot * config.capsule_dim;
    let enc_time_stride = overrides.encoder_time.unwrap_or(1);
    let enc_spatial_stride = overrides.encoder_spatial.unwrap_or(1);

    let input = Extents {
        channels: config.input_features(),
        time: h,
        height: gh,
        width: gw,
    };
    let mut plan = ShapePlan {
        input,
        layers: Vec::new(),
    };
    let mut cur = input;

    // --- Historical-capsule encoder: every layer must preserve (h, H, W)
    // because the capsule-layout reshape `(B, c*n, h, H, W) -> (B, c*h, n,
    // H, W)` and the inter-layer squash both assume it.
    for li in 0..config.hist_layers {
        let name = match config.encoder {
            Encoder::Pyramid => format!("hist.pyramid{li}"),
            Encoder::StandardConv3d => format!("hist.conv3d{li}"),
            Encoder::Conv2dPerSlot => format!("hist.conv2d{li}"),
        };
        let out = match config.encoder {
            Encoder::Pyramid => {
                // The pyramid kernel's geometry: a causal depth-k window (as
                // if k-1 zero slots were prepended, no symmetric time
                // padding) and a 2k-1 spatial kernel with same-padding k-1.
                let k = config.pyramid_size;
                let padded = Extents {
                    time: cur.time + (k - 1),
                    ..cur
                };
                conv3d(
                    &name,
                    padded,
                    caps_channels,
                    (k, 2 * k - 1, 2 * k - 1),
                    (enc_time_stride, enc_spatial_stride, enc_spatial_stride),
                    (0, k - 1, k - 1),
                )?
            }
            Encoder::StandardConv3d => conv3d(
                &name,
                cur,
                caps_channels,
                (3, 3, 3),
                (enc_time_stride, enc_spatial_stride, enc_spatial_stride),
                (1, 1, 1),
            )?,
            Encoder::Conv2dPerSlot => conv3d(
                &name,
                cur,
                caps_channels,
                (1, 3, 3),
                (enc_time_stride, enc_spatial_stride, enc_spatial_stride),
                (0, 1, 1),
            )?,
        };
        require(&name, Axis::Channel, caps_channels, out.channels)?;
        require(&name, Axis::Time, h, out.time)?;
        require(&name, Axis::Height, gh, out.height)?;
        require(&name, Axis::Width, gw, out.width)?;
        plan.layers.push(LayerShape {
            layer: name,
            output: out,
        });
        cur = out;
    }

    // Capsule layout: (B, S, n_in, H, W) with S = hist_capsules_per_slot * h.
    let s = config.num_hist_capsules();
    let n_in = config.capsule_dim;
    let caps = Extents {
        channels: s,
        time: n_in,
        height: gh,
        width: gw,
    };
    plan.layers.push(LayerShape {
        layer: "hist.capsule_layout".to_string(),
        output: caps,
    });

    // --- Routing transform: kernel (n_in, 3, 3), depth stride n_in over the
    // flattened (B, 1, S*n_in, H, W) volume (or per-slot over (B, 1, n_in,
    // H, W)); the routed reshape requires depth extent S (or 1 per slot) and
    // unchanged (H, W).
    let p = config.horizon;
    let n_out = config.out_capsule_dim;
    let depth_stride = overrides.routing_depth.unwrap_or(n_in);
    let spatial_stride = overrides.routing_spatial.unwrap_or(1);
    let (flat_depth, routed_depth) = if config.separate_slot_transforms {
        (n_in, 1)
    } else {
        (s * n_in, s)
    };
    let routing_in = Extents {
        channels: 1,
        time: flat_depth,
        height: gh,
        width: gw,
    };
    let routed = conv3d(
        "routing.transform",
        routing_in,
        p * n_out,
        (n_in, 3, 3),
        (depth_stride, spatial_stride, spatial_stride),
        (0, 1, 1),
    )?;
    require("routing.transform", Axis::Time, routed_depth, routed.time)?;
    require("routing.transform", Axis::Height, gh, routed.height)?;
    require("routing.transform", Axis::Width, gw, routed.width)?;
    plan.layers.push(LayerShape {
        layer: "routing.transform".to_string(),
        output: routed,
    });

    // Routed future capsules after softmax/squash agreement: (B, p, n_out,
    // H, W). The routing math itself is extent-preserving.
    let future = Extents {
        channels: p,
        time: n_out,
        height: gh,
        width: gw,
    };
    plan.layers.push(LayerShape {
        layer: "routing.squash".to_string(),
        output: future,
    });

    // --- Decoder: (B, n_out, p, H, W) -> (B, 1, p, H, W) demand volume.
    match config.decoder {
        DecoderKind::Deconv3d => {
            let d_in = Extents {
                channels: n_out,
                time: p,
                height: gh,
                width: gw,
            };
            let d1 = deconv3d(
                "decoder.deconv1",
                d_in,
                config.decoder_channels,
                (3, 3, 3),
                (1, 1, 1),
                (1, 1, 1),
            )?;
            plan.layers.push(LayerShape {
                layer: "decoder.deconv1".to_string(),
                output: d1,
            });
            let d2 = deconv3d("decoder.deconv2", d1, 1, (3, 3, 3), (1, 1, 1), (1, 1, 1))?;
            require("decoder.deconv2", Axis::Channel, 1, d2.channels)?;
            require("decoder.deconv2", Axis::Time, p, d2.time)?;
            require("decoder.deconv2", Axis::Height, gh, d2.height)?;
            require("decoder.deconv2", Axis::Width, gw, d2.width)?;
            plan.layers.push(LayerShape {
                layer: "decoder.deconv2".to_string(),
                output: d2,
            });
        }
        DecoderKind::Reshape => {
            // Per-cell dense decoding: n_out -> decoder_channels -> 1 with no
            // spatial coupling; extents cannot drift by construction.
            plan.layers.push(LayerShape {
                layer: "decoder.fc".to_string(),
                output: Extents {
                    channels: 1,
                    time: p,
                    height: gh,
                    width: gw,
                },
            });
        }
    }

    // Final demand maps: (B, p, H, W).
    plan.layers.push(LayerShape {
        layer: "output".to_string(),
        output: Extents {
            channels: 1,
            time: p,
            height: gh,
            width: gw,
        },
    });
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;

    fn base() -> BikeCapConfig {
        BikeCapConfig::new(8, 8)
    }

    #[test]
    fn default_config_passes_with_expected_trace() {
        let plan = check_config(&base()).unwrap();
        assert_eq!(
            plan.input,
            Extents {
                channels: 4,
                time: 8,
                height: 8,
                width: 8
            }
        );
        let out = plan.output();
        assert_eq!(
            out,
            Extents {
                channels: 1,
                time: 4,
                height: 8,
                width: 8
            }
        );
        // Encoder output keeps (h, H, W) with c*n channels.
        let enc = plan
            .layers
            .iter()
            .find(|l| l.layer == "hist.pyramid0")
            .unwrap();
        assert_eq!(
            enc.output,
            Extents {
                channels: 4,
                time: 8,
                height: 8,
                width: 8
            }
        );
    }

    #[test]
    fn every_variant_and_sweep_point_passes() {
        for v in Variant::all() {
            check_config(&base().variant(v)).unwrap();
        }
        for p in 2..=8 {
            check_config(&base().horizon(p)).unwrap();
        }
        for k in 1..=4 {
            check_config(&base().pyramid_size(k)).unwrap();
        }
        for n in [2, 4, 8, 16] {
            check_config(&base().capsule_dim(n)).unwrap();
        }
        check_config(&base().separate_slot_transforms(true)).unwrap();
        check_config(&base().hist_layers(2)).unwrap();
    }

    #[test]
    fn degenerate_fields_are_typed() {
        let err = check_config(&base().horizon(0)).unwrap_err();
        assert_eq!(err.layer, "config");
        assert_eq!(err.axis, Axis::Time);
        assert!(err.to_string().contains("horizon must be >= 1"), "{err}");

        let err = check_config(&BikeCapConfig::new(1, 8)).unwrap_err();
        assert_eq!(err.axis, Axis::Height);
    }

    #[test]
    fn misaligned_stride_is_rejected_with_layer_and_axis() {
        // 8x8 grid, standard conv kernel 3 pad 1: span = 8 + 2 - 3 = 7;
        // stride 3 does not divide it.
        let ov = StrideOverrides {
            encoder_spatial: Some(3),
            ..StrideOverrides::default()
        };
        let err = check_config_with(&base().variant(Variant::NoPyramid), &ov).unwrap_err();
        assert_eq!(err.layer, "hist.conv3d0");
        assert_eq!(err.axis, Axis::Height);
        assert!(
            matches!(err.kind, ShapeErrorKind::StrideMisaligned { stride: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn dividing_but_shrinking_stride_breaks_the_reshape_contract() {
        // span 7, stride 7 divides it but halves the extent: the capsule
        // reshape then rejects the layer.
        let ov = StrideOverrides {
            encoder_spatial: Some(7),
            ..StrideOverrides::default()
        };
        let err = check_config_with(&base().variant(Variant::NoPyramid), &ov).unwrap_err();
        assert_eq!(err.axis, Axis::Height);
        assert!(
            matches!(
                err.kind,
                ShapeErrorKind::ExtentMismatch {
                    expected: 8,
                    found: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn routing_stride_override_trips_depth_contract() {
        // Shared transform: flattened depth S*n = 8*4 = 32, kernel n = 4,
        // span 28; stride 3 does not divide it.
        let ov = StrideOverrides {
            routing_depth: Some(3),
            ..StrideOverrides::default()
        };
        let err = check_config_with(&base(), &ov).unwrap_err();
        assert_eq!(err.layer, "routing.transform");
        assert_eq!(err.axis, Axis::Time);
    }

    #[test]
    fn kernel_exceeding_grid_is_rejected() {
        // Pyramid k=4 has spatial kernel 7 with pad 3: fits a 2x2 grid
        // (2 + 6 >= 7) but stride... span = 2+6-7 = 1, ok. Use a huge k on
        // the time axis instead: k=9 needs kernel depth 9 over h + 8 padded
        // slots, fine; spatial kernel 17 over 2 + 16 = 18, span 1. Pyramid
        // geometry self-pads, so force the failure through the standard
        // conv on a tiny time axis: kernel depth 3 over history 1 + 2 pad,
        // span 0 — legal. The genuinely unreachable case is a zero kernel,
        // covered by conv_axis directly.
        let err = conv_axis("probe", Axis::Time, 2, 9, 1, 0).unwrap_err();
        assert!(
            matches!(err.kind, ShapeErrorKind::KernelExceedsInput { kernel: 9, .. }),
            "{err}"
        );
        assert_eq!(
            conv_axis("probe", Axis::Time, 8, 3, 1, 1).unwrap(),
            8
        );
    }

    #[test]
    fn zero_stride_is_typed() {
        let ov = StrideOverrides {
            routing_depth: Some(0),
            ..StrideOverrides::default()
        };
        let err = check_config_with(&base(), &ov).unwrap_err();
        assert_eq!(err.kind, ShapeErrorKind::ZeroStride);
    }

    #[test]
    fn separated_transforms_ignore_shared_depth_misalignment() {
        // Per-slot routing convolves depth n -> 1; any stride yields the
        // same single output position, so the depth override cannot trip it.
        let ov = StrideOverrides {
            routing_depth: Some(3),
            ..StrideOverrides::default()
        };
        check_config_with(&base().separate_slot_transforms(true), &ov).unwrap();
    }

    #[test]
    fn plan_traces_deconv_decoder() {
        let plan = check_config(&base()).unwrap();
        let names: Vec<&str> = plan.layers.iter().map(|l| l.layer.as_str()).collect();
        assert!(names.contains(&"decoder.deconv1"));
        assert!(names.contains(&"decoder.deconv2"));
        let plan = check_config(&base().variant(Variant::NoDeconv3d)).unwrap();
        let names: Vec<&str> = plan.layers.iter().map(|l| l.layer.as_str()).collect();
        assert!(names.contains(&"decoder.fc"));
    }
}
