//! The BikeCAP model: a deep spatial-temporal capsule network for multi-step
//! bike demand prediction (Zhong et al., ICDCS 2022).
//!
//! The architecture (paper Fig. 4) has three stages, each a module here:
//!
//! 1. **Historical capsules** ([`capsules::HistoricalCapsules`]) — a pyramid
//!    convolutional layer (spatial support widening with temporal lag) plus a
//!    3-D squash, producing one capsule vector per historical slot per grid
//!    cell.
//! 2. **Future capsules** ([`capsules::SpatialTemporalRouting`]) — each
//!    historical capsule independently predicts every future capsule through
//!    a strided 3-D convolution; coupling coefficients are refined by
//!    agreement over routing iterations (3-D softmax over grid × future-step
//!    axes, Eq. 4). This *independent reconstruction* of each future slot is
//!    what avoids autoregressive error accumulation (Fig. 2).
//! 3. **3-D decoder** ([`decoder::Decoder`]) — two transposed 3-D
//!    convolutions mapping future capsule vectors to demand maps, exploiting
//!    similarity across neighbouring grids and adjacent slots.
//!
//! [`BikeCap`] wires the stages together with training (`Adam`, L1 loss, per
//! the paper's Sec. IV-C) and prediction APIs; [`BikeCapConfig`] exposes
//! every hyper-parameter the paper sweeps (pyramid size — Table IV, capsule
//! dimension — Table V) and [`Variant`] reproduces the four ablations of
//! Fig. 7.
//!
//! ```no_run
//! use bikecap_core::{BikeCap, BikeCapConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let config = BikeCapConfig::new(8, 8).history(8).horizon(4);
//! let model = BikeCap::new(config, &mut rng);
//! println!("{} learnable parameters", model.num_parameters());
//! ```

pub mod capsules;
pub mod config;
pub mod decoder;
pub mod model;
pub mod shapecheck;
pub mod trainer;

pub use capsules::RoutingTelemetry;
pub use config::{BikeCapConfig, Encoder, DecoderKind, Variant};
pub use model::{BikeCap, ExecMode, TrainOptions, TrainReport};
pub use bikecap_verify::VerifyMode;
pub use trainer::{ResilientOptions, ResilientReport, TrainerError};
pub use shapecheck::{
    check_config, check_config_with, Axis, Extents, LayerShape, ShapeError, ShapeErrorKind,
    ShapePlan, StrideOverrides,
};
