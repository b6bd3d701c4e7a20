//! Neural-network layers, optimizers and training utilities for the BikeCAP
//! reproduction.
//!
//! Everything here composes the [`bikecap_autograd::Tape`]: a layer registers
//! its parameters in a [`bikecap_autograd::ParamStore`] at construction and
//! exposes a `forward(&self, tape, input) -> Var` method. One forward pass =
//! one tape.
//!
//! The layer zoo covers what the paper and its seven baselines need:
//!
//! * [`Dense`] — fully connected.
//! * [`Conv2d`], [`Conv3d`], [`ConvTranspose3d`] — convolutions with bias.
//! * [`PyramidConv3d`] — the paper's pyramid convolution (Sec. III-C): a
//!   causal 3-D kernel whose spatial support widens with temporal lag, run
//!   by `Tape::pyramid_conv`, which reads only the active taps of the dense
//!   weight.
//! * [`LstmCell`], [`ConvLstmCell`] — recurrent cells (LSTM / convLSTM
//!   baselines).
//! * [`StLstmCell`] — PredRNN's spatio-temporal LSTM cell.
//! * [`CausalLstmCell`], [`GradientHighwayUnit`] — PredRNN++'s cell pair.
//! * [`ChebConv`] — Chebyshev graph convolution (STGCN / STSGCN baselines),
//!   with graph utilities in [`graph`].
//! * [`Adam`], [`Sgd`] — optimizers, plus [`clip_grad_norm`].
//!
//! ```
//! use bikecap_autograd::{ParamStore, Tape};
//! use bikecap_nn::Dense;
//! use bikecap_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut store = ParamStore::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let layer = Dense::new(&mut store, "fc", 4, 2, &mut rng);
//!
//! let mut tape = Tape::new();
//! let x = tape.constant(Tensor::ones(&[3, 4]));
//! let y = layer.forward(&mut tape, x, &store);
//! assert_eq!(tape.value(y).shape(), &[3, 2]);
//! ```

mod conv_layers;
pub mod graph;
mod init;
mod linear;
mod optim;
mod rnn;
pub mod serialize;
mod spatiotemporal;

pub use conv_layers::{Conv2d, Conv3d, ConvTranspose3d, PyramidConv3d};
pub use graph::ChebConv;
pub use init::{glorot_uniform, he_uniform};
pub use linear::Dense;
pub use optim::{clip_grad_norm, Adam, Sgd};
pub use rnn::{ConvLstmCell, LstmCell};
pub use spatiotemporal::{CausalLstmCell, GradientHighwayUnit, StLstmCell};
