//! The assembled BikeCAP model: training and prediction.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bikecap_autograd::{ParamStore, Tape, Var};
use bikecap_city_sim::{ForecastDataset, Split};
use bikecap_ir::{
    Arena, CompileOptions, CpuExecutor, Executor, Graph, IrError, ModelPlan, QuantExecutor,
};
use bikecap_nn::serialize::{
    read_quant_params, save_params_with_meta, save_quant_params, CheckpointMeta, LoadParamsError,
};
use bikecap_nn::{clip_grad_norm, Adam};
use bikecap_quant::{quantize_pairs, QuantEntry, QuantFormat, QuantSet};
use bikecap_tensor::Tensor;
use bikecap_verify::VerifyMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::capsules::{HistoricalCapsules, RoutingTelemetry, SpatialTemporalRouting};
use crate::config::BikeCapConfig;
use crate::decoder::Decoder;
use crate::shapecheck::ShapeError;

/// Training hyper-parameters.
///
/// Defaults mirror the paper's Sec. IV-C (Adam, lr 1e-3, batch 32, L1 loss)
/// with epoch/batch budgets scaled to a single CPU; `max_batches_per_epoch`
/// subsamples the training windows per epoch so full sweeps stay tractable.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOptions {
    /// Number of passes over (sampled) training windows.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Optional cap on minibatches per epoch (None = full epoch).
    pub max_batches_per_epoch: Option<usize>,
    /// Optional global gradient-norm clip.
    pub clip_norm: Option<f32>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 10,
            batch_size: 16,
            learning_rate: 1e-3,
            max_batches_per_epoch: Some(16),
            clip_norm: Some(5.0),
        }
    }
}

impl TrainOptions {
    /// A very small budget for unit tests.
    pub fn smoke() -> Self {
        TrainOptions {
            epochs: 2,
            batch_size: 4,
            max_batches_per_epoch: Some(2),
            ..Self::default()
        }
    }
}

/// What a training run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch (normalised L1).
    pub epoch_losses: Vec<f32>,
    /// Wall-clock seconds spent in [`BikeCap::fit`].
    pub seconds: f64,
}

impl TrainReport {
    /// Final epoch's mean loss, or `None` when the run had zero epochs.
    pub fn final_loss(&self) -> Option<f32> {
        self.epoch_losses.last().copied()
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock (the protected
/// caches stay structurally valid even if a panicking thread held them).
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Which inference engine [`BikeCap::predict`] routes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Lower the forward pass into `bikecap-ir` once per input shape and
    /// run the compiled, arena-planned schedule (the default). Falls back
    /// to eager on any compilation or execution error.
    Compiled,
    /// Walk an autograd tape on every call — the reference oracle. Selected
    /// by `BIKECAP_EXECUTOR=eager`.
    Eager,
}

impl ExecMode {
    /// Reads `BIKECAP_EXECUTOR` once at model-build time.
    fn from_env() -> ExecMode {
        match std::env::var("BIKECAP_EXECUTOR") {
            Ok(v) if v.eq_ignore_ascii_case("eager") => ExecMode::Eager,
            _ => ExecMode::Compiled,
        }
    }

    /// The stable name used in status endpoints and logs.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Compiled => "compiled",
            ExecMode::Eager => "eager",
        }
    }
}

/// Per-model compiled-execution state: one plan per staged input shape
/// (batch sizes compile independently), plus pooled arenas so steady-state
/// prediction reuses buffers instead of allocating.
///
/// A `None` plan entry records a failed compilation — the model stays on
/// the eager path for that shape without retrying (and without re-paying
/// the probe pass).
struct ExecState {
    mode: ExecMode,
    fusion: bool,
    /// Plan-build-time verification (`BIKECAP_VERIFY`): in `strict` a plan
    /// with a proven invariant violation is rejected (the shape stays on
    /// the eager oracle); in `warn` violations only surface as
    /// `ir.verify.*` obs events.
    verify: VerifyMode,
    plans: Mutex<HashMap<Vec<usize>, Option<Arc<ModelPlan>>>>,
    arenas: Mutex<HashMap<Vec<usize>, Vec<Arena>>>,
}

impl ExecState {
    fn new() -> ExecState {
        let fusion = !std::env::var("BIKECAP_FUSION")
            .map(|v| v.eq_ignore_ascii_case("off"))
            .unwrap_or(false);
        ExecState {
            mode: ExecMode::from_env(),
            fusion,
            verify: VerifyMode::from_env(),
            plans: Mutex::new(HashMap::new()),
            arenas: Mutex::new(HashMap::new()),
        }
    }
}

impl fmt::Debug for ExecState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let plans = self
            .plans
            .lock()
            .map(|p| p.len())
            .unwrap_or_else(|e| e.into_inner().len());
        write!(
            f,
            "ExecState {{ mode: {:?}, fusion: {}, verify: {}, plans: {plans} }}",
            self.mode,
            self.fusion,
            self.verify.name()
        )
    }
}

/// The BikeCAP network (paper Fig. 4): historical capsules → spatial-temporal
/// routing → 3-D decoder.
#[derive(Debug)]
pub struct BikeCap {
    config: BikeCapConfig,
    store: ParamStore,
    encoder: HistoricalCapsules,
    routing: SpatialTemporalRouting,
    decoder: Decoder,
    exec: ExecState,
    /// Quantized-kernel dispatch table, present after loading a v4
    /// checkpoint. The store always keeps dequantized f32 shadows (plan
    /// compilation, re-saving and ineligible steps read those); this table
    /// only reroutes matmul/conv forward kernels — identically on the eager
    /// and compiled paths, so the bitwise eager ≡ compiled contract holds
    /// on quantized models too.
    quant: Option<Arc<QuantSet>>,
}

impl BikeCap {
    /// Builds the model with freshly initialised parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`BikeCapConfig::validate`]).
    pub fn new<R: Rng + ?Sized>(config: BikeCapConfig, rng: &mut R) -> Self {
        match Self::build(config, rng) {
            Ok(model) => model,
            Err(e) => panic!("invalid BikeCAP configuration: {e}"),
        }
    }

    /// Builds the model with freshly initialised parameters, first running
    /// the full static shape-contract check
    /// ([`BikeCapConfig::check_shapes`]) over the configuration.
    ///
    /// # Errors
    ///
    /// Returns the typed [`ShapeError`] of the first violated contract;
    /// no parameters are allocated in that case.
    pub fn build<R: Rng + ?Sized>(
        config: BikeCapConfig,
        rng: &mut R,
    ) -> Result<Self, ShapeError> {
        config.check_shapes()?;
        let mut store = ParamStore::new();
        let encoder = HistoricalCapsules::new(&config, &mut store, rng);
        let routing = SpatialTemporalRouting::new(&config, &mut store, rng);
        let decoder = Decoder::new(&config, &mut store, rng);
        Ok(BikeCap {
            config,
            store,
            encoder,
            routing,
            decoder,
            exec: ExecState::new(),
            quant: None,
        })
    }

    /// Builds the model from a deterministic seed — convenient for callers
    /// (like the serving registry) that immediately overwrite the fresh
    /// initialisation with checkpoint weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`BikeCapConfig::validate`]).
    pub fn seeded(config: BikeCapConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::new(config, &mut rng)
    }

    /// Fallible counterpart of [`BikeCap::seeded`].
    ///
    /// # Errors
    ///
    /// Returns the typed [`ShapeError`] of the first violated contract.
    pub fn build_seeded(config: BikeCapConfig, seed: u64) -> Result<Self, ShapeError> {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::build(config, &mut rng)
    }

    /// The model's configuration.
    pub fn config(&self) -> &BikeCapConfig {
        &self.config
    }

    /// The metadata stamped onto checkpoints saved from this model.
    pub fn checkpoint_meta(&self) -> CheckpointMeta {
        CheckpointMeta {
            config_hash: self.config.content_hash(),
            grid: (self.config.grid_height, self.config.grid_width),
            history: self.config.history,
            horizon: self.config.horizon,
        }
    }

    /// Saves all weights to `path` as a v2 checkpoint annotated with this
    /// model's [`CheckpointMeta`], so loaders can verify compatibility.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn save_checkpoint(&self, path: impl AsRef<Path>) -> io::Result<()> {
        save_params_with_meta(&self.store, &self.checkpoint_meta(), path)
    }

    /// Loads a checkpoint saved by [`BikeCap::save_checkpoint`] or
    /// [`BikeCap::save_quantized_checkpoint`] into this model, first
    /// verifying its metadata against this model's configuration.
    ///
    /// Quantized (v4) checkpoints populate the store with dequantized f32
    /// shadows *and* register every Q8_0 entry for quantized kernel
    /// dispatch; loading a plain f32 checkpoint clears any previous
    /// quantization, so a model always reflects the last checkpoint loaded.
    ///
    /// # Errors
    ///
    /// Returns [`LoadParamsError::ConfigMismatch`] when the checkpoint was
    /// saved from a differently-configured model (detected before any weight
    /// is modified), or the usual parse/shape/dequantization errors.
    pub fn load_checkpoint(&mut self, path: impl AsRef<Path>) -> Result<(), LoadParamsError> {
        let meta = self.checkpoint_meta();
        let (found, entries) = read_quant_params(path)?;
        if let Some(found) = found {
            if found != meta {
                return Err(LoadParamsError::ConfigMismatch {
                    expected: meta,
                    found,
                });
            }
        }
        // Resolve every entry to its parameter and dequantize it before any
        // store write, so a bad checkpoint leaves the model untouched.
        let mut staged = Vec::with_capacity(entries.len());
        let mut set = QuantSet::new();
        for (name, entry) in &entries {
            let id = self
                .store
                .iter()
                .find(|(_, n, _)| n == name)
                .map(|(id, _, _)| id)
                .ok_or_else(|| {
                    LoadParamsError::Mismatch(format!("store has no parameter named '{name}'"))
                })?;
            if self.store.value(id).shape() != entry.shape() {
                return Err(LoadParamsError::Mismatch(format!(
                    "parameter '{name}': file shape {:?} vs store shape {:?}",
                    entry.shape(),
                    self.store.value(id).shape()
                )));
            }
            let shadow = entry.dequantize().map_err(|e| LoadParamsError::Dequant {
                name: name.clone(),
                message: e.to_string(),
            })?;
            match entry {
                QuantEntry::Q8(q) => set.insert_q8(id, q.clone()),
                QuantEntry::F16(_) => set.note_f16(),
                QuantEntry::F32(_) => {}
            }
            staged.push((id, shadow));
        }
        for (id, shadow) in staged {
            self.store.set_value(id, shadow);
        }
        self.quant = (set.q8_params() > 0 || set.f16_params() > 0).then(|| Arc::new(set));
        Ok(())
    }

    /// Quantizes the current weights under `format` and writes them as a v4
    /// checkpoint carrying this model's [`CheckpointMeta`]. The in-memory
    /// model is left untouched — load the written file to serve quantized.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn save_quantized_checkpoint(
        &self,
        path: impl AsRef<Path>,
        format: QuantFormat,
    ) -> io::Result<()> {
        let pairs: Vec<(String, Tensor)> = self
            .store
            .iter()
            .map(|(_, name, value)| (name.to_string(), value.clone()))
            .collect();
        let entries = quantize_pairs(&pairs, format);
        save_quant_params(&entries, Some(&self.checkpoint_meta()), path)
    }

    /// The numeric precision this model serves at: `"f32"` until a
    /// quantized checkpoint is loaded, then the loaded set's label
    /// (`"q8_0"`, `"f16"`, or `"q8_0+f16"`). Reported per model by
    /// `/healthz`.
    pub fn precision(&self) -> &'static str {
        match &self.quant {
            Some(set) => set.precision(),
            None => "f32",
        }
    }

    /// Total learnable scalars (the paper reports 646,395 at its city scale).
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// The parameter store (for weight serialisation).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store (for weight loading).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// The differentiable forward pass: `(B, F, h, H, W)` → `(B, p, H, W)`.
    ///
    /// When the configuration disables subway input (`BikeCap-Sub`), the
    /// upstream channels are dropped here so callers can always pass the full
    /// feature tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        self.forward_with(tape, x, None)
    }

    /// [`BikeCap::forward`], also collecting the routing stage's
    /// convergence statistics into `telemetry` when one is passed.
    fn forward_with(
        &self,
        tape: &mut Tape,
        x: Var,
        telemetry: Option<&mut RoutingTelemetry>,
    ) -> Var {
        let _span = bikecap_obs::span("core.forward");
        let xs = tape.value(x).shape().to_vec();
        assert_eq!(xs.len(), 5, "BikeCap expects (B, F, h, H, W), got {xs:?}");
        let x = if self.config.use_subway {
            x
        } else {
            // Keep only the two bike channels (pick-ups, drop-offs).
            tape.narrow(x, 1, 0, 2)
        };
        let caps = self.encoder.forward(tape, x, &self.store);
        let future = self.routing.forward_with(tape, caps, &self.store, telemetry);
        self.decoder.forward(tape, future, &self.store)
    }

    /// Predicts demand for a batch of input windows (no gradient bookkeeping
    /// kept by the caller): `(B, F, h, H, W)` → `(B, p, H, W)`, in the
    /// normalised domain.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn predict(&self, input: &Tensor) -> Tensor {
        let out = self.infer(Self::stage_input(input));
        Self::unstage_output(input, out)
    }

    /// [`BikeCap::predict`] plus the routing telemetry of the pass: the
    /// per-iteration coupling entropy and agreement updates that
    /// `core.routing.iterN.*` obs events carry, returned whether or not obs
    /// is enabled. Always runs the eager tape (with the quantized overlay
    /// when one is loaded), whose output is bitwise identical to the
    /// compiled executor's.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn predict_with_telemetry(&self, input: &Tensor) -> (Tensor, RoutingTelemetry) {
        let mut telemetry = RoutingTelemetry::default();
        let out = self.infer_eager(Self::stage_input(input), Some(&mut telemetry));
        (Self::unstage_output(input, out), telemetry)
    }

    /// Undoes [`BikeCap::stage_input`] on the output: a rank-4 window's
    /// `(1, p, H, W)` result loses its batch axis.
    fn unstage_output(input: &Tensor, out: Tensor) -> Tensor {
        if input.ndim() == 4 {
            Self::drop_batch_axis(&out)
        } else {
            out
        }
    }

    /// Reshapes a rank-4 window `(F, h, H, W)` into a batch of one; passes
    /// rank-5 batches through unchanged.
    ///
    /// # Panics
    ///
    /// Panics on any other rank (the documented contract of
    /// [`BikeCap::predict`] / [`BikeCap::predict_batch`]).
    fn stage_input(t: &Tensor) -> Tensor {
        match t.ndim() {
            4 => {
                let mut s = vec![1];
                s.extend_from_slice(t.shape());
                t.reshape(&s)
            }
            5 => t.clone(),
            n => panic!("predict_batch expects rank-4 or rank-5 inputs, got rank {n}"),
        }
    }

    /// One non-differentiating forward pass over a staged rank-5 batch:
    /// the compiled executor when available, the eager tape otherwise.
    fn infer(&self, stacked: Tensor) -> Tensor {
        if let Some(out) = self.infer_compiled(&stacked) {
            return out;
        }
        self.infer_eager(stacked, None)
    }

    /// The eager oracle: walks a fresh autograd tape. Kept callable under
    /// any [`ExecMode`] — it is the reference the compiled path must match
    /// bitwise, and the fallback when compilation or execution errors.
    fn infer_eager(&self, stacked: Tensor, telemetry: Option<&mut RoutingTelemetry>) -> Tensor {
        let mut tape = Tape::new();
        if let Some(set) = &self.quant {
            tape.set_overlay(set.clone());
        }
        let x = tape.constant(stacked);
        let y = self.forward_with(&mut tape, x, telemetry);
        tape.value(y).clone()
    }

    /// Runs the compiled plan for `stacked`'s shape, compiling on first
    /// sight. `None` means "use the eager path" (mode is eager, this shape
    /// failed to compile, or a failpoint fired mid-execution).
    fn infer_compiled(&self, stacked: &Tensor) -> Option<Tensor> {
        if self.exec.mode != ExecMode::Compiled {
            return None;
        }
        let plan = self.plan_for(stacked.shape())?;
        let mut out = vec![0.0f32; plan.output_len()];
        match self.run_plan(&plan, stacked.shape(), stacked.as_slice(), &mut out) {
            Ok(()) => Some(Tensor::from_vec(out, plan.out_shape())),
            Err(_) => {
                bikecap_obs::value("ir.exec.fallback", 1.0);
                None
            }
        }
    }

    /// Executes `plan` over a pooled arena. Zero steady-state heap
    /// allocations: the arena is reused, the plan is cached, and every
    /// dispatch decision was baked at compile time.
    fn run_plan(
        &self,
        plan: &ModelPlan,
        shape: &[usize],
        input: &[f32],
        out: &mut [f32],
    ) -> Result<(), IrError> {
        let mut arena = {
            let mut pool = lock_clean(&self.exec.arenas);
            match pool.get_mut(shape).and_then(Vec::pop) {
                Some(existing) if existing.fits(plan) => existing,
                _ => Arena::for_plan(plan),
            }
        };
        let result = match &self.quant {
            Some(set) => {
                QuantExecutor::new(set.clone()).execute(plan, &self.store, input, &mut arena, out)
            }
            None => CpuExecutor.execute(plan, &self.store, input, &mut arena, out),
        };
        let mut pool = lock_clean(&self.exec.arenas);
        match pool.get_mut(shape) {
            Some(slot) => slot.push(arena),
            None => {
                pool.insert(shape.to_vec(), vec![arena]);
            }
        }
        result
    }

    /// The cached plan for a staged input shape, compiling (once) on a
    /// miss. Failed compilations are cached as `None` so the model settles
    /// on the eager path without re-probing every call.
    fn plan_for(&self, shape: &[usize]) -> Option<Arc<ModelPlan>> {
        {
            let plans = lock_clean(&self.exec.plans);
            if let Some(entry) = plans.get(shape) {
                return entry.clone();
            }
        }
        let compiled = self.compile_plan(shape);
        if compiled.is_none() {
            bikecap_obs::value("ir.compile.fallback", 1.0);
        }
        lock_clean(&self.exec.plans).insert(shape.to_vec(), compiled.clone());
        compiled
    }

    /// Probes the forward pass once on a traced tape with a zero input of
    /// `shape`, lowers it, compiles it, and cross-validates the compiled
    /// output shape against the configuration's static shape contract
    /// ([`BikeCapConfig::check_shapes`]).
    fn compile_plan(&self, shape: &[usize]) -> Option<Arc<ModelPlan>> {
        if shape.len() != 5 {
            return None;
        }
        let mut tape = Tape::traced();
        let x = tape.constant(Tensor::zeros(shape));
        let y = self.forward(&mut tape, x);
        let graph = Graph::from_tape(&tape, x, y).ok()?;
        let opts = CompileOptions {
            fusion: self.exec.fusion,
        };
        let plan = ModelPlan::compile(graph, &opts).ok()?;
        let contract = self.config.check_shapes().ok()?;
        let want = contract.output();
        let expect = [shape[0], want.time, want.height, want.width];
        if want.channels != 1 || plan.out_shape() != expect {
            return None;
        }
        if self.exec.verify != VerifyMode::Off {
            let report = bikecap_verify::verify_plan(&plan);
            if !report.is_clean() && self.exec.verify == VerifyMode::Strict {
                // A proven invariant violation: refuse the plan and keep
                // this shape on the eager oracle.
                return None;
            }
        }
        Some(Arc::new(plan))
    }

    /// The inference engine this model resolved at build time (from
    /// `BIKECAP_EXECUTOR`).
    pub fn exec_mode(&self) -> ExecMode {
        self.exec.mode
    }

    /// Overrides the inference engine — used by tests and benches that
    /// compare both paths in one process without racing on environment
    /// variables.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec.mode = mode;
    }

    /// The plan-verification mode this model resolved at build time (from
    /// `BIKECAP_VERIFY`); reported by `/healthz` next to the executor.
    pub fn verify_mode(&self) -> VerifyMode {
        self.exec.verify
    }

    /// Overrides the plan-verification mode — used by tests and benches
    /// that measure verification overhead in one process without racing on
    /// environment variables.
    pub fn set_verify_mode(&mut self, mode: VerifyMode) {
        self.exec.verify = mode;
    }

    /// Compiles (without caching) the plan for a staged batch of
    /// `batch` windows, honouring the active [`VerifyMode`]. `None` when
    /// the forward pass fails to lower, compile, or (in strict mode)
    /// verify — exactly the cases where `predict` would run eagerly.
    ///
    /// This is the entry point for offline plan auditing
    /// (`bikecap-check verify-plans`) and plan-build benchmarks; the
    /// prediction paths keep using the per-shape cache.
    pub fn compile_fresh_plan(&self, batch: usize) -> Option<Arc<ModelPlan>> {
        let shape = [
            batch,
            self.config.input_features(),
            self.config.history,
            self.config.grid_height,
            self.config.grid_width,
        ];
        self.compile_plan(&shape)
    }

    /// Predicts into a caller-provided buffer without allocating on the
    /// steady-state compiled path: after the first call of a given input
    /// shape (which compiles the plan and builds its arena), subsequent
    /// calls perform **zero** heap allocations end to end.
    ///
    /// `out` must hold exactly `B * p * H * W` scalars (`p * H * W` for a
    /// rank-4 single window), laid out as the corresponding
    /// [`BikeCap::predict`] result.
    ///
    /// # Errors
    ///
    /// [`IrError::Exec`] when `out` has the wrong length, [`IrError::Shape`]
    /// on inputs of rank other than 4 or 5. Compilation or execution
    /// failures fall back to the (allocating) eager oracle rather than
    /// erroring.
    pub fn predict_into(&self, input: &Tensor, out: &mut [f32]) -> Result<(), IrError> {
        // Stage the shape only — rank-4 data is bit-identical to its
        // rank-5 staging, so the raw slice feeds the executor directly.
        let staged: [usize; 5] = match input.shape() {
            &[c, d, h, w] => [1, c, d, h, w],
            &[b, c, d, h, w] => [b, c, d, h, w],
            s => {
                return Err(IrError::Shape(format!(
                    "predict_into expects rank-4 or rank-5 inputs, got rank {}",
                    s.len()
                )))
            }
        };
        if self.exec.mode == ExecMode::Compiled {
            if let Some(plan) = self.plan_for(&staged) {
                if out.len() != plan.output_len() {
                    return Err(IrError::Exec(format!(
                        "output buffer has {} scalars, model produces {}",
                        out.len(),
                        plan.output_len()
                    )));
                }
                if self
                    .run_plan(&plan, &staged, input.as_slice(), out)
                    .is_ok()
                {
                    return Ok(());
                }
                bikecap_obs::value("ir.exec.fallback", 1.0);
            }
        }
        let eager = self.infer_eager(Self::stage_input(input), None);
        if out.len() != eager.as_slice().len() {
            return Err(IrError::Exec(format!(
                "output buffer has {} scalars, model produces {}",
                out.len(),
                eager.as_slice().len()
            )));
        }
        out.copy_from_slice(eager.as_slice());
        Ok(())
    }

    /// Drops the leading batch axis: `(1, p, H, W)` → `(p, H, W)`.
    fn drop_batch_axis(t: &Tensor) -> Tensor {
        let mut s = t.shape().to_vec();
        s.remove(0);
        t.reshape(&s)
    }

    /// Predicts demand for several independent requests in **one** forward
    /// pass: the inputs are stacked along the batch axis, run through the
    /// network together, and split back so `out[i]` corresponds to
    /// `inputs[i]`. This is what lets a serving layer amortise the cost of a
    /// forward pass across queued requests (micro-batching).
    ///
    /// Each input may be a single window `(F, h, H, W)` — its output is then
    /// `(p, H, W)` — or an already-batched `(B_i, F, h, H, W)` producing
    /// `(B_i, p, H, W)`. Per-request results are bitwise identical to calling
    /// [`BikeCap::predict`] on each input alone: every layer treats the batch
    /// axis as an outer loop, so stacking never changes arithmetic order
    /// within a sample.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or inputs of rank other than 4 or 5.
    pub fn predict_batch(&self, inputs: &[Tensor]) -> Vec<Tensor> {
        let staged: Vec<Tensor> = inputs.iter().map(Self::stage_input).collect();
        let stacked = match staged.as_slice() {
            [] => return Vec::new(),
            [only] => only.clone(),
            many => {
                let refs: Vec<&Tensor> = many.iter().collect();
                Tensor::concat(&refs, 0)
            }
        };
        let out = self.infer(stacked);
        let mut results = Vec::with_capacity(inputs.len());
        let mut offset = 0;
        for (input, piece) in inputs.iter().zip(&staged) {
            // Staging guarantees rank 5, so a leading batch extent exists.
            let rows = piece.shape().first().copied().unwrap_or(1);
            let slice = out.narrow(0, offset, rows);
            offset += rows;
            results.push(Self::unstage_output(input, slice));
        }
        results
    }

    /// Trains on the dataset's training split with Adam + L1 loss (paper
    /// Sec. IV-C), returning per-epoch losses.
    pub fn fit<R: Rng + ?Sized>(
        &mut self,
        dataset: &ForecastDataset,
        opts: &TrainOptions,
        rng: &mut R,
    ) -> TrainReport {
        assert_eq!(
            dataset.horizon(),
            self.config.horizon,
            "dataset horizon {} does not match model horizon {}",
            dataset.horizon(),
            self.config.horizon
        );
        let start = Instant::now();
        let mut opt = Adam::new(opts.learning_rate);
        let mut epoch_losses = Vec::with_capacity(opts.epochs);
        for _epoch in 0..opts.epochs {
            epoch_losses.push(self.run_epoch(dataset, opts, &mut opt, rng));
        }
        TrainReport {
            epoch_losses,
            seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// Runs exactly one training epoch (shuffle, minibatch, backprop, Adam
    /// step), returning the mean minibatch loss — `NaN` when the split is
    /// empty. This is the unit [`BikeCap::fit`] iterates and the resilient
    /// trainer (`fit_resilient`) wraps with snapshotting and rollback; an
    /// epoch's arithmetic depends only on the model/optimizer state and the
    /// RNG handed in, which is what makes replay-after-resume exact.
    pub fn run_epoch<R: Rng + ?Sized>(
        &mut self,
        dataset: &ForecastDataset,
        opts: &TrainOptions,
        opt: &mut Adam,
        rng: &mut R,
    ) -> f32 {
        let _epoch_span = bikecap_obs::span("train.epoch");
        let epoch_start = Instant::now();
        let anchors = dataset.shuffled_anchors(Split::Train, rng);
        let mut total = 0.0f32;
        let mut batches = 0usize;
        let mut examples = 0usize;
        for chunk in anchors.chunks(opts.batch_size) {
            if let Some(cap) = opts.max_batches_per_epoch {
                if batches >= cap {
                    break;
                }
            }
            let _step_span = bikecap_obs::span("train.step");
            let batch = dataset.batch(chunk);
            self.store.zero_grads();
            let mut tape = Tape::new();
            let x = tape.constant(batch.input);
            let t = tape.constant(batch.target);
            let pred = self.forward(&mut tape, x);
            if bikecap_obs::enabled() {
                tape.mark("core.loss");
            }
            let loss = tape.l1_loss(pred, t);
            let step_loss = tape.value(loss).item();
            total += step_loss;
            tape.backward(loss, &mut self.store);
            if bikecap_obs::enabled() {
                bikecap_obs::value("train.step.loss", f64::from(step_loss));
                bikecap_obs::value("train.step.grad_norm", self.grad_norm());
            }
            if let Some(max) = opts.clip_norm {
                clip_grad_norm(&mut self.store, max);
            }
            opt.step(&mut self.store);
            batches += 1;
            examples += chunk.len();
        }
        if bikecap_obs::enabled() && batches > 0 {
            bikecap_obs::value("train.epoch.loss", f64::from(total / batches as f32));
            let secs = epoch_start.elapsed().as_secs_f64();
            if secs > 0.0 {
                bikecap_obs::value("train.epoch.examples_per_sec", examples as f64 / secs);
            }
        }
        if batches > 0 { total / batches as f32 } else { f32::NAN }
    }

    /// Global L2 norm over every parameter's current gradient (telemetry;
    /// computed only when observability is enabled).
    fn grad_norm(&self) -> f64 {
        let mut sum_sq = 0.0f64;
        for (id, _, _) in self.store.iter() {
            for &g in self.store.grad(id).as_slice() {
                sum_sq += f64::from(g) * f64::from(g);
            }
        }
        sum_sq.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use bikecap_city_sim::{
        aggregate::DemandSeries,
        generate::{SimConfig, Simulator},
        layout::CityLayout,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_dataset(horizon: usize) -> ForecastDataset {
        let mut rng = StdRng::seed_from_u64(5);
        let mut config = SimConfig::small();
        config.days = 4;
        let layout = CityLayout::generate(&config, &mut rng);
        let trips = Simulator::new(config, layout).run(&mut rng);
        let series = DemandSeries::from_trips(&trips, 15);
        ForecastDataset::new(&series, 8, horizon)
    }

    fn tiny_model(horizon: usize, variant: Variant) -> BikeCap {
        let mut rng = StdRng::seed_from_u64(7);
        let config = BikeCapConfig::new(6, 6)
            .history(8)
            .horizon(horizon)
            .pyramid_size(2)
            .capsule_dim(3)
            .out_capsule_dim(3)
            .decoder_channels(4)
            .variant(variant);
        BikeCap::new(config, &mut rng)
    }

    #[test]
    fn forward_shapes_full_model() {
        let model = tiny_model(3, Variant::Full);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 4, 8, 6, 6]));
        let y = model.forward(&mut tape, x);
        assert_eq!(tape.value(y).shape(), &[2, 3, 6, 6]);
    }

    #[test]
    fn all_variants_forward() {
        for v in Variant::all() {
            let model = tiny_model(2, v);
            let mut tape = Tape::new();
            let x = tape.constant(Tensor::ones(&[1, 4, 8, 6, 6]));
            let y = model.forward(&mut tape, x);
            assert_eq!(tape.value(y).shape(), &[1, 2, 6, 6], "{}", v.name());
            assert!(tape.value(y).all_finite());
        }
    }

    #[test]
    fn predict_is_deterministic() {
        let model = tiny_model(2, Variant::Full);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_uniform(&[1, 4, 8, 6, 6], 0.0, 1.0, &mut rng);
        let a = model.predict(&x);
        let b = model.predict(&x);
        bikecap_tensor::assert_close(&a, &b, 0.0);
    }

    #[test]
    fn no_subway_variant_ignores_subway_channels() {
        let model = tiny_model(2, Variant::NoSubway);
        let mut rng = StdRng::seed_from_u64(2);
        let base = Tensor::rand_uniform(&[1, 4, 8, 6, 6], 0.0, 1.0, &mut rng);
        let mut perturbed = base.clone();
        // Scramble only the subway channels (2 and 3).
        for d in 0..8 {
            for r in 0..6 {
                for c in 0..6 {
                    perturbed.set(&[0, 2, d, r, c], 0.9);
                    perturbed.set(&[0, 3, d, r, c], 0.1);
                }
            }
        }
        bikecap_tensor::assert_close(&model.predict(&base), &model.predict(&perturbed), 0.0);
        // The full model must react to the same perturbation.
        let full = tiny_model(2, Variant::Full);
        let d = full
            .predict(&base)
            .sub(&full.predict(&perturbed))
            .abs()
            .sum();
        assert!(d > 0.0);
    }

    #[test]
    fn predict_batch_matches_individual_predict_bitwise() {
        let model = tiny_model(2, Variant::Full);
        let mut rng = StdRng::seed_from_u64(11);
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::rand_uniform(&[1, 4, 8, 6, 6], 0.0, 1.0, &mut rng))
            .collect();
        let batched = model.predict_batch(&inputs);
        assert_eq!(batched.len(), inputs.len());
        for (x, y) in inputs.iter().zip(&batched) {
            let solo = model.predict(x);
            assert_eq!(solo.shape(), y.shape());
            assert_eq!(solo.as_slice(), y.as_slice(), "batched != solo");
        }
    }

    #[test]
    fn predict_batch_handles_single_windows_and_batches() {
        let model = tiny_model(2, Variant::Full);
        let mut rng = StdRng::seed_from_u64(12);
        let window = Tensor::rand_uniform(&[4, 8, 6, 6], 0.0, 1.0, &mut rng);
        let pair = Tensor::rand_uniform(&[2, 4, 8, 6, 6], 0.0, 1.0, &mut rng);
        let out = model.predict_batch(&[window.clone(), pair.clone()]);
        assert_eq!(out[0].shape(), &[2, 6, 6]);
        assert_eq!(out[1].shape(), &[2, 2, 6, 6]);
        // The rank-4 window behaves exactly like a batch of one.
        let mut s5 = vec![1];
        s5.extend_from_slice(window.shape());
        let solo = model.predict(&window.reshape(&s5));
        assert_eq!(solo.narrow(0, 0, 1).as_slice(), out[0].as_slice());
        assert!(model.predict_batch(&[]).is_empty());
    }

    #[test]
    fn checkpoint_roundtrip_and_config_mismatch() {
        let model = tiny_model(2, Variant::Full);
        let path = std::env::temp_dir().join(format!(
            "bikecap-core-ckpt-{}.txt",
            std::process::id()
        ));
        model.save_checkpoint(&path).unwrap();

        // Same config, different seed: loads and reproduces predictions.
        let mut rng = StdRng::seed_from_u64(77);
        let mut restored = BikeCap::seeded(model.config().clone(), 123);
        restored.load_checkpoint(&path).unwrap();
        let x = Tensor::rand_uniform(&[1, 4, 8, 6, 6], 0.0, 1.0, &mut rng);
        assert_eq!(model.predict(&x).as_slice(), restored.predict(&x).as_slice());

        // Different architecture: typed ConfigMismatch, not a shape error.
        let mut other = BikeCap::seeded(model.config().clone().capsule_dim(5), 1);
        let err = other.load_checkpoint(&path).unwrap_err();
        assert!(
            matches!(err, LoadParamsError::ConfigMismatch { .. }),
            "expected ConfigMismatch, got {err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fit_reduces_training_loss() {
        let ds = tiny_dataset(2);
        let mut model = tiny_model(2, Variant::Full);
        let mut rng = StdRng::seed_from_u64(3);
        let opts = TrainOptions {
            epochs: 6,
            batch_size: 8,
            max_batches_per_epoch: Some(6),
            ..TrainOptions::default()
        };
        let report = model.fit(&ds, &opts, &mut rng);
        assert_eq!(report.epoch_losses.len(), 6);
        // Epoch means on a tiny capped dataset are noisy, so compare the
        // best loss reached after the first epoch against the first epoch
        // rather than the raw first-vs-last pair.
        let first = report.epoch_losses[0];
        let best_later = report.epoch_losses[1..]
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        assert!(
            best_later < first,
            "training should improve on the first epoch: first {first}, best later {best_later}"
        );
        let last = report.final_loss().expect("six epochs ran");
        assert!(last.is_finite());
        assert!(report.seconds > 0.0);
    }

    #[test]
    fn fit_beats_predicting_zero() {
        // After brief training, normalised L1 should be below the loss of a
        // zero predictor (i.e. mean |target|).
        let ds = tiny_dataset(2);
        let mut model = tiny_model(2, Variant::Full);
        let mut rng = StdRng::seed_from_u64(4);
        let opts = TrainOptions {
            epochs: 20,
            batch_size: 8,
            max_batches_per_epoch: Some(12),
            ..TrainOptions::default()
        };
        let report = model.fit(&ds, &opts, &mut rng);
        let anchors = ds.anchors(Split::Val);
        let batch = ds.batch(&anchors[..8.min(anchors.len())]);
        let zero_loss = batch.target.abs().mean();
        let pred = model.predict(&batch.input);
        let model_loss = pred.sub(&batch.target).abs().mean();
        assert!(
            model_loss < zero_loss,
            "trained model ({model_loss}) should beat zero predictor ({zero_loss}); train loss trace {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn parameter_count_positive_and_grows_with_capsule_dim() {
        let small = tiny_model(2, Variant::Full);
        let mut rng = StdRng::seed_from_u64(8);
        let big = BikeCap::new(
            BikeCapConfig::new(6, 6)
                .history(8)
                .horizon(2)
                .pyramid_size(2)
                .capsule_dim(8)
                .out_capsule_dim(8),
            &mut rng,
        );
        assert!(small.num_parameters() > 0);
        assert!(big.num_parameters() > small.num_parameters());
    }

    #[test]
    #[should_panic(expected = "does not match model horizon")]
    fn fit_rejects_horizon_mismatch() {
        let ds = tiny_dataset(3);
        let mut model = tiny_model(2, Variant::Full);
        let mut rng = StdRng::seed_from_u64(9);
        let _ = model.fit(&ds, &TrainOptions::smoke(), &mut rng);
    }
}
