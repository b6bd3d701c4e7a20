//! `bikecap` — a small CLI over the library: simulate a city, train the
//! model, forecast demand, and serve predictions over HTTP.
//!
//! ```text
//! bikecap simulate --days 10 --seed 1 --out-dir ./data
//! bikecap train    --days 10 --seed 1 --horizon 4 --epochs 20 --weights model.txt
//! bikecap forecast --days 10 --seed 1 --horizon 4 --weights model.txt
//! bikecap train    --days 10 --epochs 20 --save model.ckpt
//! bikecap serve    --checkpoint model.ckpt --addr 127.0.0.1:7878
//! ```
//!
//! `simulate` writes the record streams as CSV (Tables I/II schema); `train`
//! fits BikeCAP on the simulated month and saves weights; `forecast` reloads
//! them and prints the multi-step demand forecast for the last test window.
//!
//! The train → serve round trip: `train --save` writes a versioned checkpoint
//! whose header records the architecture (config hash, grid, history,
//! horizon); `serve --checkpoint` reads that header back, rebuilds the model,
//! and answers `POST /predict` with dynamically micro-batched forward passes.
//! A checkpoint from a different architecture is refused with a typed config
//! mismatch instead of garbage predictions.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use bikecap::eval::{evaluate, BikeCapForecaster};
use bikecap::faults::{self, FaultPlan};
use bikecap::model::{BikeCap, BikeCapConfig, ResilientOptions, TrainOptions};
use bikecap::nn::serialize::{
    clean_stale_tmp, load_params, read_meta, read_params, save_params, save_quant_params,
};
use bikecap::quant::{quantize_pairs, QuantEntry, QuantFormat};
use bikecap::serve::{
    compute_threads_per_worker, signal::install_shutdown_flag, BatchConfig, ModelRegistry,
    ServeConfig, Server, DEFAULT_MODEL,
};
use bikecap::sim::{
    aggregate::DemandSeries,
    generate::{SimConfig, Simulator, TripData},
    io::{write_bike_csv, write_subway_csv},
    layout::CityLayout,
    ForecastDataset, Split,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn usage() -> &'static str {
    "usage: bikecap <simulate|train|forecast|serve|quantize|profile|live|check-config> [--days N] [--seed N] \
     [--horizon N] [--epochs N] [--weights FILE] [--out-dir DIR] [--save FILE] \
     [--resume] [--autosave-every N] \
     [--checkpoint FILE] [--addr HOST:PORT] [--workers N] [--max-batch N] [--max-wait-ms N] \
     [--queue-cap N] [--bind-retries N] [--faults SPEC] [--fault-seed N] \
     [--steps N] [--trace FILE] [--threads N] \
     [--in FILE] [--out FILE] [--format q8_0|f16]\n\
     round trip: `bikecap train --save model.ckpt && bikecap serve --checkpoint model.ckpt`\n\
     quantize a trained checkpoint: `bikecap quantize --in model.ckpt --out model.q8` \
     (then `bikecap serve --checkpoint model.q8`; gate accuracy first with \
     `bikecap-check quant-eval`)\n\
     resume an interrupted run: `bikecap train --save model.ckpt --resume`\n\
     profile N train steps: `bikecap profile --steps 10 --trace trace.json` (open the \
     trace in chrome://tracing or Perfetto)\n\
     `--trace FILE` on train/serve records spans too: `.jsonl` streams events, any \
     other extension writes a Chrome trace on exit\n\
     `--faults 'io.checkpoint.write=p:0.3'` arms seeded failpoints (needs the \
     `faultline` build feature)\n\
     `--threads N` sizes the bikecap-rt compute pool (0 = auto; overrides \
     BIKECAP_THREADS); under `serve` it is the TOTAL budget split across the \
     --workers batch workers\n\
     `bikecap live --days 4 --epochs 3` runs the live-city adaptation demo: \
     train an incumbent, stream a weather-shocked city through the drift \
     detector, fine-tune and hot-swap on confirmed drift\n\
     `bikecap check-config --help` lists the shape-checker's own flags"
}

struct Args {
    days: u32,
    seed: u64,
    horizon: usize,
    epochs: usize,
    weights: PathBuf,
    out_dir: PathBuf,
    save: Option<PathBuf>,
    resume: bool,
    autosave_every: usize,
    checkpoint: Option<PathBuf>,
    addr: String,
    workers: usize,
    max_batch: usize,
    max_wait_ms: u64,
    queue_cap: usize,
    bind_retries: u32,
    faults: Option<String>,
    fault_seed: u64,
    steps: usize,
    trace: Option<PathBuf>,
    threads: Option<usize>,
    input: Option<PathBuf>,
    out: Option<PathBuf>,
    format: String,
}

/// Flags that are plain switches: present means true, they never consume the
/// next argument.
const BOOL_FLAGS: &[&str] = &["resume"];

fn parse_flags(rest: &[String]) -> Result<Args, String> {
    let mut map: HashMap<String, String> = HashMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument '{flag}'"));
        };
        if BOOL_FLAGS.contains(&name) {
            map.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} requires a value"))?;
        map.insert(name.to_string(), value.clone());
    }
    let get = |k: &str, d: &str| map.get(k).cloned().unwrap_or_else(|| d.to_string());
    Ok(Args {
        days: get("days", "10").parse().map_err(|_| "invalid --days".to_string())?,
        seed: get("seed", "1").parse().map_err(|_| "invalid --seed".to_string())?,
        horizon: get("horizon", "4").parse().map_err(|_| "invalid --horizon".to_string())?,
        epochs: get("epochs", "15").parse().map_err(|_| "invalid --epochs".to_string())?,
        weights: PathBuf::from(get("weights", "bikecap-weights.txt")),
        out_dir: PathBuf::from(get("out-dir", ".")),
        save: map.get("save").map(PathBuf::from),
        resume: map.contains_key("resume"),
        autosave_every: get("autosave-every", "1")
            .parse()
            .map_err(|_| "invalid --autosave-every".to_string())?,
        checkpoint: map.get("checkpoint").map(PathBuf::from),
        addr: get("addr", "127.0.0.1:7878"),
        workers: get("workers", "2").parse().map_err(|_| "invalid --workers".to_string())?,
        max_batch: get("max-batch", "16").parse().map_err(|_| "invalid --max-batch".to_string())?,
        max_wait_ms: get("max-wait-ms", &BatchConfig::default().max_wait.as_millis().to_string())
            .parse()
            .map_err(|_| "invalid --max-wait-ms".to_string())?,
        queue_cap: get("queue-cap", "256").parse().map_err(|_| "invalid --queue-cap".to_string())?,
        bind_retries: get("bind-retries", "3")
            .parse()
            .map_err(|_| "invalid --bind-retries".to_string())?,
        faults: map.get("faults").cloned(),
        fault_seed: get("fault-seed", "0")
            .parse()
            .map_err(|_| "invalid --fault-seed".to_string())?,
        steps: get("steps", "10").parse().map_err(|_| "invalid --steps".to_string())?,
        trace: map.get("trace").map(PathBuf::from),
        threads: map
            .get("threads")
            .map(|v| v.parse().map_err(|_| "invalid --threads".to_string()))
            .transpose()?,
        input: map.get("in").map(PathBuf::from),
        out: map.get("out").map(PathBuf::from),
        format: get("format", "q8_0"),
    })
}

/// Deletes torn `*.tmp` siblings a killed process left next to `path`, so a
/// crashed save never masquerades as a checkpoint. Best-effort: an unreadable
/// directory only means nothing to clean.
fn clean_checkpoint_dir(path: &std::path::Path) {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    if let Ok(removed) = clean_stale_tmp(&dir) {
        for tmp in removed {
            eprintln!("removed stale checkpoint temp file {}", tmp.display());
        }
    }
}

fn simulate_city(args: &Args) -> TripData {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut config = SimConfig::paper_scale();
    config.days = args.days;
    let layout = CityLayout::generate(&config, &mut rng);
    Simulator::new(config, layout).run(&mut rng)
}

fn build_dataset(trips: &TripData, horizon: usize) -> ForecastDataset {
    let series = DemandSeries::from_trips(trips, 15);
    ForecastDataset::new(&series, 8, horizon)
}

fn model_for(trips: &TripData, horizon: usize, seed: u64) -> BikeCap {
    let mut rng = StdRng::seed_from_u64(seed);
    BikeCap::new(
        BikeCapConfig::new(trips.layout.height, trips.layout.width)
            .history(8)
            .horizon(horizon),
        &mut rng,
    )
}

/// What `finish_trace` still owes the user once the traced run ends: for
/// Chrome-trace mode the buffered events and their destination, for JSONL
/// mode nothing (events already streamed to disk).
enum TraceMode {
    Chrome(Arc<bikecap::obs::MemorySink>, PathBuf),
    Jsonl(PathBuf),
}

/// Installs the span sink `--trace FILE` asked for: `.jsonl` streams events
/// as they happen; any other extension buffers in memory and writes a
/// Chrome `trace_event` file when the run ends.
fn start_trace(path: &std::path::Path) -> Result<TraceMode, String> {
    if path.extension().is_some_and(|e| e == "jsonl") {
        let sink = bikecap::obs::JsonlSink::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        bikecap::obs::install(Arc::new(sink));
        Ok(TraceMode::Jsonl(path.to_path_buf()))
    } else {
        let sink = Arc::new(bikecap::obs::MemorySink::new(1 << 20));
        bikecap::obs::install(sink.clone());
        Ok(TraceMode::Chrome(sink, path.to_path_buf()))
    }
}

/// Flushes/exports the trace started by [`start_trace`] and reports where
/// it went. Returns the captured events for further reporting (Chrome mode
/// only; JSONL mode returns an empty vec — the file already has them).
fn finish_trace(mode: TraceMode) -> Result<Vec<bikecap::obs::Event>, String> {
    bikecap::obs::clear();
    match mode {
        TraceMode::Jsonl(path) => {
            println!("trace: events streamed to {} (JSONL)", path.display());
            Ok(Vec::new())
        }
        TraceMode::Chrome(sink, path) => {
            let events = sink.snapshot();
            bikecap::obs::chrome::write_chrome_trace(&path, &events)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!(
                "trace: {} events -> {} (open in chrome://tracing or Perfetto)",
                events.len(),
                path.display()
            );
            Ok(events)
        }
    }
}

/// `bikecap profile`: run `--steps` forward/backward training steps on a
/// simulated dataset with span recording on, write a Chrome trace, and
/// print the per-layer cost table.
fn cmd_profile(args: &Args) -> Result<(), String> {
    let trace_path = args
        .trace
        .clone()
        .unwrap_or_else(|| PathBuf::from("bikecap-trace.json"));
    let sink = Arc::new(bikecap::obs::MemorySink::new(1 << 20));
    bikecap::obs::install(sink.clone());

    let trips = simulate_city(args);
    let dataset = build_dataset(&trips, args.horizon);
    let mut model = model_for(&trips, args.horizon, args.seed);
    println!(
        "profiling {} forward/backward steps on a {}x{} grid ({} parameters)…",
        args.steps,
        trips.layout.height,
        trips.layout.width,
        model.num_parameters()
    );
    let options = TrainOptions {
        epochs: 1,
        batch_size: 4,
        max_batches_per_epoch: Some(args.steps.max(1)),
        learning_rate: 3e-3,
        ..TrainOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xbeef);
    let report = model.fit(&dataset, &options, &mut rng);

    let events = finish_trace(TraceMode::Chrome(sink, trace_path))?;
    let rows = bikecap::obs::cost_table(&events);
    print!("{}", bikecap::obs::render_cost_table(&rows));
    let roofline = bikecap::obs::Roofline::from_env();
    let perf = bikecap::obs::roofline_table(&events, &roofline);
    print!("{}", bikecap::obs::render_roofline_table(&perf, &roofline));
    println!(
        "profiled {} step(s) in {:.2}s, final loss {:.4}",
        args.steps,
        report.seconds,
        report.final_loss().unwrap_or(f32::NAN)
    );
    Ok(())
}

/// `bikecap quantize`: rewrite a trained f32 checkpoint as a format-v4 file
/// with conv/matmul weights in Q8_0 blocks (or f16), leaving biases and
/// other quantization-sensitive tensors at full precision. The output is a
/// drop-in `--checkpoint` for `serve`/`forecast`; run `bikecap-check
/// quant-eval` to confirm the accuracy gate before deploying it.
fn cmd_quantize(args: &Args) -> Result<(), String> {
    let input = args
        .input
        .as_deref()
        .ok_or("quantize requires --in FILE (a trained checkpoint)")?;
    let out = args
        .out
        .as_deref()
        .ok_or("quantize requires --out FILE (the quantized checkpoint)")?;
    let format = QuantFormat::parse(&args.format)
        .ok_or_else(|| format!("invalid --format '{}' (expected q8_0 or f16)", args.format))?;
    let (meta, pairs) = read_params(input).map_err(|e| format!("{}: {e}", input.display()))?;
    let entries = quantize_pairs(&pairs, format);
    let (mut q8, mut f16, mut f32_kept) = (0usize, 0usize, 0usize);
    for (_, entry) in &entries {
        match entry {
            QuantEntry::Q8(_) => q8 += 1,
            QuantEntry::F16(_) => f16 += 1,
            QuantEntry::F32(_) => f32_kept += 1,
        }
    }
    save_quant_params(&entries, meta.as_ref(), out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let size = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let (in_bytes, out_bytes) = (size(input), size(out));
    println!(
        "quantized {} -> {} ({}): {} q8_0 + {} f16 + {} f32 tensors, {} -> {} bytes ({:.0}%)",
        input.display(),
        out.display(),
        format.name(),
        q8,
        f16,
        f32_kept,
        in_bytes,
        out_bytes,
        100.0 * out_bytes as f64 / in_bytes.max(1) as f64
    );
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let trips = simulate_city(args);
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let subway = args.out_dir.join("subway.csv");
    let bike = args.out_dir.join("bike.csv");
    write_subway_csv(&trips.subway, &subway).map_err(|e| e.to_string())?;
    write_bike_csv(&trips.bike, &bike).map_err(|e| e.to_string())?;
    println!(
        "simulated {} days: {} subway trips -> {}, {} bike trips -> {}",
        args.days,
        trips.subway_trips(),
        subway.display(),
        trips.bike_trips(),
        bike.display()
    );
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let trace = args.trace.as_deref().map(start_trace).transpose()?;
    let trips = simulate_city(args);
    let dataset = build_dataset(&trips, args.horizon);
    let mut model = model_for(&trips, args.horizon, args.seed);
    println!(
        "training BikeCAP ({} parameters) for {} epochs…",
        model.num_parameters(),
        args.epochs
    );
    let options = TrainOptions {
        epochs: args.epochs,
        batch_size: 16,
        max_batches_per_epoch: Some(24),
        learning_rate: 3e-3,
        ..TrainOptions::default()
    };
    let report = if args.save.is_some() || args.resume {
        // Fault-tolerant path: autosave after every Nth epoch, resume from
        // the last autosave, divergence guard with rollback.
        let checkpoint = args.save.clone().ok_or_else(|| {
            "--resume needs --save FILE (the checkpoint to resume from)".to_string()
        })?;
        clean_checkpoint_dir(&checkpoint);
        let resilient = ResilientOptions {
            train: options.clone(),
            seed: args.seed ^ 0xbeef,
            checkpoint: Some(checkpoint),
            autosave_every: args.autosave_every.max(1),
            resume: args.resume,
            ..ResilientOptions::default()
        };
        let run = model.fit_resilient(&dataset, &resilient).map_err(|e| e.to_string())?;
        if let Some(epoch) = run.resumed_at {
            println!("resumed from epoch {epoch}");
        }
        if run.rollbacks > 0 {
            println!(
                "divergence guard rolled back {} epoch(s); final learning rate {:.2e}",
                run.rollbacks, run.final_lr
            );
        }
        run.report
    } else {
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0xbeef);
        model.fit(&dataset, &options, &mut rng)
    };
    println!(
        "trained in {:.1}s, loss {:.4} -> {:.4}",
        report.seconds,
        report.epoch_losses.first().copied().unwrap_or(f32::NAN),
        report.final_loss().unwrap_or(f32::NAN)
    );
    let fc = BikeCapForecaster::new(model, options);
    let m = evaluate(&fc, &dataset, Some(48));
    println!("test MAE {:.3}, RMSE {:.3} (bikes per cell per 15 min)", m.mae, m.rmse);
    save_params(fc.model().store(), &args.weights).map_err(|e| e.to_string())?;
    println!("weights saved to {}", args.weights.display());
    if let Some(path) = &args.save {
        fc.model().save_checkpoint(path).map_err(|e| e.to_string())?;
        println!(
            "checkpoint (weights + config metadata) saved to {0} — serve it with \
             `bikecap serve --checkpoint {0}`",
            path.display()
        );
    }
    if let Some(mode) = trace {
        finish_trace(mode)?;
    }
    Ok(())
}

fn cmd_forecast(args: &Args) -> Result<(), String> {
    let trips = simulate_city(args);
    let dataset = build_dataset(&trips, args.horizon);
    let mut model = model_for(&trips, args.horizon, args.seed);
    load_params(model.store_mut(), &args.weights).map_err(|e| e.to_string())?;

    let anchors = dataset.anchors(Split::Test);
    let anchor = *anchors.last().ok_or("no test windows")?;
    let batch = dataset.batch(&[anchor]);
    let forecast = dataset.denormalize_target(&model.predict(&batch.input));
    let truth = dataset.denormalize_target(&batch.target);
    println!(
        "forecast from the last test window ({}x{} grid):",
        trips.layout.height, trips.layout.width
    );
    for step in 0..args.horizon {
        let f: f32 = forecast.narrow(1, step, 1).sum();
        let t: f32 = truth.narrow(1, step, 1).sum();
        println!("  +{:>3} min: {:>7.1} bikes forecast (actual {:>7.1})", (step + 1) * 15, f, t);
    }
    // The busiest forecast cell at the last step.
    let last = forecast.narrow(1, args.horizon - 1, 1);
    let (mut best, mut best_val) = ((0, 0), f32::NEG_INFINITY);
    for r in 0..trips.layout.height {
        for c in 0..trips.layout.width {
            let v = last.get(&[0, 0, r, c]);
            if v > best_val {
                best_val = v;
                best = (r, c);
            }
        }
    }
    println!(
        "hot spot at +{} min: cell ({}, {}) with {:.1} bikes",
        args.horizon * 15,
        best.0,
        best.1,
        best_val
    );
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let trace = args.trace.as_deref().map(start_trace).transpose()?;
    let path = args.checkpoint.clone().ok_or_else(|| {
        format!(
            "serve requires --checkpoint FILE (write one with `bikecap train --save FILE`)\n{}",
            usage()
        )
    })?;
    // A crash during a previous save may have left torn temp files next to
    // the checkpoint; remove them before trusting the directory.
    clean_checkpoint_dir(&path);
    // The v2 checkpoint header records the architecture, so the server can
    // rebuild the exact model the checkpoint was trained with.
    let meta = read_meta(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?
        .ok_or_else(|| {
            format!(
                "{} has no config metadata (legacy v1 file?) — re-save it with \
                 `bikecap train --save`",
                path.display()
            )
        })?;
    let config = BikeCapConfig::new(meta.grid.0, meta.grid.1)
        .history(meta.history)
        .horizon(meta.horizon);
    let registry = Arc::new(ModelRegistry::new());
    registry
        .load_checkpoint(DEFAULT_MODEL, config, &path)
        .map_err(|e| e.to_string())?;

    // One knob for the whole process: `--threads` (already applied to the
    // global pool in `main`) is the TOTAL compute budget, split evenly across
    // the batch workers so `workers × compute_threads` never oversubscribes.
    let total_threads = bikecap::rt::threads().max(1);
    let serve_config = ServeConfig {
        addr: args.addr.clone(),
        bind_retries: args.bind_retries,
        batch: BatchConfig {
            queue_cap: args.queue_cap,
            max_batch: args.max_batch,
            max_wait: Duration::from_millis(args.max_wait_ms),
            workers: args.workers,
            total_threads: Some(total_threads),
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start(serve_config, registry).map_err(|e| e.to_string())?;
    println!(
        "serving {} on http://{} ({} workers, batches of up to {}, linger {} ms)",
        path.display(),
        server.local_addr(),
        args.workers,
        args.max_batch,
        args.max_wait_ms
    );
    println!(
        "  thread budget: {} total = {} workers × {} compute threads each",
        total_threads,
        args.workers,
        compute_threads_per_worker(total_threads, args.workers)
    );
    println!(
        "  POST /predict  body {{\"input\":{{\"shape\":[4,{},{},{}],\"data\":[…]}}}}",
        meta.history, meta.grid.0, meta.grid.1
    );
    println!("  GET  /healthz | GET /metrics | POST /admin/reload");
    println!("ctrl-c or SIGTERM drains in-flight batches and exits");
    server.run_until(install_shutdown_flag());
    println!("drained and stopped");
    if let Some(mode) = trace {
        finish_trace(mode)?;
    }
    Ok(())
}

/// `bikecap live`: the live-city adaptation demo. Trains an incumbent on a
/// quiet city, registers it in a serving slot, then replays a record stream
/// whose second half carries a weather shock. The live loop aggregates the
/// stream into a rolling window, watches prediction error plus routing
/// telemetry, and on confirmed drift fine-tunes, shadow-evaluates and — if
/// the candidate wins — hot-swaps through the registry's reload path.
fn cmd_live(args: &Args) -> Result<(), String> {
    use bikecap::live::{AdaptOutcome, LiveConfig, LiveLoop, RecordStream};
    use bikecap::sim::scenario::{Scenario, WeatherShock};

    let history = 8usize;
    // Phase 1: baseline month, incumbent training.
    let trips = simulate_city(args);
    let dataset = build_dataset(&trips, args.horizon);
    let mut model = model_for(&trips, args.horizon, args.seed);
    println!(
        "training the incumbent ({} parameters) for {} epochs…",
        model.num_parameters(),
        args.epochs
    );
    let options = TrainOptions {
        epochs: args.epochs,
        batch_size: 16,
        max_batches_per_epoch: Some(24),
        learning_rate: 3e-3,
        ..TrainOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xbeef);
    let report = model.fit(&dataset, &options, &mut rng);
    println!(
        "incumbent ready: loss {:.4} -> {:.4}",
        report.epoch_losses.first().copied().unwrap_or(f32::NAN),
        report.final_loss().unwrap_or(f32::NAN)
    );

    // Phase 2: register it as the serving model.
    let registry = ModelRegistry::new();
    let entry = registry.insert(DEFAULT_MODEL, model);
    let metrics = Arc::new(bikecap::serve::Metrics::new());

    // Phase 3: a fresh live stream from the same city config whose final
    // day carries a weather shock — the regime shift to detect and absorb.
    // The first day feeds the detector's diurnal baseline, so the shock
    // must start after it.
    let mut live_sim = SimConfig::paper_scale();
    live_sim.days = args.days.max(3);
    let shock_start = f64::from(live_sim.days - 1) * 1440.0;
    live_sim.scenario = Scenario {
        weather_shock: Some(WeatherShock {
            start_min: shock_start,
            end_min: f64::from(live_sim.total_minutes()),
            demand_factor: 2.5,
        }),
        ..Scenario::none()
    };
    let mut live_rng = StdRng::seed_from_u64(args.seed.wrapping_add(101));
    let live_layout = CityLayout::generate(&live_sim, &mut live_rng);
    let live_trips = Simulator::new(live_sim.clone(), live_layout).run(&mut live_rng);
    println!(
        "live stream: {} days, weather shock (2.5x) from minute {:.0}",
        live_sim.days, shock_start
    );

    let work_dir = args.out_dir.join("live-work");
    let live_config = LiveConfig::new(
        history,
        args.horizon,
        dataset.normalizer().clone(),
        work_dir,
    );
    let mut live = LiveLoop::new(
        Arc::clone(&entry),
        live_config,
        Some(Arc::clone(&metrics)),
        None,
    )
    .map_err(|e| e.to_string())?;
    let report = live
        .run(
            RecordStream::new(&live_trips),
            f64::from(live_sim.total_minutes()),
        )
        .map_err(|e| e.to_string())?;

    println!(
        "ingested {} records ({} refused, {} slots sealed)",
        report.records, report.window_refusals, report.slots
    );
    for (slot, state) in &report.transitions {
        println!("  slot {slot:>4}: -> {}", state.as_str());
    }
    for outcome in &report.outcomes {
        match outcome {
            AdaptOutcome::Swapped {
                slot,
                incumbent_mae,
                candidate_mae,
            } => println!(
                "  slot {slot:>4}: HOT-SWAP (val MAE {candidate_mae:.4} beat \
                 {incumbent_mae:.4})"
            ),
            AdaptOutcome::Refused {
                slot,
                incumbent_mae,
                candidate_mae,
            } => println!(
                "  slot {slot:>4}: refused (candidate {candidate_mae:.4} vs incumbent \
                 {incumbent_mae:.4})"
            ),
            AdaptOutcome::RolledBack { slot, reason } => {
                println!("  slot {slot:>4}: rolled back ({reason})")
            }
        }
    }
    println!(
        "swaps {}, rollbacks {}, refusals {}; serving model version {} (report \
         fingerprint {:016x})",
        report.swaps,
        report.rollbacks,
        report.refusals,
        entry.swap_count(),
        report.fingerprint()
    );
    Ok(())
}

/// Static shape-contract check of one configuration (`bikecap check-config
/// --grid 8x8 --horizon 6 …`); shares its flag grammar with `bikecap-check`.
fn cmd_check_config(rest: &[String]) -> u8 {
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("bikecap check-config FLAGS:\n{}", bikecap::check::CHECK_CONFIG_FLAGS);
        return 0;
    }
    let (config, overrides) = match bikecap::check::config_from_flags(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("check-config: {e}\n\nFLAGS:\n{}", bikecap::check::CHECK_CONFIG_FLAGS);
            return 2;
        }
    };
    match bikecap::model::check_config_with(&config, &overrides) {
        Ok(plan) => {
            println!("check-config: input {}", plan.input);
            for layer in &plan.layers {
                println!("  {:24} -> {}", layer.layer, layer.output);
            }
            println!("check-config: ok");
            0
        }
        Err(e) => {
            eprintln!("check-config: {e}");
            1
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    // check-config has its own flag grammar (shared with bikecap-check); it
    // must not go through the train/serve flag parser.
    if cmd == "check-config" {
        return ExitCode::from(cmd_check_config(&argv[1..]));
    }
    let args = match parse_flags(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if let Some(n) = args.threads {
        // 0 = auto (BIKECAP_THREADS, else available parallelism). Applies to
        // every command; `serve` additionally treats it as the total budget
        // and re-splits it across batch workers.
        bikecap::rt::set_threads(n);
    }
    if let Some(spec) = &args.faults {
        let plan = match FaultPlan::parse(spec, args.fault_seed) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("invalid --faults spec: {e}");
                return ExitCode::FAILURE;
            }
        };
        if faults::ENABLED {
            eprintln!(
                "failpoints armed: {spec} (seed {}) — expect injected failures",
                args.fault_seed
            );
            faults::install(plan);
        } else {
            eprintln!(
                "warning: --faults ignored; this binary was built without the \
                 `faultline` feature (rebuild with `--features faultline`)"
            );
        }
    }
    let result = match cmd.as_str() {
        "simulate" => cmd_simulate(&args),
        "train" => cmd_train(&args),
        "forecast" => cmd_forecast(&args),
        "serve" => cmd_serve(&args),
        "profile" => cmd_profile(&args),
        "quantize" => cmd_quantize(&args),
        "live" => cmd_live(&args),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
