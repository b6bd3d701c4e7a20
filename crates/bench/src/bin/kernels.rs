//! Parallel-kernel microbenchmarks: times the `bikecap-rt`-backed hot paths
//! (matmul, conv3d, conv_transpose3d, the fused routing couple/agree steps,
//! full `BikeCap::predict` — eager *and* compiled-executor) across thread counts and writes a machine-readable
//! `BENCH_parallel.json` at the workspace root (op name, shape, threads,
//! ns/iter, speedup vs 1 thread, heap allocations per iteration).
//!
//! Timings are the **median of N samples** (3 quick / 5 full), each sample
//! itself averaging `iters` iterations, with the median absolute deviation
//! (`mad_ns`) recorded as the row's noise bound. The file is a schema-2
//! object carrying a machine fingerprint (os/arch/core-count/CPU model) so
//! `bikecap-check bench-compare` knows whether absolute nanoseconds from two
//! files are comparable at all; every run also appends its full record to an
//! append-only `BENCH_history.jsonl` (one JSON object per line) for
//! longitudinal tracking and CI artifacts. DESIGN.md Appendix I documents
//! the record schema and the regression rule.
//!
//! Every timed op is also checked bitwise against the serial backend at
//! every thread count — the deterministic-reduction contract means the
//! numbers in the JSON always describe *identical* outputs.
//!
//! Allocations are counted by a global counting allocator (this binary
//! only), so `allocs_per_iter` captures everything the op touches: the
//! eager path's per-node tensors versus the compiled path's arena reuse
//! (`predict_into` on the serial backend is the zero-alloc extreme, pinned
//! separately by tests/ir_zero_alloc.rs; here the parallel pool's per-fanout
//! job allocations are included and reported honestly).
//!
//! ```text
//! cargo run -p bikecap-bench --release --bin kernels -- [--quick|--full] [--out FILE]
//! ```
//!
//! `--out` overrides the JSON path (default `BENCH_parallel.json`) and
//! `--history` the history path (default `BENCH_history.jsonl`). Speedups
//! depend on the machine's core count: a single-core container reports ~1.0×
//! (the pool degrades to the serial fast path), which is recorded honestly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bikecap_bench::BenchArgs;
use bikecap_core::{BikeCap, BikeCapConfig, ExecMode, VerifyMode};
use bikecap_quant::{conv3d_q8, matmul_q8_into, Q8Tensor};
use bikecap_rt as rt;
use bikecap_tensor::conv::{conv3d, conv_transpose3d, Conv3dSpec};
use bikecap_tensor::exec::{
    plan_routing_agree, plan_routing_couple, routing_agree_into, routing_couple_into,
};
use bikecap_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Thread counts swept per op; 1 is the speedup baseline.
const THREAD_SWEEP: &[usize] = &[1, 2, 4];

/// Timing samples per (op, threads) cell — odd, so the median is an actual
/// sample and the MAD is exact rather than interpolated.
const SAMPLES_QUICK: usize = 3;
const SAMPLES_FULL: usize = 5;

/// Counts every heap allocation (and growth realloc) in the process so each
/// record can report `allocs_per_iter` alongside its timing.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Record {
    op: &'static str,
    shape: String,
    threads: usize,
    ns_per_iter: u128,
    /// Median absolute deviation of the per-sample ns/iter — the row's
    /// noise bound, consumed by `bikecap-check bench-compare`.
    mad_ns: u128,
    speedup: f64,
    allocs_per_iter: u64,
}

/// Median of a sorted odd-length slice and the MAD around it.
fn median_and_mad(sorted: &[u128]) -> (u128, u128) {
    let med = sorted[sorted.len() / 2];
    let mut dev: Vec<u128> = sorted.iter().map(|s| s.abs_diff(med)).collect();
    dev.sort_unstable();
    (med, dev[dev.len() / 2])
}

/// os-arch-cores plus the CPU model string (best effort): enough to tell
/// whether two bench files' absolute timings are comparable.
fn machine_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown-cpu".to_string());
    let cpu: String = cpu
        .chars()
        .map(|c| if c == '"' || c == '\\' { '_' } else { c })
        .collect();
    format!(
        "{}-{}-{}c {}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        cores,
        cpu
    )
}

/// Times `op` at every [`THREAD_SWEEP`] count and checks each output bitwise
/// against the serial backend.
fn bench_op(
    records: &mut Vec<Record>,
    op: &'static str,
    shape: String,
    iters: u32,
    samples: usize,
    run: impl Fn() -> Tensor,
) {
    rt::set_backend(rt::Backend::Serial);
    let reference = run();
    rt::set_backend(rt::Backend::Parallel);

    let mut baseline_ns = 0u128;
    for &threads in THREAD_SWEEP {
        rt::set_threads(threads);
        let out = run(); // warmup + determinism probe
        assert_bitwise_eq(op, threads, &reference, &out);
        // Pre-size the sample buffer so the sampling loop itself never
        // allocates into the counted window.
        let mut sample_ns: Vec<u128> = Vec::with_capacity(samples);
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(run());
            }
            sample_ns.push(start.elapsed().as_nanos() / u128::from(iters.max(1)));
        }
        let total_iters = u64::from(iters.max(1)) * samples.max(1) as u64;
        let allocs_per_iter =
            (ALLOCATIONS.load(Ordering::Relaxed) - allocs_before) / total_iters;
        sample_ns.sort_unstable();
        let (ns, mad) = median_and_mad(&sample_ns);
        if threads == 1 {
            baseline_ns = ns;
        }
        let speedup = baseline_ns as f64 / (ns as f64).max(1.0);
        eprintln!(
            "[kernels] {op:<18} {shape:<24} threads={threads} {ns:>12} ns/iter (±{mad})  {speedup:.2}x  {allocs_per_iter:>6} allocs/iter"
        );
        records.push(Record {
            op,
            shape: shape.clone(),
            threads,
            ns_per_iter: ns,
            mad_ns: mad,
            speedup,
            allocs_per_iter,
        });
    }
    rt::set_threads(0); // back to auto for the next op
}

fn assert_bitwise_eq(op: &str, threads: usize, a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "{op}: shape drift at {threads} threads");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{op}: output diverges from serial at {threads} threads (element {i}: {x} vs {y})"
        );
    }
}

/// Schema-2 bench file: a fingerprinted object wrapping the record rows.
/// `compact` renders the whole thing on one line (the history format).
fn render_json(records: &[Record], fingerprint: &str, mode: &str, samples: usize, compact: bool) -> String {
    let (nl, ind) = if compact { ("", "") } else { ("\n", "  ") };
    let mut s = String::new();
    let _ = write!(
        s,
        "{{{nl}{ind}\"schema\": 2,{nl}{ind}\"fingerprint\": \"{fingerprint}\",{nl}{ind}\"mode\": \"{mode}\",{nl}{ind}\"samples\": {samples},{nl}{ind}\"records\": [{nl}"
    );
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        let _ = write!(
            s,
            "{ind}{ind}{{\"op\": \"{}\", \"shape\": \"{}\", \"threads\": {}, \"ns_per_iter\": {}, \"mad_ns\": {}, \"speedup\": {:.3}, \"allocs_per_iter\": {}}}{sep}{nl}",
            r.op, r.shape, r.threads, r.ns_per_iter, r.mad_ns, r.speedup, r.allocs_per_iter
        );
    }
    let _ = write!(s, "{ind}]{nl}}}");
    if !compact {
        s.push('\n');
    }
    s
}

fn main() {
    let args = BenchArgs::parse();
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("BENCH_parallel.json"));
    let history = args
        .history
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_history.jsonl"));
    // (iters per sample) scaled by mode; full mode also takes more samples.
    let scale: u32 = if args.quick { 1 } else { 3 };
    let samples = if args.quick { SAMPLES_QUICK } else { SAMPLES_FULL };
    let mut rng = StdRng::seed_from_u64(7);
    let mut records = Vec::new();

    // The matmul core everything reduces to (ops.rs shape).
    let a = Tensor::randn(&[128, 256], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[256, 128], 0.0, 1.0, &mut rng);
    bench_op(&mut records, "matmul", "128x256 * 256x128".into(), 40 * scale, samples, || {
        a.matmul(&b)
    });

    // Encoder-shaped dense conv3d and its transpose (decoder upsampling).
    let x = Tensor::randn(&[16, 4, 8, 8, 8], 0.0, 1.0, &mut rng);
    let w = Tensor::randn(&[4, 4, 3, 3, 3], 0.0, 0.1, &mut rng);
    bench_op(&mut records, "conv3d", "16x4x8x8x8 k3x3x3".into(), 20 * scale, samples, || {
        conv3d(&x, &w, Conv3dSpec::padded(1, 1, 1))
    });
    bench_op(&mut records, "conv_transpose3d", "16x4x8x8x8 k3x3x3".into(), 20 * scale, samples, || {
        conv_transpose3d(&x, &w, Conv3dSpec::padded(1, 1, 1))
    });

    // Quantized counterparts of the two kernels above, same shapes: Q8_0
    // block weights, activations quantized per row inside the kernel. The
    // f32-vs-q8 ns gap is the memory-bandwidth payoff the roofline work
    // model predicts (weight traffic drops to 36/32 bytes per element).
    let bq = Q8Tensor::quantize_transposed(b.as_slice(), &[256, 128], 256, 128);
    bench_op(&mut records, "matmul_q8", "128x256 * 256x128".into(), 40 * scale, samples, || {
        let mut out = Tensor::zeros(&[128, 128]);
        matmul_q8_into(a.as_slice(), &bq, 128, 256, 128, out.as_mut_slice());
        out
    });
    let wq = Q8Tensor::quantize(w.as_slice(), &[4, 4, 3, 3, 3], 4, 4 * 27);
    bench_op(&mut records, "conv3d_q8", "16x4x8x8x8 k3x3x3".into(), 20 * scale, samples, || {
        let (data, shape) = conv3d_q8(x.as_slice(), x.shape(), &wq, Conv3dSpec::padded(1, 1, 1));
        Tensor::from_vec(data, &shape)
    });

    // One dynamic-routing iteration's fused kernels at the train workload's
    // routing shape (B=16, S=8, p=4, n=4, 8x8 grid): V in the transform
    // conv's natural (B, p*n, S, H, W) layout, coefficients (B, S, H, W, p).
    let v = Tensor::randn(&[16, 16, 8, 8, 8], 0.0, 0.3, &mut rng);
    let logits = Tensor::randn(&[16, 8, 8, 8, 4], 0.0, 1.0, &mut rng);
    let coeffs = logits.softmax_trailing(1);
    let couple = plan_routing_couple(v.shape(), coeffs.shape()).expect("routing shapes");
    let s_hat = Tensor::randn(&couple.capsules_shape(), 0.0, 0.3, &mut rng);
    let agree = plan_routing_agree(v.shape(), s_hat.shape(), logits.shape()).expect("routing shapes");
    let routing_shape = "B16 S8 p4 n4 8x8";
    bench_op(&mut records, "routing_couple", routing_shape.into(), 40 * scale, samples, || {
        let mut out = Tensor::zeros(&couple.capsules_shape());
        routing_couple_into(&couple, v.as_slice(), coeffs.as_slice(), out.as_mut_slice());
        out
    });
    bench_op(&mut records, "routing_agree", routing_shape.into(), 40 * scale, samples, || {
        let mut out = Tensor::zeros(&agree.logits_shape());
        routing_agree_into(
            &agree,
            v.as_slice(),
            s_hat.as_slice(),
            logits.as_slice(),
            out.as_mut_slice(),
        );
        out
    });

    // The full inference path: encoder → routing → decoder — once through
    // the eager tape walk, once through the compiled arena executor. The
    // allocs_per_iter gap between the two is the arena-reuse payoff.
    let cfg = BikeCapConfig::new(8, 8).history(8).horizon(4);
    let window = Tensor::rand_uniform(&[8, 4, 8, 8, 8], 0.0, 1.0, &mut rng);

    let mut eager = BikeCap::seeded(cfg.clone(), 11);
    eager.set_exec_mode(ExecMode::Eager);
    bench_op(&mut records, "predict_eager", "batch 8, 8x8 grid, h=8".into(), 2 * scale, samples, || {
        eager.predict(&window)
    });

    let mut compiled = BikeCap::seeded(cfg, 11);
    compiled.set_exec_mode(ExecMode::Compiled);
    compiled.predict(&window); // compile the plan outside the timed window
    bench_op(&mut records, "predict_compiled", "batch 8, 8x8 grid, h=8".into(), 2 * scale, samples, || {
        compiled.predict(&window)
    });


    // Plan-build latency with the verifier off vs strict. The strict
    // record's `speedup` is off_ns / strict_ns — the acceptance bar for
    // `BIKECAP_VERIFY=strict` is < 10% overhead, i.e. a ratio above ~0.9.
    let mut builder = BikeCap::seeded(BikeCapConfig::new(8, 8).history(8).horizon(4), 11);
    let plan_iters = 10 * scale;
    let mut off_ns = 0u128;
    for (mode, op) in [
        (VerifyMode::Off, "plan_build_verify_off"),
        (VerifyMode::Strict, "plan_build_verify_strict"),
    ] {
        builder.set_verify_mode(mode);
        black_box(builder.compile_fresh_plan(8)).expect("plan compiles"); // warmup
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let start = Instant::now();
        for _ in 0..plan_iters {
            black_box(builder.compile_fresh_plan(8));
        }
        let ns = start.elapsed().as_nanos() / u128::from(plan_iters.max(1));
        let allocs_per_iter = (ALLOCATIONS.load(Ordering::Relaxed) - allocs_before)
            / u64::from(plan_iters.max(1));
        let speedup = if mode == VerifyMode::Off {
            off_ns = ns;
            1.0
        } else {
            off_ns as f64 / (ns as f64).max(1.0)
        };
        eprintln!(
            "[kernels] {op:<24} batch 8, 8x8 grid, h=8   {ns:>12} ns/iter  {speedup:.2}x  {allocs_per_iter:>6} allocs/iter"
        );
        records.push(Record {
            op,
            shape: "batch 8, 8x8 grid, h=8".into(),
            threads: 1,
            ns_per_iter: ns,
            // Single-sample row: the compare gate's relative noise band
            // covers it (plan builds are long enough to be stable).
            mad_ns: 0,
            speedup,
            allocs_per_iter,
        });
    }

    let fingerprint = machine_fingerprint();
    let json = render_json(&records, &fingerprint, args.mode(), samples, false);
    std::fs::write(&out, &json)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    // Append-only history: one compact record per run, never rewritten, so
    // the timeline of a machine's numbers survives across regenerations.
    let line = render_json(&records, &fingerprint, args.mode(), samples, true);
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history)
            .unwrap_or_else(|e| panic!("cannot open {}: {e}", history.display()));
        writeln!(f, "{line}").expect("append bench history");
    }
    println!(
        "wrote {} + history {} ({} records, {} mode, median of {} samples); all outputs bitwise-identical to serial",
        out.display(),
        history.display(),
        records.len(),
        args.mode(),
        samples
    );
}
