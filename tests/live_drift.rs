//! Live-city adaptation e2e: regime shift → drift detection → fine-tune →
//! shadow evaluation → hot-swap, and the rollback path when fine-tuning is
//! sabotaged — all seeded and bitwise-reproducible.
//!
//! Requires the `faultline` feature (`cargo test --features faultline
//! --test live_drift`); without it the failpoints are compiled out and this
//! file is empty. The sweep seed comes from `BIKECAP_CHAOS_SEED` (default
//! 0) so CI can sweep seeds without recompiling.
//!
//! Fault plans and the process-global obs sink are shared state, so every
//! test serialises on one mutex, exactly like `tests/chaos.rs`.
#![cfg(feature = "faultline")]

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use bikecap::faults::{self, FaultPlan};
use bikecap::live::{AdaptOutcome, DriftState, LiveConfig, LiveLoop, LiveReport, RecordStream};
use bikecap::model::{BikeCap, BikeCapConfig, TrainOptions};
use bikecap::serve::http::client_request;
use bikecap::serve::{ModelEntry, ModelRegistry, ServeConfig, Server, DEFAULT_MODEL};
use bikecap::sim::scenario::{Scenario, WeatherShock};
use bikecap::sim::{
    aggregate::DemandSeries,
    generate::{SimConfig, Simulator, TripData},
    layout::CityLayout,
    ForecastDataset, Normalizer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HISTORY: usize = 6;
const HORIZON: usize = 2;
/// The live stream's weather shock starts at day 2 (minute 2880): with
/// 15-minute slots that is slot 192. Day 0 feeds the detector's one-day
/// baseline; day 1 is ordinary traffic, so drift confirmed before this
/// slot would mean the detector fired on day-to-day noise.
const SHOCK_START_MIN: f64 = 2880.0;
const SHOCK_SLOT: usize = (SHOCK_START_MIN as usize) / 15;

/// The sweep seed for this process's fault schedules.
fn chaos_seed() -> u64 {
    std::env::var("BIKECAP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Held for a test's whole body: serialises on the process-global fault
/// plan and obs sink, and replays the obs ring to stderr if the test
/// panics. The live loop never touches the sink, so `ring` keeps recording
/// the loop's own `live.*` events while it runs.
struct ChaosGuard {
    ring: Arc<bikecap::obs::MemorySink>,
    _dump: bikecap::obs::PanicDump,
    _lock: MutexGuard<'static, ()>,
}

fn chaos_lock() -> ChaosGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    faults::clear();
    bikecap::obs::clear();
    let ring = Arc::new(bikecap::obs::MemorySink::new(4096));
    bikecap::obs::install(ring.clone());
    ChaosGuard {
        _dump: bikecap::obs::PanicDump::new(
            format!("live-drift seed {}", chaos_seed()),
            ring.clone(),
        ),
        ring,
        _lock: guard,
    }
}

/// Installs the fault schedule for this process's sweep seed.
fn arm(spec: &str) {
    faults::install(FaultPlan::parse(spec, chaos_seed()).expect("valid fault spec"));
}

/// Shared scene: one baseline city, one trained incumbent checkpoint, and
/// one weather-shocked live stream. Built once — every test replays the
/// same records against a fresh copy of the same incumbent, which is what
/// makes the run fingerprints comparable across tests and thread counts.
struct Scene {
    ckpt: PathBuf,
    model_config: BikeCapConfig,
    normalizer: Normalizer,
    live_trips: TripData,
    total_minutes: f64,
}

fn scene() -> &'static Scene {
    static SCENE: OnceLock<Scene> = OnceLock::new();
    SCENE.get_or_init(|| {
        // Baseline: a quiet small city; the incumbent learns its rhythm.
        let mut rng = StdRng::seed_from_u64(7);
        let config = SimConfig::small();
        let layout = CityLayout::generate(&config, &mut rng);
        let trips = Simulator::new(config.clone(), layout.clone()).run(&mut rng);
        let series = DemandSeries::from_trips(&trips, 15);
        let dataset = ForecastDataset::new(&series, HISTORY, HORIZON);

        let model_config = BikeCapConfig::new(series.height, series.width)
            .history(HISTORY)
            .horizon(HORIZON)
            .pyramid_size(2)
            .capsule_dim(4)
            .out_capsule_dim(4)
            .decoder_channels(4);
        let mut model = BikeCap::seeded(model_config.clone(), 7);
        let mut train_rng = StdRng::seed_from_u64(8);
        model.fit(&dataset, &TrainOptions::smoke(), &mut train_rng);

        let dir = std::env::temp_dir().join(format!(
            "bikecap-live-drift-{}-{}",
            std::process::id(),
            chaos_seed()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("incumbent.ckpt");
        model.save_checkpoint(&ckpt).unwrap();

        // Live stream: the SAME city and layout, fresh days, third day
        // under a 3x weather-driven demand surge. Days 0–1 differ from the
        // baseline only by trip-level noise, so any drift confirmed before
        // slot `SHOCK_SLOT` is a detector false positive.
        let mut live_sim = config;
        live_sim.days = 3;
        live_sim.scenario = Scenario {
            weather_shock: Some(WeatherShock {
                start_min: SHOCK_START_MIN,
                end_min: f64::from(live_sim.total_minutes()),
                demand_factor: 3.0,
            }),
            ..Scenario::none()
        };
        let total_minutes = f64::from(live_sim.total_minutes());
        let mut live_rng = StdRng::seed_from_u64(11);
        let live_trips = Simulator::new(live_sim, layout).run(&mut live_rng);

        Scene {
            ckpt,
            model_config,
            normalizer: dataset.normalizer().clone(),
            live_trips,
            total_minutes,
        }
    })
}

/// Replays the scene's live stream against a fresh copy of the incumbent
/// on `threads` worker threads. Returns the run report and the serving
/// entry (to inspect its swap count afterwards).
fn run_live(tag: &str, threads: usize) -> (LiveReport, Arc<ModelEntry>, Arc<ModelRegistry>) {
    let scene = scene();
    bikecap::rt::set_threads(threads);

    let mut model = BikeCap::build_seeded(scene.model_config.clone(), 0).unwrap();
    model.load_checkpoint(&scene.ckpt).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    let entry = registry.insert(DEFAULT_MODEL, model);

    let work_dir = std::env::temp_dir().join(format!(
        "bikecap-live-drift-run-{tag}-{threads}-{}-{}",
        std::process::id(),
        chaos_seed()
    ));
    std::fs::remove_dir_all(&work_dir).ok();
    let config = LiveConfig::new(HISTORY, HORIZON, scene.normalizer.clone(), work_dir);
    let mut live = LiveLoop::new(Arc::clone(&entry), config, None, None).unwrap();
    let report = live
        .run(RecordStream::new(&scene.live_trips), scene.total_minutes)
        .unwrap();
    bikecap::rt::set_threads(0);
    (report, entry, registry)
}

/// Slots at which the detector confirmed drift.
fn drifted_slots(report: &LiveReport) -> Vec<usize> {
    report
        .transitions
        .iter()
        .filter(|(_, s)| *s == DriftState::Drifted)
        .map(|(slot, _)| *slot)
        .collect()
}

/// The weather shock — and only the weather shock — drives the loop all
/// the way through detect → fine-tune → shadow-eval → hot-swap, and the
/// new model version is visible on the serving surface via `/healthz`.
#[test]
fn weather_shock_drives_hot_swap_visible_in_healthz() {
    let guard = chaos_lock();
    let (report, entry, registry) = run_live("swap", 1);
    bikecap::obs::clear();

    // The sink installed before the loop started is still the one
    // recording: the loop's per-slot spans reached it.
    let slot_events = guard
        .ring
        .snapshot()
        .iter()
        .filter(|e| e.name == "live.slot")
        .count();
    assert!(
        slot_events > 0,
        "the live loop must leave the installed obs sink in place; \
         the ring holds no `live.slot` events"
    );

    let drifted = drifted_slots(&report);
    assert!(
        !drifted.is_empty(),
        "the 3x weather shock must confirm drift; transitions: {:?}",
        report.transitions
    );
    assert!(
        drifted.iter().all(|&slot| slot >= SHOCK_SLOT),
        "drift confirmed before the shock at slot {SHOCK_SLOT} is a false \
         positive on day-to-day noise: {drifted:?}"
    );
    assert!(
        report.swaps >= 1,
        "a model fine-tuned on shocked data must win the shadow eval and be \
         swapped in; outcomes: {:?}",
        report.outcomes
    );
    assert_eq!(
        entry.swap_count(),
        report.swaps,
        "every reported swap must have gone through the serving entry"
    );

    // The swap must be observable exactly where an operator would look:
    // the `versions` map on `/healthz`.
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap();
    let (status, body) = client_request(
        server.local_addr(),
        "GET",
        "/healthz",
        None,
        Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(status, 200);
    let expected = format!("\"{DEFAULT_MODEL}\":{}", entry.swap_count());
    assert!(
        body.contains("\"versions\"") && body.contains(&expected),
        "/healthz must report the swapped model version ({expected}): {body}"
    );
}

/// The whole loop — ingestion order, window counts, monitor scores, drift
/// transitions, fine-tune, shadow eval, swap decisions — is bitwise
/// identical on 1, 2, and 4 worker threads, even with a seeded ingest-drop
/// fault schedule running. One fingerprint per seed, not per machine.
#[test]
fn live_fingerprint_is_identical_across_thread_counts() {
    let _guard = chaos_lock();
    let mut runs = Vec::new();
    for threads in [1usize, 2, 4] {
        // Re-arm the same seeded schedule before each replay so every run
        // sees the identical drop pattern.
        arm("live.ingest.record=p:0.01");
        let (report, _, _) = run_live("threads", threads);
        faults::clear();
        runs.push((threads, report));
    }
    bikecap::obs::clear();

    let Some(((_, first), rest)) = runs.split_first() else {
        unreachable!("three runs requested");
    };
    assert!(
        first.records > 0 && first.slots > 0,
        "the replay must ingest records and seal slots"
    );
    for (threads, report) in rest {
        assert_eq!(
            report.fingerprint(),
            first.fingerprint(),
            "live run diverged on {threads} threads: \
             {report:?} vs baseline {first:?}"
        );
    }
}

/// Sabotaged fine-tuning (every epoch loss poisoned to NaN through the
/// `train.epoch.loss` failpoint) must never reach the serving slot: the
/// adaptation rolls back, the incumbent keeps serving at version 0, and
/// the loop keeps running afterwards.
#[test]
fn divergent_finetune_rolls_back_and_incumbent_keeps_serving() {
    let _guard = chaos_lock();
    arm("train.epoch.loss=always");
    let (report, entry, registry) = run_live("rollback", 1);
    faults::clear();
    bikecap::obs::clear();

    assert!(
        !drifted_slots(&report).is_empty(),
        "the shock must still confirm drift; transitions: {:?}",
        report.transitions
    );
    assert_eq!(
        report.swaps, 0,
        "a diverging candidate must never be swapped in; outcomes: {:?}",
        report.outcomes
    );
    assert!(
        report.rollbacks >= 1,
        "divergence must be recorded as a rollback; outcomes: {:?}",
        report.outcomes
    );
    assert!(
        report.outcomes.iter().any(|o| matches!(
            o,
            AdaptOutcome::RolledBack { reason, .. } if reason.contains("diverged")
        )),
        "at least one rollback must carry the divergence reason: {:?}",
        report.outcomes
    );
    assert_eq!(
        entry.swap_count(),
        0,
        "the incumbent must still be serving, untouched"
    );

    // The serving surface agrees: version 0, model still answering.
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap();
    let (status, body) = client_request(
        server.local_addr(),
        "GET",
        "/healthz",
        None,
        Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(status, 200);
    let expected = format!("\"{DEFAULT_MODEL}\":0");
    assert!(
        body.contains(&expected),
        "/healthz must still report version 0 after rollback: {body}"
    );
}

/// The rollback path is as reproducible as the happy path: the same
/// sabotage schedule yields the same fingerprint on 1 and 4 threads.
#[test]
fn rollback_fingerprint_is_identical_across_thread_counts() {
    let _guard = chaos_lock();
    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        arm("train.epoch.loss=always");
        let (report, entry, _) = run_live("rollback-threads", threads);
        faults::clear();
        assert_eq!(entry.swap_count(), 0);
        runs.push(report);
    }
    bikecap::obs::clear();

    assert_eq!(
        runs[0].fingerprint(),
        runs[1].fingerprint(),
        "rollback run diverged across thread counts: {:?} vs {:?}",
        runs[1],
        runs[0]
    );
}
