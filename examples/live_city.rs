//! Live-city adaptation: stream a regime-shifted city through the drift
//! detector, fine-tune on confirmed drift, shadow-evaluate and hot-swap.
//!
//! ```text
//! cargo run --release --example live_city
//! ```
//!
//! The pipeline this walks through is the whole `bikecap-live` crate:
//!
//! 1. Train an incumbent on a quiet baseline city and register it in a
//!    serving slot (the same `ModelRegistry` the HTTP server uses).
//! 2. Replay a fresh record stream whose final day carries a weather
//!    shock, record by record, into a rolling 15-minute demand window.
//! 3. An eager-mode monitor copy predicts every sealed slot; its error and
//!    the routing telemetry (coupling entropy, agreement delta) drive a
//!    hysteresis state machine: Stable → Suspect → Drifted.
//! 4. On confirmed drift the incumbent is fine-tuned on the fresh window
//!    (`fit_resilient`, with autosave and divergence rollback), shadow-
//!    evaluated against the incumbent, and hot-swapped only if it wins.

use std::sync::Arc;

use bikecap::live::{AdaptOutcome, LiveConfig, LiveLoop, RecordStream};
use bikecap::model::{BikeCap, BikeCapConfig, TrainOptions};
use bikecap::serve::{Metrics, ModelRegistry, DEFAULT_MODEL};
use bikecap::sim::scenario::{Scenario, WeatherShock};
use bikecap::sim::{
    aggregate::DemandSeries,
    generate::{SimConfig, Simulator},
    layout::CityLayout,
    ForecastDataset,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HISTORY: usize = 6;
const HORIZON: usize = 2;

fn main() {
    // 1. Baseline city: two quiet days to fit the incumbent on. Small grid
    //    and budgets keep the example fast; `bikecap live` runs the same
    //    loop at paper scale.
    let mut rng = StdRng::seed_from_u64(7);
    let config = SimConfig::small();
    let layout = CityLayout::generate(&config, &mut rng);
    let trips = Simulator::new(config, layout).run(&mut rng);
    let series = DemandSeries::from_trips(&trips, 15);
    let dataset = ForecastDataset::new(&series, HISTORY, HORIZON);

    let mut model = BikeCap::seeded(
        BikeCapConfig::new(series.height, series.width)
            .history(HISTORY)
            .horizon(HORIZON)
            .pyramid_size(2)
            .capsule_dim(4)
            .out_capsule_dim(4)
            .decoder_channels(4),
        7,
    );
    let mut train_rng = StdRng::seed_from_u64(8);
    let report = model.fit(&dataset, &TrainOptions::smoke(), &mut train_rng);
    println!(
        "incumbent trained: loss {:.4} -> {:.4}",
        report.epoch_losses.first().copied().unwrap_or(f32::NAN),
        report.final_loss().unwrap_or(f32::NAN)
    );

    // 2. Register it as the serving model — the live loop swaps through the
    //    exact path `POST /admin/reload` uses.
    let registry = ModelRegistry::new();
    let entry = registry.insert(DEFAULT_MODEL, model);
    let metrics = Arc::new(Metrics::new());

    // 3. A fresh live stream: same city configuration; the final day
    //    carries a 3x weather-driven demand surge. The first day feeds the
    //    detector's diurnal baseline, the second proves it stays calm on
    //    ordinary traffic.
    let mut live_sim = SimConfig::small();
    live_sim.days = 3;
    live_sim.scenario = Scenario {
        weather_shock: Some(WeatherShock {
            start_min: 2880.0,
            end_min: f64::from(live_sim.total_minutes()),
            demand_factor: 3.0,
        }),
        ..Scenario::none()
    };
    let mut live_rng = StdRng::seed_from_u64(9);
    let live_layout = CityLayout::generate(&live_sim, &mut live_rng);
    let live_trips = Simulator::new(live_sim.clone(), live_layout).run(&mut live_rng);
    println!(
        "live stream: {} bike + {} subway trips, weather shock from minute 2880",
        live_trips.bike_trips(),
        live_trips.subway_trips()
    );

    // 4. Run the loop: ingest → window → detect → adapt.
    let work_dir = std::env::temp_dir().join("bikecap-live-example");
    let live_config = LiveConfig::new(HISTORY, HORIZON, dataset.normalizer().clone(), work_dir);
    let mut live = LiveLoop::new(
        Arc::clone(&entry),
        live_config,
        Some(Arc::clone(&metrics)),
        None,
    )
    .expect("live loop setup");
    let report = live
        .run(
            RecordStream::new(&live_trips),
            f64::from(live_sim.total_minutes()),
        )
        .expect("live loop run");

    println!(
        "{} records -> {} sealed slots; detector saw:",
        report.records, report.slots
    );
    for (slot, state) in &report.transitions {
        println!("  slot {slot:>3}: -> {}", state.as_str());
    }
    for outcome in &report.outcomes {
        match outcome {
            AdaptOutcome::Swapped {
                slot,
                incumbent_mae,
                candidate_mae,
            } => println!(
                "  slot {slot:>3}: HOT-SWAP — candidate val MAE {candidate_mae:.4} beat \
                 incumbent {incumbent_mae:.4}"
            ),
            AdaptOutcome::Refused {
                slot,
                incumbent_mae,
                candidate_mae,
            } => println!(
                "  slot {slot:>3}: refused — candidate {candidate_mae:.4} vs incumbent \
                 {incumbent_mae:.4}"
            ),
            AdaptOutcome::RolledBack { slot, reason } => {
                println!("  slot {slot:>3}: rolled back — {reason}")
            }
        }
    }
    println!(
        "swaps {}, rollbacks {}, refusals {}; serving model version {}",
        report.swaps,
        report.rollbacks,
        report.refusals,
        entry.swap_count()
    );
}
