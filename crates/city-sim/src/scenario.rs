//! Regime-shift scenario knobs for the simulator.
//!
//! A [`Scenario`] superimposes a *non-stationary* disturbance on the
//! otherwise stationary generative model — the ground truth a live
//! adaptation loop must detect and absorb. Four disturbances are modelled,
//! each over an absolute minute window `[start_min, end_min)`:
//!
//! * [`WeatherShock`] — a city-wide demand multiplier (a storm at `0.3`,
//!   a heat wave at `1.4`).
//! * [`EventSpike`] — a localised multiplier around a centre cell (a
//!   stadium event), the scheduled twin of the random per-day events the
//!   simulator already draws.
//! * [`StationOutage`] — one subway station stops serving entirely;
//!   upstream flows vanish and so do its transfer bike trips.
//! * [`SensorDropout`] — every `drop_every`-th bike record inside the
//!   window is lost after generation (a flaky feed), leaving unpaired
//!   pick-ups/drop-offs exactly as a real telemetry gap would.
//!
//! Every knob is a pure function of the record/slot being generated — a
//! disabled scenario ([`Scenario::none`], the default) consumes **zero**
//! RNG draws and leaves the simulation bitwise identical to a build
//! without this module. An enabled scenario perturbs the Poisson rates,
//! which legitimately shifts the RNG stream from the disturbance onward.

use crate::layout::Cell;

/// A city-wide demand multiplier over a time window (weather).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherShock {
    /// Window start, absolute simulation minutes (inclusive).
    pub start_min: f64,
    /// Window end, absolute simulation minutes (exclusive).
    pub end_min: f64,
    /// Demand multiplier inside the window (`< 1` suppresses, `> 1` boosts).
    pub demand_factor: f64,
}

/// A localised demand multiplier around a centre cell (scheduled event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventSpike {
    /// Window start, absolute simulation minutes (inclusive).
    pub start_min: f64,
    /// Window end, absolute simulation minutes (exclusive).
    pub end_min: f64,
    /// Centre of the affected area.
    pub centre: Cell,
    /// Chebyshev radius of the affected area, in cells.
    pub radius: usize,
    /// Demand multiplier inside the area and window.
    pub multiplier: f64,
}

/// One subway station out of service over a time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationOutage {
    /// Window start, absolute simulation minutes (inclusive).
    pub start_min: f64,
    /// Window end, absolute simulation minutes (exclusive).
    pub end_min: f64,
    /// Index of the station (into `CityLayout::stations`).
    pub station: usize,
}

/// Deterministic loss of bike records over a time window (sensor fault).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorDropout {
    /// Window start, absolute simulation minutes (inclusive).
    pub start_min: f64,
    /// Window end, absolute simulation minutes (exclusive).
    pub end_min: f64,
    /// Drop records whose `record_id % drop_every == 0`; must be `> 0`.
    pub drop_every: u64,
}

/// The scenario attached to a simulation run; all knobs default to off.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Scenario {
    /// City-wide weather multiplier, if any.
    pub weather_shock: Option<WeatherShock>,
    /// Scheduled localised event, if any.
    pub event_spike: Option<EventSpike>,
    /// Subway station outage, if any.
    pub station_outage: Option<StationOutage>,
    /// Bike sensor dropout, if any.
    pub sensor_dropout: Option<SensorDropout>,
}

fn in_window(t_min: f64, start: f64, end: f64) -> bool {
    t_min >= start && t_min < end
}

impl Scenario {
    /// The empty scenario: every knob off, simulation unperturbed.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no knob is active.
    pub fn is_none(&self) -> bool {
        self.weather_shock.is_none()
            && self.event_spike.is_none()
            && self.station_outage.is_none()
            && self.sensor_dropout.is_none()
    }

    /// The combined demand multiplier at `(t_min, cell)` — `1.0` when no
    /// knob covers the point.
    pub fn demand_factor(&self, t_min: f64, cell: Cell) -> f64 {
        let mut f = 1.0;
        if let Some(w) = self.weather_shock {
            if in_window(t_min, w.start_min, w.end_min) {
                f *= w.demand_factor;
            }
        }
        if let Some(e) = self.event_spike {
            if in_window(t_min, e.start_min, e.end_min) && cell.chebyshev(e.centre) <= e.radius {
                f *= e.multiplier;
            }
        }
        f
    }

    /// True when `station` is out of service at `t_min`.
    pub fn station_blocked(&self, t_min: f64, station: usize) -> bool {
        matches!(
            self.station_outage,
            Some(o) if o.station == station && in_window(t_min, o.start_min, o.end_min)
        )
    }

    /// True when a bike record generated at `t_min` with `record_id` is
    /// lost to sensor dropout.
    pub fn drops_bike_record(&self, t_min: f64, record_id: u64) -> bool {
        matches!(
            self.sensor_dropout,
            Some(d) if d.drop_every > 0
                && in_window(t_min, d.start_min, d.end_min)
                && record_id.is_multiple_of(d.drop_every)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CELL: Cell = Cell { row: 2, col: 2 };

    #[test]
    fn empty_scenario_is_neutral() {
        let s = Scenario::none();
        assert!(s.is_none());
        assert_eq!(s.demand_factor(100.0, CELL), 1.0);
        assert!(!s.station_blocked(100.0, 0));
        assert!(!s.drops_bike_record(100.0, 0));
    }

    #[test]
    fn weather_shock_applies_only_inside_its_window() {
        let s = Scenario {
            weather_shock: Some(WeatherShock {
                start_min: 60.0,
                end_min: 120.0,
                demand_factor: 0.25,
            }),
            ..Scenario::none()
        };
        assert!(!s.is_none());
        assert_eq!(s.demand_factor(59.9, CELL), 1.0);
        assert_eq!(s.demand_factor(60.0, CELL), 0.25);
        assert_eq!(s.demand_factor(119.9, CELL), 0.25);
        assert_eq!(s.demand_factor(120.0, CELL), 1.0);
    }

    #[test]
    fn event_spike_is_localised_and_composes_with_weather() {
        let s = Scenario {
            weather_shock: Some(WeatherShock {
                start_min: 0.0,
                end_min: 1000.0,
                demand_factor: 0.5,
            }),
            event_spike: Some(EventSpike {
                start_min: 0.0,
                end_min: 1000.0,
                centre: CELL,
                radius: 1,
                multiplier: 3.0,
            }),
            ..Scenario::none()
        };
        // Inside the event radius both factors multiply.
        assert_eq!(s.demand_factor(10.0, Cell { row: 3, col: 3 }), 1.5);
        // Outside the radius only the weather applies.
        assert_eq!(s.demand_factor(10.0, Cell { row: 5, col: 5 }), 0.5);
    }

    #[test]
    fn outage_blocks_exactly_one_station() {
        let s = Scenario {
            station_outage: Some(StationOutage {
                start_min: 0.0,
                end_min: 500.0,
                station: 3,
            }),
            ..Scenario::none()
        };
        assert!(s.station_blocked(0.0, 3));
        assert!(!s.station_blocked(0.0, 2));
        assert!(!s.station_blocked(500.0, 3));
    }

    #[test]
    fn dropout_is_periodic_within_the_window() {
        let s = Scenario {
            sensor_dropout: Some(SensorDropout {
                start_min: 0.0,
                end_min: 100.0,
                drop_every: 3,
            }),
            ..Scenario::none()
        };
        assert!(s.drops_bike_record(50.0, 0));
        assert!(!s.drops_bike_record(50.0, 1));
        assert!(s.drops_bike_record(50.0, 3));
        assert!(!s.drops_bike_record(100.0, 3)); // window is half-open
    }
}
