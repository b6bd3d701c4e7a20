//@ path: crates/live/src/adapt.rs
// True positive: a library installing the process-global obs sink.

fn bind_probe(probe: Arc<dyn Sink>) {
    bikecap_obs::install(probe); //~ no-global-sink-install
}

// Clearing is not installing, and a fault plan is not an obs sink.
fn unbind() {
    bikecap_obs::clear();
    faults::install(plan);
}
