//! Seeded fixture for the telemetry-coverage pass: two dead counters
//! (registered, handle-bound, never written — one private field, one in
//! the `NetStats` public-field idiom) and one live-but-undocumented
//! counter (this fixture root has no DESIGN.md / EXPERIMENTS.md). CI
//! asserts this fixture FAILS doct-lint.

pub struct Probe {
    orphan: Counter,
}

impl Probe {
    pub fn new(t: &Registry) -> Self {
        // dead-counter: `orphan` is never inc'd/add'd/set anywhere.
        Self {
            orphan: t.counter("kernel.fixture_orphan"),
        }
    }

    pub fn tick(&self, t: &Registry) {
        // undocumented-counter: written here, documented nowhere.
        t.counter("net.fixture_undocumented").inc();
    }

    pub fn read(&self) -> u64 {
        self.orphan.value()
    }
}

/// The `NetStats` idiom: a public handle bound once by name, written at
/// the call site (`stats.field.inc()`), read as `.get()` and listed in
/// a snapshot table.
pub struct FixtureNetStats {
    pub probe: Counter,
}

impl FixtureNetStats {
    pub fn bound(registry: &Registry) -> Self {
        // dead-counter: no call site ever does `stats.probe.inc()`; the
        // reads below must not keep the series alive.
        FixtureNetStats {
            probe: registry.counter("net.fixture_field_orphan"),
        }
    }

    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let counters = [("probe", &self.probe)];
        counters.iter().map(|(name, c)| (*name, c.get())).collect()
    }
}

pub fn report(stats: &FixtureNetStats) -> u64 {
    stats.probe.get()
}
