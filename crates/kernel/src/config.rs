//! Cluster-wide kernel configuration knobs, each corresponding to a design
//! alternative discussed in the paper.

use crate::location_cache::LocationCacheConfig;
use crate::mailbox::MailboxConfig;
use std::time::Duration;

/// How object invocations cross node boundaries (paper §2 design goal:
/// "the mechanism works identically regardless of whether the objects are
/// invoked using RPC or DSM" — experiment E8 verifies it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvocationMode {
    /// The logical thread moves: an invocation message carries the thread
    /// (attributes and all) to the object's home node, which executes the
    /// entry and replies.
    #[default]
    Rpc,
    /// The data moves: the entry executes on the caller's node and the
    /// object's state pages fault across via DSM.
    Dsm,
}

/// How a thread is found when an event is posted to it (paper §7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocatorStrategy {
    /// "A simple solution ... broadcast the event request": probe every
    /// node; each answers found/not-found. 2(n-1) messages.
    Broadcast,
    /// "Follow the path of the thread starting from its root node" using
    /// thread-control blocks: hop along the invocation chain. ≤ hops + 1
    /// messages.
    #[default]
    PathTrace,
    /// "Threads can create a multicast group": nodes hosting the thread
    /// join its group; delivery multicasts to current members.
    Multicast,
}

/// How object-targeted events are executed at the home node (paper §4.3:
/// "a handler thread can be associated with the object to handle all
/// events on its behalf, thus eliminating thread-creation costs" —
/// experiment E3 measures the difference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObjectEventExecution {
    /// Spawn a fresh kernel thread per delivered event.
    Spawn,
    /// One long-lived master handler thread per node drains a queue.
    #[default]
    Master,
}

/// Which transport fabric carries inter-node kernel messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FabricChoice {
    /// The in-process simulated fabric (delay-line latency injection,
    /// deterministic, no serialization).
    #[default]
    Sim,
    /// Real loopback UDP sockets: every message is encoded to a datagram
    /// and decoded on receive, heartbeats are real probe datagrams, and
    /// the cluster can span OS processes (the `doct-node` binary).
    Udp,
}

/// Kernel configuration, shared by every node of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// RPC or DSM invocations.
    pub invocation_mode: InvocationMode,
    /// Thread location strategy for event delivery.
    pub locator: LocatorStrategy,
    /// Object event execution policy.
    pub object_events: ObjectEventExecution,
    /// How long the raiser's node waits for a delivery receipt.
    pub delivery_timeout: Duration,
    /// Retries after a `not found` receipt (covers thread-movement races).
    pub delivery_retries: u32,
    /// How long `raise_and_wait` blocks for a handler to resume the raiser.
    pub sync_timeout: Duration,
    /// How long a remote invocation waits for its reply.
    pub invoke_timeout: Duration,
    /// Thread-location hint cache consulted before `locator` on each
    /// thread-targeted raise (unicast fast path; see `LocationCache`).
    pub location_cache: LocationCacheConfig,
    /// Bounded priority-mailbox policy applied to every activation
    /// (overload control: control lane never sheds, timer/user lanes
    /// bounded; see `Mailbox`).
    pub mailbox: MailboxConfig,
    /// Transport fabric for inter-node messages. The `DOCT_FABRIC`
    /// environment variable (`sim` | `udp`) overrides this cluster-wide
    /// (see [`KernelConfig::effective_fabric`]), which is how the E11
    /// suite and the chaos-soak matrix flip a whole run onto real
    /// sockets without touching each test's builder.
    pub fabric: FabricChoice,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            invocation_mode: InvocationMode::default(),
            locator: LocatorStrategy::default(),
            object_events: ObjectEventExecution::default(),
            delivery_timeout: Duration::from_secs(5),
            delivery_retries: 3,
            sync_timeout: Duration::from_secs(10),
            invoke_timeout: Duration::from_secs(30),
            location_cache: LocationCacheConfig::default(),
            mailbox: MailboxConfig::default(),
            fabric: FabricChoice::default(),
        }
    }
}

impl KernelConfig {
    /// Default config with the given invocation mode.
    pub fn with_mode(mode: InvocationMode) -> Self {
        KernelConfig {
            invocation_mode: mode,
            ..Self::default()
        }
    }

    /// Default config with the given locator.
    pub fn with_locator(locator: LocatorStrategy) -> Self {
        KernelConfig {
            locator,
            ..Self::default()
        }
    }

    /// This config with the location hint cache turned off (every raise
    /// pays the full locator cost — used by the E2 baseline benches).
    pub fn without_location_cache(self) -> Self {
        KernelConfig {
            location_cache: LocationCacheConfig::disabled(),
            ..self
        }
    }

    /// This config with the given mailbox bounds (E13 uses tiny lanes to
    /// force shedding at modest arrival rates).
    pub fn with_mailbox(self, mailbox: MailboxConfig) -> Self {
        KernelConfig { mailbox, ..self }
    }

    /// Accepts only the single kernel loop every node runs, and panics
    /// on a request for more rather than ignoring it. Exists only for the
    /// benchmark rig's `with_reactors(1)` call, until ROADMAP 13(b)
    /// drops it.
    pub fn with_reactors(self, reactors: usize) -> Self {
        assert!(
            reactors <= 1,
            "one kernel loop per node: {reactors} reactors requested"
        );
        self
    }

    /// This config with the given transport fabric.
    pub fn with_fabric(self, fabric: FabricChoice) -> Self {
        KernelConfig { fabric, ..self }
    }

    /// The fabric a cluster should actually ride: the configured value
    /// unless the `DOCT_FABRIC` environment variable overrides it
    /// (`sim` or `udp`; anything else is ignored).
    pub fn effective_fabric(&self) -> FabricChoice {
        match std::env::var("DOCT_FABRIC").as_deref() {
            Ok("sim") => FabricChoice::Sim,
            Ok("udp") => FabricChoice::Udp,
            _ => self.fabric,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_papers_preferred_choices() {
        let c = KernelConfig::default();
        assert_eq!(c.invocation_mode, InvocationMode::Rpc);
        assert_eq!(c.locator, LocatorStrategy::PathTrace);
        assert_eq!(c.object_events, ObjectEventExecution::Master);
        assert!(c.delivery_retries > 0);
        assert!(c.location_cache.enabled, "hint cache is on by default");
        assert!(c.location_cache.capacity > 0);
        assert!(c.mailbox.timer_capacity > 0 && c.mailbox.user_capacity > 0);
        assert!(
            c.mailbox.near_deadline < c.mailbox.timer_deadline,
            "the jump window must be narrower than the usefulness horizon"
        );
        assert!(c.mailbox.backpressure_hold < c.delivery_timeout);
    }

    #[test]
    fn builder_shortcuts() {
        assert_eq!(
            KernelConfig::with_mode(InvocationMode::Dsm).invocation_mode,
            InvocationMode::Dsm
        );
        assert_eq!(
            KernelConfig::with_locator(LocatorStrategy::Broadcast).locator,
            LocatorStrategy::Broadcast
        );
        let off = KernelConfig::default().without_location_cache();
        assert!(!off.location_cache.enabled);
        assert_eq!(off.locator, LocatorStrategy::PathTrace, "rest untouched");
        assert_eq!(
            KernelConfig::default().with_reactors(1),
            KernelConfig::default()
        );
    }

    #[test]
    #[should_panic(expected = "one kernel loop per node")]
    fn with_reactors_above_one_is_refused() {
        let _ = KernelConfig::default().with_reactors(2);
    }

    #[test]
    fn fabric_defaults_to_sim_and_flips_by_builder() {
        let c = KernelConfig::default();
        assert_eq!(c.fabric, FabricChoice::Sim);
        let udp = c.with_fabric(FabricChoice::Udp);
        assert_eq!(udp.fabric, FabricChoice::Udp);
        assert_eq!(udp.locator, LocatorStrategy::PathTrace, "rest untouched");
        // Without the DOCT_FABRIC override the configured value rules.
        // (The env-var path is exercised by the E11 suite and the CI udp
        // smoke leg; setting process-wide env vars here would race with
        // parallel tests that build clusters.)
        if std::env::var("DOCT_FABRIC").is_err() {
            assert_eq!(udp.effective_fabric(), FabricChoice::Udp);
        }
    }
}
