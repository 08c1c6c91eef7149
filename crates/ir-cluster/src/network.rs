//! The simulated message fabric: seeded delay, reordering and drops.
//!
//! [`SimNetwork`] moves [`MessageEnvelope`]s between the coordinator and
//! the shard nodes through an [`EventSchedule`]. Per send it draws, from
//! one [`SeededLcg`] stream fixed by [`NetworkConfig::seed`]:
//!
//! 1. a **drop lottery** (`drop_percent` of coordinator↔shard messages are
//!    lost; coordinator self-messages model local computation and never
//!    drop), and
//! 2. a **delivery delay** in `[1, 1 + reorder_window]` virtual ticks — a
//!    window wider than one tick lets later sends overtake earlier ones,
//!    which is exactly the reordering the merge must be invariant to.
//!
//! Both draws happen for every send *in send order*, so the whole delivery
//! schedule is a pure function of `(seed, sequence of sends)` — replay the
//! sends and the network replays bit-for-bit. Dropped messages model an
//! at-most-once transport; the coordinator detects missing partials when
//! the schedule drains and re-requests them. After
//! [`SimNetwork::escalate_reliable`] the drop lottery is bypassed (the
//! transport "upgrades" to reliable delivery), which bounds every run: a
//! finite number of lossy retry rounds, then guaranteed completion.

use crate::event_schedule::{EventSchedule, ScheduledEvent};
use crate::message::{Address, Message, MessageEnvelope, ShardId};
use ir_types::SeededLcg;

/// Shape of the simulated network, stamped (via its seed) into the run's
/// [`ClusterTopology`](crate::ClusterTopology).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Seed of the delay/drop stream. Equal seeds replay equal schedules.
    pub seed: u64,
    /// Maximum extra delivery delay in virtual ticks (0 = strict FIFO; the
    /// determinism suite sweeps this because the merge must not care).
    pub reorder_window: u64,
    /// Percent (0–100) of coordinator↔shard messages dropped while the
    /// transport is in its lossy phase.
    pub drop_percent: u8,
}

impl Default for NetworkConfig {
    /// A perfectly behaved network: FIFO, lossless.
    fn default() -> Self {
        NetworkConfig {
            seed: 0,
            reorder_window: 0,
            drop_percent: 0,
        }
    }
}

impl NetworkConfig {
    /// A lossless network that reorders within `window` ticks.
    pub fn reordering(seed: u64, window: u64) -> Self {
        NetworkConfig {
            seed,
            reorder_window: window,
            drop_percent: 0,
        }
    }

    /// A reordering network that also drops `drop_percent`% of messages.
    pub fn lossy(seed: u64, window: u64, drop_percent: u8) -> Self {
        NetworkConfig {
            seed,
            reorder_window: window,
            drop_percent: drop_percent.min(100),
        }
    }
}

/// Message-conservation counters: every send ends in exactly one bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Envelopes handed to [`SimNetwork::send`].
    pub sent: u64,
    /// Envelopes popped by [`SimNetwork::deliver_next`].
    pub delivered: u64,
    /// Envelopes lost to the drop lottery.
    pub dropped: u64,
    /// Envelopes discarded because an endpoint died
    /// ([`SimNetwork::discard_involving`]).
    pub discarded: u64,
}

impl NetworkStats {
    /// `true` when every sent message is accounted for given `in_flight`
    /// messages still queued — the conservation law the cluster run asserts
    /// at exit (with `in_flight` 0).
    pub fn conserved(&self, in_flight: u64) -> bool {
        self.sent == self.delivered + self.dropped + self.discarded + in_flight
    }
}

/// The simulated network fabric.
pub struct SimNetwork {
    schedule: EventSchedule<MessageEnvelope>,
    rng: SeededLcg,
    config: NetworkConfig,
    reliable: bool,
    stats: NetworkStats,
    next_send_op: u64,
}

impl SimNetwork {
    /// A fresh network with its RNG stream positioned at the seed.
    pub fn new(config: NetworkConfig) -> Self {
        SimNetwork {
            schedule: EventSchedule::new(),
            rng: SeededLcg::mixed(config.seed),
            config,
            reliable: false,
            stats: NetworkStats::default(),
            next_send_op: 0,
        }
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// Conservation counters so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.schedule.len() as u64
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.schedule.now()
    }

    /// Bypasses the drop lottery for every subsequent send — the reliable
    /// escalation that bounds retry loops.
    pub fn escalate_reliable(&mut self) {
        self.reliable = true;
    }

    /// Sends a message, drawing its drop verdict and delivery delay from
    /// the seeded stream. Returns `true` if the message was scheduled,
    /// `false` if the lottery dropped it.
    ///
    /// Both draws are consumed unconditionally so the stream position — and
    /// with it every later verdict — depends only on the send sequence,
    /// never on which earlier messages happened to drop.
    pub fn send(&mut self, from: Address, to: Address, message: Message) -> bool {
        let send_op = self.next_send_op;
        self.next_send_op += 1;
        self.stats.sent += 1;

        let drop_draw = self.rng.next_below(100);
        let delay = self.rng.next_below(self.config.reorder_window + 1);

        // Only coordinator↔shard traffic crosses the lossy fabric;
        // coordinator self-messages (merges) are local computation.
        let local = from == Address::Coordinator && to == Address::Coordinator;
        let lossy = !local && !self.reliable;
        if lossy && drop_draw < self.config.drop_percent as u64 {
            self.stats.dropped += 1;
            return false;
        }

        let at = self.schedule.now() + 1 + delay;
        self.schedule.schedule_at(
            at,
            MessageEnvelope {
                from,
                to,
                send_op,
                message,
            },
        );
        true
    }

    /// Delivers the next event in deterministic `(time, seq)` order.
    pub fn deliver_next(&mut self) -> Option<ScheduledEvent<MessageEnvelope>> {
        let event = self.schedule.pop()?;
        self.stats.delivered += 1;
        Some(event)
    }

    /// Discards every in-flight message to or from `shard` (its process
    /// died), returning how many were lost.
    pub fn discard_involving(&mut self, shard: ShardId) -> u64 {
        let address = Address::Shard(shard);
        let removed = self
            .schedule
            .retain(|envelope| envelope.from != address && envelope.to != address);
        self.stats.discarded += removed;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MergeRequest;

    fn probe(query: usize) -> Message {
        Message::Merge(MergeRequest { query })
    }

    fn run_delivery_order(config: NetworkConfig, sends: usize) -> Vec<u64> {
        let mut network = SimNetwork::new(config);
        for i in 0..sends {
            network.send(Address::Coordinator, Address::Shard(ShardId(0)), probe(i));
        }
        std::iter::from_fn(move || network.deliver_next())
            .map(|e| e.payload.send_op)
            .collect()
    }

    #[test]
    fn fifo_network_delivers_in_send_order() {
        let order = run_delivery_order(NetworkConfig::default(), 16);
        assert_eq!(order, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn reordering_is_seeded_and_reproducible() {
        let a = run_delivery_order(NetworkConfig::reordering(7, 9), 64);
        let b = run_delivery_order(NetworkConfig::reordering(7, 9), 64);
        let c = run_delivery_order(NetworkConfig::reordering(8, 9), 64);
        assert_eq!(a, b, "same seed must replay the same delivery order");
        assert_ne!(a, c, "different seeds should reorder differently");
        assert_ne!(
            a,
            (0..64).collect::<Vec<u64>>(),
            "a 9-tick window should actually reorder something"
        );
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u64>>(), "nothing lost");
    }

    #[test]
    fn drops_are_counted_and_conserved() {
        let config = NetworkConfig::lossy(3, 4, 50);
        let mut network = SimNetwork::new(config);
        for i in 0..100 {
            network.send(Address::Coordinator, Address::Shard(ShardId(0)), probe(i));
        }
        let stats = network.stats();
        assert!(stats.dropped > 10, "a 50% lottery should drop: {stats:?}");
        assert!(stats.conserved(network.in_flight()), "{stats:?}");
        while network.deliver_next().is_some() {}
        assert!(network.stats().conserved(0), "{:?}", network.stats());
    }

    #[test]
    fn merges_never_drop_and_reliable_escalation_stops_losses() {
        let mut network = SimNetwork::new(NetworkConfig::lossy(1, 0, 100));
        assert!(
            network.send(Address::Coordinator, Address::Coordinator, probe(0)),
            "coordinator self-messages bypass the lottery"
        );
        assert!(!network.send(Address::Coordinator, Address::Shard(ShardId(0)), probe(1)));
        network.escalate_reliable();
        assert!(network.send(Address::Coordinator, Address::Shard(ShardId(0)), probe(2)));
    }

    #[test]
    fn discard_involving_removes_both_directions() {
        let mut network = SimNetwork::new(NetworkConfig::default());
        network.send(Address::Coordinator, Address::Shard(ShardId(0)), probe(0));
        network.send(Address::Shard(ShardId(0)), Address::Coordinator, probe(1));
        network.send(Address::Coordinator, Address::Shard(ShardId(1)), probe(2));
        assert_eq!(network.discard_involving(ShardId(0)), 2);
        let left: Vec<u64> = std::iter::from_fn(|| network.deliver_next())
            .map(|e| e.payload.send_op)
            .collect();
        assert_eq!(left, [2]);
        assert!(network.stats().conserved(0), "{:?}", network.stats());
    }
}
