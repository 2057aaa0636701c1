//! Interconnection-network model for the TPI coherence study.
//!
//! The paper simulates network delays "using an analytical delay model for
//! indirect multistage networks" (Kruskal & Snir \[24\]). This crate
//! implements that model: a buffered multistage network of `k x k`
//! switches with `ceil(log_k P)` stages, where the expected per-stage
//! waiting time under offered load `rho` is
//!
//! ```text
//! wait(rho) = rho * (1 - 1/k) / (2 * (1 - rho))
//! ```
//!
//! so a message of `w` payload words traverses in
//! `round(stages * stage_cycles * (1 + wait(rho))) + (1 + w) * word_cycles`
//! (one header word plus payload, pipelined at `word_cycles` per word).
//! The rounded switch term depends only on the load, so the network
//! computes it once per load change, not once per message.
//!
//! The offered load is estimated from the traffic the protocols actually
//! inject, one epoch behind (the simulator calls [`Network::end_epoch`] at
//! each barrier), avoiding a fixed-point iteration while still letting
//! write-heavy epochs slow their successors — the effect behind the paper's
//! TRFD network-traffic observations.
//!
//! # Example
//!
//! ```
//! use tpi_net::{Network, NetworkConfig, TrafficClass};
//!
//! let mut net = Network::new(NetworkConfig::paper_default(16));
//! // Unloaded line fetch of a 4-word line: the paper's 100-cycle base miss.
//! assert_eq!(net.line_fetch(4), 100);
//! net.record(TrafficClass::Read, 4);
//! ```

#![warn(missing_docs)]

use tpi_mem::Cycle;

/// Categories of network traffic, as broken down in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Read requests and data replies.
    Read,
    /// Write-throughs and write-backs.
    Write,
    /// Coherence transactions (invalidations, acks, directory forwards).
    Coherence,
}

impl TrafficClass {
    /// All classes, for iteration.
    pub const ALL: [TrafficClass; 3] = [
        TrafficClass::Read,
        TrafficClass::Write,
        TrafficClass::Coherence,
    ];

    fn index(self) -> usize {
        match self {
            TrafficClass::Read => 0,
            TrafficClass::Write => 1,
            TrafficClass::Coherence => 2,
        }
    }
}

impl std::fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficClass::Read => write!(f, "read"),
            TrafficClass::Write => write!(f, "write"),
            TrafficClass::Coherence => write!(f, "coherence"),
        }
    }
}

/// Cumulative traffic, per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    messages: [u64; 3],
    words: [u64; 3],
}

impl TrafficStats {
    /// Messages sent in `class`.
    #[must_use]
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.messages[class.index()]
    }

    /// Words (header + payload) sent in `class`.
    #[must_use]
    pub fn words(&self, class: TrafficClass) -> u64 {
        self.words[class.index()]
    }

    /// Total words across classes.
    #[must_use]
    pub fn total_words(&self) -> u64 {
        self.words.iter().sum()
    }

    /// Total messages across classes.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    fn add(&mut self, class: TrafficClass, payload_words: u32) {
        self.messages[class.index()] += 1;
        self.words[class.index()] += 1 + u64::from(payload_words);
    }
}

/// Physical parameters of the network and memory system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Number of processors (network ports).
    pub processors: u32,
    /// Switch degree `k`.
    pub switch_degree: u32,
    /// Cycles per switch stage, unloaded.
    pub stage_cycles: Cycle,
    /// Channel cycles per message word.
    pub word_cycles: Cycle,
    /// DRAM access time at the memory module.
    pub memory_cycles: Cycle,
    /// Remote cache (owner) access time on a three-hop dirty fetch.
    pub remote_cache_cycles: Cycle,
    /// Offered load is clamped below this to keep the model stable.
    pub max_rho: f64,
}

impl NetworkConfig {
    /// Parameters reproducing the paper's Figure 8 machine: the base miss
    /// latency of a 4-word line comes out at exactly 100 CPU cycles.
    #[must_use]
    pub fn paper_default(processors: u32) -> Self {
        NetworkConfig {
            processors,
            switch_degree: 2,
            stage_cycles: 1,
            word_cycles: 6,
            memory_cycles: 56,
            remote_cache_cycles: 30,
            max_rho: 0.95,
        }
    }

    /// Number of switch stages: `ceil(log_k P)`, at least 1.
    ///
    /// # Panics
    ///
    /// Panics if `processors == 0` or `switch_degree < 2`.
    #[must_use]
    pub fn stages(&self) -> u32 {
        assert!(self.processors > 0, "need at least one processor");
        assert!(self.switch_degree >= 2, "switch degree must be at least 2");
        let mut stages = 0;
        let mut reach = 1u64;
        while reach < u64::from(self.processors) {
            reach *= u64::from(self.switch_degree);
            stages += 1;
        }
        stages.max(1)
    }
}

/// The network: latency model plus traffic/load bookkeeping.
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NetworkConfig,
    stats: TrafficStats,
    /// Words injected during the current epoch.
    epoch_words: u64,
    /// Offered load estimated from the previous epoch.
    rho: f64,
    /// The switch term of [`Network::msg_latency`] at the current load:
    /// `round(stages * stage_cycles * (1 + wait(rho)))`.
    switch_cycles: Cycle,
}

impl Network {
    /// A new, unloaded network.
    #[must_use]
    pub fn new(cfg: NetworkConfig) -> Self {
        let mut net = Network {
            cfg,
            stats: TrafficStats::default(),
            epoch_words: 0,
            rho: 0.0,
            switch_cycles: 0,
        };
        net.set_rho(0.0); // also validates the configuration eagerly
        net
    }

    /// Sets the offered load and recomputes the switch term.
    fn set_rho(&mut self, rho: f64) {
        self.rho = rho;
        let stages = f64::from(self.cfg.stages());
        let switch = stages * self.cfg.stage_cycles as f64 * (1.0 + self.wait_factor());
        self.switch_cycles = switch.round() as Cycle;
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Current offered-load estimate.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Kruskal–Snir expected waiting factor at the current load.
    #[must_use]
    pub fn wait_factor(&self) -> f64 {
        let k = f64::from(self.cfg.switch_degree);
        let rho = self.rho.min(self.cfg.max_rho);
        rho * (1.0 - 1.0 / k) / (2.0 * (1.0 - rho))
    }

    /// One-way latency of a message with `payload_words` of payload.
    #[inline]
    #[must_use]
    pub fn msg_latency(&self, payload_words: u32) -> Cycle {
        self.switch_cycles + (1 + u64::from(payload_words)) * self.cfg.word_cycles
    }

    /// Latency of a full line fetch: request, memory access, line reply.
    #[must_use]
    pub fn line_fetch(&self, line_words: u32) -> Cycle {
        self.msg_latency(0) + self.cfg.memory_cycles + self.msg_latency(line_words)
    }

    /// Latency of a single-word remote access (BASE scheme, bypass reads).
    #[must_use]
    pub fn word_fetch(&self) -> Cycle {
        self.msg_latency(0) + self.cfg.memory_cycles + self.msg_latency(1)
    }

    /// One network traversal plus a directory visit, a forward to the
    /// owning cache, the owner's cache access, and the line reply: the
    /// 3-hop directory path (requester → home → owner → requester).
    #[must_use]
    pub fn three_hop_fetch(&self, line_words: u32) -> Cycle {
        self.msg_latency(0)
            + self.cfg.memory_cycles
            + self.msg_latency(0)
            + self.cfg.remote_cache_cycles
            + self.msg_latency(line_words)
    }

    /// Records `payload_words` of injected traffic in `class`.
    pub fn record(&mut self, class: TrafficClass, payload_words: u32) {
        self.stats.add(class, payload_words);
        self.epoch_words += 1 + u64::from(payload_words);
    }

    /// Ends an epoch of `elapsed` cycles: folds the epoch's injected words
    /// into the load estimate for the next epoch.
    pub fn end_epoch(&mut self, elapsed: Cycle) {
        let words = std::mem::take(&mut self.epoch_words);
        if elapsed == 0 {
            return;
        }
        // Per-port channel utilization: words * cycles-per-word spread over
        // P ports for `elapsed` cycles.
        let util = (words as f64 * self.cfg.word_cycles as f64)
            / (f64::from(self.cfg.processors) * elapsed as f64);
        self.set_rho(util.min(self.cfg.max_rho));
    }

    /// Cumulative traffic statistics.
    #[must_use]
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_count() {
        assert_eq!(NetworkConfig::paper_default(16).stages(), 4);
        assert_eq!(NetworkConfig::paper_default(17).stages(), 5);
        assert_eq!(NetworkConfig::paper_default(1).stages(), 1);
        let mut c = NetworkConfig::paper_default(64);
        c.switch_degree = 4;
        assert_eq!(c.stages(), 3);
    }

    #[test]
    fn paper_base_miss_latency_is_100() {
        let net = Network::new(NetworkConfig::paper_default(16));
        assert_eq!(net.line_fetch(4), 100);
        // Larger lines cost more; single words cost less.
        assert!(net.line_fetch(16) > 100);
        assert!(net.word_fetch() < 100);
    }

    #[test]
    fn load_raises_latency() {
        let mut net = Network::new(NetworkConfig::paper_default(16));
        let unloaded = net.line_fetch(4);
        // Inject heavy traffic, then close the epoch to update rho.
        for _ in 0..10_000 {
            net.record(TrafficClass::Write, 1);
        }
        net.end_epoch(10_000);
        assert!(net.rho() > 0.5, "rho = {}", net.rho());
        assert!(net.line_fetch(4) > unloaded);
    }

    #[test]
    fn rho_is_clamped() {
        let mut net = Network::new(NetworkConfig::paper_default(2));
        for _ in 0..100_000 {
            net.record(TrafficClass::Read, 16);
        }
        net.end_epoch(10);
        assert!(net.rho() <= 0.95);
        assert!(net.wait_factor().is_finite());
    }

    #[test]
    fn traffic_accounting_per_class() {
        let mut net = Network::new(NetworkConfig::paper_default(16));
        net.record(TrafficClass::Read, 4);
        net.record(TrafficClass::Read, 0);
        net.record(TrafficClass::Write, 1);
        net.record(TrafficClass::Coherence, 0);
        let s = net.stats();
        assert_eq!(s.messages(TrafficClass::Read), 2);
        assert_eq!(s.words(TrafficClass::Read), 6);
        assert_eq!(s.words(TrafficClass::Write), 2);
        assert_eq!(s.words(TrafficClass::Coherence), 1);
        assert_eq!(s.total_words(), 9);
        assert_eq!(s.total_messages(), 4);
    }

    #[test]
    fn end_epoch_resets_accumulator() {
        let mut net = Network::new(NetworkConfig::paper_default(16));
        net.record(TrafficClass::Read, 4);
        net.end_epoch(1000);
        let rho1 = net.rho();
        net.end_epoch(1000); // no traffic this epoch
        assert!(net.rho() < rho1 || rho1 == 0.0);
    }

    #[test]
    fn three_hop_exceeds_two_hop() {
        let net = Network::new(NetworkConfig::paper_default(16));
        assert!(net.three_hop_fetch(4) > net.line_fetch(4));
    }

    #[test]
    fn class_display() {
        assert_eq!(TrafficClass::Read.to_string(), "read");
        assert_eq!(TrafficClass::Coherence.to_string(), "coherence");
    }
}
