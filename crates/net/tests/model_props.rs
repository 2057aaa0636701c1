//! Property tests for the Kruskal–Snir network model: latencies must be
//! monotone in load, payload size, and machine size, the load
//! estimator must stay within its clamp, and the per-message latency
//! must equal the formula in the crate docs at every load.

use tpi_net::{Network, NetworkConfig, TrafficClass};
use tpi_testkit::prelude::*;

proptest! {
    #[test]
    fn latency_monotone_in_payload(procs in 2u32..256, w1 in 0u32..32, w2 in 0u32..32) {
        let net = Network::new(NetworkConfig::paper_default(procs));
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        prop_assert!(net.msg_latency(lo) <= net.msg_latency(hi));
        prop_assert!(net.line_fetch(lo.max(1)) <= net.line_fetch(hi.max(1)));
    }

    #[test]
    fn latency_monotone_in_load(
        procs in 2u32..64,
        words in prop::collection::vec(0u32..16, 0..50),
    ) {
        let mut net = Network::new(NetworkConfig::paper_default(procs));
        let unloaded = net.line_fetch(4);
        for &w in &words {
            net.record(TrafficClass::Read, w);
        }
        net.end_epoch(100);
        prop_assert!(net.rho() <= 0.95);
        prop_assert!(net.line_fetch(4) >= unloaded);
        prop_assert!(net.wait_factor().is_finite());
        prop_assert!(net.wait_factor() >= 0.0);
    }

    #[test]
    fn stages_cover_machine(procs in 1u32..100_000, k in 2u32..9) {
        let mut cfg = NetworkConfig::paper_default(procs);
        cfg.switch_degree = k;
        let s = cfg.stages();
        prop_assert!(u64::from(k).pow(s) >= u64::from(procs));
        if s > 1 {
            prop_assert!(u64::from(k).pow(s - 1) < u64::from(procs));
        }
    }

    #[test]
    fn traffic_totals_are_consistent(
        msgs in prop::collection::vec((0usize..3, 0u32..16), 0..60),
    ) {
        let mut net = Network::new(NetworkConfig::paper_default(16));
        let mut words = 0u64;
        for &(c, w) in &msgs {
            net.record(TrafficClass::ALL[c], w);
            words += 1 + u64::from(w);
        }
        prop_assert_eq!(net.stats().total_messages(), msgs.len() as u64);
        prop_assert_eq!(net.stats().total_words(), words);
        let per_class: u64 = TrafficClass::ALL.iter().map(|&c| net.stats().words(c)).sum();
        prop_assert_eq!(per_class, words);
    }

    #[test]
    fn msg_latency_matches_the_documented_formula(
        procs in 1u32..2048,
        k in 2u32..9,
        loads in prop::collection::vec((0u64..200_000, 0u64..5_000), 1..8),
        payloads in prop::collection::vec(0u32..64, 1..8),
    ) {
        let mut cfg = NetworkConfig::paper_default(procs);
        cfg.switch_degree = k;
        let mut net = Network::new(cfg);
        for &(words, elapsed) in &loads {
            // One message of `words` words (header included).
            if words > 0 {
                net.record(TrafficClass::Read, (words - 1) as u32);
            }
            net.end_epoch(elapsed);
            // wait(rho) = rho (1 - 1/k) / (2 (1 - rho)), rho clamped;
            // latency = round(stages * stage_cycles * (1 + wait))
            //           + (1 + w) * word_cycles.
            let rho = net.rho().min(cfg.max_rho);
            let kf = f64::from(k);
            let wait = rho * (1.0 - 1.0 / kf) / (2.0 * (1.0 - rho));
            let switch = f64::from(cfg.stages()) * cfg.stage_cycles as f64 * (1.0 + wait);
            for &w in &payloads {
                let expected = switch.round() as u64 + (1 + u64::from(w)) * cfg.word_cycles;
                prop_assert_eq!(net.msg_latency(w), expected, "rho={} w={}", rho, w);
            }
        }
    }
}
