//! Shared write-through machinery for the BASE, SC and TPI engines.
//!
//! Writes retire through an infinite per-processor write buffer and occupy
//! the processor's network port for the message duration; the processor
//! itself only stalls one cycle. At each epoch boundary (a weak-consistency
//! synchronization point) the buffer must have fully drained, so the
//! barrier stall includes any outstanding port time.

use tpi_cache::{WriteBuffer, WriteBufferKind, WriteBufferStats};
use tpi_mem::{Cycle, WordAddr};
use tpi_net::{Network, TrafficClass};

#[derive(Debug, Clone)]
pub(crate) struct WritePath {
    buffers: Vec<WriteBuffer>,
    port_free: Vec<Cycle>,
    /// Port cycles per single-word write-through message (header+payload).
    msg_cycles: Cycle,
}

impl WritePath {
    pub(crate) fn new(procs: u32, kind: WriteBufferKind, word_cycles: Cycle) -> Self {
        WritePath {
            buffers: (0..procs).map(|_| WriteBuffer::new(kind)).collect(),
            port_free: vec![0; procs as usize],
            msg_cycles: 2 * word_cycles,
        }
    }

    /// Accepts a write-through of `addr` by processor `p` at time `now`;
    /// records network traffic unless the buffer coalesces it.
    pub(crate) fn write(&mut self, p: usize, addr: WordAddr, now: Cycle, net: &mut Network) {
        if self.buffers[p].push(addr) {
            net.record(TrafficClass::Write, 1);
            let pf = &mut self.port_free[p];
            *pf = (*pf).max(now) + self.msg_cycles;
        }
    }

    /// Epoch-boundary drain: stall until the port is free, then empty the
    /// buffer.
    pub(crate) fn boundary(&mut self, per_proc_now: &[Cycle]) -> Vec<Cycle> {
        per_proc_now
            .iter()
            .enumerate()
            .map(|(p, &now)| {
                self.buffers[p].drain();
                self.port_free[p].saturating_sub(now)
            })
            .collect()
    }

    /// Combined buffer statistics across processors.
    pub(crate) fn buffer_stats(&self) -> WriteBufferStats {
        let mut total = WriteBufferStats::default();
        for b in &self.buffers {
            let s = b.stats();
            total.enqueued += s.enqueued;
            total.sent += s.sent;
            total.coalesced += s.coalesced;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_net::NetworkConfig;

    #[test]
    fn write_occupies_port_and_boundary_stalls() {
        let mut net = Network::new(NetworkConfig::paper_default(4));
        let mut wp = WritePath::new(4, WriteBufferKind::Fifo, 6);
        wp.write(0, WordAddr(1), 100, &mut net);
        wp.write(0, WordAddr(2), 100, &mut net);
        // Port busy until 100 + 2*12 = 124.
        let stalls = wp.boundary(&[110, 0, 0, 0]);
        assert_eq!(stalls[0], 14);
        assert_eq!(stalls[1], 0);
        assert_eq!(net.stats().words(tpi_net::TrafficClass::Write), 4);
    }

    #[test]
    fn coalescing_skips_port_time() {
        let mut net = Network::new(NetworkConfig::paper_default(4));
        let mut wp = WritePath::new(4, WriteBufferKind::Coalescing, 6);
        wp.write(1, WordAddr(9), 0, &mut net);
        wp.write(1, WordAddr(9), 0, &mut net);
        let stalls = wp.boundary(&[0, 0, 0, 0]);
        assert_eq!(stalls[1], 12, "only one message occupied the port");
        assert_eq!(wp.buffer_stats().coalesced, 1);
    }
}
