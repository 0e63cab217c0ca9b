//! Virtual BSP clock: the latency–bandwidth cost model of the paper.
//!
//! Sec. 4.2 of the paper analyses communication overhead in a model where a
//! message of `s` vector elements from node `i` to node `k` costs
//! `λ_ik + s·µ` and nodes send/receive one element at a time. We implement
//! exactly this model, plus a per-flop cost `γ` so compute/communication
//! ratios are meaningful:
//!
//! * a local computation of `f` flops advances the node's clock by `f·γ`;
//! * a send stamps the message with `departure + λ + s·µ`;
//! * a receive advances the receiver's clock to
//!   `max(own clock, arrival stamp)` — waiting costs virtual time;
//! * collectives synchronize clocks through their constituent messages.
//!
//! Wall-clock time on an oversubscribed host is meaningless for a 128-node
//! experiment; the virtual clock reproduces the *shape* of the paper's
//! runtime results (who wins, by what factor, where crossovers fall) because
//! those shapes are determined by message counts and sizes.

/// Cost-model parameters. Defaults approximate a commodity cluster
/// (1 µs latency, 10 GB/s ≅ 0.8 ns per f64, ~10 Gflop/s effective).
/// Only *ratios* matter for the reproduced tables.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Per-message latency λ (seconds).
    pub lambda: f64,
    /// Per-element transfer cost µ (seconds per f64).
    pub mu: f64,
    /// Per-flop compute cost γ (seconds per floating-point operation).
    pub gamma: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            lambda: 1.0e-6,
            mu: 0.8e-9,
            gamma: 1.0e-10,
        }
    }
}

impl CostModel {
    /// Cost of one message with `elems` vector elements.
    pub fn msg_cost(&self, elems: usize) -> f64 {
        self.lambda + elems as f64 * self.mu
    }

    /// Upper bound `φ·(λ + ⌈n/N⌉·µ)` from the paper's Sec. 4.2 on the
    /// per-iteration redundancy-communication overhead.
    pub fn redundancy_overhead_upper_bound(&self, phi: usize, n: usize, nodes: usize) -> f64 {
        phi as f64 * (self.lambda + (n as f64 / nodes as f64).ceil() * self.mu)
    }
}

/// A node's virtual clock.
#[derive(Clone, Debug)]
pub struct VClock {
    now: f64,
    model: CostModel,
}

impl VClock {
    /// A clock at time zero under `model`.
    pub(crate) fn new(model: CostModel) -> Self {
        VClock { now: 0.0, model }
    }

    /// Current virtual time (seconds).
    pub(crate) fn now(&self) -> f64 {
        self.now
    }

    /// The active cost model.
    pub(crate) fn model(&self) -> CostModel {
        self.model
    }

    /// Account for `flops` floating-point operations of local compute.
    pub fn advance_flops(&mut self, flops: usize) {
        self.now += flops as f64 * self.model.gamma;
    }

    /// Account for an arbitrary local cost (e.g. memory traffic dominated
    /// phases charged by element count).
    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.now += seconds;
    }

    /// Stamp an outgoing message: returns its arrival time at the receiver
    /// and advances the sender by the send overhead (the sender is busy for
    /// the full transfer in the one-element-at-a-time model of the paper).
    pub(crate) fn stamp_send(&mut self, elems: usize) -> f64 {
        let cost = self.model.msg_cost(elems);
        self.now += cost;
        self.now
    }

    /// Account for receiving a message with the given arrival stamp:
    /// the receiver cannot proceed before the message has arrived. Returns
    /// the stall — how long the clock jumped forward waiting (0 if the
    /// message had already arrived).
    pub(crate) fn absorb_arrival(&mut self, arrival_vtime: f64) -> f64 {
        if arrival_vtime > self.now {
            let stall = arrival_vtime - self.now;
            self.now = arrival_vtime;
            stall
        } else {
            0.0
        }
    }

    /// Reset to zero (between timed experiment sections).
    pub(crate) fn reset(&mut self) {
        self.now = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_sane() {
        let m = CostModel::default();
        assert!(m.lambda > 0.0 && m.mu > 0.0 && m.gamma > 0.0);
        // Latency dominates tiny messages; bandwidth dominates huge ones.
        assert!(m.msg_cost(1) < 2.0 * m.lambda);
        assert!(m.msg_cost(10_000_000) > 100.0 * m.lambda);
    }

    #[test]
    fn send_advances_sender_and_stamps_arrival() {
        let mut c = VClock::new(CostModel {
            lambda: 1.0,
            mu: 0.5,
            gamma: 0.0,
        });
        let arrival = c.stamp_send(4); // 1 + 4*0.5 = 3
        assert_eq!(arrival, 3.0);
        assert_eq!(c.now(), 3.0);
    }

    #[test]
    fn receive_waits_for_arrival() {
        let mut c = VClock::new(CostModel::default());
        assert_eq!(c.absorb_arrival(5.0), 5.0);
        assert_eq!(c.now(), 5.0);
        assert_eq!(c.absorb_arrival(2.0), 0.0); // already past: no regression
        assert_eq!(c.now(), 5.0);
    }

    #[test]
    fn flops_accumulate() {
        let mut c = VClock::new(CostModel {
            lambda: 0.0,
            mu: 0.0,
            gamma: 2.0,
        });
        c.advance_flops(3);
        assert_eq!(c.now(), 6.0);
    }

    #[test]
    fn upper_bound_matches_paper_formula() {
        let m = CostModel {
            lambda: 10.0,
            mu: 1.0,
            gamma: 0.0,
        };
        // φ(λ + ⌈n/N⌉µ) with n=100, N=8 → ⌈12.5⌉=13 → 3*(10+13)=69
        assert_eq!(m.redundancy_overhead_upper_bound(3, 100, 8), 69.0);
    }
}
