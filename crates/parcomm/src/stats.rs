//! Communication statistics, partitioned by algorithm phase.
//!
//! The paper's evaluation separates the *undisturbed* redundancy overhead
//! (extra elements appended to SpMV messages, Table 2 columns 3–5) from the
//! *reconstruction* cost (Table 2 columns 7–9). Tagging every send with a
//! [`CommPhase`] lets the benchmark harness compute both, and lets the
//! Sec. 4.2 analysis compare measured redundancy traffic against the
//! theoretical bounds.

use crate::observe::{split_elems, Event};

/// Which algorithm phase a message belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommPhase {
    /// Plan construction and other one-time setup.
    Setup,
    /// Ghost exchange required by SpMV regardless of resilience.
    Spmv,
    /// Extra elements sent only to maintain φ redundant copies (Eqn. 6).
    Redundancy,
    /// Scalar reductions (dot products, norms).
    Reduction,
    /// State reconstruction after failures (paper Alg. 2).
    Recovery,
    /// Everything else.
    Other,
}

/// Number of [`CommPhase`] variants (the length of per-phase arrays).
pub(crate) const NPHASES: usize = 6;

fn phase_index(p: CommPhase) -> usize {
    match p {
        CommPhase::Setup => 0,
        CommPhase::Spmv => 1,
        CommPhase::Redundancy => 2,
        CommPhase::Reduction => 3,
        CommPhase::Recovery => 4,
        CommPhase::Other => 5,
    }
}

impl CommPhase {
    /// Every phase, in [`CommPhase::index`] order.
    pub const ALL: [CommPhase; NPHASES] = [
        CommPhase::Setup,
        CommPhase::Spmv,
        CommPhase::Redundancy,
        CommPhase::Reduction,
        CommPhase::Recovery,
        CommPhase::Other,
    ];

    /// Stable index of this phase in `0..NPHASES`.
    pub fn index(self) -> usize {
        phase_index(self)
    }

    /// Short lowercase name for reports and trace lanes.
    pub fn name(self) -> &'static str {
        match self {
            CommPhase::Setup => "setup",
            CommPhase::Spmv => "spmv",
            CommPhase::Redundancy => "redundancy",
            CommPhase::Reduction => "reduction",
            CommPhase::Recovery => "recovery",
            CommPhase::Other => "other",
        }
    }
}

/// A deterministic logarithmic-bucket histogram over non-negative `f64`
/// samples. Bucket selection reads the sample's binary exponent straight
/// from its bit pattern — no floating-point `log` call, so two runs that
/// produce bitwise-identical samples produce identical histograms on any
/// platform. Bucket `0` collects zero (and any non-positive) samples;
/// bucket `k ≥ 1` collects samples in `[2^(k−32), 2^(k−31))`, covering
/// `~2.3e-10 .. ~4.3e9` — message sizes in elements and virtual-second
/// wait times both land comfortably inside. Out-of-range samples clamp to
/// the edge buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHist {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            buckets: [0; 64],
            count: 0,
        }
    }
}

impl LogHist {
    fn bucket(v: f64) -> usize {
        // NaN lands in the zero bucket too (partial_cmp → None).
        if v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return 0;
        }
        // IEEE-754 biased exponent; bias 1023, so `e − 1023 = ⌊log₂ v⌋`
        // for normal numbers (subnormals collapse into the low edge).
        let e = ((v.to_bits() >> 52) & 0x7ff) as i64;
        (e - 1023 + 32).clamp(1, 63) as usize
    }

    /// Upper bound of bucket `i` (0 for the zero bucket).
    fn upper_bound(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            (2.0f64).powi(i as i32 - 31)
        }
    }

    /// Record one sample.
    pub(crate) fn record(&mut self, v: f64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the upper bound of the bucket
    /// containing it — a deterministic overestimate within one octave.
    /// Returns 0 for an empty histogram.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::upper_bound(i);
            }
        }
        Self::upper_bound(63)
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Accumulate another histogram's samples into this one.
    pub(crate) fn merge(&mut self, other: &LogHist) {
        for i in 0..64 {
            self.buckets[i] += other.buckets[i];
        }
        self.count += other.count;
    }
}

/// Per-phase message/element counters for one node.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommStats {
    msgs: [u64; NPHASES],
    elems: [u64; NPHASES],
    /// Messages that opened a link no other traffic in the same round used
    /// (the paper's "extra latency" case, Sec. 4.2).
    extra_latency_msgs: u64,
    /// All-reduce collective calls this node participated in.
    allreduces: u64,
    /// Total communication rounds across those all-reduce calls (the
    /// critical-path depth: ⌈log₂N⌉, +2 on non-power-of-two sizes).
    allreduce_rounds: u64,
    /// Virtual seconds the node clock advanced *inside blocking sends*
    /// (`λ + s·µ` per message — the sender is busy for the transfer).
    send_vtime: [f64; NPHASES],
    /// Virtual seconds the node clock advanced *stalled*: blocked in a
    /// `recv` waiting for a message that had not yet arrived, or charged at
    /// a non-blocking `wait` for the un-hidden remainder of the operation.
    wait_vtime: [f64; NPHASES],
    /// Virtual seconds of non-blocking communication that overlapped local
    /// compute — flight time the node clock never had to pay for.
    hidden_vtime: [f64; NPHASES],
    /// The histograms, boxed: inline they made this struct 3.9 KB, a
    /// value every node thread holds and copies through its frames.
    hists: Box<Hists>,
}

#[derive(Clone, Debug, Default, PartialEq)]
struct Hists {
    /// Distribution of message sizes (in elements), all phases together.
    msg_size: LogHist,
    /// Per-phase distribution of individual wait charges (blocking recv
    /// stalls and non-blocking `wait` exposures, in virtual seconds).
    wait: [LogHist; NPHASES],
}

impl CommStats {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The statistics' reading of the event stream (see [`crate::observe`]):
    /// messages and elements per send, transfer time of blocking sends,
    /// stalls of blocking receives, the exposed/hidden split of every
    /// `wait`, rounds per all-reduce. Engine-timeline sends and receives
    /// carry no node-clock time; theirs surfaces at the `Wait`. Inlined
    /// into `emit`, where the variant is known: an event the statistics do
    /// not read costs a default build nothing.
    #[inline]
    pub(crate) fn observe(&mut self, ev: &Event<'_>) {
        match *ev {
            Event::Send {
                phase,
                split,
                dt,
                engine,
                ..
            } => {
                self.record_split_send(split);
                if !engine {
                    self.record_send_vtime(phase, dt);
                }
            }
            Event::Recv {
                phase,
                stall,
                engine: false,
                ..
            } => self.record_wait_vtime(phase, stall),
            Event::Wait {
                phase,
                exposed,
                hidden,
            } => {
                self.record_wait_vtime(phase, exposed);
                self.record_hidden_vtime(phase, hidden);
            }
            Event::Allreduce { rounds } => self.record_allreduce(rounds),
            _ => {}
        }
    }

    /// Record a sent message of `elems` vector elements in `phase`.
    #[cfg(test)]
    pub(crate) fn record_send(&mut self, phase: CommPhase, elems: usize) {
        self.record_split_send(&[(phase, elems)]);
    }

    /// Record one physical message whose elements belong to several phases:
    /// the message counts under the first phase of `split`, each phase
    /// books its own elements, and the size histogram gets the one total.
    fn record_split_send(&mut self, split: &[(CommPhase, usize)]) {
        self.msgs[phase_index(split[0].0)] += 1;
        for &(phase, elems) in split {
            self.elems[phase_index(phase)] += elems as u64;
        }
        self.hists.msg_size.record(split_elems(split) as f64);
    }

    /// Record that a redundancy message needed its own link (extra λ).
    pub fn record_extra_latency(&mut self) {
        self.extra_latency_msgs += 1;
    }

    /// Record one all-reduce call that took `rounds` communication rounds.
    pub(crate) fn record_allreduce(&mut self, rounds: usize) {
        self.allreduces += 1;
        self.allreduce_rounds += rounds as u64;
    }

    /// Record virtual time spent inside a blocking send in `phase`.
    pub(crate) fn record_send_vtime(&mut self, phase: CommPhase, dt: f64) {
        debug_assert!(dt >= 0.0);
        self.send_vtime[phase_index(phase)] += dt;
    }

    /// Record virtual time spent stalled (blocking `recv` arrival wait or
    /// the exposed remainder charged by a non-blocking `wait`) in `phase`.
    pub(crate) fn record_wait_vtime(&mut self, phase: CommPhase, dt: f64) {
        debug_assert!(dt >= 0.0);
        let i = phase_index(phase);
        self.wait_vtime[i] += dt;
        self.hists.wait[i].record(dt);
    }

    /// Record non-blocking communication time hidden behind compute.
    pub(crate) fn record_hidden_vtime(&mut self, phase: CommPhase, dt: f64) {
        debug_assert!(dt >= 0.0);
        self.hidden_vtime[phase_index(phase)] += dt;
    }

    /// Messages sent in `phase`.
    pub fn msgs(&self, phase: CommPhase) -> u64 {
        self.msgs[phase_index(phase)]
    }

    /// Elements sent in `phase`.
    pub fn elems(&self, phase: CommPhase) -> u64 {
        self.elems[phase_index(phase)]
    }

    /// Total messages across phases.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total elements across phases.
    pub fn total_elems(&self) -> u64 {
        self.elems.iter().sum()
    }

    /// Redundancy messages that paid their own latency.
    pub fn extra_latency_msgs(&self) -> u64 {
        self.extra_latency_msgs
    }

    /// All-reduce calls this node participated in.
    pub fn allreduces(&self) -> u64 {
        self.allreduces
    }

    /// Total rounds across all all-reduce calls (divide by
    /// [`CommStats::allreduces`] for the per-call critical-path depth).
    pub fn allreduce_rounds(&self) -> u64 {
        self.allreduce_rounds
    }

    /// Virtual time spent inside blocking sends in `phase`.
    pub fn send_vtime(&self, phase: CommPhase) -> f64 {
        self.send_vtime[phase_index(phase)]
    }

    /// Virtual time spent stalled waiting in `phase`.
    pub fn wait_vtime(&self, phase: CommPhase) -> f64 {
        self.wait_vtime[phase_index(phase)]
    }

    /// Non-blocking communication time hidden behind compute in `phase`.
    pub fn hidden_vtime(&self, phase: CommPhase) -> f64 {
        self.hidden_vtime[phase_index(phase)]
    }

    /// Distribution of message sizes in elements (all phases).
    pub fn msg_size_hist(&self) -> &LogHist {
        &self.hists.msg_size
    }

    /// Distribution of individual wait charges in `phase`.
    pub fn wait_hist(&self, phase: CommPhase) -> &LogHist {
        &self.hists.wait[phase_index(phase)]
    }

    /// *Exposed* communication time in `phase`: virtual time the node clock
    /// actually advanced doing communication (blocking send transfers plus
    /// stalls). Hidden time is excluded — that is the point of the split.
    pub fn exposed_vtime(&self, phase: CommPhase) -> f64 {
        let i = phase_index(phase);
        self.send_vtime[i] + self.wait_vtime[i]
    }

    /// Merge another node's counters into this one (cluster-wide totals).
    pub fn merge(&mut self, other: &CommStats) {
        for i in 0..NPHASES {
            self.msgs[i] += other.msgs[i];
            self.elems[i] += other.elems[i];
            self.send_vtime[i] += other.send_vtime[i];
            self.wait_vtime[i] += other.wait_vtime[i];
            self.hidden_vtime[i] += other.hidden_vtime[i];
            self.hists.wait[i].merge(&other.hists.wait[i]);
        }
        self.hists.msg_size.merge(&other.hists.msg_size);
        self.extra_latency_msgs += other.extra_latency_msgs;
        self.allreduces += other.allreduces;
        self.allreduce_rounds += other.allreduce_rounds;
    }

    /// Reset all counters (between timed experiment sections).
    pub(crate) fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_phase() {
        let mut s = CommStats::new();
        s.record_send(CommPhase::Spmv, 100);
        s.record_send(CommPhase::Spmv, 50);
        s.record_send(CommPhase::Redundancy, 7);
        assert_eq!(s.msgs(CommPhase::Spmv), 2);
        assert_eq!(s.elems(CommPhase::Spmv), 150);
        assert_eq!(s.msgs(CommPhase::Redundancy), 1);
        assert_eq!(s.elems(CommPhase::Redundancy), 7);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_elems(), 157);
    }

    #[test]
    fn split_send_is_one_message_with_per_phase_elements() {
        fn send(split: &[(CommPhase, usize)], phase: CommPhase) -> Event<'_> {
            Event::Send {
                phase,
                dst: 1,
                tag: crate::tag::Tag::user(0),
                split,
                dt: 0.5,
                engine: false,
            }
        }
        // A ghost-exchange message carrying natural and redundancy
        // elements, one carrying redundancy only (its leading slot is
        // empty), and a plain send.
        let mut s = CommStats::new();
        let both = [(CommPhase::Spmv, 100), (CommPhase::Redundancy, 28)];
        s.observe(&send(&both, CommPhase::Spmv));
        let extra = [(CommPhase::Spmv, 0), (CommPhase::Redundancy, 7)];
        s.observe(&send(&extra, CommPhase::Redundancy));
        s.observe(&send(&[(CommPhase::Reduction, 1)], CommPhase::Reduction));
        // Messages count under the first phase of their split…
        assert_eq!(s.msgs(CommPhase::Spmv), 2);
        assert_eq!(s.msgs(CommPhase::Redundancy), 0);
        assert_eq!(s.msgs(CommPhase::Reduction), 1);
        // …elements under their own phase…
        assert_eq!(s.elems(CommPhase::Spmv), 100);
        assert_eq!(s.elems(CommPhase::Redundancy), 35);
        assert_eq!(s.elems(CommPhase::Reduction), 1);
        // …transfer time under the first phase that contributes elements…
        assert_eq!(s.send_vtime(CommPhase::Spmv), 0.5);
        assert_eq!(s.send_vtime(CommPhase::Redundancy), 0.5);
        // …and the size histogram holds one sample per physical message:
        // its total size, not one sample per phase slice.
        assert_eq!(s.msg_size_hist().count(), s.total_msgs());
        assert_eq!(s.msg_size_hist().quantile(1.0), 256.0); // 128 ∈ [128, 256)
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CommStats::new();
        a.record_send(CommPhase::Recovery, 10);
        let mut b = CommStats::new();
        b.record_send(CommPhase::Recovery, 5);
        b.record_extra_latency();
        a.merge(&b);
        assert_eq!(a.elems(CommPhase::Recovery), 15);
        assert_eq!(a.extra_latency_msgs(), 1);
    }

    #[test]
    fn wait_accounting_merges_per_phase() {
        let mut a = CommStats::new();
        a.record_send_vtime(CommPhase::Reduction, 1.0);
        a.record_wait_vtime(CommPhase::Reduction, 2.0);
        a.record_hidden_vtime(CommPhase::Reduction, 3.0);
        a.record_wait_vtime(CommPhase::Spmv, 0.5);
        let mut b = CommStats::new();
        b.record_wait_vtime(CommPhase::Reduction, 4.0);
        b.record_hidden_vtime(CommPhase::Spmv, 1.5);
        a.merge(&b);
        assert_eq!(a.wait_vtime(CommPhase::Reduction), 6.0);
        assert_eq!(a.hidden_vtime(CommPhase::Reduction), 3.0);
        assert_eq!(a.exposed_vtime(CommPhase::Reduction), 7.0);
        assert_eq!(a.wait_vtime(CommPhase::Spmv), 0.5);
        assert_eq!(a.hidden_vtime(CommPhase::Spmv), 1.5);
    }

    #[test]
    fn loghist_buckets_by_octave() {
        let mut h = LogHist::default();
        for _ in 0..99 {
            h.record(1.5); // [1, 2)
        }
        h.record(1000.0); // [512, 1024)
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 2.0);
        assert_eq!(h.p99(), 2.0);
        assert_eq!(h.quantile(1.0), 1024.0);
    }

    #[test]
    fn loghist_zero_and_empty() {
        let h = LogHist::default();
        assert_eq!(h.p50(), 0.0);
        let mut h = LogHist::default();
        h.record(0.0);
        h.record(-3.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn loghist_merge_accumulates() {
        let mut a = LogHist::default();
        a.record(4.0);
        let mut b = LogHist::default();
        b.record(4.0);
        b.record(1e-6);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        // Two of three samples in [4, 8) ⇒ the median bucket is [4, 8).
        assert_eq!(a.p50(), 8.0);
    }

    #[test]
    fn loghist_deterministic_on_tiny_vtimes() {
        // Wait-time scale samples land in distinct, reproducible buckets.
        let mut h = LogHist::default();
        h.record(1.2e-5);
        h.record(2.5e-5);
        assert_eq!(h.count(), 2);
        assert_eq!(h.p50(), h.quantile(0.5));
        assert!(h.p50() > 1.2e-5 && h.p50() < 1.2e-4, "{}", h.p50());
    }

    #[test]
    fn stats_histograms_follow_sends_and_waits() {
        let mut a = CommStats::new();
        a.record_send(CommPhase::Spmv, 100);
        a.record_wait_vtime(CommPhase::Reduction, 1e-5);
        let mut b = CommStats::new();
        b.record_send(CommPhase::Spmv, 100);
        a.merge(&b);
        assert_eq!(a.msg_size_hist().count(), 2);
        assert_eq!(a.wait_hist(CommPhase::Reduction).count(), 1);
        assert_eq!(a.msg_size_hist().p99(), 128.0); // 100 ∈ [64, 128)
    }

    #[test]
    fn reset_clears() {
        let mut s = CommStats::new();
        s.record_send(CommPhase::Other, 3);
        s.reset();
        assert_eq!(s.total_msgs(), 0);
        assert_eq!(s.total_elems(), 0);
    }
}
