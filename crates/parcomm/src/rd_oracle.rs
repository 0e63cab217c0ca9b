//! Test oracle for the scheduler-resident collectives: the message-passing
//! recursive-doubling all-reduce and the point-to-point personalized
//! all-to-all they replaced, kept verbatim over an in-memory transport,
//! with the blocking and the engine accounting the node context used to
//! apply per message.
//!
//! The property tests run the oracle on free-running threads (its result
//! cannot depend on their timing: stamps are fixed by the sender, matching
//! is per source) and the resident path on a real [`Cluster`], from the
//! same skewed entry clocks, and demand bitwise equality of everything a
//! participant can observe: the reduced buffer or the received lists, its
//! final clock (or the engine's completion time), and its whole
//! [`CommStats`] — rounds, messages, elements, send/wait virtual time, and
//! both histograms.

use std::sync::{Condvar, Mutex};

use proptest::prelude::*;

use crate::comm::ReduceOp;
use crate::sched::RdShape;
use crate::stats::{CommPhase, CommStats};
use crate::vclock::{CostModel, VClock};
use crate::{Cluster, ClusterConfig};

/// How a recursive-doubling round moves bytes and time.
trait RdPort {
    fn port_send(&mut self, peer: usize, x: Vec<f64>);
    fn port_recv(&mut self, peer: usize) -> Vec<f64>;
}

/// Recursive-doubling all-reduce over `n` participants by message exchange
/// (fold-in, doubling, fold-out — see [`RdShape`]). Returns the reduced
/// buffer and the number of rounds this participant took part in.
fn rd_allreduce<P: RdPort>(
    port: &mut P,
    my_index: usize,
    n: usize,
    members: &[usize],
    opr: ReduceOp,
    x: Vec<f64>,
) -> (Vec<f64>, usize) {
    if n == 1 {
        return (x, 0);
    }
    let rank_of = |i: usize| members[i];
    let mut acc = x;
    let RdShape { pof2, rem } = RdShape::new(n);
    let mut rounds = 0usize;

    // Phase 1: fold-in.
    let newidx = if my_index < 2 * rem {
        rounds += 1;
        if my_index.is_multiple_of(2) {
            port.port_send(rank_of(my_index + 1), acc.clone());
            None // folded out until phase 3
        } else {
            let theirs = port.port_recv(rank_of(my_index - 1));
            acc = combined(opr, theirs, &acc); // lower index first
            Some(my_index / 2)
        }
    } else {
        Some(my_index - rem)
    };

    // Phase 2: doubling among the pof2 survivors. `orig` maps a doubling
    // index back to the participant index holding it.
    if let Some(v) = newidx {
        let orig = |d: usize| if d < rem { 2 * d + 1 } else { d + rem };
        let mut mask = 1usize;
        while mask < pof2 {
            let peer = rank_of(orig(v ^ mask));
            port.port_send(peer, acc.clone());
            let theirs = port.port_recv(peer);
            if v & mask == 0 {
                opr.combine(&mut acc, &theirs);
            } else {
                acc = combined(opr, theirs, &acc);
            }
            mask <<= 1;
            rounds += 1;
        }
    }

    // Phase 3: fold-out.
    if my_index < 2 * rem {
        rounds += 1;
        if my_index % 2 == 1 {
            port.port_send(rank_of(my_index - 1), acc.clone());
        } else {
            acc = port.port_recv(rank_of(my_index + 1));
        }
    }
    (acc, rounds)
}

/// `lower ⊕ higher` with the lower-index group as the left operand.
fn combined(opr: ReduceOp, mut lower: Vec<f64>, higher: &[f64]) -> Vec<f64> {
    opr.combine(&mut lower, higher);
    lower
}

/// The point-to-point all-to-all the resident one replaced: post all sends
/// in ascending participant order (empty lists included — every pair
/// exchanges a message), then receive in ascending order; the own slot is
/// passed through untouched.
fn p2p_alltoall<P: RdPort>(
    port: &mut P,
    my_index: usize,
    members: &[usize],
    mut sends: Vec<Vec<f64>>,
) -> Vec<Vec<f64>> {
    let n = members.len();
    let mut own = Some(std::mem::take(&mut sends[my_index]));
    for i in (0..n).filter(|&i| i != my_index) {
        port.port_send(members[i], std::mem::take(&mut sends[i]));
    }
    let recvd = (0..n).map(|i| {
        if i == my_index {
            own.take().expect("own slot filled once")
        } else {
            port.port_recv(members[i])
        }
    });
    recvd.collect()
}

/// A message in flight: source rank, buffer, arrival stamp.
type Wire = (usize, Vec<f64>, f64);

/// The in-memory transport: one inbox per rank, matched by source.
struct MemTransport {
    inboxes: Vec<(Mutex<Vec<Wire>>, Condvar)>,
}

impl MemTransport {
    fn new(ranks: usize) -> Self {
        MemTransport {
            inboxes: (0..ranks).map(|_| Default::default()).collect(),
        }
    }

    fn send(&self, src: usize, dest: usize, x: Vec<f64>, arrival: f64) {
        let (inbox, arrived) = &self.inboxes[dest];
        inbox.lock().unwrap().push((src, x, arrival));
        arrived.notify_one();
    }

    fn recv(&self, me: usize, src: usize) -> (Vec<f64>, f64) {
        let (inbox, arrived) = &self.inboxes[me];
        let mut inbox = inbox.lock().unwrap();
        loop {
            if let Some(pos) = inbox.iter().position(|m| m.0 == src) {
                let (_, x, arrival) = inbox.remove(pos);
                return (x, arrival);
            }
            inbox = arrived.wait(inbox).unwrap();
        }
    }
}

/// One participant's accounting, as `send_tag`/`recv_tag` (blocking) and
/// the detached engine port (`engine: Some(now)`) applied it per message.
struct OraclePort<'a> {
    net: &'a MemTransport,
    rank: usize,
    phase: CommPhase,
    clock: VClock,
    stats: CommStats,
    engine: Option<f64>,
}

impl RdPort for OraclePort<'_> {
    fn port_send(&mut self, peer: usize, x: Vec<f64>) {
        let elems = x.len();
        self.stats.record_send(self.phase, elems);
        let arrival = match &mut self.engine {
            None => {
                let t0 = self.clock.now();
                let arrival = self.clock.stamp_send(elems);
                self.stats.record_send_vtime(self.phase, arrival - t0);
                arrival
            }
            Some(now) => {
                *now += self.clock.model().msg_cost(elems);
                *now
            }
        };
        self.net.send(self.rank, peer, x, arrival);
    }

    fn port_recv(&mut self, peer: usize) -> Vec<f64> {
        let (x, arrival) = self.net.recv(self.rank, peer);
        match &mut self.engine {
            None => {
                let stall = self.clock.absorb_arrival(arrival);
                self.stats.record_wait_vtime(self.phase, stall);
            }
            Some(now) => {
                if arrival > *now {
                    *now = arrival;
                }
            }
        }
        x
    }
}

/// Everything a participant can observe of one all-reduce.
#[derive(Debug, PartialEq)]
struct Observed {
    result_bits: Vec<u64>,
    /// Node clock afterwards (untouched by a non-blocking start).
    clock_bits: u64,
    /// Completion time on the timeline the rounds were booked on.
    done_bits: u64,
    stats: CommStats,
}

struct Case {
    /// Global ranks of the participants, ascending; a group unless it is
    /// exactly `0..cluster`.
    members: Vec<usize>,
    cluster: usize,
    opr: ReduceOp,
    phase: CommPhase,
    /// Per participant index: contribution, entry-clock skew, non-blocking?
    x: Vec<Vec<f64>>,
    skew: Vec<f64>,
    engine: Vec<bool>,
}

fn oracle(case: &Case) -> Vec<Observed> {
    let net = MemTransport::new(case.cluster);
    let n = case.members.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let net = &net;
                s.spawn(move || {
                    let mut clock = VClock::new(CostModel::default());
                    clock.advance(case.skew[i]);
                    let mut port = OraclePort {
                        net,
                        rank: case.members[i],
                        phase: case.phase,
                        engine: case.engine[i].then_some(clock.now()),
                        clock,
                        stats: CommStats::new(),
                    };
                    let x = case.x[i].clone();
                    let (acc, rounds) = rd_allreduce(&mut port, i, n, &case.members, case.opr, x);
                    port.stats.record_allreduce(rounds);
                    Observed {
                        result_bits: acc.iter().map(|v| v.to_bits()).collect(),
                        clock_bits: port.clock.now().to_bits(),
                        done_bits: port.engine.unwrap_or(port.clock.now()).to_bits(),
                        stats: port.stats,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn resident(case: &Case) -> Vec<Observed> {
    let world = case.members.len() == case.cluster;
    let out = Cluster::run_async(ClusterConfig::new(case.cluster), async |ctx| {
        let i = case.members.iter().position(|&r| r == ctx.rank())?;
        ctx.clock_mut().advance(case.skew[i]);
        let (opr, x) = (case.opr, case.x[i].clone());
        let mut group = (!world).then(|| ctx.group(&case.members));
        if case.engine[i] {
            let req = match &mut group {
                Some(g) => g.iallreduce_vec(ctx, opr, x, case.phase).await,
                None => ctx.iallreduce_vec(opr, x).await,
            };
            let seen = (ctx.vtime(), req.completion_vtime(), ctx.stats().clone());
            Some((req.wait(ctx), seen))
        } else {
            let acc = match &mut group {
                Some(g) => g.allreduce_vec(ctx, opr, x, case.phase).await,
                None => ctx.allreduce_vec(opr, x).await,
            };
            Some((acc, (ctx.vtime(), ctx.vtime(), ctx.stats().clone())))
        }
    });
    out.values
        .into_iter()
        .flatten()
        .map(|(acc, (clock, done, stats))| Observed {
            result_bits: acc.iter().map(|v| v.to_bits()).collect(),
            clock_bits: clock.to_bits(),
            done_bits: done.to_bits(),
            stats,
        })
        .collect()
}

/// One world all-to-all: per rank, what it sends to every rank (index
/// values small enough to be exact as `f64`, which is what the oracle's
/// transport carries) and its entry-clock skew.
struct ExchangeCase {
    sends: Vec<Vec<Vec<u64>>>,
    skew: Vec<f64>,
}

/// Received lists as one comparable row: per source, length then entries.
fn list_bits(lists: impl IntoIterator<Item = Vec<u64>>) -> Vec<u64> {
    let framed = lists.into_iter();
    framed
        .flat_map(|l| std::iter::once(l.len() as u64).chain(l))
        .collect()
}

fn oracle_exchange(case: &ExchangeCase) -> Vec<Observed> {
    let n = case.sends.len();
    let net = MemTransport::new(n);
    let members: Vec<usize> = (0..n).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let members = &members;
                let net = &net;
                s.spawn(move || {
                    let mut clock = VClock::new(CostModel::default());
                    clock.advance(case.skew[i]);
                    let mut port = OraclePort {
                        net,
                        rank: i,
                        // The world all-to-all is plan setup.
                        phase: CommPhase::Setup,
                        engine: None,
                        clock,
                        stats: CommStats::new(),
                    };
                    let as_f64 = |l: &Vec<u64>| l.iter().map(|&v| v as f64).collect();
                    let sends = case.sends[i].iter().map(as_f64).collect();
                    let recvd = p2p_alltoall(&mut port, i, members, sends);
                    let as_u64 = |l: Vec<f64>| l.into_iter().map(|v| v as u64).collect();
                    Observed {
                        result_bits: list_bits(recvd.into_iter().map(as_u64)),
                        clock_bits: port.clock.now().to_bits(),
                        done_bits: port.clock.now().to_bits(),
                        stats: port.stats,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The resident all-to-all, its result widened to one list per source for
/// the comparison. With `list_empties` every destination is named, the
/// ones that get nothing with an empty list; otherwise those are left out.
fn resident_exchange(case: &ExchangeCase, list_empties: bool) -> Vec<Observed> {
    let n = case.sends.len();
    let out = Cluster::run_async(ClusterConfig::new(n), async |ctx| {
        let i = ctx.rank();
        ctx.clock_mut().advance(case.skew[i]);
        let sends = case.sends[i].clone().into_iter().enumerate();
        let sends = sends
            .filter(|(_, l)| list_empties || !l.is_empty())
            .collect();
        let got = ctx.alltoallv_sparse_u64(sends).await;
        let mut recvd = vec![Vec::new(); n];
        for (src, l) in got {
            assert!(!l.is_empty() && recvd[src].is_empty(), "sparse result");
            recvd[src] = l;
        }
        (recvd, ctx.vtime(), ctx.stats().clone())
    });
    out.values
        .into_iter()
        .map(|(recvd, clock, stats)| Observed {
            result_bits: list_bits(recvd),
            clock_bits: clock.to_bits(),
            done_bits: clock.to_bits(),
            stats,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    #[cfg_attr(miri, ignore)]
    fn resident_alltoall_matches_the_point_to_point_oracle(seed in any::<u64>()) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for n in 1usize..=12 {
            for list_empties in [false, true] {
                // Ragged and mostly empty: three pairs in four exchange
                // nothing, every third participant sends nothing at all,
                // and the own slot is sometimes filled (passed through).
                let sends = (0..n).map(|i| {
                    let silent = i % 3 == 2 && next() % 2 == 0;
                    (0..n).map(|_| {
                        let len = if silent || next() % 4 != 0 { 0 } else { 1 + next() % 5 };
                        (0..len).map(|_| next() % 100_000).collect()
                    }).collect()
                }).collect();
                let case = ExchangeCase {
                    sends,
                    skew: (0..n)
                        .map(|_| if next() % 4 == 0 { 0.0 } else { (next() % 64_000) as f64 * 1e-9 })
                        .collect(),
                };
                let (want, got) = (oracle_exchange(&case), resident_exchange(&case, list_empties));
                prop_assert_eq!(want.len(), got.len());
                for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                    prop_assert_eq!(w, g, "n={} list_empties={} index {}", n, list_empties, i);
                }
            }
        }
    }

    // ~80 000 thread spawns: far too slow under Miri's interpreter, which
    // runs the scheduler through the small cluster unit tests instead.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn resident_collectives_match_the_message_passing_oracle(seed in any::<u64>()) {
        // SplitMix64: the inputs only need to be varied and reproducible.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Every size up to 40 (so every non-power-of-two shape below it),
        // every length 0..=4; operator, accounting and communicator kind
        // cycle so each combination meets many shapes.
        for n in 1usize..=40 {
            for len in 0usize..=4 {
                let opr = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][(n + len) % 3];
                let grouped = (n + len) % 2 == 0;
                // Non-contiguous members: skip every rank ≡ 1 (mod 3).
                let members: Vec<usize> = if grouped {
                    (0..).filter(|r| r % 3 != 1).take(n).collect()
                } else {
                    (0..n).collect()
                };
                let case = Case {
                    cluster: members[n - 1] + 1 + usize::from(grouped),
                    members,
                    opr,
                    // World collectives always book under Reduction.
                    phase: if grouped { CommPhase::Recovery } else { CommPhase::Reduction },
                    x: (0..n)
                        .map(|_| (0..len).map(|_| (next() % 2001) as f64 / 7.0 - 100.0).collect())
                        .collect(),
                    // Entry clocks skewed by 0..64 µs against λ = 1 µs, a
                    // quarter of them not at all.
                    skew: (0..n)
                        .map(|_| if next() % 4 == 0 { 0.0 } else { (next() % 64_000) as f64 * 1e-9 })
                        .collect(),
                    // All blocking, all engine, or mixed in one collective.
                    engine: (0..n)
                        .map(|i| match (n / 3 + len) % 3 { 0 => false, 1 => true, _ => i % 2 == 1 })
                        .collect(),
                };
                let (want, got) = (oracle(&case), resident(&case));
                prop_assert_eq!(want.len(), got.len());
                for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                    prop_assert_eq!(w, g, "n={} len={} {:?} grouped={} index {}", n, len, opr, grouped, i);
                }
            }
        }
    }
}
