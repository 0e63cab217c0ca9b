//! The recovery matrix, pinned bitwise against committed values.
//!
//! `determinism.rs` compares a run with a second run and
//! `iteration_pinning.rs` pins counts and a few trajectories; neither
//! notices a refactor of the restart protocol that moves a recovery's
//! virtual time, a substep boundary or the order of restarted attempts the
//! same way in every run. Here every cell of
//!
//! {ESR, C/R} × {PCG, PipeCG, BiCGSTAB} × {Replace, Spares(1), Shrink}
//!            × {ψ = 1, ψ = 2, overlap at substep 0/1/2/3, ψ = 2 + overlap}
//!            × {(iteration 0, rank 0), (iteration 6, rank N−1)}
//!
//! on `poisson2d(14, 13)`, N = 7, φ = 3 (C/R: interval 4, 3 copies) is
//! solved with the tracer on and folded into three FNV-1a values per
//! protection × solver:
//!
//! * *numerics* — iterations, recoveries, ranks recovered and the bits of
//!   both residuals and of every `x`: what the solve computed;
//! * *cost* — the bits of every virtual time and the per-phase message /
//!   element / send / wait / hidden totals of the cluster and of every
//!   node, and every segment of every node's recovery timelines: what the
//!   solve cost on the virtual clock;
//! * *trace* — the Chrome-trace JSON of every solve: every span, message
//!   and wait in order with its virtual timestamp.
//!
//! The tracer is observational, so the numerics and cost pins are the same
//! whether a solve is traced or not, in every profile. A change to the
//! communication protocol that moves only the clock re-pins cost and trace
//! and leaves numerics alone. A change that moves a value on purpose
//! re-pins: the failure message prints the cell and its new values in the
//! form the tables below take, and per cell its iterations, inner
//! iterations, both residuals, `vtime` and `vtime_recovery`, so a move can
//! be read (and diffed against the parent's output) rather than only seen
//! in hex.

mod common;

use common::grid::{check, grid, matrix, overlap, Cell};
use esr_core::{CrConfig, ExperimentResult, Protection, RecoveryPolicy, SolverKind as Solver};
use parcomm::{CommPhase, CommStats, FailureScript};
use sparsemat::gen::poisson2d;

const NODES: usize = 7;
const PHI: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Prot {
    Esr,
    Cr,
}

const NUMERICS: [(Prot, Solver, u64); 6] = [
    (Prot::Esr, Solver::Pcg, 0x664b25d08f1ecdd1),
    (Prot::Esr, Solver::PipeCg, 0x64f6497fdb391e7d),
    (Prot::Esr, Solver::BiCgStab, 0x41794dbfa8877bd5),
    (Prot::Cr, Solver::Pcg, 0x1bfe4369a8cf7d43),
    (Prot::Cr, Solver::PipeCg, 0x7c3c23cdb4aca04e),
    (Prot::Cr, Solver::BiCgStab, 0xa4ba21bd5cf6f447),
];

const COST: [(Prot, Solver, u64); 6] = [
    (Prot::Esr, Solver::Pcg, 0xeab64a3e44da8e67),
    (Prot::Esr, Solver::PipeCg, 0x73ce1fa64f18ee95),
    (Prot::Esr, Solver::BiCgStab, 0xfe52c4b0638cf817),
    (Prot::Cr, Solver::Pcg, 0xfbcf331e94712471),
    (Prot::Cr, Solver::PipeCg, 0x4f2ecb50c5e63542),
    (Prot::Cr, Solver::BiCgStab, 0xbff36d417e757bea),
];

const TRACE: [(Prot, Solver, u64); 6] = [
    (Prot::Esr, Solver::Pcg, 0x92477f748feb6800),
    (Prot::Esr, Solver::PipeCg, 0x5d1e588624d12f2b),
    (Prot::Esr, Solver::BiCgStab, 0xe7cd7c40830fe706),
    (Prot::Cr, Solver::Pcg, 0xef6b8cb72de1f112),
    (Prot::Cr, Solver::PipeCg, 0xad3304c1e0d1fd4b),
    (Prot::Cr, Solver::BiCgStab, 0x996af951747661ab),
];

/// The failure modes at iteration `at` from rank `first`: ψ = 1, ψ = 2,
/// one rank and a second at restart substep 0/1/2/3 of its recovery, and
/// two ranks and a third at substep 2 of theirs.
fn modes(at: u64, first: usize) -> Vec<FailureScript> {
    let rank = |i: usize| (first + i) % NODES;
    let simultaneous = |psi| FailureScript::simultaneous(at, first, psi, NODES);
    let mut modes = vec![simultaneous(1), simultaneous(2)];
    modes.extend((0..4).map(|s| overlap(at, vec![first], &[(s, rank(2))])));
    modes.push(overlap(at, vec![first, rank(1)], &[(2, rank(3))]));
    modes
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn stats(&mut self, stats: &CommStats) {
        for phase in CommPhase::ALL {
            self.u64(stats.msgs(phase));
            self.u64(stats.elems(phase));
            self.f64(stats.send_vtime(phase));
            self.f64(stats.wait_vtime(phase));
            self.f64(stats.hidden_vtime(phase));
        }
        self.u64(stats.allreduces());
        self.u64(stats.allreduce_rounds());
        self.u64(stats.extra_latency_msgs());
    }

    fn numerics(&mut self, res: &ExperimentResult) {
        self.u64(res.iterations as u64);
        self.u64(res.recoveries as u64);
        self.u64(res.ranks_recovered as u64);
        self.f64(res.solver_residual);
        self.f64(res.true_residual);
        for &xi in &res.x {
            self.f64(xi);
        }
    }

    fn cost(&mut self, res: &ExperimentResult) {
        for v in [res.vtime, res.vtime_recovery, res.vtime_setup] {
            self.f64(v);
        }
        self.stats(&res.stats);
        for o in &res.per_node {
            self.u64(o.rank as u64);
            self.u64(u64::from(o.retired));
            self.u64(o.iterations as u64);
            for v in [o.vtime_total, o.vtime_recovery, o.vtime_setup] {
                self.f64(v);
            }
            self.stats(&o.stats);
            for tl in &o.recovery_timelines {
                self.u64(tl.iteration);
                self.bytes(tl.flavor.as_bytes());
                for seg in &tl.segments {
                    self.u64(seg.attempt as u64);
                    self.bytes(seg.label.as_bytes());
                    self.f64(seg.vtime);
                }
            }
        }
    }

    fn trace(&mut self, res: &ExperimentResult) {
        let trace = res.trace.as_ref().expect("every cell is traced");
        self.bytes(trace.chrome_trace_json().as_bytes());
    }
}

/// The (numerics, cost, trace) fingerprints of one protection × solver, and
/// one readable line per cell for a mismatch to print. Every cell is also
/// held to its failure-free twin.
fn fingerprint(prot: Prot, solver: Solver) -> ([u64; 3], Vec<String>) {
    let protection = match prot {
        Prot::Esr => Protection::Esr,
        Prot::Cr => Protection::Checkpoint(CrConfig::default().with_interval(4).with_copies(PHI)),
    };
    let base = Cell {
        protection,
        tune: |cfg| cfg.trace = true,
        ..Cell::new(
            matrix!(poisson2d(14, 13)),
            NODES,
            PHI,
            FailureScript::none(),
        )
    };
    let policies = [
        RecoveryPolicy::Replace,
        RecoveryPolicy::Spares(1),
        RecoveryPolicy::Shrink,
    ];
    let [early, late] = [(0, 0), (6, NODES - 1)].map(|(at, first)| modes(at, first));
    let schedules: Vec<_> = (early.into_iter().zip(late))
        .flat_map(|(e, l)| [e, l])
        .collect();
    let (mut numerics, mut cost, mut trace) = (Fnv::new(), Fnv::new(), Fnv::new());
    let mut cells = Vec::new();
    for cell in grid(&base, &[solver], &policies, &schedules) {
        let res = check(&cell).res;
        numerics.numerics(&res);
        cost.cost(&res);
        trace.trace(&res);
        cells.push(format!(
            "{}: iterations {}, inner iterations {}, solver_residual {:e}, \
             true_residual {:e}, vtime {:e}, vtime_recovery {:e}",
            cell.label(),
            res.iterations,
            res.inner_iterations,
            res.solver_residual,
            res.true_residual,
            res.vtime,
            res.vtime_recovery
        ));
    }
    ([numerics.0, cost.0, trace.0], cells)
}

fn check_pins(prot: Prot, solver: Solver) {
    let pinned = |table: &[(Prot, Solver, u64)]| {
        table
            .iter()
            .find(|(p, s, _)| *p == prot && *s == solver)
            .expect("every protection × solver cell has a pin")
            .2
    };
    let ([numerics, cost, trace], cells) = fingerprint(prot, solver);
    let moved: String = [
        ("NUMERICS", pinned(&NUMERICS), numerics),
        ("COST", pinned(&COST), cost),
        ("TRACE", pinned(&TRACE), trace),
    ]
    .into_iter()
    .filter(|(_, pinned, got)| got != pinned)
    .map(|(what, pinned, got)| {
        format!(
            "\n{what} moved (pinned {pinned:#018x}); if intended, re-pin with\n    \
             (Prot::{prot:?}, Solver::{solver:?}, {got:#018x}),"
        )
    })
    .collect();
    assert!(
        moved.is_empty(),
        "recovery fingerprint moved:{moved}\nper cell:\n    {}",
        cells.join("\n    ")
    );
}

#[test]
fn esr_pcg_recoveries_are_pinned_bitwise() {
    check_pins(Prot::Esr, Solver::Pcg);
}

#[test]
fn esr_pipecg_recoveries_are_pinned_bitwise() {
    check_pins(Prot::Esr, Solver::PipeCg);
}

#[test]
fn esr_bicgstab_recoveries_are_pinned_bitwise() {
    check_pins(Prot::Esr, Solver::BiCgStab);
}

#[test]
fn cr_pcg_recoveries_are_pinned_bitwise() {
    check_pins(Prot::Cr, Solver::Pcg);
}

#[test]
fn cr_pipecg_recoveries_are_pinned_bitwise() {
    check_pins(Prot::Cr, Solver::PipeCg);
}

#[test]
fn cr_bicgstab_recoveries_are_pinned_bitwise() {
    check_pins(Prot::Cr, Solver::BiCgStab);
}
