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

use esr_core::{
    run, CrConfig, ExperimentResult, Problem, Protection, RecoveryPolicy, SolverConfig,
    SolverKind as Solver,
};
use parcomm::{CommPhase, CommStats, CostModel, FailAt, FailureEvent, FailureScript};
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

#[derive(Clone, Copy, Debug)]
enum Failure {
    /// `psi` contiguous ranks die at the iteration boundary.
    Simultaneous(usize),
    /// One rank dies; a second dies at restart substep `s` of its recovery.
    Overlapping(u32),
    /// Two ranks die; a third dies at substep 2 of their recovery.
    PairThenOverlap,
}

const FAILURES: [Failure; 7] = [
    Failure::Simultaneous(1),
    Failure::Simultaneous(2),
    Failure::Overlapping(0),
    Failure::Overlapping(1),
    Failure::Overlapping(2),
    Failure::Overlapping(3),
    Failure::PairThenOverlap,
];

fn script(mode: Failure, at: u64, first: usize) -> (FailureScript, usize) {
    let during = |substep: u32, rank: usize| FailureEvent {
        when: FailAt::RecoverySubstep {
            after_iteration: at,
            substep,
        },
        ranks: vec![rank % NODES],
    };
    let initial = |psi: usize| FailureEvent {
        when: FailAt::Iteration(at),
        ranks: (0..psi).map(|i| (first + i) % NODES).collect(),
    };
    match mode {
        Failure::Simultaneous(psi) => (FailureScript::new(vec![initial(psi)]), psi),
        Failure::Overlapping(s) => (
            FailureScript::new(vec![initial(1), during(s, first + 2)]),
            2,
        ),
        Failure::PairThenOverlap => (
            FailureScript::new(vec![initial(2), during(2, first + 3)]),
            3,
        ),
    }
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
/// one readable line per cell for a mismatch to print.
fn fingerprint(prot: Prot, solver: Solver) -> ([u64; 3], Vec<String>) {
    let problem = Problem::with_ones_solution(poisson2d(14, 13));
    let (mut numerics, mut cost, mut trace) = (Fnv::new(), Fnv::new(), Fnv::new());
    let mut cells = Vec::new();
    for policy in [
        RecoveryPolicy::Replace,
        RecoveryPolicy::Spares(1),
        RecoveryPolicy::Shrink,
    ] {
        let mut cfg = SolverConfig::resilient_with_policy(PHI, policy);
        cfg.trace = true;
        if prot == Prot::Cr {
            cfg.resilience = cfg.resilience.map(|res| {
                res.with_protection(Protection::Checkpoint(
                    CrConfig::default().with_interval(4).with_copies(PHI),
                ))
            });
        }
        for mode in FAILURES {
            for (at, first) in [(0, 0), (6, NODES - 1)] {
                let (sc, lost) = script(mode, at, first);
                let res = run(solver, &problem, NODES, &cfg, CostModel::default(), sc)
                    .expect("every engine-backed cell is a supported configuration");
                let label =
                    format!("{prot:?} × {solver:?} × {policy:?} × {mode:?} @ ({at}, {first})");
                assert!(res.converged, "{label}: did not converge");
                assert_eq!(res.recoveries, 1, "{label}");
                assert_eq!(res.ranks_recovered, lost, "{label}");
                numerics.numerics(&res);
                cost.cost(&res);
                trace.trace(&res);
                cells.push(format!(
                    "{label}: iterations {}, inner iterations {}, solver_residual {:e}, \
                     true_residual {:e}, vtime {:e}, vtime_recovery {:e}",
                    res.iterations,
                    res.inner_iterations,
                    res.solver_residual,
                    res.true_residual,
                    res.vtime,
                    res.vtime_recovery
                ));
            }
        }
    }
    ([numerics.0, cost.0, trace.0], cells)
}

fn check(prot: Prot, solver: Solver) {
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
    check(Prot::Esr, Solver::Pcg);
}

#[test]
fn esr_pipecg_recoveries_are_pinned_bitwise() {
    check(Prot::Esr, Solver::PipeCg);
}

#[test]
fn esr_bicgstab_recoveries_are_pinned_bitwise() {
    check(Prot::Esr, Solver::BiCgStab);
}

#[test]
fn cr_pcg_recoveries_are_pinned_bitwise() {
    check(Prot::Cr, Solver::Pcg);
}

#[test]
fn cr_pipecg_recoveries_are_pinned_bitwise() {
    check(Prot::Cr, Solver::PipeCg);
}

#[test]
fn cr_bicgstab_recoveries_are_pinned_bitwise() {
    check(Prot::Cr, Solver::BiCgStab);
}
