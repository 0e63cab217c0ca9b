//! # parcomm — a simulated distributed-memory parallel computer
//!
//! This crate is the substrate beneath the ESR-PCG reproduction of
//! Pachajoa et al., *"How to Make the Preconditioned Conjugate Gradient
//! Method Resilient Against Multiple Node Failures"* (ICPP 2019).
//!
//! The paper runs on MPI (with ULFM-style fault tolerance assumed) on 128
//! physical nodes. Here, every **node** of the parallel computer has
//! strictly private state and a message queue; all interaction happens
//! through explicit message passing and collectives, mirroring the MPI
//! programming model. Node programs are written in blocking style (each
//! node owns an OS thread as its stack), but execution is driven by a
//! deterministic discrete-event scheduler (`sched`): exactly one node
//! runs at a time, blocking operations park the node, and the next
//! runnable node is dispatched by minimum `(virtual time, rank)` — so a
//! 1024-node cluster runs on one core and every run replays the identical
//! schedule.
//!
//! The communication surface is what the solvers call, and nothing more:
//!
//! * exact-source point-to-point [`NodeCtx::send`] /
//!   [`NodeCtx::send_with_phases`] and [`NodeCtx::recv`] /
//!   [`NodeCtx::recv_phase`] with `(source, tag)` matching — the SpMV
//!   scatter, the redundant copies and the recovery gathers,
//! * three deterministic collectives on the world: the recursive-doubling
//!   all-reduce ([`NodeCtx::allreduce_vec`], [`NodeCtx::allreduce_sum`])
//!   and barrier ([`NodeCtx::barrier`]), and the sparse personalized
//!   all-to-all of plan setup ([`NodeCtx::alltoallv_sparse_u64`]) — each
//!   one rendezvous in the scheduler, booked message by message as the
//!   exchange it stands for,
//! * the non-blocking all-reduce [`NodeCtx::iallreduce_vec`] with its
//!   request handle ([`request`]) and an **overlap-aware clock**: compute
//!   issued between start and wait hides the flight time, and
//!   [`CommStats`] splits communication into exposed vs hidden virtual
//!   time — the substrate of the communication-hiding pipelined PCG,
//! * sub-communicators ([`NodeCtx::group`]) whose all-reduce, blocking or
//!   not, serves the reconstructors' inner solve and a solver continuing on
//!   a shrunken cluster,
//! * a ULFM-like `fault::FaultOracle` that detects node failures, notifies
//!   all surviving nodes consistently, and provisions replacement nodes,
//! * a **virtual BSP clock** (`vclock`) implementing the latency–bandwidth
//!   cost model of the paper's Sec. 4.2 (`λ` per message, `µ` per vector
//!   element, `γ` per flop), so that 128-node experiments produce meaningful
//!   timing *shapes* even on a 2-core host.
//!
//! Everything that watches the traffic — [`CommStats`] in every run, the
//! protocol auditor (`audit`) wherever debug assertions are on, the
//! virtual-time tracer ([`ClusterTrace`]) in a run started with
//! [`Cluster::run_traced`] — reads one typed event, emitted once per
//! boundary (the crate-private `observe` module). There is one build: no
//! Cargo feature selects an observer.
//!
//! Failures are *simulated* exactly as in the paper (Sec. 6): a failed
//! node's dynamic data is poisoned (NaN) and the node keeps its scheduler
//! slot, continuing in the *replacement node* role (the lifecycle state
//! machine is documented in [`fault`]). Tests rely on the poisoning to
//! prove that recovery never reads lost data.

// Indexed loops over several parallel arrays are the clearest form for
// the numeric kernels in this crate; iterator-zip pyramids obscure the math.
#![allow(clippy::needless_range_loop)]

pub(crate) mod audit;
pub(crate) mod cluster;
pub mod comm;
pub mod fault;
pub(crate) mod group;
pub(crate) mod observe;
pub(crate) mod payload;
#[cfg(test)]
mod rd_oracle;
pub mod request;
pub(crate) mod sched;
pub(crate) mod stats;
pub(crate) mod tag;
pub(crate) mod trace;
pub(crate) mod vclock;

pub use cluster::{Cluster, ClusterConfig, SparePool};
pub use comm::{NodeCtx, ReduceOp};
pub use fault::{FailAt, FailureEvent, FailureScript, RECOVERY_SUBSTEPS};
pub use group::Group;
pub use payload::Payload;
pub use request::AllreduceRequest;
pub use stats::{CommPhase, CommStats, LogHist};
pub use tag::Tag;
pub use trace::{ClusterTrace, CriticalPath, NodeTrace, TraceEvent, TraceEventKind};
pub use vclock::{CostModel, VClock};
