//! **Table 2** — the paper's main result: reference time `t0`, undisturbed
//! overhead for φ ∈ {1,3,8} redundant copies, and reconstruction time +
//! total overhead for ψ = φ ∈ {1,3,8} simultaneous node failures at the
//! start / center ranks, aggregated over the injection progress points.
//!
//! Times are virtual BSP-clock times (deterministic); the spread reported
//! as ±σ is the variation across the 20%/50%/80% injection points, which
//! is what the paper aggregates over. This view shows every cell of the
//! grid (22 per matrix at the default three progress points).

fn main() {
    esr_bench::views::table2(&mut esr_bench::Suite::from_env());
}
