//! **Figure 2** — runtimes and relative overhead for the M1'
//! (parabolic_fem-class) matrix, failures near the *start* of the vector.
//! The paper's Fig. 2 showcases that a run with failures can even finish
//! *faster* than the failure-free run when the reconstruction slightly
//! reduces the remaining iteration count.

fn main() {
    esr_bench::views::figure(&mut esr_bench::Suite::from_env(), 2);
}
