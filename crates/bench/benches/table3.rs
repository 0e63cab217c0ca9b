//! **Table 3** — loss-of-orthogonality metric (paper Eqn. 7):
//! `∆ = (‖r_solver‖₂ − ‖b − A x‖₂) / ‖b − A x‖₂` after convergence, for the
//! reference PCG run (`∆PCG`) and the maximum over all failure experiments
//! (`max ∆ESR`). The deviations must be tiny against the 10⁸ residual
//! reduction — reconstruction with inner tolerance 10⁻¹⁴ does not degrade
//! the solver's accuracy.

fn main() {
    esr_bench::views::table3(&mut esr_bench::Suite::from_env());
}
