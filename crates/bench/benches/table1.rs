//! **Table 1** — properties of the test matrices.
//!
//! Prints the generated analog suite next to the paper's original
//! SuiteSparse matrices, so the scale factor and pattern classes are
//! explicit for every other experiment.

fn main() {
    esr_bench::views::table1(&mut esr_bench::Suite::from_env());
}
