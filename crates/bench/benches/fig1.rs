//! **Figure 1** — runtimes and relative overhead for the M5'
//! (Emilia_923-class) matrix, failures near the *center* of the vector:
//! the paper's favourable wide-band case, where the reconstruction is
//! nearly free and the overhead comes from the redundant-copy traffic.

fn main() {
    esr_bench::views::figure(&mut esr_bench::Suite::from_env(), 1);
}
