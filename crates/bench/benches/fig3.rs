//! **Figure 3** — runtimes and relative overhead for the M8'
//! (audikw_1-class) matrix, failures at the center ranks: the densest band
//! of the test set. The paper observes superlinear growth of the
//! undisturbed overhead with the number of copies held, yet the smallest
//! relative overheads overall (~2.5% for three failures, ~10% for eight).

fn main() {
    esr_bench::views::figure(&mut esr_bench::Suite::from_env(), 3);
}
