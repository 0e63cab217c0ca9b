//! **Figure 4** — total runtime of M5' with three node failures at the
//! center ranks, injected at 20% / 50% / 80% of the solver's progress:
//! the iteration at which failures strike has little influence on the
//! total runtime (the reconstruction cost is progress-independent).

fn main() {
    esr_bench::views::figure(&mut esr_bench::Suite::from_env(), 4);
}
