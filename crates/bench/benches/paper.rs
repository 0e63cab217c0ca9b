//! **The paper's whole artefact set in one pass** — Tables 1–3 and
//! Figs. 1–4 are projections of one experiment grid (Sec. 7), so this
//! harness solves the grid once, matrix by matrix, and then renders every
//! view over the solved cells: the cost of `table2` alone instead of the
//! seven harnesses' sum. A figure whose matrix is not in `ESR_MATRICES` is
//! skipped (its own harness solves that matrix regardless).

use esr_bench::views::{self, FIGURES};
use esr_bench::{banner, Run, Suite};

fn main() {
    let mut suite = Suite::from_env();
    let title = "The evaluation grid — every cell of Sec. 7, solved once";
    banner(title, &suite.cfg);
    let matrices = suite.cfg.matrices.clone();
    let grid = Run::grid(&suite.cfg.progress);
    for &id in &matrices {
        for &run in &grid {
            suite.cell(id, run);
        }
        println!("[grid] {id:?}: {} cells", grid.len());
    }
    let solved = suite.solves();

    views::table1(&mut suite);
    views::table2(&mut suite);
    views::table3(&mut suite);
    for (n, (id, _)) in (1..).zip(FIGURES) {
        if matrices.contains(&id) {
            views::figure(&mut suite, n);
        } else {
            println!("[skipped] fig{n}: {id:?} is not in ESR_MATRICES");
        }
    }
    assert_eq!(suite.solves(), solved, "a view solved a cell of its own");
    println!("\n[paper] {solved} solves for {} matrices", matrices.len());
}
