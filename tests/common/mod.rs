//! What the recovery test binaries share: the failure grid and the judge
//! that holds every failure cell to its failure-free twin ([`grid`]).
//! Each binary includes it with `mod common;`.

pub mod grid;
