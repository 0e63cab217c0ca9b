//! Hot-path allocation accounting.
//!
//! The workspace forbids `unsafe`, so a `#[global_allocator]` shim is off
//! the table; instead, every kernel-layer site that is *supposed* to reuse
//! a persistent buffer reports here when its reuse path misses and it has
//! to allocate fresh (e.g. a ghost-exchange send buffer still shared with
//! the in-flight message, a scratch vector that had to grow). The counter
//! is thread-local. A distributed solve polls every simulated node on the
//! thread that started it, so that thread's counter sums the misses of the
//! whole cluster: reset it before the solve and read it after.
//!
//! The contract asserted by `crates/core/tests/steady_state_alloc.rs` and
//! the CI `paper-scale` job: a failure-free solve, setup and steady-state
//! iterations alike, records **zero** misses on any node — every
//! pack/unpack, SpMV, and preconditioner apply runs out of persistent
//! workspaces.

use std::cell::Cell;

thread_local! {
    static ALLOC_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Record one reuse miss (a hot-path site allocated fresh memory).
#[inline]
pub fn record_alloc_miss() {
    ALLOC_MISSES.with(|c| c.set(c.get() + 1));
}

/// Misses recorded on this thread since the last [`reset_alloc_misses`].
pub fn alloc_misses() -> u64 {
    ALLOC_MISSES.with(Cell::get)
}

/// Zero this thread's miss counter (call after setup/warm-up).
pub fn reset_alloc_misses() {
    ALLOC_MISSES.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_resets() {
        reset_alloc_misses();
        assert_eq!(alloc_misses(), 0);
        record_alloc_miss();
        record_alloc_miss();
        assert_eq!(alloc_misses(), 2);
        reset_alloc_misses();
        assert_eq!(alloc_misses(), 0);
    }
}
