//! Message payloads.
//!
//! MPI messages are untyped byte buffers; we use a small enum instead so the
//! solver code stays type-safe without a serialization dependency. The
//! variants cover everything the ESR-PCG algorithms exchange: contiguous
//! vector blocks, index lists for communication-plan setup, and
//! sparse `(global index, value)` pairs during reconstruction.
//!
//! Buffer variants are **`Arc`-backed**: cloning a `Payload`, or sending
//! the buffer a sender keeps for reuse ([`Payload::f64s_shared`]), bumps a
//! reference count instead of deep-copying the vector. The virtual clock still charges the
//! full `λ + s·µ` per physical message — zero-copy is a host-memory
//! optimization, not a change to the simulated cost model.

use std::sync::Arc;

/// A message payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// A contiguous block of floating-point values.
    F64s(Arc<Vec<f64>>),
    /// A list of global indices (plan setup, failed-rank announcements).
    U64s(Arc<Vec<u64>>),
    /// Sparse `(global index, value)` pairs (redundant-copy recovery).
    Pairs(Arc<Vec<(u64, f64)>>),
}

/// Unwrap an `Arc` without copying when this is the only holder (the common
/// case: a received message), falling back to a clone for shared buffers.
fn unwrap_or_clone<T: Clone>(a: Arc<T>) -> T {
    Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone())
}

impl Payload {
    /// Wrap a vector of floats (allocates only the `Arc`).
    #[must_use]
    pub fn f64s(v: Vec<f64>) -> Self {
        Payload::F64s(Arc::new(v))
    }

    /// Wrap an index list.
    #[must_use]
    pub(crate) fn u64s(v: Vec<u64>) -> Self {
        Payload::U64s(Arc::new(v))
    }

    /// Wrap an index–value pair list.
    #[must_use]
    pub fn pairs(v: Vec<(u64, f64)>) -> Self {
        Payload::Pairs(Arc::new(v))
    }

    /// Wrap an already-shared float buffer (zero-copy fan-out: send the same
    /// `Arc` to many destinations without duplicating the data).
    #[must_use]
    pub fn f64s_shared(v: Arc<Vec<f64>>) -> Self {
        Payload::F64s(v)
    }

    /// Number of "vector elements" this payload counts as in the
    /// latency–bandwidth model of the paper (Sec. 4.2). Index lists and
    /// pairs are charged at one element per entry (pairs carry an index and
    /// a value but travel once; charging 2 would double-count the setup-only
    /// index traffic — recovery cost is dominated by values).
    pub fn elems(&self) -> usize {
        match self {
            Payload::F64s(v) => v.len(),
            Payload::U64s(v) => v.len(),
            Payload::Pairs(v) => v.len(),
        }
    }

    /// Borrow a vector payload without consuming it.
    ///
    /// Receive hot paths copy out of this borrow instead of calling
    /// [`Payload::into_f64s`]: when the sender retains the buffer `Arc` for
    /// reuse (ghost-exchange send buffers), `into_f64s` would see a shared
    /// buffer and deep-copy, while the borrow costs nothing and releases
    /// the sender's buffer as soon as the message is dropped.
    ///
    /// # Panics
    /// Panics on index-list or pair payloads; a mismatch is a protocol bug.
    pub fn as_f64s(&self) -> &[f64] {
        match self {
            Payload::F64s(v) => v,
            other => panic!("protocol error: expected F64s, got {:?}", other.kind()),
        }
    }

    /// Unwrap a vector payload (copies only if the buffer is still shared).
    pub fn into_f64s(self) -> Vec<f64> {
        match self {
            Payload::F64s(v) => unwrap_or_clone(v),
            other => panic!("protocol error: expected F64s, got {:?}", other.kind()),
        }
    }

    /// Unwrap a vector payload keeping the shared backing buffer: never
    /// copies, even while the sender still holds the `Arc` (checkpoint
    /// replicas are stored exactly as received).
    pub fn into_f64s_arc(self) -> Arc<Vec<f64>> {
        match self {
            Payload::F64s(v) => v,
            other => panic!("protocol error: expected F64s, got {:?}", other.kind()),
        }
    }

    /// Unwrap an index-list payload.
    pub(crate) fn into_u64s(self) -> Vec<u64> {
        match self {
            Payload::U64s(v) => unwrap_or_clone(v),
            other => panic!("protocol error: expected U64s, got {:?}", other.kind()),
        }
    }

    /// Unwrap an index–value pair payload.
    pub fn into_pairs(self) -> Vec<(u64, f64)> {
        match self {
            Payload::Pairs(v) => unwrap_or_clone(v),
            other => panic!("protocol error: expected Pairs, got {:?}", other.kind()),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Payload::F64s(_) => "F64s",
            Payload::U64s(_) => "U64s",
            Payload::Pairs(_) => "Pairs",
        }
    }
}

/// A message in flight: source rank, matching tag, payload, and the virtual
/// time at which it arrives at the receiver (see [`crate::vclock`]).
#[derive(Clone, Debug)]
pub(crate) struct Message {
    /// Sending rank.
    pub(crate) src: usize,
    /// Matching tag.
    pub(crate) tag: crate::tag::Tag,
    /// The data.
    pub(crate) payload: Payload,
    /// Virtual arrival time at the destination under the λ/µ cost model.
    pub(crate) arrival_vtime: f64,
    /// Protocol-auditor provenance (send sequence number and recovery
    /// window); filled in by `NodeCtx::send_with_phases` while the auditor is on,
    /// the default otherwise.
    pub(crate) stamp: crate::audit::MsgStamp,
}

impl Message {
    /// Construct a message with a default audit stamp.
    #[must_use]
    pub(crate) fn new(
        src: usize,
        tag: crate::tag::Tag,
        payload: Payload,
        arrival_vtime: f64,
    ) -> Self {
        Message {
            src,
            tag,
            payload,
            arrival_vtime,
            stamp: crate::audit::MsgStamp::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elems_counts_entries() {
        assert_eq!(Payload::f64s(vec![1.0; 7]).elems(), 7);
        assert_eq!(Payload::u64s(vec![3; 4]).elems(), 4);
        assert_eq!(Payload::pairs(vec![(0, 1.0); 5]).elems(), 5);
    }

    #[test]
    fn into_pairs_roundtrip() {
        let p = vec![(7u64, 1.5), (9u64, -2.0)];
        assert_eq!(Payload::pairs(p.clone()).into_pairs(), p);
    }

    #[test]
    fn clones_share_the_buffer() {
        let p = Payload::f64s(vec![1.0; 1024]);
        let q = p.clone();
        match (&p, &q) {
            (Payload::F64s(a), Payload::F64s(b)) => {
                assert!(Arc::ptr_eq(a, b), "clone must not deep-copy");
            }
            _ => unreachable!(),
        }
        // Unwrapping the still-shared copy falls back to a deep copy…
        assert_eq!(q.into_f64s().len(), 1024);
        // …and unwrapping the now-unique original is move-out, not copy.
        assert_eq!(p.into_f64s().len(), 1024);
    }

    #[test]
    fn shared_buffer_fanout_is_zero_copy() {
        let buf = Arc::new(vec![2.0; 16]);
        let a = Payload::f64s_shared(buf.clone());
        let b = Payload::f64s_shared(buf.clone());
        match (&a, &b) {
            (Payload::F64s(x), Payload::F64s(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => unreachable!(),
        }
    }
}
