//! Message tags.
//!
//! Tags disambiguate concurrent communication streams, like MPI tags plus
//! MPI's internal collective contexts. The 64-bit tag space is split into:
//!
//! * **user** tags — point-to-point solver traffic (SpMV ghost exchange,
//!   redundancy copies, recovery gathers), identified by a small `u32`;
//! * **collective** tags — internal to `parcomm` collectives. Every
//!   collective call on a communicator consumes one *sequence number*; since
//!   the programs are SPMD, all ranks issue collectives in the same order
//!   and the sequence numbers agree without negotiation;
//! * **group** tags — collectives on sub-communicators, additionally scoped
//!   by a group id that member ranks derive identically from the member set.

/// A message tag (total order, cheap copy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

const KIND_USER: u64 = 0;
const KIND_COLL: u64 = 1;
const KIND_GROUP: u64 = 2;

impl Tag {
    /// A user (application-level) point-to-point tag.
    pub(crate) fn user(t: u32) -> Self {
        Tag((KIND_USER << 62) | t as u64)
    }

    /// An internal collective tag: `op` identifies the collective kind,
    /// `seq` the per-communicator collective sequence number.
    pub(crate) fn coll(op: u8, seq: u64) -> Self {
        debug_assert!(seq < (1 << 48), "collective sequence overflow");
        Tag((KIND_COLL << 62) | ((op as u64) << 48) | (seq & ((1 << 48) - 1)))
    }

    /// A sub-communicator collective tag, scoped by `gid`.
    pub(crate) fn group(gid: u32, op: u8, seq: u32) -> Self {
        Tag((KIND_GROUP << 62) | ((gid as u64) << 30) | ((op as u64) << 22) | seq as u64)
    }

    /// Human-readable decoding for diagnostics ("user(7)",
    /// "coll(allreduce, seq 3)", "group(gid 0x2a, allreduce, seq 1)", …).
    pub(crate) fn describe(&self) -> String {
        match self.0 >> 62 {
            KIND_USER => format!("user({})", self.0 & 0xFFFF_FFFF),
            KIND_COLL => format!(
                "coll({}, seq {})",
                op::name(((self.0 >> 48) & 0xFF) as u8),
                self.0 & ((1 << 48) - 1)
            ),
            KIND_GROUP => format!(
                "group(gid {:#x}, {}, seq {})",
                (self.0 >> 30) & 0xFFFF_FFFF,
                op::name(((self.0 >> 22) & 0xFF) as u8),
                self.0 & ((1 << 22) - 1)
            ),
            _ => format!("invalid({:#x})", self.0),
        }
    }
}

/// Collective operation identifiers (for tag scoping only). Each value is
/// part of every tag of its kind, and tags are part of the pinned traces,
/// so the values are fixed; the gaps are retired kinds.
pub(crate) mod op {
    /// Barrier synchronization.
    pub(crate) const BARRIER: u8 = 1;
    /// Personalized all-to-all.
    pub(crate) const ALLTOALL: u8 = 5;
    /// Recursive-doubling all-reduce (one tag covers all of its rounds:
    /// within one call every ordered pair of ranks exchanges at most one
    /// message, so rounds cannot be confused).
    pub(crate) const ALLREDUCE: u8 = 7;

    /// The operation's name, for diagnostics.
    pub(crate) fn name(op: u8) -> &'static str {
        match op {
            BARRIER => "barrier",
            ALLTOALL => "alltoall",
            ALLREDUCE => "allreduce",
            _ => "unknown",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_spaces_disjoint() {
        // A user tag can never collide with a collective or group tag.
        let u = Tag::user(42);
        let c = Tag::coll(op::BARRIER, 42);
        let g = Tag::group(0, op::BARRIER, 42);
        assert_ne!(u, c);
        assert_ne!(u, g);
        assert_ne!(c, g);
    }

    #[test]
    fn collective_sequences_distinct() {
        assert_ne!(Tag::coll(op::ALLREDUCE, 1), Tag::coll(op::ALLREDUCE, 2));
        assert_ne!(Tag::coll(op::ALLREDUCE, 1), Tag::coll(op::BARRIER, 1));
    }

    #[test]
    fn group_ids_scope_tags() {
        assert_ne!(
            Tag::group(1, op::ALLREDUCE, 5),
            Tag::group(2, op::ALLREDUCE, 5)
        );
    }

    #[test]
    fn describe_decodes_every_kind() {
        assert_eq!(Tag::user(42).describe(), "user(42)");
        assert_eq!(
            Tag::coll(op::ALLREDUCE, 3).describe(),
            "coll(allreduce, seq 3)"
        );
        assert_eq!(
            Tag::group(0x2A, op::ALLREDUCE, 1).describe(),
            "group(gid 0x2a, allreduce, seq 1)"
        );
    }
}
