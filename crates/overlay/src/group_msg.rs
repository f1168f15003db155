//! Group messages: reliable vgroup-to-vgroup communication.
//!
//! A group message from vgroup A to vgroup B is sent by every correct node of
//! A to every node of B; a node of B *accepts* it once it has received the
//! same payload from a majority of A's composition (§3.1, Figure 3). With at
//! most ⌊(|A|−1)/2⌋ faulty members in A, a majority guarantees at least one
//! correct sender, so an accepted group message was really sent by A.
//!
//! The [`GroupMessageCollector`] implements the receiving side: it counts
//! distinct senders per `(source vgroup, payload digest)` pair and reports
//! the payload exactly once, when the majority threshold is crossed. It also
//! implements the bandwidth optimisation of §5.1: callers can mark a received
//! copy as digest-only; such copies count towards the majority but the
//! payload must have arrived in full from at least one sender before
//! acceptance fires.

use atum_crypto::Digest;
use atum_types::{Composition, NodeId, VgroupId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Identifies one logical group message while it is being collected.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Key {
    source: VgroupId,
    digest: Digest,
}

#[derive(Debug, Default, Clone)]
struct Progress {
    senders: BTreeSet<NodeId>,
    have_full_payload: bool,
    accepted: bool,
}

/// Collects per-sender copies of group messages and reports majority
/// acceptance.
///
/// All containers are ordered (determinism lint): collector state feeds
/// model-checker fingerprints and its iteration order must not depend on
/// hash seeds.
#[derive(Debug, Default, Clone)]
pub struct GroupMessageCollector {
    in_progress: BTreeMap<Key, Progress>,
    /// Keys already accepted (kept to suppress duplicates from stragglers).
    accepted: BTreeSet<Key>,
    /// Upper bound on remembered accepted keys, to bound memory.
    remember_limit: usize,
    /// `accepted` keys oldest first, for eviction once the limit is hit.
    accepted_order: VecDeque<Key>,
}

impl GroupMessageCollector {
    /// Creates a collector that remembers up to `remember_limit` accepted
    /// messages for duplicate suppression.
    pub fn new(remember_limit: usize) -> Self {
        GroupMessageCollector {
            in_progress: BTreeMap::new(),
            accepted: BTreeSet::new(),
            remember_limit: remember_limit.max(1),
            accepted_order: VecDeque::new(),
        }
    }

    /// Records one received copy of a group message.
    ///
    /// * `source` / `source_composition` — the sending vgroup and its
    ///   composition as known to the receiver (used for the majority
    ///   threshold and to ignore senders that are not members).
    /// * `sender` — the individual node the copy came from.
    /// * `digest` — digest of the payload.
    /// * `full_payload` — whether this copy carried the payload in full or
    ///   only its digest (§5.1 optimisation).
    ///
    /// Returns `true` exactly once per `(source, digest)`: when the majority
    /// threshold is reached *and* at least one full copy has arrived.
    pub fn observe(
        &mut self,
        source: VgroupId,
        source_composition: &Composition,
        sender: NodeId,
        digest: Digest,
        full_payload: bool,
    ) -> bool {
        self.observe_with_view(
            source,
            source_composition,
            None,
            sender,
            digest,
            full_payload,
        )
    }

    /// Like [`observe`](Self::observe), but also consults `local_view` — the
    /// receiver's own (possibly fresher) view of the source composition, e.g.
    /// from its neighbour table. The acceptance threshold is the *smaller*
    /// majority of the two views: during churn the claimed composition can
    /// still list departed or never-activated members that will never send a
    /// copy, and holding the message to their inflated majority would make
    /// the receiver deaf to a live neighbour. Senders present in either view
    /// are counted.
    pub fn observe_with_view(
        &mut self,
        source: VgroupId,
        source_composition: &Composition,
        local_view: Option<&Composition>,
        sender: NodeId,
        digest: Digest,
        full_payload: bool,
    ) -> bool {
        let in_local = local_view.is_some_and(|v| v.contains(sender));
        if !source_composition.contains(sender) && !in_local {
            return false;
        }
        let key = Key { source, digest };
        if self.accepted.contains(&key) {
            return false;
        }
        let progress = self.in_progress.entry(key.clone()).or_default();
        progress.senders.insert(sender);
        progress.have_full_payload |= full_payload;
        let mut majority = source_composition.majority();
        if let Some(view) = local_view {
            if !view.is_empty() {
                majority = majority.min(view.majority());
            }
        }
        if progress.senders.len() >= majority && progress.have_full_payload {
            progress.accepted = true;
            self.in_progress.remove(&key);
            self.remember(key);
            true
        } else {
            false
        }
    }

    fn remember(&mut self, key: Key) {
        // Evict before pushing, so the ring never outgrows the limit: a
        // ring grown past it would cycle through (and keep resident) twice
        // the memory the limit allows.
        if self.accepted_order.len() >= self.remember_limit {
            if let Some(oldest) = self.accepted_order.pop_front() {
                self.accepted.remove(&oldest);
            }
        }
        self.accepted.insert(key.clone());
        self.accepted_order.push_back(key);
    }

    /// Returns `true` if the message identified by `(source, digest)` has
    /// already been accepted.
    pub fn is_accepted(&self, source: VgroupId, digest: Digest) -> bool {
        self.accepted.contains(&Key { source, digest })
    }

    /// Number of messages still awaiting a majority.
    pub fn pending_len(&self) -> usize {
        self.in_progress.len()
    }

    /// Drops partially collected messages from a source vgroup (used when the
    /// source is known to have reconfigured or disappeared and stale counts
    /// could otherwise linger).
    pub fn forget_source(&mut self, source: VgroupId) {
        self.in_progress.retain(|k, _| k.source != source);
    }
}

/// Computes the plan for *sending* a group message with the digest
/// optimisation of §5.1: a majority of the source vgroup sends the full
/// payload, the remaining members send only the digest. The choice is made
/// deterministically from the member rank so all members agree without
/// coordination.
///
/// Returns `(full_senders, digest_senders)`.
pub fn digest_optimised_roles(source: &Composition) -> (Vec<NodeId>, Vec<NodeId>) {
    let majority = source.majority();
    let members: Vec<NodeId> = source.iter().collect();
    let full = members[..majority.min(members.len())].to_vec();
    let digest = members[majority.min(members.len())..].to_vec();
    (full, digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(ids: &[u64]) -> Composition {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn accepts_on_majority_only_once() {
        let mut c = GroupMessageCollector::new(100);
        let source = VgroupId::new(1);
        let composition = comp(&[1, 2, 3, 4, 5]);
        let d = Digest::of(b"payload");
        assert!(!c.observe(source, &composition, NodeId::new(1), d, true));
        assert!(!c.observe(source, &composition, NodeId::new(2), d, true));
        // Third sender reaches the majority (3 of 5).
        assert!(c.observe(source, &composition, NodeId::new(3), d, true));
        // Further copies are duplicates.
        assert!(!c.observe(source, &composition, NodeId::new(4), d, true));
        assert!(c.is_accepted(source, d));
        assert_eq!(c.pending_len(), 0);
    }

    #[test]
    fn duplicate_senders_do_not_count_twice() {
        let mut c = GroupMessageCollector::new(100);
        let source = VgroupId::new(1);
        let composition = comp(&[1, 2, 3]);
        let d = Digest::of(b"x");
        assert!(!c.observe(source, &composition, NodeId::new(1), d, true));
        assert!(!c.observe(source, &composition, NodeId::new(1), d, true));
        assert!(c.observe(source, &composition, NodeId::new(2), d, true));
    }

    #[test]
    fn non_members_are_ignored() {
        let mut c = GroupMessageCollector::new(100);
        let source = VgroupId::new(1);
        let composition = comp(&[1, 2, 3]);
        let d = Digest::of(b"x");
        assert!(!c.observe(source, &composition, NodeId::new(9), d, true));
        assert!(!c.observe(source, &composition, NodeId::new(8), d, true));
        assert_eq!(c.pending_len(), 0);
    }

    #[test]
    fn different_payloads_are_collected_independently() {
        let mut c = GroupMessageCollector::new(100);
        let source = VgroupId::new(1);
        let composition = comp(&[1, 2, 3]);
        let d1 = Digest::of(b"a");
        let d2 = Digest::of(b"b");
        assert!(!c.observe(source, &composition, NodeId::new(1), d1, true));
        assert!(!c.observe(source, &composition, NodeId::new(1), d2, true));
        assert_eq!(c.pending_len(), 2);
        assert!(c.observe(source, &composition, NodeId::new(2), d1, true));
        assert!(c.observe(source, &composition, NodeId::new(3), d2, true));
    }

    #[test]
    fn digest_only_copies_need_one_full_copy() {
        let mut c = GroupMessageCollector::new(100);
        let source = VgroupId::new(2);
        let composition = comp(&[1, 2, 3, 4, 5]);
        let d = Digest::of(b"big");
        // Three digest-only copies reach the majority but cannot be accepted.
        assert!(!c.observe(source, &composition, NodeId::new(1), d, false));
        assert!(!c.observe(source, &composition, NodeId::new(2), d, false));
        assert!(!c.observe(source, &composition, NodeId::new(3), d, false));
        // The first full copy completes it.
        assert!(c.observe(source, &composition, NodeId::new(4), d, true));
    }

    #[test]
    fn memory_of_accepted_messages_is_bounded() {
        let mut c = GroupMessageCollector::new(2);
        let composition = comp(&[1]);
        for i in 0..5u64 {
            let d = Digest::of(&i.to_be_bytes());
            assert!(c.observe(VgroupId::new(1), &composition, NodeId::new(1), d, true));
        }
        // Only the two most recent accepted digests are remembered.
        let old = Digest::of(&0u64.to_be_bytes());
        let recent = Digest::of(&4u64.to_be_bytes());
        assert!(!c.is_accepted(VgroupId::new(1), old));
        assert!(c.is_accepted(VgroupId::new(1), recent));

        // The eviction ring stays within the limit instead of doubling
        // past it.
        let mut c = GroupMessageCollector::new(4);
        for i in 0..64u64 {
            let d = Digest::of(&i.to_be_bytes());
            assert!(c.observe(VgroupId::new(1), &composition, NodeId::new(1), d, true));
        }
        assert!(c.accepted_order.capacity() < 8);
    }

    #[test]
    fn forget_source_drops_partial_state() {
        let mut c = GroupMessageCollector::new(10);
        let composition = comp(&[1, 2, 3]);
        let d = Digest::of(b"x");
        c.observe(VgroupId::new(1), &composition, NodeId::new(1), d, true);
        c.observe(VgroupId::new(2), &composition, NodeId::new(1), d, true);
        assert_eq!(c.pending_len(), 2);
        c.forget_source(VgroupId::new(1));
        assert_eq!(c.pending_len(), 1);
    }

    #[test]
    fn digest_roles_split_majority_vs_rest() {
        let composition = comp(&[1, 2, 3, 4, 5]);
        let (full, digest) = digest_optimised_roles(&composition);
        assert_eq!(full.len(), 3);
        assert_eq!(digest.len(), 2);
        let composition = comp(&[1]);
        let (full, digest) = digest_optimised_roles(&composition);
        assert_eq!(full.len(), 1);
        assert!(digest.is_empty());
    }
}
