//! Streaming structural digests: hash a value's fields directly into the
//! SHA-256 state, with no intermediate encoding.
//!
//! The first implementation of content digests rendered values through
//! `format!("{value:?}")` and hashed the resulting `String`. That allocates
//! and formats on every call — and digests sit on the hottest paths of the
//! fabric (one per group-message copy received, one per pending-op scan).
//! [`Digestible`] replaces it: a value streams its fields into a
//! [`DigestWriter`], which feeds the hasher incrementally.
//!
//! # Injectivity
//!
//! The digest is only as good as the encoding is unambiguous. The writer
//! keeps the byte stream prefix-free by construction:
//!
//! * every integer is written in fixed-width big-endian form;
//! * every variable-length field (strings, sequences) is preceded by its
//!   length, so `["ab", "c"]` and `["a", "bc"]` produce different streams;
//! * every enum variant starts with a distinct tag byte, so two variants
//!   with identical field values still produce different streams.
//!
//! Under these rules, two structurally different values produce different
//! byte streams, and a digest collision would require a SHA-256 collision —
//! the same guarantee the Debug encoding gave, without the `String`.

use crate::digest::Digest;
use crate::keys::Signature;
use atum_types::{
    BroadcastId, Composition, NetAddr, NodeId, NodeIdentity, TopicId, VgroupId, WalkId,
};
use sha2::{Digest as _, Sha256};

/// Incremental writer feeding a SHA-256 state.
///
/// Values are written through the typed methods so the encoding rules above
/// hold everywhere; `finish` consumes the writer and returns the digest.
/// Cloning forks the running state, so a shared prefix is hashed once.
#[derive(Clone)]
pub struct DigestWriter {
    hasher: Sha256,
}

// Manual: the running hash state has no meaningful rendering.
impl std::fmt::Debug for DigestWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DigestWriter").finish_non_exhaustive()
    }
}

impl DigestWriter {
    /// Creates a writer with a fresh hash state.
    pub fn new() -> Self {
        DigestWriter {
            hasher: Sha256::new(),
        }
    }

    /// Writes raw bytes *without* a length prefix. Only for fixed-width
    /// data; variable-length content must go through [`Self::write_slice`]
    /// or [`Self::write_str`].
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.hasher.update(bytes);
    }

    /// Writes a variable-length byte slice, length-prefixed.
    pub fn write_slice(&mut self, bytes: &[u8]) {
        self.write_len(bytes.len());
        self.hasher.update(bytes);
    }

    /// Writes a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_slice(s.as_bytes());
    }

    /// Writes an enum variant tag.
    pub fn write_tag(&mut self, tag: u8) {
        self.hasher.update([tag]);
    }

    /// Writes a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.hasher.update([v]);
    }

    /// Writes a `u16` (big-endian).
    pub fn write_u16(&mut self, v: u16) {
        self.hasher.update(v.to_be_bytes());
    }

    /// Writes a `u32` (big-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.hasher.update(v.to_be_bytes());
    }

    /// Writes a `u64` (big-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.hasher.update(v.to_be_bytes());
    }

    /// Writes a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.hasher.update([v as u8]);
    }

    /// Writes a collection length prefix.
    pub fn write_len(&mut self, len: usize) {
        self.write_u64(len as u64);
    }

    /// Writes a sequence of digestible items, length-prefixed.
    pub fn write_seq<T: Digestible>(&mut self, items: &[T]) {
        self.write_len(items.len());
        for item in items {
            item.digest_fields(self);
        }
    }

    /// Consumes the writer and returns the accumulated digest.
    pub fn finish(self) -> Digest {
        Digest::from_bytes(self.hasher.finalize())
    }
}

impl Default for DigestWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Types whose content can be streamed into a [`DigestWriter`].
pub trait Digestible {
    /// Streams this value's fields into the writer, following the encoding
    /// rules in the module docs.
    fn digest_fields(&self, w: &mut DigestWriter);

    /// The value's structural content digest.
    fn structural_digest(&self) -> Digest {
        let mut w = DigestWriter::new();
        self.digest_fields(&mut w);
        w.finish()
    }
}

impl<T: Digestible + ?Sized> Digestible for &T {
    fn digest_fields(&self, w: &mut DigestWriter) {
        (**self).digest_fields(w);
    }
}

impl Digestible for u64 {
    fn digest_fields(&self, w: &mut DigestWriter) {
        w.write_u64(*self);
    }
}

impl Digestible for NodeId {
    fn digest_fields(&self, w: &mut DigestWriter) {
        w.write_u64(self.raw());
    }
}

impl Digestible for VgroupId {
    fn digest_fields(&self, w: &mut DigestWriter) {
        w.write_u64(self.raw());
    }
}

impl Digestible for TopicId {
    fn digest_fields(&self, w: &mut DigestWriter) {
        w.write_u64(self.raw());
    }
}

impl Digestible for BroadcastId {
    fn digest_fields(&self, w: &mut DigestWriter) {
        w.write_u64(self.origin.raw());
        w.write_u64(self.seq);
    }
}

impl Digestible for WalkId {
    fn digest_fields(&self, w: &mut DigestWriter) {
        w.write_u64(self.origin.raw());
        w.write_u64(self.seq);
    }
}

impl Digestible for NetAddr {
    fn digest_fields(&self, w: &mut DigestWriter) {
        w.write_raw(&self.ip);
        w.write_u16(self.port);
    }
}

impl Digestible for NodeIdentity {
    fn digest_fields(&self, w: &mut DigestWriter) {
        self.id.digest_fields(w);
        self.addr.digest_fields(w);
    }
}

impl Digestible for Composition {
    fn digest_fields(&self, w: &mut DigestWriter) {
        w.write_len(self.len());
        for member in self.iter() {
            w.write_u64(member.raw());
        }
    }
}

impl Digestible for Digest {
    fn digest_fields(&self, w: &mut DigestWriter) {
        w.write_raw(self.as_bytes());
    }
}

impl Digestible for Signature {
    fn digest_fields(&self, w: &mut DigestWriter) {
        w.write_raw(self.digest().as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_fields_round_to_known_hashes() {
        // Streaming must agree with hashing the concatenated encoding.
        let mut w = DigestWriter::new();
        w.write_u64(0x0102_0304_0506_0708);
        w.write_bool(true);
        let expected = Digest::of(&[1, 2, 3, 4, 5, 6, 7, 8, 1]);
        assert_eq!(w.finish(), expected);
    }

    #[test]
    fn length_prefix_disambiguates_adjacent_slices() {
        let mut a = DigestWriter::new();
        a.write_slice(b"ab");
        a.write_slice(b"c");
        let mut b = DigestWriter::new();
        b.write_slice(b"a");
        b.write_slice(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn id_types_digest_distinctly() {
        // Same raw value, different type-level meaning is fine (callers tag
        // context); what matters is distinct values → distinct digests.
        assert_ne!(
            NodeId::new(1).structural_digest(),
            NodeId::new(2).structural_digest()
        );
        assert_ne!(
            BroadcastId::new(NodeId::new(1), 0).structural_digest(),
            BroadcastId::new(NodeId::new(0), 1).structural_digest()
        );
        let c1: Composition = [1u64, 2].iter().map(|&i| NodeId::new(i)).collect();
        let c2: Composition = [1u64, 3].iter().map(|&i| NodeId::new(i)).collect();
        assert_ne!(c1.structural_digest(), c2.structural_digest());
        assert_eq!(c1.structural_digest(), c1.clone().structural_digest());
    }

    #[test]
    fn identity_includes_address() {
        let a = NodeIdentity::simulated(NodeId::new(5));
        let mut b = a;
        b.addr.port += 1;
        assert_ne!(a.structural_digest(), b.structural_digest());
    }
}
