//! Keyed-hash signatures, MACs and the key registry.
//!
//! See the crate-level documentation for the substitution rationale: this
//! scheme plays the role of public-key signatures in the simulation, with the
//! registry acting as the PKI that the paper assumes is established when a
//! node is introduced to the system by its contact node.

use crate::digest::Digest;
use atum_types::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A signature tag produced by [`NodeSigner::sign`] and checked by
/// [`KeyRegistry::verify`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Signature(Digest);

impl Signature {
    /// The signature's raw digest (for tests and size accounting).
    pub fn digest(&self) -> &Digest {
        &self.0
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sig({}…)", self.0.short_hex())
    }
}

impl atum_types::WireEncode for Signature {
    fn wire_encode(&self, w: &mut atum_types::WireWriter<'_>) {
        self.0.wire_encode(w);
    }
}

impl atum_types::WireDecode for Signature {
    fn wire_decode(r: &mut atum_types::WireReader<'_>) -> Result<Self, atum_types::WireError> {
        Digest::wire_decode(r).map(Signature)
    }
}

/// A message-authentication code for a specific (sender, receiver) pair.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Mac(Digest);

impl fmt::Debug for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mac({}…)", self.0.short_hex())
    }
}

/// The signing half of a node's key material.
///
/// A `NodeSigner` is cheap to clone and can be moved into the node's state;
/// it never exposes the secret.
#[derive(Clone)]
pub struct NodeSigner {
    node: NodeId,
    secret: [u8; 32],
}

impl fmt::Debug for NodeSigner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeSigner({})", self.node)
    }
}

impl NodeSigner {
    /// The node this signer signs for.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature(tag(&self.secret, b"sig", self.node, message))
    }

    /// Signs a digest (used when the message was already hashed).
    pub fn sign_digest(&self, digest: &Digest) -> Signature {
        self.sign(digest.as_bytes())
    }

    /// Computes a MAC for a message addressed to `receiver`.
    ///
    /// The pairwise key is derived from the sender's secret and the receiver
    /// identity; the registry can recompute it for verification.
    pub fn mac(&self, receiver: NodeId, message: &[u8]) -> Mac {
        Mac(mac_tag(&self.secret, self.node, receiver, message))
    }
}

fn tag(secret: &[u8; 32], domain: &[u8], id: NodeId, message: &[u8]) -> Digest {
    Digest::of_parts(&[secret, domain, &id.raw().to_be_bytes(), message])
}

/// The MAC tag: [`tag`] in the `mac` domain for `receiver`, over the
/// sender id followed by `message`.
fn mac_tag(secret: &[u8; 32], sender: NodeId, receiver: NodeId, message: &[u8]) -> Digest {
    Digest::of_parts(&[
        secret,
        b"mac",
        &receiver.raw().to_be_bytes(),
        &sender.raw().to_be_bytes(),
        message,
    ])
}

/// Registry of every node's key material.
///
/// In a deployment this is the PKI: nodes learn each other's public keys when
/// compositions are exchanged. In the simulation the registry is shared
/// (behind an `Arc`) between all simulated nodes and the harness; correct
/// nodes only ever call [`KeyRegistry::verify`]/[`KeyRegistry::signer`] for
/// their own identity, so sharing it does not weaken the model.
#[derive(Debug, Clone, Default)]
pub struct KeyRegistry {
    secrets: HashMap<NodeId, [u8; 32]>,
}

impl KeyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        KeyRegistry {
            secrets: HashMap::new(),
        }
    }

    /// Registers a node, deriving its secret deterministically from `seed`.
    /// Re-registering a node overwrites its key material.
    pub fn register(&mut self, node: NodeId, seed: u64) {
        let d = Digest::of_parts(&[
            b"atum-node-secret",
            &node.raw().to_be_bytes(),
            &seed.to_be_bytes(),
        ]);
        self.secrets.insert(node, *d.as_bytes());
    }

    /// Returns a signer for `node`, if it is registered.
    pub fn signer(&self, node: NodeId) -> Option<NodeSigner> {
        self.secrets.get(&node).map(|secret| NodeSigner {
            node,
            secret: *secret,
        })
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// `true` when no node is registered.
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
    }

    /// Verifies that `signature` was produced by `node` over `message`.
    /// Unregistered nodes never verify.
    pub fn verify(&self, node: NodeId, message: &[u8], signature: &Signature) -> bool {
        match self.secrets.get(&node) {
            Some(secret) => tag(secret, b"sig", node, message) == signature.0,
            None => false,
        }
    }

    /// Verifies a signature over a digest.
    pub fn verify_digest(&self, node: NodeId, digest: &Digest, signature: &Signature) -> bool {
        self.verify(node, digest.as_bytes(), signature)
    }

    /// Verifies a MAC produced by `sender` for `receiver`.
    pub fn verify_mac(&self, sender: NodeId, receiver: NodeId, message: &[u8], mac: &Mac) -> bool {
        match self.secrets.get(&sender) {
            Some(secret) => mac_tag(secret, sender, receiver, message) == mac.0,
            None => false,
        }
    }

    /// Wraps the registry in an [`Arc`] for sharing across simulated nodes.
    pub fn shared(self) -> Arc<KeyRegistry> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with(nodes: &[u64]) -> KeyRegistry {
        let mut r = KeyRegistry::new();
        for &n in nodes {
            r.register(NodeId::new(n), 1234);
        }
        r
    }

    #[test]
    fn sign_and_verify() {
        let r = registry_with(&[1, 2]);
        let s1 = r.signer(NodeId::new(1)).unwrap();
        let sig = s1.sign(b"message");
        assert!(r.verify(NodeId::new(1), b"message", &sig));
        assert!(!r.verify(NodeId::new(1), b"other", &sig));
        assert!(!r.verify(NodeId::new(2), b"message", &sig));
        assert!(!r.verify(NodeId::new(3), b"message", &sig));
    }

    #[test]
    fn signatures_differ_across_nodes_and_messages() {
        let r = registry_with(&[1, 2]);
        let s1 = r.signer(NodeId::new(1)).unwrap();
        let s2 = r.signer(NodeId::new(2)).unwrap();
        assert_ne!(s1.sign(b"m"), s2.sign(b"m"));
        assert_ne!(s1.sign(b"m"), s1.sign(b"n"));
        assert_eq!(s1.sign(b"m"), s1.sign(b"m"));
    }

    #[test]
    fn digest_signing_matches_byte_signing() {
        let r = registry_with(&[7]);
        let s = r.signer(NodeId::new(7)).unwrap();
        let d = Digest::of(b"payload");
        let sig = s.sign_digest(&d);
        assert!(r.verify_digest(NodeId::new(7), &d, &sig));
        assert!(r.verify(NodeId::new(7), d.as_bytes(), &sig));
    }

    #[test]
    fn macs_are_pairwise() {
        let r = registry_with(&[1, 2, 3]);
        let s1 = r.signer(NodeId::new(1)).unwrap();
        let mac = s1.mac(NodeId::new(2), b"hello");
        assert!(r.verify_mac(NodeId::new(1), NodeId::new(2), b"hello", &mac));
        assert!(!r.verify_mac(NodeId::new(1), NodeId::new(3), b"hello", &mac));
        assert!(!r.verify_mac(NodeId::new(2), NodeId::new(2), b"hello", &mac));
        assert!(!r.verify_mac(NodeId::new(1), NodeId::new(2), b"bye", &mac));
    }

    /// Pins one MAC value, so the way the tag is computed can change but
    /// its value cannot.
    #[test]
    fn mac_known_answer() {
        let mut r = KeyRegistry::new();
        for n in 0..3 {
            r.register(NodeId::new(n), 99);
        }
        let mac = r
            .signer(NodeId::new(1))
            .unwrap()
            .mac(NodeId::new(2), b"hello");
        assert_eq!(
            mac.0.to_string(),
            "52b57efc5780d47afac478bcd7a2dcb6109589e9124d26b9d722f6deee226fcb"
        );
        assert!(r.verify_mac(NodeId::new(1), NodeId::new(2), b"hello", &mac));
    }

    #[test]
    fn reregistration_rotates_keys() {
        let mut r = KeyRegistry::new();
        r.register(NodeId::new(1), 1);
        let sig_old = r.signer(NodeId::new(1)).unwrap().sign(b"m");
        r.register(NodeId::new(1), 2);
        assert!(!r.verify(NodeId::new(1), b"m", &sig_old));
        let sig_new = r.signer(NodeId::new(1)).unwrap().sign(b"m");
        assert!(r.verify(NodeId::new(1), b"m", &sig_new));
    }

    #[test]
    fn registry_bookkeeping() {
        let mut r = KeyRegistry::new();
        assert!(r.is_empty());
        assert!(r.signer(NodeId::new(1)).is_none());
        r.register(NodeId::new(1), 0);
        r.register(NodeId::new(2), 0);
        assert_eq!(r.len(), 2);
        let shared = r.shared();
        assert!(shared.signer(NodeId::new(2)).is_some());
    }

    #[test]
    fn debug_impls_do_not_leak_secrets() {
        let r = registry_with(&[5]);
        let s = r.signer(NodeId::new(5)).unwrap();
        let dbg = format!("{s:?}");
        assert!(dbg.contains("n5"));
        assert!(!dbg.contains("secret"));
        let sig = s.sign(b"x");
        assert!(format!("{sig:?}").starts_with("Sig("));
        let mac = s.mac(NodeId::new(5), b"x");
        assert!(format!("{mac:?}").starts_with("Mac("));
    }
}
