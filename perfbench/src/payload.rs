//! Self-checking payloads: every broadcast carries a run tag, its sequence
//! number and a checksum over its bytes, so a receiver can tell a corrupted,
//! foreign or misattributed delivery from a correct one without a copy of
//! what was sent.

/// Header: tag (8) + sequence number (8) + checksum (8).
const HEADER: usize = 24;

/// Tag of payloads issued by the measured phase.
pub const TAG_RUN: u64 = 0x7275_6e5f_6174_756d;
/// Tag of payloads issued while setting up (warm-up traffic).
pub const TAG_WARMUP: u64 = 0x7761_726d_5f61_7475;

/// SplitMix64: a cheap deterministic filler stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Builds a `size`-byte payload (at least the header) for `(tag, seq)`,
/// its filler drawn from `seed`.
pub fn make(tag: u64, seed: u64, seq: u64, size: usize) -> Vec<u8> {
    let size = size.max(HEADER);
    let mut out = vec![0u8; size];
    out[0..8].copy_from_slice(&tag.to_le_bytes());
    out[8..16].copy_from_slice(&seq.to_le_bytes());
    let mut state = seed ^ seq.wrapping_mul(0xa076_1d64_78bd_642f);
    for chunk in out[HEADER..].chunks_mut(8) {
        let word = splitmix(&mut state).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    let sum = checksum(&out[HEADER..]) ^ checksum(&out[0..16]);
    out[16..24].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Parses and verifies a payload: `Some((tag, seq))` when the checksum
/// holds, `None` when the bytes were altered or are not ours.
pub fn check(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.len() < HEADER {
        return None;
    }
    let word =
        |r: std::ops::Range<usize>| u64::from_le_bytes(bytes[r].try_into().expect("8 bytes"));
    let sum = checksum(&bytes[HEADER..]) ^ checksum(&bytes[0..16]);
    (sum == word(16..24)).then(|| (word(0..8), word(8..16)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_verify_and_detect_corruption() {
        let p = make(TAG_RUN, 7, 42, 1024);
        assert_eq!(p.len(), 1024);
        assert_eq!(check(&p), Some((TAG_RUN, 42)));
        for i in [0, 9, 17, 500, 1023] {
            let mut bad = p.clone();
            bad[i] ^= 1;
            assert_eq!(check(&bad), None, "flip at {i}");
        }
        assert_ne!(make(TAG_RUN, 7, 43, 1024), p);
    }
}
