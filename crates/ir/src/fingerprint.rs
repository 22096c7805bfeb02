//! Content hashing of kernels for the content-addressed stage cache.
//!
//! The hash is FNV-1a over the *canonical printed form* of the IR, not
//! over source bytes: parsing strips comments and normalizes whitespace,
//! so a kernel whose source changed only cosmetically fingerprints the
//! same and reuses every cached stage. (The service additionally keys a
//! cheap `parsed` level on raw source bytes; that one intentionally
//! misses on comment edits, and the kernel-level hash here is what still
//! hits.)
//!
//! FNV-1a is the same hash family `Selection::content_hash` already uses —
//! not cryptographic, which is fine: keys come from trusted local input,
//! and a collision costs a wrong cache hit under an astronomically
//! unlikely 64-bit coincidence, the accepted trade everywhere else in the
//! repo's content-addressed plumbing.

use crate::ast::Block;
use crate::printer::print_block_string;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Mix an additional 64-bit word into an FNV-1a hash (little-endian bytes,
/// so the result is platform-independent).
pub fn fnv1a_mix(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Content hash of a kernel body: FNV-1a over its canonical printed form.
pub fn fingerprint_block(b: &Block) -> u64 {
    fnv1a(print_block_string(b).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const KERNEL: &str = r#"
void k(double a[16], double out[16], double c0) {
  #pragma acc parallel loop gang vector
  for (int i = 1; i < 15; i++) {
    out[i] = a[i] * c0 + a[i - 1];
  }
}
"#;

    #[test]
    fn comment_and_whitespace_edits_do_not_change_the_fingerprint() {
        let edited = KERNEL
            .replace("out[i] =", "/* cost-irrelevant comment */ out[i]   =")
            .replace("double c0", "double   c0");
        let a = parse_program(KERNEL).unwrap();
        let b = parse_program(&edited).unwrap();
        assert_eq!(
            fingerprint_block(&a.functions[0].body),
            fingerprint_block(&b.functions[0].body),
            "cosmetic edits must fingerprint identically"
        );
    }

    #[test]
    fn semantic_edits_change_the_fingerprint() {
        let changed = KERNEL.replace("a[i - 1]", "a[i + 1]");
        let a = parse_program(KERNEL).unwrap();
        let b = parse_program(&changed).unwrap();
        assert_ne!(
            fingerprint_block(&a.functions[0].body),
            fingerprint_block(&b.functions[0].body),
            "a real edit must change the hash"
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_ne!(fnv1a_mix(fnv1a(b"x"), 1), fnv1a_mix(fnv1a(b"x"), 2));
    }
}
