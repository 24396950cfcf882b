//! Maps keyed by one `u64` id, hashed without SipHash.
//!
//! The MNO probe's per-SIM state (keyed by packed IMSI) and the loss
//! sink's per-device counters (keyed by device index) take one lookup per
//! event. Their keys are ids the simulator mints, so SipHash's resistance
//! to chosen keys buys nothing there: [`IdHasher`] finishes the id with
//! [`mix64`] instead. No output depends on either map's iteration order —
//! the probe parks its open rows in IMSI order, and the sink never
//! iterates its counters.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use wtr_model::hash::mix64;

/// A `HashMap` keyed by a `u64` id, hashed by [`IdHasher`].
pub(crate) type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// Hashes a `u64` key to `mix64` of it.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // A `u64` key arrives through `write_u64`; this keeps the hasher
        // total for any other input.
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 ^= id;
    }

    fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn a_u64_key_hashes_to_its_mix() {
        let build = BuildHasherDefault::<IdHasher>::default();
        for id in [0u64, 1, 0x0000_d6a0_1c00_0042, u64::MAX] {
            assert_eq!(build.hash_one(id), mix64(id));
        }
    }
}
