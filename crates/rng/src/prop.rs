//! A lightweight, shrink-free property-test harness.
//!
//! Replaces the external `proptest` dependency for this workspace's
//! property suites. The contract is intentionally small:
//!
//! - Each property runs `cases` times; case `i` receives an RNG forked from
//!   the root seed with stream id `i`, so adding or reordering cases never
//!   changes the inputs of the others.
//! - The root seed is derived from the property name (distinct properties
//!   see distinct inputs) unless `TP_PROP_SEED` overrides it.
//! - On failure the harness reports the property name, the failing case
//!   index, and the exact `TP_PROP_SEED`/`TP_PROP_CASES` pair that
//!   reproduces the failure in isolation — then re-raises the panic. No
//!   shrinking: the reported seed replays the raw counterexample.
//! - `TP_PROP_CASES` scales every suite up or down without recompiling.
//!
//! # Example
//!
//! ```
//! use tp_rng::{prop, Rng};
//!
//! prop::check("sum_is_commutative", 64, |rng| {
//!     let a = rng.gen_range(-1.0e6f32..1.0e6);
//!     let b = rng.gen_range(-1.0e6f32..1.0e6);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::{seed_from_env, splitmix64, Rng, StdRng};

/// Derives the root seed for a named property: a hash of the name, unless
/// `TP_PROP_SEED` is set (which pins every property to that seed).
pub fn root_seed(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64; // FNV offset basis
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut t = h;
    seed_from_env("TP_PROP_SEED", splitmix64(&mut t))
}

/// The number of cases a property will run: `default_cases` unless
/// `TP_PROP_CASES` overrides it.
pub fn case_count(default_cases: usize) -> usize {
    seed_from_env("TP_PROP_CASES", default_cases as u64).max(1) as usize
}

/// Runs `property` against `default_cases` seeded cases.
///
/// The closure receives a fresh [`StdRng`] per case and asserts its own
/// invariants (plain `assert!` / `panic!`). Failures are annotated with the
/// reproduction recipe and re-raised.
///
/// # Panics
///
/// Panics iff the property panics for some case.
pub fn check<F>(name: &str, default_cases: usize, mut property: F)
where
    F: FnMut(&mut StdRng),
{
    let seed = root_seed(name);
    let cases = case_count(default_cases);
    let root = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let mut rng = root.fork(case as u64);
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!(
                "[tp-prop] property '{name}' failed at case {case}/{cases}; \
                 reproduce with TP_PROP_SEED={seed} TP_PROP_CASES={n}",
                n = case + 1
            );
            resume_unwind(payload);
        }
    }
}

/// `n` uniform `f32` samples in `[lo, hi)` — the workhorse generator of the
/// gradient-check and geometry suites.
pub fn vec_f32<R: Rng>(rng: &mut R, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// `n` uniform indices in `[0, bound)`.
pub fn vec_index<R: Rng>(rng: &mut R, n: usize, bound: usize) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..bound)).collect()
}

/// Applies `count` seeded byte-level mutations to `bytes` in place: each
/// mutation flips, overwrites, inserts, deletes or duplicates one byte at a
/// random offset, or truncates the tail. The serve codec fuzz suite
/// mutates request lines with this, and the fault injectors corrupt
/// replies and checkpoint bytes with it; determinism follows from the
/// caller's forked RNG.
pub fn mutate_bytes<R: Rng>(rng: &mut R, bytes: &mut Vec<u8>, count: usize) {
    for _ in 0..count {
        if bytes.is_empty() {
            bytes.push(rng.gen_range(0u64..256) as u8);
            continue;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0u32..6) {
            0 => bytes[at] ^= 1 << rng.gen_range(0u32..8),
            1 => bytes[at] = rng.gen_range(0u64..256) as u8,
            2 => bytes.insert(at, rng.gen_range(0u64..256) as u8),
            3 => {
                bytes.remove(at);
            }
            4 => {
                let b = bytes[at];
                bytes.insert(at, b);
            }
            _ => bytes.truncate(at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutate_bytes_is_deterministic_and_changes_input() {
        let original: Vec<u8> = (0u8..64).collect();
        let mut a = original.clone();
        let mut b = original.clone();
        mutate_bytes(&mut StdRng::seed_from_u64(3), &mut a, 8);
        mutate_bytes(&mut StdRng::seed_from_u64(3), &mut b, 8);
        assert_eq!(a, b, "same seed must give the same mutant");
        assert_ne!(a, original, "8 mutations should perturb 64 bytes");
        // Mutating an empty buffer must not panic and must make progress.
        let mut empty = Vec::new();
        mutate_bytes(&mut StdRng::seed_from_u64(4), &mut empty, 3);
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0usize);
        check("always_true", 16, |_| {
            counter.set(counter.get() + 1);
        });
        assert_eq!(counter.get(), case_count(16));
    }

    #[test]
    fn cases_are_deterministic_and_distinct() {
        let mut first = Vec::new();
        check("record_inputs", 8, |rng| {
            first.push(rng.next_u64());
        });
        let mut second = Vec::new();
        check("record_inputs", 8, |rng| {
            second.push(rng.next_u64());
        });
        assert_eq!(first, second);
        let mut dedup = first.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), first.len(), "cases must see distinct streams");
    }

    #[test]
    fn distinct_properties_see_distinct_streams() {
        assert_ne!(root_seed("prop_a"), root_seed("prop_b"));
    }

    #[test]
    fn failure_reports_and_repanics() {
        let result = std::panic::catch_unwind(|| {
            check("sometimes_false", 32, |rng| {
                let v: usize = rng.gen_range(0..8);
                assert!(v != 3, "hit the failing value");
            });
        });
        assert!(result.is_err(), "a failing property must panic");
    }

    #[test]
    fn generators_produce_requested_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let v = vec_f32(&mut rng, 12, -2.0, 2.0);
        assert_eq!(v.len(), 12);
        assert!(v.iter().all(|x| (-2.0..2.0).contains(x)));
        let idx = vec_index(&mut rng, 6, 3);
        assert_eq!(idx.len(), 6);
        assert!(idx.iter().all(|&i| i < 3));
    }
}
