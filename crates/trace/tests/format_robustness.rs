//! Robustness of the binary trace codec: arbitrary and corrupted inputs
//! must produce errors, never panics or bogus successes.
//!
//! Driven by `SplitMix64::cases` instead of `proptest` (crates.io is
//! unreachable in the build environment).

use extrap_time::{DurationNs, SplitMix64};
use extrap_trace::{format, PhaseProgram};

const CASES: u64 = 256;

fn sample_bytes() -> Vec<u8> {
    let mut p = PhaseProgram::new(3);
    p.push_uniform_phase(DurationNs(100));
    p.push_uniform_phase(DurationNs(250));
    format::encode_program(&p.record())
}

#[test]
fn random_bytes_never_panic() {
    for mut rng in SplitMix64::cases(0x2A4D, CASES) {
        let len = rng.range(0, 512) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Must return (usually Err), never panic.
        let _ = format::decode_program(&data);
        let _ = format::decode_set(&data);
    }
}

#[test]
fn single_byte_corruption_never_panics() {
    let bytes = sample_bytes();
    for pos in 0..bytes.len() {
        for value in [0u8, 1, 7, 0x7F, 0x80, 0xFF] {
            let mut corrupted = bytes.clone();
            corrupted[pos] = value;
            // If it still decodes, it must be a structurally valid trace.
            if let Ok(pt) = format::decode_program(&corrupted) {
                assert!(pt.validate().is_ok());
            }
        }
    }
}

#[test]
fn truncation_never_panics() {
    let bytes = sample_bytes();
    for cut in 0..bytes.len() {
        assert!(format::decode_program(&bytes[..cut]).is_err(), "cut {cut}");
    }
}

#[test]
fn round_trip_of_random_phase_programs() {
    for mut rng in SplitMix64::cases(0x2070, CASES) {
        let n = rng.range(1, 6) as usize;
        let mut p = PhaseProgram::new(n);
        for _ in 0..rng.range(1, 5) {
            p.push_uniform_phase(DurationNs(rng.range(1, 100_000)));
        }
        let pt = p.record();
        let bytes = format::encode_program(&pt);
        let back = format::decode_program(&bytes).unwrap();
        assert_eq!(pt, back);
    }
}
