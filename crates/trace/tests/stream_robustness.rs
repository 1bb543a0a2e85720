//! Robustness of the chunked streaming readers: arbitrary prefixes and
//! mutations of valid traces must never panic, and the streams must
//! agree with the slurp decoders (`decode_program_raw` /
//! `decode_set_raw`) on both the decoded value and the error message.
//!
//! Driven by `SplitMix64::cases` instead of `proptest` (crates.io is
//! unreachable in the build environment).

use extrap_time::{DurationNs, SplitMix64};
use extrap_trace::stream::{ProgramStream, SetStream, SliceSource};
use extrap_trace::{format, translate, PhaseProgram, ProgramTrace, TraceSet};

const CASES: u64 = 256;

fn sample_program() -> ProgramTrace {
    let mut p = PhaseProgram::new(3);
    p.push_uniform_phase(DurationNs(100));
    p.push_uniform_phase(DurationNs(250));
    p.record()
}

fn sample_set() -> TraceSet {
    translate(&sample_program(), Default::default()).unwrap()
}

/// Streams `data` as a program trace with deliberately tiny windows and
/// chunks so the refill/compaction paths are exercised on every case.
fn stream_program(data: &[u8], window: usize, chunk: usize) -> Result<ProgramTrace, String> {
    ProgramStream::with_options(SliceSource(data), window, chunk)
        .and_then(|mut s| s.read_to_end())
        .map_err(|e| e.to_string())
}

fn stream_set(data: &[u8], window: usize, chunk: usize) -> Result<TraceSet, String> {
    SetStream::with_options(SliceSource(data), window, chunk)
        .and_then(|mut s| s.read_to_end())
        .map_err(|e| e.to_string())
}

/// The slurp decoder is the behavioral reference: value equal on `Ok`,
/// message equal on `Err`.
fn assert_program_parity(data: &[u8], window: usize, chunk: usize, what: &str) {
    let slurp = format::decode_program_raw(data).map_err(|e| e.to_string());
    let stream = stream_program(data, window, chunk);
    assert_eq!(slurp, stream, "{what} (window {window}, chunk {chunk})");
}

fn assert_set_parity(data: &[u8], window: usize, chunk: usize, what: &str) {
    let slurp = format::decode_set_raw(data).map_err(|e| e.to_string());
    let stream = stream_set(data, window, chunk);
    assert_eq!(slurp, stream, "{what} (window {window}, chunk {chunk})");
}

#[test]
fn random_prefixes_never_panic_and_match_slurp() {
    let program = format::encode_program(&sample_program());
    let set = format::encode_set(&sample_set());
    for mut rng in SplitMix64::cases(0x57_0E44, CASES) {
        let window = rng.range(1, 64) as usize;
        let chunk = rng.range(1, 16) as usize;
        let pcut = rng.range(0, program.len() as u64 + 1) as usize;
        assert_program_parity(&program[..pcut], window, chunk, "program prefix");
        let scut = rng.range(0, set.len() as u64 + 1) as usize;
        assert_set_parity(&set[..scut], window, chunk, "set prefix");
    }
}

#[test]
fn random_mutations_never_panic_and_match_slurp() {
    let program = format::encode_program(&sample_program());
    let set = format::encode_set(&sample_set());
    for mut rng in SplitMix64::cases(0x57_0E45, CASES) {
        let window = rng.range(1, 64) as usize;
        let chunk = rng.range(1, 16) as usize;
        let mut p = program.clone();
        for _ in 0..rng.range(1, 5) {
            let pos = rng.range(0, p.len() as u64) as usize;
            p[pos] = rng.next_u64() as u8;
        }
        assert_program_parity(&p, window, chunk, "program mutation");
        let mut s = set.clone();
        for _ in 0..rng.range(1, 5) {
            let pos = rng.range(0, s.len() as u64) as usize;
            s[pos] = rng.next_u64() as u8;
        }
        assert_set_parity(&s, window, chunk, "set mutation");
    }
}

#[test]
fn random_garbage_never_panics() {
    for mut rng in SplitMix64::cases(0x57_0E46, CASES) {
        let len = rng.range(0, 512) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let window = rng.range(1, 64) as usize;
        let chunk = rng.range(1, 16) as usize;
        // Must return (usually Err), never panic.
        let _ = stream_program(&data, window, chunk);
        let _ = stream_set(&data, window, chunk);
    }
}

#[test]
fn truncation_and_extension_at_every_boundary() {
    // Exhaustive over every truncation point (not just sampled ones) at
    // one awkward window size, plus appended garbage.
    let program = format::encode_program(&sample_program());
    for cut in 0..=program.len() {
        assert_program_parity(&program[..cut], 5, 3, "program cut");
    }
    let set = format::encode_set(&sample_set());
    for cut in 0..=set.len() {
        assert_set_parity(&set[..cut], 5, 3, "set cut");
    }
    for extra in 1..4 {
        let mut p = program.clone();
        p.extend(vec![0xAAu8; extra]);
        assert_program_parity(&p, 5, 3, "program extension");
        let mut s = set.clone();
        s.extend(vec![0xAAu8; extra]);
        assert_set_parity(&s, 5, 3, "set extension");
    }
}
