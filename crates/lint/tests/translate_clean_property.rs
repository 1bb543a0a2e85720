//! Property test: for any well-formed phase-structured program, the
//! §3.2 translation's output lints clean.
//!
//! The linter and the translator encode the same invariants from two
//! directions — `translate()` *constructs* per-thread traces, the
//! passes *check* them — so any disagreement (a translation output the
//! linter rejects, however exotic the input) is a bug in one of the
//! two.  Programs are generated from a seeded SplitMix64 so failures
//! reproduce exactly.

use extrap_time::{DurationNs, ElementId, SplitMix64, ThreadId};
use extrap_trace::{translate, PhaseAccess, PhaseProgram, PhaseWork, ProgramTrace};

/// A random phase-structured program that respects the data-parallel
/// contract: every access targets a remote, uniquely-owned element (no
/// self-accesses, no same-epoch write conflicts), because those are the
/// programs the paper's pipeline is *for* — the linter's job is to flag
/// everything else.
fn random_program(rng: &mut SplitMix64) -> ProgramTrace {
    let n_threads = 2 + rng.below(5) as usize; // 2..=6
    let n_phases = 1 + rng.below(5) as usize; // 1..=5
    let mut program = PhaseProgram::new(n_threads);
    let mut next_element = 0u32;
    for _ in 0..n_phases {
        let mut phase = Vec::with_capacity(n_threads);
        for t in 0..n_threads {
            let compute = DurationNs(1 + rng.below(200_000));
            let n_accesses = rng.below(4) as usize;
            let mut accesses = Vec::with_capacity(n_accesses);
            for _ in 0..n_accesses {
                // Any thread but the issuer owns the element; each access
                // touches a fresh element so no two threads ever contend.
                let owner = (t + 1 + rng.below(n_threads as u64 - 1) as usize) % n_threads;
                let element = ElementId(next_element);
                next_element += 1;
                accesses.push(PhaseAccess {
                    after: DurationNs(rng.below(compute.0.max(1))),
                    owner: ThreadId(owner as u32),
                    element,
                    declared_bytes: 8 * (1 + rng.below(128) as u32),
                    actual_bytes: 1 + rng.below(64) as u32,
                    write: rng.below(2) == 1,
                });
            }
            accesses.sort_by_key(|a| a.after);
            phase.push(PhaseWork { compute, accesses });
        }
        program.push_phase(phase);
    }
    program.record()
}

#[test]
fn translate_output_is_always_lint_clean() {
    let mut rng = SplitMix64::new(0x5EED_1995);
    for case in 0..200 {
        let pt = random_program(&mut rng);
        let program_report = extrap_lint::lint_program(&pt);
        assert!(
            program_report.is_clean(),
            "case {case}: generated program should be clean, got:\n{}",
            extrap_lint::render_text(&program_report)
        );
        let ts = translate(&pt, Default::default())
            .unwrap_or_else(|e| panic!("case {case}: translation failed: {e}"));
        let report = extrap_lint::lint_set(&ts);
        assert!(
            report.is_clean(),
            "case {case}: translated set should lint clean, got:\n{}",
            extrap_lint::render_text(&report)
        );
    }
}

#[test]
fn corrupting_any_translated_set_is_caught() {
    // The complementary direction on a smaller sample: drop one thread's
    // barrier events from a translated set and the linter must object
    // (E004 or E005 depending on what was dropped).
    let mut rng = SplitMix64::new(0xBAD_F00D);
    for case in 0..20 {
        let pt = random_program(&mut rng);
        let mut ts = translate(&pt, Default::default()).unwrap();
        let victim = rng.below(ts.n_threads() as u64) as usize;
        let before = ts.threads[victim].records.len();
        ts.threads[victim].records.retain(|r| !r.kind.is_sync());
        if ts.threads[victim].records.len() == before {
            continue; // single-phase program with no barriers? not possible, but safe
        }
        let report = extrap_lint::lint_set(&ts);
        assert!(
            report.has_errors(),
            "case {case}: de-synchronized set must not lint clean"
        );
    }
}
