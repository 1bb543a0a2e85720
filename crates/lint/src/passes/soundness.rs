//! Translation soundness: does the §3.2 translation of this program
//! preserve its meaning?
//!
//! Two checks:
//!
//! * **Static deadlock detection** (`E005`) — every thread must pass the
//!   same barrier sequence.  With global barriers a thread that enters
//!   fewer (or different) barriers than its peers leaves the others
//!   waiting forever; translation would silently manufacture a schedule
//!   for a program that cannot finish.
//! * **Causality** (`E007`) — a vector-clock happens-before check that
//!   the translated per-thread replay preserves the dependences of the
//!   original run.  Under the data-parallel model the only inter-thread
//!   ordering is the global barrier, so each thread's vector clock
//!   collapses to its barrier-epoch counter: two accesses on different
//!   threads are ordered iff their epochs differ.  A remote **write**
//!   concurrent (same epoch) with another thread's access to the same
//!   element therefore has no happens-before edge — the value observed
//!   depends on timing, and extrapolated timings are exactly what the
//!   pipeline changes.  This is the paper's §5 determinism condition,
//!   and this pass is the tool's only check of it (`extrap lint FILE`),
//!   reported as a race-detector diagnostic with spans.
//!
//! The pass is a thin adapter: it replays the in-memory trace through
//! the incremental [`SoundnessStream`] machine, the same digest-keeping
//! state machine the chunked streaming drivers ([`crate::stream`]) feed
//! record by record — so whole-trace and streaming lint agree by
//! construction.  Records referencing out-of-range thread ids are
//! skipped here exactly as the streaming router skips them
//! (well-formedness reports them as `E003`).

use super::{Pass, Target};
use crate::diag::{Report, Span};
use crate::stream::SoundnessStream;

/// The translation-soundness pass (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct TranslationSoundness;

impl Pass for TranslationSoundness {
    fn name(&self) -> &'static str {
        "translation-soundness"
    }

    fn run(&self, target: &Target<'_>, report: &mut Report) {
        match target {
            Target::Program(pt) => {
                let mut m = SoundnessStream::for_program(pt.n_threads);
                for (i, r) in pt.records.iter().enumerate() {
                    if r.thread.index() < pt.n_threads {
                        m.record(r.thread.index(), Span::at(r.thread, i), r);
                    }
                }
                m.finish(report);
            }
            Target::Set(ts) => {
                let mut m = SoundnessStream::for_set();
                for (idx, t) in ts.threads.iter().enumerate() {
                    m.begin_thread(t.thread);
                    for (j, r) in t.records.iter().enumerate() {
                        m.record(idx, Span::at(t.thread, j), r);
                    }
                }
                m.finish(report);
            }
            Target::Params(_) => {}
        }
    }
}
