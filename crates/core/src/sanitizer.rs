//! The bounds-sanitizer hook: an optional invariant layer that checks
//! every simulation result against a statically derived validity
//! envelope.
//!
//! `extrap-core` cannot depend on `extrap-analyze` (the analyzer
//! depends on core's types), so the check itself is *injected*: callers
//! install a checker function — in practice
//! `extrap_analyze::install_sanitizer`, which registers
//! `verify_prediction` — and flip it on with [`set_enabled`].  When
//! installed and enabled, the engine's one strategy dispatch — behind
//! both [`Extrapolator::run`](crate::Extrapolator::run) and every
//! [`sweep`](crate::sweep()) job — passes each result (exact *and*
//! representative composition) through the checker and panics on a
//! violation: a
//! simulated time outside its physical work/span envelope means an
//! engine, clustering, or scheduler bug, and silently extrapolating
//! from it would be worse than crashing.
//!
//! The hook is process-global (sanitizing is a run-mode, not a
//! per-call concern) and costs one atomic load per simulation when
//! disabled.  Registration synchronizes through `pcpp_rt::sync`, so the
//! install/enable/check races are model-checkable (the `extrap-check`
//! `sanitizer-race` scenario drives exactly those).

use crate::metrics::Prediction;
use crate::params::SimParams;
use crate::processor::CompiledProgram;
use pcpp_rt::sync::{AtomicFlag, Mutex};

/// A bounds checker: `Ok(())` when `prediction` is consistent with the
/// static envelope of `program` under `params` (or no envelope exists).
pub type BoundsCheck = fn(&CompiledProgram, &SimParams, &Prediction) -> Result<(), String>;

static CHECKER: Mutex<Option<BoundsCheck>> = Mutex::new(None);
static ENABLED: AtomicFlag = AtomicFlag::new(false);

/// Installs (or replaces) the process-global bounds checker.  The
/// checker only runs once [`set_enabled`]`(true)` is also called.
pub fn install(check: BoundsCheck) {
    *CHECKER.lock() = Some(check);
}

/// Turns sanitizer checking on or off without touching the installed
/// checker.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled);
}

/// Whether a checker is installed *and* checking is enabled.
pub fn is_active() -> bool {
    ENABLED.load() && CHECKER.lock().is_some()
}

/// Runs the installed checker against one simulation result, panicking
/// on a violation.  A no-op when disabled or nothing is installed.
///
/// # Panics
///
/// Panics with the checker's diagnostic when the result escapes its
/// static envelope — by design: a bound violation is a simulator bug,
/// and every downstream number would inherit it.
pub fn check(program: &CompiledProgram, params: &SimParams, prediction: &Prediction) {
    if !ENABLED.load() {
        return;
    }
    let checker = *CHECKER.lock();
    if let Some(checker) = checker {
        if let Err(violation) = checker(program, params, prediction) {
            panic!("bounds sanitizer: {violation}");
        }
    }
}
