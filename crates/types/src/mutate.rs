//! The test-only mutation backdoor behind `scripts/verify.sh`'s mutation
//! checks: each check sets `CHRONICLE_MUTATE=<name>`, which silently
//! disables one protocol step (quarantine, salvage accounting, Z-set
//! consolidation, the vectorized kernels, term fencing, session dedupe,
//! frame CRCs, heavy-light placement), and requires the gate that guards
//! that step to FAIL — proof the gate still checks what it claims to.

use std::sync::OnceLock;

/// Every mutation verify.sh drives. The list is closed: a call site
/// asking for any other name is a typo no check would ever activate.
const NAMES: [&str; 8] = [
    "no_quarantine",
    "drop_salvage_report",
    "skip_consolidation",
    "scalar_fallback",
    "skip_fencing",
    "skip_session_dedupe",
    "skip_frame_crc",
    "static_placement",
];

/// True iff `CHRONICLE_MUTATE` names mutation `name`. The variable is read
/// once per process, so call sites on hot paths (Z-set consolidation) pay
/// a load and a compare, not an environment scan.
pub fn mutate(name: &str) -> bool {
    debug_assert!(NAMES.contains(&name), "unknown mutation `{name}`");
    static ACTIVE: OnceLock<Option<&'static str>> = OnceLock::new();
    let active = ACTIVE.get_or_init(|| {
        let v = std::env::var("CHRONICLE_MUTATE").ok()?;
        NAMES.into_iter().find(|n| *n == v)
    });
    *active == Some(name)
}

#[cfg(all(test, debug_assertions))]
mod tests {
    #[test]
    #[should_panic(expected = "unknown mutation")]
    fn unknown_name_at_a_call_site_panics_in_debug_builds() {
        super::mutate("skip_everything");
    }
}
