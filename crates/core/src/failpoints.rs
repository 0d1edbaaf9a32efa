//! Deterministic fault injection for chaos testing.
//!
//! A *failpoint* is a named site in production code — `fail_point("x")?`
//! — that does nothing until a test arms it. Armed sites fire a chosen
//! [`FailAction`] (error, panic, or delay) a bounded or unbounded number
//! of times, letting tests drive a writer into failure at an exact
//! moment and then pin the recovery invariants: the serving layer's
//! chaos tests arm its update (`service.apply`), re-harvest
//! (`service.reharvest`), and publish (`serve.publish`) sites and prove
//! the previous generation keeps serving bit-identical answers.
//!
//! The production sites: `service.apply` and `service.reharvest`
//! (`fam-serve`'s `DatasetService`), `serve.solve` and `serve.publish`
//! (its server), `par.dispatch` (the worker pool), and `dynamic.apply`
//! (the entry of the library update replica in [`crate::dynamic`]).
//!
//! The registry is process-global (sites are reached from deep inside
//! engine code where threading a handle through would distort every
//! signature), so tests that arm sites must serialize with each other.
//! The unarmed fast path is a single relaxed atomic load — cheap enough
//! to leave the hooks compiled into release builds, which is the point:
//! the *tested* binary is the *shipped* binary.
//!
//! ```
//! use fam_core::failpoints::{self, FailAction};
//!
//! fn fallible_step() -> fam_core::Result<()> {
//!     failpoints::fail_point("docs.step")?;
//!     Ok(())
//! }
//!
//! assert!(fallible_step().is_ok());
//! {
//!     let _guard = failpoints::arm("docs.step", FailAction::Error);
//!     assert!(fallible_step().is_err());
//! } // guard dropped: disarmed
//! assert!(fallible_step().is_ok());
//! assert!(failpoints::triggered("docs.step") >= 1);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crate::error::{FamError, Result};

/// What an armed failpoint does when execution reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Return [`FamError::FaultInjected`] from the site.
    Error,
    /// Panic at the site (exercises unwind-safety of the surrounding
    /// code; the serving layer must answer 500 and keep the previous
    /// generation intact).
    Panic,
    /// Sleep for the given duration, then continue normally (models a
    /// slow dependency; used to pin deadline enforcement and that
    /// readers never wait on a stalled writer).
    Delay(Duration),
}

#[derive(Debug)]
struct Armed {
    action: FailAction,
    /// Remaining firings before the site auto-disarms; `None` fires
    /// until explicitly disarmed.
    remaining: Option<u64>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    armed: BTreeMap<String, Armed>,
    /// Lifetime count of firings per site (survives disarm; cleared by
    /// [`reset`]). Only armed evaluations count — the unarmed fast path
    /// does not take the lock.
    triggered: BTreeMap<String, u64>,
}

/// Count of currently armed sites: the fast path skips the registry
/// lock entirely while this is zero.
static ARMED_COUNT: AtomicUsize = AtomicUsize::new(0);

fn registry() -> MutexGuard<'static, RegistryInner> {
    static REGISTRY: OnceLock<Mutex<RegistryInner>> = OnceLock::new();
    // The registry holds plain maps; any state is valid, so a poisoned
    // lock (a panic while armed — the Panic action's whole purpose)
    // recovers by taking the inner value.
    match REGISTRY.get_or_init(Mutex::default).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Disarms `site` when dropped, scoping an [`arm`] to a test block.
#[derive(Debug)]
#[must_use = "dropping the guard disarms the failpoint immediately"]
pub struct FailpointGuard {
    site: String,
}

impl Drop for FailpointGuard {
    fn drop(&mut self) {
        disarm(&self.site);
    }
}

/// Arms `site` to fire `action` on every evaluation until the returned
/// guard drops (or [`disarm`] is called).
pub fn arm(site: &str, action: FailAction) -> FailpointGuard {
    arm_inner(site, action, None)
}

/// Arms `site` to fire `action` exactly `times` evaluations, then
/// auto-disarm — recovery tests arm one failure and let the retry
/// succeed. The guard still disarms early on drop.
pub fn arm_times(site: &str, action: FailAction, times: u64) -> FailpointGuard {
    arm_inner(site, action, Some(times))
}

fn arm_inner(site: &str, action: FailAction, remaining: Option<u64>) -> FailpointGuard {
    let mut reg = registry();
    if reg.armed.insert(site.to_string(), Armed { action, remaining }).is_none() {
        ARMED_COUNT.fetch_add(1, Ordering::Release);
    }
    FailpointGuard { site: site.to_string() }
}

/// Disarms `site` (no-op when not armed). Trigger counts are retained.
pub fn disarm(site: &str) {
    let mut reg = registry();
    if reg.armed.remove(site).is_some() {
        ARMED_COUNT.fetch_sub(1, Ordering::Release);
    }
}

/// Disarms every site and clears all trigger counts.
pub fn reset() {
    let mut reg = registry();
    let n = reg.armed.len();
    reg.armed.clear();
    reg.triggered.clear();
    ARMED_COUNT.fetch_sub(n, Ordering::Release);
}

/// Lifetime count of armed firings of `site` (see `RegistryInner`).
pub fn triggered(site: &str) -> u64 {
    registry().triggered.get(site).copied().unwrap_or(0)
}

/// A named fault-injection site.
///
/// Unarmed (the production state) this is one relaxed atomic load.
/// Armed, it fires the configured [`FailAction`] and counts the firing.
///
/// # Errors
///
/// Returns [`FamError::FaultInjected`] when armed with
/// [`FailAction::Error`].
///
/// # Panics
///
/// Panics when armed with [`FailAction::Panic`].
pub fn fail_point(site: &str) -> Result<()> {
    if ARMED_COUNT.load(Ordering::Acquire) == 0 {
        return Ok(());
    }
    let action = {
        let mut reg = registry();
        let Some(armed) = reg.armed.get_mut(site) else { return Ok(()) };
        let action = armed.action;
        let expired = match &mut armed.remaining {
            Some(0) => true,
            Some(n) => {
                *n -= 1;
                false
            }
            None => false,
        };
        if expired {
            reg.armed.remove(site);
            ARMED_COUNT.fetch_sub(1, Ordering::Release);
            return Ok(());
        }
        *reg.triggered.entry(site.to_string()).or_insert(0) += 1;
        if let Some(0) = reg.armed.get(site).and_then(|a| a.remaining) {
            reg.armed.remove(site);
            ARMED_COUNT.fetch_sub(1, Ordering::Release);
        }
        action
    };
    match action {
        FailAction::Error => Err(FamError::FaultInjected { site: site.to_string() }),
        FailAction::Panic => panic!("failpoint `{site}` armed to panic"),
        FailAction::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that arm sites serialize.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn unarmed_sites_are_free_and_ok() {
        let _l = lock();
        reset();
        assert!(fail_point("never.armed").is_ok());
        assert_eq!(triggered("never.armed"), 0);
    }

    #[test]
    fn armed_error_fires_until_guard_drops() {
        let _l = lock();
        reset();
        {
            let _g = arm("t.err", FailAction::Error);
            let err = fail_point("t.err").unwrap_err();
            assert!(
                matches!(err, FamError::FaultInjected { ref site } if site == "t.err"),
                "{err}"
            );
            assert!(err.to_string().contains("t.err"), "{err}");
            assert!(fail_point("t.err").is_err());
            // Other sites are unaffected.
            assert!(fail_point("t.other").is_ok());
        }
        assert!(fail_point("t.err").is_ok(), "guard drop must disarm");
        assert_eq!(triggered("t.err"), 2);
    }

    #[test]
    fn arm_times_auto_disarms_after_the_budget() {
        let _l = lock();
        reset();
        let _g = arm_times("t.twice", FailAction::Error, 2);
        assert!(fail_point("t.twice").is_err());
        assert!(fail_point("t.twice").is_err());
        assert!(fail_point("t.twice").is_ok(), "third evaluation is past the budget");
        assert!(fail_point("t.twice").is_ok());
        assert_eq!(triggered("t.twice"), 2);
    }

    #[test]
    fn delay_fires_then_continues() {
        let _l = lock();
        reset();
        let _g = arm("t.slow", FailAction::Delay(Duration::from_millis(30)));
        let t0 = std::time::Instant::now();
        assert!(fail_point("t.slow").is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(triggered("t.slow"), 1);
    }

    #[test]
    fn panic_action_panics_and_registry_recovers() {
        let _l = lock();
        reset();
        {
            let _g = arm("t.boom", FailAction::Panic);
            let r = std::panic::catch_unwind(|| fail_point("t.boom"));
            assert!(r.is_err(), "armed Panic must panic");
        }
        // The poisoned registry lock recovers; sites stay usable.
        assert!(fail_point("t.boom").is_ok());
        assert_eq!(triggered("t.boom"), 1);
        let _g = arm("t.after", FailAction::Error);
        assert!(fail_point("t.after").is_err());
    }

    #[test]
    fn rearming_replaces_the_action() {
        let _l = lock();
        reset();
        let _a = arm("t.swap", FailAction::Error);
        let _b = arm("t.swap", FailAction::Delay(Duration::from_millis(1)));
        assert!(fail_point("t.swap").is_ok(), "re-arm replaces Error with Delay");
        reset();
        assert_eq!(triggered("t.swap"), 0, "reset clears trigger counts");
    }
}
