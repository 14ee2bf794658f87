//! In-tree sampling self-profiler.
//!
//! The paper's performance claims are about where decode time goes —
//! framing, entropy decoding, MTF, tree reassembly — and the
//! per-stage self times answer *how much* but not *in what shape*.
//! This module answers the shape question with zero dependencies: it
//! credits elapsed time (or explicit virtual [`tick`]s) to the calling
//! thread's open [`telemetry::stage`] path at a sampling period,
//! accumulating collapsed-stack counts — the `a;b;c count` format
//! every flamegraph renderer consumes.
//!
//! The profiler is a sink of the one stage primitive, not a second
//! set of markers: it reads the stage stack and is fed the stage
//! clock reads at every entry and exit. Disarmed (the default) it
//! costs nothing; arming either clock turns stages on.
//!
//! Two clocks are supported:
//!
//! - **wall** — [`set_wall_period_nanos`] arms it with a sampling
//!   period; every stage transition credits the nanoseconds since the
//!   previous one to the path as it was. This is what `codecomp
//!   profile <subcommand>` uses.
//! - **virtual** — deterministic callers (unit tests) arm
//!   [`set_virtual_period`] and call [`tick`] with explicit units.
//!   Same inputs, same collapsed output, byte for byte.
//!
//! The collapsed output ([`render_collapsed`]) is validated by
//! [`validate_collapsed_line`], which `codecomp telemetry check
//! --collapsed` applies in CI.

use crate::telemetry::{self, set_stage_sink, SINK_PROFILER};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

// 0 = disarmed, for both clocks.
static WALL_PERIOD: AtomicU64 = AtomicU64::new(0);
static VIRT_PERIOD: AtomicU64 = AtomicU64::new(0);
// BTreeMap so `collapsed()` is sorted without a post-pass; the map is
// only touched when a period boundary credits samples.
static SAMPLES: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Per-thread clock state: the previous wall transition and the
/// remainders below one period.
#[derive(Default)]
struct Carry {
    last: Option<u64>,
    nanos: u64,
    ticks: u64,
}

thread_local! {
    static CARRY: RefCell<Carry> = RefCell::new(Carry::default());
}

/// Adds `units` to `carry` and credits one sample per whole `period`
/// to `path`; with no stage open the samples are dropped.
fn accrue(carry: &mut u64, units: u64, period: u64, path: &[&'static str]) {
    *carry = carry.saturating_add(units);
    let samples = *carry / period;
    if samples > 0 {
        *carry %= period;
        if !path.is_empty() {
            let mut map = SAMPLES.lock().expect("profile sample lock");
            *map.entry(path.join(";")).or_insert(0) += samples;
        }
    }
}

fn rearm() {
    let armed =
        WALL_PERIOD.load(Ordering::Relaxed) > 0 || VIRT_PERIOD.load(Ordering::Relaxed) > 0;
    set_stage_sink(SINK_PROFILER, armed);
}

/// Called by [`telemetry::stage`] at every entry and exit with the
/// path as it was before the transition and the stage's clock read:
/// credits the wall time since the previous transition to that path.
pub(crate) fn transition(path: &[&'static str], now: u64) {
    let period = WALL_PERIOD.load(Ordering::Relaxed);
    if period == 0 {
        return;
    }
    CARRY.with(|c| {
        let c = &mut *c.borrow_mut();
        if let Some(last) = c.last {
            accrue(&mut c.nanos, now - last, period, path);
        }
        c.last = Some(now);
    });
}

/// Credits `units` virtual ticks to the calling thread's open stage
/// path (sampled at the virtual period). The deterministic
/// alternative to wall sampling; a no-op while the virtual clock is
/// disarmed.
pub fn tick(units: u64) {
    let period = VIRT_PERIOD.load(Ordering::Relaxed);
    if period == 0 {
        return;
    }
    telemetry::with_stage_path(|path| {
        CARRY.with(|c| accrue(&mut c.borrow_mut().ticks, units, period, path));
    });
}

/// Sets the wall sampling period in nanoseconds; one sample is
/// credited per elapsed period. `0` (the default) disarms it.
pub fn set_wall_period_nanos(period: u64) {
    WALL_PERIOD.store(period, Ordering::Relaxed);
    rearm();
}

/// Sets the virtual crediting period: one sample per `period` ticks.
/// `0` (the default) disarms the virtual clock.
pub fn set_virtual_period(period: u64) {
    VIRT_PERIOD.store(period, Ordering::Relaxed);
    rearm();
}

/// Clears accumulated samples and the calling thread's clock state.
/// Other threads' in-flight carry is not reclaimed; reset between
/// passes from the thread that profiles.
pub fn reset() {
    SAMPLES.lock().expect("profile sample lock").clear();
    CARRY.with(|c| *c.borrow_mut() = Carry::default());
}

/// The accumulated collapsed stacks, sorted: `("a;b;c", samples)`.
#[must_use]
pub fn collapsed() -> Vec<(String, u64)> {
    SAMPLES
        .lock()
        .expect("profile sample lock")
        .iter()
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

/// Renders the accumulated samples in collapsed-stack form, one
/// `stack;frames count` line each (flamegraph-compatible). Empty
/// string when nothing was sampled.
#[must_use]
pub fn render_collapsed() -> String {
    let mut out = String::new();
    for (stack, n) in collapsed() {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&n.to_string());
        out.push('\n');
    }
    out
}

/// Validates one line of collapsed-stack output: `frame[;frame]* N`
/// with non-empty, space-free frames and a positive sample count.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_collapsed_line(line: &str) -> Result<(), String> {
    let (stack, count) = line
        .rsplit_once(' ')
        .ok_or_else(|| "missing sample count (expected `stack count`)".to_string())?;
    let n: u64 = count
        .parse()
        .map_err(|_| format!("sample count {count:?} is not an integer"))?;
    if n == 0 {
        return Err("sample count must be positive".into());
    }
    if stack.is_empty() {
        return Err("empty stack".into());
    }
    for frame in stack.split(';') {
        if frame.is_empty() {
            return Err("empty frame in stack".into());
        }
        if frame.contains(' ') {
            return Err(format!("frame {frame:?} contains a space"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::stage;

    // The sample map and periods are process-global; tests that arm
    // or reset them must not interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Arms only the virtual clock, with a fresh sample map.
    fn arm_virtual(period: u64) {
        reset();
        set_wall_period_nanos(0);
        set_virtual_period(period);
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_collapsed_line("a 5").unwrap();
        validate_collapsed_line("wire.decode;frame;inflate 123").unwrap();
        for bad in ["", "a", "a 0", "a x", " 5", "a;;b 5", "a b;c 5"] {
            assert!(validate_collapsed_line(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn disarmed_profiler_records_nothing() {
        let _serial = serial();
        arm_virtual(0);
        {
            let _a = stage("a");
            tick(100);
        }
        assert!(collapsed().is_empty());
        assert_eq!(render_collapsed(), "");
    }

    #[test]
    fn virtual_ticks_attribute_to_the_current_stack() {
        let _serial = serial();
        arm_virtual(10);
        {
            let _a = stage("a");
            tick(30);
            {
                let _b = stage("b");
                tick(25);
            }
            tick(15);
        }
        tick(100); // empty stack: dropped, not attributed
        let got = collapsed();
        // a: 30/10 = 3 samples, then 15 ticks + 5 carried from a;b = 2.
        // a;b: 25/10 = 2 samples, 5 ticks carry to the outer scope.
        assert_eq!(got, vec![("a".to_string(), 5), ("a;b".to_string(), 2)]);
        let rendered = render_collapsed();
        assert_eq!(rendered, "a 5\na;b 2\n");
        for line in rendered.lines() {
            validate_collapsed_line(line).unwrap();
        }
        reset();
        assert!(collapsed().is_empty());
        set_virtual_period(0);
    }

    #[test]
    fn same_tick_sequence_is_deterministic() {
        let _serial = serial();
        let run = || {
            arm_virtual(3);
            let outer = stage("decode");
            for i in 0..50u64 {
                let _inner = stage(if i % 2 == 0 { "mtf" } else { "join" });
                tick(i % 7);
            }
            drop(outer);
            render_collapsed()
        };
        let first = run();
        assert!(first.contains("decode;mtf "), "{first}");
        assert_eq!(first, run());
        set_virtual_period(0);
    }

    #[test]
    fn concurrent_ticks_sum_exactly() {
        let _serial = serial();
        arm_virtual(1);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = stage("shared");
                    for _ in 0..1000 {
                        tick(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total: u64 = collapsed()
            .iter()
            .filter(|(k, _)| k == "shared")
            .map(|&(_, n)| n)
            .sum();
        assert_eq!(total, 4000);
        reset();
        set_virtual_period(0);
    }
}
