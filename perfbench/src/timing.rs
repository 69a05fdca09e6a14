//! Timing helpers: repeated set-up and single-layer measurements.

use std::time::Instant;

use crate::stats::median;

/// Set-ups per run: at least `MIN`, more while they have taken less than
/// `BUDGET_S` in total, at most `MAX`. `setup_s` is their median, so a
/// cheap set-up is sampled often enough to be steady.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 6.0;

/// Run `build` repeatedly as described above, handing every result but
/// the last to `discard` (untimed) before the next build starts. Returns
/// the last result and every build's wall time in seconds.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let t0 = Instant::now();
        kept = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

/// Median wall time in microseconds of one `f(i)` call, over `passes`
/// passes of `i in 0..items`, each call timed on its own.
pub fn time_median_us(items: usize, passes: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(items * passes);
    for _ in 0..passes {
        for i in 0..items {
            let t0 = Instant::now();
            f(i);
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&samples).unwrap_or(f64::NAN)
}
