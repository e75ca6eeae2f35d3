//! What `bench_faults` and `bench_scenarios` share: the score row they
//! write for every [`SystemEval`] (all of it from
//! [`xatu_core::eval::evaluate_system`], the headline's scorer), and the
//! gate that holds a run's recorded survivals bit-identical at 1 and 4
//! worker threads.

use crate::json::Value;
use std::fmt::Debug;
use xatu_core::eval::SystemEval;
use xatu_metrics::percentile::percentile;

/// One score's JSON fields: events detected, detected within `window`
/// minutes of onset, events, median delay over the detected events,
/// median mitigation effectiveness and p75 per-customer overhead.
pub fn fields(eval: &SystemEval, window: u32) -> Vec<(&'static str, Value)> {
    let effectiveness = percentile(&eval.effectiveness_values(), 50.0).unwrap_or(f64::NAN);
    vec![
        ("detected", Value::num(eval.detected)),
        ("timely", Value::num(eval.timely(window))),
        ("events", Value::num(eval.records.len())),
        ("median_delay_min", Value::fixed(eval.median_delay(), 2)),
        ("median_effectiveness", Value::fixed(effectiveness, 3)),
        ("p75_overhead", Value::fixed(eval.overhead.p75(), 4)),
    ]
}

/// Exits with code 1 unless the survivals recorded at 1 and at 4 threads
/// (`one`, `four`: row-major, one row of `customers` per minute from
/// `first_minute`) match bit for bit; prints the first divergence.
/// `bin` prefixes every line, `what` names the run.
pub fn require_bit_identical<C: Debug>(
    bin: &str,
    what: &str,
    customers: &[C],
    first_minute: u32,
    one: &[f64],
    four: &[f64],
) {
    let diverged = one
        .iter()
        .zip(four)
        .position(|(a, b)| a.to_bits() != b.to_bits());
    if diverged.is_none() && one.len() == four.len() {
        eprintln!("[{bin}] {what} stream bit-identical at threads=1 and threads=4");
        return;
    }
    if let Some(i) = diverged {
        // A recorded survival means at least one customer per row.
        let n = customers.len();
        eprintln!(
            "[{bin}] first divergence ({what}): minute {} customer {:?}: {} vs {}",
            first_minute as usize + i / n,
            customers[i % n],
            one[i],
            four[i],
        );
    }
    eprintln!("[{bin}] SURVIVAL MISMATCH ({what}) between threads=1 and threads=4");
    std::process::exit(1);
}
