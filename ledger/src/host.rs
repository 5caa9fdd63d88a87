//! A fixed host-speed probe.
//!
//! On a shared VM the host itself speeds up and slows down by up to 2×
//! over minutes, with no steal time to show for it (a busy sibling
//! hyperthread or memory bandwidth taken by other tenants). The probe is
//! a fixed piece of the benchmark's own work that the simulator cannot
//! change: fresh pages, a streaming pass and random read-modify-writes
//! over them, and a dependent arithmetic chain — the same kinds of work
//! the simulator does. Timing it next to the simulator's units gives the
//! host's speed at that moment, and host times are reported at the
//! reference speed [`REFERENCE_PROBE_S`].

use std::hint::black_box;
use std::time::Instant;

/// Probe time that defines the reference host speed: a host time `t`
/// measured next to a probe that took `p` seconds is reported as
/// `t * REFERENCE_PROBE_S / p`.
pub const REFERENCE_PROBE_S: f64 = 0.005;

/// Words in the probe's buffer (8 MiB, past the last-level cache).
const WORDS: usize = 1 << 20;

/// Unit time between two readings during the timed rounds. Host speed
/// drifts within a second, so readings are taken this often (and at the
/// end of every round); each unit is scaled by the mean of the readings
/// just before and just after it. At ~5 ms a reading, this costs ~5% of
/// the rounds.
pub const PROBE_EVERY_S: f64 = 0.1;

/// Reads the host speed: the host time, in seconds, of one run of the
/// probe's fixed work.
pub fn probe() -> f64 {
    let t0 = Instant::now();
    black_box(work(black_box(0x9E37_79B9_7F4A_7C15)));
    t0.elapsed().as_secs_f64()
}

/// Scale that brings a host time measured next to a probe of `probe_s`
/// seconds to the reference speed.
pub fn scale(probe_s: f64) -> f64 {
    REFERENCE_PROBE_S / probe_s
}

fn work(seed: u64) -> u64 {
    // Fresh pages (the allocator maps them anew), written in order.
    let mut table: Vec<u64> = (0..WORDS as u64).map(|i| i.wrapping_mul(seed)).collect();
    let mut acc = table.iter().fold(0u64, |a, &w| a.wrapping_add(w));
    // Random read-modify-writes over the table.
    let mut x = seed | 1;
    for _ in 0..WORDS / 2 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & (WORDS - 1)];
        *slot = slot
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(acc);
        acc = acc.rotate_left(5) ^ *slot;
    }
    // A dependent arithmetic chain with a data-dependent branch.
    let mut y = acc;
    for i in 0..WORDS as u64 {
        y = y.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        if y & 8 == 0 {
            acc ^= y >> 3;
        } else {
            acc = acc.wrapping_add(y.rotate_left(7));
        }
    }
    acc
}
