//! A fixed workload that tracks host speed, used to normalize host times.
//!
//! On a shared host the simulator's host time drifts by 10–35% between
//! runs and within one, while a tight arithmetic loop moves by 3–4%: the
//! drift is contention for caches and memory, which hits pointer-heavy,
//! allocating code like the simulator's. This workload is that kind of
//! code — a `BTreeMap` of heap-allocated values under random inserts,
//! lookups and removals, about 15 MB — and it lives in the benchmark, so
//! no change to the simulator can move it. It is sampled between
//! repetitions, and each repetition is scaled by the two samples either
//! side of it. On one set of eight 15 s `fio_randwrite` runs the spread of
//! the run medians (interquartile range over median) was 29% raw, 10.5%
//! scaled by the run's median sample, 8.8% by the median of the four
//! nearest samples, and 7.2% by the two adjacent ones.

use std::collections::BTreeMap;

use crate::rep::timed;

/// Host seconds one [`sample`] takes at nominal host speed: the median
/// measured on a 2-vCPU Xeon host, release build. Reported host times are
/// scaled to this speed.
pub const NOMINAL_S: f64 = 0.45;

/// Runs the workload once; returns its host seconds.
pub fn sample() -> f64 {
    timed(churn).1
}

fn churn() -> u64 {
    const KEYS: u64 = 1_000_003;
    let mut map = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0_u64;
    for i in 0..400_000_u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % KEYS, vec![i; 3]);
        if let Some(v) = map.get(&((x >> 20) % KEYS)) {
            acc = acc.wrapping_add(v[0]);
        }
        if i % 3 == 0 {
            if let Some((&k, _)) = map.range((x >> 11) % KEYS..).next() {
                map.remove(&k);
            }
        }
    }
    std::hint::black_box(acc.wrapping_add(map.len() as u64))
}
