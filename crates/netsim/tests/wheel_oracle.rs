//! Differential oracle suite for the hierarchical timing wheel.
//!
//! The wheel replaces `BTreeSet`/`BinaryHeap` structures on paths whose
//! determinism the whole reproduction depends on, so it is proven the
//! same way every other swap in this repo is: drive 20k random
//! insert/cancel/advance steps per seed against a retained
//! `BTreeSet<(u64, u64)>` oracle and require identical answers at every
//! step — pop order including same-instant tie-breaks, peeks, lengths,
//! and cancel hits/misses. The time distribution is deliberately spiky:
//! zero-delay timers, near-term millisecond churn, far-future times that
//! must cascade down through every level, and `u64::MAX` sentinels that
//! exercise the overflow bucket.

use dnsttl_netsim::{SimRng, TimingWheel};
use std::collections::BTreeSet;

const STEPS: usize = 20_000;
const SEEDS: [u64; 4] = [0xA11CE, 0xB0B, 0xDEC0DE, 42];

/// Draws a fire time from a spiky multi-modal distribution around `now`.
fn draw_time(rng: &mut SimRng, now: u64) -> u64 {
    match rng.below(100) {
        // Zero-delay: fire exactly at the current cursor.
        0..=9 => now,
        // Near-term millisecond churn (level 0/1 territory).
        10..=54 => now.saturating_add(rng.below(4_096)),
        // Mid-range: minutes to hours (level 2/3, cascade fodder).
        55..=84 => now.saturating_add(rng.below(1 << 24)),
        // Far future: beyond the 2^32 ms wheel span (overflow bucket).
        85..=97 => now.saturating_add((1 << 33) + rng.below(1 << 40)),
        // Sentinels at and near the top of the u64 range.
        _ => u64::MAX - rng.below(4),
    }
}

/// One scripted step mirrored onto both structures.
fn step(
    rng: &mut SimRng,
    now: &mut u64,
    wheel: &mut TimingWheel<u64>,
    oracle: &mut BTreeSet<(u64, u64)>,
    next_tie: &mut u64,
) {
    match rng.below(100) {
        // Insert (the common op; ties share a time ~1/8 of the time).
        0..=54 => {
            let t = if rng.below(8) == 0 {
                oracle
                    .iter()
                    .next()
                    .map(|(t, _)| *t)
                    .unwrap_or_else(|| draw_time(rng, *now))
            } else {
                draw_time(rng, *now)
            };
            let tie = *next_tie;
            *next_tie += 1;
            // (t, tie) is unique because ties are unique, so the set
            // oracle and the multiset wheel agree.
            wheel.insert(t, tie);
            assert!(oracle.insert((t, tie)));
        }
        // Cancel a pseudo-randomly chosen pending entry (or a miss).
        55..=69 => {
            if oracle.is_empty() || rng.below(10) == 0 {
                assert!(!wheel.cancel(now.saturating_add(1_234_567), &u64::MAX));
                return;
            }
            let idx = rng.below(oracle.len() as u64) as usize;
            let &(t, tie) = oracle.iter().nth(idx).expect("index in range");
            assert!(oracle.remove(&(t, tie)));
            assert!(wheel.cancel(t, &tie));
            assert!(!wheel.cancel(t, &tie), "double-cancel must miss");
        }
        // Pop the minimum once.
        70..=84 => {
            let expect = oracle.pop_first();
            let got = wheel.pop_first();
            assert_eq!(got, expect);
            if let Some((t, _)) = got {
                *now = (*now).max(t);
            }
        }
        // Advance: drain everything due by a deadline, in order.
        _ => {
            *now = now.saturating_add(rng.below(1 << 20));
            loop {
                let due = wheel.first().map(|(t, _)| t).is_some_and(|t| t <= *now);
                let oracle_due = oracle.first().map(|(t, _)| *t).is_some_and(|t| t <= *now);
                assert_eq!(due, oracle_due, "due-now disagreement at t={now}");
                if !due {
                    break;
                }
                assert_eq!(wheel.pop_first(), oracle.pop_first());
            }
        }
    }
}

#[test]
fn wheel_matches_btree_oracle_across_seeds() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from(seed);
        let mut wheel = TimingWheel::new();
        let mut oracle: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut now = 0u64;
        let mut next_tie = 0u64;
        for i in 0..STEPS {
            step(&mut rng, &mut now, &mut wheel, &mut oracle, &mut next_tie);
            assert_eq!(wheel.len(), oracle.len(), "seed {seed:#x} step {i}");
            assert_eq!(
                wheel.peek().map(|(t, k)| (t, *k)),
                oracle.first().copied(),
                "seed {seed:#x} step {i}"
            );
            assert_eq!(
                wheel.earliest_ms(),
                oracle.first().map(|(t, _)| *t),
                "seed {seed:#x} step {i}"
            );
        }
        // Full drain must replay the oracle's order exactly.
        while let Some(expect) = oracle.pop_first() {
            assert_eq!(wheel.pop_first(), Some(expect), "seed {seed:#x} drain");
        }
        assert!(wheel.is_empty());
        assert!(wheel.cascades() > 0, "workload never exercised a cascade");
    }
}

#[test]
fn same_instant_ties_drain_in_tie_order_after_deep_cascade() {
    let mut wheel = TimingWheel::new();
    // Everything lands in one far-future level-3 slot, then cascades.
    let t = 1u64 << 31;
    for tie in (0..512u64).rev() {
        wheel.insert(t, tie);
    }
    wheel.insert(t + 1, 1_000);
    for tie in 0..512u64 {
        assert_eq!(wheel.pop_first(), Some((t, tie)));
    }
    assert_eq!(wheel.pop_first(), Some((t + 1, 1_000)));
}

#[test]
fn max_simtime_entries_survive_full_drain() {
    let mut wheel = TimingWheel::new();
    let mut oracle = BTreeSet::new();
    for tie in 0..64u64 {
        let t = u64::MAX - (tie % 3);
        wheel.insert(t, tie);
        oracle.insert((t, tie));
    }
    wheel.insert(0, 999);
    oracle.insert((0, 999));
    while let Some(expect) = oracle.pop_first() {
        assert_eq!(wheel.pop_first(), Some(expect));
    }
    assert!(wheel.is_empty());
}

/// Asserts the wheel and the oracle agree on everything observable
/// without mutating: length, earliest fire time, minimum entry.
fn assert_agree(wheel: &TimingWheel<u64>, oracle: &BTreeSet<(u64, u64)>, ctx: &str) {
    assert_eq!(wheel.len(), oracle.len(), "{ctx}");
    assert_eq!(
        wheel.earliest_ms(),
        oracle.first().map(|(t, _)| *t),
        "{ctx}"
    );
    assert_eq!(
        wheel.peek().map(|(t, k)| (t, *k)),
        oracle.first().copied(),
        "{ctx}"
    );
}

/// A synchronized fill: 2,048 entries at one millisecond, cancelled in
/// seeded random order, fill order or reverse fill order while entries
/// keep arriving at a second shared instant (and, now and then, at the
/// fill's own instant) and pops drain the front — the cache's expiry
/// index under a refetch storm with eviction. Every step is diffed
/// against the `BTreeSet` oracle.
#[test]
fn same_instant_fill_cancel_insert_pop_matches_oracle() {
    const FILL: u64 = 2_048;
    // (fill instant, second instant): the fill in a coarse level, in
    // level 0, in the overflow bucket; the second instant before, just
    // after and far after it.
    let cases = [
        (360_000u64, 661_000u64),
        (360_000, 359_999),
        (200, 201),
        ((1 << 33) + 7, 5_000),
        (70_000, (1 << 34) + 1),
    ];
    for (case, &(fill_ms, second_ms)) in cases.iter().enumerate() {
        let mut rng = SimRng::seed_from(0x51A7_0000 + case as u64);
        let mut wheel = TimingWheel::new();
        let mut oracle: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut ties: Vec<u64> = (0..FILL).collect();
        for i in (1..ties.len()).rev() {
            ties.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &tie in &ties {
            wheel.insert(fill_ms, tie);
            oracle.insert((fill_ms, tie));
            assert_agree(&wheel, &oracle, "fill");
        }
        // Fill entries not yet cancelled, in fill order.
        let mut pending = ties;
        let mut next_tie = FILL;
        let mut step = 0;
        while !pending.is_empty() {
            step += 1;
            let ctx = format!("case {case} step {step}");
            match rng.below(100) {
                0..=59 => {
                    let pick = match case % 3 {
                        0 => rng.below(pending.len() as u64) as usize,
                        1 => 0,
                        _ => pending.len() - 1,
                    };
                    let tie = pending.remove(pick);
                    if !oracle.remove(&(fill_ms, tie)) {
                        // Already drained by a pop.
                        assert!(!wheel.cancel(fill_ms, &tie), "{ctx}");
                        continue;
                    }
                    assert!(wheel.cancel(fill_ms, &tie), "{ctx}");
                    assert!(!wheel.cancel(fill_ms, &tie), "{ctx}: double cancel");
                }
                60..=84 => {
                    wheel.insert(second_ms, next_tie);
                    oracle.insert((second_ms, next_tie));
                    next_tie += 1;
                }
                85..=89 => {
                    wheel.insert(fill_ms, next_tie);
                    oracle.insert((fill_ms, next_tie));
                    pending.push(next_tie);
                    next_tie += 1;
                }
                _ => assert_eq!(wheel.pop_first(), oracle.pop_first(), "{ctx}"),
            }
            assert_agree(&wheel, &oracle, &ctx);
        }
        while let Some(expect) = oracle.pop_first() {
            assert_eq!(wheel.pop_first(), Some(expect), "case {case} drain");
            assert_agree(&wheel, &oracle, "drain");
        }
        assert!(wheel.is_empty());
    }
}
