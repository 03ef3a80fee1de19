//! Differential property tests for [`EventQueue`] (`wheel` below): the
//! queue is run against a reference binary-heap model (ordered by
//! `(SimTime, insertion sequence)` — the queue's documented contract) on
//! randomized interleavings of pushes and pops, asserting identical pop
//! order event by event. This is the FIFO/clock contract check: it holds
//! whatever structure backs the queue. Schedules include bursts of
//! same-instant events, `schedule_now` chains from inside the pop loop
//! (the pattern event handlers produce), and far-future outliers beyond
//! 2³² ms. Clock monotonicity is a *checked* invariant here, not a
//! `debug_assert!`, so release builds of the suite still verify it.

use bds_des::rng::Xoshiro256;
use bds_des::time::SimTime;
use bds_des::EventQueue;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference model: a plain binary heap over `(at, seq)` with the same
/// monotone-clock semantics as `EventQueue`.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
    now: u64,
}

impl HeapModel {
    fn schedule_at(&mut self, at: u64) -> u64 {
        assert!(at >= self.now, "model: scheduling in the past");
        let id = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, id)));
        id
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse((at, id))| {
            self.now = at;
            (at, id)
        })
    }
}

fn rng(case: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(0x77EE1 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A delay drawn from a wide mixture: zero (same instant), windows of
/// 2⁸, 2¹⁶, 2²⁶ and 2³² ms, and far-future outliers beyond 2³² ms.
fn mixed_delay(r: &mut Xoshiro256) -> u64 {
    match r.next_range(100) {
        0..=24 => 0,
        25..=54 => r.next_range(256),
        55..=74 => r.next_range(1 << 16),
        75..=89 => r.next_range(1 << 26),
        90..=96 => r.next_range(1 << 32),
        _ => (1 << 32) + r.next_range(1 << 33),
    }
}

/// Drive the queue and the model through one identical operation
/// sequence, checking pop-for-pop agreement and clock monotonicity.
fn run_case(case: u64, ops: usize) {
    let mut r = rng(case);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut model = HeapModel::default();
    let mut last_popped = 0u64;

    let push = |wheel: &mut EventQueue<u64>, model: &mut HeapModel, at: u64| {
        let id = model.schedule_at(at);
        wheel.schedule_at(SimTime::from_millis(at), id);
    };
    let pop = |wheel: &mut EventQueue<u64>, model: &mut HeapModel, last: &mut u64| {
        let got = wheel.pop().map(|s| (s.at.as_millis(), s.event));
        let want = model.pop();
        assert_eq!(got, want, "case {case}: wheel diverged from heap model");
        if let Some((at, _)) = got {
            // Checked invariant: the clock never runs backwards.
            assert!(
                at >= *last,
                "case {case}: clock went backwards ({at} < {last})"
            );
            assert_eq!(wheel.now(), SimTime::from_millis(at));
            *last = at;
        }
        got
    };

    for _ in 0..ops {
        assert_eq!(wheel.len(), model.heap.len());
        assert_eq!(wheel.peek_time().map(SimTime::as_millis), {
            model.heap.peek().map(|Reverse((at, _))| *at)
        });
        match r.next_range(10) {
            // Push a single event at a mixed-mixture delay.
            0..=3 => {
                let at = wheel.now().as_millis() + mixed_delay(&mut r);
                push(&mut wheel, &mut model, at);
            }
            // Burst of same-instant events.
            4 => {
                let at = wheel.now().as_millis() + mixed_delay(&mut r);
                for _ in 0..r.next_range(20) {
                    push(&mut wheel, &mut model, at);
                }
            }
            // schedule_now chain: pop, then re-arm events at the very
            // instant the clock just reached.
            5..=6 => {
                if pop(&mut wheel, &mut model, &mut last_popped).is_some() {
                    for _ in 0..r.next_range(4) {
                        let at = wheel.now().as_millis();
                        push(&mut wheel, &mut model, at);
                    }
                }
            }
            // Plain pop.
            _ => {
                pop(&mut wheel, &mut model, &mut last_popped);
            }
        }
    }
    // Drain: both queues must agree to the last event.
    while pop(&mut wheel, &mut model, &mut last_popped).is_some() {}
    assert!(wheel.is_empty());
    assert_eq!(wheel.len(), 0);
}

#[test]
fn wheel_matches_heap_model_on_random_schedules() {
    for case in 0..64 {
        run_case(case, 2_000);
    }
}

#[test]
fn wheel_matches_heap_model_on_long_runs() {
    // Fewer cases, deeper interleavings: long runs with a large
    // pending set mixing near and far firing times.
    for case in 1000..1008 {
        run_case(case, 40_000);
    }
}

#[test]
fn wheel_survives_pathological_schedule_now_storm() {
    // 50 000 same-instant far-future events stay pending while the near
    // present is a dense schedule_now chain; both must keep their
    // insertion order.
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut model = HeapModel::default();
    let far = (1u64 << 31) + 12_345;
    for _ in 0..50_000 {
        let id = model.schedule_at(far);
        wheel.schedule_at(SimTime::from_millis(far), id);
    }
    let mut last = 0u64;
    for step in 0..20_000u64 {
        let at = step / 4; // four same-instant events per millisecond
        let id = model.schedule_at(at);
        wheel.schedule_at(SimTime::from_millis(at), id);
        if step % 2 == 0 {
            let got = wheel.pop().map(|s| (s.at.as_millis(), s.event));
            assert_eq!(got, model.pop());
            let (at, _) = got.unwrap();
            assert!(at >= last, "clock went backwards");
            last = at;
        }
    }
    let mut remaining = 0u64;
    loop {
        let got = wheel.pop().map(|s| (s.at.as_millis(), s.event));
        assert_eq!(got, model.pop());
        match got {
            Some((at, _)) => {
                assert!(at >= last, "clock went backwards");
                last = at;
                remaining += 1;
            }
            None => break,
        }
    }
    assert_eq!(last, far);
    assert!(remaining > 50_000);
}
