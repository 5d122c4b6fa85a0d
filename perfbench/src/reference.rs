//! The host-speed reference: a fixed amount of the benchmark's own work,
//! timed next to every simulation.
//!
//! Host speed on a shared machine drifts by up to 2× over minutes, far
//! more than the changes the benchmark must resolve. The reference kernel
//! never changes with the program, so the ratio of simulation time to
//! reference time, taken over the same stretch of a run, cancels most of
//! that drift. Its work resembles the simulator's: a binary-heap event
//! queue popped and refilled in time order, with a random read-modify-
//! write into a 1 MB state table and a data-dependent branch per event.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// What the reference kernel takes on the nominal host, in seconds.
/// Every reported host time is scaled to this speed.
pub const NOMINAL_S: f64 = 0.16;

const EVENTS: usize = 8_192;
const STATE_WORDS: usize = 1 << 17;
const STEPS: usize = 1_200_000;

/// The reference kernel's buffers, allocated once so that every timed
/// call does the same work on warm memory.
pub struct Reference {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    state: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            heap: BinaryHeap::with_capacity(EVENTS),
            state: vec![0; STATE_WORDS],
        }
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    /// Runs the kernel once and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        self.heap.clear();
        for id in 0..EVENTS as u32 {
            self.heap.push(Reverse((xorshift(&mut x) % 1_000_000, id)));
        }
        self.state.fill(0);
        let mask = STATE_WORDS - 1;
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..STEPS {
            let Reverse((at, id)) = self.heap.pop().expect("the queue never drains");
            let r = xorshift(&mut x);
            let slot = r as usize & mask;
            self.state[slot] = self.state[slot].wrapping_add(at ^ u64::from(id));
            if self.state[slot] & 7 < 3 {
                acc = acc.wrapping_add(self.state[slot.wrapping_mul(31) & mask]);
            } else {
                acc ^= r;
            }
            self.heap.push(Reverse((at + 1 + r % 5_000, id)));
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}
