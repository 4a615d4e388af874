//! A yardstick for the machine's speed at the moment of measuring.
//!
//! The reference box is a shared 2-vCPU VM. Whenever a neighbour runs on
//! the sibling hyperthread, everything here takes 1.4 to 1.8 times as
//! long, for a fraction of a second or for minutes at a stretch: far more
//! than any bound this ledger could gate on, and no amount of repeating
//! averages it out (ten 12 s runs of one workload spread by 20-45 % of
//! their median). So the harness times a fixed kernel of its own at every
//! slice boundary and divides the slice's times by how much slower than
//! usual the machine was. The kernel shares no code with the system under
//! test: a faster system moves a metric, a quieter moment on the machine
//! does not. README.md has the measurements behind the constants.

use std::hint::black_box;
use std::time::Instant;

/// What [`Yardstick::read`] returns on the reference box (README: machine
/// fingerprint) when nothing competes for the core, in seconds. Scaling by
/// a constant keeps the metrics in seconds as that box would measure them.
const REFERENCE_S: f64 = 0.00155;

/// Query code slows less under a busy sibling than this kernel, which
/// does nothing but compete for execution ports: regressing log slice
/// time on log yardstick time over repetitions of identical slices gave
/// slopes of 0.6 to 0.75 on `uniform_static`, `zipf_hot` and `wide_hash`
/// (attenuated by the readings' own noise, hence the upper end).
const QUERY_EXPONENT: f64 = 0.75;

const BUFFER_WORDS: usize = 4096;
const PASSES: usize = 1024;

pub struct Yardstick {
    buffer: Vec<u32>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buffer = (0..BUFFER_WORDS)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 32) as u32
            })
            .collect();
        Yardstick { buffer }
    }

    /// Seconds the kernel took just now: eight independent multiply-rotate
    /// chains over a buffer that stays in the first-level cache. It keeps
    /// the core's execution ports busy, which is what a sibling hyperthread
    /// takes away; a dependent chain or a pointer chase through memory
    /// barely notices a busy sibling, and tracked the slowdown of real
    /// queries at a correlation of 0.3 where this kernel reached 0.7.
    fn read(&self) -> f64 {
        let t = Instant::now();
        let mut acc = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for _ in 0..PASSES {
            for chunk in black_box(&self.buffer[..]).chunks_exact(8) {
                for (a, &x) in acc.iter_mut().zip(chunk) {
                    *a = (*a ^ u64::from(x))
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(7);
                }
            }
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// By what factor query code runs slower right now than on the quiet
    /// reference box.
    pub fn slowdown(&self) -> f64 {
        (self.read() / REFERENCE_S).powf(QUERY_EXPONENT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_repeat_roughly() {
        let y = Yardstick::new();
        let mut readings: Vec<f64> = (0..5).map(|_| y.read()).collect();
        readings.sort_by(f64::total_cmp);
        assert!(readings[0] > 0.0);
        // Same work every time: the middle reading is within a factor of
        // three of the fastest even on a loaded test machine.
        assert!(readings[2] < readings[0] * 3.0, "{readings:?}");
    }
}
