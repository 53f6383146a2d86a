//! Machine-speed reference.
//!
//! The benchmark shares its host with other tenants, and their load
//! changes how fast this process runs by tens of percent, both from one
//! second to the next and from one minute to the next. To keep host-time
//! metrics comparable across runs, the runner times this fixed loop
//! densely through the run: before every setup repetition and before
//! every kernel of a pass. It then scales each median time by
//! `(NOMINAL_S / median reference time) ^ EXPONENT`. The loop is a small
//! interpreter over a 256 KiB table (data-dependent dispatch, loads and
//! stores), the same kind of work as the simulator's step loop, so it
//! slows down with it. It lives in the benchmark, so no change to the
//! repo's code can change it; raw times are printed next to the scaled
//! ones.

use std::time::Instant;

/// The loop's time on an unloaded reference host (2-vCPU x86-64 VM at
/// 2.1 GHz), seconds. Scaled times read as seconds on that host.
pub const NOMINAL_S: f64 = 0.004;

/// How steeply the simulator's host time follows the loop's. On the
/// reference host, pass times moved as the 1.2th to 1.9th power of the
/// loop's time as the other tenants' load came and went (correlation
/// 0.9 to 0.98 over 4-minute runs): a busy sibling hardware thread costs
/// the simulator more than this tight loop. Scaling by the plain ratio
/// left half of that drift in the figures; of the exponents tried on
/// repeated runs of all four workloads, 1.75 left the least.
pub const EXPONENT: f64 = 1.75;

/// Steps of the interpreter loop.
const STEPS: u32 = 300_000;

/// Runs the reference loop once; returns its host seconds.
#[must_use]
pub fn time_once() -> f64 {
    let t = Instant::now();
    let mut mem = vec![0u32; 1 << 16];
    let mut regs = [0u32; 16];
    let (mut pc, mut acc, mut rng) = (0usize, 1u32, 0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..STEPS {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let r = (rng as usize) & 15;
        let a = (rng >> 20) as usize & 0xffff;
        match rng >> 60 {
            0..=3 => regs[r] = regs[r].wrapping_add(acc),
            4..=5 => mem[a] = mem[a].wrapping_add(regs[r]),
            6..=8 => acc ^= mem[a.wrapping_add(pc) & 0xffff],
            9 => {
                pc = if acc & 1 == 0 {
                    pc.wrapping_add(3)
                } else {
                    pc.wrapping_sub(1)
                }
            }
            10..=12 => regs[r] = regs[(r + 1) & 15].rotate_left(5) ^ acc,
            _ => acc = acc.wrapping_mul(2_654_435_761).wrapping_add(regs[r]),
        }
    }
    std::hint::black_box((acc, pc, &mem, regs));
    t.elapsed().as_secs_f64()
}

/// Scales a measured time by the median reference time of its phase.
#[must_use]
pub fn scaled(measured_s: f64, ref_median_s: f64) -> f64 {
    measured_s * (NOMINAL_S / ref_median_s).powf(EXPONENT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_slowdown_that_follows_the_exponent() {
        // The same work on a host where the loop runs at half speed.
        let fast = scaled(1.0, NOMINAL_S);
        let slow = scaled(2f64.powf(EXPONENT), 2.0 * NOMINAL_S);
        assert!((fast - 1.0).abs() < 1e-12 && (slow - fast).abs() < 1e-12);
    }

    #[test]
    fn the_loop_takes_time() {
        assert!(time_once() > 0.0);
    }
}
