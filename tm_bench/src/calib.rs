//! Machine-state calibration: what makes a timing taken on a shared box
//! repeat.
//!
//! The reference box is two vCPUs of a shared host. What the neighbours
//! do on the sibling hardware threads changes the speed of one and the
//! same code by up to 2x, in phases of tenths of a second to minutes
//! (probed: the rounds of one 15 s run of `int-loops` took 238 to 529 ms
//! of CPU time). No statistic of the raw times removes that: the median,
//! the lower quartile and the minimum of a run all move with the share of
//! the run the neighbours were busy.
//!
//! So every timed sample carries a reading of the machine's state, taken
//! right before and right after it: the CPU time of a fixed kernel of
//! this file (a store-to-load-forwarding loop over 512 bytes, the kind of
//! code that contention on a core slows most). A time is reported in
//! units of that kernel: a sample `(t, c)` becomes
//! `t * (REF_MS / c)^sensitivity`, the time it would have taken had the
//! kernel read `REF_MS`, and the reported number is the median of those.
//! The sensitivity is a constant of the workload: 1 where the time goes
//! into the guest's own code, less where it goes into copying a file
//! (`Workload::sensitivity`).
//!
//! On a box without neighbours every reading is the same and the result
//! is the plain median scaled by one constant. On the reference box it
//! cut the spread of ten runs' `round_ms_p50` from 11-40 % to 1-6 % (11 %
//! on `trace-hostile` in a noisy hour); the README beside this package
//! has the table.
//!
//! An earlier version fitted each series' own sensitivity (the slope of
//! `ln t` on `ln c`, about 0.5) and corrected by that. The fitted slope is
//! too low: a reading is a 0.1 ms glimpse of a state that also moves
//! within the sample it stands beside, and noise in the regressor pulls a
//! slope towards 0. Between runs, where the readings of a whole run
//! average that noise out, the guest's times follow the kernel one to one
//! (exponents of 0, 0.4, 0.8 and 1.0 left spreads of 24, 13, 4.3 and
//! 4.4 % on `int-loops`), so the exponent is fixed and nothing is fitted.

use crate::stats;

/// Iterations of the kernel per reading: 0.08 ms on the idle reference
/// box, 0.3 ms and more at its slowest.
const KERNEL_ITERS: usize = 150_000;

/// The reading all reported times are brought to: the reference box's
/// usual one (its median over an hour of runs), so that most samples are
/// corrected by little. A constant of the harness: the same on every
/// commit, or times could not be compared.
pub const REF_MS: f64 = 0.16;

/// CPU time this thread has used, in ms. Time the hypervisor gave the
/// vCPU to someone else (4-5 % of wall-clock on the reference box, in
/// bursts of up to 50 %) is not in it.
pub fn thread_cpu_ms() -> f64 {
    cpu_clock_ms(CpuClock::Thread)
}

/// CPU time all threads of this process have used, in ms: what a set-up
/// is timed by, since `shared-realms` sets up on several threads. Waits
/// for the disk are not in it (the wall clock of `warm-start`'s set-up,
/// which writes its cache file, went from 1.3 s to 6 s in a bad minute).
pub fn process_cpu_ms() -> f64 {
    cpu_clock_ms(CpuClock::Process)
}

#[derive(Clone, Copy)]
enum CpuClock {
    Process,
    Thread,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_ms(clock: CpuClock) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID of <time.h>.
    let id = match clock {
        CpuClock::Process => 2,
        CpuClock::Thread => 3,
    };
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the `cfg` above pins), and the C
    // library the standard library links provides `clock_gettime`.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// Elsewhere the wall clock (ms since the first call) stands in for both.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_ms(_: CpuClock) -> f64 {
    static ORIGIN: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    ORIGIN
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
        * 1e3
}

/// One timed sample and the machine-state reading around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// In the series' own unit (ms for evals and rounds, s for set-ups).
    pub time: f64,
    /// Mean of the kernel readings right before and right after.
    pub cal: f64,
}

/// The calibration kernel and its 64 "registers".
#[derive(Debug)]
pub struct Calibrator {
    regs: [u64; 64],
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator { regs: [3; 64] }
    }

    /// Runs the kernel once; its CPU time in ms.
    pub fn read(&mut self) -> f64 {
        let start = thread_cpu_ms();
        let r = &mut self.regs;
        for i in 0..KERNEL_ITERS {
            // Each store is loaded again 51 and 57 iterations later.
            let v = r[(i + 7) & 63]
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(r[(i + 13) & 63]);
            r[i & 63] = std::hint::black_box(v);
        }
        // The clock has nanosecond resolution; a reading is never 0.
        (thread_cpu_ms() - start).max(1e-6)
    }
}

/// Every sample's time at the reference reading, for a series whose
/// times follow the kernel's with this `sensitivity` (a constant of the
/// workload, see `Workload::sensitivity`).
pub fn at_reference(samples: &[Sample], sensitivity: f64) -> Vec<f64> {
    samples
        .iter()
        .map(|s| s.time * (REF_MS / s.cal).powf(sensitivity))
        .collect()
}

/// Median of a series at the reference reading.
pub fn median_at_reference(samples: &[Sample], sensitivity: f64) -> f64 {
    stats::median(&at_reference(samples, sensitivity))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_series_that_follows_the_machine_state_is_brought_back_to_its_base() {
        let calm = (0..40).map(|i| 0.09 + 0.001 * f64::from(i % 7));
        let busy = (0..41).map(|i| 0.20 + 0.001 * f64::from(i % 5));
        let s: Vec<Sample> = calm
            .chain(busy)
            .map(|cal| Sample {
                time: 50.0 * cal / REF_MS,
                cal,
            })
            .collect();
        assert!((median_at_reference(&s, 1.0) - 50.0).abs() < 1e-9);
        // The plain median is that of the busy state.
        let plain = stats::median(&s.iter().map(|s| s.time).collect::<Vec<_>>());
        assert!(plain > 60.0);
    }

    #[test]
    fn a_steady_machine_at_the_reference_reading_gets_no_correction() {
        let steady = [Sample {
            time: 10.0,
            cal: REF_MS,
        }; 30];
        assert!((median_at_reference(&steady, 1.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn the_kernel_takes_time_and_the_thread_clock_advances() {
        let mut k = Calibrator::new();
        let before = thread_cpu_ms();
        let reading = k.read();
        assert!(reading > 0.0);
        assert!(thread_cpu_ms() - before >= reading);
    }
}
