//! Host-speed calibration.
//!
//! The shared virtual host this benchmark runs on changes speed by up to
//! 2x for minutes at a time, which no amount of repetition inside one run
//! can average out. So the timed work is bracketed by a fixed kernel
//! that lives in this file, not in the program: a 96x96 matrix product.
//! Each figure is divided by how much slower than the reference the
//! kernel ran around it, giving "seconds on a host where the kernel takes
//! [`REFERENCE_S`]". A change to the program moves these figures; a
//! change of host speed moves the kernel too and cancels out. Raw times
//! are kept in the run's details file.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines the reference host speed, seconds.
pub const REFERENCE_S: f64 = 1e-3;

const N: usize = 96;
const REPS: usize = 4;

pub struct Calibration {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    /// Every kernel time measured, seconds.
    pub samples: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.1).collect();
        Calibration {
            b: a.clone(),
            a,
            c: vec![0.0; N * N],
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once; returns its time in seconds.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..REPS {
            for i in 0..N {
                for k in 0..N {
                    let x = black_box(self.a[i * N + k]);
                    for j in 0..N {
                        self.c[i * N + j] += x * self.b[k * N + j];
                    }
                }
            }
        }
        black_box(&self.c);
        let s = t0.elapsed().as_secs_f64();
        self.samples.push(s);
        s
    }

    /// Runs `f` between two kernel samples. Returns its result, its raw
    /// time in seconds, and the host's slowness around it (1.0 at the
    /// reference speed, 2.0 when the kernel takes twice as long).
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.sample();
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        let after = self.sample();
        (out, secs, (before + after) / 2.0 / REFERENCE_S)
    }

    /// Median slowness over every sample of the run.
    pub fn factor(&self) -> f64 {
        crate::stats::median(&self.samples).unwrap_or(REFERENCE_S) / REFERENCE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn around_reports_the_inner_time_and_a_positive_factor() {
        let mut cal = Calibration::new();
        let (v, secs, factor) = cal.around(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.005);
        assert!(factor > 0.0);
        assert_eq!(cal.samples.len(), 2);
        assert!(
            (cal.factor() - crate::stats::median(&cal.samples).unwrap() / REFERENCE_S).abs()
                < 1e-12
        );
    }
}
