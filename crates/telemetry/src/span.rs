//! Monotonic span timing.
//!
//! Every duration in the workspace — request phases, engine elapsed times,
//! deadlines, trace timestamps — is measured against
//! [`std::time::Instant`], the monotonic clock, never the wall clock.
//! [`SpanTimer`] packages the two operations the instrumented code needs:
//! total elapsed time since the span opened, and per-phase *laps* that
//! partition the span into consecutive segments.

use std::time::{Duration, Instant};

/// A phase stopwatch over the monotonic clock.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer {
    started: Instant,
    lap_started: Instant,
}

impl Default for SpanTimer {
    fn default() -> Self {
        SpanTimer::start()
    }
}

impl SpanTimer {
    /// Opens a span now.
    #[must_use]
    pub fn start() -> SpanTimer {
        let now = Instant::now();
        SpanTimer { started: now, lap_started: now }
    }

    /// Time since the span opened.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Time since the span opened, in whole microseconds (saturating).
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Closes the current phase and opens the next: returns the time since
    /// the last `lap` (or since the span opened). Successive laps partition
    /// the span, so their sum is the total elapsed time.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let lap = now.duration_since(self.lap_started);
        self.lap_started = now;
        lap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_partition_the_span() {
        let mut t = SpanTimer::start();
        std::thread::sleep(Duration::from_millis(2));
        let a = t.lap();
        std::thread::sleep(Duration::from_millis(2));
        let b = t.lap();
        let total = t.elapsed();
        assert!(a >= Duration::from_millis(2));
        assert!(b >= Duration::from_millis(2));
        // Monotonic: laps never exceed the span that contains them.
        assert!(a + b <= total + Duration::from_millis(1));
    }

    #[test]
    fn elapsed_us_is_monotone() {
        let t = SpanTimer::start();
        let first = t.elapsed_us();
        std::thread::sleep(Duration::from_millis(1));
        assert!(t.elapsed_us() >= first);
    }
}
