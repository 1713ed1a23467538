//! Open-loop load schedule and generator-lag accounting.
//!
//! Request `k` of a phase is *due* `k / rate` seconds after the phase
//! starts, whether or not earlier requests have finished: independent
//! users do not wait for each other. A request is timed from when it was
//! due, so a stall that delays later sends shows up in their latency, and
//! how late each send left (its lag) is recorded separately to prove the
//! offered rate was really offered.

/// Evenly spaced due times at a fixed offered rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    rate: f64,
}

impl Schedule {
    /// A schedule offering `rate` requests per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is finite and positive.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "bad rate {rate}");
        Schedule { rate }
    }

    /// Nanoseconds after the phase start at which request `k` is due.
    pub fn due_ns(&self, k: u64) -> u64 {
        (k as f64 * 1e9 / self.rate).round() as u64
    }

    /// Requests due within the first `secs` seconds of the phase.
    pub fn count_within(&self, secs: f64) -> u64 {
        (secs * self.rate).ceil().max(1.0) as u64
    }
}

/// Lags of one phase, in due order: how many nanoseconds after its due
/// time each request was actually sent.
#[derive(Debug, Clone, Default)]
pub struct LagLog {
    lags_ns: Vec<(u64, u64)>,
}

impl LagLog {
    /// Records a request due at `due_ns` and sent at `sent_ns` (both on
    /// the phase clock). An early send counts as no lag.
    pub fn record(&mut self, due_ns: u64, sent_ns: u64) {
        self.lags_ns.push((due_ns, sent_ns.saturating_sub(due_ns)));
    }

    /// Every lag in milliseconds, in due order.
    pub fn lags_ms(&self) -> Vec<f64> {
        let mut v = self.lags_ns.clone();
        v.sort_unstable();
        v.iter().map(|&(_, l)| l as f64 / 1e6).collect()
    }

    /// Whether the backlog grew over the phase: the median lag of the
    /// last quarter of requests (in due order) exceeds that of the first
    /// quarter by more than `tolerance_ms`. A generator that keeps up
    /// shows bounded, non-growing lag; one behind a saturated server
    /// falls further behind with every request.
    pub fn growing(&self, tolerance_ms: f64) -> bool {
        let lags = self.lags_ms();
        let q = lags.len() / 4;
        if q == 0 {
            return false;
        }
        let first = crate::stats::median(&lags[..q]);
        let last = crate::stats::median(&lags[lags.len() - q..]);
        last > first + tolerance_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_from_the_phase_start() {
        let s = Schedule::new(200.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 5_000_000);
        assert_eq!(s.due_ns(200), 1_000_000_000);
        assert_eq!(s.count_within(2.5), 500);
        // a rate that does not divide a second still lands on the grid
        let s = Schedule::new(3.0);
        assert_eq!(s.due_ns(3), 1_000_000_000);
        assert_eq!(s.due_ns(1), 333_333_333);
        assert_eq!(s.count_within(0.1), 1, "a phase always offers one");
    }

    #[test]
    fn lag_is_send_minus_due_and_never_negative() {
        let mut log = LagLog::default();
        log.record(1_000, 500); // sent early
        log.record(2_000, 4_000_000);
        assert_eq!(log.lags_ms(), vec![0.0, 3.998]);
    }

    #[test]
    fn lags_are_kept_in_due_order_whatever_the_record_order() {
        let mut log = LagLog::default();
        // two client threads record out of due order
        log.record(3_000_000, 3_000_000 + 7_000_000);
        log.record(1_000_000, 1_000_000 + 1_000_000);
        log.record(2_000_000, 2_000_000 + 4_000_000);
        assert_eq!(log.lags_ms(), vec![1.0, 4.0, 7.0]);
    }

    #[test]
    fn bounded_lag_is_not_growing() {
        let s = Schedule::new(100.0);
        let mut log = LagLog::default();
        for k in 0..400 {
            // jitter of up to 3 ms that does not accumulate
            let due = s.due_ns(k);
            log.record(due, due + (k % 4) * 1_000_000);
        }
        assert!(!log.growing(2.0));
    }

    #[test]
    fn a_saturated_server_makes_lag_grow() {
        // offered 100/s, served 80/s: send k leaves when request k-1 is
        // done, so lag grows by 2.5 ms per request
        let s = Schedule::new(100.0);
        let service_ns = 12_500_000;
        let mut log = LagLog::default();
        for k in 0..400 {
            log.record(s.due_ns(k), k * service_ns);
        }
        assert!(log.growing(50.0));
        assert!(!log.growing(1e9), "a huge tolerance accepts anything");
    }
}
