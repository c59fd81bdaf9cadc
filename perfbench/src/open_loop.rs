//! Open-loop driving: requests are due on a fixed schedule whether or not
//! the previous one has finished, so a stall makes the requests behind it
//! wait. Each request is timed from when it was due, not from when it
//! was issued, so that wait is part of its latency.

use std::time::Instant;

/// A monotonic clock in seconds that can wait.
pub trait Clock {
    /// Seconds since the clock's origin.
    fn now(&self) -> f64;
    /// Returns once `now() >= t` (perhaps later: the overshoot is the
    /// generator's lateness).
    fn wait_until(&self, t: f64);
}

/// The real clock.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Spins rather than sleeps: a sleeping thread's wake-up delay (long
    /// and erratic on a virtual machine whose idle vCPU gets descheduled)
    /// would be charged to the request as generator lateness.
    fn wait_until(&self, t: f64) {
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// What one open-loop phase measured; times in seconds, one entry per
/// served request.
#[derive(Clone, Debug, Default)]
pub struct OpenLoopRun {
    /// Completion minus due time.
    pub latency: Vec<f64>,
    /// Wait behind earlier requests: start minus due time for a request
    /// that fell due while the server was busy, else 0.
    pub queue: Vec<f64>,
    /// Generator lateness: start minus due time for a request issued
    /// after idling until it was due, else 0.
    pub gen_late: Vec<f64>,
    /// Requests the server answered with a failure.
    pub failed: usize,
    /// Requests that fell due but were never issued because the backlog
    /// outlasted the cut-off.
    pub unserved: usize,
}

impl OpenLoopRun {
    /// Requests that fell due in the phase.
    pub fn offered(&self) -> usize {
        self.latency.len() + self.unserved
    }

    /// Share of offered requests that failed, were never served, or
    /// finished later than `limit` seconds after they were due.
    pub fn miss_share(&self, limit: f64) -> f64 {
        let late = self.latency.iter().filter(|&&l| l > limit).count();
        let offered = self.offered().max(1);
        (late + self.failed + self.unserved) as f64 / offered as f64
    }
}

/// Offers `rate` requests per second for `window` seconds, one at a time
/// on this thread: request `i` falls due at `i / rate` after the start.
/// `serve(i)` handles request `i` and returns whether it succeeded.
/// Requests still waiting when `window + grace` seconds have passed are
/// counted as unserved.
pub fn drive<C: Clock>(
    clock: &C,
    rate: f64,
    window: f64,
    grace: f64,
    mut serve: impl FnMut(usize) -> bool,
) -> OpenLoopRun {
    let planned = (rate * window).floor() as usize;
    let t0 = clock.now();
    let mut run = OpenLoopRun::default();
    for i in 0..planned {
        let due = t0 + i as f64 / rate;
        let now = clock.now();
        if now > t0 + window + grace {
            run.unserved = planned - i;
            break;
        }
        let (queue, late) = if now < due {
            clock.wait_until(due);
            (0.0, clock.now() - due)
        } else {
            (now - due, 0.0)
        };
        if !serve(i) {
            run.failed += 1;
        }
        run.latency.push(clock.now() - due);
        run.queue.push(queue);
        run.gen_late.push(late);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that moves only when told to.
    struct FakeClock(Cell<f64>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn wait_until(&self, t: f64) {
            self.0.set(self.0.get().max(t));
        }
    }

    #[test]
    fn a_stall_charges_its_wait_to_the_requests_queued_behind_it() {
        let clock = FakeClock(Cell::new(0.0));
        // One request due every 2 s; request 1 takes 7 s.
        let service = [1.0, 7.0, 1.0, 1.0, 1.0];
        let run = drive(&clock, 0.5, 10.0, 100.0, |i| {
            clock.0.set(clock.0.get() + service[i]);
            true
        });
        // Due at 0, 2, 4, 6, 8; requests 2..4 start at 9, 10, 11.
        assert_eq!(run.latency, vec![1.0, 7.0, 6.0, 5.0, 4.0]);
        assert_eq!(run.queue, vec![0.0, 0.0, 5.0, 4.0, 3.0]);
        assert_eq!(run.gen_late, vec![0.0; 5]);
        assert_eq!(run.miss_share(4.5), 0.6);
    }

    #[test]
    fn a_backlog_past_the_cut_off_is_unserved_and_missed() {
        let clock = FakeClock(Cell::new(0.0));
        let mut calls = 0;
        let run = drive(&clock, 1.0, 4.0, 1.0, |_| {
            calls += 1;
            clock.0.set(clock.0.get() + 3.0);
            calls != 2
        });
        // Due at 0..3; served at 0 and 3; at t = 6 > 4 + 1 the rest is cut.
        assert_eq!(run.latency, vec![3.0, 5.0]);
        assert_eq!(run.unserved, 2);
        assert_eq!(run.failed, 1);
        assert_eq!(run.offered(), 4);
        assert_eq!(run.miss_share(10.0), 0.75);
    }

    #[test]
    fn lateness_is_charged_to_the_generator_not_the_queue() {
        /// Wakes every wait 0.25 s late.
        struct Sleepy(Cell<f64>);
        impl Clock for Sleepy {
            fn now(&self) -> f64 {
                self.0.get()
            }
            fn wait_until(&self, t: f64) {
                self.0.set(self.0.get().max(t + 0.25));
            }
        }
        let clock = Sleepy(Cell::new(0.0));
        let run = drive(&clock, 1.0, 3.0, 1.0, |_| {
            clock.0.set(clock.0.get() + 0.5);
            true
        });
        // Request 0 is due at the start and issued at once.
        assert_eq!(run.gen_late, vec![0.0, 0.25, 0.25]);
        assert_eq!(run.queue, vec![0.0; 3]);
        assert_eq!(run.latency, vec![0.5, 0.75, 0.75]);
    }
}
