//! A wall-clock [`Clock`] for the open-loop passes.

use canon_node::{Clock, Tick};
use std::time::{Duration, Instant};

/// Maps a monotonic OS clock onto runtime ticks of a fixed real length.
/// `advance_to` waits by yielding, so the driver thread stays runnable.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    start: Instant,
    tick_ns: u128,
}

impl WallClock {
    /// A clock at tick 0 now, one tick per `tick`.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero.
    pub fn new(tick: Duration) -> WallClock {
        assert!(!tick.is_zero(), "tick must be positive");
        WallClock {
            start: Instant::now(),
            tick_ns: tick.as_nanos(),
        }
    }

    /// The instant tick 0 began: the time base request spans share.
    pub fn start(&self) -> Instant {
        self.start
    }
}

impl Clock for WallClock {
    fn now(&self) -> Tick {
        (self.start.elapsed().as_nanos() / self.tick_ns) as Tick
    }

    fn advance_to(&self, t: Tick) {
        while self.now() < t {
            std::thread::yield_now();
        }
    }
}
