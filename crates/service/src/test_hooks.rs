//! Test-only hooks, compiled in by the `test-hooks` feature (which only this
//! crate's own dev-dependency enables).
//!
//! [`hold`] parks a reactor worker on a chosen request until the test
//! releases it, so a test can occupy the worker pool for exactly as long as
//! it needs — instead of leaning on a check it hopes is slow.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::json::Value;

/// Request ids currently held, and the held ids a worker is parked on.
struct Holds {
    held: Vec<String>,
    parked: Vec<String>,
}

static HOLDS: Mutex<Holds> = Mutex::new(Holds {
    held: Vec::new(),
    parked: Vec::new(),
});
static CHANGED: Condvar = Condvar::new();

/// How long [`WorkerHold::wait_parked`] waits before failing the test.
const PARK_TIMEOUT: Duration = Duration::from_secs(20);

/// A hold on the requests whose `"id"` is one string; dropping it (or
/// [`WorkerHold::release`]) lets the parked worker answer.
#[must_use = "dropping the hold releases it at once"]
pub struct WorkerHold {
    id: String,
}

/// Holds every request with `"id": id`: a worker that dequeues one parks
/// before answering it, until the hold is released.
pub fn hold(id: &str) -> WorkerHold {
    HOLDS.lock().unwrap().held.push(id.to_string());
    WorkerHold { id: id.to_string() }
}

impl WorkerHold {
    /// Blocks until a worker is parked on the held request (panics after
    /// 20 s: the request never reached a worker).
    pub fn wait_parked(&self) {
        let deadline = Instant::now() + PARK_TIMEOUT;
        let mut holds = HOLDS.lock().unwrap();
        while !holds.parked.contains(&self.id) {
            let left = deadline
                .checked_duration_since(Instant::now())
                .unwrap_or_else(|| panic!("no worker parked on {:?}", self.id));
            holds = CHANGED.wait_timeout(holds, left).unwrap().0;
        }
    }

    /// Releases the hold.
    pub fn release(self) {}
}

impl Drop for WorkerHold {
    fn drop(&mut self) {
        let mut holds = HOLDS.lock().unwrap();
        if let Some(i) = holds.held.iter().position(|h| *h == self.id) {
            holds.held.remove(i);
        }
        CHANGED.notify_all();
    }
}

/// Called by a worker before it answers `request`: parks while the
/// request's id is held.
pub(crate) fn park(request: &Value) {
    let Some(id) = request.get("id").and_then(Value::as_str) else {
        return;
    };
    let mut holds = HOLDS.lock().unwrap();
    if !holds.held.iter().any(|h| h == id) {
        return;
    }
    holds.parked.push(id.to_string());
    CHANGED.notify_all();
    while holds.held.iter().any(|h| h == id) {
        holds = CHANGED.wait(holds).unwrap();
    }
    if let Some(i) = holds.parked.iter().position(|p| p == id) {
        holds.parked.remove(i);
    }
}
