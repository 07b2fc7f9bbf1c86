//! The hot-path probe: counts and times the trainer's forward → loss →
//! backward windows through `apots::hotpath::install`, from outside the
//! program. Guards may nest, so only outermost windows are counted.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static WINDOWS: AtomicU64 = AtomicU64::new(0);
static BUSY_NS: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static OPENED_NS: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn probe(enter: bool) {
    DEPTH.with(|d| {
        if enter {
            if d.get() == 0 {
                OPENED_NS.with(|o| o.set(now_ns()));
            }
            d.set(d.get() + 1);
        } else {
            d.set(d.get() - 1);
            if d.get() == 0 {
                let opened = OPENED_NS.with(Cell::get);
                BUSY_NS.fetch_add(now_ns() - opened, Ordering::Relaxed);
                WINDOWS.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
}

/// Installs the probe (once per process).
pub fn install() {
    now_ns();
    assert!(
        apots::hotpath::install(probe),
        "another hot-path probe is already installed"
    );
}

/// Closed windows so far and the nanoseconds spent inside them.
pub fn read() -> (u64, u64) {
    (
        WINDOWS.load(Ordering::Relaxed),
        BUSY_NS.load(Ordering::Relaxed),
    )
}
