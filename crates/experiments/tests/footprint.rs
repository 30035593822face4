//! Host-memory footprint of the simulator and the experiments that build
//! many machines. A counting global allocator tracks live heap bytes and
//! their high-water mark, so these bounds are exact and independent of
//! the allocator's page reuse.
//!
//! Run with `cargo test -p experiments --test footprint -- --nocapture`
//! to see the measured figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use experiments::platforms::Fidelity;
use experiments::registry::{run_experiment, Experiment};
use simx86::config::sandy_bridge;
use simx86::Machine;

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The counters are process-wide: tests measuring them run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f`, returning its result, the live heap bytes it left behind
/// and the peak live heap above the starting level while it ran.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let value = f();
    let kept = LIVE.load(Ordering::Relaxed).saturating_sub(base);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    (value, kept, peak)
}

fn snb_machine_bytes() -> usize {
    let (machine, bytes, _) = measure(|| Machine::new(sandy_bridge()));
    drop(machine);
    bytes
}

const MIB: f64 = (1 << 20) as f64;

#[test]
fn snb_machine_heap_stays_small() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let bytes = snb_machine_bytes();
    eprintln!(
        "Machine::new(sandy_bridge()) heap: {bytes} bytes ({:.2} MiB)",
        bytes as f64 / MIB
    );
    // 4 cores x (L1 512 + L2 4096 lines) + an L3 of 131072 lines, at 8
    // bytes of tag per line plus 16 bytes of recency order and way masks
    // per set, is 1.36 MB of cache state; with the rest of the machine,
    // 1.46 MB (1.39 MiB).
    assert!(
        bytes < 3 << 19,
        "an snb machine holds {bytes} heap bytes, above the 1.5 MiB bound"
    );
}

#[test]
fn validation_experiments_hold_one_machine_at_a_time() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let machine = snb_machine_bytes();
    for e in [Experiment::E5, Experiment::E6] {
        let (out, _, peak) = measure(|| run_experiment(e, "snb", Fidelity::Quick));
        drop(out);
        eprintln!(
            "{e:?} peak live heap: {peak} bytes ({:.2} snb machines)",
            peak as f64 / machine as f64
        );
        assert!(
            peak < 2 * machine,
            "{e:?} peaked at {peak} heap bytes, two snb machines are {}",
            2 * machine
        );
    }
}
