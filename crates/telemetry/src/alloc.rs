//! Memory observability: a counting `#[global_allocator]` wrapper.
//!
//! [`CountingAlloc`] wraps any [`GlobalAlloc`] (normally
//! [`std::alloc::System`]) and tallies allocation count, cumulative
//! bytes, live bytes, and the live-bytes high-water mark in relaxed
//! atomics — four `fetch_add`s per allocation, nothing else.
//!
//! The wrapper type is always compiled (it is plain data), but it only
//! *does* anything when a binary installs it as the global allocator.
//! The `paba` CLI does so behind its `alloc-track` cargo feature:
//!
//! ```text
//! cargo run --release -p paba-cli --features alloc-track -- simulate --serve-metrics …
//! ```
//!
//! [`snapshot`] returns `None` until the first tracked allocation, which
//! in practice means "the counting allocator is not installed" — the
//! `/metrics` page uses that to omit allocator stats rather than report
//! zeros.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Global-allocator wrapper that counts allocations through to `A`.
///
/// All counters are process-global statics (there can only be one global
/// allocator), so two instances of this type share one set of tallies.
#[derive(Debug, Default)]
pub struct CountingAlloc<A>(pub A);

#[inline]
fn on_alloc(bytes: usize) {
    let bytes = bytes as u64;
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn on_dealloc(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: all methods delegate directly to the wrapped allocator; the
// counter updates on the side never touch the returned memory.
unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = self.0.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = self.0.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.0.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = self.0.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Count a realloc as one allocation of the new size replacing
            // the old live bytes (retired first so peak reflects the net
            // footprint, not old + new).
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Point-in-time allocator tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Total successful allocations (incl. reallocs).
    pub allocations: u64,
    /// Cumulative bytes handed out.
    pub allocated_bytes: u64,
    /// Bytes currently live.
    pub live_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
}

impl AllocSnapshot {
    /// Single-line JSON object of the four tallies.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"allocations\": {}, \"allocated_bytes\": {}, \"live_bytes\": {}, \"peak_bytes\": {}}}",
            self.allocations, self.allocated_bytes, self.live_bytes, self.peak_bytes
        )
    }
}

/// Current tallies, or `None` when no allocation has been tracked (the
/// counting allocator is not installed as `#[global_allocator]`).
pub fn snapshot() -> Option<AllocSnapshot> {
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    if allocations == 0 {
        return None;
    }
    Some(AllocSnapshot {
        allocations,
        allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
    })
}

/// High-water mark of live bytes, when tracking is active.
pub fn peak_bytes() -> Option<u64> {
    snapshot().map(|s| s.peak_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::System;

    /// One test drives the wrapper directly (installing a global
    /// allocator inside a test binary is not possible), checking the
    /// not-installed `None` state first since the counters are
    /// process-global.
    #[test]
    fn counting_alloc_tracks_and_snapshot_gates_on_activity() {
        assert_eq!(snapshot(), None, "no tracked allocations yet");
        assert_eq!(peak_bytes(), None);

        let a = CountingAlloc(System);
        let layout = Layout::from_size_align(1024, 8).unwrap();
        unsafe {
            let p1 = a.alloc(layout);
            let p2 = a.alloc_zeroed(layout);
            assert!(!p1.is_null() && !p2.is_null());

            let s = snapshot().expect("active after allocations");
            assert_eq!(s.allocations, 2);
            assert_eq!(s.allocated_bytes, 2048);
            assert_eq!(s.live_bytes, 2048);
            assert_eq!(s.peak_bytes, 2048);

            let p1 = a.realloc(p1, layout, 4096);
            assert!(!p1.is_null());
            let s = snapshot().unwrap();
            assert_eq!(s.allocations, 3);
            assert_eq!(s.live_bytes, 1024 + 4096);
            assert!(s.peak_bytes >= s.live_bytes);

            a.dealloc(p1, Layout::from_size_align(4096, 8).unwrap());
            a.dealloc(p2, layout);
        }
        let s = snapshot().unwrap();
        assert_eq!(s.live_bytes, 0, "balanced alloc/dealloc");
        assert_eq!(s.peak_bytes, 5120, "peak survives deallocation");
        assert_eq!(peak_bytes(), Some(5120));

        let j = s.to_json();
        for key in ["allocations", "allocated_bytes", "live_bytes", "peak_bytes"] {
            assert!(j.contains(&format!("\"{key}\": ")), "{j}");
        }
    }
}
