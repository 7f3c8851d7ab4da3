//! Microbenchmark traces for targeted tests and the `repro` micro and
//! sensitivity targets.

use gpu_mem_sim::{ContextTrace, KernelTrace};
use gpu_types::{AccessKind, MemEvent, MemorySpace, PhysAddr, SplitMix64, Warp};

/// Pure streaming reads over `bytes` of read-only data.
pub fn pure_stream_read(bytes: u64) -> ContextTrace {
    let events = sweep(bytes, AccessKind::Read, 0);
    let mut t = ContextTrace::new("micro-stream-read");
    t.readonly_init = vec![(PhysAddr::new(0), bytes)];
    t.kernels.push(KernelTrace::new("sweep", events));
    t
}

/// Pure streaming writes over `bytes` of output data.
pub fn pure_stream_write(bytes: u64) -> ContextTrace {
    let events = sweep(bytes, AccessKind::Write, 0);
    let mut t = ContextTrace::new("micro-stream-write");
    t.kernels.push(KernelTrace::new("sweep", events));
    t
}

/// Uniform random reads: `n` accesses over `bytes` of read/write data.
pub fn pure_random_read(bytes: u64, n: u64, seed: u64) -> ContextTrace {
    let mut rng = SplitMix64::new(seed);
    let events = (0..n)
        .map(|_| MemEvent {
            addr: PhysAddr::new(rng.next_below(bytes / 32) * 32),
            kind: AccessKind::Read,
            space: MemorySpace::Global,
            warp: Warp(rng.next_below(60) as u32),
            think_cycles: 0,
        })
        .collect();
    let mut t = ContextTrace::new("micro-random-read");
    t.kernels.push(KernelTrace::new("random", events));
    t
}

/// Uniform random writes: `n` accesses over `bytes` of read/write data.
pub fn pure_random_write(bytes: u64, n: u64, seed: u64) -> ContextTrace {
    let mut rng = SplitMix64::new(seed);
    let events = (0..n)
        .map(|_| MemEvent {
            addr: PhysAddr::new(rng.next_below(bytes / 32) * 32),
            kind: AccessKind::Write,
            space: MemorySpace::Global,
            warp: Warp(rng.next_below(60) as u32),
            think_cycles: 0,
        })
        .collect();
    let mut t = ContextTrace::new("micro-random-write");
    t.kernels.push(KernelTrace::new("random-write", events));
    t
}

/// A half-stream / half-random read mix (each half over its own buffer).
pub fn mixed_read(bytes: u64, seed: u64) -> ContextTrace {
    let half = bytes / 2;
    let stream = sweep(half, AccessKind::Read, 0);
    let mut rng = SplitMix64::new(seed);
    let random: Vec<MemEvent> = (0..stream.len() as u64)
        .map(|_| MemEvent {
            addr: PhysAddr::new(half + rng.next_below(half / 32) * 32),
            kind: AccessKind::Read,
            space: MemorySpace::Global,
            warp: Warp(rng.next_below(60) as u32),
            think_cycles: 0,
        })
        .collect();
    let mut events = Vec::with_capacity(stream.len() * 2);
    for (s, r) in stream.into_iter().zip(random) {
        events.push(s);
        events.push(r);
    }
    let mut t = ContextTrace::new("micro-mixed-read");
    t.readonly_init = vec![(PhysAddr::new(0), half)];
    t.kernels.push(KernelTrace::new("mixed", events));
    t
}

fn sweep(bytes: u64, kind: AccessKind, think: u32) -> Vec<MemEvent> {
    (0..bytes / 32)
        .map(|s| MemEvent {
            addr: PhysAddr::new(s * 32),
            kind,
            space: MemorySpace::Global,
            warp: Warp(((s / 4) % 60) as u32),
            think_cycles: think,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_read_covers_every_sector() {
        let t = pure_stream_read(64 * 1024);
        assert_eq!(t.all_events().count() as u64, 64 * 1024 / 32);
        let mut addrs: Vec<u64> = t.all_events().map(|e| e.addr.raw()).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len() as u64, 64 * 1024 / 32);
    }

    #[test]
    fn random_read_stays_in_bounds() {
        let t = pure_random_read(1 << 20, 10_000, 1);
        for e in t.all_events() {
            assert!(e.addr.raw() < 1 << 20);
        }
    }

    #[test]
    fn mixed_read_interleaves_both_halves() {
        let t = mixed_read(1 << 20, 2);
        let half = 1u64 << 19;
        let (lo, hi): (Vec<&MemEvent>, Vec<&MemEvent>) =
            t.all_events().partition(|e| e.addr.raw() < half);
        assert!(!lo.is_empty() && !hi.is_empty());
        assert_eq!(lo.len(), hi.len());
    }

    #[test]
    fn stream_write_is_all_writes() {
        let t = pure_stream_write(64 * 1024);
        assert!(t.all_events().all(|e| e.kind.is_write()));
    }
}
