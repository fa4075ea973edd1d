//! Memory-reference streams.
//!
//! The engine is trace-driven: each network function supplies a stream of
//! [`Access`] events derived from its real per-packet data-structure
//! walks (hash-bucket probes, Aho-Corasick node chases, DIR-24-8 table
//! lookups). An event carries the instructions executed since the
//! previous event, so the engine can charge compute cycles between
//! memory stalls.
//!
//! **Modeling choice:** the engine ignores [`AccessKind`] — loads and
//! stores cost the same number of cycles, and stores allocate into the
//! cache exactly like loads (write-allocate, no write-back traffic).
//! The kind still rides along on every event because the `snic-verify`
//! trace linters and the blast-radius perturbations distinguish reads
//! from writes; only the *timing* model treats them uniformly.
//!
//! Streams reach the engine as [`EventSource`] values, a closed enum
//! over two backends: a shared recording replayed from an `Arc`
//! ([`SharedReplayStream`]) and a chunk-buffered generator
//! ([`StreamedSource`] over any [`TraceSource`]). Both lend their
//! events as borrowed slices ([`EventSource::next_slice`]), so the hot
//! loop dispatches on an enum tag and never copies an event.

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read.
    Load,
    /// A write.
    Store,
}

/// One event of a reference stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Instructions retired since the previous event (including this
    /// access instruction itself; must be ≥ 1).
    pub insns: u32,
    /// Byte address within the NF's private address space.
    pub addr: u64,
    /// Load or store. The engine's timing model does **not** consult
    /// this (loads and stores cost the same; see the module docs) —
    /// it exists for trace linting and stream perturbation.
    pub kind: AccessKind,
}

/// A re-windable generator of reference-stream events.
///
/// This is the streaming counterpart of a materialized recording: a
/// `TraceSource` produces its event sequence chunk by chunk into a
/// caller buffer, holding only O(chunk) state resident, and can
/// [`TraceSource::rewind`] to the start to replay the identical
/// sequence (seeded generators rebuild their state; the multi-pass
/// warm-then-measure pattern of the figure sweeps becomes a rewind at
/// the pass boundary instead of a second materialized copy).
///
/// A partial fill is legal only at end of sequence, and a zero fill
/// means the current pass is exhausted. After `rewind`, the source must
/// reproduce its event sequence bit-identically — that is what lets a
/// streamed run replace a materialized `Arc<[Access]>` under every
/// golden snapshot.
pub trait TraceSource: Send {
    /// Fill `out` with the next events of the sequence, returning how
    /// many were written; 0 exactly when the sequence is exhausted.
    fn fill(&mut self, out: &mut [Access]) -> usize;

    /// Restart the sequence from its beginning. The events produced
    /// after a rewind must be bit-identical to the first pass.
    fn rewind(&mut self);
}

/// Adapts a [`TraceSource`] generator to the engine's [`EventSource`]
/// interface: an internal chunk buffer is refilled from the generator
/// on demand, and the engine borrows runs straight out of that buffer.
///
/// `passes > 1` replays the generated sequence back to back by
/// rewinding the generator at each pass boundary — the streaming
/// equivalent of [`SharedReplayStream::repeated`], at O(chunk) resident
/// memory instead of O(trace).
pub struct StreamedSource {
    src: Box<dyn TraceSource>,
    buf: Box<[Access]>,
    /// Next unconsumed event in `buf`.
    lo: usize,
    /// Events valid in `buf`.
    hi: usize,
    passes_left: u32,
}

/// Default chunk size of a [`StreamedSource`]: large enough that the
/// generator's per-call overhead amortizes away, small enough that a
/// 64-tenant sweep's chunk buffers stay within a few megabytes.
pub const STREAM_CHUNK: usize = 4096;

impl StreamedSource {
    /// Stream one pass of `src` through a [`STREAM_CHUNK`]-event buffer.
    pub fn new(src: Box<dyn TraceSource>) -> StreamedSource {
        StreamedSource::repeated(src, 1)
    }

    /// Stream `passes` back-to-back passes of `src`, rewinding the
    /// generator at each pass boundary.
    pub fn repeated(src: Box<dyn TraceSource>, passes: u32) -> StreamedSource {
        StreamedSource::with_chunk(src, passes, STREAM_CHUNK)
    }

    /// Like [`StreamedSource::repeated`] with an explicit chunk size
    /// (the differential suite sweeps this to prove chunk-boundary
    /// invariance).
    pub fn with_chunk(src: Box<dyn TraceSource>, passes: u32, chunk: usize) -> StreamedSource {
        assert!(chunk > 0, "degenerate chunk size");
        StreamedSource {
            src,
            buf: vec![
                Access {
                    insns: 1,
                    addr: 0,
                    kind: AccessKind::Load,
                };
                chunk
            ]
            .into_boxed_slice(),
            lo: 0,
            hi: 0,
            passes_left: passes,
        }
    }

    /// Ensure the chunk buffer holds at least one unconsumed event,
    /// pulling from the generator (and crossing pass boundaries) as
    /// needed. Returns `false` when every pass is exhausted.
    fn ensure(&mut self) -> bool {
        while self.lo == self.hi {
            if self.passes_left == 0 {
                return false;
            }
            let n = self.src.fill(&mut self.buf);
            if n == 0 {
                // Pass exhausted: consume it and rewind for the next
                // one. An empty generator burns through its passes here
                // and terminates (no infinite loop).
                self.passes_left -= 1;
                if self.passes_left > 0 {
                    self.src.rewind();
                }
                continue;
            }
            self.lo = 0;
            self.hi = n;
        }
        true
    }
}

impl std::fmt::Debug for StreamedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamedSource")
            .field("chunk", &self.buf.len())
            .field("buffered", &(self.hi - self.lo))
            .field("passes_left", &self.passes_left)
            .finish_non_exhaustive()
    }
}

/// Replays a shared, immutable recording without copying it.
///
/// Reference traces are recorded once and replayed many times — every
/// colocation of a §5.3 sweep replays the same six NF recordings, and
/// the parallel pool replays them from many threads at once. Wrapping
/// the recording in an [`Arc`](std::sync::Arc) slice means each replay costs one
/// refcount bump instead of a full `Vec<Access>` clone. `passes > 1`
/// loops the recording, which is how the figure sweeps express "replay
/// once to warm the caches, then measure the second pass" without
/// materialising a doubled trace.
#[derive(Debug, Clone)]
pub struct SharedReplayStream {
    accesses: std::sync::Arc<[Access]>,
    pos: usize,
    passes_left: u32,
}

impl SharedReplayStream {
    /// Replay the shared recording once.
    pub fn new(accesses: std::sync::Arc<[Access]>) -> SharedReplayStream {
        SharedReplayStream::repeated(accesses, 1)
    }

    /// Replay the shared recording `passes` times back to back.
    pub fn repeated(accesses: std::sync::Arc<[Access]>, passes: u32) -> SharedReplayStream {
        SharedReplayStream {
            accesses,
            pos: 0,
            passes_left: passes,
        }
    }

    /// Number of events remaining across all passes.
    pub fn remaining(&self) -> usize {
        if self.passes_left == 0 {
            return 0;
        }
        (self.accesses.len() - self.pos) + (self.passes_left as usize - 1) * self.accesses.len()
    }
}

/// A synthetic stream with a configurable working set and access mix —
/// used for engine unit tests and for modeling the NIC OS's background
/// activity. Addresses cycle pseudo-randomly (LCG) through `working_set`
/// bytes. A seeded synthetic workload is trivially re-windable: reset
/// the LCG to its seed and the identical sequence replays.
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    working_set: u64,
    state: u64,
    seed: u64,
    insns_per_access: u32,
    store_every: u32,
    produced: u64,
    limit: u64,
}

impl SyntheticStream {
    /// Create a stream of `limit` events over a `working_set`-byte window.
    ///
    /// `insns_per_access` compute instructions are charged per event;
    /// every `store_every`-th event is a store (0 = never).
    pub fn new(
        working_set: u64,
        insns_per_access: u32,
        store_every: u32,
        limit: u64,
        seed: u64,
    ) -> SyntheticStream {
        assert!(
            working_set > 0 && insns_per_access > 0,
            "degenerate synthetic stream"
        );
        SyntheticStream {
            working_set,
            state: seed | 1,
            seed,
            insns_per_access,
            store_every,
            produced: 0,
            limit,
        }
    }
}

impl TraceSource for SyntheticStream {
    fn fill(&mut self, out: &mut [Access]) -> usize {
        let n = (self.limit - self.produced).min(out.len() as u64) as usize;
        for slot in &mut out[..n] {
            self.produced += 1;
            // LCG step (Numerical Recipes constants).
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let store =
                self.store_every > 0 && self.produced.is_multiple_of(u64::from(self.store_every));
            *slot = Access {
                insns: self.insns_per_access,
                addr: self.state % self.working_set,
                kind: if store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
            };
        }
        n
    }

    fn rewind(&mut self) {
        self.state = self.seed | 1;
        self.produced = 0;
    }
}

/// A devirtualized stream: the closed set of event sources the engine
/// drains without a vtable. Both backends lend borrowed slices of their
/// events, so the engine's bulk phase reads them in place.
#[derive(Debug)]
pub enum EventSource {
    /// A shared, possibly looped recording ([`SharedReplayStream`]).
    Shared(SharedReplayStream),
    /// A chunk-buffered generator ([`StreamedSource`]) — O(chunk)
    /// resident memory, bit-identical replays via [`TraceSource::rewind`].
    Streamed(StreamedSource),
}

impl EventSource {
    /// Borrow the next run of up to `max` (≥ 1) events, advancing the
    /// cursor. A run may be *short* without meaning end of stream — a
    /// shared recording's runs stop at each pass boundary and a
    /// generator's at each chunk boundary, and the next call resumes
    /// there — so only an empty run means the stream is exhausted.
    #[inline]
    pub fn next_slice(&mut self, max: usize) -> &[Access] {
        match self {
            EventSource::Shared(s) => {
                if s.passes_left == 0 || s.accesses.is_empty() {
                    return &[];
                }
                let n = max.min(s.accesses.len() - s.pos);
                let lo = s.pos;
                s.pos += n;
                if s.pos == s.accesses.len() {
                    s.pos = 0;
                    s.passes_left -= 1;
                }
                &s.accesses[lo..lo + n]
            }
            EventSource::Streamed(s) => {
                if !s.ensure() {
                    return &[];
                }
                let n = max.min(s.hi - s.lo);
                let lo = s.lo;
                s.lo += n;
                &s.buf[lo..lo + n]
            }
        }
    }

    /// Copy as many events as fit into `out`, returning how many were
    /// written. Returns 0 exactly when the stream is exhausted: unlike
    /// [`EventSource::next_slice`], a short count means end of stream.
    pub fn next_batch(&mut self, out: &mut [Access]) -> usize {
        let mut n = 0;
        while n < out.len() {
            let run = self.next_slice(out.len() - n);
            if run.is_empty() {
                break;
            }
            out[n..n + run.len()].copy_from_slice(run);
            n += run.len();
        }
        n
    }

    /// Warm the host cache for the next `events` upcoming events of a
    /// replay-backed source (no-op otherwise) — a pure performance
    /// hint with no stream-visible effect. The engine pulls the trace
    /// in chunk-sized bursts separated by simulation work, which is
    /// exactly the pattern hardware stream prefetchers lose; touching
    /// the next burst's cache lines while the current chunk simulates
    /// hides the memory latency. (`black_box` keeps the otherwise-dead
    /// loads from being elided.)
    #[inline]
    pub fn prefetch_ahead(&self, events: usize) {
        // A streamed source's buffer is small and recently written —
        // already cache-hot — so there is nothing useful to warm.
        let EventSource::Shared(s) = self else {
            return;
        };
        let hi = s.accesses.len().min(s.pos + events);
        let mut i = s.pos;
        // One touch per 64-byte line (four 16-byte events).
        while i < hi {
            std::hint::black_box(s.accesses[i].addr);
            i += 4;
        }
    }
}

impl From<SharedReplayStream> for EventSource {
    fn from(s: SharedReplayStream) -> EventSource {
        EventSource::Shared(s)
    }
}

impl From<StreamedSource> for EventSource {
    fn from(s: StreamedSource) -> EventSource {
        EventSource::Streamed(s)
    }
}

impl From<SyntheticStream> for EventSource {
    fn from(s: SyntheticStream) -> EventSource {
        StreamedSource::new(Box::new(s)).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain a stream through the zero-copy `next_slice` path.
    fn drain_sliced(es: &mut EventSource, max: usize) -> Vec<Access> {
        let mut v = Vec::new();
        loop {
            let run = es.next_slice(max);
            if run.is_empty() {
                return v;
            }
            v.extend_from_slice(run);
        }
    }

    /// Drain a stream via `next_batch` with an awkward buffer size.
    fn drain_batched(es: &mut EventSource, chunk: usize) -> Vec<Access> {
        let mut v = Vec::new();
        let mut buf = vec![
            Access {
                insns: 1,
                addr: 0,
                kind: AccessKind::Load,
            };
            chunk
        ];
        loop {
            let n = es.next_batch(&mut buf);
            if n == 0 {
                return v;
            }
            v.extend_from_slice(&buf[..n]);
        }
    }

    /// Drain a generator directly through `fill`, bypassing any chunk
    /// buffer.
    fn drain_source(src: &mut dyn TraceSource) -> Vec<Access> {
        let mut v = Vec::new();
        let mut buf = [Access {
            insns: 1,
            addr: 0,
            kind: AccessKind::Load,
        }; 13];
        loop {
            let n = src.fill(&mut buf);
            if n == 0 {
                return v;
            }
            v.extend_from_slice(&buf[..n]);
        }
    }

    fn two() -> Vec<Access> {
        vec![
            Access {
                insns: 1,
                addr: 0,
                kind: AccessKind::Load,
            },
            Access {
                insns: 2,
                addr: 64,
                kind: AccessKind::Store,
            },
        ]
    }

    #[test]
    fn shared_replay_replays_in_order() {
        let v = two();
        let s = SharedReplayStream::new(v.clone().into());
        assert_eq!(s.remaining(), 2);
        let mut es = EventSource::from(s);
        assert_eq!(drain_sliced(&mut es, 1), v);
        assert!(es.next_slice(1).is_empty());
        let EventSource::Shared(s) = es else {
            unreachable!()
        };
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn synthetic_respects_limit_and_bounds() {
        let all = drain_batched(&mut SyntheticStream::new(4096, 5, 4, 100, 42).into(), 7);
        assert_eq!(all.len(), 100);
        assert!(all.iter().all(|a| a.addr < 4096 && a.insns == 5));
        let stores = all.iter().filter(|a| a.kind == AccessKind::Store).count();
        assert_eq!(stores, 25);
    }

    #[test]
    fn repeated_replay_loops_without_copying() {
        let v = vec![
            Access {
                insns: 1,
                addr: 0,
                kind: AccessKind::Load,
            },
            Access {
                insns: 3,
                addr: 128,
                kind: AccessKind::Load,
            },
        ];
        let s = SharedReplayStream::repeated(v.clone().into(), 3);
        assert_eq!(s.remaining(), 6);
        let seen = drain_sliced(&mut s.into(), 16);
        assert_eq!(seen.len(), 6);
        assert_eq!(&seen[..2], &v[..]);
        assert_eq!(&seen[2..4], &v[..]);
        assert_eq!(&seen[4..], &v[..]);
    }

    #[test]
    fn empty_shared_replay_terminates() {
        let shared: std::sync::Arc<[Access]> = Vec::new().into();
        let mut es = EventSource::from(SharedReplayStream::repeated(shared, 1_000_000));
        assert!(es.next_slice(16).is_empty());
    }

    #[test]
    fn batched_pull_matches_sliced_pull_for_every_backend() {
        let v: Vec<Access> = (0..97u64)
            .map(|i| Access {
                insns: 1 + (i % 7) as u32,
                addr: i * 64,
                kind: if i % 3 == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
            })
            .collect();
        let shared: std::sync::Arc<[Access]> = v.into();
        let synth = || SyntheticStream::new(4096, 5, 4, 100, 42);
        for chunk in [1usize, 3, 64, 200] {
            let mk = || SharedReplayStream::repeated(std::sync::Arc::clone(&shared), 3).into();
            assert_eq!(
                drain_batched(&mut mk(), chunk),
                drain_sliced(&mut mk(), 1),
                "shared x3, chunk={chunk}"
            );
            assert_eq!(
                drain_batched(&mut synth().into(), chunk),
                drain_source(&mut synth()),
                "synthetic, chunk={chunk}"
            );
        }
    }

    #[test]
    fn batch_short_count_only_at_end_of_stream() {
        // A 5-event shared recording looped twice into a 4-slot buffer:
        // full, full, then the 2-event tail, then 0.
        let v: Vec<Access> = (0..5u64)
            .map(|i| Access {
                insns: 1,
                addr: i,
                kind: AccessKind::Load,
            })
            .collect();
        let mut es = EventSource::from(SharedReplayStream::repeated(v.into(), 2));
        let mut buf = [Access {
            insns: 1,
            addr: 0,
            kind: AccessKind::Load,
        }; 4];
        assert_eq!(es.next_batch(&mut buf), 4);
        assert_eq!(es.next_batch(&mut buf), 4);
        assert_eq!(es.next_batch(&mut buf), 2);
        assert_eq!(es.next_batch(&mut buf), 0);
    }

    #[test]
    fn event_source_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let es = EventSource::from(SyntheticStream::new(4096, 5, 0, 10, 1));
        assert_send(&es);
        assert!(format!("{es:?}").contains("Streamed"));
    }

    /// The synthetic workload the streaming tests generate and compare
    /// against: non-trivial length, mixed kinds, varied insns.
    fn synth() -> SyntheticStream {
        SyntheticStream::new(1 << 16, 3, 5, 1000, 0xabc)
    }

    #[test]
    fn streamed_source_matches_its_generator_for_every_chunk_size() {
        let direct = drain_source(&mut synth());
        assert_eq!(direct.len(), 1000);
        for chunk in [1usize, 7, 256, 333, 4096, 10_000] {
            let mk = || EventSource::from(StreamedSource::with_chunk(Box::new(synth()), 1, chunk));
            assert_eq!(
                drain_batched(&mut mk(), 64),
                direct,
                "batched, chunk={chunk}"
            );
            assert_eq!(
                drain_sliced(&mut mk(), 100),
                direct,
                "sliced, chunk={chunk}"
            );
        }
    }

    #[test]
    fn streamed_repeated_matches_shared_repeated() {
        let trace: std::sync::Arc<[Access]> = drain_source(&mut synth()).into();
        let mut shared = EventSource::from(SharedReplayStream::repeated(trace, 3));
        let mut streamed = EventSource::from(StreamedSource::with_chunk(Box::new(synth()), 3, 333));
        assert_eq!(
            drain_sliced(&mut streamed, 97),
            drain_sliced(&mut shared, 97)
        );
    }

    #[test]
    fn empty_streamed_generator_terminates() {
        let empty = SyntheticStream::new(64, 1, 0, 0, 1);
        let mut es = EventSource::from(StreamedSource::repeated(Box::new(empty), 1_000_000));
        assert!(es.next_slice(16).is_empty());
        assert_eq!(drain_batched(&mut es, 8), Vec::new());
    }

    #[test]
    fn synthetic_rewind_replays_identically() {
        let mut s = synth();
        let first = drain_source(&mut s);
        assert!(!first.is_empty());
        assert_eq!(drain_source(&mut s), Vec::new(), "exhausted");
        s.rewind();
        assert_eq!(drain_source(&mut s), first, "replay differs");
        // Rewind is idempotent: rewinding twice (and mid-stream) still
        // restarts from the exact beginning.
        s.rewind();
        let mut one = [first[0]; 1];
        assert_eq!(s.fill(&mut one), 1);
        s.rewind();
        assert_eq!(drain_source(&mut s), first, "second rewind differs");
    }

    #[test]
    fn synthetic_deterministic_per_seed() {
        let collect = |seed| -> Vec<u64> {
            drain_source(&mut SyntheticStream::new(1 << 20, 3, 0, 50, seed))
                .iter()
                .map(|a| a.addr)
                .collect()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }
}
