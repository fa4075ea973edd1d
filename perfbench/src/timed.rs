//! A timing wrapper around a generation-layer [`TraceSource`]: the
//! benchmark's span around every call into `snic-trace`/`snic-nf`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use snic_nf::NfKind;
use snic_uarch::{Access, TraceSource};

/// Host time and events produced per NF kind, shared by every
/// [`Timed`] source of one measurement (sources may run on different
/// shard threads).
#[derive(Debug, Default)]
pub struct GenCounters {
    nanos: [AtomicU64; 6],
    events: [AtomicU64; 6],
}

/// Index of `kind` in [`NfKind::ALL`].
pub(crate) fn slot(kind: NfKind) -> usize {
    NfKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in NfKind::ALL")
}

impl GenCounters {
    // Relaxed: the counters are statistics read after the threads that
    // wrote them have been joined; they publish no other data.
    fn add(&self, kind: NfKind, nanos: u64, events: u64) {
        self.nanos[slot(kind)].fetch_add(nanos, Ordering::Relaxed);
        self.events[slot(kind)].fetch_add(events, Ordering::Relaxed);
    }

    /// Host seconds spent generating events of `kind`.
    pub fn seconds(&self, kind: NfKind) -> f64 {
        self.nanos[slot(kind)].load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Events of `kind` generated.
    pub fn events(&self, kind: NfKind) -> u64 {
        self.events[slot(kind)].load(Ordering::Relaxed)
    }

    /// Host seconds spent generating, over every kind.
    pub fn total_seconds(&self) -> f64 {
        NfKind::ALL.iter().map(|&k| self.seconds(k)).sum()
    }
}

/// Times every `fill` and `rewind` of the wrapped source into a
/// [`GenCounters`] slot; the event sequence passes through unchanged.
pub struct Timed {
    inner: Box<dyn TraceSource>,
    kind: NfKind,
    counters: Arc<GenCounters>,
}

impl Timed {
    /// Wrap `inner`, a generator of `kind` events.
    pub fn new(inner: Box<dyn TraceSource>, kind: NfKind, counters: Arc<GenCounters>) -> Timed {
        Timed {
            inner,
            kind,
            counters,
        }
    }
}

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl TraceSource for Timed {
    fn fill(&mut self, out: &mut [Access]) -> usize {
        let t = Instant::now();
        let n = self.inner.fill(out);
        self.counters.add(self.kind, nanos_since(t), n as u64);
        n
    }

    fn rewind(&mut self) {
        let t = Instant::now();
        self.inner.rewind();
        self.counters.add(self.kind, nanos_since(t), 0);
    }
}

/// Pull one pass of `src` chunk by chunk and compare it with
/// `expected`, holding one chunk resident. Returns whether the pass
/// reproduced `expected` exactly.
pub fn replays(src: &mut dyn TraceSource, expected: &[Access]) -> bool {
    let mut buf = vec![
        Access {
            insns: 1,
            addr: 0,
            kind: snic_uarch::AccessKind::Load,
        };
        snic_uarch::STREAM_CHUNK
    ];
    let mut at = 0;
    loop {
        let n = src.fill(&mut buf);
        if n == 0 {
            return at == expected.len();
        }
        if expected.get(at..at + n) != Some(&buf[..n]) {
            return false;
        }
        at += n;
    }
}
