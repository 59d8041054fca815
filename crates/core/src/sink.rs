//! The journal sink: the write-ahead journal behind the shared
//! [`OrderedSink`] I/O thread, so probing workers append to it without
//! ever touching a sink mutex.
//!
//! **Hot-path discipline.** A worker finishing a probe sends one
//! `(index, probe)` item and returns; framing, ordering, and file
//! writes all happen on the sink thread, and backpressure waits are
//! measured ([`OrderedSink::wait_ns`]) so tests can assert they stay at
//! zero.
//!
//! **Ordering.** The sink appends probe records strictly in index
//! order, which keeps the journal's contiguous-prefix replay rule
//! meaningful at any worker count (and the file byte-stable across
//! identical runs at a fixed worker count — record *content* carries
//! side-query tallies that follow per-worker resolver-cache warmth, so
//! cross-worker-count byte identity was never a journal property). A
//! checkpoint whose `probes_done` is ahead of the written prefix is
//! *held* and appended only once the prefix covers it: a checkpoint the
//! replay would have to discard (state ahead of the probes on disk) is
//! never written in that invalid position. With one worker, messages
//! already arrive in index order and every checkpoint lands exactly
//! where the old locked writer put it — byte-identical journals.
//!
//! **Shutdown.** [`OrderedSink::finish`] joins the thread, which drains
//! every queued message first; the reclaimed [`JournalWriter`] then
//! carries the campaign's final merged checkpoint and completion record
//! on the caller's thread. If the campaign unwinds on a worker panic,
//! dropping the sink closes the channel the same way and the writer's
//! own drop flushes what arrived. A hard kill (`std::process::exit`)
//! can lose whatever still sat in the channel — the same class of tail
//! loss the buffered writer always had, and exactly the window
//! checkpoint replay tolerates.

use std::collections::VecDeque;
use std::sync::Arc;

use govdns_model::persist::{OrderedSink, SinkConsumer};

use crate::journal::{Checkpoint, JournalWriter};
use crate::probe::DomainProbe;

/// The worker-facing handle: send-only, lock-free on the send path.
pub(crate) type JournalSink = OrderedSink<JournalFile>;

/// What the journal sink thread owns.
pub(crate) struct JournalFile {
    pub(crate) writer: JournalWriter,
    /// Checkpoints ahead of the written probe prefix, in arrival order.
    held: VecDeque<Box<Checkpoint>>,
}

/// Spawns the journal sink thread around an already-set-up writer
/// (header, replayed history, and resume markers written by the
/// caller). `next_index` is the first campaign index the reorder
/// buffer waits for — the resume point.
pub(crate) fn spawn(writer: JournalWriter, next_index: u64) -> Arc<JournalSink> {
    let file = JournalFile { writer, held: VecDeque::new() };
    Arc::new(OrderedSink::spawn("govdns-journal-sink", file, next_index))
}

impl SinkConsumer for JournalFile {
    /// One completed probe (shared, not cloned).
    type Item = Arc<DomainProbe>;
    /// A periodic state checkpoint, captured by the sending worker.
    type Side = Box<Checkpoint>;

    fn item(&mut self, index: u64, probe: Arc<DomainProbe>) {
        self.writer.probe(index, &probe);
    }

    fn side(&mut self, cp: Box<Checkpoint>, next: u64) {
        if cp.probes_done <= next {
            self.writer.checkpoint(&cp);
        } else {
            self.held.push_back(cp);
        }
    }

    fn drained(&mut self, next: u64) {
        while let Some(cp) = self.held.pop_front_if(|cp| cp.probes_done <= next) {
            self.writer.checkpoint(&cp);
        }
    }
}
