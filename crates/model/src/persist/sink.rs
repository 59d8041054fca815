//! The ordered I/O sink: producers send and return; one dedicated
//! thread consumes.
//!
//! **Hot-path discipline.** A producer (a probing worker) sends one
//! message down a bounded channel and returns; it never takes a lock.
//! The only way it can stall is backpressure — the channel filling
//! faster than the thread drains it — and that wait is measured
//! ([`OrderedSink::wait_ns`]), alongside the queue depth's high-water
//! mark ([`OrderedSink::queue_high_water`]).
//!
//! **Ordering.** Items carry a campaign index. The thread holds items
//! that arrive ahead of the next expected index in a reorder buffer and
//! hands them to the [`SinkConsumer`] strictly in index order, so the
//! output never depends on worker interleaving. Side messages are
//! consumed in arrival order; the channel is FIFO, so a side message
//! sent from a single-threaded section lands after every item sent
//! before it.
//!
//! **Shutdown.** [`OrderedSink::finish`] sends a final message, joins
//! the thread once it has drained every queued message, and hands the
//! consumer back. If the sink is dropped without `finish` (a campaign
//! unwinding on a worker panic), the channel closes, the thread drains
//! what arrived and exits, and the consumer's own `Drop` runs there.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Bounded channel capacity, in messages. It caps the memory queued
/// work can hold and how much completed-but-unwritten work a hard kill
/// can lose, while leaving enough slack that a healthy I/O thread never
/// blocks a producer.
const SINK_CHANNEL_CAPACITY: usize = 1024;

/// What the sink thread does with what it receives.
pub trait SinkConsumer: Send + 'static {
    /// Indexed messages, consumed strictly in index order.
    type Item: Send + 'static;
    /// Unindexed messages, consumed in arrival order.
    type Side: Send + 'static;

    /// Consumes the item at `index`; called once per index, ascending.
    fn item(&mut self, index: u64, item: Self::Item);

    /// Consumes a side message; `next` is the first index not yet
    /// consumed.
    fn side(&mut self, msg: Self::Side, next: u64);

    /// Called after each run of in-order items, and once more at
    /// shutdown, with the first index not yet consumed.
    fn drained(&mut self, _next: u64) {}
}

enum Msg<C: SinkConsumer> {
    Item(u64, C::Item),
    Side(C::Side),
    Finish,
}

#[derive(Default)]
struct Gauges {
    /// Nanoseconds producers spent blocked on a full channel.
    wait_ns: AtomicU64,
    /// Messages sent but not yet received by the thread.
    depth: AtomicU64,
    /// High-water mark of `depth`.
    hwm: AtomicU64,
}

/// A bounded channel into a dedicated I/O thread that owns a
/// [`SinkConsumer`]. Share it by reference or `Arc`; every method takes
/// `&self`.
pub struct OrderedSink<C: SinkConsumer> {
    tx: SyncSender<Msg<C>>,
    /// Joined by [`finish`](OrderedSink::finish) to reclaim the consumer.
    io: Mutex<Option<JoinHandle<C>>>,
    gauges: Arc<Gauges>,
}

impl<C: SinkConsumer> OrderedSink<C> {
    /// Spawns the I/O thread `name` around `consumer`. `next_index` is
    /// the first index the reorder buffer waits for.
    ///
    /// # Panics
    ///
    /// Panics if the thread cannot be spawned.
    pub fn spawn(name: &str, mut consumer: C, next_index: u64) -> Self {
        let (tx, rx) = sync_channel::<Msg<C>>(SINK_CHANNEL_CAPACITY);
        let gauges = Arc::new(Gauges::default());
        let counts = Arc::clone(&gauges);
        let handle = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || {
                let mut pending = BTreeMap::new();
                let mut next = next_index;
                // A closed channel (the sink dropped without `finish`)
                // ends the loop the same way `Finish` does.
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Finish => break,
                        Msg::Side(side) => {
                            counts.depth.fetch_sub(1, Ordering::Relaxed);
                            consumer.side(side, next);
                        }
                        Msg::Item(index, item) => {
                            counts.depth.fetch_sub(1, Ordering::Relaxed);
                            pending.insert(index, item);
                            drain(&mut consumer, &mut pending, &mut next);
                        }
                    }
                }
                drain(&mut consumer, &mut pending, &mut next);
                consumer
            })
            .expect("spawn sink thread");
        OrderedSink { tx, io: Mutex::new(Some(handle)), gauges }
    }

    /// Enqueues one message, measuring any backpressure wait.
    fn send(&self, msg: Msg<C>) {
        // Count before sending: the thread decrements on receipt, and
        // counting after delivery would let the decrement land first and
        // underflow the gauge.
        let depth = self.gauges.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.gauges.hwm.fetch_max(depth, Ordering::Relaxed);
        match self.tx.try_send(msg) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) => {
                let start = Instant::now();
                self.tx.send(msg).expect("sink thread died");
                let waited = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.gauges.wait_ns.fetch_add(waited, Ordering::Relaxed);
            }
            Err(TrySendError::Disconnected(_)) => panic!("sink thread died"),
        }
    }

    /// Submits the item at `index` for in-order consumption.
    pub fn item(&self, index: u64, item: C::Item) {
        self.send(Msg::Item(index, item));
    }

    /// Submits a side message.
    pub fn side(&self, msg: C::Side) {
        self.send(Msg::Side(msg));
    }

    /// Nanoseconds producers spent blocked on backpressure so far; zero
    /// means no producer ever waited on this sink.
    pub fn wait_ns(&self) -> u64 {
        self.gauges.wait_ns.load(Ordering::Relaxed)
    }

    /// High-water mark of the queue depth, in messages.
    pub fn queue_high_water(&self) -> u64 {
        self.gauges.hwm.load(Ordering::Relaxed)
    }

    /// Joins the thread after it drains every queued message and hands
    /// the consumer back; `None` if the sink was already finished.
    ///
    /// # Panics
    ///
    /// Panics if the sink thread panicked.
    pub fn finish(&self) -> Option<C> {
        let handle = self.io.lock().unwrap_or_else(PoisonError::into_inner).take()?;
        // FIFO: everything sent before this point is consumed first.
        self.tx.send(Msg::Finish).expect("sink thread died");
        Some(handle.join().expect("sink thread panicked"))
    }
}

fn drain<C: SinkConsumer>(consumer: &mut C, pending: &mut BTreeMap<u64, C::Item>, next: &mut u64) {
    while let Some(item) = pending.remove(next) {
        consumer.item(*next, item);
        *next += 1;
    }
    consumer.drained(*next);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records what it was handed, in consumption order.
    #[derive(Default)]
    struct Log(Vec<String>);

    impl SinkConsumer for Log {
        type Item = &'static str;
        type Side = &'static str;

        fn item(&mut self, index: u64, item: &'static str) {
            self.0.push(format!("{index}:{item}"));
        }

        fn side(&mut self, msg: &'static str, next: u64) {
            self.0.push(format!("side {msg} @{next}"));
        }

        fn drained(&mut self, next: u64) {
            self.0.push(format!("drained @{next}"));
        }
    }

    #[test]
    fn items_are_consumed_in_index_order_from_the_resume_point() {
        let sink = OrderedSink::spawn("test-sink", Log::default(), 5);
        sink.item(7, "c");
        sink.item(5, "a");
        sink.side("mark");
        sink.item(6, "b");
        let log = sink.finish().unwrap();
        assert_eq!(
            log.0,
            [
                "drained @5",
                "5:a",
                "drained @6",
                "side mark @6",
                "6:b",
                "7:c",
                "drained @8",
                "drained @8"
            ]
        );
        assert!(sink.finish().is_none(), "finish is idempotent");
        assert_eq!(sink.wait_ns(), 0, "a tiny run never blocks on the channel");
        assert!(sink.queue_high_water() >= 1);
    }
}
