//! Property tests for the flight recorder's determinism-bearing
//! primitives: the record codec must round-trip byte-identically (the
//! trace determinism CI gate `cmp`s whole files), the event ring must
//! behave as an append-only log below capacity and a sliding window at
//! it, and the sampler's verdicts must not depend on which thread asks.

use std::net::Ipv4Addr;

use govdns_trace::{
    DomainBlock, EventRing, FlightDump, Step, TraceData, TraceEvent, TraceRecord, TraceSampler,
    SAMPLE_FULL,
};
use proptest::prelude::*;

fn addr_strategy() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(Ipv4Addr::from)
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop::sample::select(vec![
        Step::ParentNs,
        Step::Referral,
        Step::ChildNs,
        Step::AddrResolve,
        Step::DirectProbe,
    ])
}

/// Printable text, including the JSON-hostile characters the codec must
/// escape (quotes, backslashes, control bytes).
fn text_strategy() -> impl Strategy<Value = String> {
    "[ -~\t\n\r\u{1}\u{e9}]{0,40}"
}

fn data_strategy() -> impl Strategy<Value = TraceData> {
    prop_oneof![
        (addr_strategy(), any::<u32>()).prop_map(|(dst, attempt)| TraceData::Send { dst, attempt }),
        (addr_strategy(), any::<u32>(), text_strategy(), any::<u64>()).prop_map(
            |(dst, attempt, verdict, extra_ms)| TraceData::Fault {
                dst,
                attempt,
                verdict,
                extra_ms
            }
        ),
        (addr_strategy(), any::<u32>(), text_strategy(), any::<u64>())
            .prop_map(|(dst, attempt, class, ms)| TraceData::Response { dst, attempt, class, ms }),
        (text_strategy(), any::<u64>())
            .prop_map(|(cut, targets)| TraceData::Referral { cut, targets }),
        (text_strategy(), prop::collection::vec(addr_strategy(), 0..4))
            .prop_map(|(host, addrs)| TraceData::Resolve { host, addrs }),
        (text_strategy(), any::<bool>(), addr_strategy())
            .prop_map(|(round, some, dst)| TraceData::Charge { round, dst: some.then_some(dst) }),
        addr_strategy().prop_map(|dst| TraceData::RetryDenied { dst }),
        (addr_strategy(), any::<u32>(), any::<u64>())
            .prop_map(|(dst, attempt, ms)| TraceData::Backoff { dst, attempt, ms }),
        addr_strategy().prop_map(|dst| TraceData::BreakerDenied { dst }),
        addr_strategy().prop_map(|dst| TraceData::BreakerTrial { dst }),
        (addr_strategy(), text_strategy())
            .prop_map(|(dst, transition)| TraceData::Breaker { dst, transition }),
        text_strategy().prop_map(|text| TraceData::Note { text }),
    ]
}

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    (any::<u32>(), step_strategy(), data_strategy()).prop_map(|(seq, step, data)| TraceEvent {
        seq,
        step,
        data,
    })
}

fn events_strategy() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec(event_strategy(), 0..8)
}

fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(seed, sample_ppm, flight_capacity, domains)| TraceRecord::Header {
                version: 1,
                seed,
                sample_ppm,
                flight_capacity,
                domains,
            }
        ),
        (text_strategy(), text_strategy())
            .prop_map(|(name, mark)| TraceRecord::Stage { name, mark }),
        any::<u64>().prop_map(|from| TraceRecord::Resume { from }),
        (any::<u64>(), text_strategy(), any::<u32>(), events_strategy()).prop_map(
            |(index, domain, dropped, events)| TraceRecord::Domain(DomainBlock {
                index,
                domain,
                dropped,
                events,
            })
        ),
        (
            text_strategy(),
            (any::<bool>(), any::<u64>()),
            (any::<bool>(), text_strategy()),
            any::<u32>(),
            events_strategy(),
        )
            .prop_map(|(trigger, index, domain, ord, events)| TraceRecord::Dump(
                FlightDump {
                    trigger,
                    index: index.0.then_some(index.1),
                    domain: domain.0.then_some(domain.1),
                    ord,
                    events,
                }
            )),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(domains, events, dumps)| {
            TraceRecord::Complete { domains, events, dumps }
        }),
    ]
}

proptest! {
    /// decode(encode(r)) == r and re-encoding is byte-identical — the
    /// property the file-level `cmp` determinism gate rests on.
    #[test]
    fn records_roundtrip_byte_identically(record in record_strategy()) {
        let json = record.encode();
        let back = TraceRecord::decode(&json).unwrap();
        prop_assert_eq!(&back, &record);
        prop_assert_eq!(back.encode(), json);
    }

    /// Below capacity the ring is a plain append-only log: every pushed
    /// event is held, in push order, with dense sequence numbers and a
    /// zero drop count.
    #[test]
    fn ring_below_capacity_never_drops_or_reorders(
        cap in 1usize..64,
        pushes in prop::collection::vec((step_strategy(), text_strategy()), 0..64),
    ) {
        let mut ring = EventRing::new(cap);
        let n = pushes.len().min(cap);
        for (step, text) in pushes.iter().take(n).cloned() {
            ring.push(step, TraceData::Note { text });
        }
        prop_assert_eq!(ring.dropped(), 0);
        let held = ring.snapshot();
        prop_assert_eq!(held.len(), n);
        for (i, (event, (step, text))) in held.iter().zip(pushes.iter()).enumerate() {
            prop_assert_eq!(event.seq as usize, i);
            prop_assert_eq!(event.step, *step);
            prop_assert_eq!(&event.data, &TraceData::Note { text: text.clone() });
        }
    }

    /// At or above capacity the ring keeps exactly the last `cap`
    /// events, still in order, and accounts for every discard.
    #[test]
    fn ring_overflow_keeps_the_newest_in_order(
        cap in 1usize..32,
        total in 0usize..96,
    ) {
        let mut ring = EventRing::new(cap);
        for i in 0..total {
            ring.push(Step::ChildNs, TraceData::Note { text: format!("e{i}") });
        }
        let held = ring.snapshot();
        prop_assert_eq!(held.len(), total.min(cap));
        prop_assert_eq!(ring.dropped() as usize, total.saturating_sub(cap));
        let first = total.saturating_sub(cap);
        for (offset, event) in held.iter().enumerate() {
            prop_assert_eq!(event.seq as usize, first + offset);
            prop_assert_eq!(&event.data, &TraceData::Note { text: format!("e{}", first + offset) });
        }
    }

    /// Sampling verdicts are a pure function of (seed, domain hash):
    /// eight threads evaluating the same sampler agree with a single
    /// thread on every domain — no counters, no RNG state, no thread
    /// identity.
    #[test]
    fn sampler_is_thread_invariant(
        seed in any::<u64>(),
        sample_ppm in 0u32..=SAMPLE_FULL,
        hashes in prop::collection::vec(any::<u64>(), 1..128),
    ) {
        let sampler = TraceSampler::new(seed, sample_ppm);
        let single: Vec<bool> = hashes.iter().map(|&h| sampler.keep(h)).collect();
        let threaded: Vec<Vec<bool>> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let hashes = &hashes;
                    scope.spawn(move || hashes.iter().map(|&h| sampler.keep(h)).collect())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|handle| handle.join().expect("sampler thread"))
                .collect()
        });
        for verdicts in threaded {
            prop_assert_eq!(&verdicts, &single);
        }
    }
}
