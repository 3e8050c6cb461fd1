//! The daemon's spans, read from an in-memory tracer: a cache hit is
//! answered on its connection thread under named spans, canonicalizes
//! its spec once and never runs a worker job; a miss waits on its flight
//! under a span.  The tracer is process-global, so this file holds one test.

use ph_core::{CacheHook, OptConfig};
use ph_hw::DeviceProfile;
use ph_obs::{MemorySink, OwnedEvent, Tracer};
use ph_svc::{Client, DiskCache, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

/// The span names entered in `events`, in order, with their ids and
/// parents.
fn entered(events: &[OwnedEvent]) -> Vec<(&str, u64, Option<u64>)> {
    events
        .iter()
        .filter_map(|e| match e {
            OwnedEvent::Enter { name, id, parent } => Some((name.as_str(), *id, *parent)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_traced_hit_is_named_by_spans_and_never_reaches_a_worker() {
    let sink = Arc::new(MemorySink::new());
    assert!(ph_obs::init_global(Tracer::new(sink.clone())));

    let dir = std::env::temp_dir().join(format!("ph-svc-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 4,
        cache: Some(CacheHook(Arc::new(DiskCache::new(&dir)))),
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());

    let spec = ph_p4f::parse_parser(
        r#"
        header h_t { v : 4; }
        parser {
            state start {
                extract(h_t);
                transition select(h_t.v) { 3 : accept; default : reject; }
            }
        }
        "#,
    )
    .unwrap();
    let dev = DeviceProfile::tofino();
    let deadline = Some(Duration::from_secs(30));
    let mut client = Client::connect(&addr).unwrap();
    let cold = client
        .submit_wait(&spec, &dev, OptConfig::all(), deadline)
        .unwrap();
    assert!(!cold.cache_hit);
    // A ping behind each request: its reply proves the connection thread
    // has closed every span of the request before it.
    client.ping().unwrap();
    let cold_events = sink.events();
    let jobs = |events: &[OwnedEvent]| {
        entered(events)
            .iter()
            .filter(|(name, ..)| *name == "svc.job")
            .count()
    };
    assert_eq!(jobs(&cold_events), 1, "the miss runs one job");
    // The miss's connection thread waits on its flight under a span.
    let cold_spans = entered(&cold_events);
    let (_, cold_submit, _) = *cold_spans
        .iter()
        .find(|(name, ..)| *name == "svc.op.submit")
        .unwrap();
    assert!(
        cold_spans
            .iter()
            .any(|&(name, _, parent)| name == "svc.flight.wait" && parent == Some(cold_submit)),
        "no svc.flight.wait under svc.op.submit: {cold_spans:?}"
    );

    let warm = client
        .submit_wait(&spec, &dev, OptConfig::all(), deadline)
        .unwrap();
    assert!(warm.cache_hit);
    client.ping().unwrap();
    let events = sink.events();
    let hit = &events[cold_events.len()..];
    let spans = entered(hit);
    assert_eq!(jobs(hit), 0, "a hit must not run a worker job: {spans:?}");

    let id_of = |wanted: &str| {
        spans
            .iter()
            .find(|(name, ..)| *name == wanted)
            .unwrap_or_else(|| panic!("no {wanted} span in {spans:?}"))
    };
    let (_, submit, _) = *id_of("svc.op.submit");
    for inside in ["svc.key", "cache.lookup", "svc.reply.render"] {
        assert_eq!(
            id_of(inside).2,
            Some(submit),
            "{inside} under svc.op.submit"
        );
    }
    // One canonicalization per hit, under the content key.
    let canons: Vec<_> = spans
        .iter()
        .filter(|(name, ..)| *name == "ir.canon")
        .collect();
    assert_eq!(canons.len(), 1, "{spans:?}");
    assert_eq!(
        canons[0].2,
        Some(id_of("svc.key").1),
        "ir.canon under svc.key"
    );
    id_of("svc.request.decode");
    id_of("svc.reply.write");
    let hits: u64 = hit
        .iter()
        .filter_map(|e| match e {
            OwnedEvent::Count { name, delta } if name == "svc.cache.hit" => Some(*delta),
            _ => None,
        })
        .sum();
    assert_eq!(hits, 1);

    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}
