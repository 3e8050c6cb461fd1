//! Decoder fuzz: real request lines, reply lines and cache entries (the
//! `tests/golden/` fixtures), mutated by the seeded in-tree `Rng` — byte
//! flips, truncations, splices of one document into another, and `[`/`{`
//! runs past `MAX_PARSE_DEPTH` — and fed to every decoder that reads
//! untrusted bytes: `Json::parse`, `proto::parse_request`, the
//! `codec::*_from_json` decoders, the content key a submit derives, and a
//! `DiskCache` lookup (plus the hit's rendering) of a corrupted entry.
//! Nothing may panic, and an entry that does not decode must be a miss
//! counted as `svc.cache.corrupt` or `svc.cache.stale`.  The iteration
//! counts are fixed, so the suite's run time is too.

use ph_bits::Rng;
use ph_core::{OptConfig, SynthCache, SynthParams};
use ph_hw::DeviceProfile;
use ph_ir::ParserSpec;
use ph_obs::json::MAX_PARSE_DEPTH;
use ph_obs::{Json, MemorySink, OwnedEvent, Tracer};
use ph_svc::proto::{self, Request};
use ph_svc::{codec, DiskCache};
use std::sync::Arc;

const CASES: [(&str, &str); 2] = [("Parse Ethernet", "parse_ethernet"), ("Sai V1", "sai_v1")];

fn golden(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn registry_spec(case: &str) -> ParserSpec {
    ph_benchmarks::registry()
        .into_iter()
        .find(|c| c.name == case)
        .unwrap()
        .spec
}

/// One mutation of `doc`; `others` are splice donors.  The bool says
/// whether the result can no longer parse as JSON.
fn mutate(rng: &mut Rng, doc: &[u8], others: &[Vec<u8>]) -> (Vec<u8>, bool) {
    let mut out = doc.to_vec();
    match rng.gen_range(0..5u64) {
        0 => {
            // Byte flips: one to four random bits anywhere.
            for _ in 0..rng.gen_range(1..=4u64) {
                let at = rng.gen_range(0..out.len());
                out[at] ^= 1 << rng.gen_range(0..8u64);
            }
            (out, false)
        }
        1 => {
            // Truncation before the closing bracket.
            let body = doc.iter().rposition(|b| matches!(b, b'}' | b']')).unwrap();
            out.truncate(rng.gen_range(0..body));
            (out, true)
        }
        2 => {
            // Splice: a slice of another document replaces a slice here.
            let donor = &others[rng.gen_range(0..others.len())];
            let (a, b) = (rng.gen_range(0..donor.len()), rng.gen_range(0..donor.len()));
            let piece = &donor[a.min(b)..a.max(b)];
            let at = rng.gen_range(0..out.len());
            let end = (at + rng.gen_range(0..64usize)).min(out.len());
            out.splice(at..end, piece.iter().copied());
            (out, false)
        }
        3 => {
            // Container runs nested past the parser's depth cap, in front
            // of the document or in a field's value position.
            let open = if rng.gen_bool(0.5) { "[" } else { "{\"k\":" };
            let run = open.repeat(MAX_PARSE_DEPTH + 1 + rng.gen_range(0..64usize));
            let values: Vec<usize> = (2..doc.len())
                .filter(|&i| &doc[i - 2..i] == b"\":" && doc[i - 3] != b'\\')
                .collect();
            let at = if rng.gen_bool(0.5) {
                0
            } else {
                values[rng.gen_range(0..values.len())]
            };
            out.splice(at..at, run.bytes());
            (out, true)
        }
        _ => {
            // A random byte inserted: often a control byte in a string.
            let at = rng.gen_range(0..=out.len());
            out.insert(at, rng.gen_range(0..256u64) as u8);
            (out, false)
        }
    }
}

/// Runs every decoder on `text`; any panic fails the test.
fn decode_everything(text: &str) {
    if let Ok(Request::Submit(req)) = proto::parse_request(text) {
        // What a submit does with a decoded request before any lookup.
        DiskCache::key(&req.spec, &req.device, req.opts, &SynthParams::default());
    }
    let Ok(doc) = Json::parse(text) else { return };
    let mut nodes = vec![&doc];
    for field in ["spec", "device", "opts", "program", "stats"] {
        nodes.extend(doc.get(field));
    }
    for node in nodes {
        let _ = codec::spec_from_json(node);
        let _ = codec::device_from_json(node);
        let _ = proto::opts_from_json(node);
        if let Ok(p) = codec::program_from_json(node) {
            let _ = p.to_string();
        }
        let _ = codec::stats_from_json(node);
    }
    // The writer takes back whatever the parser accepted.
    assert_eq!(Json::parse(&doc.to_string()).as_ref(), Ok(&doc));
}

#[test]
fn mutated_requests_and_replies_never_panic_a_decoder() {
    let docs: Vec<Vec<u8>> = CASES
        .iter()
        .flat_map(|(_, tag)| {
            [
                golden(&format!("{tag}.request.jsonl")),
                golden(&format!("{tag}.hit.jsonl")),
                golden(&format!("{tag}.entry.json")),
            ]
        })
        .collect();
    for doc in &docs {
        decode_everything(std::str::from_utf8(doc).unwrap());
    }
    let mut rng = Rng::seed_from_u64(0xf022);
    let (mut unparsable, mut decoded) = (0, 0);
    for _ in 0..3000 {
        let doc = &docs[rng.gen_range(0..docs.len())];
        let (bytes, breaks) = mutate(&mut rng, doc, &docs);
        let text = String::from_utf8_lossy(&bytes);
        if breaks {
            assert!(Json::parse(&text).is_err(), "accepted {text}");
        }
        if Json::parse(&text).is_err() {
            unparsable += 1;
        }
        if matches!(proto::parse_request(&text), Ok(Request::Submit(_))) {
            decoded += 1;
        }
        decode_everything(&text);
    }
    // The mix reaches both sides of the decoders.
    assert!(unparsable > 1000, "{unparsable} unparsable");
    assert!(decoded > 10, "{decoded} submits decoded");
}

/// The `svc.cache.*` counters a thread emitted into `sink`.
fn counted(sink: &MemorySink, name: &str) -> u64 {
    sink.events()
        .iter()
        .map(|e| match e {
            OwnedEvent::Count { name: n, delta } if n == name => *delta,
            _ => 0,
        })
        .sum()
}

#[test]
fn corrupted_entries_degrade_to_counted_misses() {
    let sink = Arc::new(MemorySink::new());
    let _tracer = ph_obs::set_thread_tracer(Tracer::new(sink.clone()));
    let dir = std::env::temp_dir().join(format!("ph-svc-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = DiskCache::new(&dir);
    let device = DeviceProfile::tofino();
    let params = SynthParams::default();
    let cases: Vec<(ParserSpec, Vec<u8>)> = CASES
        .iter()
        .map(|(case, tag)| (registry_spec(case), golden(&format!("{tag}.entry.json"))))
        .collect();
    let donors: Vec<Vec<u8>> = cases.iter().map(|(_, e)| e.clone()).collect();
    let mut rng = Rng::seed_from_u64(0xe27);
    let (mut misses, mut served) = (0, 0);
    for i in 0..400 {
        let (spec, entry) = &cases[rng.gen_range(0..cases.len())];
        let key = DiskCache::key(spec, &device, OptConfig::all(), &params);
        let path = cache.entry_path(&key);
        let (bytes, breaks) = mutate(&mut rng, entry, &donors);
        std::fs::write(&path, &bytes).unwrap();
        let before = counted(&sink, "svc.cache.corrupt") + counted(&sink, "svc.cache.stale");
        let hit = cache.lookup(spec, &device, OptConfig::all(), &params);
        let after = counted(&sink, "svc.cache.corrupt") + counted(&sink, "svc.cache.stale");
        match hit {
            Some(out) => {
                assert!(!breaks, "mutation {i}: a broken entry was served");
                assert_eq!(after, before, "mutation {i}: a hit counted as corrupt");
                // The hit path renders what it serves.
                let _ = codec::program_to_json(&out.program).to_string();
                let _ = out.program.to_string();
                let _ = out.stats.to_json().to_string();
                served += 1;
            }
            None => {
                assert_eq!(after, before + 1, "mutation {i}: an uncounted miss");
                assert!(!path.exists(), "mutation {i}: the bad entry stays on disk");
                misses += 1;
            }
        }
    }
    eprintln!("corrupted entries: {misses} counted misses, {served} still decoded and served");
    assert!(misses > 200, "{misses} misses");
    let _ = std::fs::remove_dir_all(&dir);
}
