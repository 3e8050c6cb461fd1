//! Golden bytes of the JSON writer.  The fixtures under `tests/golden/`
//! were written by the per-character writer this crate used before the
//! run-based one; every test here demands the same bytes from the current
//! code: cache-hit reply lines from a live daemon, the client's request
//! lines, a results-file row, trace lines, and (in `cache.rs`'s unit
//! tests) cache-entry documents.  A seeded property test then compares
//! the writer with a copy of the old one on random trees.

use ph_bits::Rng;
use ph_core::{CacheHook, OptConfig, SynthParams};
use ph_hw::DeviceProfile;
use ph_ir::ParserSpec;
use ph_obs::{Json, JsonlSink, Level, Tracer};
use ph_svc::{Client, DiskCache, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The registry cases with fixtures, and their fixture file prefixes.
const CASES: [(&str, &str); 2] = [("Parse Ethernet", "parse_ethernet"), ("Sai V1", "sai_v1")];

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn registry_spec(case: &str) -> ParserSpec {
    ph_benchmarks::registry()
        .into_iter()
        .find(|c| c.name == case)
        .unwrap_or_else(|| panic!("no registry case {case:?}"))
        .spec
}

#[test]
fn cache_hit_replies_are_byte_identical() {
    for (case, tag) in CASES {
        let entry = golden(&format!("{tag}.entry.json"));
        let doc = Json::parse(&entry).unwrap();
        let key = doc.get("key").and_then(Json::as_str).unwrap().to_string();
        let spec = registry_spec(case);
        let device = DeviceProfile::tofino();
        assert_eq!(
            key,
            DiskCache::key(&spec, &device, OptConfig::all(), &SynthParams::default()),
            "{case}: the fixture entry is filed under this spec's key"
        );
        let dir = std::env::temp_dir().join(format!("ph-svc-golden-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = DiskCache::new(&dir);
        std::fs::write(cache.entry_path(&key), &entry).unwrap();

        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_cap: 4,
            cache: Some(CacheHook(Arc::new(cache))),
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        let mut stream = BufReader::new(TcpStream::connect(addr).unwrap());
        let request = golden(&format!("{tag}.request.jsonl"));
        // Twice on one connection: the second reply reuses the buffer.
        for _ in 0..2 {
            stream.get_mut().write_all(request.as_bytes()).unwrap();
            let mut reply = String::new();
            stream.read_line(&mut reply).unwrap();
            assert_eq!(reply, golden(&format!("{tag}.hit.jsonl")), "{case}");
        }
        handle.shutdown();
        join.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn client_request_lines_are_byte_identical() {
    for (case, tag) in CASES {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let reply = golden(&format!("{tag}.hit.jsonl"));
        // A stand-in daemon: records each request line, answers with the
        // fixture reply.
        let daemon = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut stream = BufReader::new(stream);
            let mut lines = Vec::new();
            for _ in 0..2 {
                let mut line = String::new();
                stream.read_line(&mut line).unwrap();
                stream.get_mut().write_all(reply.as_bytes()).unwrap();
                lines.push(line);
            }
            lines
        });
        let spec = registry_spec(case);
        let mut client = Client::connect(&addr).unwrap();
        for _ in 0..2 {
            let out = client
                .submit_wait(
                    &spec,
                    &DeviceProfile::tofino(),
                    OptConfig::all(),
                    Some(Duration::from_secs(60)),
                )
                .unwrap();
            assert!(out.cache_hit);
        }
        let want = golden(&format!("{tag}.request.jsonl"));
        for line in daemon.join().unwrap() {
            assert_eq!(line, want, "{case}");
        }
    }
}

#[test]
fn a_results_row_reprints_identically() {
    let row = golden("table3_row.json");
    let doc = Json::parse(&row).unwrap();
    assert_eq!(doc.to_pretty(), row);
    assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
}

/// A `Write` collecting everything into a shared buffer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn trace_lines_are_byte_identical() {
    let buf = SharedBuf::default();
    let tracer =
        Tracer::new(Arc::new(JsonlSink::new(Box::new(buf.clone())))).with_verbosity(Level::Debug);
    tracer.msg(
        Level::Warn,
        "say \"hi\"\u{1}\tto\tcaf\u{e9} \u{1F600} back\\slash\nnew\r\u{1f}\u{7f}",
    );
    tracer.count("svc.cache.hit", 3);
    tracer.flush();
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    // `t_ns` differs per run; everything after it is fixed.
    let mut lines = String::new();
    for line in text.lines() {
        lines.push_str(line.split_once(',').unwrap().1);
        lines.push('\n');
    }
    assert_eq!(lines, golden("trace_lines.txt"));
}

/// The writer this crate used before the run-based one: one `char` at a
/// time through `write!`, keys cloned into a `Json::Str`.
struct OldWriter<'a>(&'a Json);

impl std::fmt::Display for OldWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Float(v) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\r' => f.write_str("\\r")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}", OldWriter(v))?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{}", OldWriter(&Json::Str(k.clone())), OldWriter(v))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A random string mixing plain ASCII, every escaped character and
/// multi-byte UTF-8.
fn random_string(rng: &mut Rng) -> String {
    const PICKS: [char; 14] = [
        'a', 'Z', '7', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀',
    ];
    let len = rng.gen_range(0..12usize);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.5) {
                PICKS[rng.gen_range(0..PICKS.len())]
            } else {
                char::from_u32(rng.gen_range(0..0x800u64) as u32).unwrap_or('?')
            }
        })
        .collect()
}

/// A random finite float across twenty orders of magnitude either side
/// of 1.
fn random_float(rng: &mut Rng) -> f64 {
    let mantissa = rng.next_u64() as i64 as f64 / (1u64 << 40) as f64;
    mantissa * 10f64.powi(rng.gen_range(0..40u64) as i32 - 20)
}

/// Integral floats from 1e15 up: the old writer printed every digit and
/// the text re-parsed as an integer; the writer now uses an exponent.
fn old_writer_loses_the_type(v: &Json) -> bool {
    match v {
        Json::Float(f) => f.fract() == 0.0 && f.abs() >= 1e15,
        Json::Arr(items) => items.iter().any(old_writer_loses_the_type),
        Json::Obj(fields) => fields.iter().any(|(_, v)| old_writer_loses_the_type(v)),
        _ => false,
    }
}

fn random_json(rng: &mut Rng, depth: usize) -> Json {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.gen_range(0..kinds as u64) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Int(rng.next_u64() as i64 >> rng.gen_range(0..64u64)),
        3 => Json::Float(random_float(rng)),
        4 => Json::Str(random_string(rng)),
        5 => Json::Arr(
            (0..rng.gen_range(0..5usize))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..5usize))
                .map(|_| (random_string(rng), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn random_trees_write_like_the_old_writer_and_parse_back() {
    let mut rng = Rng::seed_from_u64(0x6a73_6f6e);
    let mut lost = 0;
    for i in 0..3000 {
        let v = random_json(&mut rng, 4);
        let mut text = String::new();
        v.write_to(&mut text);
        if old_writer_loses_the_type(&v) {
            lost += 1;
        } else {
            assert_eq!(text, OldWriter(&v).to_string(), "tree {i}");
        }
        assert_eq!(text, v.to_string(), "tree {i}: Display is the writer");
        assert_eq!(Json::parse(&text).unwrap(), v, "tree {i}: {text}");
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v, "tree {i}");
        // Appending keeps what the buffer held.
        let mut buf = String::from("x");
        v.write_to(&mut buf);
        assert_eq!(buf[1..], text);
    }
    // Most trees hold no such float, so most are compared byte for byte.
    assert!(
        lost < 1000,
        "{lost} trees skipped the old-writer comparison"
    );
}
