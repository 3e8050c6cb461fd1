//! Robustness of the on-disk result cache: every corruption mode must
//! degrade to a miss-and-recompute — never a panic, never a wrong result —
//! and concurrent writers must never produce torn entries.

use ph_core::{CacheHook, OptConfig, SynthOutput, SynthParams, Synthesizer};
use ph_hw::DeviceProfile;
use ph_ir::ParserSpec;
use ph_obs::Json;
use ph_svc::{DiskCache, CACHE_FORMAT_VERSION};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "ph-svc-robust-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn tiny_spec() -> ParserSpec {
    ph_p4f::parse_parser(
        r#"
        header h_t { v : 4; }
        parser {
            state start {
                extract(h_t);
                transition select(h_t.v) { 7 : accept; default : reject; }
            }
        }
        "#,
    )
    .unwrap()
}

/// The same parser with every name changed and an unused header added —
/// an alpha-variant of [`tiny_spec`] under canonicalization.
fn tiny_spec_renamed() -> ParserSpec {
    ph_p4f::parse_parser(
        r#"
        header dead_t { pad : 8; }
        header outer_t { version : 4; }
        parser {
            state start {
                extract(outer_t);
                transition select(outer_t.version) { 7 : accept; default : reject; }
            }
        }
        "#,
    )
    .unwrap()
}

fn synth(spec: &ParserSpec, cache: CacheHook) -> SynthOutput {
    Synthesizer::new(DeviceProfile::tofino(), OptConfig::all())
        .with_params(SynthParams {
            cache: Some(cache),
            ..SynthParams::default()
        })
        .synthesize(spec)
        .unwrap()
}

/// Populates `dir` with one entry for [`tiny_spec`] and returns its path.
fn seeded_entry(dir: &PathBuf) -> PathBuf {
    let hook = CacheHook(Arc::new(DiskCache::new(dir)));
    let spec = tiny_spec();
    let cold = synth(&spec, hook);
    assert_eq!(cold.stats.cache_misses, 1);
    let key = DiskCache::key(
        &spec,
        &DeviceProfile::tofino(),
        OptConfig::all(),
        &SynthParams::default(),
    );
    let path = DiskCache::new(dir).entry_path(&key);
    assert!(path.is_file(), "seed entry missing at {}", path.display());
    path
}

/// Corrupting the entry in `mutate`, a fresh lookup must miss, recompute
/// and leave a working entry behind.
fn assert_recovers(tag: &str, mutate: impl FnOnce(&PathBuf)) {
    let dir = tmp_dir(tag);
    let path = seeded_entry(&dir);
    mutate(&path);
    let hook = CacheHook(Arc::new(DiskCache::new(&dir)));
    let spec = tiny_spec();
    let after = synth(&spec, hook.clone());
    assert_eq!(after.stats.cache_hits, 0, "{tag}: corrupt entry must miss");
    assert_eq!(after.stats.cache_misses, 1);
    // The recompute repopulated the cache; the next lookup hits again.
    let warm = synth(&spec, hook);
    assert_eq!(warm.stats.cache_hits, 1, "{tag}: cache must self-heal");
    assert_eq!(warm.program, after.program);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_misses_and_recomputes() {
    assert_recovers("trunc", |path| {
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::write(path, &text[..text.len() / 2]).unwrap();
    });
}

#[test]
fn bit_flipped_entry_misses_and_recomputes() {
    assert_recovers("flip", |path| {
        let mut bytes = std::fs::read(path).unwrap();
        // Flip a bit inside the stored key: the file still parses as JSON
        // but fails the key check.
        let text = String::from_utf8(bytes.clone()).unwrap();
        let pos = text.find("\"key\"").unwrap() + 10;
        bytes[pos] ^= 0x01;
        std::fs::write(path, bytes).unwrap();
    });
}

#[test]
fn wrong_version_entry_misses_and_recomputes() {
    assert_recovers("version", |path| {
        let text = std::fs::read_to_string(path).unwrap();
        let old = format!("\"cache_version\": {CACHE_FORMAT_VERSION}");
        assert!(text.contains(&old), "entry must carry its version");
        std::fs::write(path, text.replace(&old, "\"cache_version\": 999")).unwrap();
    });
}

#[test]
fn garbage_entry_misses_and_recomputes() {
    assert_recovers("garbage", |path| {
        std::fs::write(path, b"not json at all \x00\xff").unwrap();
    });
}

#[test]
fn concurrent_writers_never_tear_an_entry() {
    let dir = tmp_dir("race");
    let spec = tiny_spec();
    // Many threads race the same cold synthesis into one directory; each
    // gets its own DiskCache value, like separate daemons sharing one
    // cache directory.
    let outputs: Vec<SynthOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let dir = dir.clone();
                let spec = spec.clone();
                scope.spawn(move || {
                    let hook = CacheHook(Arc::new(DiskCache::new(dir)));
                    synth(&spec, hook)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for o in &outputs {
        assert_eq!(o.program, outputs[0].program, "all writers agree");
    }
    // Exactly one entry file, fully-formed JSON (atomic rename ⇒ no torn
    // reads), and no leftover temp files.
    let mut entries = 0;
    for e in std::fs::read_dir(&dir).unwrap().flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        assert!(!name.starts_with(".tmp-"), "temp file {name} left behind");
        if name.ends_with(".json") {
            entries += 1;
            let text = std::fs::read_to_string(e.path()).unwrap();
            Json::parse(&text).expect("entry parses as complete JSON");
        }
    }
    assert_eq!(entries, 1);
    // And the survivor is usable.
    let hook = CacheHook(Arc::new(DiskCache::new(&dir)));
    let warm = synth(&spec, hook);
    assert_eq!(warm.stats.cache_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn alpha_variant_specs_share_an_entry() {
    let dir = tmp_dir("alpha");
    let hook = CacheHook(Arc::new(DiskCache::new(&dir)));
    let cold = synth(&tiny_spec(), hook.clone());
    assert_eq!(cold.stats.cache_misses, 1);
    // The renamed spec (different state/field names, extra dead header)
    // canonicalizes to the same fingerprint and replays the entry,
    // remapped into its own field table.
    let warm = synth(&tiny_spec_renamed(), hook);
    assert_eq!(warm.stats.cache_hits, 1, "alpha-variant must hit");
    assert_eq!(warm.program.entry_count(), cold.program.entry_count());
    assert_eq!(warm.program.stages_used(), cold.program.stages_used());
    let _ = std::fs::remove_dir_all(&dir);
}
