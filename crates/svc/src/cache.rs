//! The content-addressed on-disk result cache.
//!
//! A cache entry is keyed by a SHA-256 over everything that determines a
//! synthesis outcome:
//!
//! * the **canonical** specification fingerprint
//!   ([`ph_ir::canon::canonicalize`] + [`ph_ir::canon::spec_fingerprint_text`]),
//!   so alpha-variant specs (renamed/permuted states and fields, dead
//!   definitions) share an entry;
//! * the device model's numeric limits and architecture (the display
//!   *name* is excluded — `tofino` and a renamed copy are the same
//!   hardware);
//! * the full [`OptConfig`] and the result-determining [`SynthParams`]
//!   fields (`max_cegis_iters`, `max_loop_iters`, `spare_states`,
//!   `seed`).  `timeout` and tracing change how long a run takes, never
//!   what it produces, and are excluded;
//! * [`CACHE_FORMAT_VERSION`], so a format change invalidates every old
//!   entry at once.
//!
//! Entries are self-describing JSON files under the cache directory,
//! written with a temp-file + atomic-rename protocol so concurrent writers
//! and crashed processes never leave a torn entry behind.  Programs are
//! stored in *canonical* field coordinates and remapped through the
//! querying spec's index maps on a hit, which is what makes sharing
//! between alpha-variants sound.  Any load failure — truncation, bit
//! flips, stale versions, hand-edited files — degrades to a cache miss
//! with an `svc.cache.corrupt`/`svc.cache.stale` counter; it never panics
//! and never fails the synthesis run.
//!
//! The cache is bounded: after each store, entries are evicted
//! least-recently-used (by file mtime; hits re-touch their entry) until
//! the directory fits [`DiskCache::budget_bytes`].

use crate::codec;
use ph_bits::Sha256;
use ph_core::{OptConfig, SynthCache, SynthOutput, SynthParams};
use ph_hw::DeviceProfile;
use ph_ir::canon::{canonicalize, spec_fingerprint_text, Canon};
use ph_ir::{FieldId, KeyPart, ParserSpec};
use ph_obs::Json;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Bumped whenever the entry layout or key derivation changes; old
/// entries then read as stale and are recomputed.
pub const CACHE_FORMAT_VERSION: u32 = 4;

/// Default size budget: 256 MiB.
pub const DEFAULT_BUDGET_BYTES: u64 = 256 * 1024 * 1024;

/// The content-addressed disk cache (see the [module docs](self)).
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    budget_bytes: u64,
    tmp_counter: AtomicU64,
}

impl DiskCache {
    /// A cache rooted at `dir` with the default size budget.  The
    /// directory is created on first store.
    pub fn new(dir: impl Into<PathBuf>) -> DiskCache {
        DiskCache {
            dir: dir.into(),
            budget_bytes: DEFAULT_BUDGET_BYTES,
            tmp_counter: AtomicU64::new(0),
        }
    }

    /// Overrides the size budget in bytes.
    pub fn with_budget(mut self, budget_bytes: u64) -> DiskCache {
        self.budget_bytes = budget_bytes;
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content key for one synthesis context, as 64 hex digits.
    ///
    /// Canonicalizes internally; prefer [`DiskCache::key_of_canon`] when
    /// a [`Canon`] is already at hand.
    pub fn key(
        spec: &ParserSpec,
        device: &DeviceProfile,
        opts: OptConfig,
        params: &SynthParams,
    ) -> String {
        Self::key_of_canon(&canonicalize(spec).spec, device, opts, params)
    }

    /// [`DiskCache::key`] over an already canonicalized spec.
    pub fn key_of_canon(
        canon_spec: &ParserSpec,
        device: &DeviceProfile,
        opts: OptConfig,
        params: &SynthParams,
    ) -> String {
        let mut pre = String::new();
        let _ = writeln!(pre, "ph-cache-v{CACHE_FORMAT_VERSION}");
        pre.push_str(&spec_fingerprint_text(canon_spec));
        // Device: numeric model + architecture.  The display name is
        // cosmetic and excluded.
        let _ = writeln!(
            pre,
            "device arch={:?} key={} tcam={} la={} ext={} stages={}",
            device.arch,
            device.key_limit,
            device.tcam_limit,
            device.lookahead_limit,
            device.extraction_limit,
            device.stage_limit
        );
        let b = |v: bool| u8::from(v);
        let _ = writeln!(
            pre,
            "opts o1={} o2={} o3={} o4={} o5={} o6={} o7={}",
            b(opts.opt1_spec_keys),
            b(opts.opt2_bitwidth),
            b(opts.opt3_prealloc),
            b(opts.opt4_constants),
            b(opts.opt5_grouping),
            b(opts.opt6_fixed_varbit),
            b(opts.opt7_parallel),
        );
        let _ = writeln!(
            pre,
            "params cegis={} loop={} spare={:?} seed={}",
            params.max_cegis_iters, params.max_loop_iters, params.spare_states, params.seed,
        );
        Sha256::digest_hex(pre.as_bytes())
    }

    /// The on-disk path for a key.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    fn degrade(&self, path: &Path, counter: &'static str, why: &str) {
        ph_obs::current().count(counter, 1);
        eprintln!(
            "ph-svc: cache entry {} unusable ({why}); treating as a miss",
            path.display()
        );
        // Drop the bad entry so the recompute can rewrite it cleanly.
        let _ = std::fs::remove_file(path);
    }

    /// Decodes a raw entry into an output for the querying spec.
    fn decode_entry(
        &self,
        text: &str,
        key: &str,
        canon: &Canon,
        device: &DeviceProfile,
    ) -> Result<SynthOutput, String> {
        let doc = Json::parse(text).map_err(|e| format!("parse: {e}"))?;
        let version = doc
            .get("cache_version")
            .and_then(Json::as_i64)
            .ok_or("missing cache_version")?;
        if version != i64::from(CACHE_FORMAT_VERSION) {
            return Err(format!("version {version}"));
        }
        let stored_key = doc.get("key").and_then(Json::as_str).unwrap_or("");
        if stored_key != key {
            return Err("key mismatch".into());
        }
        let program_json = doc.get("program").ok_or("missing program")?;
        let mut program = codec::program_from_json(program_json).map_err(|e| e.to_string())?;
        // Stored field ids are canonical; remap into the querying spec's
        // field table.
        let unmap = |f: FieldId| -> Result<FieldId, String> {
            canon
                .field_from_canon(f)
                .ok_or_else(|| format!("canonical field {} unknown to this spec", f.0))
        };
        for state in &mut program.states {
            for kp in &mut state.key {
                if let KeyPart::Slice { field, .. } = kp {
                    *field = unmap(*field)?;
                }
            }
            for entry in &mut state.entries {
                for f in &mut entry.extracts {
                    *f = unmap(*f)?;
                }
            }
        }
        // The key excludes the device display name; restore the caller's.
        program.device = device.clone();
        let stats_json = doc.get("stats").ok_or("missing stats")?;
        let stats = codec::stats_from_json(stats_json).map_err(|e| e.to_string())?;
        Ok(SynthOutput { program, stats })
    }

    /// Re-marks an entry as recently used (LRU on mtime).
    fn touch(path: &Path) {
        if let Ok(f) = std::fs::File::options().write(true).open(path) {
            let _ = f.set_times(std::fs::FileTimes::new().set_modified(SystemTime::now()));
        }
    }

    /// Evicts least-recently-used entries until the directory fits the
    /// budget.  Best-effort: IO errors skip the entry.
    fn evict_to_budget(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        let mut total: u64 = 0;
        for e in entries.flatten() {
            let path = e.path();
            if path.extension().and_then(|x| x.to_str()) != Some("json") {
                continue;
            }
            let Ok(md) = e.metadata() else { continue };
            let mtime = md.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            total += md.len();
            files.push((path, md.len(), mtime));
        }
        if total <= self.budget_bytes {
            return;
        }
        files.sort_by_key(|(_, _, mtime)| *mtime);
        for (path, len, _) in files {
            if total <= self.budget_bytes {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                ph_obs::current().count("svc.cache.evict", 1);
            }
        }
    }

    /// Encodes an entry document (program in canonical coordinates).
    fn encode_entry(
        key: &str,
        canon: &Canon,
        device: &DeviceProfile,
        out: &SynthOutput,
    ) -> Option<Json> {
        let mut program = out.program.clone();
        for state in &mut program.states {
            for kp in &mut state.key {
                if let KeyPart::Slice { field, .. } = kp {
                    *field = canon.field_to_canon(*field)?;
                }
            }
            for entry in &mut state.entries {
                for f in &mut entry.extracts {
                    *f = canon.field_to_canon(*f)?;
                }
            }
        }
        let created = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Some(
            Json::obj()
                .with("cache_version", i64::from(CACHE_FORMAT_VERSION))
                .with("key", key)
                .with("created_unix", created as i64)
                .with(
                    "provenance",
                    Json::obj()
                        .with("tool", "ph-svc")
                        .with("crate_version", env!("CARGO_PKG_VERSION"))
                        .with("device_name", device.name.as_str()),
                )
                .with("program", codec::program_to_json(&program))
                .with("stats", out.stats.to_json()),
        )
    }

    fn store_entry(&self, key: &str, doc: &Json) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, doc.to_pretty())?;
        let dst = self.entry_path(key);
        match std::fs::rename(&tmp, &dst) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

impl SynthCache for DiskCache {
    fn lookup(
        &self,
        spec: &ParserSpec,
        device: &DeviceProfile,
        opts: OptConfig,
        params: &SynthParams,
    ) -> Option<SynthOutput> {
        let canon = canonicalize(spec);
        let key = Self::key_of_canon(&canon.spec, device, opts, params);
        let path = self.entry_path(&key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return None, // plain miss
        };
        match self.decode_entry(&text, &key, &canon, device) {
            Ok(out) => {
                Self::touch(&path);
                Some(out)
            }
            Err(why) => {
                let counter = if why.starts_with("version") {
                    "svc.cache.stale"
                } else {
                    "svc.cache.corrupt"
                };
                self.degrade(&path, counter, &why);
                None
            }
        }
    }

    fn store(
        &self,
        spec: &ParserSpec,
        device: &DeviceProfile,
        opts: OptConfig,
        params: &SynthParams,
        out: &SynthOutput,
    ) {
        let canon = canonicalize(spec);
        let key = Self::key_of_canon(&canon.spec, device, opts, params);
        let Some(doc) = Self::encode_entry(&key, &canon, device, out) else {
            // A program referencing fields outside the canonical image
            // cannot be shared soundly; skip rather than poison.
            ph_obs::current().count("svc.cache.unstorable", 1);
            return;
        };
        match self.store_entry(&key, &doc) {
            Ok(()) => {
                ph_obs::current().count("svc.cache.store", 1);
                self.evict_to_budget();
            }
            Err(e) => {
                // A broken cache must never fail a successful run.
                ph_obs::current().count("svc.cache.store_error", 1);
                eprintln!("ph-svc: cache store failed for {key}: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_core::{CacheHook, Synthesizer};
    use std::sync::atomic::AtomicU32;

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "ph-svc-cache-{tag}-{}-{}",
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

    fn synth(spec: &ParserSpec, cache: CacheHook) -> SynthOutput {
        let params = SynthParams {
            cache: Some(cache),
            ..SynthParams::default()
        };
        Synthesizer::new(DeviceProfile::tofino(), OptConfig::all())
            .with_params(params)
            .synthesize(spec)
            .unwrap()
    }

    #[test]
    fn store_then_hit_is_byte_identical() {
        let dir = tmp_dir("hit");
        let hook = CacheHook(std::sync::Arc::new(DiskCache::new(&dir)));
        let spec = tiny_spec();
        let cold = synth(&spec, hook.clone());
        assert_eq!(cold.stats.cache_hits, 0);
        assert_eq!(cold.stats.cache_misses, 1);
        let warm = synth(&spec, hook);
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.stats.cache_misses, 0);
        assert_eq!(warm.program, cold.program);
        assert_eq!(warm.program.to_string(), cold.program.to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_ignores_device_name_but_not_limits() {
        let spec = tiny_spec();
        let params = SynthParams::default();
        let opts = OptConfig::all();
        let tofino = DeviceProfile::tofino();
        let mut renamed = tofino.clone();
        renamed.name = "tofino-lab-7".into();
        assert_eq!(
            DiskCache::key(&spec, &tofino, opts, &params),
            DiskCache::key(&spec, &renamed, opts, &params)
        );
        let smaller = tofino.with_tcam_limit(17);
        assert_ne!(
            DiskCache::key(&spec, &tofino, opts, &params),
            DiskCache::key(&spec, &smaller, opts, &params)
        );
        let reseeded = SynthParams {
            seed: params.seed + 1,
            ..SynthParams::default()
        };
        assert_ne!(
            DiskCache::key(&spec, &tofino, opts, &params),
            DiskCache::key(&spec, &tofino, opts, &reseeded)
        );
        let mut fewer_opts = opts;
        fewer_opts.opt4_constants = false;
        assert_ne!(
            DiskCache::key(&spec, &tofino, opts, &params),
            DiskCache::key(&spec, &tofino, fewer_opts, &params)
        );
    }

    #[test]
    fn eviction_respects_the_budget() {
        let dir = tmp_dir("evict");
        std::fs::create_dir_all(&dir).unwrap();
        // Seed three fake entries with increasing mtimes, then force a
        // store through a tiny budget: oldest entries must go.
        let cache = DiskCache::new(&dir).with_budget(1);
        for i in 0..3 {
            std::fs::write(dir.join(format!("{i:064}.json")), vec![b'x'; 128]).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        cache.evict_to_budget();
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert!(
            left.len() <= 1,
            "expected eviction to near-empty the dir, found {}",
            left.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
