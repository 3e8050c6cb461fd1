//! The binaries' configuration: the one place that reads `PH_*`
//! environment variables, and the shared command-line flag parser.
//!
//! Every binary starts with [`Config::from_env`], which reads the
//! environment once and fails closed: an unknown `PH_*` name or a value
//! that does not parse exits with status 2 and a message naming the
//! variable.  The libraries never read the environment; the binaries pass
//! the values down — [`Config::install`] sets the process-wide tracer and
//! CNF dump directory, [`Config::cache`] builds the result-cache hook.
//! README's "Configuration" table documents each name.

use ph_core::CacheHook;
use ph_obs::{JsonlSink, Level, SummarySink, Tracer};
use ph_svc::DiskCache;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// Everything the binaries read from the environment; one field per
/// variable in [`Config::KNOWN`].
#[derive(Clone, Debug)]
pub struct Config {
    /// `PH_TRACE`: `summary` prints messages live and the span profile
    /// (`trace_prof`'s table) at exit; any other non-empty value is the
    /// path of a JSON-lines trace.
    /// Empty disables tracing.
    pub trace: String,
    /// `PH_TRACE_LEVEL`: message verbosity, `error` to `trace`.
    pub trace_level: Level,
    /// `PH_CACHE_DIR`: the synthesis-result cache directory.
    pub cache_dir: Option<PathBuf>,
    /// `PH_CACHE_BUDGET_BYTES`: the cache's size bound.
    pub cache_budget_bytes: u64,
    /// `PH_DUMP_CNF`: directory that receives every SMT check query as a
    /// numbered DIMACS file (simplification is then off; see
    /// [`ph_sat::set_cnf_dump_dir`]).
    pub dump_cnf: Option<PathBuf>,
    /// `PH_RESULTS_DIR`: where the structured results files go.
    pub results_dir: PathBuf,
    /// `PH_SVC_ADDR`: the daemon's address, for `phd` and `ph_client`.
    pub svc_addr: String,
    /// `PH_FILTER`: restricts registry cases to names containing it.
    pub filter: String,
    /// `PH_TIMEOUT_SECS`: the per-run synthesis budget; `None` keeps each
    /// binary's own default ([`Config::timeout`]).
    pub timeout_secs: Option<u64>,
    /// `PH_ORIG_TIMEOUT_SECS`: `table3`'s budget for the naive encoding.
    pub orig_timeout_secs: u64,
    /// `PH_FUZZ_SYNTH`: whether `fuzz_e2e` also fuzzes synthesized programs.
    pub fuzz_synth: bool,
    /// `PH_FUZZ_CORRUPT`: `fuzz_e2e`'s mutation-testing mode.
    pub fuzz_corrupt: bool,
    /// `PH_REPLAY_CONFLICT_BUDGET`: `cnf_replay`'s per-query conflict cap.
    pub replay_conflict_budget: u64,
    /// `PH_OBS_MAX_OVERHEAD_PCT`: `obs_overhead`'s gate.
    pub obs_max_overhead_pct: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            trace: String::new(),
            trace_level: Level::Info,
            cache_dir: None,
            cache_budget_bytes: ph_svc::cache::DEFAULT_BUDGET_BYTES,
            dump_cnf: None,
            results_dir: PathBuf::from("results"),
            svc_addr: "127.0.0.1:9077".into(),
            filter: String::new(),
            timeout_secs: None,
            orig_timeout_secs: 10,
            fuzz_synth: true,
            fuzz_corrupt: false,
            replay_conflict_budget: 200_000,
            obs_max_overhead_pct: 2.0,
        }
    }
}

impl Config {
    /// Every `PH_*` variable any binary reads, in README-table order.
    pub const KNOWN: [&'static str; 14] = [
        "PH_TRACE",
        "PH_TRACE_LEVEL",
        "PH_CACHE_DIR",
        "PH_CACHE_BUDGET_BYTES",
        "PH_DUMP_CNF",
        "PH_RESULTS_DIR",
        "PH_SVC_ADDR",
        "PH_FILTER",
        "PH_TIMEOUT_SECS",
        "PH_ORIG_TIMEOUT_SECS",
        "PH_FUZZ_SYNTH",
        "PH_FUZZ_CORRUPT",
        "PH_REPLAY_CONFLICT_BUDGET",
        "PH_OBS_MAX_OVERHEAD_PCT",
    ];

    /// Reads the configuration from the environment, failing closed: an
    /// unknown `PH_*` name or a value that does not parse exits with
    /// status 2 and a message naming the variable.  Unset or empty
    /// variables keep their defaults.
    pub fn from_env() -> Config {
        let vars: Vec<(String, String)> = std::env::vars_os()
            .filter_map(|(k, v)| {
                let k = k.into_string().ok()?;
                k.starts_with("PH_")
                    .then(|| (k, v.to_string_lossy().into_owned()))
            })
            .collect();
        Config::from_vars(&vars).unwrap_or_else(|msg| fail(&msg))
    }

    /// The pure part of [`Config::from_env`]: `vars` are the `PH_*`
    /// variables that are set.
    fn from_vars(vars: &[(String, String)]) -> Result<Config, String> {
        if let Some((name, _)) = vars
            .iter()
            .find(|(k, _)| !Self::KNOWN.contains(&k.as_str()))
        {
            return Err(format!(
                "{name} is not a configuration variable; known: {}",
                Self::KNOWN.join(", ")
            ));
        }
        let v = Vars(vars);
        let d = Config::default();
        Ok(Config {
            trace: v.get("PH_TRACE")?.unwrap_or(d.trace),
            trace_level: v.get("PH_TRACE_LEVEL")?.unwrap_or(d.trace_level),
            cache_dir: v.get("PH_CACHE_DIR")?,
            cache_budget_bytes: v
                .get("PH_CACHE_BUDGET_BYTES")?
                .unwrap_or(d.cache_budget_bytes),
            dump_cnf: v.get("PH_DUMP_CNF")?,
            results_dir: v.get("PH_RESULTS_DIR")?.unwrap_or(d.results_dir),
            svc_addr: v.get("PH_SVC_ADDR")?.unwrap_or(d.svc_addr),
            filter: v.get("PH_FILTER")?.unwrap_or(d.filter),
            timeout_secs: v.get("PH_TIMEOUT_SECS")?,
            orig_timeout_secs: v
                .get("PH_ORIG_TIMEOUT_SECS")?
                .unwrap_or(d.orig_timeout_secs),
            fuzz_synth: v.bool("PH_FUZZ_SYNTH")?.unwrap_or(d.fuzz_synth),
            fuzz_corrupt: v.bool("PH_FUZZ_CORRUPT")?.unwrap_or(d.fuzz_corrupt),
            replay_conflict_budget: v
                .get("PH_REPLAY_CONFLICT_BUDGET")?
                .unwrap_or(d.replay_conflict_budget),
            obs_max_overhead_pct: v
                .get("PH_OBS_MAX_OVERHEAD_PCT")?
                .unwrap_or(d.obs_max_overhead_pct),
        })
    }

    /// The synthesis budget: `PH_TIMEOUT_SECS`, else the calling binary's
    /// `default_secs`.
    pub fn timeout(&self, default_secs: u64) -> Duration {
        Duration::from_secs(self.timeout_secs.unwrap_or(default_secs))
    }

    /// The result-cache hook `PH_CACHE_DIR` asks for, if any.
    pub fn cache(&self) -> Option<CacheHook> {
        let dir = self.cache_dir.as_ref()?;
        let cache = DiskCache::new(dir).with_budget(self.cache_budget_bytes);
        Some(CacheHook(Arc::new(cache)))
    }

    /// Builds the tracer `PH_TRACE` / `PH_TRACE_LEVEL` ask for.  A trace
    /// file that cannot be created exits with status 2.
    pub fn tracer(&self) -> Tracer {
        let tracer = match self.trace.as_str() {
            "" => return Tracer::disabled(),
            "summary" => Tracer::new(Arc::new(SummarySink::stderr())),
            path => match JsonlSink::create(Path::new(path)) {
                Ok(sink) => Tracer::new(Arc::new(sink)),
                Err(e) => fail(&format!("PH_TRACE={path:?}: cannot create the trace: {e}")),
            },
        };
        tracer.with_verbosity(self.trace_level)
    }

    /// Installs the process-wide settings of a synthesizing binary — the
    /// CNF dump directory and the global tracer — and returns that tracer
    /// (for the binary's own spans and its final flush).  Call once,
    /// before any synthesis.
    pub fn install(&self) -> Tracer {
        if let Some(dir) = &self.dump_cnf {
            ph_sat::set_cnf_dump_dir(dir.clone());
        }
        let tracer = self.tracer();
        ph_obs::init_global(tracer.clone());
        tracer
    }
}

/// The set `PH_*` variables, by name.
struct Vars<'a>(&'a [(String, String)]);

impl Vars<'_> {
    fn raw(&self, name: &str) -> Option<&str> {
        debug_assert!(Config::KNOWN.contains(&name), "{name} missing from KNOWN");
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        parse_knob(name, self.raw(name))
    }

    fn bool(&self, name: &str) -> Result<Option<bool>, String> {
        parse_bool(name, self.raw(name))
    }
}

/// Prints `msg` and exits with status 2, the status of every bad knob or
/// flag value.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Parses one knob value: unset or empty yields `None`, and a value that
/// does not parse as `T` is an error naming the knob (so a typo such as
/// `PH_TIMEOUT_SECS=1.5` cannot silently run the default budget).
fn parse_knob<T: FromStr>(name: &str, raw: Option<&str>) -> Result<Option<T>, String> {
    match raw.map(str::trim) {
        None | Some("") => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| {
            format!(
                "{name}={v:?} does not parse as {}",
                std::any::type_name::<T>()
            )
        }),
    }
}

/// [`parse_knob`] for an on/off knob: exactly `0` or `1`.
fn parse_bool(name: &str, raw: Option<&str>) -> Result<Option<bool>, String> {
    match raw.map(str::trim) {
        None | Some("") => Ok(None),
        Some("0") => Ok(Some(false)),
        Some("1") => Ok(Some(true)),
        Some(v) => Err(format!("{name}={v:?} must be 0 or 1")),
    }
}

/// The value of `--flag V` or `--flag=V` in `args`, parsed as `T`; `None`
/// when the flag is absent.  A missing or unparsable value exits with
/// status 2 and a message naming the flag.
pub fn parse_flag<T: FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag).unwrap_or_else(|msg| fail(&msg))
}

/// The pure part of [`parse_flag`].
fn flag_value<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = if a == flag {
            it.next().ok_or_else(|| format!("{flag} needs a value"))?
        } else if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            v
        } else {
            continue;
        };
        return parse_knob(flag, Some(v));
    }
    Ok(None)
}

/// `--jobs N` (or `--jobs=N`) from the process arguments; defaults to 1
/// (fully sequential, the deterministic path).
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_flag(&args, "--jobs").unwrap_or(1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn knob_parsing_fails_closed() {
        assert_eq!(parse_knob::<u64>("K", None), Ok(None));
        assert_eq!(parse_knob::<u64>("K", Some("")), Ok(None));
        assert_eq!(parse_knob("K", Some(" 45 ")), Ok(Some(45u64)));
        assert_eq!(parse_knob("K", Some("2.5")), Ok(Some(2.5f64)));
        let err = parse_knob::<u64>("PH_TIMEOUT_SECS", Some("1.5")).unwrap_err();
        assert!(err.contains("PH_TIMEOUT_SECS"), "{err}");
        assert!(err.contains("1.5"), "{err}");
        assert!(parse_knob::<usize>("K", Some("-1")).is_err());
        assert!(parse_knob::<f64>("K", Some("ten")).is_err());
        assert!(parse_knob::<Level>("K", Some("loud")).is_err());

        assert_eq!(parse_bool("B", None), Ok(None));
        assert_eq!(parse_bool("B", Some("0")), Ok(Some(false)));
        assert_eq!(parse_bool("B", Some(" 1 ")), Ok(Some(true)));
        for bad in ["true", "yes", "2", "on"] {
            let err = parse_bool("PH_FUZZ_CORRUPT", Some(bad)).unwrap_err();
            assert!(err.contains("PH_FUZZ_CORRUPT"), "{err}");
        }

        let a = args(&["--workers", "3", "--queue-cap=8", "--addr", "h:1"]);
        assert_eq!(flag_value(&a, "--workers"), Ok(Some(3usize)));
        assert_eq!(flag_value(&a, "--queue-cap"), Ok(Some(8usize)));
        assert_eq!(flag_value(&a, "--addr"), Ok(Some("h:1".to_string())));
        assert_eq!(flag_value::<usize>(&a, "--jobs"), Ok(None));
        // `--queue` is not a prefix match for `--queue-cap`.
        assert_eq!(flag_value::<usize>(&a, "--queue"), Ok(None));
        for bad in [&["--jobs", "two"][..], &["--jobs=-1"], &["--jobs"]] {
            let err = flag_value::<usize>(&args(bad), "--jobs").unwrap_err();
            assert!(err.contains("--jobs"), "{err}");
        }
        let err = flag_value::<u64>(&args(&["--deadline-ms", "1s"]), "--deadline-ms").unwrap_err();
        assert!(err.contains("--deadline-ms") && err.contains("1s"), "{err}");
    }

    #[test]
    fn config_reads_known_names() {
        let vars = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        let c = Config::from_vars(&[]).unwrap();
        assert_eq!(c.timeout(60), Duration::from_secs(60));
        assert!(c.cache().is_none() && c.fuzz_synth && !c.fuzz_corrupt);
        let c = Config::from_vars(&vars(&[
            ("PH_TIMEOUT_SECS", "5"),
            ("PH_FILTER", "MPLS"),
            ("PH_FUZZ_CORRUPT", "1"),
            ("PH_TRACE_LEVEL", "debug"),
            ("PH_CACHE_DIR", " "),
        ]))
        .unwrap();
        assert_eq!(c.timeout(60), Duration::from_secs(5));
        assert_eq!((c.filter.as_str(), c.fuzz_corrupt), ("MPLS", true));
        assert_eq!(c.trace_level, Level::Debug);
        assert!(c.cache_dir.is_none(), "an empty cache dir means no cache");
        let err = Config::from_vars(&vars(&[("PH_FUZZ_CORRUPT", "true")])).unwrap_err();
        assert!(err.contains("PH_FUZZ_CORRUPT"), "{err}");
    }

    #[test]
    fn readme_table_lists_exactly_the_known_names() {
        let readme = include_str!("../../../README.md");
        let table = readme
            .split("\n## Configuration\n")
            .nth(1)
            .expect("README has a Configuration section");
        let names: Vec<&str> = table
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .filter_map(|l| l.split('`').nth(1))
            .collect();
        assert_eq!(names, Config::KNOWN);
    }
}
