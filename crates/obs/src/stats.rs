//! Declare-once run statistics: the [`stats!`](crate::stats) macro.
//!
//! A statistics struct is declared as a table of rows, each a doc comment
//! plus `field: Type = "json_key"`.  From the table the macro generates the
//! struct (fields `pub`, outer attributes passed through), `KEYS` (the JSON
//! keys in order), `to_json`, a strict `from_json` (every key present and
//! well typed; unknown keys ignored), a row-wise saturating
//! `delta_since(&self, &earlier)`, and `emit(&tracer, prefix)`, which
//! streams every row to a [`Tracer`] as the counter `prefix.json_key`.
//! Adding a counter is therefore one row.
//!
//! Row types implement [`StatValue`]: `u64` and `usize`, [`Duration`]
//! (float seconds under an `_s` key), [`Histogram`] (its summary, which
//! decodes empty) and every declared table, which nests as an object.
//!
//! ```
//! ph_obs::stats! {
//!     /// Work done by a toy pass.
//!     #[derive(Clone, Copy, Debug, Default, PartialEq)]
//!     pub struct PassStats {
//!         /// Time spent.
//!         time: std::time::Duration = "time_s",
//!     }
//! }
//! let s = PassStats { time: std::time::Duration::from_millis(250) };
//! assert_eq!(s.to_json().to_string(), r#"{"time_s":0.25}"#);
//! assert_eq!(PassStats::from_json(&s.to_json()), Ok(s));
//! assert!(PassStats::from_json(&ph_obs::Json::obj()).is_err());
//! ```

use crate::{Histogram, Json, Tracer};
use std::time::Duration;

/// A row type of a [`stats!`](crate::stats) table.
pub trait StatValue: Sized {
    /// The row's JSON value.
    fn to_json(&self) -> Json;
    /// Decodes a row value; the error says what is wrong with it.
    fn from_json(j: &Json) -> Result<Self, String>;
    /// The growth since an earlier snapshot, saturating at zero.
    fn delta_since(&self, earlier: &Self) -> Self;
    /// Streams the row to `tracer` as the counter `name`.
    fn emit(&self, tracer: &Tracer, name: &str);
}

/// Decodes row `key` of the object `j` (used by the generated decoders).
#[doc(hidden)]
pub fn row<T: StatValue>(j: &Json, key: &str) -> Result<T, String> {
    match j.get(key) {
        Some(v) => T::from_json(v).map_err(|e| format!("{key}: {e}")),
        None => Err(format!("missing key {key:?}")),
    }
}

/// Whether no two of `keys` are equal (the generated tables' compile-time
/// check).
#[doc(hidden)]
pub const fn keys_distinct(keys: &[&str]) -> bool {
    let mut i = 0;
    while i < keys.len() {
        let mut j = i + 1;
        while j < keys.len() {
            let (a, b) = (keys[i].as_bytes(), keys[j].as_bytes());
            if a.len() == b.len() {
                let mut k = 0;
                while k < a.len() && a[k] == b[k] {
                    k += 1;
                }
                if k == a.len() {
                    return false;
                }
            }
            j += 1;
        }
        i += 1;
    }
    true
}

macro_rules! integer_rows {
    ($($t:ty),*) => {$(
        impl StatValue for $t {
            fn to_json(&self) -> Json {
                Json::from(*self)
            }
            fn from_json(j: &Json) -> Result<Self, String> {
                let v = j.as_i64().and_then(|v| <$t>::try_from(v).ok());
                v.ok_or_else(|| "not a non-negative integer".into())
            }
            fn delta_since(&self, earlier: &Self) -> Self {
                self.saturating_sub(*earlier)
            }
            fn emit(&self, tracer: &Tracer, name: &str) {
                tracer.count(name, *self as u64);
            }
        }
    )*};
}
integer_rows!(u64, usize);

/// Float seconds in JSON; the trace counter is integer nanoseconds, so it
/// swaps the key's `_s` suffix for `_ns`.
impl StatValue for Duration {
    fn to_json(&self) -> Json {
        Json::from(self.as_secs_f64())
    }
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_f64()
            .and_then(|s| Duration::try_from_secs_f64(s).ok())
            .ok_or_else(|| "not a non-negative number of seconds".into())
    }
    fn delta_since(&self, earlier: &Self) -> Self {
        self.saturating_sub(*earlier)
    }
    fn emit(&self, tracer: &Tracer, name: &str) {
        let base = name.strip_suffix("_s").unwrap_or(name);
        tracer.count(&format!("{base}_ns"), self.as_nanos() as u64);
    }
}

/// A [`Histogram::summary_json`] object.  Buckets do not survive it, so
/// decoding checks the summary's keys and yields an empty histogram; `emit`
/// does nothing because samples reach the trace through [`Tracer::record`].
impl StatValue for Histogram {
    fn to_json(&self) -> Json {
        self.summary_json()
    }
    fn from_json(j: &Json) -> Result<Self, String> {
        let shape = Histogram::new().summary_json();
        let mut keys = shape.as_obj().into_iter().flatten().map(|(k, _)| k);
        match keys.find(|k| j.get(k).and_then(Json::as_f64).is_none()) {
            Some(k) => Err(format!("summary key {k:?} missing or not a number")),
            None => Ok(Histogram::new()),
        }
    }
    fn delta_since(&self, _earlier: &Self) -> Self {
        Histogram::new()
    }
    fn emit(&self, _tracer: &Tracer, _name: &str) {}
}

/// Declares a statistics struct as a table of rows; see the
/// [module docs](crate::stats) for what it generates.
#[macro_export]
macro_rules! stats {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$row_meta:meta])*
                $field:ident : $ty:ty = $key:literal
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$row_meta])* pub $field: $ty, )*
        }

        impl $name {
            /// The JSON keys, in encoding order.
            pub const KEYS: &'static [&'static str] = &[$($key),*];

            /// The statistics as a JSON object, one key per row.  The keys
            /// are distinct (checked at compile time), so rows are pushed
            /// without `Json::set`'s duplicate scan.
            #[allow(clippy::wrong_self_convention)] // `&self` for Copy and non-Copy tables alike
            pub fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $( ($key.to_string(), $crate::StatValue::to_json(&self.$field)), )*
                ])
            }

            /// Decodes [`Self::to_json`] output; every key must be present
            /// and well typed.
            pub fn from_json(j: &$crate::Json) -> ::std::result::Result<Self, String> {
                Ok($name { $( $field: $crate::stats::row(j, $key)?, )* })
            }

            /// Row-wise growth since an earlier snapshot (saturating, so a
            /// level that shrank reads zero).
            pub fn delta_since(&self, earlier: &Self) -> Self {
                $name {
                    $( $field: $crate::StatValue::delta_since(&self.$field, &earlier.$field), )*
                }
            }

            /// Streams every row to `tracer` as the counter
            /// `prefix.json_key` (zero rows emit nothing).
            pub fn emit(&self, tracer: &$crate::Tracer, prefix: &str) {
                if !tracer.enabled() {
                    return;
                }
                let mut name = String::new();
                $(
                    name.clear();
                    name.push_str(prefix);
                    name.push('.');
                    name.push_str($key);
                    $crate::StatValue::emit(&self.$field, tracer, &name);
                )*
            }
        }

        const _: () = assert!(
            $crate::stats::keys_distinct($name::KEYS),
            concat!("duplicate JSON key in stats table ", stringify!($name))
        );

        impl $crate::StatValue for $name {
            fn to_json(&self) -> $crate::Json {
                $name::to_json(self)
            }
            fn from_json(j: &$crate::Json) -> ::std::result::Result<Self, String> {
                $name::from_json(j)
            }
            fn delta_since(&self, earlier: &Self) -> Self {
                $name::delta_since(self, earlier)
            }
            fn emit(&self, tracer: &$crate::Tracer, name: &str) {
                $name::emit(self, tracer, name)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{MemorySink, OwnedEvent, Tracer};
    use std::sync::Arc;
    use std::time::Duration;

    crate::stats! {
        #[derive(Clone, Copy, Debug, Default, PartialEq)]
        pub struct Inner {
            hits: u64 = "hits",
            level: u64 = "level",
        }
    }

    crate::stats! {
        #[derive(Clone, Debug, Default)]
        pub struct Outer {
            items: usize = "items",
            time: Duration = "time_s",
            inner: Inner = "inner",
            lat: crate::Histogram = "lat_ns",
        }
    }

    fn sample() -> Outer {
        let mut lat = crate::Histogram::new();
        lat.record(7);
        Outer {
            items: 4,
            time: Duration::from_millis(1500),
            inner: Inner { hits: 9, level: 2 },
            lat,
        }
    }

    #[test]
    fn keys_distinct_finds_duplicates() {
        assert!(super::keys_distinct(&[]));
        assert!(super::keys_distinct(&["a", "ab", "b"]));
        assert!(!super::keys_distinct(&["a", "ab", "a"]));
        assert!(!super::keys_distinct(&["x", "y", "y"]));
    }

    #[test]
    fn round_trip_is_strict() {
        assert_eq!(Outer::KEYS, ["items", "time_s", "inner", "lat_ns"]);
        assert_eq!(Inner::KEYS, ["hits", "level"]);
        let j = sample().to_json();
        let back = Outer::from_json(&j).unwrap();
        assert_eq!(
            (back.items, back.time, back.inner),
            (4, Duration::from_millis(1500), sample().inner)
        );
        assert_eq!(back.lat.count(), 0, "histograms decode empty");

        let text = j.to_string();
        for bad in [
            text.replace("\"hits\"", "\"hitz\""),
            text.replace("\"items\":4", "\"items\":-4"),
            text.replace("\"time_s\":1.5", "\"time_s\":\"1.5\""),
            text.replace("\"p99\"", "\"p98\""),
        ] {
            assert!(
                Outer::from_json(&crate::Json::parse(&bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
        let err =
            Outer::from_json(&crate::Json::parse(&text.replace("\"level\"", "\"lvl\"")).unwrap());
        assert_eq!(err.unwrap_err(), "inner: missing key \"level\"");
    }

    #[test]
    fn deltas_saturate_and_emit_names_every_row() {
        let mut later = sample();
        later.items = 10;
        later.inner = Inner { hits: 12, level: 1 };
        let d = later.delta_since(&sample());
        assert_eq!(
            (d.items, d.time, d.inner),
            (6, Duration::ZERO, Inner { hits: 3, level: 0 })
        );

        let sink = Arc::new(MemorySink::new());
        sample().emit(&Tracer::new(sink.clone()), "pass");
        let counts: Vec<(String, u64)> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                OwnedEvent::Count { name, delta } => Some((name, delta)),
                _ => None,
            })
            .collect();
        let want = [
            ("pass.items", 4),
            ("pass.time_ns", 1_500_000_000),
            ("pass.inner.hits", 9),
            ("pass.inner.level", 2),
        ];
        assert_eq!(counts, want.map(|(n, v)| (n.to_string(), v)));
    }
}
