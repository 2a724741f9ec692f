//! Core log-record types: levels, typed field values, and the [`Event`]
//! struct every sink consumes.

use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// Verbosity level, ordered from most to least severe.
///
/// The numeric representation matters: a level is *enabled* when its
/// value is `<=` the active filter, so `Error` (1) passes every filter
/// and `Trace` (5) only the most verbose one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Level {
    /// Something failed; the operation did not complete as intended.
    Error = 1,
    /// Something suspicious that deserves attention (slow requests,
    /// shed load, degraded answers).
    Warn = 2,
    /// High-level lifecycle records: access logs, round summaries.
    Info = 3,
    /// Per-stage detail: spans around sweeps, fits, cache probes.
    Debug = 4,
    /// Firehose detail for deep debugging.
    Trace = 5,
}

impl Level {
    /// All levels, most severe first.
    pub const ALL: [Level; 5] =
        [Level::Error, Level::Warn, Level::Info, Level::Debug, Level::Trace];

    /// Lower-case name used in `CHEMCOST_LOG` and the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parse a `CHEMCOST_LOG` value. `Ok(None)` means logging is
    /// explicitly off (`"off"`, `"none"`, `"0"`); `Err` is an
    /// unrecognized value the caller may want to report.
    pub fn parse(s: &str) -> Result<Option<Level>, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Ok(Some(Level::Error)),
            "warn" | "warning" => Ok(Some(Level::Warn)),
            "info" => Ok(Some(Level::Info)),
            "debug" => Ok(Some(Level::Debug)),
            "trace" => Ok(Some(Level::Trace)),
            "off" | "none" | "0" => Ok(None),
            other => Err(format!("unknown log level {other:?} (error|warn|info|debug|trace|off)")),
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Level> {
        match v {
            1 => Some(Level::Error),
            2 => Some(Level::Warn),
            3 => Some(Level::Info),
            4 => Some(Level::Debug),
            5 => Some(Level::Trace),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed field value. Kept small on purpose: everything the stack
/// wants to log is a string, an integer, a float, or a flag.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Text.
    Str(String),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer (counts, sizes, ids).
    U64(u64),
    /// Float (durations, scores).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
}

impl Value {
    /// Append this value as a JSON token (strings quoted + escaped,
    /// non-finite floats as `null` since JSON has no NaN/Inf).
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Str(s) => write_json_string(out, s),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I64(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u16> for Value {
    fn from(v: u16) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
/// Durations log as whole microseconds — the same unit the request
/// latency fields (`duration_us`) and deadline budgets already use.
impl From<std::time::Duration> for Value {
    fn from(v: std::time::Duration) -> Value {
        Value::U64(v.as_micros() as u64)
    }
}

/// One `key = value` pair attached to an event or span.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name (the identifier written in the macro call).
    pub key: &'static str,
    /// Field value.
    pub value: Value,
}

impl Field {
    /// Build a field from anything convertible to a [`Value`].
    pub fn new(key: &'static str, value: impl Into<Value>) -> Field {
        Field { key, value: value.into() }
    }
}

/// A fully-resolved log record, as delivered to every sink.
///
/// Plain events have `duration_micros: None`; span-close records carry
/// the measured duration and their own `span` id (with `parent` set to
/// the enclosing span, if any).
#[derive(Debug, Clone)]
pub struct Event {
    /// Wall-clock timestamp, microseconds since the Unix epoch.
    pub ts_micros: u64,
    /// Severity.
    pub level: Level,
    /// Module path of the call site (`module_path!()`).
    pub target: &'static str,
    /// Event name, dotted by convention (`"http.request"`,
    /// `"advise.sweep"`, `"active.round"`).
    pub name: &'static str,
    /// Trace id this record is correlated under, if a trace scope or
    /// request context was active.
    pub trace: Option<Arc<str>>,
    /// Innermost span id at the call site (for span closes, the span's
    /// own id).
    pub span: Option<u64>,
    /// Parent span id, for span-close records inside another span.
    pub parent: Option<u64>,
    /// Span duration in microseconds; `None` for plain events.
    pub duration_micros: Option<u64>,
    /// Structured key-value payload.
    pub fields: Vec<Field>,
}

impl Event {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|f| f.key == key).map(|f| &f.value)
    }

    /// Serialize as one JSONL line (no trailing newline).
    ///
    /// Schema (stable; `docs/OBSERVABILITY.md` is the reference):
    /// required keys `ts_us`, `level`, `name`, `target`, `fields`;
    /// optional keys `trace`, `span`, `parent`, `duration_us` appear
    /// only when set, in that order, between `target` and `fields`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"ts_us\":");
        out.push_str(&self.ts_micros.to_string());
        out.push_str(",\"level\":\"");
        out.push_str(self.level.as_str());
        out.push_str("\",\"name\":");
        write_json_string(&mut out, self.name);
        out.push_str(",\"target\":");
        write_json_string(&mut out, self.target);
        if let Some(trace) = &self.trace {
            out.push_str(",\"trace\":");
            write_json_string(&mut out, trace);
        }
        if let Some(span) = self.span {
            out.push_str(",\"span\":");
            out.push_str(&span.to_string());
        }
        if let Some(parent) = self.parent {
            out.push_str(",\"parent\":");
            out.push_str(&parent.to_string());
        }
        if let Some(d) = self.duration_micros {
            out.push_str(",\"duration_us\":");
            out.push_str(&d.to_string());
        }
        out.push_str(",\"fields\":{");
        for (i, f) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, f.key);
            out.push(':');
            f.value.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }

    /// Render as one human-readable line (no trailing newline):
    /// `ts=<secs> LEVEL name target=... trace=... key=value …`.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(96);
        let secs = self.ts_micros / 1_000_000;
        let frac = self.ts_micros % 1_000_000;
        out.push_str(&format!("ts={secs}.{frac:06} {:<5} {}", self.level, self.name));
        if let Some(trace) = &self.trace {
            out.push_str(&format!(" trace={trace}"));
        }
        if let Some(span) = self.span {
            out.push_str(&format!(" span={span}"));
        }
        if let Some(d) = self.duration_micros {
            out.push_str(&format!(" duration_us={d}"));
        }
        for f in &self.fields {
            out.push_str(&format!(" {}={}", f.key, f.value));
        }
        out.push_str(&format!(" target={}", self.target));
        out
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string. The one JSON
/// string escaper of the workspace: the serve encoder and the health
/// surfaces write strings through it too.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_convert_to_whole_microseconds() {
        let v: Value = std::time::Duration::from_millis(3).into();
        assert!(matches!(v, Value::U64(3000)));
    }

    #[test]
    fn level_ordering_and_parse() {
        assert!(Level::Error < Level::Trace);
        assert_eq!(Level::parse("DEBUG").unwrap(), Some(Level::Debug));
        assert_eq!(Level::parse("off").unwrap(), None);
        assert!(Level::parse("loud").is_err());
        for l in Level::ALL {
            assert_eq!(Level::parse(l.as_str()).unwrap(), Some(l));
            assert_eq!(Level::from_u8(l as u8), Some(l));
        }
    }

    #[test]
    fn json_string_escaping() {
        let escaped = |s: &str| {
            let mut out = String::new();
            write_json_string(&mut out, s);
            out
        };
        assert_eq!(escaped("a\"b\\c\nd\te\r"), r#""a\"b\\c\nd\te\r""#);
        assert_eq!(escaped("a\"b\\c\nd\u{1}"), r#""a\"b\\c\nd\u0001""#);
        assert_eq!(escaped("\u{1}\u{1f}"), r#""\u0001\u001f""#);
        assert_eq!(escaped("plain"), r#""plain""#);
        assert_eq!(escaped(""), r#""""#);
        // Non-ASCII passes through unescaped (JSON text is UTF-8).
        assert_eq!(escaped("é π 𝄞"), "\"é π 𝄞\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut out = String::new();
        Value::F64(f64::NAN).write_json(&mut out);
        assert_eq!(out, "null");
    }

    #[test]
    fn field_lookup() {
        let e = Event {
            ts_micros: 1,
            level: Level::Info,
            target: "t",
            name: "n",
            trace: None,
            span: None,
            parent: None,
            duration_micros: None,
            fields: vec![Field::new("x", 3usize)],
        };
        assert_eq!(e.field("x"), Some(&Value::U64(3)));
        assert_eq!(e.field("y"), None);
    }
}
