//! Measurement helpers shared by every workload: clocks, order
//! statistics, `/proc/self` readers, the host canary, and a minimal JSON
//! writer/reader (the benchmark depends on nothing but the repository).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The `q`-quantile (linear interpolation between closest ranks) of
/// `values`; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Process-wide minor page faults so far (`/proc/self/stat` field 10).
/// Returns 0 where `/proc` is unavailable.
pub fn minflt() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0 };
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis start at field 3 (`state`).
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0 };
    rest.split_whitespace().nth(7).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return f64::NAN };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host canary, not gated: the median of 5 timings of a fixed
/// single-thread integer loop (ms), and of a first touch of 64 MiB of
/// fresh memory (ms per MiB; above the allocator's largest mmap
/// threshold, so every round maps new pages). When two sets of runs disagree, these tell
/// host drift apart from a program change.
pub fn host_canary() -> (f64, f64) {
    let mut spin = Vec::new();
    let mut touch = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
        for _ in 0..(1u32 << 24) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        spin.push(ms(t.elapsed()));

        const MIB: usize = 64;
        let mut buf = vec![0u8; MIB << 20];
        let t = Instant::now();
        for page in buf.chunks_mut(4096) {
            page[0] = 1;
        }
        black_box(&buf);
        touch.push(ms(t.elapsed()) / MIB as f64);
    }
    (median(&spin), median(&touch))
}

/// Whether `selection` holds exactly `k` distinct ids, all below `n`.
pub fn is_k_set(selection: &[usize], k: usize, n: usize) -> bool {
    let mut ids = selection.to_vec();
    ids.sort_unstable();
    ids.dedup();
    selection.len() == k && ids.len() == k && ids.last().is_none_or(|&last| last < n)
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// `null` for a non-finite value.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-encoded `(key, value)` pairs.
pub fn object<K: AsRef<str>>(pairs: &[(K, String)]) -> String {
    let body: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{}:{}", string(k.as_ref()), v)).collect();
    format!("{{{}}}", body.join(","))
}

/// The raw text of the value of `"key":` in a flat JSON object (nested
/// arrays and objects are returned whole). Good enough for the server's
/// own response bodies; not a general parser.
pub fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat)? + pat.len();
    let rest = &body[start..];
    let mut depth = 0i32;
    let mut in_str = false;
    for (i, c) in rest.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => {
                if depth == 0 {
                    return Some(rest[..i].trim());
                }
                depth -= 1;
            }
            ',' if !in_str && depth == 0 => return Some(rest[..i].trim()),
            _ => {}
        }
    }
    Some(rest.trim())
}

/// A numeric field of a flat JSON object.
pub fn field_f64(body: &str, key: &str) -> Option<f64> {
    field(body, key)?.parse().ok()
}

/// An array-of-integers field of a flat JSON object.
pub fn field_usizes(body: &str, key: &str) -> Option<Vec<usize>> {
    let raw = field(body, key)?.strip_prefix('[')?.strip_suffix(']')?;
    raw.split(',').filter(|s| !s.trim().is_empty()).map(|s| s.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fields_of_a_flat_object_are_extracted() {
        let body = r#"{"algo":"add-greedy","k":3,"selection":[4,1,9],"arr":0.25,"cached":true}"#;
        assert_eq!(field(body, "algo"), Some("\"add-greedy\""));
        assert_eq!(field_f64(body, "k"), Some(3.0));
        assert_eq!(field_usizes(body, "selection"), Some(vec![4, 1, 9]));
        assert_eq!(field_f64(body, "arr"), Some(0.25));
        assert_eq!(field(body, "cached"), Some("true"));
        assert_eq!(field(body, "missing"), None);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let before = minflt();
        let mut buf = vec![0u8; 8 << 20];
        for page in buf.chunks_mut(4096) {
            page[0] = 1;
        }
        black_box(&buf);
        assert!(minflt() > before);
    }

    #[test]
    fn k_sets_are_distinct_and_in_range() {
        assert!(is_k_set(&[3, 1, 2], 3, 4));
        assert!(!is_k_set(&[3, 1, 1], 3, 4));
        assert!(!is_k_set(&[3, 1], 3, 4));
        assert!(!is_k_set(&[3, 1, 4], 3, 4));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(object(&[("x", num(1.5))]), "{\"x\":1.5}");
    }
}
