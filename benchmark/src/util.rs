//! Small self-contained helpers: a seeded generator, order statistics,
//! `/proc/self/io` counters and a JSON value (the build is offline, so no
//! `rand` / `serde`).

use std::fmt::Write as _;

/// SplitMix64: the harness's own generator, so query parameters depend on
/// `--seed` alone and not on the engine's `rand` shim.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant at these
    /// ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Linear-interpolated percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// Work completed per second in each of the equal windows `[0, seconds)` is
/// cut into — about one second each. `events` are `(completion time in s,
/// amount of work)`; work completed after `seconds` is left out.
///
/// The sandbox's CPU slows by 10–30 % in bursts of around a second, so a
/// total ÷ elapsed rate moves with how many bursts a run caught; the median
/// over windows does not, as long as bursts cover less than half of them.
pub fn window_rates(events: impl Iterator<Item = (f64, f64)>, seconds: f64) -> Vec<f64> {
    let windows = (seconds.round() as usize).max(1);
    let width = seconds / windows as f64;
    let mut work = vec![0.0; windows];
    for (at, amount) in events {
        if at >= 0.0 && at < seconds {
            work[((at / width) as usize).min(windows - 1)] += amount;
        }
    }
    work.into_iter().map(|w| w / width).collect()
}

/// The process's cumulative I/O counters (`/proc/self/io`): bytes and
/// system calls through `read`/`write`-family calls, page-cache hits
/// included. All zero where the file is unavailable.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcIo {
    pub rchar: u64,
    pub wchar: u64,
    pub syscr: u64,
    pub syscw: u64,
}

impl ProcIo {
    pub fn now() -> ProcIo {
        let mut io = ProcIo::default();
        let Ok(text) = std::fs::read_to_string("/proc/self/io") else {
            return io;
        };
        for line in text.lines() {
            let Some((key, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim().parse().unwrap_or(0);
            match key {
                "rchar" => io.rchar = value,
                "wchar" => io.wchar = value,
                "syscr" => io.syscr = value,
                "syscw" => io.syscw = value,
                _ => {}
            }
        }
        io
    }

    pub fn since(&self, earlier: &ProcIo) -> ProcIo {
        ProcIo {
            rchar: self.rchar - earlier.rchar,
            wchar: self.wchar - earlier.wchar,
            syscr: self.syscr - earlier.syscr,
            syscw: self.syscw - earlier.syscw,
        }
    }
}

/// A JSON value, written without a serializer dependency.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// One line, no spaces after separators.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // `{}` prints the shortest digits that read back to the same
            // f64, i.e. the value as measured. JSON has no NaN/inf.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
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
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 87.5), 4.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn window_rates_split_the_run() {
        let events = [(0.1, 1.0), (0.9, 1.0), (1.5, 4.0), (2.0, 9.0)];
        assert_eq!(window_rates(events.into_iter(), 2.0), vec![2.0, 4.0]);
    }

    #[test]
    fn json_renders_and_escapes() {
        let j = Json::obj([
            ("a", Json::Int(1)),
            ("b", Json::Arr(vec![Json::Num(1.5), Json::Bool(true)])),
            ("c", Json::str("x\"y\n")),
        ]);
        assert_eq!(j.render(), r#"{"a":1,"b":[1.5,true],"c":"x\"y\n"}"#);
    }

    #[test]
    fn rng_is_deterministic() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(a.below(10) < 10);
    }
}
