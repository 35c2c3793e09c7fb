//! The host and build stamp printed with every result, and the check of
//! that stamp against the host the baseline was recorded on.

use std::fs;

/// Where and with what a result was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// The checkout's git commit, when it is a git checkout.
    pub commit: String,
}

/// Reads the stamp of the machine this process runs on.
#[must_use]
pub fn current() -> Host {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Host {
        parallelism: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        cpu,
        kernel,
        rustc: env!("PERFBENCH_RUSTC").to_string(),
        commit: git_commit(),
    }
}

/// The commit `HEAD` names, read from `.git` in the working directory;
/// `"none"` outside a git checkout.
fn git_commit() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ')
                    .filter(|(_, r)| *r == reference)
                    .map(|(sha, _)| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    /// One printable line.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "available_parallelism={} cpu=\"{}\" kernel={} rustc=\"{}\" commit={}",
            self.parallelism, self.cpu, self.kernel, self.rustc, self.commit
        )
    }

    /// The fields that make timings comparable, differing from `other`.
    #[must_use]
    pub fn mismatches(&self, other: &Host) -> Vec<String> {
        let mut out = Vec::new();
        if self.parallelism != other.parallelism {
            out.push(format!(
                "available_parallelism {} (baseline {})",
                self.parallelism, other.parallelism
            ));
        }
        for (what, a, b) in [
            ("cpu", &self.cpu, &other.cpu),
            ("kernel", &self.kernel, &other.kernel),
            ("rustc", &self.rustc, &other.rustc),
        ] {
            if a != b {
                out.push(format!("{what} \"{a}\" (baseline \"{b}\")"));
            }
        }
        out
    }
}

/// The host the committed baseline (`baseline.json`) was recorded on.
///
/// # Errors
///
/// A description of a malformed baseline file.
pub fn baseline() -> Result<Host, String> {
    let value = serde_json::from_str(include_str!("../baseline.json"))
        .map_err(|e| format!("baseline.json: {e}"))?;
    let host = field(&value, "host").ok_or("baseline.json: missing `host`")?;
    let text = |key: &str| match field(host, key) {
        Some(serde::Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("baseline.json: host.{key} must be a string")),
    };
    let parallelism = match field(host, "available_parallelism") {
        Some(serde::Value::UInt(p)) => *p as usize,
        Some(serde::Value::Int(p)) if *p > 0 => *p as usize,
        _ => return Err("baseline.json: host.available_parallelism must be a count".into()),
    };
    Ok(Host {
        parallelism,
        cpu: text("cpu")?,
        kernel: text("kernel")?,
        rustc: text("rustc")?,
        commit: text("commit")?,
    })
}

/// Looks up `key` in a JSON object.
#[must_use]
pub fn field<'a>(value: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
    match value {
        serde::Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_parses_and_self_matches() {
        let base = baseline().expect("committed baseline parses");
        assert!(base.parallelism >= 1);
        assert!(base.mismatches(&base).is_empty());
        let mut other = base.clone();
        other.parallelism += 1;
        other.cpu.push('!');
        assert_eq!(base.mismatches(&other).len(), 2);
    }
}
