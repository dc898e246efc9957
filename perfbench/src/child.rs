//! Passes in fresh processes.
//!
//! On the 2-vCPU reference host an operation's speed depends in part on
//! state that lasts as long as the process: of a series of 5-s processes
//! each running the same `LU` detector operation back to back, some ran
//! it at 53–60 ms throughout and others at 88–97 ms throughout. A run
//! that repeats its passes in one process measures one such state; a run
//! whose every pass is a fresh process samples one per pass.
//!
//! The child is this executable with the parent's arguments and
//! `--pass 1`. It runs one pass and prints it on standard output as
//! `key=value` lines, which the parent parses; its standard error passes
//! through.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Run one pass of `workload` in a fresh process and wait for it;
/// return its standard output.
pub fn run(workload: &str, seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("child pass: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
            "--pass",
            "1",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("child pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child pass of {workload} exited with {}",
            out.status
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child pass: {e}"))
}

/// The `key=value` fields of the first line that starts with `tag`.
pub fn fields<'a>(text: &'a str, tag: &str) -> Result<BTreeMap<&'a str, &'a str>, String> {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(tag)?.strip_prefix(' '))
        .ok_or_else(|| format!("child pass printed no {tag:?} line"))?;
    line.split(' ')
        .map(|kv| {
            kv.split_once('=')
                .ok_or_else(|| format!("child pass: bad field {kv:?}"))
        })
        .collect()
}

pub fn get<'a>(f: &BTreeMap<&str, &'a str>, key: &str) -> Result<&'a str, String> {
    f.get(key)
        .copied()
        .ok_or_else(|| format!("child pass: no field {key:?}"))
}

pub fn number<T: std::str::FromStr>(f: &BTreeMap<&str, &str>, key: &str) -> Result<T, String> {
    let v = get(f, key)?;
    v.parse()
        .map_err(|_| format!("child pass: {key}={v:?} is not a number"))
}

/// Optional numbers as one field: `1.5,-,2`, with `-` for none.
pub fn join(v: &[Option<f64>]) -> String {
    v.iter()
        .map(|x| x.map_or("-".to_string(), |x| x.to_string()))
        .collect::<Vec<_>>()
        .join(",")
}

pub fn split(s: &str) -> Result<Vec<Option<f64>>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|x| match x {
            "-" => Ok(None),
            _ => x
                .parse()
                .map(Some)
                .map_err(|_| format!("child pass: {x:?} is not a number")),
        })
        .collect()
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

pub fn unhex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("child pass: odd-length hex".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16).map_err(|_| "child pass: bad hex".to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip() {
        let v = [Some(1.25), None, Some(1e-9), Some(0.1 + 0.2)];
        let line = format!("noise\npass n=3 ops={} empty=\n", join(&v));
        let f = fields(&line, "pass").unwrap();
        assert_eq!(number::<u64>(&f, "n").unwrap(), 3);
        assert_eq!(split(get(&f, "ops").unwrap()).unwrap(), v);
        assert_eq!(split(get(&f, "empty").unwrap()).unwrap(), vec![]);
        assert!(get(&f, "missing").is_err());
        assert!(fields(&line, "schedule").is_err());
        assert!(fields("pass broken", "pass").is_err());
        let text = "Table 4 \u{2014} ok\n\0";
        assert_eq!(unhex(&hex(text.as_bytes())).unwrap(), text.as_bytes());
        assert!(unhex("abc").is_err());
    }
}
