//! Short smoke run of every workload, end-to-end and traced: the JSON
//! result line must carry exactly the metrics BENCHMARK.json names, with
//! their units, and the run must pass its own correctness gate (a failed
//! gate exits non-zero without a result line).

use std::path::{Path, PathBuf};
use std::process::Command;

/// A minimal JSON reader, enough for BENCHMARK.json and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut chars: Vec<char> = text.chars().collect();
        chars.retain(|c| !c.is_control() || *c == '\n');
        let mut pos = 0;
        let value = Self::value(&chars, &mut pos);
        Self::ws(&chars, &mut pos);
        assert_eq!(pos, chars.len(), "trailing bytes after JSON value");
        value
    }

    fn ws(c: &[char], pos: &mut usize) {
        while *pos < c.len() && c[*pos].is_whitespace() {
            *pos += 1;
        }
    }

    fn value(c: &[char], pos: &mut usize) -> Json {
        Self::ws(c, pos);
        match c[*pos] {
            '{' => {
                *pos += 1;
                let mut fields = Vec::new();
                loop {
                    Self::ws(c, pos);
                    if c[*pos] == '}' {
                        *pos += 1;
                        return Json::Obj(fields);
                    }
                    let Json::Str(key) = Self::value(c, pos) else {
                        panic!("object key must be a string")
                    };
                    Self::ws(c, pos);
                    assert_eq!(c[*pos], ':');
                    *pos += 1;
                    fields.push((key, Self::value(c, pos)));
                    Self::ws(c, pos);
                    if c[*pos] == ',' {
                        *pos += 1;
                    }
                }
            }
            '[' => {
                *pos += 1;
                let mut items = Vec::new();
                loop {
                    Self::ws(c, pos);
                    if c[*pos] == ']' {
                        *pos += 1;
                        return Json::Arr(items);
                    }
                    items.push(Self::value(c, pos));
                    Self::ws(c, pos);
                    if c[*pos] == ',' {
                        *pos += 1;
                    }
                }
            }
            '"' => {
                *pos += 1;
                let mut s = String::new();
                while c[*pos] != '"' {
                    if c[*pos] == '\\' {
                        *pos += 1;
                    }
                    s.push(c[*pos]);
                    *pos += 1;
                }
                *pos += 1;
                Json::Str(s)
            }
            't' => {
                *pos += 4;
                Json::Bool(true)
            }
            'f' => {
                *pos += 5;
                Json::Bool(false)
            }
            'n' => {
                *pos += 4;
                Json::Null
            }
            _ => {
                let start = *pos;
                while *pos < c.len() && "+-.eE0123456789".contains(c[*pos]) {
                    *pos += 1;
                }
                let text: String = c[start..*pos].iter().collect();
                Json::Num(text.parse().expect("number"))
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one BENCHMARK.json list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let Json::Arr(items) = Json::parse(&text).get(list).clone() else {
        panic!("{list} must be a list")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// One benchmark process at a time: each starts a daemon and uses both
/// cores.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn run(workload: &str, trace: bool) -> Json {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last)
}

fn check(workload: &str, trace: bool) {
    let result = run(workload, trace);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    let Json::Num(attempted) = result.get("attempted") else {
        panic!("attempted must be a number")
    };
    assert!(*attempted >= 1.0);
    assert_eq!(
        result.get("failed"),
        &Json::Num(0.0),
        "no operation may fail"
    );
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics must be an object")
    };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| (name.clone(), m.get("unit").str().to_string()))
        .collect();
    assert_eq!(got, want, "{workload}: metric names and units");
    for (name, m) in metrics {
        let Json::Num(value) = m.get("value") else {
            panic!("{workload}: {name} has no numeric value")
        };
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    if !trace {
        for (name, m) in metrics {
            assert_ne!(m.get("value"), &Json::Num(0.0), "{workload}: {name} is 0");
        }
    }
}

#[test]
fn ingest_end_to_end_and_traced() {
    check("ingest", false);
    check("ingest", true);
}

#[test]
fn query_end_to_end_and_traced() {
    check("query", false);
    check("query", true);
}

#[test]
fn mixed_end_to_end_and_traced() {
    check("mixed", false);
    check("mixed", true);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            "nonesuch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
