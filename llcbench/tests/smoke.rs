//! Smoke test: every workload at `--smoke` sizes, through the real
//! binary. Checks that every metric `BENCHMARK.json` declares is printed
//! with its unit, that simulated results repeat bit for bit and change
//! with the seed, and that the traced run's trace is well formed.
//!
//! Run with `cargo test --manifest-path llcbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "kvs_closed_get",
    "kvs_open_set",
    "nfv_chain",
    "tenants_storm",
];

/// A JSON value: just enough of JSON for the benchmark's own files.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser(text.as_bytes(), 0);
        let v = p.value();
        p.ws();
        assert_eq!(p.1, text.len(), "trailing text after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            _ => panic!("not a number: {self:?}"),
        }
    }
}

struct Parser<'a>(&'a [u8], usize);

impl Parser<'_> {
    fn ws(&mut self) {
        while self.1 < self.0.len() && self.0[self.1].is_ascii_whitespace() {
            self.1 += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.0.get(self.1),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.1
        );
        self.1 += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.1;
        while self.0[self.1] != b'"' {
            assert_ne!(self.0[self.1], b'\\', "escapes are not used in these files");
            self.1 += 1;
        }
        self.1 += 1;
        String::from_utf8(self.0[start..self.1 - 1].to_vec()).expect("UTF-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.0[self.1] {
            b'{' => {
                self.1 += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.0[self.1] == b'}' {
                    self.1 += 1;
                    return Json::Obj(m);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    m.insert(k, self.value());
                    self.ws();
                    self.1 += 1;
                    if self.0[self.1 - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.1 += 1;
                let mut v = Vec::new();
                self.ws();
                if self.0[self.1] == b']' {
                    self.1 += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.1 += 1;
                    if self.0[self.1 - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.1;
                while self.1 < self.0.len() && !b",]} \n".contains(&self.0[self.1]) {
                    self.1 += 1;
                }
                match &self.0[start..self.1] {
                    b"true" => Json::Bool(true),
                    b"false" => Json::Bool(false),
                    b"null" => Json::Null,
                    t => Json::Num(std::str::from_utf8(t).unwrap().parse().expect("a number")),
                }
            }
        }
    }
}

struct Run {
    stdout: String,
    result: Json,
}

impl Run {
    /// The `sim_digest` line's value.
    fn digest(&self) -> &str {
        self.stdout
            .lines()
            .find_map(|l| {
                l.split_whitespace()
                    .skip_while(|w| *w != "sim_digest")
                    .nth(1)
            })
            .expect("a sim_digest line")
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_llcbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .env("CARGO_TARGET_DIR", out_dir())
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed}: exit {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let result = Json::parse(stdout.lines().last().expect("a result line"));
    assert_eq!(result.get("correct"), &Json::Bool(true), "{stdout}");
    assert_eq!(result.get("failed").num(), 0.0);
    assert!(result.get("attempted").num() >= 1.0);
    Run { stdout, result }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text)
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn assert_metrics(run: &Run, section: &str, workload: &str) {
    let Json::Obj(metrics) = run.result.get("metrics") else {
        panic!("metrics is not an object");
    };
    let want = declared(section);
    assert_eq!(
        metrics.len(),
        want.len(),
        "{workload}: metric count vs {section}"
    );
    for (name, unit) in want {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(m.get("unit").str(), unit, "{workload}: {name}'s unit");
        assert!(m.get("value").num().is_finite(), "{workload}: {name}");
        assert!(
            run.stdout
                .lines()
                .any(|l| l.starts_with(&format!("{workload} {name} "))),
            "{workload}: {name} has no printed line"
        );
    }
}

/// Each span lies inside its parent; rows of the attribution table are
/// checked inside the benchmark (a mismatch makes `correct` false).
fn assert_trace_well_formed(workload: &str, seed: u64) {
    let path = out_dir().join(format!("llcbench/trace-{workload}-{seed}.jsonl"));
    let text = std::fs::read_to_string(&path).expect("a trace file");
    let mut spans: BTreeMap<u64, (Option<u64>, f64, f64)> = BTreeMap::new();
    let mut runs = std::collections::BTreeSet::new();
    for line in text.lines() {
        let v = Json::parse(line);
        runs.insert(v.get("run").str().to_string());
        if let Json::Obj(m) = &v {
            if m.contains_key("seam") {
                continue;
            }
        }
        let parent = match v.get("parent") {
            Json::Null => None,
            p => Some(p.num() as u64),
        };
        let (start, end) = (v.get("start_ns").num(), v.get("end_ns").num());
        assert!(start <= end, "{workload}: span ends before it starts");
        spans.insert(v.get("id").num() as u64, (parent, start, end));
    }
    assert_eq!(runs.len(), 1, "{workload}: spans of one run share an id");
    assert!(
        spans.values().any(|s| s.0.is_some()),
        "{workload}: no nesting"
    );
    for (id, (parent, start, end)) in &spans {
        if let Some(p) = parent {
            let (_, ps, pe) = spans[p];
            assert!(
                ps <= *start && end <= &pe,
                "{workload}: span {id} leaves parent {p}"
            );
        }
    }
}

#[test]
fn every_workload_prints_its_metrics_repeats_and_follows_the_seed() {
    for workload in WORKLOADS {
        let traced = run(workload, 1, true);
        assert_metrics(&traced, "per_layer", workload);
        assert_trace_well_formed(workload, 1);
        let plain = run(workload, 1, false);
        assert_metrics(&plain, "end_to_end", workload);
        assert_eq!(
            traced.digest(),
            plain.digest(),
            "{workload}: seed 1 repeats"
        );
        let other = run(workload, 2, false);
        assert_ne!(
            other.digest(),
            plain.digest(),
            "{workload}: the seed reaches the inputs"
        );
    }
}

#[test]
fn bad_arguments_are_rejected() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "kvs_open_set", "--trace", "2"],
        &["--workload", "kvs_open_set", "--seconds", "0"],
        &["--seed", "1"],
        &["--workload", "kvs_open_set", "--bogus", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_llcbench"))
            .args(args)
            .output()
            .expect("the benchmark starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no result on bad input");
    }
}
