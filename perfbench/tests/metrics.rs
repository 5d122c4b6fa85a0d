//! The benchmark's own test, at a reduced scale and on a seed the
//! benchmark's documentation does not use: every metric `BENCHMARK.json`
//! names is printed with its unit, the conservation checks pass, and the
//! 2-shard engine reproduces the sequential run's simulated results.

use std::collections::BTreeMap;
use std::process::Command;

const SEED: &str = "11";
const SCALE: &str = "0.02";

/// A parsed JSON value (just enough JSON for the benchmark's output).
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
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input in {text}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            _ => panic!("not an object looking up {key}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    m.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|e| panic!("bad number {text}: {e}")),
                )
            }
        }
    }
}

/// Runs the benchmark; returns its record line and its result line.
fn run(workload: &str, trace: &str) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", SEED, "--seconds", "0.01"])
        .args(["--trace", trace, "--scale", SCALE])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "expected a record and a result: {stdout}");
    let record = Json::parse(lines[lines.len() - 2]);
    let result = Json::parse(lines[lines.len() - 1]);
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}: {stdout}"
    );
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    (record, result)
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let Json::Arr(metrics) = Json::parse(&text).get(section).clone() else {
        panic!("{section} is not a list")
    };
    metrics
        .iter()
        .map(|m| (m.get("name").str().into(), m.get("unit").str().into()))
        .collect()
}

/// Asserts the result prints exactly the declared metrics, with units.
fn prints_declared(result: &Json, section: &str) {
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let want = declared(section);
    assert_eq!(metrics.len(), want.len(), "{section}: {metrics:?}");
    for (name, unit) in want {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} not printed"));
        assert_eq!(m.get("unit").str(), unit, "{name}");
        assert!(m.get("value").num().is_finite(), "{name}");
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for w in ["leafspine_stream", "leafspine_stream_2shard", "app_ycsb_b"] {
        prints_declared(&run(w, "0").1, "end_to_end");
        prints_declared(&run(w, "1").1, "per_layer");
    }
}

#[test]
fn two_shards_reproduce_the_sequential_run() {
    let (seq, seq_result) = run("leafspine_stream", "0");
    let (par, par_result) = run("leafspine_stream_2shard", "0");
    for key in [
        "sim_mean_ns",
        "sim_p50_ns",
        "sim_p99_ns",
        "sim_p999_ns",
        "sim_p9999_ns",
        "sim_makespan_ps",
        "events",
        "latency_samples",
    ] {
        assert_eq!(seq.get(key), par.get(key), "{key}");
    }
    for key in ["sim_mean_ns", "sim_p99_ns", "sim_completions_per_us"] {
        assert_eq!(
            seq_result.get("metrics").get(key),
            par_result.get("metrics").get(key),
            "{key}"
        );
    }
    let (_, seq_layers) = run("leafspine_stream", "1");
    let (_, par_layers) = run("leafspine_stream_2shard", "1");
    assert_eq!(
        seq_layers.get("metrics").get("topo.events"),
        par_layers.get("metrics").get("topo.events")
    );
}

#[test]
fn rejects_unknown_workloads() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
