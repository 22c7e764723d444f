//! Runs every workload named in `BENCHMARK.json` for its minimum of three
//! rounds, untraced and traced, and checks the output against the metrics
//! it declares.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line.
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
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key `{key}`")),
            _ => panic!("not an object: {self:?}"),
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
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            _ => panic!("not an object: {self:?}"),
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
        assert_eq!(self.s.get(self.i), Some(&c), "expected `{}`", c as char);
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
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key `{k}`");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected `{}` in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected `{}` in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",}] \n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number `{n}`"))),
                }
            }
        }
    }
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(spec: &Json, section: &str) -> BTreeMap<String, String> {
    spec.get(section)
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

/// Runs the benchmark; returns its stdout and the parsed last line.
fn run(args: &[&str]) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_ipds-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output").to_string();
    (stdout, Json::parse(&last))
}

/// Checks a result line: correct, nothing failed, and exactly the declared
/// metrics, each with its declared unit.
fn check_result(result: &Json, metrics: &BTreeMap<String, String>) {
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert_eq!(result.get("failed").num(), 0.0, "error_rate must be 0");
    assert!(result.get("attempted").num() >= 1.0);
    let printed = result.get("metrics").obj();
    assert_eq!(
        printed.keys().collect::<Vec<_>>(),
        metrics.keys().collect::<Vec<_>>()
    );
    for (name, unit) in metrics {
        let m = printed[name].obj();
        assert_eq!(m["unit"].str(), unit, "{name}");
        assert!(m["value"].num().is_finite(), "{name}");
    }
}

fn digest_line(stdout: &str) -> String {
    stdout
        .lines()
        .find(|l| l.starts_with("digest "))
        .expect("a digest line")
        .to_string()
}

#[test]
fn every_workload_prints_its_metrics_and_repeats_its_digest() {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text);
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let trace_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-trace");

    for workload in spec.get("workloads").arr() {
        let name = workload.get("name").str();
        // `--seconds 0` still makes the three rounds every run makes.
        let plain = ["--workload", name, "--seed", "7", "--seconds", "0"];
        let (first, result) = run(&[&plain[..], &["--trace", "0"]].concat());
        check_result(&result, &end_to_end);
        assert!(first.contains("error_rate 0 "), "{first}");
        let (second, _) = run(&[&plain[..], &["--trace", "0"]].concat());
        assert_eq!(digest_line(&first), digest_line(&second), "{name}");

        let traced = [
            &plain[..],
            &["--trace", "1", "--trace-dir", trace_dir.to_str().unwrap()],
        ]
        .concat();
        let (_, result) = run(&traced);
        check_result(&result, &per_layer);
        let spans = std::fs::read_to_string(trace_dir.join(format!("{name}-7.jsonl")))
            .expect("trace written");
        let first_span = Json::parse(spans.lines().next().expect("some spans"));
        for key in ["id", "parent", "round", "name", "start_ns", "end_ns"] {
            first_span.get(key);
        }
    }
}
