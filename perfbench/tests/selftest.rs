//! The benchmark's self-test: on every workload named in `BENCHMARK.json`
//! each metric it names is emitted with its unit, the modeled outputs
//! match their pins, and a perturbed digest fails the run.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a few minutes: each workload runs its minimum number of passes).

use std::collections::BTreeMap;
use std::process::{Command, Output};

/// A JSON value, as much of it as these files use.
#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(s: &str) -> Json {
        let mut p = Parser {
            s: s.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes in {s}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
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
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected `{}` at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                while self.peek() != b'}' {
                    let k = self.string();
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut v = Vec::new();
                while self.peek() != b']' {
                    v.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(v)
            }
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'u' => {
                            let hex =
                                std::str::from_utf8(&self.s[self.i..self.i + 4]).expect("ascii");
                            self.i += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).expect("hex"))
                                .expect("char")
                        }
                        other => other as char,
                    });
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences whole.
                    let start = self.i - 1;
                    let len = match c {
                        0xf0.. => 4,
                        0xe0.. => 3,
                        0xc0.. => 2,
                        _ => 1,
                    };
                    self.i = start + len;
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).expect("utf-8"));
                }
            }
        }
    }
}

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ifp-perfbench"))
        .args(["--workload", workload, "--seed", "0", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

fn result_of(out: &Output) -> Json {
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    let r = Json::parse(last);
    let keys: Vec<&str> = r.obj().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{last}"
    );
    r
}

fn workloads(spec: &Json) -> Vec<String> {
    spec.get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_owned())
        .collect()
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let spec = spec();
    for w in workloads(&spec) {
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let out = run(&w, trace, &[]);
            assert!(
                out.status.success(),
                "{w} --trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let r = result_of(&out);
            assert!(matches!(r.get("correct"), Json::Bool(true)), "{w}: {r:?}");
            assert!(r.get("attempted").num() >= 1.0);
            assert_eq!(r.get("failed").num(), 0.0);
            let metrics = r.get("metrics").obj();
            let named = spec.get(section).arr();
            assert_eq!(metrics.len(), named.len(), "{w} --trace {trace}");
            for m in named {
                let name = m.get("name").str();
                let got = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w} --trace {trace}: {name} missing"));
                assert_eq!(got.get("unit").str(), m.get("unit").str(), "{w}: {name}");
                let v = got.get("value").num();
                assert!(v.is_finite(), "{w}: {name} = {v}");
                if trace == 0 {
                    assert!(v > 0.0, "{w}: end-to-end {name} must be positive, got {v}");
                }
            }
        }
    }
}

#[test]
fn perturbed_digest_fails_the_run() {
    for w in workloads(&spec()) {
        let out = run(&w, 0, &["--perturb-digest"]);
        assert!(
            !out.status.success(),
            "{w}: a perturbed digest must fail the run"
        );
        let r = result_of(&out);
        assert!(matches!(r.get("correct"), Json::Bool(false)), "{w}: {r:?}");
    }
}
