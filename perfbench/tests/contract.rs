//! The benchmark's own checks: its metric table agrees with
//! `BENCHMARK.json`, and a quick run of every workload, with every output
//! check on, prints exactly those metrics and no failure.

use std::process::Command;

/// A JSON value, enough of JSON for `BENCHMARK.json` and the result line.
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
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
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

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON value");
        v
    }

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
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(fields),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(items),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                b'u' => {
                                    let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                        .expect("hex escape");
                                    self.i += 4;
                                    char::from_u32(u32::from_str_radix(hex, 16).expect("hex"))
                                        .expect("scalar")
                                }
                                other => other as char,
                            });
                        }
                        _ => {
                            let start = self.i - 1;
                            let len = match c {
                                0..=0x7F => 1,
                                0xC0..=0xDF => 2,
                                0xE0..=0xEF => 3,
                                _ => 4,
                            };
                            self.i = start + len;
                            out.push_str(
                                std::str::from_utf8(&self.s[start..self.i]).expect("utf8"),
                            );
                        }
                    }
                }
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
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("utf8");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn bin() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_masc-perfbench"));
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

/// `(kind, name, unit, better)` rows the binary prints.
fn listed() -> Vec<(String, String, String, String)> {
    let out = bin()
        .arg("--list-metrics")
        .output()
        .expect("run the benchmark");
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("utf8")
        .lines()
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            assert_eq!(f.len(), 4, "bad line {l:?}");
            (f[0].into(), f[1].into(), f[2].into(), f[3].into())
        })
        .collect()
}

#[test]
fn metric_table_matches_benchmark_json() {
    let bench = benchmark_json();
    let rows = listed();
    for kind in ["end_to_end", "per_layer"] {
        let declared: Vec<(String, String, String)> = bench
            .get(kind)
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                    m.get("better").str().to_string(),
                )
            })
            .collect();
        let printed: Vec<(String, String, String)> = rows
            .iter()
            .filter(|r| r.0 == kind)
            .map(|r| (r.1.clone(), r.2.clone(), r.3.clone()))
            .collect();
        assert_eq!(
            declared, printed,
            "{kind} metrics differ from BENCHMARK.json"
        );
    }
    for m in bench.get("end_to_end").arr() {
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
    let setup = bench
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s declared");
    let largest = bench
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| m.get("bound").num())
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").num(),
        largest,
        "setup_s carries the largest bound"
    );
}

#[test]
fn workloads_match_benchmark_json() {
    let bench = benchmark_json();
    let declared: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let out = bin()
        .arg("--list-workloads")
        .output()
        .expect("run the benchmark");
    assert!(out.status.success());
    let printed = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(declared, printed.lines().collect::<Vec<_>>());
}

/// Runs `workload` briefly and returns its result line.
fn quick(workload: &str, trace: bool) -> Json {
    let out = bin()
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("# host cores="), "no host line");
    assert!(stdout.contains("seed=11"), "no seed line");
    Parser::parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn quick_runs_pass_every_check_and_print_every_metric() {
    let bench = benchmark_json();
    // store-replay is a diagnostic workload outside BENCHMARK.json; it is
    // held to the same checks and metric set.
    for workload in ["adjoint-paper", "lanes-batch", "serve-mix", "store-replay"] {
        for (trace, kind) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = quick(workload, trace);
            assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
            assert_eq!(result.get("failed").num(), 0.0, "{workload}");
            assert!(result.get("attempted").num() >= 1.0, "{workload}");
            let metrics = result.get("metrics");
            let declared: Vec<&Json> = bench.get(kind).arr().iter().collect();
            assert_eq!(metrics.keys().len(), declared.len(), "{workload} {kind}");
            for m in declared {
                let got = metrics.get(m.get("name").str());
                assert_eq!(got.get("unit").str(), m.get("unit").str());
                let v = got.get("value").num();
                assert!(v.is_finite(), "{workload}: {} = {v}", m.get("name").str());
                if !trace {
                    assert!(v > 0.0, "{workload}: {} = {v}", m.get("name").str());
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "serve-mix",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "serve-mix",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "serve-mix"],
    ] {
        let out = bin().args(args).output().expect("run the benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
