//! Results: the per-workload record, the driver's result line, the saved
//! result document, and the comparison of two documents under the
//! benchmark's bounds.

use crate::spec::{self, MetricSpec};
use crate::trace::Traced;
use crate::workloads::{Note, Outcome, Sample};
use bonsai::core::snapshot::{json_escape, Json};

pub const DOCUMENT_KIND: &str = "bonsai/sysbench";
pub const DOCUMENT_VERSION: u64 = 1;

/// One workload's results, end to end or per layer.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Why the workload could not finish, if it could not.
    pub aborted: Option<String>,
    /// End-to-end metrics of an untraced run, per-layer metrics of a
    /// traced one, in table order.
    pub metrics: Vec<Note>,
    pub exact: Vec<(String, f64)>,
    pub notes: Vec<Note>,
}

fn reported(spec: &MetricSpec, sample: Sample) -> Note {
    Note {
        name: spec.name.to_string(),
        sample,
        unit: spec.unit.to_string(),
    }
}

impl WorkloadResult {
    pub fn from_outcome(name: &str, outcome: Outcome) -> Self {
        WorkloadResult {
            name: name.to_string(),
            attempted: outcome.attempted,
            failed: outcome.failed,
            failures: outcome.failures,
            aborted: None,
            metrics: spec::END_TO_END
                .iter()
                .filter_map(|m| outcome.metrics.get(m.name).map(|&s| reported(m, s)))
                .collect(),
            exact: outcome
                .exact
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            notes: outcome.notes,
        }
    }

    /// Every per-layer metric, in table order; a layer that is not on
    /// this workload's path reports 0.
    pub fn from_trace(name: &str, traced: Traced) -> Self {
        let off_path = Sample {
            value: 0.0,
            samples: 0,
        };
        WorkloadResult {
            name: name.to_string(),
            attempted: traced.attempted,
            failed: traced.failed,
            failures: traced.failures,
            aborted: None,
            metrics: spec::PER_LAYER
                .iter()
                .map(|m| reported(m, traced.layers.get(m.name).copied().unwrap_or(off_path)))
                .collect(),
            exact: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn aborted(name: &str, why: String) -> Self {
        WorkloadResult {
            name: name.to_string(),
            attempted: 1,
            failed: 1,
            failures: Vec::new(),
            aborted: Some(why),
            metrics: Vec::new(),
            exact: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.aborted.is_none()
            && self.failed == 0
            && self.metrics.iter().all(|m| m.sample.value.is_finite())
    }

    /// Every metric by name with its unit and sample count.
    pub fn print(&self) {
        println!(
            "{}: {} attempted, {} failed{}",
            self.name,
            self.attempted,
            self.failed,
            if self.correct() {
                ""
            } else {
                "  <-- INCORRECT"
            }
        );
        if let Some(why) = &self.aborted {
            println!("  ABORTED: {why}");
        }
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
        for m in self.metrics.iter().chain(&self.notes) {
            println!(
                "  {:<40} {:>16.6} {:<6} (n = {})",
                m.name, m.sample.value, m.unit, m.sample.samples
            );
        }
        for (name, value) in &self.exact {
            println!("  {name:<40} {value:>16.6} (exact)");
        }
    }

    /// The driver's contract: one JSON object with `correct`,
    /// `attempted`, `failed` and every metric as measured.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.sample.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn render(&self) -> String {
        let notes = |items: &[Note]| -> String {
            let fields: Vec<String> = items
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                        json_escape(&m.name),
                        json_number(m.sample.value),
                        json_escape(&m.unit),
                        m.sample.samples
                    )
                })
                .collect();
            format!("{{{}}}", fields.join(", "))
        };
        let exact: Vec<String> = self
            .exact
            .iter()
            .map(|(n, v)| format!("\"{}\": {}", json_escape(n), json_number(*v)))
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", json_escape(f)))
            .collect();
        format!(
            "{{\"name\": \"{}\", \"attempted\": {}, \"failed\": {}, \"aborted\": {}, \
             \"failures\": [{}],\n     \"metrics\": {},\n     \"exact\": {{{}}},\n     \"notes\": {}}}",
            json_escape(&self.name),
            self.attempted,
            self.failed,
            self.aborted
                .as_ref()
                .map_or("null".to_string(), |a| format!("\"{}\"", json_escape(a))),
            failures.join(", "),
            notes(&self.metrics),
            exact.join(", "),
            notes(&self.notes),
        )
    }

    fn parse(doc: &Json) -> Result<Self, String> {
        let str_of = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("workload entry without \"{key}\""))
        };
        let num_of = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("workload entry without \"{key}\""))
        };
        let fields = |key: &str| -> Result<&[(String, Json)], String> {
            match doc.get(key) {
                Some(Json::Obj(fields)) => Ok(fields),
                _ => Err(format!("workload entry without object \"{key}\"")),
            }
        };
        let notes = |key: &str| -> Result<Vec<Note>, String> {
            fields(key)?
                .iter()
                .map(|(name, m)| {
                    let part = |k: &str| {
                        m.get(k)
                            .ok_or_else(|| format!("metric {name} without \"{k}\""))
                    };
                    Ok(Note {
                        name: name.clone(),
                        sample: Sample {
                            // A non-finite value was written as null.
                            value: part("value")?.as_f64().unwrap_or(f64::NAN),
                            samples: part("samples")?.as_f64().unwrap_or(0.0) as usize,
                        },
                        unit: part("unit")?.as_str().unwrap_or_default().to_string(),
                    })
                })
                .collect()
        };
        Ok(WorkloadResult {
            name: str_of("name")?,
            attempted: num_of("attempted")? as u64,
            failed: num_of("failed")? as u64,
            failures: doc
                .get("failures")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            aborted: doc
                .get("aborted")
                .and_then(Json::as_str)
                .map(str::to_string),
            metrics: notes("metrics")?,
            exact: fields("exact")?
                .iter()
                .map(|(n, v)| (n.clone(), v.as_f64().unwrap_or(f64::NAN)))
                .collect(),
            notes: notes("notes")?,
        })
    }

    fn value_of(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == metric)
            .map(|m| m.sample.value)
    }
}

/// Shortest round-trip decimal; `null` for a value JSON cannot carry.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One suite's results with the facts needed to read them.
#[derive(Clone, Debug, PartialEq)]
pub struct Document {
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub toolchain: String,
    pub workloads: Vec<WorkloadResult>,
}

impl Document {
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Self {
        let toolchain = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Document {
            traced,
            seed,
            seconds,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            toolchain,
            workloads: Vec::new(),
        }
    }

    pub fn all_correct(&self) -> bool {
        self.workloads.iter().all(WorkloadResult::correct)
    }

    pub fn render(&self) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| format!("    {}", w.render()))
            .collect();
        format!(
            "{{\n  \"kind\": \"{DOCUMENT_KIND}\",\n  \"version\": {DOCUMENT_VERSION},\n  \
             \"traced\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"nproc\": {},\n  \
             \"toolchain\": \"{}\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
            self.traced,
            self.seed,
            json_number(self.seconds),
            self.nproc,
            json_escape(&self.toolchain),
            workloads.join(",\n"),
        )
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("kind").and_then(Json::as_str) != Some(DOCUMENT_KIND) {
            return Err(format!("not a {DOCUMENT_KIND} document"));
        }
        if doc.get("version").and_then(Json::as_f64) != Some(DOCUMENT_VERSION as f64) {
            return Err(format!(
                "not version {DOCUMENT_VERSION}; run the benchmark again"
            ));
        }
        let num = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("document without \"{key}\""))
        };
        Ok(Document {
            traced: doc.get("traced").and_then(Json::as_bool).unwrap_or(false),
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            nproc: num("nproc")? as usize,
            toolchain: doc
                .get("toolchain")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("document without \"workloads\"")?
                .iter()
                .map(WorkloadResult::parse)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Compares `new` against `base`, one row per workload and metric, every
/// ratio stated with its base. Returns false — after naming each metric
/// and workload — if an end-to-end metric is worse by more than its bound
/// or an exact output differs at all. Per-layer metrics of traced
/// documents are listed, never gated.
pub fn compare(base: &Document, new: &Document) -> bool {
    let mut regressions = Vec::new();
    for b in &base.workloads {
        let Some(n) = new.workloads.iter().find(|w| w.name == b.name) else {
            regressions.push(format!("{}: missing from the second document", b.name));
            continue;
        };
        println!("{}:", b.name);
        let table: &[MetricSpec] = if base.traced || new.traced {
            &spec::PER_LAYER
        } else {
            &spec::END_TO_END
        };
        for m in table {
            let (Some(bv), Some(nv)) = (b.value_of(m.name), n.value_of(m.name)) else {
                regressions.push(format!(
                    "{} on {}: not reported by both runs",
                    m.name, b.name
                ));
                continue;
            };
            let worse = spec::worse_by(m.better, bv, nv);
            // NaN (a zero or missing base) must not pass silently.
            let regressed = m.bound.is_some_and(|bound| worse.is_nan() || worse > bound);
            println!(
                "  {:<40} {:>16.6} -> {:>16.6} {:<6} x{:.4} of base {:.6}{}",
                m.name,
                bv,
                nv,
                m.unit,
                nv / bv,
                bv,
                if regressed { "  <-- REGRESSION" } else { "" }
            );
            if regressed {
                regressions.push(format!(
                    "{} on {}: worse by {:.1}% of the base {bv:.6} {} (bound {:.0}%), got {nv:.6}",
                    m.name,
                    b.name,
                    worse * 100.0,
                    m.unit,
                    m.bound.unwrap_or(0.0) * 100.0
                ));
            }
        }
        for (name, bv) in &b.exact {
            let nv = n.exact.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
            let same = nv.is_some_and(|nv| nv.to_bits() == bv.to_bits());
            println!(
                "  {name:<40} {bv:>16.6} -> {:>16.6} (exact){}",
                nv.unwrap_or(f64::NAN),
                if same { "" } else { "  <-- DIFFERS" }
            );
            if !same {
                regressions.push(format!(
                    "{name} on {}: must repeat exactly, got {bv} and {nv:?}",
                    b.name
                ));
            }
        }
    }
    for r in &regressions {
        println!("REGRESSION: {r}");
    }
    if regressions.is_empty() {
        println!("no metric moved by more than its bound");
    }
    regressions.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, op_ms: f64, ratio: f64) -> WorkloadResult {
        let mut outcome = Outcome {
            attempted: 10,
            ..Default::default()
        };
        for m in &spec::END_TO_END {
            let value = if m.name == "op_calm_ms" { op_ms } else { 2.5 };
            outcome.metrics.insert(m.name, Sample { value, samples: 7 });
        }
        outcome.exact.push(("node_ratio", ratio));
        outcome.notes.push(Note {
            name: "op_p50_ms".into(),
            sample: Sample {
                value: 0.1 + 0.2,
                samples: 14,
            },
            unit: "ms".into(),
        });
        WorkloadResult::from_outcome(name, outcome)
    }

    fn document(op_ms: f64, ratio: f64) -> Document {
        Document {
            traced: false,
            seed: 3,
            seconds: 22.0,
            nproc: 2,
            toolchain: "rustc \"x\"".into(),
            workloads: vec![result("compress_policy", op_ms, ratio)],
        }
    }

    #[test]
    fn document_round_trips_bit_exactly() {
        let doc = document(671.234_567_890_123, 197.0 / 53.0);
        let parsed = Document::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed.workloads[0].notes[0].sample.value.to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn compare_applies_bounds_and_exactness() {
        let base = document(100.0, 3.5);
        assert!(
            compare(&base, &document(124.0, 3.5)),
            "within the 25% bound"
        );
        assert!(compare(&base, &document(50.0, 3.5)), "an improvement");
        assert!(!compare(&base, &document(126.0, 3.5)), "beyond the bound");
        assert!(
            !compare(&base, &document(100.0, 3.500_001)),
            "exact output moved"
        );
        assert!(!compare(&base, &document(f64::NAN, 3.5)), "not a number");
        let mut missing = document(100.0, 3.5);
        missing.workloads.clear();
        assert!(!compare(&base, &missing), "a workload went missing");
    }

    /// The recorded baseline must show the isolation the workloads were
    /// chosen for: one mechanism workload and three bypasses for the BDD,
    /// the two sweeps on opposite paths, and a cycle that is neither all
    /// reload nor all replay.
    #[test]
    fn recorded_baseline_shows_the_isolation_the_workloads_were_chosen_for() {
        let read = |name: &str| {
            let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
            Document::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
        };
        let (result, layers) = (read("baseline_result.json"), read("baseline_layers.json"));
        assert!(result.all_correct() && layers.all_correct());
        assert!(!result.traced && layers.traced);
        let of = |doc: &Document, workload: &str, metric: &str| {
            let w = doc.workloads.iter().find(|w| w.name == workload).unwrap();
            w.value_of(metric)
                .unwrap_or_else(|| panic!("{metric} on {workload}"))
        };
        for w in &spec::WORKLOADS {
            let arena = of(&layers, w.name, "bdd.arena_nodes");
            if w.name == "compress_policy" {
                assert!(arena >= 2000.0, "{arena}");
            } else {
                assert_eq!(arena, 1.0, "{}", w.name);
            }
            for m in &spec::END_TO_END {
                assert!(
                    of(&result, w.name, m.name) > 0.0,
                    "{} on {}",
                    m.name,
                    w.name
                );
            }
        }
        assert!(of(&layers, "sweep_symmetric", "verify.netsweep.sharing_ratio") >= 0.9);
        assert!(of(&layers, "sweep_symmetric", "verify.sweep.derivations") <= 50.0);
        assert_eq!(
            of(&layers, "sweep_derive", "verify.netsweep.sharing_ratio"),
            0.0
        );
        assert_eq!(
            of(&layers, "sweep_derive", "verify.sweep.derivations"),
            702.0
        );
        let reload_share = of(&layers, "serve_cycle", "daemon.reload_p50_ms")
            / of(&result, "serve_cycle", "op_calm_ms");
        assert!((0.25..=0.5).contains(&reload_share), "{reload_share}");
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let r = result("compress_policy", 1.5, 3.5);
        let line = Json::parse(&r.driver_line()).unwrap();
        let Json::Obj(fields) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, spec::END_TO_END.map(|m| m.name));
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let aborted = WorkloadResult::aborted("x", "daemon not ready".into());
        assert!(!aborted.correct());
    }
}
