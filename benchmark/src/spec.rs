//! `BENCHMARK.json`, read from the directory the benchmark is started in
//! (the root of the checkout). It is the one list of workload and metric
//! names, units, directions and bounds; a run that cannot produce exactly
//! the metrics listed there fails instead of printing a partial result.

use crate::api::Json;

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true`: lower is better.
    pub lower: bool,
    /// Share of the baseline's median it may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("missing array {key}"))?;
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("{key}: metric without {k}"))
            };
            Ok(Metric {
                name: field("name")?,
                unit: field("unit")?,
                lower: match field("better")?.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("{key}: better = {other}")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing array workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or("workload without name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing run_seconds")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string())?;
        Spec::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::WORKLOADS;

    fn committed() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Spec::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_unique_and_the_workloads_are_the_five() {
        let spec = committed();
        assert_eq!(spec.workloads, WORKLOADS);
        let mut names: Vec<&String> = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
    }

    #[test]
    fn bounds_follow_the_contract() {
        let spec = committed();
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| matches!(m.bound, Some(b) if b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        assert!(matches!(setup, Some(m) if m.unit == "s" && m.lower));
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }
}
