//! The workloads and metrics `BENCHMARK.json` declares: the one list of
//! metric names and units, read by the benchmark (compiled in) and by
//! its smoke test. A small scanner stands in for a JSON parser: the
//! file is flat and every entry carries `"name"` before `"unit"`.

/// What `BENCHMARK.json` declares, in file order.
pub struct Declared {
    pub workloads: Vec<String>,
    /// `(name, unit)` of every end-to-end metric.
    pub end_to_end: Vec<(String, String)>,
    /// `(name, unit)` of every per-layer metric.
    pub per_layer: Vec<(String, String)>,
}

/// Every string value of `key` in `text`, in order.
fn string_values(text: &str, key: &str) -> Vec<String> {
    let pattern = format!("\"{key}\": \"");
    text.match_indices(&pattern)
        .map(|(i, _)| {
            let rest = &text[i + pattern.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// Scans the text of `BENCHMARK.json`.
pub fn parse(text: &str) -> Declared {
    let section = |key: &str| {
        let start = text
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("`{key}` in BENCHMARK.json"));
        let end = text[start..].find(']').expect("section closes") + start;
        &text[start..end]
    };
    let metrics = |key: &str| {
        let s = section(key);
        string_values(s, "name")
            .into_iter()
            .zip(string_values(s, "unit"))
            .collect()
    };
    Declared {
        workloads: string_values(section("workloads"), "name"),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}
