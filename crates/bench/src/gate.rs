//! The measurement sheet of the `perf_smoke` gate.
//!
//! A case writes three kinds of result into one [`Sheet`]:
//!
//! * **counters** — deterministic work (allocated nodes, peak live,
//!   computed-table calls and misses, case splits). They are the same on every machine, so they are
//!   gated for exact equality against the committed baseline file.
//! * **records** — walls, rates and runner context. They are written to the
//!   output and never compared with the baseline: a wall measured on another
//!   machine says nothing about this one.
//! * **failures** of same-run checks — a twin measured in the same run, a
//!   report identity, an absolute hard limit.
//!
//! The sheet renders as `{"schema", "counters", "records"}` with
//! [`pipeverify_core::json::Json`]; the baseline is a file in that format.

use pipeverify_core::json::Json;

/// Schema tag of the rendered sheet.
pub const SCHEMA: &str = "pipeverify-bdd-smoke-v2";

/// Every measurement and same-run failure of one `perf_smoke` run.
#[derive(Clone, Debug, Default)]
pub struct Sheet {
    counters: Vec<(String, u64)>,
    records: Vec<(String, f64)>,
    /// Failed same-run checks, in the order they were found.
    pub failures: Vec<String>,
}

impl Sheet {
    /// Records a deterministic work counter; gated exactly.
    pub fn counter(&mut self, key: impl Into<String>, value: usize) {
        self.counters.push((key.into(), value as u64));
    }

    /// Records a wall, rate or context value; never gated.
    pub fn record(&mut self, key: impl Into<String>, value: f64) {
        self.records.push((key.into(), value));
    }

    /// Adds `failure()` to the failures unless `ok` holds.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }

    /// The sheet as one JSON object: schema, counters, records.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_owned(), Json::Str(SCHEMA.to_owned())),
            (
                "counters".to_owned(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from_u64(*v)))
                        .collect(),
                ),
            ),
            (
                "records".to_owned(),
                Json::Obj(
                    self.records
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Compares every counter with the `counters` object of `baseline` and
    /// returns one message per counter that differs or is missing there.
    /// Records are not looked at.
    pub fn counter_regressions(&self, baseline: &Json) -> Vec<String> {
        let committed = baseline.get("counters");
        self.counters
            .iter()
            .filter_map(|(key, value)| {
                match committed.and_then(|c| c.get(key)).and_then(Json::as_u64) {
                    Some(base) if base == *value => None,
                    Some(base) => Some(format!(
                        "{key} = {value} differs from the committed baseline {base}"
                    )),
                    None => Some(format!("the baseline has no counter `{key}`")),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(pairs: &[(&str, u64)]) -> Json {
        let counters = pairs
            .iter()
            .map(|&(k, v)| (k.to_owned(), Json::from_u64(v)))
            .collect();
        Json::Obj(vec![("counters".to_owned(), Json::Obj(counters))])
    }

    #[test]
    fn equal_counters_pass() {
        let mut sheet = Sheet::default();
        sheet.counter("vsm_allocated", 569_330);
        sheet.counter("flush3_splits", 384);
        let base = baseline(&[("vsm_allocated", 569_330), ("flush3_splits", 384)]);
        assert!(sheet.counter_regressions(&base).is_empty());
    }

    #[test]
    fn off_by_one_either_way_fails() {
        let base = baseline(&[("vsm_allocated", 569_330)]);
        for value in [569_329, 569_331] {
            let mut sheet = Sheet::default();
            sheet.counter("vsm_allocated", value);
            let regressions = sheet.counter_regressions(&base);
            assert_eq!(regressions.len(), 1, "{value} must fail");
            assert!(regressions[0].contains("vsm_allocated"));
        }
    }

    #[test]
    fn a_counter_missing_from_the_baseline_fails() {
        let mut sheet = Sheet::default();
        sheet.counter("vsm_allocated", 569_330);
        sheet.counter("vsm_peak_live", 234_233);
        let regressions = sheet.counter_regressions(&baseline(&[("vsm_allocated", 569_330)]));
        assert_eq!(regressions, ["the baseline has no counter `vsm_peak_live`"]);
    }

    #[test]
    fn records_are_never_compared() {
        let mut sheet = Sheet::default();
        sheet.record("vsm_wall_s", 1e6);
        sheet.record("cores", 64.0);
        // A baseline that even holds the same keys as counters, with other
        // values, and one that lacks them: neither is a regression.
        let base = baseline(&[("vsm_wall_s", 1), ("cores", 2)]);
        assert!(sheet.counter_regressions(&base).is_empty());
        assert!(sheet.counter_regressions(&baseline(&[])).is_empty());
    }

    #[test]
    fn the_sheet_round_trips_through_json() {
        let mut sheet = Sheet::default();
        sheet.counter("reach12_peak_live", 29_227);
        sheet.record("reach12_wall_s", 0.075);
        let back = Json::parse(&sheet.to_json().render()).expect("parses");
        assert_eq!(back.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let counters = back.get("counters").expect("counters");
        assert_eq!(
            counters.get("reach12_peak_live").and_then(Json::as_u64),
            Some(29_227)
        );
        let records = back.get("records").expect("records");
        assert_eq!(
            records.get("reach12_wall_s").and_then(Json::as_f64),
            Some(0.075)
        );
    }
}
