//! Deterministic export of counter registries: as a [`json`](crate::json)
//! object for the `dide-stats/v1` schema, or as CSV. Both list counters in
//! registration order, which doubles as the schema's determinism
//! guarantee.

use crate::counters::CounterSet;
use crate::json::Value;

/// The registry as a JSON object of integer members, in registration
/// order.
#[must_use]
pub fn counters_json(set: &CounterSet) -> Value {
    Value::object(set.iter().map(|(name, value)| (name, Value::from(value))))
}

/// Renders the registry as CSV: a `counter,value` header then one row per
/// counter in registration order.
#[must_use]
pub fn counters_csv(set: &CounterSet) -> String {
    let mut out = String::from("counter,value\n");
    for (name, value) in set.iter() {
        out.push_str(&format!("{name},{value}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CounterSet {
        let mut set = CounterSet::new();
        let mut p = set.scope("pipeline");
        p.counter("cycles", 12);
        p.counter("committed", 34);
        set
    }

    #[test]
    fn json_object_is_ordered_and_balanced() {
        let json = counters_json(&sample()).to_pretty();
        assert_eq!(json, "{\n  \"pipeline.cycles\": 12,\n  \"pipeline.committed\": 34\n}");
    }

    #[test]
    fn empty_registry_renders_an_empty_object() {
        assert_eq!(counters_json(&CounterSet::new()).to_pretty(), "{}");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = counters_csv(&sample());
        assert_eq!(csv, "counter,value\npipeline.cycles,12\npipeline.committed,34\n");
    }

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        let mut set = CounterSet::new();
        set.record("a\"b\\c\nd\u{1}", 1);
        assert_eq!(counters_json(&set).to_compact(), r#"{"a\"b\\c\nd\u0001":1}"#);
    }
}
