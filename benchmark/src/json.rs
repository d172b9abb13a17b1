//! Small helpers over the JSON value tree: building the lines the
//! benchmark prints and reading the ones its child processes print.

use std::borrow::Cow;

pub use serde_json::Value;

pub fn text(s: &str) -> Value {
    Value::Str(Cow::Owned(s.to_owned()))
}

pub fn seq(items: Vec<Value>) -> Value {
    Value::Seq(items)
}

pub fn map<const N: usize>(fields: [(&'static str, Value); N]) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (Cow::Borrowed(k), v))
            .collect(),
    )
}

/// A map with run-time keys (metric names).
pub fn named(fields: impl IntoIterator<Item = (String, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (Cow::Owned(k), v))
            .collect(),
    )
}

pub fn numbers(values: &[f64]) -> Value {
    seq(values.iter().map(|&v| Value::F64(v)).collect())
}

pub fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("a value tree serializes")
}

pub fn parse(line: &str) -> Result<Value, String> {
    serde_json::from_str(line).map_err(|e| e.to_string())
}

/// Field `key` of an object, if present.
pub fn get<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value {
        Value::Map(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(value: &Value) -> Option<f64> {
    match *value {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(x) => Some(x),
        _ => None,
    }
}

/// Numeric field `key`, or a message naming what is missing.
pub fn number(value: &Value, key: &str) -> Result<f64, String> {
    get(value, key)
        .and_then(as_f64)
        .ok_or_else(|| format!("no numeric field {key:?}"))
}

#[cfg(test)]
pub fn string<'v>(value: &'v Value, key: &str) -> Option<&'v str> {
    match get(value, key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}
