//! Free-form JSON over the vendored serde stub, whose `Value` tree is not
//! itself (de)serializable: a newtype that is, plus the few accessors and
//! constructors the reports need.

use serde::{DeError, Deserialize, Serialize, Value};
use std::path::Path;

/// Any JSON document.
#[derive(Clone, Debug, PartialEq)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    pub fn read(path: &Path) -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
    }

    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("rendering a value tree cannot fail")
    }

    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.render() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Builds a JSON object from `(key, value)` pairs, keeping their order.
pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn string(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Field `key` of an object (`None` for a missing key or a non-object).
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

pub fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_seq(value: &Value) -> &[Value] {
    match value {
        Value::Seq(items) => items,
        _ => &[],
    }
}
