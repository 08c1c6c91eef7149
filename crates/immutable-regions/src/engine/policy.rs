//! [`EnginePolicy`]: the serializable part of an engine's configuration.

use super::{EngineError, EngineResult};
use ir_core::RegionConfig;
use ir_storage::{BackendKind, FaultPlan};
use serde::{DeError, Deserialize, Serialize, Value};
use std::path::Path;

/// The serializable part of an engine's configuration: the default region
/// policy, the worker count and the storage-backend kind. Loadable from a
/// JSON file ([`EnginePolicy::from_json_file`]) and dumped into
/// `BENCH_*.json` metadata by the experiment harness.
///
/// Deserialization is strict both ways — every field must be present (the
/// vendored serde has no `#[serde(default)]`) and no other key may be: a
/// document written for a different field set (e.g. one still carrying the
/// bench-harness stamps that now live in the bench series envelope) is
/// rejected with [`EngineError::Policy`] instead of being half-understood.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct EnginePolicy {
    /// Default region configuration (algorithm, φ, perturbation mode).
    pub config: RegionConfig,
    /// Worker count for batch execution (1 = sequential).
    pub threads: usize,
    /// Which page-store backend serves the engine (mem or file).
    ///
    /// Descriptive metadata: [`IrEngine::policy`](super::IrEngine::policy)
    /// reports the backend the index was actually built on, and the
    /// experiment harness stamps it into emitted series. When *loading* a
    /// policy, the field is advisory — selecting the file backend needs a
    /// path and goes through the builder's
    /// [`backend`](super::IrEngineBuilder::backend) /
    /// [`on_disk`](super::IrEngineBuilder::on_disk). A name that is no
    /// backend is rejected with [`EngineError::Policy`], never read as
    /// mem.
    pub backend: BackendKind,
    /// The fault plan the engine's storage device executes, if any
    /// (`null`/`None` — the default — means a well-behaved device).
    ///
    /// Unlike `backend` this field *is* applied by
    /// [`IrEngineBuilder::policy`](super::IrEngineBuilder::policy): a policy
    /// file describing a chaos-testing configuration is enough to reproduce
    /// it.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for EnginePolicy {
    fn default() -> Self {
        EnginePolicy {
            config: RegionConfig::default(),
            threads: 1,
            backend: BackendKind::Mem,
            fault_plan: None,
        }
    }
}

impl Deserialize for EnginePolicy {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if let Value::Map(entries) = v {
            let known = ["config", "threads", "backend", "fault_plan"];
            if let Some((key, _)) = entries.iter().find(|(k, _)| !known.contains(&k.as_str())) {
                return Err(DeError::custom(format!("unknown field `{key}`")));
            }
        }
        Ok(EnginePolicy {
            config: Deserialize::from_value(v.expect_field("config")?)?,
            threads: Deserialize::from_value(v.expect_field("threads")?)?,
            backend: Deserialize::from_value(v.expect_field("backend")?)?,
            fault_plan: Deserialize::from_value(v.expect_field("fault_plan")?)?,
        })
    }
}

impl EnginePolicy {
    /// Parses a policy from its JSON representation.
    pub fn from_json(json: &str) -> EngineResult<Self> {
        serde_json::from_str(json).map_err(|e| EngineError::Policy(e.to_string()))
    }

    /// Reads a policy from a JSON file.
    pub fn from_json_file(path: impl AsRef<Path>) -> EngineResult<Self> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)
            .map_err(|e| EngineError::Policy(format!("{}: {e}", path.display())))?;
        Self::from_json(&json)
    }

    /// Renders the policy as JSON (the format [`EnginePolicy::from_json`]
    /// reads back).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("policy serializes infallibly")
    }
}
