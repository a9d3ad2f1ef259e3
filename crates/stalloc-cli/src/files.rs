//! The artifacts commands hand each other through files: traces and
//! profiles (JSON, or binary `PROF`), plans (JSON or binary `STPL`).

use std::fs;

use stalloc_core::{Plan, ProfiledRequests};
use stalloc_store::{decode_plan, decode_profile, is_binary_plan, is_binary_profile};

use crate::render::emit;

pub fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, String> {
    let data = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&data).map_err(|e| format!("{path}: {e}"))
}

pub fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    let data = serde_json::to_string(value).map_err(|e| e.to_string())?;
    emit(Some(path), data.as_bytes(), "")
}

/// Reads a profile from `path`, auto-detecting binary `PROF` vs JSON by
/// magic (profiles travel as JSON from `stalloc profile`, but the codec
/// round-trips binary artifacts too).
pub fn read_profile(path: &str) -> Result<ProfiledRequests, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if is_binary_profile(&bytes) {
        decode_profile(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        let text = String::from_utf8(bytes).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Reads a plan from `path`, auto-detecting binary vs JSON by magic.
/// The plan is validated: a foreign file that decodes but carries
/// unsound decisions must not reach downstream consumers.
pub fn read_plan(path: &str) -> Result<Plan, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let plan = if is_binary_plan(&bytes) {
        decode_plan(&bytes).map_err(|e| format!("{path}: {e}"))?
    } else {
        let text = String::from_utf8(bytes).map_err(|e| format!("{path}: {e}"))?;
        Plan::from_json(&text).map_err(|e| format!("{path}: {e}"))?
    };
    plan.validate()
        .map_err(|e| format!("{path}: unsound plan: {e}"))?;
    Ok(plan)
}
