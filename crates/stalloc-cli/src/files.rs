//! The artifacts commands hand each other through files: traces (JSON),
//! profiles (`PROF`) and plans (`STPL`). A file of the wrong kind is a
//! typed codec error naming its path and the form that belongs there,
//! never a guess at another form.

use std::fs;

use stalloc_core::{Plan, ProfiledRequests};
use stalloc_store::{decode_plan, decode_profile, CodecError};

use crate::render::emit;

pub fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, String> {
    let data = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&data).map_err(|e| format!("{path}: {e}"))
}

pub fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    let data = serde_json::to_string(value).map_err(|e| e.to_string())?;
    emit(Some(path), data.as_bytes(), "")
}

/// A decode failure of the file at `path`, where `expected` belongs.
fn decode_error(path: &str, expected: &str, e: CodecError) -> String {
    match e {
        CodecError::BadMagic => format!("{path}: not {expected} (bad magic)"),
        e => format!("{path}: {e}"),
    }
}

/// Reads a `PROF` profile from `path`.
pub fn read_profile(path: &str) -> Result<ProfiledRequests, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    decode_profile(&bytes).map_err(|e| decode_error(path, "a PROF profile", e))
}

/// Reads an `STPL` plan from `path`. The plan is validated: a foreign
/// file that decodes but carries unsound decisions must not reach
/// downstream consumers.
pub fn read_plan(path: &str) -> Result<Plan, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let plan = decode_plan(&bytes).map_err(|e| decode_error(path, "an STPL plan", e))?;
    plan.validate()
        .map_err(|e| format!("{path}: unsound plan: {e}"))?;
    Ok(plan)
}
