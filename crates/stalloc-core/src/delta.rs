//! Profile edit scripts for incremental re-planning.
//!
//! Elastic and iterative workloads — most concretely the per-microbatch
//! memory shifts of Chronos-style pipeline schedules — produce *families*
//! of near-identical profiles. Shipping each family member as a full
//! `PROF` stream and cold-synthesizing its plan wastes both wire bytes
//! and ~150 ms of layout search per member. This module supplies the
//! value-level half of the fix:
//!
//! * [`diff_profiles`] computes an edit script ([`ProfileDelta`]) turning
//!   a *base* profile into a *next* profile, naming the base by its
//!   config-free [`fingerprint_profile`];
//! * [`apply_delta`] replays the script against the base, reproducing the
//!   next profile exactly: `apply(base, diff(base, next)) == next` for
//!   **any** pair of profiles (the diff is structurally total — in the
//!   worst case it degenerates to remove-all + insert-all).
//!
//! The byte form of a [`ProfileDelta`] (`PROF-DELTA` v1, magic `PRFD`)
//! lives in `stalloc-store::codec`, next to the `PROF` and `STPL`
//! codecs; plan *patching* — reusing the base plan's placements for
//! requests the script copies untouched — is
//! [`patch_plan`](crate::replan::patch_plan).

use crate::fingerprint::{fingerprint_profile, Fingerprint};
use crate::profiler::{InstanceKey, ProfiledRequests, RequestEvent};

/// One instruction of a profile edit script. Scripts run against a base
/// request list with a cursor: `Copy`/`Remove`/`Retime`/`Resize` consume
/// base entries, `Insert` does not. A script is valid iff it consumes
/// the base list exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOp {
    /// Emit the next `count` base requests unchanged (`count >= 1`).
    Copy {
        /// Base requests carried over verbatim.
        count: usize,
    },
    /// Emit a request that has no base counterpart.
    Insert {
        /// The new request, in full.
        request: RequestEvent,
    },
    /// Skip the next `count` base requests (`count >= 1`).
    Remove {
        /// Base requests dropped.
        count: usize,
    },
    /// Emit the next base request with shifted timing (size, `dynamic`,
    /// and instance keys unchanged). Deltas are signed and wrap, exactly
    /// like the codec's zigzag fields.
    Retime {
        /// Allocation-tick shift.
        dts: i64,
        /// Free-tick shift.
        dte: i64,
        /// Allocation-phase shift.
        dps: i64,
        /// Free-phase shift.
        dpe: i64,
    },
    /// Emit the next base request with a shifted size (everything else
    /// unchanged).
    Resize {
        /// Size shift in bytes.
        dsize: i64,
    },
}

impl EditOp {
    /// How many base requests this op consumes.
    pub fn consumes(&self) -> usize {
        match self {
            EditOp::Copy { count } | EditOp::Remove { count } => *count,
            EditOp::Insert { .. } => 0,
            EditOp::Retime { .. } | EditOp::Resize { .. } => 1,
        }
    }

    /// How many next-profile requests this op emits.
    pub fn emits(&self) -> usize {
        match self {
            EditOp::Copy { count } => *count,
            EditOp::Remove { .. } => 0,
            EditOp::Insert { .. } | EditOp::Retime { .. } | EditOp::Resize { .. } => 1,
        }
    }
}

/// An edit script turning one profile (the *base*, named by fingerprint)
/// into another (the *next*). The value-level counterpart of a
/// `PROF-DELTA` v1 stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileDelta {
    /// Config-free fingerprint of the base profile
    /// ([`fingerprint_profile`]): the delta refuses to apply to anything
    /// else.
    pub base: Fingerprint,
    /// The next profile's persistent-prefix length (stored wholesale —
    /// it is one varint).
    pub init_count: usize,
    /// The next profile's phase count.
    pub num_phases: u32,
    /// The next profile's window length.
    pub window_len: u64,
    /// Edit script over `statics` (arrival order, persistent prefix
    /// first — the same order the `PROF` section uses).
    pub statics: Vec<EditOp>,
    /// Edit script over `dynamics`.
    pub dynamics: Vec<EditOp>,
    /// `None` = identical to the base; `Some` = wholesale replacement
    /// (the table is tiny and rarely shifts incrementally).
    pub instance_windows: Option<Vec<(InstanceKey, (u64, u64))>>,
    /// `None` = identical to the base; `Some` = wholesale replacement.
    pub instance_arrivals: Option<Vec<(InstanceKey, Vec<u32>)>>,
}

impl ProfileDelta {
    /// Requests the script reuses from the base untouched (`Copy` runs),
    /// across both sections. The plan patcher reuses exactly these
    /// placements.
    pub fn copied(&self) -> usize {
        self.statics
            .iter()
            .chain(self.dynamics.iter())
            .map(|op| match op {
                EditOp::Copy { count } => *count,
                _ => 0,
            })
            .sum()
    }

    /// Requests the script disturbs (inserted, retimed, or resized),
    /// across both sections.
    pub fn disturbed(&self) -> usize {
        self.statics
            .iter()
            .chain(self.dynamics.iter())
            .map(|op| match op {
                EditOp::Insert { .. } | EditOp::Retime { .. } | EditOp::Resize { .. } => 1,
                _ => 0,
            })
            .sum()
    }
}

/// Why a delta refused to apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The base profile's fingerprint does not match the one the delta
    /// was computed against.
    BaseMismatch {
        /// What the delta expects.
        expected: Fingerprint,
        /// What the offered base hashes to.
        actual: Fingerprint,
    },
    /// The script consumed past the end of a base section.
    Overrun {
        /// Section being edited (`"statics"` / `"dynamics"`).
        section: &'static str,
    },
    /// The script ended without consuming a base section exactly.
    Underrun {
        /// Section being edited.
        section: &'static str,
        /// Base entries left unconsumed.
        remaining: usize,
    },
    /// A shifted field left its value range (e.g. a phase beyond `u32`,
    /// or a `Copy`/`Remove` count of zero).
    FieldOutOfRange {
        /// Field that overflowed.
        field: &'static str,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::BaseMismatch { expected, actual } => {
                write!(f, "delta is against profile {expected}, not {actual}")
            }
            DeltaError::Overrun { section } => {
                write!(f, "edit script overran the base {section}")
            }
            DeltaError::Underrun { section, remaining } => {
                write!(f, "edit script left {remaining} base {section} unconsumed")
            }
            DeltaError::FieldOutOfRange { field } => {
                write!(f, "edited {field} out of range")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Whether two requests agree on everything but timing — the shape a
/// single `Retime` op can bridge.
fn retimeable(a: &RequestEvent, b: &RequestEvent) -> bool {
    a.size == b.size && a.dynamic == b.dynamic && a.ls == b.ls && a.le == b.le
}

/// Whether two requests agree on everything but size — the shape a
/// single `Resize` op can bridge.
fn resizeable(a: &RequestEvent, b: &RequestEvent) -> bool {
    a.ts == b.ts
        && a.te == b.te
        && a.ps == b.ps
        && a.pe == b.pe
        && a.dynamic == b.dynamic
        && a.ls == b.ls
        && a.le == b.le
}

fn push_copy(ops: &mut Vec<EditOp>) {
    if let Some(EditOp::Copy { count }) = ops.last_mut() {
        *count += 1;
    } else {
        ops.push(EditOp::Copy { count: 1 });
    }
}

fn push_remove(ops: &mut Vec<EditOp>) {
    if let Some(EditOp::Remove { count }) = ops.last_mut() {
        *count += 1;
    } else {
        ops.push(EditOp::Remove { count: 1 });
    }
}

/// Diffs one request section. Strategy: longest exactly-equal prefix and
/// suffix become `Copy` runs; the disturbed middle is walked pairwise,
/// bridging timing-only changes with `Retime` and size-only changes with
/// `Resize`, falling back to `Remove`+`Insert`. Adjacent `Copy`/`Remove`
/// runs are merged, so a self-diff is one `Copy` op.
fn diff_requests(base: &[RequestEvent], next: &[RequestEvent]) -> Vec<EditOp> {
    let prefix = base
        .iter()
        .zip(next.iter())
        .take_while(|(a, b)| a == b)
        .count();
    let suffix = base[prefix..]
        .iter()
        .rev()
        .zip(next[prefix..].iter().rev())
        .take_while(|(a, b)| a == b)
        .count();

    let mut ops = Vec::new();
    if prefix > 0 {
        ops.push(EditOp::Copy { count: prefix });
    }

    let mid_base = &base[prefix..base.len() - suffix];
    let mid_next = &next[prefix..next.len() - suffix];
    let pairs = mid_base.len().min(mid_next.len());
    for i in 0..pairs {
        let (a, b) = (&mid_base[i], &mid_next[i]);
        if a == b {
            push_copy(&mut ops);
        } else if retimeable(a, b) {
            ops.push(EditOp::Retime {
                dts: b.ts.wrapping_sub(a.ts) as i64,
                dte: b.te.wrapping_sub(a.te) as i64,
                dps: b.ps as i64 - a.ps as i64,
                dpe: b.pe as i64 - a.pe as i64,
            });
        } else if resizeable(a, b) {
            ops.push(EditOp::Resize {
                dsize: b.size.wrapping_sub(a.size) as i64,
            });
        } else {
            push_remove(&mut ops);
            ops.push(EditOp::Insert { request: *b });
        }
    }
    for _ in pairs..mid_base.len() {
        push_remove(&mut ops);
    }
    for b in &mid_next[pairs..] {
        ops.push(EditOp::Insert { request: *b });
    }

    if suffix > 0 {
        if let Some(EditOp::Copy { count }) = ops.last_mut() {
            *count += suffix;
        } else {
            ops.push(EditOp::Copy { count: suffix });
        }
    }
    ops
}

/// Computes the edit script turning `base` into `next`. Total: any pair
/// of profiles diffs (worst case remove-all + insert-all), and
/// [`apply_delta`]`(base, diff_profiles(base, next))` always reproduces
/// `next` exactly.
pub fn diff_profiles(base: &ProfiledRequests, next: &ProfiledRequests) -> ProfileDelta {
    ProfileDelta {
        base: fingerprint_profile(base),
        init_count: next.init_count,
        num_phases: next.num_phases,
        window_len: next.window_len,
        statics: diff_requests(&base.statics, &next.statics),
        dynamics: diff_requests(&base.dynamics, &next.dynamics),
        instance_windows: (base.instance_windows != next.instance_windows)
            .then(|| next.instance_windows.clone()),
        instance_arrivals: (base.instance_arrivals != next.instance_arrivals)
            .then(|| next.instance_arrivals.clone()),
    }
}

fn apply_requests(
    base: &[RequestEvent],
    ops: &[EditOp],
    section: &'static str,
) -> Result<Vec<RequestEvent>, DeltaError> {
    let mut out = Vec::with_capacity(base.len());
    let mut cursor = 0usize;
    let take = |cursor: &mut usize, n: usize| -> Result<usize, DeltaError> {
        let at = *cursor;
        if base.len() - at < n {
            return Err(DeltaError::Overrun { section });
        }
        *cursor += n;
        Ok(at)
    };
    for op in ops {
        match op {
            EditOp::Copy { count } => {
                if *count == 0 {
                    return Err(DeltaError::FieldOutOfRange {
                        field: "copy count",
                    });
                }
                let at = take(&mut cursor, *count)?;
                out.extend_from_slice(&base[at..at + count]);
            }
            EditOp::Remove { count } => {
                if *count == 0 {
                    return Err(DeltaError::FieldOutOfRange {
                        field: "remove count",
                    });
                }
                take(&mut cursor, *count)?;
            }
            EditOp::Insert { request } => out.push(*request),
            EditOp::Retime { dts, dte, dps, dpe } => {
                let at = take(&mut cursor, 1)?;
                let r = &base[at];
                let phase = |cur: u32, d: i64, field| -> Result<u32, DeltaError> {
                    u32::try_from(cur as i64 + d).map_err(|_| DeltaError::FieldOutOfRange { field })
                };
                out.push(RequestEvent {
                    ts: r.ts.wrapping_add(*dts as u64),
                    te: r.te.wrapping_add(*dte as u64),
                    ps: phase(r.ps, *dps, "ps")?,
                    pe: phase(r.pe, *dpe, "pe")?,
                    ..*r
                });
            }
            EditOp::Resize { dsize } => {
                let at = take(&mut cursor, 1)?;
                let r = &base[at];
                out.push(RequestEvent {
                    size: r.size.wrapping_add(*dsize as u64),
                    ..*r
                });
            }
        }
    }
    if cursor != base.len() {
        return Err(DeltaError::Underrun {
            section,
            remaining: base.len() - cursor,
        });
    }
    Ok(out)
}

/// Replays an edit script against its base profile, producing the next
/// profile. Refuses to run against the wrong base
/// ([`DeltaError::BaseMismatch`]) and rejects scripts that do not
/// consume the base exactly — so a decoded-from-the-wire delta can never
/// silently produce a profile its sender did not intend.
pub fn apply_delta(
    base: &ProfiledRequests,
    delta: &ProfileDelta,
) -> Result<ProfiledRequests, DeltaError> {
    let actual = fingerprint_profile(base);
    if actual != delta.base {
        return Err(DeltaError::BaseMismatch {
            expected: delta.base,
            actual,
        });
    }
    let statics = apply_requests(&base.statics, &delta.statics, "statics")?;
    if delta.init_count > statics.len() {
        return Err(DeltaError::FieldOutOfRange {
            field: "init_count",
        });
    }
    let dynamics = apply_requests(&base.dynamics, &delta.dynamics, "dynamics")?;
    let instance_arrivals = delta
        .instance_arrivals
        .clone()
        .unwrap_or_else(|| base.instance_arrivals.clone());
    for (_, seq) in &instance_arrivals {
        if seq.iter().any(|&i| i as usize >= dynamics.len()) {
            return Err(DeltaError::FieldOutOfRange {
                field: "instance_arrivals",
            });
        }
    }
    Ok(ProfiledRequests {
        statics,
        init_count: delta.init_count,
        dynamics,
        num_phases: delta.num_phases,
        window_len: delta.window_len,
        instance_windows: delta
            .instance_windows
            .clone()
            .unwrap_or_else(|| base.instance_windows.clone()),
        instance_arrivals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_gen::{ModelSpec, ModuleId, OptimConfig, ParallelConfig, TrainJob};

    fn profile(microbatches: u32) -> ProfiledRequests {
        let trace = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(microbatches)
        .with_iterations(2)
        .build_trace()
        .unwrap();
        crate::profile_trace(&trace, 1).unwrap()
    }

    #[test]
    fn self_diff_is_all_copy_and_applies() {
        let p = profile(4);
        let d = diff_profiles(&p, &p);
        assert_eq!(
            d.statics,
            vec![EditOp::Copy {
                count: p.statics.len()
            }]
        );
        assert_eq!(
            d.dynamics,
            if p.dynamics.is_empty() {
                vec![]
            } else {
                vec![EditOp::Copy {
                    count: p.dynamics.len(),
                }]
            }
        );
        assert!(d.instance_windows.is_none());
        assert!(d.instance_arrivals.is_none());
        assert_eq!(d.disturbed(), 0);
        assert_eq!(apply_delta(&p, &d).unwrap(), p);
    }

    #[test]
    fn retime_resize_insert_remove_all_roundtrip() {
        let base = profile(4);
        let mut next = base.clone();
        // A timing shift, a size change, a removal, and an insertion —
        // all inside the iteration body.
        let k = base.init_count + 3;
        next.statics[k].ts += 2;
        next.statics[k].te += 2;
        next.statics[k + 1].size += 1024;
        next.statics.remove(k + 5);
        next.statics.insert(
            k + 7,
            RequestEvent {
                size: 4096,
                ts: 50,
                te: 60,
                ps: 1,
                pe: 1,
                dynamic: false,
                ls: None,
                le: None,
            },
        );
        let d = diff_profiles(&base, &next);
        assert!(d.statics.iter().any(|o| matches!(o, EditOp::Retime { .. })));
        assert!(d.statics.iter().any(|o| matches!(o, EditOp::Resize { .. })));
        assert!(d.statics.iter().any(|o| matches!(o, EditOp::Insert { .. })));
        assert!(d.statics.iter().any(|o| matches!(o, EditOp::Remove { .. })));
        assert_eq!(apply_delta(&base, &d).unwrap(), next);
        // Most of the profile is untouched and the script says so.
        assert!(d.copied() > d.disturbed() * 10);
    }

    #[test]
    fn disjoint_profiles_still_roundtrip() {
        let a = profile(2);
        let b = profile(4);
        assert_eq!(apply_delta(&a, &diff_profiles(&a, &b)).unwrap(), b);
        assert_eq!(apply_delta(&b, &diff_profiles(&b, &a)).unwrap(), a);
        let empty = ProfiledRequests::default();
        assert_eq!(apply_delta(&empty, &diff_profiles(&empty, &a)).unwrap(), a);
        assert_eq!(apply_delta(&a, &diff_profiles(&a, &empty)).unwrap(), empty);
    }

    #[test]
    fn wrong_base_is_rejected() {
        let a = profile(2);
        let b = profile(4);
        let d = diff_profiles(&a, &b);
        match apply_delta(&b, &d) {
            Err(DeltaError::BaseMismatch { expected, actual }) => {
                assert_eq!(expected, fingerprint_profile(&a));
                assert_eq!(actual, fingerprint_profile(&b));
            }
            other => panic!("expected BaseMismatch, got {other:?}"),
        }
    }

    #[test]
    fn malformed_scripts_are_rejected() {
        let p = profile(2);
        let fp = fingerprint_profile(&p);
        let delta = |statics: Vec<EditOp>| ProfileDelta {
            base: fp,
            init_count: p.init_count,
            num_phases: p.num_phases,
            window_len: p.window_len,
            statics,
            dynamics: vec![],
            instance_windows: None,
            instance_arrivals: None,
        };
        // Dynamics script must consume dynamics (empty here, so an empty
        // script is fine) — but the statics script underruns...
        assert!(matches!(
            apply_delta(&p, &delta(vec![])),
            Err(DeltaError::Underrun {
                section: "statics",
                ..
            })
        ));
        // ...or overruns...
        assert!(matches!(
            apply_delta(
                &p,
                &delta(vec![EditOp::Copy {
                    count: p.statics.len() + 1
                }])
            ),
            Err(DeltaError::Overrun { section: "statics" })
        ));
        // ...or carries a zero count...
        assert!(matches!(
            apply_delta(
                &p,
                &delta(vec![
                    EditOp::Copy { count: 0 },
                    EditOp::Copy {
                        count: p.statics.len()
                    }
                ])
            ),
            Err(DeltaError::FieldOutOfRange {
                field: "copy count"
            })
        ));
        // ...or shifts a phase below zero.
        assert!(matches!(
            apply_delta(
                &p,
                &delta(vec![
                    EditOp::Retime {
                        dts: 0,
                        dte: 0,
                        dps: -1,
                        dpe: 0
                    },
                    EditOp::Copy {
                        count: p.statics.len() - 1
                    }
                ])
            ),
            Err(DeltaError::FieldOutOfRange { field: "ps" })
        ));
    }

    #[test]
    fn arrival_indices_are_checked_against_applied_dynamics() {
        let base = profile(2);
        let mut d = diff_profiles(&base, &base);
        d.instance_arrivals = Some(vec![(
            InstanceKey {
                module: ModuleId(7),
                phase: 1,
            },
            vec![base.dynamics.len() as u32],
        )]);
        assert!(matches!(
            apply_delta(&base, &d),
            Err(DeltaError::FieldOutOfRange {
                field: "instance_arrivals"
            })
        ));
    }

    #[test]
    fn wholesale_sections_replace_and_absent_sections_inherit() {
        let base = profile(2);
        let mut next = base.clone();
        next.instance_windows = vec![(
            InstanceKey {
                module: ModuleId(3),
                phase: 2,
            },
            (1, 9),
        )];
        let d = diff_profiles(&base, &next);
        assert!(d.instance_windows.is_some());
        assert!(d.instance_arrivals.is_none());
        assert_eq!(apply_delta(&base, &d).unwrap(), next);
    }
}
