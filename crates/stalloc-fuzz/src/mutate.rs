//! Deterministic mutation engine: byte-level havoc over corpus seeds,
//! a dictionary of codec-hostile tokens, and structure-aware mutants
//! (decode → tweak a field → re-encode) that stay on the valid-input
//! path where the differential oracles bite.

use rand::{Rng, SeedableRng, StdRng};
use stalloc_core::{EditOp, StrategyChoice};
use stalloc_store::{
    decode_plan, decode_profile, decode_profile_delta, encode_plan, encode_profile,
    encode_profile_delta,
};

/// Tokens the byte mutator splices in: overlong and overflowing varints,
/// huge counts, and the values most likely to flip a decoder branch.
pub const DICTIONARY: &[&[u8]] = &[
    &[0x80, 0x00],                   // overlong (non-canonical) varint
    &[0xff; 11],                     // varint overflow
    &[0xff, 0xff, 0xff, 0xff, 0x7f], // huge 35-bit count
    &[0x80, 0x80, 0x80, 0x80, 0x10], // 2^32 — first value past u32
    &[0x00],
    &[0x01],
    &[0xff],
    // Trace-context JSON fragments: splicing these into a request frame
    // probes the wire trace-field decoder (malformed hex, wrong widths).
    br#""trace":{"trace_id":""#,
    br#""trace_id":"zz","#,
    br#""span_id":"0","#,
];

const INTERESTING_BYTES: &[u8] = &[0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff];

/// Largest mutant the engine will produce (keeps worst-case decode cost
/// per iteration bounded).
pub const MAX_MUTANT_LEN: usize = 1 << 20;

/// Deterministic byte mutator over a seeded xoshiro stream.
pub struct Mutator {
    rng: StdRng,
}

impl Mutator {
    pub fn new(seed: u64) -> Self {
        Mutator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform index into a non-empty collection.
    pub fn pick_index(&mut self, len: usize) -> usize {
        self.rng.gen_range(0..len.max(1))
    }

    pub fn gen_range_u32(&mut self, hi: u32) -> u32 {
        self.rng.gen_range(0..hi.max(1))
    }

    /// One mutant of `input`: usually a single havoc step, sometimes a
    /// short stack of them.
    pub fn mutate(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = input.to_vec();
        let steps = if self.rng.gen_bool(0.25) {
            self.rng.gen_range(2usize..5)
        } else {
            1
        };
        for _ in 0..steps {
            self.mutate_once(&mut out);
        }
        out.truncate(MAX_MUTANT_LEN);
        out
    }

    fn mutate_once(&mut self, buf: &mut Vec<u8>) {
        if buf.is_empty() {
            buf.push(self.rng.gen_range(0u64..256) as u8);
            return;
        }
        match self.rng.gen_range(0u32..9) {
            0 => {
                // Flip one bit.
                let i = self.pick_index(buf.len());
                buf[i] ^= 1 << self.rng.gen_range(0u32..8);
            }
            1 => {
                // Overwrite with an interesting byte.
                let i = self.pick_index(buf.len());
                buf[i] = INTERESTING_BYTES[self.pick_index(INTERESTING_BYTES.len())];
            }
            2 => {
                // Truncate.
                buf.truncate(self.pick_index(buf.len()));
            }
            3 => {
                // Insert a few random bytes.
                let at = self.pick_index(buf.len() + 1);
                let n = self.rng.gen_range(1usize..9);
                let fresh: Vec<u8> = (0..n)
                    .map(|_| self.rng.gen_range(0u64..256) as u8)
                    .collect();
                buf.splice(at..at, fresh);
            }
            4 => {
                // Insert a dictionary token.
                let token = DICTIONARY[self.pick_index(DICTIONARY.len())];
                let at = self.pick_index(buf.len() + 1);
                buf.splice(at..at, token.iter().copied());
            }
            5 => {
                // Remove a chunk.
                let start = self.pick_index(buf.len());
                let len = self.rng.gen_range(1usize..17).min(buf.len() - start);
                buf.drain(start..start + len);
            }
            6 => {
                // Duplicate a chunk elsewhere (splice).
                let start = self.pick_index(buf.len());
                let len = self.rng.gen_range(1usize..17).min(buf.len() - start);
                let chunk: Vec<u8> = buf[start..start + len].to_vec();
                let at = self.pick_index(buf.len() + 1);
                buf.splice(at..at, chunk);
            }
            7 => {
                // Header tweak: magic / version bytes are the gatekeepers.
                let i = self.pick_index(buf.len().min(8));
                buf[i] = self.rng.gen_range(0u64..256) as u8;
            }
            _ => {
                // Overwrite a short run with random bytes.
                let start = self.pick_index(buf.len());
                let len = self.rng.gen_range(1usize..9).min(buf.len() - start);
                for b in &mut buf[start..start + len] {
                    *b = self.rng.gen_range(0u64..256) as u8;
                }
            }
        }
    }

    fn any_u64(&mut self, hi: u64) -> u64 {
        self.rng.gen_range(0..hi.max(1))
    }
}

/// Structure-aware `PROF` mutant: decode the seed, tweak one field, and
/// re-encode — always a *valid* stream, so the fixpoint and fingerprint
/// oracles (not just "never panic") get exercised. Returns `None` when
/// the seed itself does not decode.
pub fn structured_profile_mutant(m: &mut Mutator, seed: &[u8]) -> Option<Vec<u8>> {
    let mut p = decode_profile(seed).ok()?;
    match m.gen_range_u32(6) {
        0 => p.num_phases = m.any_u64(1 << 20) as u32,
        1 => p.window_len = m.any_u64(1 << 30),
        2 => {
            if !p.statics.is_empty() {
                let i = m.pick_index(p.statics.len());
                p.statics[i].size = m.any_u64(1 << 40);
            }
        }
        3 => {
            if !p.dynamics.is_empty() {
                let i = m.pick_index(p.dynamics.len());
                p.dynamics[i].ts = m.any_u64(1 << 30);
                p.dynamics[i].te = m.any_u64(1 << 30);
            }
        }
        4 => p.init_count = m.pick_index(p.statics.len() + 1),
        _ => {
            if !p.statics.is_empty() {
                let i = m.pick_index(p.statics.len());
                p.statics[i].ps = m.gen_range_u32(1 << 16);
                p.statics[i].pe = m.gen_range_u32(1 << 16);
            }
        }
    }
    Some(encode_profile(&p))
}

/// Structure-aware `STPL` mutant, mirroring [`structured_profile_mutant`]
/// for plans (including retagging the strategy byte, which drives the
/// fixpoint oracle through every valid strategy index).
pub fn structured_plan_mutant(m: &mut Mutator, seed: &[u8]) -> Option<Vec<u8>> {
    let mut p = decode_plan(seed).ok()?;
    match m.gen_range_u32(5) {
        0 => p.pool_size = m.any_u64(1 << 40),
        1 => {
            let idx = m.pick_index(StrategyChoice::ALL.len()) as u8;
            p.stats.strategy = StrategyChoice::from_index(idx)?;
        }
        2 => {
            if !p.iter_allocs.is_empty() {
                let i = m.pick_index(p.iter_allocs.len());
                p.iter_allocs[i].size = m.any_u64(1 << 40);
                p.iter_allocs[i].offset = m.any_u64(1 << 40);
            }
        }
        3 => {
            p.stats.gap_inserted = m.pick_index(1 << 16);
            p.stats.peak_static_demand = m.any_u64(1 << 40);
        }
        _ => {
            if !p.init_allocs.is_empty() {
                let i = m.pick_index(p.init_allocs.len());
                p.init_allocs[i].ts = m.any_u64(1 << 30);
                p.init_allocs[i].te = m.any_u64(1 << 30);
            }
        }
    }
    Some(encode_plan(&p))
}

/// Structure-aware `PROF-DELTA` mutant: decode the edit script, tweak
/// one field or op, re-encode. The result is always a canonical stream
/// (the encoder is pure), so the fixpoint and — when the base
/// fingerprint survives untouched — the apply/fingerprint differential
/// oracles run, not just the rejection paths. Script *semantics* may no
/// longer fit the base (cursor overrun, underflowing resize); that is
/// the valid refusal path `apply_delta` owns.
pub fn structured_delta_mutant(m: &mut Mutator, seed: &[u8]) -> Option<Vec<u8>> {
    let mut d = decode_profile_delta(seed).ok()?;
    match m.gen_range_u32(6) {
        0 => d.window_len = m.any_u64(1 << 30),
        1 => d.num_phases = m.gen_range_u32(1 << 20),
        2 => d.init_count = m.pick_index(1 << 12),
        3 => {
            if !d.statics.is_empty() {
                let i = m.pick_index(d.statics.len());
                let signed = |m: &mut Mutator| m.any_u64(1 << 21) as i64 - (1 << 20);
                d.statics[i] = match m.gen_range_u32(4) {
                    0 => EditOp::Resize { dsize: signed(m) },
                    1 => EditOp::Retime {
                        dts: signed(m),
                        dte: signed(m),
                        dps: signed(m),
                        dpe: signed(m),
                    },
                    2 => EditOp::Remove {
                        count: 1 + m.pick_index(8),
                    },
                    _ => EditOp::Copy {
                        count: 1 + m.pick_index(8),
                    },
                };
            }
        }
        4 => {
            // Toggle the wholesale sections between inherit and replace.
            if d.instance_windows.is_some() {
                d.instance_windows = None;
            } else {
                d.instance_arrivals = match d.instance_arrivals {
                    Some(_) => None,
                    None => Some(Vec::new()),
                };
            }
        }
        _ => {
            // Stretch a Copy run: the cursor discipline is where
            // apply-time accounting bugs would live.
            if let Some(EditOp::Copy { count }) = d.statics.first_mut() {
                *count = count.saturating_add(1 + m.pick_index(4));
            } else {
                d.statics.insert(0, EditOp::Copy { count: 1 });
            }
        }
    }
    Some(encode_profile_delta(&d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_is_deterministic_for_a_seed() {
        let input = b"PROF\x01\x00hello world".to_vec();
        let a: Vec<Vec<u8>> = {
            let mut m = Mutator::new(7);
            (0..50).map(|_| m.mutate(&input)).collect()
        };
        let b: Vec<Vec<u8>> = {
            let mut m = Mutator::new(7);
            (0..50).map(|_| m.mutate(&input)).collect()
        };
        assert_eq!(a, b);
        let mut m = Mutator::new(8);
        let c: Vec<Vec<u8>> = (0..50).map(|_| m.mutate(&input)).collect();
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn mutants_stay_bounded() {
        let mut m = Mutator::new(1);
        let input = vec![0xab; 1000];
        for _ in 0..500 {
            assert!(m.mutate(&input).len() <= MAX_MUTANT_LEN);
        }
    }
}
