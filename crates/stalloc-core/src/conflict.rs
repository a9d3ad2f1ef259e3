//! The one definition of "pairwise conflict-free" for rects in the
//! time × address plane: [`first_conflict`], behind
//! [`Plan::validate`](crate::Plan::validate), the packer's debug checks
//! and the replay harness's stomp oracle. Re-exported as
//! `geometry::first_conflict`, beside the packer whose index it borrows
//! its shape from.
//!
//! A top-level module on purpose. The check shares no code with the
//! runtime allocator, yet compiled as part of `geometry` — next to
//! `IntervalSet`, or as a submodule of it — it raised `replay_ns_per_op`
//! by 6–7 % on `moe-dyn` (code placement under `lto = "thin"`,
//! `codegen-units = 4`; ROADMAP's ledger item has the runs). From here
//! the rise is 2–3 %.

use crate::geometry::{Rect, CHUNK_CAP};

/// One entry of a [`LiveSet`]: an address range and the tick it is freed.
#[derive(Debug, Clone, Copy)]
struct Span {
    off: u64,
    end: u64,
    t1: u64,
}

/// The address ranges a sweep in allocation order still has to look at:
/// pairwise address-disjoint spans in ascending offset order, held in
/// runs of at most [`CHUNK_CAP`] (never empty) so that an insert or a
/// removal shifts one short run. A span whose range was freed stays
/// until a newcomer reaches into its range; every span still live at the
/// sweep's tick is in the set.
///
/// `heads[k]` is `runs[k][0].off`: the search for a newcomer's run reads
/// one flat array instead of following a pointer per probe.
#[derive(Debug, Default)]
struct LiveSet {
    heads: Vec<u64>,
    runs: Vec<Vec<Span>>,
}

impl LiveSet {
    /// Admits `r`, which must start no earlier than every rect admitted
    /// before it. The spans reaching into its address range were either
    /// freed by `r.t0` — those are retired, the first by handing its
    /// slot to `r` — or one is still live: `None`, and the set is spent.
    /// Otherwise returns how many spans `r` retired. One search, one
    /// insert, and every span is retired at most once.
    fn admit(&mut self, r: &Rect) -> Option<usize> {
        let end = r.off + r.len;
        let span = Span {
            off: r.off,
            end,
            t1: r.t1,
        };
        // Just past the last span starting below `end`: with nothing to
        // retire, where `r` goes. Disjoint spans ascend in `end` as well,
        // so the walk down from here stops at the first one below `r`.
        let mut ri = self.heads.partition_point(|&h| h < end).saturating_sub(1);
        let mut i = self
            .runs
            .get(ri)
            .map_or(0, |run| run.partition_point(|s| s.off < end));
        let landing = (ri, i);
        let mut retired = 0;
        loop {
            if i == 0 {
                if ri == 0 {
                    break;
                }
                ri -= 1;
                i = self.runs[ri].len();
            }
            let below = self.runs[ri][i - 1];
            if below.end <= r.off {
                break;
            }
            if below.t1 > r.t0 {
                return None;
            }
            i -= 1;
            if retired == 0 {
                self.runs[ri][i] = span;
                if i == 0 {
                    self.heads[ri] = span.off;
                }
            } else {
                self.runs[ri].remove(i);
                if self.runs[ri].is_empty() {
                    self.runs.remove(ri);
                    self.heads.remove(ri);
                } else if i == 0 {
                    self.heads[ri] = self.runs[ri][0].off;
                }
            }
            retired += 1;
        }
        if retired == 0 {
            self.insert(landing, span);
        }
        Some(retired)
    }

    /// Inserts `span` as member `i` of run `ri`, splitting a full run.
    fn insert(&mut self, (mut ri, mut i): (usize, usize), span: Span) {
        if self.runs.is_empty() {
            self.runs.push(Vec::with_capacity(CHUNK_CAP));
            self.heads.push(span.off);
        } else if self.runs[ri].len() == CHUNK_CAP {
            let mut upper = Vec::with_capacity(CHUNK_CAP);
            upper.extend(self.runs[ri].drain(CHUNK_CAP / 2..));
            self.heads.insert(ri + 1, upper[0].off);
            self.runs.insert(ri + 1, upper);
            if i > CHUNK_CAP / 2 {
                ri += 1;
                i -= CHUNK_CAP / 2;
            }
        }
        self.runs[ri].insert(i, span);
        if i == 0 {
            self.heads[ri] = span.off;
        }
    }
}

/// The one definition of "pairwise conflict-free": in ascending `t0`
/// order (ties in the order given), the first rect that overlaps an
/// earlier one in both time and address range, or `None` if no two do.
/// Rects of `len == 0` occupy nothing and are ignored; every other rect
/// must have `t0 < t1` and an `off + len` that does not overflow.
///
/// One pass in allocation order, then per rect one search of the
/// address-ordered set of ranges not yet seen reused, one insert and at
/// most one retirement — O(n · (log n + 64)) whatever the input. Input
/// already in that order — a plan's decisions, a replay's allocations —
/// is swept as it comes; any other is first copied and stable-sorted by
/// `t0`.
pub fn first_conflict<I>(rects: I) -> Option<Rect>
where
    I: IntoIterator<Item = Rect>,
    I::IntoIter: Clone,
{
    let rects = rects.into_iter().filter(|r| r.len > 0);
    if rects.clone().is_sorted_by_key(|r| r.t0) {
        return sweep(rects);
    }
    let mut sorted: Vec<Rect> = rects.collect();
    sorted.sort_by_key(|r| r.t0);
    sweep(sorted)
}

/// [`first_conflict`] of rects that arrive in ascending `t0` order.
fn sweep(rects: impl IntoIterator<Item = Rect>) -> Option<Rect> {
    let mut live = LiveSet::default();
    rects.into_iter().find(|r| live.admit(r).is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Spans a live set holds.
    fn held(set: &LiveSet) -> usize {
        set.runs.iter().map(Vec::len).sum()
    }

    /// Runs are never empty, never over capacity, and their spans ascend
    /// without touching, within and across runs; the head index names
    /// each run's first offset.
    fn check_live_set(set: &LiveSet) {
        assert!(set
            .runs
            .iter()
            .all(|run| !run.is_empty() && run.len() <= CHUNK_CAP));
        let firsts: Vec<u64> = set.runs.iter().map(|run| run[0].off).collect();
        assert_eq!(set.heads, firsts, "the head index is out of step");
        let spans: Vec<&Span> = set.runs.iter().flatten().collect();
        assert!(spans.iter().all(|s| s.off < s.end));
        assert!(spans.windows(2).all(|w| w[0].end <= w[1].off));
    }

    /// Admits conflict-free `rects` (ascending `t0`) one by one and counts
    /// the work: each rect is inserted exactly once — the set grows by one
    /// less what the rect retired — and returns the total retired.
    fn admit_all(set: &mut LiveSet, rects: impl IntoIterator<Item = Rect>) -> usize {
        let mut retired = 0;
        for r in rects {
            let before = held(set);
            let gone = set.admit(&r).expect("conflict-free by construction");
            assert_eq!(held(set), before + 1 - gone, "one insert, {gone} retired");
            retired += gone;
        }
        retired
    }

    /// The first rect, in stable `t0` order, that conflicts with an earlier
    /// one: `first_conflict` by its definition, all pairs compared.
    fn first_conflict_by_pairs(rects: &[Rect]) -> Option<Rect> {
        let mut order: Vec<Rect> = rects.iter().copied().filter(|r| r.len > 0).collect();
        order.sort_by_key(|r| r.t0);
        (0..order.len())
            .find(|&j| order[..j].iter().any(|a| a.conflicts(&order[j])))
            .map(|j| order[j])
    }

    proptest! {
        /// Dense little planes: many shared offsets and ticks, zero
        /// lengths, `t0` in no order, more rects than one run holds.
        #[test]
        fn first_conflict_matches_all_pairs(
            rects in prop::collection::vec((0u64..24, 1u64..6, 0u64..40, 0u64..5), 0..200),
            grid in 1u64..4,
        ) {
            let rects: Vec<Rect> = rects
                .into_iter()
                .map(|(t0, dur, slot, len)| Rect { t0, t1: t0 + dur, off: slot * grid, len })
                .collect();
            prop_assert_eq!(
                first_conflict(rects.iter().copied()),
                first_conflict_by_pairs(&rects)
            );
            // The same plane in allocation order is swept as it comes.
            let mut in_order = rects;
            in_order.sort_by_key(|r| r.t0);
            prop_assert_eq!(
                first_conflict(in_order.iter().copied()),
                first_conflict_by_pairs(&in_order)
            );
        }

        /// Every admission leaves the set well formed, its head index in
        /// step with the runs: conflict-free planes wide enough that runs
        /// split, and whose wide rects retire spans across runs and empty
        /// some of them.
        #[test]
        fn every_admission_keeps_the_set_well_formed(
            rects in prop::collection::vec((0u64..40, 1u64..30, 0u64..300, 0u64..16), 0..600),
        ) {
            // Slots four bytes wide, and one rect in sixteen over 64 slots.
            let mut rects: Vec<Rect> = rects
                .into_iter()
                .map(|(t0, dur, slot, len)| Rect {
                    t0,
                    t1: t0 + dur,
                    off: 4 * slot,
                    len: if len == 0 { 256 } else { 1 + len % 4 },
                })
                .collect();
            rects.sort_by_key(|r| r.t0);
            let mut kept: Vec<Rect> = Vec::new();
            for r in rects {
                if !kept.iter().any(|k| k.conflicts(&r)) {
                    kept.push(r);
                }
            }
            let mut set = LiveSet::default();
            for r in &kept {
                prop_assert!(set.admit(r).is_some(), "{r:?} conflicts with nothing kept");
                check_live_set(&set);
            }
        }
    }

    #[test]
    fn first_conflict_reads_lifetimes_half_open_and_ignores_empty_rects() {
        let at = |t0, t1, off, len| Rect { t0, t1, off, len };
        // Freed at tick 5, reused at tick 5; neighbours share an edge.
        let sound = [
            at(0, 5, 0, 8),
            at(5, 9, 0, 8),
            at(0, 9, 8, 8),
            at(3, 4, 4, 0),
        ];
        assert_eq!(first_conflict(sound), None);
        // The later of two conflicting rects is the one reported, whatever
        // the order they come in.
        let late = at(4, 6, 7, 2);
        assert_eq!(first_conflict([late, sound[0], sound[2]]), Some(late));
        assert_eq!(first_conflict([sound[0], sound[0]]), Some(sound[0]));
    }

    /// The work bound behind `first_conflict`'s O(n · (log n + 64)), counted
    /// rather than timed: 100k rects, each inserted once and retired at
    /// most once, on the input that retires the most per newcomer and on
    /// the one that lands every rect on the same offset.
    #[test]
    fn live_set_work_is_one_insert_and_at_most_one_retirement_per_rect() {
        const N: usize = 100_000;
        // Rounds of 199 unit rects side by side, freed together, then one
        // rect across all of them: it retires 199 spans over four runs, and
        // the next round's first rect retires it.
        let wide_rounds = (0..N as u64).map(|i| {
            let (round, k) = (i / 200, i % 200);
            if k < 199 {
                Rect {
                    t0: 2 * round,
                    t1: 2 * round + 1,
                    off: k,
                    len: 1,
                }
            } else {
                Rect {
                    t0: 2 * round + 1,
                    t1: 2 * round + 2,
                    off: 0,
                    len: 199,
                }
            }
        });
        let mut set = LiveSet::default();
        let retired = admit_all(&mut set, wide_rounds.clone());
        assert_eq!(retired + held(&set), N, "retired once or still held");
        assert_eq!(held(&set), 1, "all but the last wide rect were retired");
        check_live_set(&set);
        assert_eq!(first_conflict(wide_rounds), None);

        // One offset, back to back: every rect takes over its predecessor's
        // slot, and the set never grows.
        let one_offset = (0..N as u64).map(|t| Rect {
            t0: t,
            t1: t + 1,
            off: 64,
            len: 8,
        });
        let mut set = LiveSet::default();
        assert_eq!(admit_all(&mut set, one_offset.clone()), N - 1);
        assert_eq!(held(&set), 1);
        assert_eq!(first_conflict(one_offset), None);

        // Nothing ever retires: 100k live spans, descending offsets (every
        // insert lands at the front), and the runs still split at 64.
        let all_live = (0..N as u64).map(|i| Rect {
            t0: i,
            t1: u64::MAX,
            off: (N as u64 - i) * 2,
            len: 2,
        });
        let mut set = LiveSet::default();
        assert_eq!(admit_all(&mut set, all_live), 0);
        assert_eq!(held(&set), N);
        check_live_set(&set);
        // ... until one rect over the whole range meets the topmost, live.
        assert_eq!(
            set.admit(&Rect {
                t0: N as u64,
                t1: u64::MAX,
                off: 0,
                len: u64::MAX
            }),
            None
        );
    }
}
