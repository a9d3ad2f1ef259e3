//! Global planning (paper §5.1, Fig. 6 right + Algorithm 1).
//!
//! HomoPhase plans become unified requests and are grouped by
//! identical footprint into *HomoSize Groups*. Groups are processed in
//! descending size order; each member is first offered to the idle
//! intervals of already-placed regions (gap insertion), and the remainder
//! are packed into *memory-layers* via Algorithm 1 — same-size requests
//! with disjoint lifespans share one layer. Layers are stacked to form the
//! final static pool, and every original request receives an absolute
//! offset.
//!
//! Placed plans are recorded at *member granularity*: a region's packer
//! holds the individual request rectangles, so the idle staircase left as a
//! cohort's tensors free one by one is visible to later gap insertions.
//!
//! [`assemble`] reads its two switches off the [`SynthConfig`] and returns
//! the [`StaticLayout`] every strategy returns; [`refine_first_fit`] is the
//! flag-independent sweep `baseline_layout` compares it with.

use std::collections::BTreeMap;

use crate::geometry::{LiveSweep, Rect, TimeAxis, TimeSpacePacker};
use crate::plan::phase_group::LocalPlan;
use crate::plan::{StaticLayout, SynthConfig};
use crate::profiler::RequestEvent;

/// A lifetime `[t0, t1)` with both ends ranked on the profile's
/// [`TimeAxis`], the time axis of every region's occupancy index: `k0..k1`
/// are the ranks of the start ticks inside it. Ranked once per request,
/// not once per probe; a probe only ever starts at a start tick.
#[derive(Debug, Clone, Copy)]
struct Window {
    t0: u64,
    t1: u64,
    k0: usize,
    k1: usize,
}

impl Window {
    fn new(axis: &TimeAxis, t0: u64, t1: u64) -> Self {
        Window {
            t0,
            t1,
            k0: axis.rank(t0),
            k1: axis.rank(t1),
        }
    }
}

/// A placed region of the pool: one memory-layer.
///
/// The packer answers *where* a rectangle fits. Most probes of a layer,
/// though, fail, and nearly all of those for the plain reason that the
/// layer is full: at some tick of the window it has fewer than `len` free
/// bytes. So the layer also keeps its occupied bytes over time, and
/// [`Region::fit`] asks that first.
#[derive(Debug)]
struct Region {
    base: u64,
    size: u64,
    packer: TimeSpacePacker,
    /// Free tick of the last Algorithm-1 appended member.
    end: u64,
    /// Fenwick tree (range add, point query; 1-based) over the ranks of
    /// the [`TimeAxis`]: the prefix sum up to rank `k` is the bytes
    /// occupied at the `k`-th start tick.
    occupied: Vec<u64>,
}

impl Region {
    fn new(base: u64, size: u64, axis: &TimeAxis) -> Self {
        Region {
            base,
            size,
            packer: TimeSpacePacker::new(),
            end: 0,
            occupied: vec![0; axis.ranks() + 1],
        }
    }

    /// Adds `delta` (wrapping: a negative delta is its two's complement)
    /// to the occupancy of every rank from `k` up.
    fn add_from(&mut self, k: usize, delta: u64) {
        let mut i = k + 1;
        while i < self.occupied.len() {
            self.occupied[i] = self.occupied[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Bytes occupied at the `k`-th start tick.
    fn occupied_at(&self, k: usize) -> u64 {
        let mut sum = 0u64;
        let mut i = k + 1;
        while i > 0 {
            sum = sum.wrapping_add(self.occupied[i]);
            i &= i - 1;
        }
        sum
    }

    /// Records `len` bytes at `off` (relative to the region's base) as
    /// occupied over `w`. With [`Self::fit`], the only site that touches
    /// the packer.
    fn place(&mut self, w: Window, off: u64, len: u64) {
        self.add_from(w.k0, len);
        self.add_from(w.k1, len.wrapping_neg());
        self.packer.place_at(Rect {
            t0: w.t0,
            t1: w.t1,
            off,
            len,
        });
    }

    /// The lowest offset in the region where `len` bytes fit over `w`, if
    /// any. A fit needs `len` free bytes at every tick of the window, so a
    /// region with fewer than that at the window's first start tick says
    /// no in O(log n), without a scan. The test is only a necessary
    /// condition: it skips nothing but probes the packer would have
    /// failed, which debug builds re-prove on every rejection. (`k0 < k1`
    /// holds for every request and every plan built from requests; it
    /// keeps a hand-made window without a start tick off the test.)
    fn fit(&self, w: Window, len: u64) -> Option<u64> {
        if w.k0 < w.k1 && self.size - self.occupied_at(w.k0) < len {
            debug_assert_eq!(
                self.packer.find_first_fit(w.t0, w.t1, len, self.size),
                None,
                "occupancy test rejected a probe the packer can place"
            );
            return None;
        }
        self.packer.find_first_fit(w.t0, w.t1, len, self.size)
    }
}

/// Final address-assignment refinement: a global first-fit sweep over all
/// requests in allocation order. The group machinery below decides
/// *structure* (which requests share layers, what reuses what); this pass
/// squeezes the remaining inter-cohort bubbles that group-at-a-time
/// placement cannot see (it is kept only when it produces a smaller pool).
/// Returns `(request_offsets, pool_size)`.
///
/// In allocation order every request already placed started at or before
/// the one being placed, so it is in the way iff it is still live at that
/// tick: the [`LiveSweep`] keeps the free address space of the *live* set
/// only, and first-fit is its lowest gap.
pub fn refine_first_fit(reqs: &[RequestEvent]) -> (Vec<u64>, u64) {
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    // Allocation order; larger first among simultaneous arrivals.
    order.sort_unstable_by_key(|&i| (reqs[i].ts, u64::MAX - reqs[i].size));
    let mut sweep = LiveSweep::new();
    let mut offsets = vec![0u64; reqs.len()];
    for i in order {
        let r = &reqs[i];
        offsets[i] = sweep.pack(r.ts, r.window_end(), r.size);
    }
    (offsets, sweep.height())
}

/// The pool under construction: the memory-layers stacked so far and
/// every request's place in them.
struct Pool<'a> {
    reqs: &'a [RequestEvent],
    axis: TimeAxis,
    /// Every request's lifetime, ranked once instead of per probe.
    windows: Vec<Window>,
    regions: Vec<Region>,
    /// Layers opened for the size class being placed, by region index.
    class_layers: Vec<usize>,
    /// The result so far: `pool_size` is the top of the layer stack.
    layout: StaticLayout,
    // Scratch reused across plans: a plan's members in start order, the
    // ones no existing region took, and the class layers in preference
    // order.
    ordered: Vec<(usize, u64)>,
    spilled: Vec<usize>,
    candidates: Vec<usize>,
}

impl<'a> Pool<'a> {
    fn new(reqs: &'a [RequestEvent]) -> Self {
        let axis = TimeAxis::new(reqs);
        Pool {
            reqs,
            windows: reqs
                .iter()
                .map(|r| Window::new(&axis, r.ts, r.window_end()))
                .collect(),
            axis,
            regions: Vec::new(),
            class_layers: Vec::new(),
            layout: StaticLayout::placed(vec![0; reqs.len()], 0),
            ordered: Vec::new(),
            spilled: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Records request `i` at `off` within region `ri`.
    fn place(&mut self, ri: usize, i: usize, off: u64) {
        let region = &mut self.regions[ri];
        region.place(self.windows[i], off, self.reqs[i].size);
        self.layout.request_offsets[i] = region.base + off;
    }

    /// Stage A: whole-group gap insertion into previously placed
    /// strictly-larger regions (same-size reuse is Algorithm 1's job
    /// below). Thanks to member-granular recording, the query sees
    /// intra-cohort idle space, not just whole-group gaps.
    fn insert_whole(&mut self, plan: &LocalPlan, s: u64) -> bool {
        let lifespan = Window::new(&self.axis, plan.ts, plan.te);
        let mut larger = self.regions.iter().enumerate().filter(|(_, r)| r.size > s);
        let Some((ri, off)) = larger.find_map(|(ri, r)| Some((ri, r.fit(lifespan, s)?))) else {
            return false;
        };
        for &(i, rel) in &plan.members {
            self.place(ri, i, off + rel);
        }
        self.layout.gap_inserted += 1;
        true
    }

    /// Stage B: member-level scatter — each member may sit in the idle
    /// staircase of ANY existing region (a member is an independent
    /// request; group contiguity is not a constraint). Members that fit
    /// nowhere are left in `spilled`. Regions larger than `asked_above`
    /// are not probed: [`Self::insert_whole`] has just asked them the
    /// same question and found no fit.
    fn scatter(&mut self, plan: &LocalPlan, asked_above: u64) {
        let mut ordered = std::mem::take(&mut self.ordered);
        ordered.clear();
        ordered.extend_from_slice(&plan.members);
        ordered.sort_unstable_by_key(|&(i, _)| self.reqs[i].ts);
        for &(i, _) in &ordered {
            let (w, size) = (self.windows[i], self.reqs[i].size);
            let regions = self.regions.iter().enumerate();
            let unasked = |(_, r): &(usize, &Region)| r.size <= asked_above;
            match regions
                .filter(unasked)
                .find_map(|(ri, r)| Some((ri, r.fit(w, size)?)))
            {
                Some((ri, off)) => {
                    self.place(ri, i, off);
                    self.layout.gap_inserted += 1;
                }
                None => self.spilled.push(i),
            }
        }
        self.ordered = ordered;
    }

    /// Stage C, Algorithm 1 lines 4-10, for one member of a group that
    /// starts at `ts`, in size class `s`: the preferred layer is the one
    /// whose end is closest below the group's start; every placement is
    /// conflict-checked so layers shared with scattered residents stay
    /// sound.
    fn layer(&mut self, i: usize, ts: u64, s: u64) {
        let (w, size) = (self.windows[i], self.reqs[i].size);
        // Candidate order: Algorithm-1 preference (latest end <= group
        // start) first, then remaining class layers.
        self.candidates.clear();
        self.candidates.extend_from_slice(&self.class_layers);
        self.candidates.sort_unstable_by_key(|&ri| {
            let end = self.regions[ri].end;
            if end <= ts {
                (0u8, u64::MAX - end)
            } else {
                (1u8, end)
            }
        });
        let mut candidates = self.candidates.iter();
        let found = candidates.find_map(|&ri| Some((ri, self.regions[ri].fit(w, size)?)));
        let (ri, off) = found.unwrap_or_else(|| {
            let ri = self.regions.len();
            self.regions
                .push(Region::new(self.layout.pool_size, s, &self.axis));
            self.layout.pool_size += s;
            self.layout.layers += 1;
            self.class_layers.push(ri);
            (ri, 0)
        });
        self.place(ri, i, off);
        let region = &mut self.regions[ri];
        region.end = region.end.max(w.t1);
    }
}

/// Assigns absolute offsets to every local plan: the layout with its
/// `layers` and `gap_inserted` counted, `phase_groups` left to the caller
/// that built `plans`.
pub fn assemble(plans: &[LocalPlan], reqs: &[RequestEvent], config: &SynthConfig) -> StaticLayout {
    assemble_with(plans, reqs, config, true)
}

/// [`assemble`]; with `skip_asked`, the scatter of a one-member plan
/// skips the regions its whole-plan insertion has already asked.
fn assemble_with(
    plans: &[LocalPlan],
    reqs: &[RequestEvent],
    config: &SynthConfig,
    skip_asked: bool,
) -> StaticLayout {
    // HomoSize grouping by exact footprint.
    let mut by_size: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, p) in plans.iter().enumerate() {
        by_size.entry(p.size.max(1)).or_default().push(i);
    }
    let mut classes: Vec<(u64, Vec<usize>)> = by_size.into_iter().collect();
    if !config.ascending_sizes {
        classes.reverse();
    }

    let mut pool = Pool::new(reqs);
    for (s, mut members) in classes {
        // Algorithm 1 line 2: sort by allocation time.
        members.sort_unstable_by_key(|&i| plans[i].ts);
        pool.class_layers.clear();
        for i in members {
            let plan = &plans[i];
            pool.spilled.clear();
            if config.enable_gap_insertion && !pool.regions.is_empty() {
                if pool.insert_whole(plan, s) {
                    continue;
                }
                // A one-member plan of `s` bytes has its member's window
                // and size, so `insert_whole` asked every region larger
                // than `s` what the scatter would.
                let asked = matches!(plan.members[..], [(only, _)] if reqs[only].size == s);
                pool.scatter(plan, if skip_asked && asked { s } else { u64::MAX });
            } else {
                pool.spilled.extend(plan.members.iter().map(|&(i, _)| i));
            }
            for k in 0..pool.spilled.len() {
                pool.layer(pool.spilled[k], plan.ts, s);
            }
        }
    }
    pool.layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::first_conflict;
    use crate::plan::phase_group::build_phase_groups;
    use crate::profiler::{profile_trace, ProfiledRequests};
    use proptest::prelude::*;
    use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

    /// The refinement sweep this module shipped before the live-set
    /// sweep: every request through one `TimeSpacePacker`, whose first-fit
    /// walks all placed rects. Kept as the oracle [`refine_first_fit`] is
    /// tested against, offset for offset.
    fn refine_by_packer(reqs: &[RequestEvent]) -> (Vec<u64>, u64) {
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        order.sort_unstable_by_key(|&i| (reqs[i].ts, u64::MAX - reqs[i].size));
        let mut packer = TimeSpacePacker::new();
        let mut offsets = vec![0u64; reqs.len()];
        for i in order {
            let r = &reqs[i];
            let (t1, len) = (r.window_end(), r.size);
            let off = packer.find_first_fit(r.ts, t1, len, u64::MAX).unwrap();
            packer.place_at(Rect {
                t0: r.ts,
                t1,
                off,
                len,
            });
            offsets[i] = off;
        }
        (offsets, packer.height())
    }

    fn req(size: u64, ts: u64, te: u64, ps: u32, pe: u32) -> RequestEvent {
        RequestEvent {
            size,
            ts,
            te,
            ps,
            pe,
            dynamic: false,
            ls: None,
            le: None,
        }
    }

    /// A random profile as plain integers, so the vendored proptest can
    /// shrink it: free-form requests `(slot, dur, size, phase, span)`, a
    /// virtual-pipeline family `(microbatches, chunks)` and the tick
    /// mapping `(scale, shift)`.
    type Spec = (Vec<(u64, u64, u64, u32, u32)>, (u64, u64), (u8, u8));

    fn spec() -> impl Strategy<Value = Spec> {
        (
            prop::collection::vec((0u64..48, 0u64..40, 1u64..9, 1u32..5, 0u32..3), 0..90),
            (0u64..5, 1u64..4),
            (0u8..2, 0u8..2),
        )
    }

    /// Requests of a [`Spec`]. Sizes run from 1 byte up; slots collide, so
    /// start ticks repeat; a `dur` below 3 gives `te <= ts`; the pipeline
    /// family allocates a microbatch's chunks in order and frees them in
    /// reverse, so a phase's tensors do not die together; `scale`/`shift`
    /// stretch the ticks and lift them past 2^40 without changing their
    /// order.
    fn requests((free_form, (microbatches, chunks), (scale, shift)): &Spec) -> Vec<RequestEvent> {
        let tick = |t: u64| (t << (33 * u32::from(*scale))) + (u64::from(*shift) << 40);
        let mut reqs: Vec<RequestEvent> = free_form
            .iter()
            .map(|&(slot, dur, size, ps, span)| {
                req(
                    1 + (size - 1) * 512,
                    tick(slot + 3),
                    tick(slot + dur),
                    ps,
                    ps + span,
                )
            })
            .collect();
        for m in 0..*microbatches {
            for c in 0..*chunks {
                let (ts, te) = (2 * (m * chunks + c), 60 + 2 * (m * chunks + chunks - 1 - c));
                reqs.push(req(4096, tick(ts), tick(te), 1 + c as u32, 8 - c as u32));
            }
        }
        reqs
    }

    /// The benchmark's five big profiles: GPT-2 345M VR, Llama2-7B VR,
    /// Qwen2.5-14B V, Qwen1.5-MoE R and VR (`harness::configs` shapes).
    fn zoo() -> Vec<(&'static str, Vec<RequestEvent>)> {
        let r = OptimConfig::r;
        let moe = |parallel: ParallelConfig| {
            TrainJob::new(ModelSpec::qwen15_moe_a27b(), parallel.with_ep(4), r())
                .with_mbs(8)
                .with_seq(2048)
                .with_microbatches(8)
        };
        let jobs = vec![
            (
                "gpt2-345m-VR",
                TrainJob::new(
                    ModelSpec::gpt2_345m(),
                    ParallelConfig::new(1, 4, 2).with_vpp(2),
                    r(),
                )
                .with_mbs(32)
                .with_seq(1024)
                .with_microbatches(16),
            ),
            (
                "llama2-7b-VR",
                TrainJob::new(
                    ModelSpec::llama2_7b(),
                    ParallelConfig::new(4, 2, 1).with_vpp(2),
                    r(),
                )
                .with_mbs(4)
                .with_seq(4096)
                .with_microbatches(8),
            ),
            (
                "qwen2.5-14b-V",
                TrainJob::new(
                    ModelSpec::qwen25_14b(),
                    ParallelConfig::new(2, 2, 4).with_vpp(3),
                    OptimConfig::naive(),
                )
                .with_mbs(2)
                .with_seq(4096)
                .with_microbatches(12),
            ),
            ("qwen1.5-moe-R", moe(ParallelConfig::new(2, 2, 2))),
            (
                "qwen1.5-moe-VR",
                moe(ParallelConfig::new(2, 2, 2).with_vpp(2)),
            ),
        ];
        jobs.into_iter()
            .map(|(name, job)| {
                let trace = job
                    .with_iterations(2)
                    .build_trace()
                    .expect("zoo job builds");
                (name, profile_trace(&trace, 1).expect("profiles").statics)
            })
            .collect()
    }

    /// Every combination of the two ablation switches `assemble` reads.
    fn all_options() -> [SynthConfig; 4] {
        [(true, false), (false, false), (true, true), (false, true)].map(
            |(enable_gap_insertion, ascending_sizes)| SynthConfig {
                enable_gap_insertion,
                ascending_sizes,
                ..SynthConfig::default()
            },
        )
    }

    /// The default switches with gap insertion off.
    fn no_gaps() -> SynthConfig {
        SynthConfig {
            enable_gap_insertion: false,
            ..SynthConfig::default()
        }
    }

    proptest! {
        /// The live-set sweep places every request exactly where the
        /// packer-based sweep did.
        #[test]
        fn live_set_sweep_matches_packer_sweep(spec in spec()) {
            let reqs = requests(&spec);
            prop_assert_eq!(refine_first_fit(&reqs), refine_by_packer(&reqs));
        }

        /// `assemble` over adversarial profiles under all four option
        /// combinations: sound, inside the pool, never below the peak —
        /// and, this being a debug build, every probe the occupancy test
        /// rejects is re-proved a failure by `Region::fit`'s assertion.
        #[test]
        fn assemble_is_sound_under_every_option(spec in spec()) {
            let reqs = requests(&spec);
            let plans = build_phase_groups(&reqs);
            let peak = ProfiledRequests {
                statics: reqs.clone(),
                init_count: 0,
                dynamics: Vec::new(),
                num_phases: 10,
                window_len: 0,
                instance_windows: Vec::new(),
                instance_arrivals: Vec::new(),
            }
            .peak_static_demand();
            for opts in all_options() {
                let layout = assemble(&plans, &reqs, &opts);
                let placed = reqs
                    .iter()
                    .zip(&layout.request_offsets)
                    .map(|(r, &off)| r.rect_at(off));
                prop_assert!(placed.clone().all(|r| r.off + r.len <= layout.pool_size));
                prop_assert_eq!(first_conflict(placed), None, "{:?}", opts);
                prop_assert!(layout.pool_size >= peak, "{:?}", opts);
            }
        }
    }

    /// Everything a layout says: offsets, pool, layers and insertions.
    fn fields(l: StaticLayout) -> (Vec<u64>, u64, usize, usize) {
        (l.request_offsets, l.pool_size, l.layers, l.gap_inserted)
    }

    proptest! {
        /// The scatter of a one-member plan skips the regions its
        /// whole-plan insertion has just asked, and no offset moves for
        /// it, under every option.
        #[test]
        fn scatter_skip_places_what_a_full_scatter_places(spec in spec()) {
            let reqs = requests(&spec);
            let plans = build_phase_groups(&reqs);
            for opts in all_options() {
                let skipping = fields(assemble(&plans, &reqs, &opts));
                let full = fields(assemble_with(&plans, &reqs, &opts, false));
                prop_assert_eq!(skipping, full, "{:?}", opts);
            }
        }
    }

    #[test]
    fn scatter_skip_places_what_a_full_scatter_places_on_the_zoo() {
        for (name, reqs) in zoo() {
            let plans = build_phase_groups(&reqs);
            for opts in all_options() {
                let skipping = fields(assemble(&plans, &reqs, &opts));
                let full = fields(assemble_with(&plans, &reqs, &opts, false));
                assert_eq!(skipping, full, "{name} {opts:?}");
            }
        }
    }

    #[test]
    fn live_set_sweep_matches_packer_sweep_on_the_zoo() {
        for (name, reqs) in zoo() {
            assert!(reqs.len() > 3_800, "{name}: {} statics", reqs.len());
            assert_eq!(refine_first_fit(&reqs), refine_by_packer(&reqs), "{name}");
        }
    }

    /// Relies on `Region::fit`'s debug assertion (so it proves nothing
    /// under `--release`): every probe the occupancy test rejects on the
    /// benchmark's profiles is one the packer fails too, so `assemble`
    /// lays them out as it did without the test.
    #[test]
    fn occupancy_test_only_rejects_failing_probes_on_the_zoo() {
        for (name, reqs) in zoo() {
            let plans = build_phase_groups(&reqs);
            for opts in all_options() {
                let layout = assemble(&plans, &reqs, &opts);
                assert!(layout.layers > 1, "{name}: layers were probed");
            }
        }
    }

    #[test]
    fn occupancy_index_is_sized_by_start_ticks_not_tick_values() {
        // 2,000 requests whose ticks reach past 2^40.
        let reqs: Vec<RequestEvent> = (0..2000u64)
            .map(|i| req(512, (1 << 40) + (i << 20), (1 << 41) + i, 1, 2))
            .collect();
        let axis = TimeAxis::new(&reqs);
        let region = Region::new(0, 4096, &axis);
        assert_eq!(region.occupied.len(), 2001);
        let w = Window::new(&axis, reqs[7].ts, reqs[7].te);
        assert_eq!((w.k0, w.k1), (7, 2000));
        let layout = assemble(&build_phase_groups(&reqs), &reqs, &SynthConfig::default());
        assert_eq!(layout.pool_size, 2000 * 512, "all live together");
    }

    #[test]
    fn a_full_layer_rejects_without_a_scan_and_frees_with_time() {
        let reqs = vec![
            req(512, 0, 10, 1, 1),
            req(512, 4, 20, 1, 1),
            req(512, 10, 12, 1, 1),
        ];
        let axis = TimeAxis::new(&reqs);
        let window = |i: usize| Window::new(&axis, reqs[i].ts, reqs[i].te);
        let mut region = Region::new(0, 1024, &axis);
        region.place(window(0), 0, 512);
        region.place(window(1), 512, 512);
        assert_eq!(region.occupied_at(0), 512);
        assert_eq!(region.occupied_at(1), 1024);
        assert_eq!(region.occupied_at(2), 512, "request 0 freed at tick 10");
        assert_eq!(region.fit(window(1), 512), None, "full at tick 4");
        assert_eq!(region.fit(window(2), 512), Some(0));
        assert_eq!(region.fit(window(2), 513), None);
    }

    /// Builds (plans, reqs) where each plan is a singleton of the given
    /// (size, ts, te).
    fn singleton_plans(specs: &[(u64, u64, u64)]) -> (Vec<LocalPlan>, Vec<RequestEvent>) {
        let mut reqs = Vec::new();
        let mut plans = Vec::new();
        for &(size, ts, te) in specs {
            let i = reqs.len();
            reqs.push(req(size, ts, te, 1, 2));
            plans.push(LocalPlan::of(vec![(i, 0)], &reqs));
        }
        (plans, reqs)
    }

    #[test]
    fn same_size_disjoint_lifespans_share_a_layer() {
        let (plans, reqs) =
            singleton_plans(&[(1024, 0, 10), (1024, 5, 15), (1024, 10, 20), (1024, 16, 25)]);
        let layout = assemble(&plans, &reqs, &SynthConfig::default());
        assert_eq!(layout.layers, 2, "two layers suffice");
        assert_eq!(layout.pool_size, 2048);
        assert_eq!(layout.request_offsets[0], layout.request_offsets[2]);
        assert_eq!(layout.request_offsets[1], layout.request_offsets[3]);
    }

    #[test]
    fn algorithm1_prefers_tightest_layer() {
        let (plans, reqs) = singleton_plans(&[(512, 0, 4), (512, 0, 9), (512, 10, 20)]);
        // Gap insertion off: isolate Algorithm 1's choice.
        let layout = assemble(&plans, &reqs, &no_gaps());
        assert_eq!(layout.layers, 2);
        assert_eq!(
            layout.request_offsets[2], layout.request_offsets[1],
            "tightest layer (end 9) chosen over end 4"
        );
    }

    #[test]
    fn smaller_requests_fill_gaps_of_larger_layers() {
        let (plans, reqs) = singleton_plans(&[(4096, 0, 10), (4096, 20, 30), (1024, 12, 18)]);
        let layout = assemble(&plans, &reqs, &SynthConfig::default());
        assert_eq!(layout.pool_size, 4096, "small plan needed no new space");
        // The second 4096 plan scatters into the first layer's idle window
        // and the 1024 plan gap-inserts: two placements without new space.
        assert_eq!(layout.gap_inserted, 2);
        assert_eq!(layout.layers, 1);
    }

    #[test]
    fn fine_grained_recording_exposes_staircase() {
        // A two-member cohort: one member frees early, the other late. A
        // later small request that starts after the early free can reuse
        // the freed part even though the cohort as a whole is still alive.
        // Small transient active [6, 15): fits where member 1 freed.
        let reqs = vec![
            req(1024, 0, 20, 1, 2),
            req(1024, 0, 5, 1, 2),
            req(512, 6, 15, 3, 3),
        ];
        let cohort = LocalPlan::of(vec![(0, 0), (1, 1024)], &reqs);
        let small = LocalPlan::of(vec![(2, 0)], &reqs);
        let layout = assemble(&[cohort, small], &reqs, &SynthConfig::default());
        assert_eq!(layout.pool_size, 2048, "no extra layer for the transient");
        assert_eq!(layout.gap_inserted, 1);
        assert_eq!(layout.request_offsets[2], 1024, "placed in the freed step");
    }

    #[test]
    fn gap_insertion_can_be_disabled() {
        let (plans, reqs) = singleton_plans(&[(4096, 0, 10), (1024, 12, 18)]);
        let on = assemble(&plans, &reqs, &SynthConfig::default());
        let off = assemble(&plans, &reqs, &no_gaps());
        assert_eq!(on.pool_size, 4096);
        assert_eq!(off.pool_size, 4096 + 1024);
    }

    #[test]
    fn descending_order_beats_ascending_here() {
        let (plans, reqs) = singleton_plans(&[(1024, 12, 18), (4096, 0, 10), (4096, 20, 30)]);
        let desc = assemble(&plans, &reqs, &SynthConfig::default());
        let ascending = SynthConfig {
            ascending_sizes: true,
            ..SynthConfig::default()
        };
        let asc = assemble(&plans, &reqs, &ascending);
        assert!(desc.pool_size < asc.pool_size);
    }

    #[test]
    fn overlapping_same_size_plans_stack() {
        let (plans, reqs) = singleton_plans(&[(2048, 0, 10), (2048, 5, 15)]);
        let layout = assemble(&plans, &reqs, &SynthConfig::default());
        assert_eq!(layout.pool_size, 4096);
        assert_ne!(layout.request_offsets[0], layout.request_offsets[1]);
    }
}
