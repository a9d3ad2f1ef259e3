//! Property-based tests over the core invariants (DESIGN.md testing
//! strategy): plan soundness on arbitrary request sets, allocator byte
//! accounting under random workloads, and interval-set algebra.

use proptest::prelude::*;

use allocators::{AllocRequest, CachingAllocator, CachingConfig, GpuAllocator};
use gpu_sim::{Device, DeviceSpec, LatencyModel};
use stalloc_core::geometry::{IntervalSet, TimeSpacePacker};
use stalloc_core::plan::{synthesize, SynthConfig};
use stalloc_core::profiler::{ProfiledRequests, RequestEvent};
use trace_gen::TensorId;

/// Arbitrary static request sets with bounded sizes and lifespans.
fn request_strategy(max: usize) -> impl Strategy<Value = Vec<RequestEvent>> {
    prop::collection::vec(
        (0u64..200, 1u64..64, 1u64..6u64, 0u32..3u32).prop_map(|(ts, dur, sz, dphase)| {
            RequestEvent {
                size: sz * 512,
                ts,
                te: ts + dur,
                ps: 1 + (ts % 7) as u32,
                pe: 1 + (ts % 7) as u32 + dphase,
                dynamic: false,
                ls: None,
                le: None,
            }
        }),
        1..max,
    )
}

fn profile_of(statics: Vec<RequestEvent>) -> ProfiledRequests {
    ProfiledRequests {
        statics,
        init_count: 0,
        dynamics: Vec::new(),
        num_phases: 10,
        window_len: 300,
        instance_windows: Vec::new(),
        instance_arrivals: Vec::new(),
    }
}

proptest! {
    /// The §5.1 constraint: no two planned decisions may overlap in both
    /// space and time — for arbitrary request sets and all ablations.
    #[test]
    fn plans_are_always_sound(reqs in request_strategy(120)) {
        for config in [
            SynthConfig::default(),
            SynthConfig { enable_gap_insertion: false, ..SynthConfig::default() },
            SynthConfig { ascending_sizes: true, ..SynthConfig::default() },
        ] {
            let plan = synthesize(&profile_of(reqs.clone()), &config);
            prop_assert!(plan.validate().is_ok(), "{:?}", config);
            // The pool can never beat the information-theoretic bound.
            prop_assert!(plan.pool_size >= plan.stats.peak_static_demand);
        }
    }

    /// The packer's first-fit placements never conflict.
    #[test]
    fn packer_placements_never_conflict(
        rects in prop::collection::vec((0u64..100, 1u64..20, 1u64..1000), 1..60)
    ) {
        let mut p = TimeSpacePacker::new();
        for (t0, dur, len) in rects {
            p.pack(t0, t0 + dur, len); // place_at debug-asserts no conflict
        }
        let placed: Vec<_> = p.rects().collect();
        for i in 0..placed.len() {
            for j in (i + 1)..placed.len() {
                prop_assert!(!placed[i].conflicts(placed[j]));
            }
        }
    }

    /// IntervalSet: remove-then-insert restores the set; totals balance.
    #[test]
    fn interval_set_algebra(
        ops in prop::collection::vec((0u64..64, 1u64..16), 1..40)
    ) {
        let mut s = IntervalSet::full(80 * 512);
        let mut removed: Vec<(u64, u64)> = Vec::new();
        for (slot, len) in ops {
            let start = slot * 512;
            let len = len * 512;
            if s.contains(start, len) {
                s.remove(start, len);
                removed.push((start, len));
            }
        }
        let held: u64 = removed.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(s.total() + held, 80 * 512);
        for (start, len) in removed.into_iter().rev() {
            s.insert(start, len);
        }
        prop_assert_eq!(s.total(), 80 * 512);
        prop_assert_eq!(s.interval_count(), 1, "fully coalesced");
    }

    /// Caching allocator byte accounting under random alloc/free orders:
    /// allocated never exceeds reserved, frees always balance.
    #[test]
    fn caching_allocator_accounting(
        sizes in prop::collection::vec(1u64..(8 << 20), 1..60),
        free_order in prop::collection::vec(0usize..60, 0..60)
    ) {
        let mut dev = Device::with_latency(
            DeviceSpec::test_device(2 << 30),
            LatencyModel::zero(),
        );
        let mut alloc = CachingAllocator::new(CachingConfig::torch_2_3());
        let mut live = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let t = TensorId(i as u64);
            let r = alloc.malloc(&mut dev, &AllocRequest { tensor: t, size, dynamic: false });
            prop_assert!(r.is_ok());
            live.push(t);
            let s = alloc.stats();
            prop_assert!(s.allocated <= s.reserved);
        }
        for &k in &free_order {
            if k < live.len() {
                let t = live[k];
                if alloc.free(&mut dev, t).is_ok() {
                    live.retain(|&x| x != t);
                }
            }
        }
        for t in live {
            alloc.free(&mut dev, t).unwrap();
        }
        prop_assert_eq!(alloc.stats().allocated, 0);
        // Everything is cached; flushing returns it to the device.
        alloc.release_cached_blocks(&mut dev);
        prop_assert_eq!(alloc.stats().reserved, 0);
        prop_assert_eq!(dev.in_use(), 0);
    }

    /// Random MoE-ish jobs: the full pipeline replays without stomping.
    #[test]
    fn random_jobs_replay_soundly(
        mbs in 1u32..3,
        m in 2u32..5,
        seed in 0u64..50,
        recompute in prop::bool::ANY,
    ) {
        use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};
        let optim = if recompute { OptimConfig::r() } else { OptimConfig::naive() };
        let job = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            optim,
        )
        .with_mbs(mbs)
        .with_seq(256)
        .with_microbatches(m)
        .with_iterations(2)
        .with_seed(seed);
        let trace = job.build_trace().unwrap();
        prop_assert!(trace.validate().is_ok());
        let spec = DeviceSpec::test_device(32 << 30);
        // The replay oracle panics on overlap; OOM must not occur.
        let r = harness::run(&trace, &spec, harness::AllocatorKind::Stalloc);
        prop_assert!(!r.report.oom);
        prop_assert!(r.counters.unwrap().stomps_avoided == 0);
    }
}
