//! The four workloads: which jobs they plan, how the daemon is set up,
//! and what traffic one round sends. `BENCHMARK.json` repeats the names
//! and reasons.

use stalloc::gpu_sim::DeviceSpec;
use stalloc::harness::configs;
use stalloc::trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

pub struct Job {
    pub label: String,
    pub job: TrainJob,
    pub device: DeviceSpec,
}

pub struct Workload {
    pub name: &'static str,
    pub jobs: Vec<Job>,
    /// `Some(n)`: the daemon's LRU holds `n` plans, far fewer than the
    /// workload has profiles. `None`: LRU larger than everything the
    /// round inserts.
    pub churn_lru: Option<usize>,
    /// Zipf exponent of profile popularity (0 = uniform).
    pub zipf: f64,
    /// Traffic slots per round. A repeat or novel slot is one request; a
    /// delta slot is two (see [`Workload::delta_slots`]).
    pub slots: usize,
    pub delta_share: f64,
    pub novel_share: f64,
}

impl Workload {
    pub fn delta_slots(&self) -> usize {
        (self.slots as f64 * self.delta_share).round() as usize
    }

    pub fn novel_slots(&self) -> usize {
        (self.slots as f64 * self.novel_share).round() as usize
    }
}

pub const NAMES: [&str; 4] = ["dense-vpp", "moe-dyn", "fleet-hot", "fleet-churn"];

fn job(label: &str, job: TrainJob, device: DeviceSpec) -> Job {
    Job {
        label: label.to_string(),
        job,
        device,
    }
}

/// One GPT-2 345M pp=4 configuration seen from each of its four
/// pipeline stages (`TrainJob::stage_family`): near-identical profiles,
/// the population a plan daemon serves for one training job.
fn gpt2_stage_family(mbs: u32, seq: u64, microbatches: u32, recompute: bool) -> Vec<Job> {
    let optim = if recompute {
        OptimConfig::r()
    } else {
        OptimConfig::naive()
    };
    let base = TrainJob::new(ModelSpec::gpt2_345m(), ParallelConfig::new(1, 4, 1), optim)
        .with_mbs(mbs)
        .with_seq(seq)
        .with_microbatches(microbatches)
        .with_iterations(2);
    base.stage_family()
        .into_iter()
        .map(|j| {
            let label = format!(
                "gpt2-pp4-b{mbs}-s{seq}-m{microbatches}-{}-stage{}",
                j.label(),
                j.stage_rank
            );
            job(&label, j, DeviceSpec::a800_80g())
        })
        .collect()
}

/// Builds workload `name` for `seed`; `quick` cuts the traffic tenfold.
///
/// The seed reaches the program only through generated inputs: MoE
/// routing here, and the traffic order, perturbation sites and salts in
/// `round.rs`. The job *population* of a workload is the same for every
/// seed, so runs with different seeds do comparable work and the driver
/// can pool them.
pub fn build(name: &str, seed: u64, quick: bool) -> Option<Workload> {
    let a800 = DeviceSpec::a800_80g;
    let mut w = match name {
        // Virtual pipeline (+ recomputation) is where the paper's
        // fragmentation comes from. Thousands of static tensors, no
        // dynamics: planner and packer do ~90 % of the wall.
        "dense-vpp" => Workload {
            name: "dense-vpp",
            jobs: vec![
                job(
                    "gpt2-345m-VR",
                    configs::gpt2_job(OptimConfig::r(), true),
                    a800(),
                ),
                job(
                    "llama2-7b-VR",
                    configs::llama2_job(OptimConfig::r(), true),
                    a800(),
                ),
                job(
                    "qwen2.5-14b-V-16xH200",
                    configs::h200_job(&ModelSpec::qwen25_14b(), 16, false),
                    DeviceSpec::h200_141g(),
                ),
            ],
            churn_lru: None,
            zipf: 0.0,
            slots: 240,
            delta_share: 0.10,
            novel_share: 0.0,
        },
        // Seeded expert routing: 14k dynamic requests per iteration hit
        // the runtime's best-fit path, and 260 KB profile streams load
        // the codecs.
        "moe-dyn" => Workload {
            name: "moe-dyn",
            jobs: vec![
                job(
                    "qwen1.5-moe-R",
                    configs::moe_job(OptimConfig::r(), false).with_seed(seed),
                    a800(),
                ),
                job(
                    "qwen1.5-moe-VR",
                    configs::moe_job(OptimConfig::r(), true).with_seed(seed),
                    a800(),
                ),
            ],
            churn_lru: None,
            zipf: 0.0,
            slots: 160,
            delta_share: 0.10,
            novel_share: 0.0,
        },
        // Tiny profiles, everything cached: the fixed per-request cost
        // of the serving shell is all there is. A planner change must
        // not move this workload.
        "fleet-hot" => Workload {
            name: "fleet-hot",
            jobs: [(4, false), (4, true), (8, false), (8, true)]
                .into_iter()
                .flat_map(|(m, r)| gpt2_stage_family(1, 256, m, r))
                .collect(),
            churn_lru: None,
            zipf: 0.0,
            slots: 4000,
            delta_share: 0.05,
            novel_share: 0.0,
        },
        // Working set six times the LRU, skewed popularity: reads beside
        // writes on `ShardedLru`, eviction, and the cold-miss path (single
        // flight, synthesis, insert) for everything the LRU dropped.
        // Twelve stage families, half of the mbs × seq × microbatches ×
        // naive/R grid with every value of every axis used equally often.
        // The same twelve for every seed: the driver pools runs of
        // different seeds, and a seeded draw moved `frag_reduction` by 18 %
        // and `reserved_gib` by 3 % between them.
        "fleet-churn" => {
            let shapes = [4, 8, 12].into_iter().flat_map(|m| [(m, false), (m, true)]);
            let jobs = shapes
                .enumerate()
                .flat_map(|(i, (microbatches, recompute))| {
                    let sizes = if i % 2 == 0 {
                        [(1, 256), (2, 512)]
                    } else {
                        [(1, 512), (2, 256)]
                    };
                    sizes.into_iter().flat_map(move |(mbs, seq)| {
                        gpt2_stage_family(mbs, seq, microbatches, recompute)
                    })
                })
                .collect();
            Workload {
                name: "fleet-churn",
                jobs,
                churn_lru: Some(8),
                zipf: 1.1,
                slots: 280,
                delta_share: 0.10,
                novel_share: 0.01,
            }
        }
        _ => return None,
    };
    if quick {
        w.slots = (w.slots / 10).max(20);
    }
    Some(w)
}
