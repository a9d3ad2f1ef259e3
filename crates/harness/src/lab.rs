//! One result set for the paper's tables.
//!
//! The evaluation compares allocators cell by cell over one shared set of
//! jobs, and cells recur across tables: Fig. 13's caching and STAlloc
//! columns are Fig. 8(c)'s, Table 3 replays Fig. 13's jobs, Fig. 12 reads
//! Fig. 8's recomputation rows. A [`Lab`] builds each job's trace at most
//! once and replays each (job, device, allocator) triple at most once.

use gpu_sim::DeviceSpec;
use trace_gen::{Trace, TrainJob};

use crate::runner::{run, AllocatorKind, RunResult};

/// The traces and replay results of one process, each made on first
/// request and kept. Displays as `replays R for C cells, T traces`.
#[derive(Default)]
pub struct Lab {
    traces: Vec<(TrainJob, Trace)>,
    /// The index of the job in `traces`, the device, and the result
    /// (whose `kind` is the allocator).
    runs: Vec<(usize, DeviceSpec, RunResult)>,
    /// Cells asked for, repeats included.
    cells: usize,
}

impl Lab {
    /// The trace of `job`, built on first request.
    pub fn trace(&mut self, job: &TrainJob) -> &Trace {
        let i = self.job_index(job);
        &self.traces[i].1
    }

    fn job_index(&mut self, job: &TrainJob) -> usize {
        if let Some(i) = self.traces.iter().position(|(j, _)| j == job) {
            return i;
        }
        let trace = job.build_trace().expect("valid job");
        self.traces.push((job.clone(), trace));
        self.traces.len() - 1
    }

    /// `kind` replayed over `job`'s trace on `spec`, on first request only.
    pub fn run(&mut self, job: &TrainJob, spec: &DeviceSpec, kind: AllocatorKind) -> RunResult {
        self.cells += 1;
        let i = self.job_index(job);
        let seen = |(j, s, r): &&(_, _, RunResult)| *j == i && s == spec && r.kind == kind;
        if let Some((.., r)) = self.runs.iter().find(seen) {
            return r.clone();
        }
        let r = run(&self.traces[i].1, spec, kind);
        self.runs.push((i, spec.clone(), r.clone()));
        r
    }

    /// One row of a lineup: `kinds` over `job` on `spec`, leaving out the
    /// allocators that need the VMM API on a device without it.
    pub fn lineup(
        &mut self,
        job: &TrainJob,
        spec: &DeviceSpec,
        kinds: &[AllocatorKind],
    ) -> Vec<RunResult> {
        kinds
            .iter()
            .filter(|k| spec.supports_vmm || !k.needs_vmm())
            .map(|&k| self.run(job, spec, k))
            .collect()
    }

    /// Every replay so far, in the order each was first asked for.
    pub fn results(&self) -> impl Iterator<Item = (&TrainJob, &DeviceSpec, &RunResult)> {
        self.runs.iter().map(|(i, s, r)| (&self.traces[*i].0, s, r))
    }

    /// Replays run so far: one per distinct (job, device, allocator).
    pub fn replays(&self) -> usize {
        self.runs.len()
    }
}

impl std::fmt::Display for Lab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (r, c, t) = (self.runs.len(), self.cells, self.traces.len());
        write!(f, "replays {r} for {c} cells, {t} traces")
    }
}
