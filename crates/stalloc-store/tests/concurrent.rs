//! Concurrency guarantees of the on-disk `PlanStore`.
//!
//! Eight writer threads hammer one store directory with overlapping
//! `put`s and interleaved `gc`s over a shared job set. The store must end
//! consistent: every job present exactly once, every blob decodable, no
//! torn reads at any point in between. A second run adds a thread that
//! `clear`s the directory under the writers: a reader then sees a plan
//! whole or not at all.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use stalloc_core::{fingerprint_job, profile_trace, synthesize, Fingerprint, Plan, SynthConfig};
use stalloc_store::PlanStore;
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

fn job_set() -> Vec<(Fingerprint, Plan)> {
    let trace = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 2, 1),
        OptimConfig::naive(),
    )
    .with_mbs(1)
    .with_seq(256)
    .with_microbatches(2)
    .with_iterations(2)
    .build_trace()
    .unwrap();
    let profile = profile_trace(&trace, 1).unwrap();
    let configs = [
        SynthConfig::default(),
        SynthConfig {
            enable_gap_insertion: false,
            ..SynthConfig::default()
        },
        SynthConfig {
            ascending_sizes: true,
            ..SynthConfig::default()
        },
    ];
    configs
        .iter()
        .map(|c| (fingerprint_job(&profile, c), synthesize(&profile, c)))
        .collect()
}

#[test]
fn eight_writers_converge_to_a_consistent_index() {
    let dir = std::env::temp_dir().join(format!("stalloc-store-concurrent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::open(&dir).unwrap();
    let jobs = Arc::new(job_set());

    const WRITERS: usize = 8;
    const ROUNDS: usize = 12;

    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = store.clone();
            let jobs = Arc::clone(&jobs);
            thread::spawn(move || {
                for round in 0..ROUNDS {
                    // Each writer walks the job set at a different phase so
                    // puts of different fingerprints genuinely interleave.
                    let (fp, plan) = &jobs[(w + round) % jobs.len()];
                    store.put(*fp, plan).unwrap();
                    // A racing gc must neither drop a just-written entry
                    // nor fail on files another thread already removed.
                    if round % 3 == w % 3 {
                        store.gc().unwrap();
                    }
                    // Torn-read check: a listing racing the writers must
                    // always succeed and only ever contain known jobs.
                    let entries = store.entries().unwrap();
                    assert!(entries.len() <= jobs.len());
                    for e in &entries {
                        assert!(
                            jobs.iter().any(|(fp, _)| fp.to_hex() == e.fingerprint),
                            "foreign entry {}",
                            e.fingerprint
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread panicked");
    }

    // Converged: every job listed exactly once, every blob sound.
    let entries = store.entries().unwrap();
    assert_eq!(entries.len(), jobs.len(), "no lost entries");
    for (fp, plan) in jobs.iter() {
        assert!(
            entries.iter().any(|e| e.fingerprint == fp.to_hex()),
            "missing entry {fp}"
        );
        let cached = store.get(*fp).unwrap().expect("blob present");
        assert_eq!(&cached, plan);
    }
    // A final gc on the converged store is a no-op.
    let report = store.gc().unwrap();
    assert_eq!(report.orphan_files, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_racing_clear_never_tears_a_read() {
    let dir = std::env::temp_dir().join(format!("stalloc-store-clearer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::open(&dir).unwrap();
    let jobs = Arc::new(job_set());

    const WRITERS: usize = 8;
    const ROUNDS: usize = 12;

    let start = Arc::new(Barrier::new(WRITERS + 1));
    let writers_done = Arc::new(AtomicBool::new(false));
    let clearer = {
        let (store, start, done) = (store.clone(), start.clone(), writers_done.clone());
        thread::spawn(move || {
            start.wait();
            let mut sweeps = 0usize;
            while !done.load(Ordering::SeqCst) {
                store.clear().unwrap();
                sweeps += 1;
            }
            sweeps
        })
    };
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (store, jobs, start) = (store.clone(), jobs.clone(), start.clone());
            thread::spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    let (fp, plan) = &jobs[(w + round) % jobs.len()];
                    store.put(*fp, plan).unwrap();
                    if round % 3 == w % 3 {
                        store.gc().unwrap();
                    }
                    // Whatever the clearer and the other writers are
                    // doing, a read is the exact plan or a clean miss.
                    for (fp, plan) in jobs.iter() {
                        if let Some(cached) = store.get(*fp).unwrap() {
                            assert_eq!(&cached, plan);
                        }
                    }
                    store.entries().unwrap();
                }
            })
        })
        .collect();
    for h in writers {
        h.join().expect("writer thread panicked");
    }
    writers_done.store(true, Ordering::SeqCst);
    assert!(clearer.join().expect("clearer thread panicked") > 0);

    // With the clearer gone, one more put of each job is the whole store.
    for (fp, plan) in jobs.iter() {
        store.put(*fp, plan).unwrap();
    }
    assert_eq!(store.entries().unwrap().len(), jobs.len());
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), jobs.len());

    let _ = std::fs::remove_dir_all(&dir);
}
