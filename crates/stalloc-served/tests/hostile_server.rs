//! The client's half of the trust boundary: "a corrupt or malicious
//! server cannot push an unsound plan into a training run" rests on the
//! distrust checks in `PlanClient`'s response acceptance — echoed
//! fingerprint, `Plan::validate`, declared vs actual raw-frame length —
//! and on a clean close being told apart from an answer. A live
//! `PlanServer` never trips any of them, so a scripted fake server does:
//! every script must end in `ClientError::Protocol`, never a `RemotePlan`.
//! The same goes for a `PlanDelta` the peer drops or rejects: the caller
//! sees that failure, on the one connection it opened.

use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;

use stalloc_core::wire::{PlanRequest, PlanResponse, PlanSource, WireErrorKind};
use stalloc_core::{
    fingerprint_job, profile_trace, Fingerprint, InstanceKey, ProfiledRequests, SynthConfig,
};
use stalloc_served::{read_frame, write_frame, ClientError, PlanClient, DEFAULT_MAX_FRAME};
use stalloc_store::{decode_profile, encode_plan};
use trace_gen::{ModelSpec, ModuleId, OptimConfig, ParallelConfig, TrainJob};

fn profile() -> ProfiledRequests {
    let trace = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 2, 1),
        OptimConfig::naive(),
    )
    .with_mbs(1)
    .with_seq(256)
    .with_microbatches(2)
    .with_iterations(1)
    .build_trace()
    .unwrap();
    profile_trace(&trace, 1).unwrap()
}

/// How the fake server misbehaves after reading one `ProfileBin` request.
#[derive(Clone, Copy)]
enum Script {
    /// A sound plan, echoed under another job's fingerprint.
    AnotherJobsFingerprint,
    /// The right fingerprint on a plan with two overlapping placements.
    OverlappingPlacements,
    /// A `PlanBin` header declaring the true `STPL` length, followed by a
    /// well-formed raw frame that is this many bytes longer (or shorter).
    RawFrameOffBy(i64),
    /// Reads the request, then closes without a word.
    CloseBeforeAnyResponse,
    /// A well-formed header frame of 100,000 `[`: a parser that recurses
    /// per bracket overflows the stack of the training-side caller, which
    /// aborts its process instead of returning an error.
    DeeplyNestedHeader,
    /// The overlapping twin again, but with the iteration's decisions in
    /// reverse: a check that trusts ticks to ascend walks past it.
    OverlapBehindUnsortedTicks,
    /// One decision moved so that it ends one byte past the pool.
    OneBytePastThePool,
    /// A binary plan with one decision allocated at tick `u64::MAX`: the
    /// codec carries it, and no lifetime can start there.
    AllocatedAtTheEndOfTime,
    /// A binary plan whose dynamic arrivals name a group past the end of
    /// its group table: the codec carries it, and the runtime would
    /// index out of bounds at the first dynamic request.
    UnknownDynamicGroup,
}

/// Serves one connection per script, in order, then exits.
fn fake_server(scripts: Vec<Script>) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        for script in scripts {
            let (mut conn, _) = listener.accept().unwrap();
            let header = read_frame(&mut conn, DEFAULT_MAX_FRAME).unwrap().unwrap();
            let request: PlanRequest =
                serde_json::from_str(std::str::from_utf8(&header).unwrap()).unwrap();
            let PlanRequest::ProfileBin { config, bytes, .. } = request else {
                panic!("the default client sends ProfileBin, got {request:?}");
            };
            let raw = read_frame(&mut conn, DEFAULT_MAX_FRAME).unwrap().unwrap();
            assert_eq!(raw.len() as u64, bytes, "the client announces truthfully");
            let profile = decode_profile(&raw).unwrap();
            let mut plan = stalloc_core::synthesize(&profile, &config);
            let fingerprint = fingerprint_job(&profile, &config).to_hex();

            let inline = |fingerprint: String, plan| PlanResponse::Plan {
                fingerprint,
                source: PlanSource::Synthesized,
                micros: 1,
                plan,
            };
            let binary = |fingerprint: String, plan: &_| {
                let stpl = encode_plan(plan);
                let header = PlanResponse::PlanBin {
                    fingerprint,
                    source: PlanSource::Synthesized,
                    micros: 1,
                    bytes: stpl.len() as u64,
                };
                (header, Some(stpl))
            };
            let (response, raw_frame) = match script {
                Script::AnotherJobsFingerprint => {
                    (inline(Fingerprint([0x5a; 16]).to_hex(), plan), None)
                }
                Script::OverlappingPlacements => {
                    let twin = plan.iter_allocs[0];
                    plan.iter_allocs.push(twin);
                    (inline(fingerprint, plan), None)
                }
                Script::RawFrameOffBy(delta) => {
                    let (header, mut stpl) = binary(fingerprint, &plan);
                    if let Some(stpl) = &mut stpl {
                        stpl.resize((stpl.len() as i64 + delta) as usize, 0);
                    }
                    (header, stpl)
                }
                Script::CloseBeforeAnyResponse => continue,
                Script::DeeplyNestedHeader => {
                    write_frame(&mut conn, "[".repeat(100_000).as_bytes()).unwrap();
                    continue;
                }
                Script::OverlapBehindUnsortedTicks => {
                    let twin = plan.iter_allocs[0];
                    plan.iter_allocs.push(twin);
                    plan.iter_allocs.reverse();
                    (inline(fingerprint, plan), None)
                }
                Script::OneBytePastThePool => {
                    let last = plan.iter_allocs.last_mut().unwrap();
                    last.offset = plan.pool_size - last.size + 1;
                    (inline(fingerprint, plan), None)
                }
                Script::AllocatedAtTheEndOfTime => {
                    plan.iter_allocs.last_mut().unwrap().ts = u64::MAX;
                    binary(fingerprint, &plan)
                }
                Script::UnknownDynamicGroup => {
                    let key = InstanceKey {
                        module: ModuleId(1),
                        phase: 1,
                    };
                    let missing = plan.dynamic.groups.len() as u32 + 5;
                    plan.dynamic
                        .instance_seq
                        .push((key, vec![u32::MAX, missing]));
                    binary(fingerprint, &plan)
                }
            };
            let json = serde_json::to_string(&response).unwrap();
            write_frame(&mut conn, json.as_bytes()).unwrap();
            if let Some(stpl) = raw_frame {
                write_frame(&mut conn, &stpl).unwrap();
            }
        }
    });
    (addr, handle)
}

#[test]
fn every_distrust_check_ends_in_a_protocol_error() {
    let scripts = [
        (Script::AnotherJobsFingerprint, "answered for job"),
        (Script::OverlappingPlacements, "sent unsound plan"),
        (Script::RawFrameOffBy(-1), "header declared"),
        (Script::RawFrameOffBy(1), "header declared"),
        (Script::CloseBeforeAnyResponse, "closed before responding"),
        (
            Script::DeeplyNestedHeader,
            "undecodable response: recursion",
        ),
        (
            Script::OverlapBehindUnsortedTicks,
            "sent unsound plan: overlap",
        ),
        (Script::OneBytePastThePool, "exceeds pool"),
        (
            Script::AllocatedAtTheEndOfTime,
            "sent unsound plan: decision",
        ),
        (
            Script::UnknownDynamicGroup,
            "sent unsound plan: dynamic arrivals of module 1 phase 1 name group 5",
        ),
    ];
    let (addr, server) = fake_server(scripts.iter().map(|&(script, _)| script).collect());
    let (profile, config) = (profile(), SynthConfig::default());

    for (_, expected) in scripts {
        // A rejected response leaves the stream untrusted: one connection
        // per script, as a caller would reconnect.
        let mut client = PlanClient::connect(addr).unwrap();
        match client.plan(&profile, &config) {
            Err(ClientError::Protocol(message)) => assert!(
                message.contains(expected),
                "expected a protocol violation naming {expected:?}, got {message:?}"
            ),
            Ok(remote) => panic!("{expected}: an unsound exchange yielded {remote:?}"),
            Err(other) => panic!("{expected}: expected ClientError::Protocol, got {other}"),
        }
    }
    server.join().unwrap();
}

/// A delta that fails is the caller's failure to see. The client used to
/// answer a close, a transport error or a `BadFrame` on a `PlanDelta` by
/// opening a second connection and resending the full profile — which
/// turned a dead or overloaded daemon into a silent retry with a ~10×
/// larger request, reported as an ordinary plan.
#[test]
fn a_dropped_or_rejected_delta_is_a_typed_error_on_one_connection() {
    let (base, config) = (profile(), SynthConfig::default());
    let mut next = base.clone();
    next.statics.last_mut().unwrap().size += 4096;

    for answer_bad_frame in [false, true] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // Both announced frames are consumed first, so the close is a
            // clean end of stream at a frame boundary rather than a reset
            // racing the client's write.
            let header = read_frame(&mut conn, DEFAULT_MAX_FRAME).unwrap().unwrap();
            let request: PlanRequest =
                serde_json::from_str(std::str::from_utf8(&header).unwrap()).unwrap();
            assert!(
                matches!(request, PlanRequest::PlanDelta { .. }),
                "expected the delta header, got {request:?}"
            );
            read_frame(&mut conn, DEFAULT_MAX_FRAME).unwrap().unwrap();
            if answer_bad_frame {
                let reply = serde_json::to_string(&PlanResponse::Error {
                    kind: WireErrorKind::BadFrame,
                    message: "unknown request".into(),
                })
                .unwrap();
                write_frame(&mut conn, reply.as_bytes()).unwrap();
            }
            drop(conn);
            listener
        });

        let mut client = PlanClient::connect(addr).unwrap();
        let error = client.plan_delta(&base, &next, &config).unwrap_err();
        match (answer_bad_frame, &error) {
            (
                true,
                ClientError::Server {
                    kind: WireErrorKind::BadFrame,
                    ..
                },
            ) => {}
            (false, ClientError::Protocol(m)) if m.contains("closed before responding") => {}
            _ => panic!("bad_frame={answer_bad_frame}: unexpected error {error}"),
        }
        // Exactly one accepted connection: a reconnect would have
        // completed its handshake into the backlog before `plan_delta`
        // returned.
        let listener = peer.join().unwrap();
        listener.set_nonblocking(true).unwrap();
        match listener.accept() {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            other => panic!("the client opened a second connection: {other:?}"),
        }
    }
}
