//! Session-layer tests for the `ipdsd` fleet service (`crates/service`,
//! re-exported from the `ipds::` root): image-cache sharing, session-pool
//! recycling, flush-point and worker-count bit-identity and the
//! incident-correlation rules.

use std::sync::Arc;

use ipds::analysis::TableImage;
use ipds::ir::FuncId;
use ipds::runtime::{RuntimeError, MAX_FRAME_DEPTH};
use ipds::service::SessionState;
use ipds::sim::{EventRecorder, ExecLimits, Interp};
use ipds::{
    correlate, BranchStatus, GuestEvent, ImageCache, Incident, IncidentKind, Protected, RootCause,
    Service, ServiceError, ServiceSpec,
};

fn cached_artifact(
    w: &ipds::workloads::Workload,
) -> (ImageCache, Arc<ipds::WorkloadArtifact>, TableImage) {
    let p = Protected::compile(w).unwrap();
    let image = TableImage::build(&p.analysis);
    let mut cache = ImageCache::new();
    let artifact = cache.load(w.name, &image).unwrap();
    (cache, artifact, image)
}

#[test]
fn image_cache_shares_verified_artifacts() {
    let w = &ipds::workloads::all()[0];
    let (mut cache, first, image) = cached_artifact(w);
    // Registering identical bytes again is a cache hit on the *same*
    // artifact — verified once, shared everywhere.
    let second = cache.load(w.name, &image).unwrap();
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(cache.stats().verified, 1);
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(cache.len(), 1);
}

#[test]
fn image_cache_rejects_tampered_bytes_without_poisoning() {
    let w = &ipds::workloads::all()[0];
    let (mut cache, _first, image) = cached_artifact(w);
    let mut bytes = image.as_bytes().to_vec();
    let payload = image.payload_offset().unwrap();
    bytes[payload] ^= 1;
    let bad = TableImage::from_bytes(bytes);
    let err = cache.load(w.name, &bad).unwrap_err();
    assert!(matches!(err, ServiceError::Image { .. }));
    // Unified error classification reaches the service layer too.
    assert_eq!(ipds::Error::from(err).kind(), ipds::ErrorKind::Service);
    // The reject never entered the cache: the verified entry is intact
    // and identical genuine bytes still hit it.
    assert_eq!(cache.stats().rejects, 1);
    assert_eq!(cache.len(), 1);
    let again = cache.load(w.name, &image).unwrap();
    assert_eq!(again.checksum, _first.checksum);
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn session_pool_recycles_and_reports_high_water() {
    let w = &ipds::workloads::all()[0];
    let (_cache, artifact, _image) = cached_artifact(w);
    let artifacts = [artifact];
    let mut service = Service::start(&artifacts, 1);
    // Three windows of four concurrent sessions: 12
    // checkouts, the first window's 4 are fresh, the remaining 8 recycle.
    let mut next = 0u64;
    for _window in 0..3 {
        let ids: Vec<u64> = (0..4)
            .map(|_| {
                let id = next;
                next += 1;
                id
            })
            .collect();
        for &id in &ids {
            service.open(id, w.name).unwrap();
        }
        for &id in &ids {
            service.close(id).unwrap();
        }
    }
    let report = service.finish();
    assert_eq!(report.metrics.counter("service.pool_checkouts"), 12);
    assert_eq!(report.metrics.counter("service.pool_reuses"), 8);
    assert_eq!(report.metrics.counter("service.pool_high_water"), 4);
    assert_eq!(report.metrics.counter("service.peak_sessions"), 4);
    assert_eq!(report.metrics.counter("service.sessions_opened"), 12);
    assert_eq!(report.metrics.counter("service.sessions_closed"), 12);
    assert!(report.incidents.is_empty());
}

#[test]
fn unknown_workload_is_refused_and_recorded_as_image_tamper() {
    let w = &ipds::workloads::all()[0];
    let (_cache, artifact, _image) = cached_artifact(w);
    let artifacts = [artifact];
    let mut service = Service::start(&artifacts, 2);
    let err = service.open(7, "no-such-workload").unwrap_err();
    assert!(matches!(err, ServiceError::UnknownWorkload { .. }));
    assert!(!service.is_open(7));
    // Submitting against the refused session fails too.
    let err = service.submit(7, vec![GuestEvent::Return]).unwrap_err();
    assert!(matches!(err, ServiceError::UnknownSession { session: 7 }));
    let report = service.finish();
    assert_eq!(report.sessions.len(), 1);
    assert!(report.sessions[0].rejected);
    assert_eq!(report.incidents.len(), 1);
    assert_eq!(report.incidents[0].kind, IncidentKind::ImageTamper);
    assert_eq!(
        report.root_causes,
        vec![RootCause::TamperedImage {
            workload: "no-such-workload".into(),
            sessions: 1,
        }]
    );
}

#[test]
fn malformed_stream_opens_protocol_violation() {
    let w = &ipds::workloads::all()[0];
    let p = Protected::compile(w).unwrap();
    let (_cache, artifact, _image) = cached_artifact(w);
    let artifacts = [artifact];
    let main = p.program.main().unwrap().id;
    for (stream, error, seq) in malformed_streams(main) {
        let mut service = Service::start(&artifacts, 1);
        service.open(0, w.name).unwrap();
        service.submit(0, stream.clone()).unwrap();
        service.close(0).unwrap();
        let report = service.finish();
        assert_eq!(
            report.incidents,
            vec![Incident {
                session: 0,
                workload: w.name.to_string(),
                kind: IncidentKind::ProtocolViolation { error },
                seq,
                alarm_count: 0,
            }],
            "{stream:?}"
        );
        // A lone malformed stream convicts its own session only.
        assert_eq!(
            report.root_causes,
            vec![RootCause::IsolatedNoise {
                workload: w.name.to_string(),
                session: 0,
            }]
        );
        // Every branch and return is counted, even the skipped ones.
        let count = |f: fn(&GuestEvent) -> bool| stream.iter().filter(|e| f(e)).count() as u64;
        let stats = &report.sessions[0].stats;
        assert_eq!(
            stats.branches,
            count(|e| matches!(e, GuestEvent::Branch { .. }))
        );
        assert_eq!(stats.underflows, count(|e| *e == GuestEvent::Return));
    }
}

#[test]
fn unbounded_calls_open_one_protocol_violation() {
    // A guest that only ever calls: the session's frame stack stops at the
    // cap and the first call past it is the session's one incident.
    let w = &ipds::workloads::all()[0];
    let (_cache, artifact, _image) = cached_artifact(w);
    let artifacts = [artifact];
    let main = Protected::compile(w).unwrap().program.main().unwrap().id;
    let mut service = Service::start(&artifacts, 1);
    service.open(0, w.name).unwrap();
    service
        .submit(0, vec![GuestEvent::Call(main); 10_000])
        .unwrap();
    service.close(0).unwrap();
    let report = service.finish();
    assert_eq!(
        report.incidents,
        vec![Incident {
            session: 0,
            workload: w.name.to_string(),
            kind: IncidentKind::ProtocolViolation {
                error: RuntimeError::FrameStackOverflow { func: main },
            },
            seq: 0,
            alarm_count: 0,
        }]
    );
    let stats = &report.sessions[0].stats;
    assert_eq!(stats.calls, 10_000, "every call is counted");
    assert_eq!(stats.max_depth, MAX_FRAME_DEPTH, "no frame past the cap");
}

/// The smallest malformed streams, with the violation each must record and
/// the branch count it is recorded at.
fn malformed_streams(main: FuncId) -> [(Vec<GuestEvent>, RuntimeError, u64); 4] {
    [
        (
            vec![GuestEvent::Return],
            RuntimeError::FrameStackUnderflow {
                component: "checker",
            },
            0,
        ),
        (
            vec![GuestEvent::Branch { pc: 0, taken: true }],
            RuntimeError::NoActiveFrame,
            1,
        ),
        (
            vec![
                GuestEvent::Call(main),
                GuestEvent::Branch {
                    pc: 0xdead_beef,
                    taken: false,
                },
            ],
            RuntimeError::ForeignBranch { pc: 0xdead_beef },
            1,
        ),
        (
            vec![GuestEvent::Call(FuncId(9999))],
            RuntimeError::UnknownFunction { func: FuncId(9999) },
            0,
        ),
    ]
}

#[test]
fn correlation_rules_are_deterministic() {
    let inc = |session: u64, workload: &str, kind| Incident {
        session,
        workload: workload.into(),
        kind,
        seq: 0,
        alarm_count: 1,
    };
    let path = |pc| IncidentKind::InfeasiblePath {
        pc,
        expected: BranchStatus::Taken,
        actual: false,
    };
    let incidents = vec![
        inc(5, "b", path(10)),
        inc(1, "b", path(10)),
        inc(3, "b", path(10)),
        inc(7, "c", path(20)),
        inc(2, "a", IncidentKind::ImageTamper),
        inc(
            9,
            "d",
            IncidentKind::ProtocolViolation {
                error: RuntimeError::NoActiveFrame,
            },
        ),
    ];
    let causes = correlate(&incidents, 3);
    assert_eq!(
        causes,
        vec![
            // Image tampers convict the image, regardless of cluster size.
            RootCause::TamperedImage {
                workload: "a".into(),
                sessions: 1,
            },
            // Three sessions at one PC cluster into a hot region...
            RootCause::HotMemoryRegion {
                workload: "b".into(),
                pc: 10,
                sessions: 3,
            },
            // ...a lone same-kind incident at another PC does not.
            RootCause::IsolatedNoise {
                workload: "c".into(),
                session: 7,
            },
            RootCause::IsolatedNoise {
                workload: "d".into(),
                session: 9,
            },
        ]
    );
}

#[test]
fn flush_points_never_change_results() {
    // The service checks buffered batches only at flush points: a full
    // buffer, any close, and finish. Where those fall must never show in
    // a result: every summary must equal a fresh state fed the same
    // batches directly, at any worker count.
    let w = &ipds::workloads::all()[0];
    let p = Protected::compile(w).unwrap();
    let (_cache, artifact, _image) = cached_artifact(w);
    let artifacts = [artifact];
    let main = p.program.main().unwrap().id;
    let clean = |seed: u64| {
        let mut rec = EventRecorder::new(main);
        Interp::new(&p.program, w.inputs(seed), ExecLimits::default()).run(&mut rec);
        rec.events
    };
    // Session 0 alone streams well past the 64Ki-event flush bound, so
    // flushes fall mid-stream. Sessions 1..=4 then interleave: 3 closes
    // after three batches, 1 when its stream runs out, and 2 and 4 stay
    // open until finish. Batch sizes differ per session. Sessions 5..=10
    // interleave with them, each sending `alarm_then_underflow` split
    // into two batches at a different point.
    let mut batches: Vec<Vec<Vec<GuestEvent>>> = (0..5u64)
        .map(|s| {
            let stream: Vec<GuestEvent> = if s == 0 {
                (0..).flat_map(clean).take(200_000).collect()
            } else {
                clean(s)
            };
            let size = 97 + 61 * s as usize;
            stream.chunks(size).map(<[_]>::to_vec).collect()
        })
        .collect();
    batches[3].truncate(3);
    assert_eq!(batches[0].iter().map(Vec::len).sum::<usize>(), 200_000);
    let mixed = alarm_then_underflow(&p.analysis, main);
    for split in 0..=mixed.len() {
        let (head, tail) = mixed.split_at(split);
        batches.push(vec![head.to_vec(), tail.to_vec()]);
    }
    let closes = |s: u64| s % 2 == 1 || s == 0;
    let shadows: Vec<_> = batches
        .iter()
        .enumerate()
        .map(|(s, session)| {
            let mut state = SessionState::fresh(&p.analysis, 0, s as u64);
            for batch in session {
                state.ingest(w.name, batch);
            }
            state
        })
        .collect();
    let mut pools = Vec::new();
    for workers in [1, 4] {
        let mut service = Service::start(&artifacts, workers);
        service.open(0, w.name).unwrap();
        for batch in &batches[0] {
            service.submit(0, batch.clone()).unwrap();
        }
        service.close(0).unwrap();
        for s in 1..batches.len() as u64 {
            service.open(s, w.name).unwrap();
        }
        for turn in 0.. {
            let mut any = false;
            for s in 1..batches.len() as u64 {
                match batches[s as usize].get(turn) {
                    Some(batch) => {
                        service.submit(s, batch.clone()).unwrap();
                        any = true;
                    }
                    None if closes(s) && service.is_open(s) => service.close(s).unwrap(),
                    None => {}
                }
            }
            if !any {
                break;
            }
        }
        let report = service.finish();
        assert_eq!(report.sessions.len(), batches.len(), "{workers} workers");
        for (got, shadow) in report.sessions.iter().zip(&shadows) {
            let at = format!("{workers} workers, session {}", got.session);
            assert_eq!(got.closed, closes(got.session), "{at}");
            assert_eq!(got.events, shadow.events(), "{at}");
            assert_eq!(got.batches, shadow.batches(), "{at}");
            assert_eq!(&got.stats, shadow.checker.stats(), "{at}");
            assert_eq!(got.incidents, shadow.incidents(), "{at}");
        }
        // The split streams open the same incidents in the same order as
        // the unsplit one: the alarm (branch 1) before the underflow that
        // follows it at the same branch count.
        for got in &report.sessions[5..] {
            let at = format!("{workers} workers, session {}", got.session);
            let kinds: Vec<_> = got.incidents.iter().map(|i| (i.kind, i.seq)).collect();
            assert!(
                matches!(
                    kinds[..],
                    [
                        (IncidentKind::InfeasiblePath { actual: true, .. }, 1),
                        (
                            IncidentKind::ProtocolViolation {
                                error: RuntimeError::FrameStackUnderflow { .. }
                            },
                            1
                        )
                    ]
                ),
                "{at}: {kinds:?}"
            );
        }
        assert_eq!(
            report.metrics.counter("service.events_ingested"),
            shadows.iter().map(|s| s.events()).sum::<u64>()
        );
        pools.push(
            [
                "service.pool_checkouts",
                "service.pool_reuses",
                "service.pool_high_water",
            ]
            .map(|k| report.metrics.counter(k)),
        );
    }
    // One pool, driven by the control plane: its counters do not depend
    // on the worker count either.
    assert_eq!(pools[0], pools[1]);
}

/// `[Call(main), FaultBsv{slot of a checked main branch, NotTaken},
/// Branch{that pc, taken}, Return, Return]`: an alarm at branch 1, then a
/// frame-stack underflow at the same branch count.
fn alarm_then_underflow(
    analysis: &ipds::analysis::ProgramAnalysis,
    main: FuncId,
) -> Vec<GuestEvent> {
    let fa = analysis.of(main);
    let checked = fa
        .checked
        .iter()
        .position(|&c| c)
        .expect("main has a checked branch");
    let branch = &fa.branches[checked];
    vec![
        GuestEvent::Call(main),
        GuestEvent::FaultBsv {
            slot: branch.slot,
            status: BranchStatus::NotTaken,
        },
        GuestEvent::Branch {
            pc: branch.pc,
            taken: true,
        },
        GuestEvent::Return,
        GuestEvent::Return,
    ]
}

#[test]
fn a_hostile_session_leaves_the_rest_of_the_fleet_untouched() {
    // One session sends every kind of malformed event around a clean run;
    // twenty clean sessions share the service with it. `finish` returns,
    // the hostile session gets one isolated incident (its first
    // violation), and every other summary is what the same fleet reports
    // without it, at 1 and 4 workers.
    let w = &ipds::workloads::all()[0];
    let p = Protected::compile(w).unwrap();
    let (_cache, artifact, _image) = cached_artifact(w);
    let artifacts = [artifact];
    let main = p.program.main().unwrap().id;
    let clean = |seed: u64| {
        let mut rec = EventRecorder::new(main);
        Interp::new(&p.program, w.inputs(seed), ExecLimits::default()).run(&mut rec);
        rec.events
    };
    const HOSTILE: u64 = 7;
    let mut hostile = vec![GuestEvent::Branch { pc: 0, taken: true }];
    let mut run = clean(HOSTILE);
    run.insert(run.len() / 2, GuestEvent::Call(FuncId(9999)));
    run.insert(run.len() / 3, GuestEvent::Branch { pc: 1, taken: true });
    hostile.extend(run);
    hostile.extend([GuestEvent::Return, GuestEvent::Return]);
    let fleet = |with_hostile: bool, workers: usize| {
        let mut service = Service::start(&artifacts, workers);
        let streams: Vec<(u64, Vec<GuestEvent>)> = (0..21u64)
            .filter(|&s| with_hostile || s != HOSTILE)
            .map(|s| {
                (
                    s,
                    if s == HOSTILE {
                        hostile.clone()
                    } else {
                        clean(s)
                    },
                )
            })
            .collect();
        for (s, _) in &streams {
            service.open(*s, w.name).unwrap();
        }
        for (s, stream) in &streams {
            for batch in stream.chunks(128) {
                service.submit(*s, batch.to_vec()).unwrap();
            }
            if s % 2 == 0 {
                service.close(*s).unwrap();
            }
        }
        service.finish()
    };
    for workers in [1, 4] {
        let with = fleet(true, workers);
        let without = fleet(false, workers);
        let (bad, rest): (Vec<_>, Vec<_>) = with
            .sessions
            .into_iter()
            .partition(|s| s.session == HOSTILE);
        assert_eq!(rest, without.sessions, "{workers} workers");
        let kinds: Vec<_> = bad[0].incidents.iter().map(|i| (i.kind, i.seq)).collect();
        assert_eq!(
            kinds,
            [(
                IncidentKind::ProtocolViolation {
                    error: RuntimeError::NoActiveFrame
                },
                1
            )],
            "{workers} workers"
        );
        assert!(with.root_causes.contains(&RootCause::IsolatedNoise {
            workload: w.name.to_string(),
            session: HOSTILE,
        }));
    }
}

#[test]
fn fleet_is_bit_identical_across_worker_counts() {
    // One plan (shadow-validated injections included), executed at four
    // worker counts: the outcome — sessions, incidents, causes and every
    // non-scheduler counter — must be byte-for-byte identical, and every
    // injected tamper class must have surfaced with its fleet-level cause.
    let wl: Vec<_> = ipds::workloads::all().into_iter().take(4).collect();
    let plan = ServiceSpec::new()
        .workloads(wl)
        .sessions(64)
        .batch(128)
        .window(16)
        .seed(11)
        .plan();
    assert_eq!(plan.sessions(), 64);
    let base = plan.execute(1);
    assert!(base.ok(), "{:?}", base.missed);
    let causes = &base.outcome.root_causes;
    assert!(causes
        .iter()
        .any(|c| matches!(c, RootCause::TamperedImage { .. })));
    assert!(causes
        .iter()
        .any(|c| matches!(c, RootCause::HotMemoryRegion { .. })));
    assert!(causes
        .iter()
        .any(|c| matches!(c, RootCause::IsolatedNoise { .. })));
    // The pool pair sits outside `FleetOutcome`, but one control-plane
    // pool makes it worker-count-invariant as well.
    let pool_counters = |metrics: &ipds::telemetry::MetricsRegistry| {
        ["service.pool_reuses", "service.pool_high_water"].map(|k| metrics.counter(k))
    };
    for workers in [2, 4, 8] {
        let run = plan.execute(workers);
        assert!(run.ok(), "{workers} workers: {:?}", run.missed);
        assert_eq!(base.outcome, run.outcome, "{workers} workers");
        assert_eq!(
            pool_counters(&base.metrics),
            pool_counters(&run.metrics),
            "{workers} workers"
        );
    }
}
