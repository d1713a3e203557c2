//! Telemetry end-to-end: `stats`/`health` answer on a live daemon with a
//! coherent metrics snapshot, the Prometheus exposition round-trips
//! through its own parser, and dead jobs (injected panic, blown
//! deadline) leave replayable post-mortem artifacts on disk.

use peak_obs::Snapshot;
use peak_serve::{parse_request, start, DaemonHandle, Request, RetryPolicy, ServeConfig};
use peak_util::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

struct TestDaemon {
    handle: Option<DaemonHandle>,
    dir: PathBuf,
    socket: PathBuf,
}

impl TestDaemon {
    fn start(name: &str) -> TestDaemon {
        let dir = std::env::temp_dir().join(format!("peak-obs-e2e-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("peak.sock");
        let mut config = ServeConfig::new(&socket, dir.join("store"));
        config.retry = RetryPolicy { max_retries: 1, base_backoff_ms: 1, factor: 2 };
        let handle = start(config, peak_obs::Tracer::disabled()).unwrap();
        TestDaemon { handle: Some(handle), dir, socket }
    }

    fn roundtrip(&self, lines: &[&str]) -> Vec<Json> {
        let mut stream = UnixStream::connect(&self.socket).unwrap();
        for line in lines {
            writeln!(stream, "{line}").unwrap();
        }
        stream.flush().unwrap();
        let reader = BufReader::new(stream);
        let responses: Vec<Json> = reader
            .lines()
            .take(lines.len())
            .map(|l| peak_util::from_str(&l.unwrap()).expect("response must be valid JSON"))
            .collect();
        assert_eq!(responses.len(), lines.len(), "one response per request");
        responses
    }

    fn postmortem_dir(&self) -> PathBuf {
        self.dir.join("store").join("postmortem")
    }

    /// Post-mortem files whose name contains `reason`.
    fn postmortems(&self, reason: &str) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = std::fs::read_dir(self.postmortem_dir())
            .map(|d| {
                d.map(|e| e.unwrap().path())
                    .filter(|p| {
                        p.file_name().unwrap().to_string_lossy().contains(&format!("-{reason}-"))
                    })
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    }

    fn shutdown(mut self) {
        let handle = self.handle.take().unwrap();
        handle.stop();
        handle.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for TestDaemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.stop();
            handle.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn by_id<'r>(responses: &'r [Json], id: &str) -> &'r Json {
    responses
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
        .unwrap_or_else(|| panic!("no response with id {id:?}"))
}

fn u(j: &Json, key: &str) -> u64 {
    j.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing u64 {key:?} in {}", j.compact()))
}

#[test]
fn stats_and_health_carry_live_telemetry() {
    let daemon = TestDaemon::start("stats");
    let tune = r#"{"id":"t1","kind":"tune","benchmark":"SWIM","machine":"SPARC-II","method":"CBR"}"#;
    let done = daemon.roundtrip(&[tune]);
    assert_eq!(done[0].get("status").and_then(Json::as_str), Some("ok"), "{}", done[0].compact());

    let responses =
        daemon.roundtrip(&[r#"{"id":"s","kind":"stats"}"#, r#"{"id":"h","type":"health"}"#]);
    let stats = by_id(&responses, "s");
    assert_eq!(u(stats, "jobs_ok"), 1);
    assert_eq!(u(stats, "store_records"), 1, "completed job persisted to the store");
    let sh = stats.get("store_health").expect("stats carries store_health");
    assert_eq!(u(sh, "records"), 1);
    assert_eq!(u(sh, "quarantined_segments"), 0);
    let cache = stats.get("version_cache").and_then(Json::as_str).expect("cache summary line");
    assert!(cache.contains("optimizer runs") && cache.contains("engines"), "{cache}");

    // The metrics snapshot is coherent with the daemon counters. The
    // registry is process-global, so cross-test values are >= this
    // daemon's own counts — never less.
    let snap = stats.get("metrics").and_then(Snapshot::from_json).expect("metrics snapshot");
    assert!(snap.counter("serve.jobs_ok").unwrap() >= 1);
    assert!(snap.counter("serve.requests").unwrap() >= 3, "tune + stats + health counted");
    assert!(snap.counter("core.harness.invocations").unwrap() > 0, "tuning ran invocations");

    let health = by_id(&responses, "h");
    assert_eq!(health.get("healthy").and_then(Json::as_bool), Some(true));
    assert_eq!(health.get("accepting").and_then(Json::as_bool), Some(true));
    assert_eq!(health.get("shutting_down").and_then(Json::as_bool), Some(false));
    assert!(u(health, "queue_cap") > 0);
    assert!(health.get("metrics").is_none(), "health stays cheap: no registry snapshot");
    daemon.shutdown();
}

#[test]
fn exposition_round_trips_through_its_own_parser() {
    let daemon = TestDaemon::start("expo");
    let responses = daemon.roundtrip(&[r#"{"id":"s","kind":"stats"}"#]);
    let snap =
        responses[0].get("metrics").and_then(Snapshot::from_json).expect("metrics snapshot");
    let text = snap.render_prometheus();
    let samples = peak_obs::metrics::parse_exposition(&text).expect("exposition must parse");
    assert!(!samples.is_empty());
    // Every counter and gauge in the snapshot appears as a sample.
    for e in &snap.entries {
        let prom: String = e
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
            .collect();
        assert!(
            samples.iter().any(|s| s.name.starts_with(&prom)),
            "metric {} missing from exposition:\n{text}",
            e.name
        );
    }
    daemon.shutdown();
}

#[test]
fn injected_panic_leaves_a_replayable_postmortem() {
    let daemon = TestDaemon::start("panic");
    let line =
        r#"{"id":"boom","kind":"tune","benchmark":"SWIM","machine":"SPARC-II","inject":"panic"}"#;
    let responses = daemon.roundtrip(&[line]);
    assert_eq!(responses[0].get("error").and_then(Json::as_str), Some("panicked"));

    let dumps = daemon.postmortems("panic");
    assert_eq!(dumps.len(), 1, "exactly one post-mortem for the one dead job");
    let text = std::fs::read_to_string(&dumps[0]).unwrap();
    let mut lines = text.lines();
    let header = peak_util::from_str(lines.next().expect("header line")).unwrap();
    assert_eq!(header.get("postmortem").and_then(Json::as_str), Some("panic"));
    assert_eq!(header.get("job_id").and_then(Json::as_str), Some("boom"));
    // The header carries the request verbatim — replayable with
    // `peak-serve send`.
    let request = header.get("request").and_then(Json::as_str).expect("request in header");
    assert_eq!(request, line);
    let Request::Tune { id, job } = parse_request(request).expect("request replays") else {
        panic!("post-mortem request is not a tune")
    };
    assert_eq!(id, "boom");
    assert_eq!(job.benchmark, "SWIM");
    // The recorded events parse and include the job span + the retry
    // of the panicked first attempt.
    let events: Vec<&str> = lines.collect();
    assert!(!events.is_empty(), "ring must have recorded the job's events");
    for e in &events {
        peak_obs::TraceEvent::parse_line(e).expect("event lines parse");
    }
    assert!(text.contains("serve.job"), "job span recorded:\n{text}");
    assert!(text.contains("serve.retry"), "panicked attempt's retry recorded:\n{text}");

    // Stats accounts for it.
    let stats = daemon.roundtrip(&[r#"{"id":"s","kind":"stats"}"#]);
    assert!(u(&stats[0], "postmortems") >= 1);
    daemon.shutdown();
}

#[test]
fn blown_deadline_leaves_a_postmortem() {
    let daemon = TestDaemon::start("deadline");
    let line = r#"{"id":"late","kind":"tune","benchmark":"SWIM","machine":"SPARC-II","inject":"slow:60000","deadline_ms":50}"#;
    let responses = daemon.roundtrip(&[line]);
    assert_eq!(responses[0].get("error").and_then(Json::as_str), Some("deadline_exceeded"));

    let dumps = daemon.postmortems("deadline");
    assert_eq!(dumps.len(), 1);
    let text = std::fs::read_to_string(&dumps[0]).unwrap();
    let header = peak_util::from_str(text.lines().next().unwrap()).unwrap();
    assert_eq!(header.get("postmortem").and_then(Json::as_str), Some("deadline"));
    assert_eq!(header.get("request").and_then(Json::as_str), Some(line));
    daemon.shutdown();
}
