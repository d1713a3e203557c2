//! The JSONL request/response protocol spoken over the daemon's Unix
//! socket.
//!
//! One request per line, one response per request; responses carry the
//! request's `id` and may arrive out of submission order (jobs run
//! concurrently). Malformed lines never kill the connection: they get a
//! structured `{"status":"error","error":"malformed"}` response with the
//! line's `id` when one could be salvaged.
//!
//! Request kinds: `tune` (the real work), `ping`, `stats`, `health`,
//! `shutdown`. The kind key is `"kind"`, with `"type"` accepted as an
//! alias for monitoring tools that speak `{"type":"stats"}`. `stats`,
//! `health`, `ping` and `shutdown` are answered inline on the
//! connection thread — they never touch the worker queue, so they keep
//! answering while the queue is saturated. See DESIGN.md §13/§14 for
//! the full field tables.

use peak_util::Json;
use peak_workloads::Dataset;

/// Test-only fault injection carried by a `tune` request (the storm
/// harness and CI smoke use these to exercise the supervisor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Panic inside the job boundary (exercises panic isolation +
    /// retry).
    Panic,
    /// Sleep cooperatively for this many milliseconds before tuning
    /// (exercises deadlines; cancellable).
    Slow(u64),
}

/// A parsed `tune` request.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneRequest {
    /// Benchmark name.
    pub benchmark: String,
    /// Machine name.
    pub machine: String,
    /// Rating method name; `None` lets the consultant pick.
    pub method: Option<String>,
    /// Search strategy name (`"ie"`, `"ga"`, `"clustered"`, `"random"`);
    /// `None` runs the default serial IE, which stays bit-identical to
    /// offline tuning.
    pub strategy: Option<String>,
    /// Tuning dataset (default train).
    pub dataset: Dataset,
    /// Per-job deadline in milliseconds; `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Warm-start IE from the knowledge store's nearest neighbour
    /// (default off — off is bit-identical to offline tuning).
    pub warm_start: bool,
    /// Test-only fault injection.
    pub inject: Option<Inject>,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Request id, echoed in the response.
        id: String,
    },
    /// Daemon/store/pool counters plus the live metrics snapshot.
    Stats {
        /// Request id, echoed in the response.
        id: String,
    },
    /// Cheap liveness/readiness summary (no metrics snapshot, no store
    /// lock contention beyond a length read).
    Health {
        /// Request id, echoed in the response.
        id: String,
    },
    /// Graceful shutdown (in-flight jobs finish, queued jobs are
    /// refused).
    Shutdown {
        /// Request id, echoed in the response.
        id: String,
    },
    /// Run one tuning job.
    Tune {
        /// Request id, echoed in the response.
        id: String,
        /// The job.
        job: TuneRequest,
    },
}

impl Request {
    /// The request id.
    pub fn id(&self) -> &str {
        match self {
            Request::Ping { id }
            | Request::Stats { id }
            | Request::Health { id }
            | Request::Shutdown { id }
            | Request::Tune { id, .. } => id,
        }
    }
}

/// Best-effort id extraction from a line that failed full parsing, so
/// even a malformed request's error response can be correlated.
pub fn salvage_id(line: &str) -> Option<String> {
    let j = peak_util::from_str(line).ok()?;
    Some(j.get("id")?.as_str()?.to_owned())
}

/// Parse one request line. `Err` carries a human-readable reason for the
/// `malformed` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let j = peak_util::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let id = j
        .get("id")
        .and_then(Json::as_str)
        .ok_or("missing string field \"id\"")?
        .to_owned();
    let kind = j
        .get("kind")
        .or_else(|| j.get("type"))
        .and_then(Json::as_str)
        .ok_or("missing string field \"kind\" (or its alias \"type\")")?;
    match kind {
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "health" => Ok(Request::Health { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "tune" => {
            let benchmark = j
                .get("benchmark")
                .and_then(Json::as_str)
                .ok_or("tune request missing string field \"benchmark\"")?
                .to_owned();
            let machine = j
                .get("machine")
                .and_then(Json::as_str)
                .ok_or("tune request missing string field \"machine\"")?
                .to_owned();
            let method = match j.get("method") {
                None | Some(Json::Null) => None,
                Some(m) => {
                    Some(m.as_str().ok_or("field \"method\" must be a string")?.to_owned())
                }
            };
            let strategy = match j.get("strategy") {
                None | Some(Json::Null) => None,
                Some(s) => {
                    Some(s.as_str().ok_or("field \"strategy\" must be a string")?.to_owned())
                }
            };
            let dataset = match j.get("dataset") {
                None | Some(Json::Null) => Dataset::Train,
                Some(d) => d
                    .as_str()
                    .and_then(peak_workloads::dataset_by_name)
                    .ok_or("field \"dataset\" must be \"train\" or \"ref\"")?,
            };
            let deadline_ms = match j.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(d) => {
                    Some(d.as_u64().ok_or("field \"deadline_ms\" must be a non-negative integer")?)
                }
            };
            let warm_start = match j.get("warm_start") {
                None | Some(Json::Null) => false,
                Some(w) => w.as_bool().ok_or("field \"warm_start\" must be a boolean")?,
            };
            let inject = match j.get("inject") {
                None | Some(Json::Null) => None,
                Some(i) => {
                    let s = i.as_str().ok_or("field \"inject\" must be a string")?;
                    if s == "panic" {
                        Some(Inject::Panic)
                    } else if let Some(ms) = s.strip_prefix("slow:") {
                        let ms = ms
                            .parse::<u64>()
                            .map_err(|_| "inject \"slow:<ms>\" needs an integer".to_string())?;
                        Some(Inject::Slow(ms))
                    } else {
                        return Err(format!("unknown inject {s:?} (want \"panic\" or \"slow:<ms>\")"));
                    }
                }
            };
            Ok(Request::Tune {
                id,
                job: TuneRequest {
                    benchmark,
                    machine,
                    method,
                    strategy,
                    dataset,
                    deadline_ms,
                    warm_start,
                    inject,
                },
            })
        }
        other => Err(format!("unknown request kind {other:?}")),
    }
}

/// `{"id":…,"status":"ok",…extra}` — success response line.
pub fn ok_response(id: &str, extra: Vec<(&'static str, Json)>) -> String {
    let mut pairs = vec![
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("status".to_owned(), Json::Str("ok".to_owned())),
    ];
    pairs.extend(extra.into_iter().map(|(k, v)| (k.to_owned(), v)));
    Json::Obj(pairs).compact()
}

/// `{"id":…,"status":"error","error":kind,"message":…}` — structured
/// failure response line. `id` falls back to `"?"` when the request's id
/// could not be salvaged.
pub fn error_response(id: Option<&str>, kind: &str, message: &str, retries: u32) -> String {
    let mut pairs = vec![
        ("id".to_owned(), Json::Str(id.unwrap_or("?").to_owned())),
        ("status".to_owned(), Json::Str("error".to_owned())),
        ("error".to_owned(), Json::Str(kind.to_owned())),
        ("message".to_owned(), Json::Str(message.to_owned())),
    ];
    if retries > 0 {
        pairs.push(("retries".to_owned(), Json::U(retries as u64)));
    }
    Json::Obj(pairs).compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_tune_request() {
        let line = r#"{"id":"j1","kind":"tune","benchmark":"SWIM","machine":"SPARC-II","method":"CBR","dataset":"train","deadline_ms":5000,"warm_start":true}"#;
        let req = parse_request(line).unwrap();
        let Request::Tune { id, job } = req else { panic!("not a tune") };
        assert_eq!(id, "j1");
        assert_eq!(job.benchmark, "SWIM");
        assert_eq!(job.machine, "SPARC-II");
        assert_eq!(job.method.as_deref(), Some("CBR"));
        assert_eq!(job.strategy, None);
        assert_eq!(job.dataset, Dataset::Train);
        assert_eq!(job.deadline_ms, Some(5000));
        assert!(job.warm_start);
        assert_eq!(job.inject, None);
    }

    #[test]
    fn defaults_and_injects() {
        let req =
            parse_request(r#"{"id":"x","kind":"tune","benchmark":"ART","machine":"p4"}"#).unwrap();
        let Request::Tune { job, .. } = req else { panic!() };
        assert_eq!(job.dataset, Dataset::Train);
        assert_eq!(job.deadline_ms, None);
        assert!(!job.warm_start);
        let req = parse_request(
            r#"{"id":"x","kind":"tune","benchmark":"ART","machine":"p4","inject":"slow:250"}"#,
        )
        .unwrap();
        let Request::Tune { job, .. } = req else { panic!() };
        assert_eq!(job.inject, Some(Inject::Slow(250)));
    }

    #[test]
    fn strategy_field_parses_and_rejects_non_strings() {
        let req = parse_request(
            r#"{"id":"x","kind":"tune","benchmark":"ART","machine":"p4","strategy":"ga"}"#,
        )
        .unwrap();
        let Request::Tune { job, .. } = req else { panic!() };
        assert_eq!(job.strategy.as_deref(), Some("ga"));
        assert!(parse_request(
            r#"{"id":"x","kind":"tune","benchmark":"ART","machine":"p4","strategy":7}"#,
        )
        .is_err());
    }

    #[test]
    fn health_parses_and_type_aliases_kind() {
        assert_eq!(
            parse_request(r#"{"id":"h1","kind":"health"}"#).unwrap(),
            Request::Health { id: "h1".into() }
        );
        assert_eq!(
            parse_request(r#"{"id":"s1","type":"stats"}"#).unwrap(),
            Request::Stats { id: "s1".into() }
        );
        // "kind" wins when both are present.
        assert_eq!(
            parse_request(r#"{"id":"x","kind":"ping","type":"stats"}"#).unwrap(),
            Request::Ping { id: "x".into() }
        );
    }

    #[test]
    fn malformed_lines_fail_with_reasons_and_salvage_ids() {
        assert!(parse_request("not json at all").is_err());
        assert!(parse_request(r#"{"kind":"ping"}"#).is_err()); // no id
        assert!(parse_request(r#"{"id":"a","kind":"dance"}"#).is_err());
        assert!(parse_request(r#"{"id":"a","kind":"tune"}"#).is_err()); // no benchmark
        assert_eq!(salvage_id(r#"{"id":"j9","kind":"dance"}"#).as_deref(), Some("j9"));
        assert_eq!(salvage_id("not json at all"), None);
    }

    #[test]
    fn response_lines_are_compact_jsonl() {
        let ok = ok_response("j1", vec![("result", Json::U(7))]);
        assert_eq!(ok, r#"{"id":"j1","status":"ok","result":7}"#);
        let err = error_response(Some("j2"), "panicked", "job panicked: boom", 2);
        assert_eq!(
            err,
            r#"{"id":"j2","status":"error","error":"panicked","message":"job panicked: boom","retries":2}"#
        );
        let anon = error_response(None, "malformed", "invalid JSON", 0);
        assert!(anon.starts_with(r#"{"id":"?","#));
    }
}
