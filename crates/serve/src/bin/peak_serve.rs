//! `peak-serve` — run the tuning daemon, or talk to one.
//!
//! ```text
//! peak-serve serve --socket PATH --store DIR \
//!     [--workers N] [--queue-cap N] [--trace FILE]
//! peak-serve send --socket PATH LINE [LINE ...]
//! peak-serve stats --socket PATH [--watch SECS] [--prom] [--json]
//! ```
//!
//! `serve` runs until a `shutdown` request arrives. `send` writes each
//! LINE (a JSONL request) to the socket, waits for exactly one response
//! per request, and prints the responses in arrival order. `stats`
//! fetches the daemon's live telemetry and renders it human-readably
//! (default), as Prometheus text exposition (`--prom`), or raw
//! (`--json`); `--watch SECS` re-polls forever. Because the daemon
//! answers `stats` inline on the connection thread, all three keep
//! working while the job queue is saturated.

use peak_obs::{JsonlSink, SnapValue, Snapshot, Tracer};
use peak_util::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("serve") => serve(&args[2..]),
        Some("send") => send(&args[2..]),
        Some("stats") => stats(&args[2..]),
        _ => {
            eprintln!("usage: peak-serve serve --socket PATH --store DIR [--workers N] [--queue-cap N] [--trace FILE]");
            eprintln!("       peak-serve send --socket PATH LINE [LINE ...]");
            eprintln!("       peak-serve stats --socket PATH [--watch SECS] [--prom] [--json]");
            std::process::exit(2);
        }
    }
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1).cloned())
}

fn required(args: &[String], key: &str) -> String {
    arg_value(args, key).unwrap_or_else(|| {
        eprintln!("error: missing required argument {key}");
        std::process::exit(2);
    })
}

fn serve(args: &[String]) {
    let socket = required(args, "--socket");
    let store = required(args, "--store");
    let mut config = peak_serve::ServeConfig::new(&socket, &store);
    if let Some(w) = arg_value(args, "--workers") {
        config.workers = w.parse().unwrap_or_else(|_| {
            eprintln!("error: --workers wants an integer, got {w:?}");
            std::process::exit(2);
        });
    }
    if let Some(q) = arg_value(args, "--queue-cap") {
        config.queue_cap = q.parse().unwrap_or_else(|_| {
            eprintln!("error: --queue-cap wants an integer, got {q:?}");
            std::process::exit(2);
        });
    }
    let trace_path = arg_value(args, "--trace");
    let tracer = match &trace_path {
        Some(path) => {
            let sink = JsonlSink::create(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("error: cannot create trace file {path}: {e}");
                std::process::exit(1);
            });
            Tracer::to_sink(Arc::new(sink))
        }
        None => Tracer::disabled(),
    };
    let handle = peak_serve::start(config, tracer).unwrap_or_else(|e| {
        eprintln!("error: cannot start daemon on {socket}: {e}");
        std::process::exit(1);
    });
    eprintln!("peak-serve: listening on {socket} (store {store})");
    handle.wait();
    eprintln!("peak-serve: stopped");
    if let Some(path) = trace_path {
        eprintln!("trace: wrote {path}");
    }
}

/// One round-trip: connect, send `line`, read one response line.
fn query(socket: &str, line: &str) -> Result<String, String> {
    let mut stream =
        UnixStream::connect(socket).map_err(|e| format!("cannot connect to {socket}: {e}"))?;
    let read_half = stream.try_clone().map_err(|e| format!("cannot clone socket: {e}"))?;
    writeln!(stream, "{line}").map_err(|e| format!("write failed: {e}"))?;
    stream.flush().map_err(|e| format!("flush failed: {e}"))?;
    let mut reader = BufReader::new(read_half);
    let mut response = String::new();
    match reader.read_line(&mut response) {
        Ok(0) => Err("daemon closed the connection without responding".to_owned()),
        Ok(_) => Ok(response.trim_end().to_owned()),
        Err(e) => Err(format!("read failed: {e}")),
    }
}

fn u(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Human rendering of one stats response.
fn render_stats(j: &Json) {
    println!(
        "workers {}  queue {}  jobs ok {} / failed {}  shed {}  postmortems {}",
        u(j, "workers"),
        u(j, "queue_depth"),
        u(j, "jobs_ok"),
        u(j, "jobs_failed"),
        u(j, "shed"),
        u(j, "postmortems"),
    );
    if let Some(line) = j.get("version_cache").and_then(Json::as_str) {
        println!("{line}");
    }
    if let Some(h) = j.get("store_health") {
        println!(
            "store   {} records, {} quarantined segment(s), {} salvaged / {} rejected line(s)",
            u(h, "records"),
            u(h, "quarantined_segments"),
            u(h, "salvaged_lines"),
            u(h, "rejected_lines"),
        );
    }
    let Some(snap) = j.get("metrics").and_then(Snapshot::from_json) else {
        println!("metrics unavailable (daemon running with PEAK_METRICS=0?)");
        return;
    };
    println!("metrics");
    for e in &snap.entries {
        match &e.value {
            SnapValue::Counter(v) => println!("  {:<40} {v}", e.name),
            SnapValue::Gauge(v) => println!("  {:<40} {v}", e.name),
            SnapValue::Histogram(h) => {
                let avg = h.sum.checked_div(h.count).unwrap_or(0);
                println!("  {:<40} count {} sum {} avg {}", e.name, h.count, h.sum, avg);
            }
        }
    }
}

fn stats(args: &[String]) {
    let socket = required(args, "--socket");
    let prom = args.iter().any(|a| a == "--prom");
    let raw = args.iter().any(|a| a == "--json");
    let watch: Option<u64> = arg_value(args, "--watch").map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("error: --watch wants whole seconds, got {s:?}");
            std::process::exit(2);
        })
    });
    let mut poll = 0u64;
    loop {
        poll += 1;
        match query(&socket, r#"{"id":"cli-stats","kind":"stats"}"#) {
            Err(e) if watch.is_some() => eprintln!("error: {e}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            Ok(response) => {
                if watch.is_some() {
                    println!("--- poll {poll} ---");
                }
                if raw {
                    println!("{response}");
                } else {
                    let j = peak_util::from_str(&response).unwrap_or_else(|e| {
                        eprintln!("error: unparseable stats response: {e}");
                        std::process::exit(1);
                    });
                    if j.get("status").and_then(Json::as_str) != Some("ok") {
                        eprintln!("error: daemon refused stats: {response}");
                        std::process::exit(1);
                    }
                    if prom {
                        match j.get("metrics").and_then(Snapshot::from_json) {
                            Some(snap) => print!("{}", snap.render_prometheus()),
                            None => {
                                eprintln!("error: stats response carries no metrics snapshot");
                                std::process::exit(1);
                            }
                        }
                    } else {
                        render_stats(&j);
                    }
                }
            }
        }
        match watch {
            Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs.max(1))),
            None => return,
        }
    }
}

fn send(args: &[String]) {
    let socket = required(args, "--socket");
    let lines: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| {
            !a.starts_with("--") && (i == 0 || args[i - 1] != "--socket")
        })
        .map(|(_, a)| a)
        .collect();
    if lines.is_empty() {
        eprintln!("error: nothing to send");
        std::process::exit(2);
    }
    let mut stream = UnixStream::connect(&socket).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {socket}: {e}");
        std::process::exit(1);
    });
    let read_half = stream.try_clone().unwrap_or_else(|e| {
        eprintln!("error: cannot clone socket: {e}");
        std::process::exit(1);
    });
    for line in &lines {
        writeln!(stream, "{line}").expect("write request");
    }
    stream.flush().expect("flush requests");
    let reader = BufReader::new(read_half);
    let mut seen = 0;
    for response in reader.lines() {
        let response = response.unwrap_or_else(|e| {
            eprintln!("error: connection lost after {seen} responses: {e}");
            std::process::exit(1);
        });
        println!("{response}");
        seen += 1;
        if seen == lines.len() {
            return;
        }
    }
    eprintln!("error: daemon closed the connection after {seen} of {} responses", lines.len());
    std::process::exit(1);
}
