//! Differential integration tests for `ioenc serve`.
//!
//! The contract under test: every `encode` response the server emits is
//! byte-identical to what `ioenc encode --json` prints for the same raw
//! request text — regardless of worker count, cache state, request
//! order, or how many duplicated / symbol-permuted variants share a
//! canonical key.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use ioenc_rng::SplitMix64;

const FIXTURE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/serve");
const RECV_TIMEOUT: Duration = Duration::from_secs(120);

fn fixture_texts() -> Vec<String> {
    let mut paths: Vec<_> = std::fs::read_dir(FIXTURE_DIR)
        .expect("fixture dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no serve fixtures found");
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("fixture"))
        .collect()
}

/// Re-spells `text` with a shuffled `symbols:` header and shuffled
/// constraint lines: the same set, a different (but valid) spelling.
fn permute(text: &str, rng: &mut SplitMix64) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let header = lines.remove(0);
    let mut names: Vec<&str> = header
        .strip_prefix("symbols:")
        .expect("fixture header")
        .split_whitespace()
        .collect();
    rng.shuffle(&mut names);
    rng.shuffle(&mut lines);
    let mut out = format!("symbols: {}\n", names.join(" "));
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn encode_request(id: usize, text: &str) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"encode\",\"text\":\"{}\"}}",
        json_escape(text)
    )
}

/// Runs `ioenc encode --json` on `text` and returns the single stdout
/// line — the reference result the server must reproduce byte-for-byte.
fn cli_json(text: &str, tag: usize) -> String {
    let path =
        std::env::temp_dir().join(format!("ioenc-serve-ref-{}-{tag}.txt", std::process::id()));
    std::fs::write(&path, text).expect("write ref input");
    let out = Command::new(env!("CARGO_BIN_EXE_ioenc"))
        .args(["encode", path.to_str().expect("utf8 path"), "--json"])
        .output()
        .expect("reference CLI runs");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8(out.stdout).expect("utf8 json");
    stdout.trim_end().to_string()
}

struct Server {
    child: Child,
    stdin: std::process::ChildStdin,
    lines: mpsc::Receiver<String>,
}

impl Server {
    fn spawn(args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ioenc"))
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("server spawns");
        let stdin = child.stdin.take().expect("stdin");
        let stdout = child.stdout.take().expect("stdout");
        let (tx, lines) = mpsc::channel();
        // Drain stdout on a thread so a full pipe can never deadlock the
        // writer below.
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                match line {
                    Ok(l) => {
                        if tx.send(l).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        });
        Server {
            child,
            stdin,
            lines,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("request written");
        self.stdin.flush().expect("flush");
    }

    fn recv(&self) -> String {
        self.lines
            .recv_timeout(RECV_TIMEOUT)
            .expect("response line")
    }

    fn shutdown(mut self) {
        self.send("{\"id\":999999,\"op\":\"shutdown\"}");
        let _ = self.recv(); // the shutdown ack
        drop(self.stdin);
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "server exit: {status}");
    }
}

/// Splits a `{"id":N,"v":1,"result":...}` response line into
/// `(N, result)`, asserting the protocol-version field on the way.
fn split_response(line: &str) -> (usize, &str) {
    let rest = line.strip_prefix("{\"id\":").unwrap_or_else(|| {
        panic!("malformed response: {line}");
    });
    let comma = rest.find(",\"v\":1,\"result\":").unwrap_or_else(|| {
        panic!("response missing v1 envelope: {line}");
    });
    let id: usize = rest[..comma].parse().expect("numeric id");
    let body = &rest[comma + ",\"v\":1,\"result\":".len()..];
    let result = body.strip_suffix('}').expect("closing brace");
    (id, result)
}

/// The tentpole differential test: a shuffled 200-request corpus with
/// duplicates and symbol-permuted variants, replayed against servers with
/// 1 and 8 workers, cache enabled and disabled. Every response must match
/// the one-shot CLI byte-for-byte.
#[test]
fn serve_matches_cli_byte_for_byte_across_workers_and_cache() {
    let mut rng = SplitMix64::new(0x5eed_1991);
    let mut uniques = fixture_texts();
    for i in 0..uniques.len() {
        // Two permuted spellings per fixture; same canonical key, but the
        // response must list codes in each spelling's own symbol order.
        for _ in 0..2 {
            uniques.push(permute(&uniques[i], &mut rng));
        }
    }
    // One infeasible and one malformed text ride along: failures must be
    // byte-identical (and correctly replayed-or-not from the cache) too.
    uniques.push("symbols: a b\na>b\nb>a\n".to_string());
    uniques.push("symbols: a b\n(a,b\n".to_string());

    let expected: Vec<String> = uniques
        .iter()
        .enumerate()
        .map(|(i, t)| cli_json(t, i))
        .collect();

    let corpus: Vec<usize> = (0..200).map(|_| rng.gen_range(0..uniques.len())).collect();

    for (workers, cache) in [("1", "1024"), ("8", "1024"), ("1", "off"), ("8", "off")] {
        let mut server = Server::spawn(&["--workers", workers, "--queue", "256", "--cache", cache]);
        for (id, &u) in corpus.iter().enumerate() {
            server.send(&encode_request(id, &uniques[u]));
        }
        let mut got: HashMap<usize, String> = HashMap::new();
        while got.len() < corpus.len() {
            let line = server.recv();
            let (id, result) = split_response(&line);
            assert!(got.insert(id, result.to_string()).is_none(), "dup id {id}");
        }
        for (id, &u) in corpus.iter().enumerate() {
            assert_eq!(
                got[&id], expected[u],
                "workers={workers} cache={cache} request {id} diverged from the CLI"
            );
        }
        // The duplicated corpus must actually exercise the cache.
        server.send("{\"id\":888888,\"op\":\"stats\"}");
        let stats = server.recv();
        let (_, result) = split_response(&stats);
        if cache == "off" {
            assert!(result.contains("\"enabled\":false"), "{result}");
        } else {
            let hits: u64 = result
                .split("\"hits\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse().ok())
                .expect("hits counter");
            assert!(hits > 0, "no cache hits on a duplicated corpus: {result}");
        }
        server.shutdown();
    }
}

#[test]
fn serve_replays_ids_verbatim_and_types_bad_requests() {
    let mut server = Server::spawn(&["--workers", "1"]);
    server.send("not json");
    let line = server.recv();
    assert!(line.starts_with("{\"id\":null,"), "{line}");
    assert!(line.contains("\"class\":\"parse\""), "{line}");
    server.send("{\"id\":\"weird-id\",\"op\":\"encode\"}");
    let line = server.recv();
    assert!(line.starts_with("{\"id\":\"weird-id\","), "{line}");
    assert!(line.contains("\"class\":\"parse\""), "{line}");
    server.shutdown();
}

/// Sessions over the NDJSON protocol: an incremental `delta` must give
/// byte-identical `codes` to a from-scratch `open` of the edited text
/// (sessions solve the caller's set directly; that is the incremental ≡
/// from-scratch gate), and must agree with one-shot `encode` on width.
/// Two sessions' operations, interleaved and pipelined on one stream,
/// must get the replies of a run that waits for each reply before
/// sending the next request: the same session ids, in request order,
/// the same bytes, and the same `stats` session counts.
#[test]
fn serve_sessions_match_from_scratch_opens() {
    let base = "symbols: a b c d e\n(a,b)\n(c,d)\n(b,c,e)\na>c\n";
    let edited = "symbols: a b c d e\n(a,b)\n(c,d)\n(b,c,e)\n(d,e)\n";
    let open_req = |id: usize, text: &str| {
        format!(
            "{{\"id\":{id},\"op\":\"open\",\"text\":\"{}\"}}",
            json_escape(text)
        )
    };
    let script = [
        encode_request(1, edited),
        open_req(2, base),
        open_req(3, edited),
        "{\"id\":4,\"op\":\"delta\",\"session\":1,\"add\":[\"(d,e)\"],\"remove\":[\"a>c\"]}"
            .to_string(),
        "{\"id\":5,\"op\":\"delta\",\"session\":2,\"add\":[\"(a,e)\"]}".to_string(),
        "{\"id\":6,\"op\":\"stats\"}".to_string(),
        "{\"id\":7,\"op\":\"delta\",\"session\":1,\"add\":[\"b>d\"]}".to_string(),
        "{\"id\":8,\"op\":\"close\",\"session\":1}".to_string(),
        "{\"id\":9,\"op\":\"stats\"}".to_string(),
        "{\"id\":10,\"op\":\"close\",\"session\":2}".to_string(),
        "{\"id\":11,\"op\":\"stats\"}".to_string(),
    ];
    let stats_ids = [6, 9, 11];

    let mut server = Server::spawn(&["--workers", "2"]);
    let mut sequential: HashMap<usize, String> = HashMap::new();
    for line in &script {
        server.send(line);
        let reply = server.recv();
        let (id, result) = split_response(&reply);
        sequential.insert(id, result.to_string());
    }
    server.shutdown();

    let mut server = Server::spawn(&["--workers", "2"]);
    for line in &script {
        server.send(line);
    }
    let mut got: HashMap<usize, String> = HashMap::new();
    while got.len() < script.len() {
        let line = server.recv();
        let (id, result) = split_response(&line);
        assert!(got.insert(id, result.to_string()).is_none(), "dup id {id}");
    }
    server.shutdown();

    let field_of = |result: &str, name: &str| -> String {
        result
            .split(&format!("\"{name}\":"))
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no {name} in {result}"))
    };
    for (id, sid) in [
        (2, "1"),
        (3, "2"),
        (4, "1"),
        (5, "2"),
        (7, "1"),
        (8, "1"),
        (10, "2"),
    ] {
        assert_eq!(field_of(&got[&id], "session"), sid, "request {id}");
    }
    for id in 1..=script.len() {
        if stats_ids.contains(&id) {
            // Queue counters depend on timing; the session count does not.
            assert_eq!(
                field_of(&got[&id], "sessions"),
                field_of(&sequential[&id], "sessions"),
                "stats {id}"
            );
        } else {
            assert_eq!(
                got[&id], sequential[&id],
                "request {id}: pipelined vs sequential"
            );
        }
    }
    let live: Vec<String> = stats_ids
        .iter()
        .map(|id| field_of(&got[id], "sessions"))
        .collect();
    assert_eq!(live, ["2", "1", "0"]);

    let codes_of = |result: &str| {
        result
            .split("\"codes\":")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .map(str::to_string)
            .expect("codes array")
    };
    assert!(
        got[&4].contains("\"incremental\":true"),
        "delta did not reuse: {}",
        got[&4]
    );
    // Incremental delta ≡ from-scratch open of the edited text, byte for
    // byte in the codes.
    assert_eq!(
        codes_of(&got[&4]),
        codes_of(&got[&3]),
        "delta vs fresh open"
    );
    // And the minimum width agrees with the one-shot encode pipeline.
    assert_eq!(
        field_of(&got[&4], "width"),
        field_of(&got[&1], "width"),
        "delta vs encode width"
    );
    for id in [8, 10] {
        assert!(got[&id].contains("\"closed\":true"), "{}", got[&id]);
    }
}

#[test]
fn serve_rejects_unknown_protocol_versions() {
    let mut server = Server::spawn(&["--workers", "1"]);
    server.send("{\"id\":1,\"v\":2,\"op\":\"stats\"}");
    let line = server.recv();
    let (id, result) = split_response(line.trim_end());
    assert_eq!(id, 1);
    assert!(result.contains("\"class\":\"protocol\""), "{result}");
    server.shutdown();
}

/// Waits for the `listening on` banner with a hard bound, so a server
/// that dies before binding (or never binds) fails the test with a clear
/// message instead of hanging it until the harness timeout.
fn wait_for_banner(child: &mut Child) -> String {
    let stderr = child.stderr.take().expect("stderr piped");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stderr).read_line(&mut line);
        let _ = tx.send(line);
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("server exited before binding: {status}");
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(banner) if banner.contains("listening on") => return banner,
            Ok(other) => panic!("unexpected first stderr line: {other:?}"),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if std::time::Instant::now() > deadline {
                    let _ = child.kill();
                    panic!("server did not print its listen banner within 30s");
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("server closed stderr before printing its listen banner")
            }
        }
    }
}

/// Kills and reaps a server child when dropped, so a test that fails
/// before the server exits does not leave it running.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_tcp_round_trips_on_an_ephemeral_port() {
    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_ioenc"))
            .args(["serve", "--tcp", "0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("server spawns"),
    );
    let banner = wait_for_banner(&mut child.0);
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("addr in banner")
        .to_string();
    assert!(addr.starts_with("127.0.0.1:"), "{banner}");

    let text = std::fs::read_to_string(format!("{FIXTURE_DIR}/section1.txt")).expect("fixture");
    let expected = cli_json(&text, 9000);
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", encode_request(1, &text)).expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response");
    let (id, result) = split_response(line.trim_end());
    assert_eq!(id, 1);
    assert_eq!(result, expected, "TCP response diverged from the CLI");
    writeln!(writer, "{{\"id\":2,\"op\":\"shutdown\"}}").expect("send shutdown");
    line.clear();
    reader.read_line(&mut line).expect("shutdown ack");
    assert!(line.contains("\"shutting_down\":true"), "{line}");
    let status = child.0.wait().expect("server exits");
    assert!(status.success(), "server exit: {status}");
}
