//! Fault-injection tests for the persistent serve cache.
//!
//! The contract under test: the disk-backed result cache survives the
//! worst a process can do to it — `kill -9` mid-batch, torn trailing
//! writes, a flipped payload byte — and in every case the next server
//! either replays a fully-validated record or silently re-solves; it
//! never serves a damaged result and never refuses to start. A second
//! battery checks the multi-process contract: two servers sharing one
//! cache directory solve each canonical key exactly once between them.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ioenc::server::DiskCache;
use ioenc_rng::SplitMix64;

const FIXTURE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/serve");

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("ioenc-faults-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fixture_texts() -> Vec<String> {
    let mut paths: Vec<_> = std::fs::read_dir(FIXTURE_DIR)
        .expect("fixture dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("fixture"))
        .collect()
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

/// `ioenc encode --json` on `text`: the reference bytes the server must
/// reproduce, cache tier or no cache tier, before or after a crash.
fn cli_json(text: &str, tag: usize) -> String {
    let path =
        std::env::temp_dir().join(format!("ioenc-faults-ref-{}-{tag}.txt", std::process::id()));
    std::fs::write(&path, text).expect("write ref input");
    let out = Command::new(env!("CARGO_BIN_EXE_ioenc"))
        .args(["encode", path.to_str().expect("utf8 path"), "--json"])
        .output()
        .expect("reference CLI runs");
    let _ = std::fs::remove_file(&path);
    String::from_utf8(out.stdout)
        .expect("utf8 json")
        .trim_end()
        .to_string()
}

/// A TCP `ioenc serve` child plus a connected NDJSON stream.
struct TcpServer {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Waits for the listen banner with a hard bound: panics with the exit
/// status if the server dies first, and after 30s if it never binds.
fn wait_for_banner(child: &mut Child) -> String {
    let stderr = child.stderr.take().expect("stderr piped");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stderr).read_line(&mut line);
        let _ = tx.send(line);
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("server exited before binding: {status}");
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(banner) if banner.contains("listening on") => return banner,
            Ok(other) => panic!("unexpected first stderr line: {other:?}"),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if Instant::now() > deadline {
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

impl TcpServer {
    fn spawn(cache_dir: &Path, extra: &[&str]) -> TcpServer {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ioenc"))
            .args([
                "serve",
                "--tcp",
                "0",
                "--workers",
                "4",
                "--queue",
                "256",
                "--cache-dir",
            ])
            .arg(cache_dir)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("server spawns");
        let banner = wait_for_banner(&mut child);
        let addr = banner.trim().rsplit(' ').next().expect("addr").to_string();
        let stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("clone");
        TcpServer {
            child,
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        line.trim_end().to_string()
    }

    /// Collects `n` responses into an id → full-line map.
    fn recv_n(&mut self, n: usize) -> HashMap<usize, String> {
        let mut got = HashMap::new();
        while got.len() < n {
            let line = self.recv();
            let id: usize = line
                .strip_prefix("{\"id\":")
                .and_then(|r| r.split(',').next())
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("malformed response: {line}"));
            got.insert(id, line);
        }
        got
    }

    fn stats(&mut self) -> String {
        self.send("{\"id\":777777,\"op\":\"stats\"}");
        self.recv()
    }

    fn shutdown(mut self) {
        self.send("{\"id\":999999,\"op\":\"shutdown\"}");
        let _ = self.recv();
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "server exit: {status}");
    }
}

/// A test that fails before `shutdown` must not leave its server running.
impl Drop for TcpServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Pulls the first integer after `"<field>":` out of a stats line.
fn stat_field(stats: &str, field: &str) -> u64 {
    stats
        .split(&format!("\"{field}\":"))
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no {field} in {stats}"))
}

/// The shard logs (sorted) under a cache directory.
fn shard_logs(dir: &Path) -> Vec<PathBuf> {
    let mut logs: Vec<_> = std::fs::read_dir(dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".log"))
        })
        .collect();
    logs.sort();
    logs
}

/// `kill -9` mid-batch: the survivors' records replay, any torn tail is
/// dropped on reopen, and a fresh server serves the whole corpus with
/// bytes identical to the CLI.
#[test]
fn kill_nine_mid_batch_leaves_a_recoverable_cache() {
    let dir = TempDir::new("kill9");
    let fixtures = fixture_texts();
    let expected: Vec<String> = fixtures
        .iter()
        .enumerate()
        .map(|(i, t)| cli_json(t, i))
        .collect();

    let mut server = TcpServer::spawn(&dir.0, &["--shards", "2"]);
    // Queue a burst, but only wait for the first few responses: whatever
    // the server managed to append is what recovery gets to work with.
    let mut rng = SplitMix64::new(0x004b_1119);
    let burst: Vec<usize> = (0..48).map(|_| rng.gen_range(0..fixtures.len())).collect();
    for (id, &u) in burst.iter().enumerate() {
        server.send(&encode_request(id, &fixtures[u]));
    }
    let confirmed = server.recv_n(8);
    for (&id, line) in &confirmed {
        assert_eq!(
            line,
            &format!("{{\"id\":{id},\"v\":1,\"result\":{}}}", expected[burst[id]]),
            "pre-crash response diverged from the CLI"
        );
    }
    server.child.kill().expect("SIGKILL");
    let _ = server.child.wait();

    // The cache directory must reopen cleanly: a confirmed response
    // implies its record was appended (append happens before the
    // response is written), so recovery finds at least one record.
    let disk = DiskCache::open(&dir.0, 2).expect("reopen after kill -9");
    assert_eq!(disk.shard_count(), 2, "meta survives the crash");
    assert!(
        disk.indexed_records() >= 1,
        "confirmed responses imply recoverable records"
    );
    let recovered = disk
        .stats()
        .recovered
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(recovered >= 1, "open-time replay found no valid records");
    drop(disk);

    // Torn tail, deterministically: a record header claiming 200 payload
    // bytes with only 3 present. Reopen must truncate exactly that tail.
    let log = shard_logs(&dir.0)
        .into_iter()
        .next()
        .expect("at least one shard log");
    let before = std::fs::metadata(&log).expect("meta").len();
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&log)
        .expect("append");
    f.write_all(&[200, 0, 0, 0, 9, 9, 9]).expect("torn write");
    drop(f);
    let disk = DiskCache::open(&dir.0, 2).expect("reopen after torn write");
    assert_eq!(
        disk.stats()
            .torn_bytes
            .load(std::sync::atomic::Ordering::Relaxed),
        7,
        "the torn tail is dropped, nothing more"
    );
    assert_eq!(
        std::fs::metadata(&log).expect("meta").len(),
        before,
        "truncation restored the pre-tear length"
    );
    drop(disk);

    // A fresh server on the recovered directory serves the full corpus,
    // byte-identical to the CLI, warm-starting from the surviving records.
    let mut server = TcpServer::spawn(&dir.0, &["--shards", "2"]);
    for (id, &u) in burst.iter().enumerate() {
        server.send(&encode_request(id, &fixtures[u]));
    }
    let got = server.recv_n(burst.len());
    for (id, &u) in burst.iter().enumerate() {
        assert_eq!(
            got[&id],
            format!("{{\"id\":{id},\"v\":1,\"result\":{}}}", expected[u]),
            "post-recovery response diverged from the CLI"
        );
    }
    let stats = server.stats();
    assert!(
        stat_field(&stats, "records") >= 1,
        "disk tier reports no records: {stats}"
    );
    server.shutdown();
}

/// A flipped payload byte: the checksum rejects the record, the request
/// is re-solved (never served from the damaged entry), and the response
/// still matches the CLI byte-for-byte.
#[test]
fn corrupt_record_is_rejected_and_resolved() {
    let dir = TempDir::new("corrupt");
    let text = std::fs::read_to_string(format!("{FIXTURE_DIR}/section1.txt")).expect("fixture");
    let expected = cli_json(&text, 900);

    let mut server = TcpServer::spawn(&dir.0, &["--shards", "1"]);
    server.send(&encode_request(1, &text));
    assert_eq!(
        server.recv(),
        format!("{{\"id\":1,\"v\":1,\"result\":{expected}}}")
    );
    server.shutdown();

    // Flip one byte inside the record's payload (offset 16 header + 12
    // record header + 1): the checksum must now reject it.
    let log = shard_logs(&dir.0).into_iter().next().expect("shard log");
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&log)
        .expect("open log");
    f.seek(SeekFrom::Start(16 + 12 + 1)).expect("seek");
    let mut byte = [0u8; 1];
    f.read_exact(&mut byte).expect("read byte");
    f.seek(SeekFrom::Start(16 + 12 + 1)).expect("seek back");
    f.write_all(&[byte[0] ^ 0xff]).expect("flip byte");
    drop(f);

    let mut server = TcpServer::spawn(&dir.0, &["--shards", "1"]);
    server.send(&encode_request(2, &text));
    assert_eq!(
        server.recv(),
        format!("{{\"id\":2,\"v\":1,\"result\":{expected}}}"),
        "a corrupt record must be re-solved, never served"
    );
    let stats = server.stats();
    assert!(
        stat_field(&stats, "rejected") >= 1,
        "open-time scan did not reject the corrupt record: {stats}"
    );
    // The re-solve wrote a replacement record.
    assert!(
        stat_field(&stats, "appends") >= 1,
        "re-solve did not repopulate the cache: {stats}"
    );
    server.shutdown();
}

/// Two server processes, one cache directory: a shuffled duplicate
/// corpus split between them yields identical responses everywhere, and
/// the cross-process single-flight guard holds total disk appends to
/// exactly one per canonical key.
#[test]
fn two_processes_share_one_cache_directory() {
    let dir = TempDir::new("two-proc");
    let fixtures = fixture_texts();
    let expected: Vec<String> = fixtures
        .iter()
        .enumerate()
        .map(|(i, t)| cli_json(t, i + 100))
        .collect();

    let mut a = TcpServer::spawn(&dir.0, &["--shards", "4"]);
    let mut b = TcpServer::spawn(&dir.0, &["--shards", "4"]);

    // Every fixture six times, shuffled, alternating between processes.
    let mut corpus: Vec<usize> = (0..fixtures.len() * 6)
        .map(|i| i % fixtures.len())
        .collect();
    SplitMix64::new(0x2b0b).shuffle(&mut corpus);
    for (id, &u) in corpus.iter().enumerate() {
        let server = if id % 2 == 0 { &mut a } else { &mut b };
        server.send(&encode_request(id, &fixtures[u]));
    }
    let got_a = a.recv_n(corpus.len().div_ceil(2));
    let got_b = b.recv_n(corpus.len() / 2);
    for (id, &u) in corpus.iter().enumerate() {
        let line = if id % 2 == 0 {
            &got_a[&id]
        } else {
            &got_b[&id]
        };
        assert_eq!(
            line,
            &format!("{{\"id\":{id},\"v\":1,\"result\":{}}}", expected[u]),
            "response diverged from the CLI (process {})",
            if id % 2 == 0 { "a" } else { "b" }
        );
    }

    // One solve per canonical key across BOTH processes: the sum of
    // their disk appends is exactly the number of unique fixtures.
    let appends_a = stat_field(&a.stats(), "appends");
    let appends_b = stat_field(&b.stats(), "appends");
    assert_eq!(
        appends_a + appends_b,
        fixtures.len() as u64,
        "single-flight violated: {appends_a} + {appends_b} appends for {} keys",
        fixtures.len()
    );

    a.shutdown();
    b.shutdown();
}
