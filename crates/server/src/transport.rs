//! Byte-stream transports for the wire protocol: stdio, Unix sockets,
//! and TCP.
//!
//! A transport is thin by design: it pumps lines from a reader into a
//! [`Submitter`] on one thread and drains the
//! [`FrameReceiver`](crate::FrameReceiver) into a writer on another.
//! All scheduling lives in the shared [`Server`]
//! pool, so a transport never spawns per-request threads — only the two
//! per-*connection* pump threads.

use crate::chaos::{self, ChaosConfig};
use crate::server::{Server, Submitted, Submitter};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::Arc;
use std::thread;

/// What one served connection did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Non-blank input lines consumed.
    pub lines_in: u64,
    /// Reply frames written.
    pub replies_out: u64,
}

fn pump_lines(submitter: &mut Submitter, mut input: impl BufRead) -> io::Result<u64> {
    let mut lines = 0;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // read raw bytes: a line of invalid UTF-8 must become a typed
        // error frame, not a torn-down connection
        if input.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        match submitter.submit_bytes(&buf) {
            Submitted::Skipped => {}
            Submitted::Shutdown => {
                lines += 1;
                break;
            }
            Submitted::Queued | Submitted::Replied => lines += 1,
        }
    }
    Ok(lines)
}

/// Writes one reply frame, applying the seeded chaos seams when armed:
/// the frame may be torn (a prefix written, then the write fails) or
/// the connection dropped before the write. `index` is the frame's
/// position in this connection's reply stream, which is what keys the
/// injection draw.
fn write_frame(
    output: &mut impl Write,
    frame: &str,
    index: u64,
    chaos: Option<&ChaosConfig>,
) -> io::Result<()> {
    if let Some(c) = chaos {
        if c.fires(c.drop_connection, chaos::SITE_DROP_CONNECTION, 0, index) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "chaos: injected connection drop",
            ));
        }
        if c.fires(c.torn_frame, chaos::SITE_TORN_FRAME, 0, index) {
            let cut = (frame.len() / 2).max(1);
            output.write_all(&frame.as_bytes()[..cut])?;
            output.flush()?;
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "chaos: injected torn frame",
            ));
        }
    }
    output.write_all(frame.as_bytes())?;
    output.write_all(b"\n")?;
    output.flush()?;
    Ok(())
}

/// Serves one already-open byte stream: reads newline-delimited frames
/// from `input` until EOF or a `shutdown` frame, writes reply frames to
/// `output` in submission order, and returns once every admitted
/// request has been answered.
///
/// # Errors
///
/// Propagates I/O errors from either side; the ingest side always
/// signals completion first so the reporting side cannot hang.
pub fn serve_stream(
    server: &Server,
    input: impl BufRead + Send,
    output: impl Write,
) -> io::Result<ServeSummary> {
    serve_stream_with(server, input, output, || {})
}

/// [`serve_stream`] with a teardown hook, invoked exactly once if the
/// writer fails. Socket transports pass a closure that shuts the stream
/// down in both directions, which unblocks a reader parked in
/// `read_until` — so a dead writer ends the whole connection promptly
/// instead of wedging the ingest thread (and this function) until the
/// client happens to hang up.
///
/// After a write failure the reporting stream is still drained to
/// completion (frames are discarded), so workers never block on a
/// connection whose output is gone.
///
/// # Errors
///
/// A write error takes precedence; otherwise read errors propagate.
pub fn serve_stream_with(
    server: &Server,
    input: impl BufRead + Send,
    mut output: impl Write,
    teardown: impl FnOnce(),
) -> io::Result<ServeSummary> {
    let chaos = server.config().chaos.clone();
    let (mut submitter, receiver) = server.connect().split();
    thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let result = pump_lines(&mut submitter, input);
            // even on a read error, close out the reporting stream so
            // the writer below terminates
            submitter.finish();
            result
        });
        let mut replies_out = 0;
        let mut write_error: Option<io::Error> = None;
        let mut teardown = Some(teardown);
        for frame in receiver {
            if write_error.is_some() {
                // the output is gone: keep draining so the connection
                // winds down cleanly, but write nothing further
                continue;
            }
            match write_frame(&mut output, &frame, replies_out, chaos.as_ref()) {
                Ok(()) => replies_out += 1,
                Err(e) => {
                    write_error = Some(e);
                    if let Some(t) = teardown.take() {
                        t();
                    }
                }
            }
        }
        // the reply stream ending because the server "died" (seeded
        // process kill / `Server::halt`) is a failed connection, not a
        // short-but-clean one: surface a distinct error and fire the
        // teardown so a socket's parked reader unblocks
        if write_error.is_none() && server.killed() {
            write_error = Some(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "chaos: injected process kill",
            ));
            if let Some(t) = teardown.take() {
                t();
            }
        }
        let lines_in = reader.join().expect("ingest thread panicked");
        if let Some(e) = write_error {
            return Err(e);
        }
        Ok(ServeSummary {
            lines_in: lines_in?,
            replies_out,
        })
    })
}

/// Serves standard input/output — the `splitd` default. Returns at EOF
/// or on a `shutdown` frame.
///
/// # Errors
///
/// Propagates I/O errors from either pipe.
pub fn serve_stdio(server: &Server) -> io::Result<ServeSummary> {
    // Stdin's own lock is not Send; a BufReader over the handle is
    let stdin = BufReader::new(io::stdin());
    let stdout = io::stdout().lock();
    serve_stream(server, stdin, BufWriter::new(stdout))
}

fn spawn_connection<S>(server: Arc<Server>, stream: S, teardown: impl FnOnce() + Send + 'static)
where
    S: io::Read + io::Write + Send + Sync + 'static,
    for<'a> &'a S: io::Read + io::Write,
{
    thread::spawn(move || {
        let reader = BufReader::new(&stream);
        let writer = BufWriter::new(&stream);
        if let Err(e) = serve_stream_with(&server, reader, writer, teardown) {
            eprintln!("splitd: connection error: {e}");
        }
    });
}

/// Accept loop over a Unix-domain socket at `path` (pre-existing files
/// are replaced). Each accepted connection gets its own pump threads;
/// all requests share the server's worker pool. Runs until accept
/// fails.
///
/// Streams get the server's configured write timeout, and a failed
/// writer shuts the socket down in both directions so the connection's
/// reader thread always unblocks.
///
/// # Errors
///
/// Propagates bind/accept errors.
pub fn serve_unix(server: Arc<Server>, path: &Path) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    eprintln!("splitd: listening on unix socket {}", path.display());
    for stream in listener.incoming() {
        let stream = stream?;
        let _ = stream.set_write_timeout(Some(server.config().write_timeout));
        let shutdown_handle = stream.try_clone().ok();
        spawn_connection(Arc::clone(&server), stream, move || {
            if let Some(s) = shutdown_handle {
                let _ = s.shutdown(Shutdown::Both);
            }
        });
    }
    Ok(())
}

/// Accept loop over TCP at `addr` (e.g. `127.0.0.1:7317`). Runs until
/// accept fails.
///
/// Streams get the server's configured write timeout, and a failed
/// writer shuts the socket down in both directions so the connection's
/// reader thread always unblocks.
///
/// # Errors
///
/// Propagates bind/accept errors.
pub fn serve_tcp(server: Arc<Server>, addr: &str) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("splitd: listening on tcp {}", listener.local_addr()?);
    for stream in listener.incoming() {
        let stream = stream?;
        let _ = stream.set_write_timeout(Some(server.config().write_timeout));
        let shutdown_handle = stream.try_clone().ok();
        spawn_connection(Arc::clone(&server), stream, move || {
            if let Some(s) = shutdown_handle {
                let _ = s.shutdown(Shutdown::Both);
            }
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::wire::split_reply;

    fn quiet_server() -> Server {
        Server::start(ServerConfig {
            record_timings: false,
            ..ServerConfig::default()
        })
    }

    #[test]
    fn stream_transport_round_trips_lines() {
        let server = quiet_server();
        let input = concat!(
            r#"{"v":1,"type":"request","id":"a","problem":{"name":"mis","base_degree":8},"instance":{"kind":"host","nodes":3,"edges":[[0,1],[1,2],[2,0]]}}"#,
            "\n",
            "\n",
            r#"{"v":1,"type":"ping"}"#,
            "\n",
            r#"{"v":1,"type":"shutdown"}"#,
            "\n",
            r#"{"v":1,"type":"request","id":"after-shutdown"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let summary = serve_stream(&server, input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.lines_in, 3, "shutdown stops ingest");
        assert_eq!(summary.replies_out, 2);
        let text = String::from_utf8(out).unwrap();
        let frames: Vec<&str> = text.lines().collect();
        assert_eq!(frames.len(), 2);
        assert_eq!(split_reply(frames[0]).unwrap().frame_type, "solution");
        assert_eq!(split_reply(frames[1]).unwrap().frame_type, "heartbeat");
        server.shutdown();
    }

    #[test]
    fn handle_lifecycle_rides_the_stream_transport() {
        use crate::wire::{self, Priority};
        use splitting_api::{Problem, Request};

        let server = quiet_server();
        let g = splitgraph::generators::cycle(6).unwrap();
        let request = Request::new(
            Problem::Mis {
                base_degree: Some(8),
            },
            g,
        )
        .seed(2);
        let handle = wire::render_handle(wire::instance_fingerprint(request.instance()));
        let input = format!(
            "{}\n{}\n{}\n{}\n",
            wire::render_upload("up", request.instance()),
            wire::render_request_with(
                "s1",
                Priority::Normal,
                None,
                wire::InstanceRef::Handle(&handle),
                &request
            ),
            wire::render_request("s2", Priority::Normal, &request),
            wire::render_release("rel", &handle),
        );
        let mut out = Vec::new();
        let summary = serve_stream(&server, input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.lines_in, 4);
        assert_eq!(summary.replies_out, 4);
        let text = String::from_utf8(out).unwrap();
        let frames: Vec<&str> = text.lines().collect();
        let kinds: Vec<_> = frames
            .iter()
            .map(|f| split_reply(f).unwrap().frame_type)
            .collect();
        assert_eq!(kinds, ["uploaded", "solution", "solution", "released"]);
        // handle-form and inline-form replies carry the same payload
        assert_eq!(
            split_reply(frames[1]).unwrap().payload,
            split_reply(frames[2]).unwrap().payload,
            "handle-vs-inline byte parity over the stream transport"
        );
        assert!(frames[0].contains(&handle), "{}", frames[0]);
        server.shutdown();
    }

    #[test]
    fn tcp_transport_serves_concurrent_clients() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let server = Arc::new(quiet_server());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                for stream in listener.incoming() {
                    spawn_connection(Arc::clone(&server), stream.unwrap(), || {});
                }
            });
        }
        let clients: Vec<_> = (0..3)
            .map(|c| {
                thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let line = format!(
                        r#"{{"v":1,"type":"request","id":"c{c}","problem":{{"name":"mis","base_degree":8}},"instance":{{"kind":"host","nodes":3,"edges":[[0,1],[1,2],[2,0]]}}}}"#
                    );
                    stream.write_all(line.as_bytes()).unwrap();
                    stream.write_all(b"\n").unwrap();
                    stream
                        .write_all(br#"{"v":1,"type":"shutdown"}"#)
                        .unwrap();
                    stream.write_all(b"\n").unwrap();
                    let mut reply = String::new();
                    BufReader::new(&stream).read_line(&mut reply).unwrap();
                    let parsed = split_reply(reply.trim_end()).unwrap();
                    assert_eq!(parsed.frame_type, "solution");
                    assert_eq!(parsed.id, format!("c{c}"));
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
    }

    #[test]
    fn eof_mid_frame_yields_a_typed_error_not_a_hang() {
        // the stream dies mid-frame: the partial line (no trailing
        // newline) must become a typed error reply and the serve loop
        // must return cleanly at EOF
        let server = quiet_server();
        let input = concat!(
            r#"{"v":1,"type":"request","id":"ok","problem":{"name":"mis","base_degree":8},"instance":{"kind":"host","nodes":3,"edges":[[0,1],[1,2],[2,0]]}}"#,
            "\n",
            r#"{"v":1,"type":"requ"#, // torn by the peer, EOF follows
        );
        let mut out = Vec::new();
        let summary = serve_stream(&server, input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.lines_in, 2);
        assert_eq!(summary.replies_out, 2);
        let text = String::from_utf8(out).unwrap();
        let frames: Vec<&str> = text.lines().collect();
        assert_eq!(split_reply(frames[0]).unwrap().frame_type, "solution");
        let torn = split_reply(frames[1]).unwrap();
        assert_eq!(torn.frame_type, "error");
        assert!(
            torn.payload
                .unwrap()
                .contains("\"kind\":\"invalid-request\""),
            "{}",
            frames[1]
        );
        server.shutdown();
    }

    /// A reader that yields one request line, then blocks until told to
    /// stop — standing in for a socket whose client never hangs up.
    struct StuckReader {
        line: Option<Vec<u8>>,
        unblock: Arc<std::sync::atomic::AtomicBool>,
    }

    impl io::Read for StuckReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if let Some(line) = self.line.take() {
                buf[..line.len()].copy_from_slice(&line);
                return Ok(line.len());
            }
            while !self.unblock.load(std::sync::atomic::Ordering::Relaxed) {
                thread::sleep(std::time::Duration::from_millis(1));
            }
            Ok(0) // the teardown "closed the socket": EOF
        }
    }

    /// A writer whose first write fails — a peer that vanished.
    struct DeadWriter;

    impl io::Write for DeadWriter {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_failure_fires_teardown_and_never_wedges_the_reader() {
        use std::sync::atomic::AtomicBool;

        let server = quiet_server();
        let unblock = Arc::new(AtomicBool::new(false));
        let reader = StuckReader {
            line: Some(
                concat!(
                    r#"{"v":1,"type":"request","id":"a","problem":{"name":"mis","base_degree":8},"instance":{"kind":"host","nodes":3,"edges":[[0,1],[1,2],[2,0]]}}"#,
                    "\n"
                )
                .as_bytes()
                .to_vec(),
            ),
            unblock: Arc::clone(&unblock),
        };
        // without the teardown hook this would deadlock: the writer dies,
        // but the reader stays parked waiting for a client that will
        // never send another byte
        let hook = Arc::clone(&unblock);
        let err = serve_stream_with(&server, BufReader::new(reader), DeadWriter, move || {
            hook.store(true, std::sync::atomic::Ordering::Relaxed);
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(
            unblock.load(std::sync::atomic::Ordering::Relaxed),
            "teardown must have fired"
        );
        server.shutdown();
    }

    #[test]
    fn chaos_torn_frames_and_drops_fail_the_connection_not_the_server() {
        use crate::chaos::ChaosConfig;

        let request = concat!(
            r#"{"v":1,"type":"request","id":"a","problem":{"name":"mis","base_degree":8},"instance":{"kind":"host","nodes":3,"edges":[[0,1],[1,2],[2,0]]}}"#,
            "\n"
        );
        // torn frame: a prefix of the reply reaches the wire, then the
        // connection fails with the injected error
        let server = Server::start(ServerConfig {
            record_timings: false,
            chaos: Some(ChaosConfig {
                seed: 3,
                torn_frame: 1.0,
                ..ChaosConfig::default()
            }),
            ..ServerConfig::default()
        });
        let mut out = Vec::new();
        let err = serve_stream(&server, request.as_bytes(), &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(!out.is_empty() && !out.ends_with(b"\n"), "prefix only");
        // the server itself survives chaos on one connection: a second
        // serve on the same pool would also chaos-fail, so check health
        // through the in-process path instead
        let (mut tx, mut rx) = server.connect().split();
        tx.submit_request(
            "fresh",
            crate::wire::Priority::Normal,
            splitting_api::Request::new(
                splitting_api::Problem::Mis {
                    base_degree: Some(8),
                },
                splitgraph::generators::cycle(6).unwrap(),
            ),
        );
        tx.finish();
        assert!(rx.recv().unwrap().contains("\"type\":\"solution\""));
        server.shutdown();

        // dropped connection: nothing reaches the wire
        let server = Server::start(ServerConfig {
            record_timings: false,
            chaos: Some(ChaosConfig {
                seed: 3,
                drop_connection: 1.0,
                ..ChaosConfig::default()
            }),
            ..ServerConfig::default()
        });
        let mut out = Vec::new();
        let err = serve_stream(&server, request.as_bytes(), &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        assert!(out.is_empty());
        server.shutdown();
    }
}
