//! Minimal blocking client: one request line out, one response line in.

use crate::protocol::{SolveRequest, SolveResponse};
use std::io::{self, BufRead, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Sends `request` to the server at `addr` and blocks for the typed
/// response. `timeout` bounds the wait for the response line (the solve
/// itself is bounded server-side, so a healthy server always answers
/// within its own `max_timeout_ms` plus queueing). The line and its
/// `"\n"` leave in one write on a `TCP_NODELAY` socket, so neither waits
/// for a delayed ACK.
pub fn send_request(
    addr: impl ToSocketAddrs,
    request: &SolveRequest,
    timeout: Duration,
) -> io::Result<SolveResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    let mut line = serde_json::to_string(request)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    line.push('\n');
    stream.write_all(line.as_bytes())?;

    let mut reader = io::BufReader::new(stream);
    let mut reply = String::new();
    let n = reader.read_line(&mut reply)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection before responding",
        ));
    }
    serde_json::from_str(reply.trim_end()).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("malformed response: {e}"))
    })
}
