//! TCP-like client streams with byte accounting.
//!
//! The paper's scanner enforces per-host limits of 60 minutes and 50 MB
//! of outgoing traffic (Appendix A.2); [`ConnectionStats`] provides the
//! inputs for that accounting.

use crate::clock::{Micros, VirtualClock};
use crate::internet::{Connection, ConnectionOutput};
use std::collections::VecDeque;

/// Per-connection traffic statistics (virtual time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Bytes sent by the client.
    pub tx_bytes: u64,
    /// Bytes received by the client.
    pub rx_bytes: u64,
    /// Virtual time the connection was opened.
    pub opened_at_micros: Micros,
}

/// Errors on an open stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The server closed the connection.
    Closed,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "connection closed by peer")
    }
}

impl std::error::Error for StreamError {}

/// Transmission cost model: bytes per microsecond (≈ 80 Mbit/s).
const BYTES_PER_MICRO: u64 = 10;

/// A connected TCP-like stream driving a server-side [`Connection`].
pub struct TcpStreamSim {
    clock: VirtualClock,
    server: Box<dyn Connection>,
    rtt_micros: u32,
    rx_queue: VecDeque<Vec<u8>>,
    closed: bool,
    stats: ConnectionStats,
}

impl TcpStreamSim {
    pub(crate) fn new(clock: VirtualClock, server: Box<dyn Connection>, rtt_micros: u32) -> Self {
        let opened_at = clock.now_micros();
        TcpStreamSim {
            clock,
            server,
            rtt_micros,
            rx_queue: VecDeque::new(),
            closed: false,
            stats: ConnectionStats {
                tx_bytes: 0,
                rx_bytes: 0,
                opened_at_micros: opened_at,
            },
        }
    }

    /// Sends bytes to the server; any reply is queued for [`recv`].
    ///
    /// [`recv`]: TcpStreamSim::recv
    pub fn send(&mut self, data: &[u8]) -> Result<(), StreamError> {
        if self.closed {
            return Err(StreamError::Closed);
        }
        self.stats.tx_bytes += data.len() as u64;
        self.clock
            .advance_micros(self.rtt_micros as u64 / 2 + data.len() as u64 / BYTES_PER_MICRO);
        let ConnectionOutput { reply, close } = self.server.on_data(data);
        if !reply.is_empty() {
            self.stats.rx_bytes += reply.len() as u64;
            self.clock
                .advance_micros(self.rtt_micros as u64 / 2 + reply.len() as u64 / BYTES_PER_MICRO);
            self.rx_queue.push_back(reply);
        }
        if close {
            self.closed = true;
        }
        Ok(())
    }

    /// Receives the next queued reply; `Ok(None)` when the server has
    /// not replied (yet) but the connection is open.
    pub fn recv(&mut self) -> Result<Option<Vec<u8>>, StreamError> {
        if let Some(data) = self.rx_queue.pop_front() {
            return Ok(Some(data));
        }
        if self.closed {
            return Err(StreamError::Closed);
        }
        Ok(None)
    }

    /// True after the server closed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> ConnectionStats {
        self.stats
    }

    /// The connection's round-trip time — the latency every
    /// request/response pair on this stream pays; [`crate::ConnectPoll`]
    /// hints can be checked against it.
    pub fn rtt_micros(&self) -> u32 {
        self.rtt_micros
    }

    /// Virtual milliseconds since the connection opened.
    pub fn age_millis(&self) -> u64 {
        (self.clock.now_micros() - self.stats.opened_at_micros) / 1000
    }
}

/// An in-memory client↔server pipe that skips the Internet entirely —
/// used to unit-test `ua-server`/`ua-client` against each other.
pub struct LoopbackStream {
    inner: TcpStreamSim,
}

impl LoopbackStream {
    /// Wraps a server connection with zero latency.
    pub fn new(clock: VirtualClock, server: Box<dyn Connection>) -> Self {
        LoopbackStream {
            inner: TcpStreamSim::new(clock, server, 0),
        }
    }

    /// See [`TcpStreamSim::send`].
    pub fn send(&mut self, data: &[u8]) -> Result<(), StreamError> {
        self.inner.send(data)
    }

    /// See [`TcpStreamSim::recv`].
    pub fn recv(&mut self) -> Result<Option<Vec<u8>>, StreamError> {
        self.inner.recv()
    }

    /// See [`TcpStreamSim::stats`].
    pub fn stats(&self) -> ConnectionStats {
        self.inner.stats()
    }

    /// See [`TcpStreamSim::is_closed`].
    pub fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
}

/// Abstraction over byte streams so the OPC UA client runs over
/// [`TcpStreamSim`], [`LoopbackStream`], or anything else.
pub trait ByteStream {
    /// Sends bytes.
    fn send(&mut self, data: &[u8]) -> Result<(), StreamError>;
    /// Receives the next reply, if any.
    fn recv(&mut self) -> Result<Option<Vec<u8>>, StreamError>;
    /// Traffic statistics.
    fn stats(&self) -> ConnectionStats;
}

impl ByteStream for TcpStreamSim {
    fn send(&mut self, data: &[u8]) -> Result<(), StreamError> {
        TcpStreamSim::send(self, data)
    }
    fn recv(&mut self) -> Result<Option<Vec<u8>>, StreamError> {
        TcpStreamSim::recv(self)
    }
    fn stats(&self) -> ConnectionStats {
        TcpStreamSim::stats(self)
    }
}

impl ByteStream for LoopbackStream {
    fn send(&mut self, data: &[u8]) -> Result<(), StreamError> {
        LoopbackStream::send(self, data)
    }
    fn recv(&mut self) -> Result<Option<Vec<u8>>, StreamError> {
        LoopbackStream::recv(self)
    }
    fn stats(&self) -> ConnectionStats {
        LoopbackStream::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::internet::ConnectionOutput;

    /// Server that answers "pong" to "ping" and closes on "bye".
    struct PingPong;
    impl Connection for PingPong {
        fn on_data(&mut self, data: &[u8]) -> ConnectionOutput {
            match data {
                b"ping" => ConnectionOutput::reply(b"pong".to_vec()),
                b"bye" => ConnectionOutput::close_with(b"cya".to_vec()),
                _ => ConnectionOutput::empty(),
            }
        }
    }

    #[test]
    fn request_reply_and_close() {
        let clock = VirtualClock::starting_at(0);
        let mut s = TcpStreamSim::new(clock, Box::new(PingPong), 1000);
        s.send(b"ping").unwrap();
        assert_eq!(s.recv().unwrap(), Some(b"pong".to_vec()));
        // No reply pending.
        assert_eq!(s.recv().unwrap(), None);
        s.send(b"noop").unwrap();
        assert_eq!(s.recv().unwrap(), None);
        s.send(b"bye").unwrap();
        assert_eq!(s.recv().unwrap(), Some(b"cya".to_vec()));
        assert!(s.is_closed());
        assert_eq!(s.recv().unwrap_err(), StreamError::Closed);
        assert!(s.send(b"ping").is_err());
    }

    #[test]
    fn stats_account_traffic() {
        let clock = VirtualClock::starting_at(5);
        let mut s = TcpStreamSim::new(clock.clone(), Box::new(PingPong), 0);
        s.send(b"ping").unwrap();
        s.recv().unwrap();
        let st = s.stats();
        assert_eq!(st.tx_bytes, 4);
        assert_eq!(st.rx_bytes, 4);
        assert_eq!(st.opened_at_micros, 5_000_000);
    }

    #[test]
    fn age_tracks_clock() {
        let clock = VirtualClock::starting_at(0);
        let s = TcpStreamSim::new(clock.clone(), Box::new(PingPong), 0);
        clock.advance_millis(110_000);
        assert_eq!(s.age_millis(), 110_000);
    }

    #[test]
    fn loopback_works() {
        let clock = VirtualClock::starting_at(0);
        let mut s = LoopbackStream::new(clock, Box::new(PingPong));
        s.send(b"ping").unwrap();
        assert_eq!(s.recv().unwrap(), Some(b"pong".to_vec()));
    }
}
