//! A blocking client for the wire protocol.
//!
//! One connection, requests answered in order. [`Client::submit_until_accepted`]
//! implements the cooperative half of backpressure: on `queue_full` it
//! sleeps the server-suggested `retry_after_ms` and resubmits.

use crate::job::JobSpec;
use crate::wire::{encode_request, parse_response, Request, Response, SubmitStatus};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected protocol client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads one reply.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.send(req)?;
        self.recv()
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        let mut line = encode_request(req);
        line.push('\n');
        (self.writer.write_all(line.as_bytes()))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one reply line.
    fn recv(&mut self) -> Result<Response, String> {
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        parse_response(reply.trim_end())
    }

    /// Submits a job once.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<Response, String> {
        self.call(&Request::Submit(spec.clone()))
    }

    /// Submits a job, honoring `queue_full` backpressure: sleeps the
    /// server's `retry_after_ms` hint and retries, up to `max_retries`
    /// attempts. Returns the accepting reply `(id, status)` plus how many
    /// retries backpressure cost.
    pub fn submit_until_accepted(
        &mut self,
        spec: &JobSpec,
        max_retries: u64,
    ) -> Result<(u64, SubmitStatus, u64), String> {
        let mut retries = 0u64;
        loop {
            match self.submit(spec)? {
                Response::Submitted { id, status, .. } => return Ok((id, status, retries)),
                Response::Rejected {
                    reason,
                    detail,
                    retry_after_ms,
                } if reason == "queue_full" => {
                    if retries >= max_retries {
                        return Err(format!("gave up after {retries} retries: {detail}"));
                    }
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                }
                Response::Rejected { reason, detail, .. } => {
                    return Err(format!("rejected ({reason}): {detail}"));
                }
                other => return Err(format!("unexpected submit reply {other:?}")),
            }
        }
    }

    /// Blocks until job `id` finishes and returns its raw result bytes.
    pub fn result(&mut self, id: u64) -> Result<String, String> {
        match self.call(&Request::Result(id))? {
            Response::ResultOk { result, .. } => Ok(result),
            Response::ResultErr { error, .. } => Err(format!("job {id} failed: {error}")),
            other => Err(format!("unexpected result reply {other:?}")),
        }
    }

    /// Watches job `id` to completion: streams its progress events (raw
    /// single-line JSON objects, in order) into `on_event` as they
    /// arrive, then returns the final raw result bytes. For job kinds
    /// without progress this is `result` plus zero events.
    pub fn watch(&mut self, id: u64, on_event: &mut dyn FnMut(String)) -> Result<String, String> {
        self.send(&Request::Watch(id))?;
        let mut next_seq = 0u64;
        loop {
            match self.recv()? {
                Response::Progress { seq, event, .. } => {
                    if seq != next_seq {
                        return Err(format!(
                            "watch stream skipped: expected seq {next_seq}, got {seq}"
                        ));
                    }
                    next_seq += 1;
                    on_event(event);
                }
                Response::ResultOk { result, .. } => return Ok(result),
                Response::ResultErr { error, .. } => {
                    return Err(format!("job {id} failed: {error}"))
                }
                Response::ProtocolError { error } => return Err(error),
                other => return Err(format!("unexpected watch reply {other:?}")),
            }
        }
    }

    /// Fetches the server metrics snapshot (single-line JSON object).
    pub fn stats(&mut self) -> Result<String, String> {
        match self.call(&Request::Stats)? {
            Response::Stats { metrics } => Ok(metrics),
            other => Err(format!("unexpected stats reply {other:?}")),
        }
    }

    /// Asks the server to drain and waits for the final summary:
    /// `(answered, executed, metrics)`.
    pub fn drain(&mut self) -> Result<(u64, u64, String), String> {
        match self.call(&Request::Drain)? {
            Response::Drained {
                answered,
                executed,
                metrics,
            } => Ok((answered, executed, metrics)),
            other => Err(format!("unexpected drain reply {other:?}")),
        }
    }
}
