//! The serving loop: accepts control-plane connections and dispatches
//! requests against a shared [`Supervisor`].
//!
//! One thread per connection; the supervisor is shared behind an `Arc`
//! (all its control methods take `&self`). A `drain` request replies,
//! then trips a shutdown flag: the accept loop stops, the supervisor
//! drains gracefully (running jobs checkpoint and park back to
//! `queued`), and [`serve`] returns.

use crate::rpc::{err_reply, job_line, ok_reply, Msg};
use falcon_dema::error::{Error, Result};
use falcon_dema::orch::{JobSpec, Supervisor};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A bound control-plane listener.
pub enum Listener {
    /// TCP (the portable default; bind to `127.0.0.1:0` for a free port).
    Tcp(TcpListener),
    /// Unix domain socket (Unix only).
    #[cfg(unix)]
    Unix(UnixListener),
}

/// Binds a listener. `"unix:<path>"` selects a Unix domain socket
/// (removing a stale socket file first); anything else is a TCP
/// `host:port` address.
///
/// # Errors
///
/// Propagates bind errors.
pub fn bind(addr: &str) -> Result<Listener> {
    #[cfg(unix)]
    if let Some(path) = addr.strip_prefix("unix:") {
        let _ = std::fs::remove_file(path);
        return Ok(Listener::Unix(UnixListener::bind(path)?));
    }
    Ok(Listener::Tcp(TcpListener::bind(addr)?))
}

impl Listener {
    /// The bound address in the same form [`bind`] accepts — clients
    /// (and restarted daemons' discovery files) can connect to it.
    ///
    /// # Errors
    ///
    /// Propagates address lookup errors.
    pub fn local_addr(&self) -> Result<String> {
        match self {
            Listener::Tcp(l) => Ok(l.local_addr()?.to_string()),
            #[cfg(unix)]
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| Error::Orchestration("unnamed unix socket".into()))?;
                Ok(format!("unix:{}", path.display()))
            }
        }
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Unix(s))
            }
        }
    }
}

/// One accepted control-plane connection.
pub enum Conn {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream (Unix only).
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn into_split(
        self,
    ) -> std::io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)> {
        match self {
            Conn::Tcp(s) => {
                s.set_nonblocking(false)?;
                let r = s.try_clone()?;
                Ok((Box::new(BufReader::new(r)), Box::new(s)))
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_nonblocking(false)?;
                let r = s.try_clone()?;
                Ok((Box::new(BufReader::new(r)), Box::new(s)))
            }
        }
    }
}

/// Serves the control plane until a `drain` request arrives, then
/// drains the supervisor gracefully and returns.
///
/// # Errors
///
/// Propagates listener errors; per-connection I/O errors only drop that
/// connection.
pub fn serve(sup: Supervisor, listener: Listener) -> Result<()> {
    let sup = Arc::new(sup);
    let shutdown = Arc::new(AtomicBool::new(false));
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok(conn) => {
                let sup = Arc::clone(&sup);
                let shutdown = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name("orch-conn".into())
                    .spawn(move || {
                        let _ = handle_conn(&sup, conn, &shutdown);
                    })
                    .map_err(Error::Io)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e.into()),
        }
    }
    sup.drain();
    Ok(())
}

/// Serves one connection: line in, reply line(s) out, until EOF or a
/// `drain` request.
fn handle_conn(sup: &Supervisor, conn: Conn, shutdown: &AtomicBool) -> std::io::Result<()> {
    let (reader, mut writer) = conn.into_split()?;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (replies, drain) = dispatch(sup, &line);
        for reply in replies {
            writeln!(writer, "{reply}")?;
        }
        writer.flush()?;
        if drain {
            shutdown.store(true, Ordering::SeqCst);
            break;
        }
    }
    Ok(())
}

/// Dispatches one request line. Returns the reply lines and whether the
/// daemon should drain.
pub fn dispatch(sup: &Supervisor, line: &str) -> (Vec<String>, bool) {
    let msg = match Msg::parse(line) {
        Ok(m) => m,
        Err(e) => return (vec![err_reply(&e.to_string())], false),
    };
    let method = msg.get_str("method").unwrap_or("");
    let reply = |r: Result<()>| -> Vec<String> {
        match r {
            Ok(()) => vec![ok_reply(None)],
            Err(e) => vec![err_reply(&e.to_string())],
        }
    };
    match method {
        "ping" => (vec![ok_reply(None)], false),
        "submit" => {
            let r = JobSpec::from_fields(&msg.fields).and_then(|spec| sup.submit(&spec));
            (reply(r), false)
        }
        "status" => (status_lines(sup, msg.get_str("job")), false),
        "pause" => (reply(named(&msg).and_then(|j| sup.pause(j))), false),
        "resume" => (reply(named(&msg).and_then(|j| sup.resume(j))), false),
        "cancel" => (reply(named(&msg).and_then(|j| sup.cancel(j))), false),
        "max_running" => match msg.get_u64("limit") {
            Some(limit) => {
                sup.set_max_running(limit as usize);
                (vec![ok_reply(None)], false)
            }
            None => (vec![err_reply("max_running needs a limit")], false),
        },
        "drain" => (vec![ok_reply(None)], true),
        other => (vec![err_reply(&format!("unknown method {other:?}"))], false),
    }
}

fn named(msg: &Msg) -> Result<&str> {
    msg.get_str("job").ok_or_else(|| Error::Orchestration("request needs a job name".into()))
}

fn status_lines(sup: &Supervisor, job: Option<&str>) -> Vec<String> {
    let names = match job {
        Some(j) => vec![j.to_string()],
        None => match sup.jobs() {
            Ok(names) => names,
            Err(e) => return vec![err_reply(&e.to_string())],
        },
    };
    let mut lines = Vec::with_capacity(names.len() + 1);
    lines.push(ok_reply(Some(names.len() as u64)));
    for name in names {
        match sup.status(&name) {
            Ok(st) => lines.push(job_line(&name, &st)),
            Err(e) => return vec![err_reply(&e.to_string())],
        }
    }
    lines
}
