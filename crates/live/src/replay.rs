//! Observation sources: JSONL replay, a TCP listener, and the
//! supervising wrapper that re-opens failed transports with exponential
//! backoff.
//!
//! All sources speak [`ObservationSource`]: `Ok(Some)` is a clean
//! observation, `Ok(None)` a clean end of stream, `Malformed` a
//! quarantinable record (the stream continues past it), and `Transport`
//! a broken feed. The decode path never panics — a hostile byte on the
//! wire must become a typed error the engine can count.
//!
//! The JSONL schema is exactly what `airguard_obs::record_to_json`
//! emits for the monitor category: the live service consumes
//! `backoff_assigned` records (`src` is the monitored station) and
//! silently skips every other well-formed telemetry line, so a full
//! `.events.jsonl` export replays unmodified.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::sync::Arc;

use airguard_core::{ObservationSource, SourceError, StationObservation};
use airguard_obs::{EventSink, ObsEvent, NO_NODE};

use crate::json::{exact_u64, Parser, Token};

/// Slot counts beyond this are treated as corruption: the modified
/// protocol caps assignments at `max_assignment` (1023 by default), so
/// a six-digit slot count on the feed is a flipped byte, not a backoff.
pub const MAX_SLOTS: f64 = 1_000_000.0;

/// The fields of a feed record the service reads, each holding the
/// last value its key had: a repeated key keeps the last value, as in
/// [`crate::json::JsonValue::parse`].
#[derive(Debug, Default)]
struct RecordFields<'a> {
    cat: Option<Token<'a>>,
    event: Option<Token<'a>>,
    t_us: Option<Token<'a>>,
    src: Option<Token<'a>>,
    assigned_slots: Option<Token<'a>>,
    observed_slots: Option<Token<'a>>,
}

impl<'a> RecordFields<'a> {
    /// Walks one JSON text's top-level fields without building a tree.
    /// Every value is validated, nested ones included; a text that is
    /// valid JSON but not an object yields no fields.
    fn parse(text: &'a str) -> Result<Self, String> {
        let mut parser = Parser::new(text);
        let mut fields = RecordFields::default();
        match parser.token(0)? {
            Token::Obj => parser.object(|parser, key| {
                let value = parser.scalar(1)?;
                let slot = match &*key {
                    "cat" => &mut fields.cat,
                    "event" => &mut fields.event,
                    "t_us" => &mut fields.t_us,
                    "src" => &mut fields.src,
                    "assigned_slots" => &mut fields.assigned_slots,
                    "observed_slots" => &mut fields.observed_slots,
                    _ => return Ok(()),
                };
                *slot = Some(value);
                Ok(())
            })?,
            other => parser.skip_contents(&other, 0)?,
        }
        parser.finish()?;
        Ok(fields)
    }

    /// Interprets the record. `Ok(None)` means the line is well-formed
    /// telemetry of some other kind (skipped, not quarantined).
    fn observation(self) -> Result<Option<StationObservation>, String> {
        let string = |field: Option<Token<'a>>| match field {
            Some(Token::Str(s)) => Some(s),
            _ => None,
        };
        if string(self.cat).as_deref() != Some("monitor")
            || string(self.event).as_deref() != Some("backoff_assigned")
        {
            return Ok(None);
        }
        let number = |field: Option<Token<'a>>| match field {
            Some(Token::Num(n)) => Some(n),
            _ => None,
        };
        let t_us = number(self.t_us)
            .and_then(exact_u64)
            .ok_or("missing or out-of-range `t_us`")?;
        let station = number(self.src)
            .and_then(exact_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or("missing or out-of-range `src`")?;
        let assigned_slots =
            number(self.assigned_slots).ok_or("missing or non-finite `assigned_slots`")?;
        let observed_slots =
            number(self.observed_slots).ok_or("missing or non-finite `observed_slots`")?;
        if !(0.0..=MAX_SLOTS).contains(&assigned_slots)
            || !(0.0..=MAX_SLOTS).contains(&observed_slots)
        {
            return Err("slot count outside [0, 1e6]".into());
        }
        Ok(Some(StationObservation {
            t_us,
            station,
            assigned_slots,
            observed_slots,
        }))
    }
}

/// Decodes one JSONL line (without trailing newline) into an
/// observation, a skip, or a malformed-record error.
fn decode_line(bytes: &[u8]) -> Result<Option<StationObservation>, SourceError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| SourceError::Malformed("non-UTF-8 feed line".into()))?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    RecordFields::parse(text.trim_end())
        .map_err(|e| SourceError::Malformed(format!("malformed record: {e}")))?
        .observation()
        .map_err(SourceError::Malformed)
}

/// Replays observations from a JSONL byte stream (file, socket, or any
/// reader).
#[derive(Debug)]
pub struct JsonlSource<R> {
    reader: BufReader<R>,
    line: Vec<u8>,
}

impl JsonlSource<std::fs::File> {
    /// Opens a `.events.jsonl` replay file.
    pub fn open(path: &std::path::Path) -> Result<Self, SourceError> {
        let file = std::fs::File::open(path)
            .map_err(|e| SourceError::Transport(format!("open {}: {e}", path.display())))?;
        Ok(JsonlSource::new(file))
    }
}

impl<R: Read> JsonlSource<R> {
    /// Wraps any reader producing JSONL records.
    pub fn new(reader: R) -> Self {
        JsonlSource {
            reader: BufReader::new(reader),
            line: Vec::new(),
        }
    }
}

impl<R: Read + std::fmt::Debug + Send> ObservationSource for JsonlSource<R> {
    fn next_observation(&mut self) -> Result<Option<StationObservation>, SourceError> {
        loop {
            self.line.clear();
            let n = self
                .reader
                .read_until(b'\n', &mut self.line)
                .map_err(|e| SourceError::Transport(format!("read: {e}")))?;
            if n == 0 {
                return Ok(None);
            }
            match decode_line(&self.line)? {
                Some(obs) => return Ok(Some(obs)),
                None => continue, // other telemetry, or a blank line
            }
        }
    }
}

/// Live feed: accepts JSONL connections on a TCP listener. Each
/// accepted connection streams records; when a peer disconnects the
/// source reports `Transport`, and the supervising wrapper re-opens it
/// by accepting the next connection.
#[derive(Debug)]
pub struct SocketSource {
    listener: Arc<TcpListener>,
    conn: Option<JsonlSource<std::net::TcpStream>>,
}

impl SocketSource {
    /// Binds the listener address.
    pub fn bind(addr: &str) -> Result<Self, SourceError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| SourceError::Transport(format!("bind {addr}: {e}")))?;
        Ok(SocketSource {
            listener: Arc::new(listener),
            conn: None,
        })
    }

    /// A second handle accepting from the same bound listener (the
    /// re-open factory for [`SupervisedSource`]).
    #[must_use]
    pub fn reopen_handle(&self) -> Arc<TcpListener> {
        Arc::clone(&self.listener)
    }

    /// The locally bound address (useful with port 0 in tests).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, SourceError> {
        self.listener
            .local_addr()
            .map_err(|e| SourceError::Transport(format!("local_addr: {e}")))
    }

    /// Builds a source from an already-shared listener.
    #[must_use]
    pub fn from_listener(listener: Arc<TcpListener>) -> Self {
        SocketSource {
            listener,
            conn: None,
        }
    }
}

impl ObservationSource for SocketSource {
    fn next_observation(&mut self) -> Result<Option<StationObservation>, SourceError> {
        if self.conn.is_none() {
            let (stream, _peer) = self
                .listener
                .accept()
                .map_err(|e| SourceError::Transport(format!("accept: {e}")))?;
            self.conn = Some(JsonlSource::new(stream));
        }
        let conn = self
            .conn
            .as_mut()
            .ok_or_else(|| SourceError::Transport("connection vanished".into()))?;
        match conn.next_observation() {
            // EOF on a socket is a peer disconnect, not end-of-feed:
            // surface it as Transport so the supervisor re-accepts.
            Ok(None) => {
                self.conn = None;
                Err(SourceError::Transport("peer closed the feed".into()))
            }
            Err(SourceError::Transport(e)) => {
                self.conn = None;
                Err(SourceError::Transport(e))
            }
            other => other,
        }
    }
}

/// Supervision wrapper: passes malformed records through (the engine
/// quarantines them), and turns transport failures into bounded
/// re-open attempts with exponential backoff, each reported as a
/// [`ObsEvent::LiveSourceReopened`].
pub struct SupervisedSource {
    factory: Box<dyn FnMut() -> Result<Box<dyn ObservationSource>, SourceError> + Send>,
    inner: Option<Box<dyn ObservationSource>>,
    /// Consecutive failed-transport count since the last clean pull.
    attempts: u32,
    /// Re-opens allowed per failure streak; exceeded → terminal error.
    max_reopens: u32,
    /// First retry delay; doubles per consecutive failure.
    backoff_base_ms: u64,
    /// Backoff ceiling.
    backoff_cap_ms: u64,
    sink: EventSink,
    source_id: u32,
}

impl std::fmt::Debug for SupervisedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedSource")
            .field("attempts", &self.attempts)
            .field("max_reopens", &self.max_reopens)
            .finish_non_exhaustive()
    }
}

impl SupervisedSource {
    /// Supervises sources produced by `factory`. `source_id` labels the
    /// re-open events when a service watches several feeds.
    pub fn new(
        source_id: u32,
        sink: EventSink,
        max_reopens: u32,
        backoff_base_ms: u64,
        factory: impl FnMut() -> Result<Box<dyn ObservationSource>, SourceError> + Send + 'static,
    ) -> Self {
        SupervisedSource {
            factory: Box::new(factory),
            inner: None,
            attempts: 0,
            max_reopens,
            backoff_base_ms,
            backoff_cap_ms: 10_000,
            sink,
            source_id,
        }
    }

    /// Wraps an already-open source; the factory only runs on re-open.
    #[must_use]
    pub fn with_open(mut self, source: Box<dyn ObservationSource>) -> Self {
        self.inner = Some(source);
        self
    }

    fn backoff_ms(&self) -> u64 {
        let exp = self.attempts.saturating_sub(1).min(32);
        self.backoff_base_ms
            .saturating_mul(1u64 << exp)
            .min(self.backoff_cap_ms)
    }

    fn note_failure(&mut self, error: String) -> Result<(), SourceError> {
        self.inner = None;
        self.attempts += 1;
        if self.attempts > self.max_reopens {
            return Err(SourceError::Transport(format!(
                "source {id} gave up after {n} re-open attempts: {error}",
                id = self.source_id,
                n = self.max_reopens,
            )));
        }
        let backoff_ms = self.backoff_ms();
        if backoff_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
        }
        self.sink.emit(
            0,
            NO_NODE,
            ObsEvent::LiveSourceReopened {
                source: self.source_id,
                attempt: self.attempts,
                backoff_ms,
            },
        );
        Ok(())
    }
}

impl ObservationSource for SupervisedSource {
    fn next_observation(&mut self) -> Result<Option<StationObservation>, SourceError> {
        loop {
            if self.inner.is_none() {
                match (self.factory)() {
                    Ok(source) => self.inner = Some(source),
                    Err(SourceError::Transport(e)) => {
                        self.note_failure(e)?;
                        continue;
                    }
                    Err(other) => return Err(other),
                }
            }
            let inner = self
                .inner
                .as_mut()
                .ok_or_else(|| SourceError::Transport("source vanished".into()))?;
            match inner.next_observation() {
                Ok(obs) => {
                    self.attempts = 0;
                    return Ok(obs);
                }
                Err(SourceError::Malformed(m)) => return Err(SourceError::Malformed(m)),
                Err(SourceError::Transport(e)) => {
                    self.note_failure(e)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{decode_line, JsonlSource, SupervisedSource, MAX_SLOTS};
    use crate::json::JsonValue;
    use airguard_core::{ObservationSource, SourceError, StationObservation};
    use airguard_obs::{Category, EventSink};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Interprets one parsed feed record: the tree-based reference the
    /// field walk in [`decode_line`] must agree with.
    fn observation_from_record(value: &JsonValue) -> Result<Option<StationObservation>, String> {
        let is_backoff = value.get("cat").and_then(JsonValue::as_str) == Some("monitor")
            && value.get("event").and_then(JsonValue::as_str) == Some("backoff_assigned");
        if !is_backoff {
            return Ok(None);
        }
        let t_us = value
            .get("t_us")
            .and_then(JsonValue::as_u64)
            .ok_or("missing or out-of-range `t_us`")?;
        let station = value
            .get("src")
            .and_then(JsonValue::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or("missing or out-of-range `src`")?;
        let assigned_slots = value
            .get("assigned_slots")
            .and_then(JsonValue::as_f64)
            .ok_or("missing or non-finite `assigned_slots`")?;
        let observed_slots = value
            .get("observed_slots")
            .and_then(JsonValue::as_f64)
            .ok_or("missing or non-finite `observed_slots`")?;
        if !(0.0..=MAX_SLOTS).contains(&assigned_slots)
            || !(0.0..=MAX_SLOTS).contains(&observed_slots)
        {
            return Err("slot count outside [0, 1e6]".into());
        }
        Ok(Some(StationObservation {
            t_us,
            station,
            assigned_slots,
            observed_slots,
        }))
    }

    /// The reference line decode: a whole [`JsonValue`] tree, then
    /// [`observation_from_record`].
    fn reference_decode(bytes: &[u8]) -> Result<Option<StationObservation>, SourceError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| SourceError::Malformed("non-UTF-8 feed line".into()))?;
        if text.trim().is_empty() {
            return Ok(None);
        }
        let value = JsonValue::parse(text.trim_end())
            .map_err(|e| SourceError::Malformed(format!("malformed record: {e}")))?;
        observation_from_record(&value).map_err(SourceError::Malformed)
    }

    /// A decode's class, with the observation's floats as bits so that
    /// "equal" means bit-identical.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Decoded {
        Skip,
        Observation(u64, u32, u64, u64),
        Malformed(String),
        Transport(String),
    }

    fn classify(result: Result<Option<StationObservation>, SourceError>) -> Decoded {
        match result {
            Ok(None) => Decoded::Skip,
            Ok(Some(obs)) => Decoded::Observation(
                obs.t_us,
                obs.station,
                obs.assigned_slots.to_bits(),
                obs.observed_slots.to_bits(),
            ),
            Err(SourceError::Malformed(m)) => Decoded::Malformed(m),
            Err(SourceError::Transport(m)) => Decoded::Transport(m),
        }
    }

    /// Decodes `line` both ways, asserts they agree, and returns the
    /// class.
    fn agree(line: &[u8]) -> Decoded {
        let decoded = classify(decode_line(line));
        assert_eq!(
            decoded,
            classify(reference_decode(line)),
            "decodes disagree on {:?}",
            String::from_utf8_lossy(line)
        );
        decoded
    }

    const CANONICAL: &str = r#"{"t_us":1250,"node":0,"cat":"monitor","event":"backoff_assigned","src":3,"assigned_slots":14.5,"observed_slots":2,"xid":77}"#;

    #[test]
    fn field_walk_matches_the_tree_decode_on_hand_cases() {
        let observation = |t_us: u64, station: u32, assigned: f64, observed: f64| {
            Decoded::Observation(t_us, station, assigned.to_bits(), observed.to_bits())
        };
        let canonical = observation(1250, 3, 14.5, 2.0);
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        let cases: Vec<(Vec<u8>, Option<Decoded>)> = vec![
            (CANONICAL.into(), Some(canonical.clone())),
            (format!("{CANONICAL}\n").into(), Some(canonical.clone())),
            (format!("{CANONICAL}\r\n").into(), Some(canonical.clone())),
            (format!("{CANONICAL}\r").into(), Some(canonical.clone())),
            // Duplicate keys, both orders: the last value wins.
            (
                CANONICAL
                    .replace(r#""cat":"monitor""#, r#""cat":"mac","cat":"monitor""#)
                    .into(),
                Some(canonical.clone()),
            ),
            (
                CANONICAL
                    .replace(r#""cat":"monitor""#, r#""cat":"monitor","cat":"mac""#)
                    .into(),
                Some(Decoded::Skip),
            ),
            (
                CANONICAL
                    .replace(r#""t_us":1250"#, r#""t_us":-1,"t_us":7"#)
                    .into(),
                Some(observation(7, 3, 14.5, 2.0)),
            ),
            (
                CANONICAL
                    .replace(r#""t_us":1250"#, r#""t_us":7,"t_us":-1"#)
                    .into(),
                None,
            ),
            (
                CANONICAL
                    .replace(r#""src":3"#, r#""src":3,"src":"3""#)
                    .into(),
                None,
            ),
            (
                format!(
                    r#"{},"observed_slots":9}}"#,
                    &CANONICAL[..CANONICAL.len() - 1]
                )
                .into(),
                Some(observation(1250, 3, 14.5, 9.0)),
            ),
            // Escaped keys and values.
            (
                CANONICAL
                    .replace(r#""t_us""#, r#""t\u005fus""#)
                    .replace(r#""monitor""#, r#""mon\u0069tor""#)
                    .replace(r#""src""#, r#""\u0073rc""#)
                    .replace(r#""backoff_assigned""#, r#""backoff\u005Fassigned""#)
                    .into(),
                Some(canonical.clone()),
            ),
            (
                CANONICAL
                    .replace(r#""monitor""#, r#""monitor\u0000""#)
                    .into(),
                Some(Decoded::Skip),
            ),
            (
                CANONICAL.replace(r#""monitor""#, r#""mon\/itor""#).into(),
                Some(Decoded::Skip),
            ),
            (
                CANONICAL.replace(r#""monitor""#, r#""\ud800""#).into(),
                None,
            ),
            (
                CANONICAL.replace(r#""monitor""#, r#""\u+06d""#).into(),
                Some(Decoded::Skip),
            ),
            // Top-level values that are not objects.
            (b"[1,2,3]".to_vec(), Some(Decoded::Skip)),
            (format!("[{CANONICAL}]").into(), Some(Decoded::Skip)),
            (b"42".to_vec(), Some(Decoded::Skip)),
            (b"-1.5e3 ".to_vec(), Some(Decoded::Skip)),
            (br#""monitor""#.to_vec(), Some(Decoded::Skip)),
            (b"true".to_vec(), Some(Decoded::Skip)),
            (b"null\n".to_vec(), Some(Decoded::Skip)),
            (b"{}".to_vec(), Some(Decoded::Skip)),
            (b"[1,]".to_vec(), None),
            (b"[1".to_vec(), None),
            (b"1 2".to_vec(), None),
            // Nested values in other fields are validated, never read.
            (
                CANONICAL
                    .replace(r#""xid":77"#, r#""xid":[1,{"a":[true,null,"\u00e9"]},[]]"#)
                    .into(),
                Some(canonical.clone()),
            ),
            (
                CANONICAL
                    .replace(r#""node":0"#, r#""node":{"cat":"mac","src":9}"#)
                    .into(),
                Some(canonical.clone()),
            ),
            (
                CANONICAL.replace(r#""xid":77"#, r#""xid":[1,]"#).into(),
                None,
            ),
            (
                CANONICAL.replace(r#""xid":77"#, r#""xid":{"a":1,}"#).into(),
                None,
            ),
            (
                CANONICAL.replace(r#""xid":77"#, r#""xid":{"a" 1}"#).into(),
                None,
            ),
            (
                CANONICAL.replace(r#""xid":77"#, r#""xid":[1e999]"#).into(),
                None,
            ),
            (
                CANONICAL.replace(r#""xid":77"#, r#""xid":"\q""#).into(),
                None,
            ),
            (
                CANONICAL
                    .replace(r#""xid":77"#, &format!(r#""xid":{}"#, deep(31)))
                    .into(),
                Some(canonical.clone()),
            ),
            (
                CANONICAL
                    .replace(r#""xid":77"#, &format!(r#""xid":{}"#, deep(32)))
                    .into(),
                None,
            ),
            (
                CANONICAL
                    .replace(r#""t_us":1250"#, r#""t_us":[1250]"#)
                    .into(),
                None,
            ),
            (
                CANONICAL
                    .replace(r#""cat":"monitor""#, r#""cat":{"monitor":1}"#)
                    .into(),
                Some(Decoded::Skip),
            ),
            // Whitespace around every token.
            (
                CANONICAL
                    .replace(':', " \t: \r")
                    .replace(',', "\t ,\n ")
                    .replace('{', " {\t")
                    .replace('}', "\r } \t")
                    .into(),
                Some(canonical.clone()),
            ),
            (format!("{CANONICAL}\u{a0}").into(), Some(canonical.clone())),
            (format!("{CANONICAL}\u{b}").into(), Some(canonical.clone())),
            (format!("\u{a0}{CANONICAL}").into(), None),
            (CANONICAL.replace(',', "\u{b},").into(), None),
            (b"".to_vec(), Some(Decoded::Skip)),
            (b" \t\r\n".to_vec(), Some(Decoded::Skip)),
            ("\u{2003}\u{a0}".into(), Some(Decoded::Skip)),
            // Non-UTF-8 bytes and raw control bytes.
            ([CANONICAL.as_bytes(), b"\xff"].concat(), None),
            (CANONICAL.replace("monitor", "mon\u{1}tor").into(), None),
            (CANONICAL.replace("monitor", "mon\ttor").into(), None),
            (
                CANONICAL
                    .replace(r#""xid":77"#, "\"xid\":\"\u{7f}\"")
                    .into(),
                Some(canonical.clone()),
            ),
            // Numbers at the edges of each field's range.
            (
                CANONICAL.replace("1250", "1.25e3").into(),
                Some(canonical.clone()),
            ),
            (CANONICAL.replace("1250", "1250.5").into(), None),
            (CANONICAL.replace("1250", "9007199254740994").into(), None),
            (
                CANONICAL
                    .replace(r#""src":3"#, r#""src":4294967296"#)
                    .into(),
                None,
            ),
            (
                CANONICAL
                    .replace(r#""src":3"#, r#""src":4294967295"#)
                    .into(),
                Some(observation(1250, u32::MAX, 14.5, 2.0)),
            ),
            (
                CANONICAL.replace("14.5", "1e6").into(),
                Some(observation(1250, 3, 1e6, 2.0)),
            ),
            (CANONICAL.replace("14.5", "1000000.0001").into(), None),
            (
                CANONICAL.replace("14.5", "-0").into(),
                Some(observation(1250, 3, -0.0, 2.0)),
            ),
            (CANONICAL.replace("14.5", "-0.1").into(), None),
            (
                CANONICAL.replace("14.5", "01.50").into(),
                Some(observation(1250, 3, 1.5, 2.0)),
            ),
            (
                CANONICAL.replace("14.5", "1.").into(),
                Some(observation(1250, 3, 1.0, 2.0)),
            ),
            (CANONICAL.replace("14.5", "1-2").into(), None),
            (CANONICAL.replace(r#","observed_slots":2"#, "").into(), None),
            (
                CANONICAL
                    .replace(r#""event":"backoff_assigned","#, "")
                    .into(),
                Some(Decoded::Skip),
            ),
        ];
        for (line, expected) in cases {
            let decoded = agree(&line);
            match expected {
                Some(expected) => {
                    assert_eq!(decoded, expected, "{:?}", String::from_utf8_lossy(&line));
                }
                None => assert!(
                    matches!(decoded, Decoded::Malformed(_)),
                    "{:?} decoded as {decoded:?}",
                    String::from_utf8_lossy(&line)
                ),
            }
        }
    }

    #[test]
    fn field_walk_matches_the_tree_decode_on_seeded_mutations() {
        const MUTANTS: u32 = 120_000;
        const ALPHABET: &[u8] = b"{}[]:,\"\\ \t\r\n0123456789.-+eEtrufalsnu/bx_\x00\x01\x0b\x1f\x7f\xc3\xa9\xce\xbb\xff";
        let nested = CANONICAL.replace(
            r#""xid":77"#,
            r#""xid":[1,{"k":"v\n"},null,true],"n\u006fde":{"cat":"mac"}"#,
        );
        let bases = [CANONICAL.as_bytes(), nested.as_bytes()];
        let mut rng = StdRng::seed_from_u64(0x5eed_f1e1d);
        let (mut skips, mut observations, mut malformed) = (0u32, 0u32, 0u32);
        let mut line = Vec::new();
        for i in 0..MUTANTS {
            line.clear();
            line.extend_from_slice(bases[i as usize % bases.len()]);
            for _ in 0..rng.random_range(1..=3u32) {
                let byte = ALPHABET[rng.random_range(0..ALPHABET.len())];
                let at = rng.random_range(0..=line.len());
                match rng.random_range(0..3u32) {
                    0 => line.insert(at, byte),
                    1 if at < line.len() => {
                        line.remove(at);
                    }
                    _ if at < line.len() => line[at] = byte,
                    _ => line.push(byte),
                }
            }
            match agree(&line) {
                Decoded::Skip => skips += 1,
                Decoded::Observation(..) => observations += 1,
                Decoded::Malformed(_) => malformed += 1,
                Decoded::Transport(m) => panic!("decode reported a transport error: {m}"),
            }
        }
        // Every class is well represented, so the agreement is not
        // vacuous.
        for (class, count) in [
            ("skip", skips),
            ("observation", observations),
            ("malformed", malformed),
        ] {
            assert!(count > MUTANTS / 100, "only {count} {class} mutants");
        }
    }

    fn record(t_us: u64, src: u32, assigned: f64, observed: f64) -> String {
        format!(
            "{{\"t_us\":{t_us},\"node\":0,\"cat\":\"monitor\",\"event\":\"backoff_assigned\",\"src\":{src},\"assigned_slots\":{assigned},\"observed_slots\":{observed},\"xid\":1}}"
        )
    }

    #[test]
    fn jsonl_replay_yields_backoff_records_and_skips_the_rest() {
        let feed = format!(
            "{}\n{{\"t_us\":5,\"node\":1,\"cat\":\"mac\",\"event\":\"rts_tx\",\"dst\":2,\"seq\":0,\"attempt\":1,\"xid\":9}}\n{}\n",
            record(10, 3, 14.0, 2.0),
            record(20, 4, 8.0, 8.0),
        );
        let mut src = JsonlSource::new(feed.as_bytes());
        let a = src.next_observation().expect("first").expect("some");
        assert_eq!((a.t_us, a.station), (10, 3));
        let b = src.next_observation().expect("second").expect("some");
        assert_eq!((b.t_us, b.station), (20, 4));
        assert_eq!(src.next_observation().expect("end"), None);
    }

    #[test]
    fn malformed_lines_are_quarantined_and_the_stream_continues() {
        let feed = format!(
            "not json at all\n{}\n{{\"t_us\":-4,\"cat\":\"monitor\",\"event\":\"backoff_assigned\",\"src\":1,\"assigned_slots\":1,\"observed_slots\":1}}\n{}\n",
            record(10, 3, 14.0, 2.0),
            record(20, 4, 8.0, 8.0),
        );
        let mut src = JsonlSource::new(feed.as_bytes());
        assert!(matches!(
            src.next_observation(),
            Err(SourceError::Malformed(_))
        ));
        assert_eq!(src.next_observation().expect("ok").expect("some").t_us, 10);
        assert!(matches!(
            src.next_observation(),
            Err(SourceError::Malformed(_))
        ));
        assert_eq!(src.next_observation().expect("ok").expect("some").t_us, 20);
        assert_eq!(src.next_observation().expect("end"), None);
    }

    #[test]
    fn out_of_range_slot_counts_are_malformed() {
        let feed = format!("{}\n", record(10, 3, 2e6, 2.0));
        let mut src = JsonlSource::new(feed.as_bytes());
        assert!(matches!(
            src.next_observation(),
            Err(SourceError::Malformed(_))
        ));
    }

    #[test]
    fn supervised_source_reopens_with_backoff_events() {
        #[derive(Debug)]
        struct Flaky {
            fails_left: u32,
            yielded: bool,
        }
        impl ObservationSource for Flaky {
            fn next_observation(
                &mut self,
            ) -> Result<Option<airguard_core::StationObservation>, SourceError> {
                if self.fails_left > 0 {
                    self.fails_left -= 1;
                    return Err(SourceError::Transport("flaky".into()));
                }
                if self.yielded {
                    return Ok(None);
                }
                self.yielded = true;
                Ok(Some(airguard_core::StationObservation {
                    t_us: 1,
                    station: 7,
                    assigned_slots: 4.0,
                    observed_slots: 4.0,
                }))
            }
        }
        let sink = EventSink::enabled();
        // The initial source fails once; the first factory call fails
        // too; the second succeeds — two re-open attempts total.
        let mut factory_failures = 1u32;
        let mut supervised = SupervisedSource::new(9, sink.clone(), 5, 0, move || {
            if factory_failures > 0 {
                factory_failures -= 1;
                return Err(SourceError::Transport("still down".into()));
            }
            Ok(Box::new(Flaky {
                fails_left: 0,
                yielded: false,
            }) as Box<dyn ObservationSource>)
        })
        .with_open(Box::new(Flaky {
            fails_left: 1,
            yielded: false,
        }));
        let obs = supervised.next_observation().expect("ok").expect("some");
        assert_eq!(obs.station, 7);
        let reopens: Vec<_> = sink
            .records()
            .into_iter()
            .filter(|r| r.event.category() == Category::Live)
            .collect();
        assert_eq!(reopens.len(), 2, "{reopens:?}");
    }

    #[test]
    fn supervised_source_gives_up_past_the_reopen_budget() {
        let sink = EventSink::new();
        let mut supervised = SupervisedSource::new(1, sink, 2, 0, || {
            Err(SourceError::Transport("still down".into()))
        });
        let err = supervised.next_observation().expect_err("terminal");
        assert!(matches!(err, SourceError::Transport(m) if m.contains("gave up after 2")));
    }
}
