//! Crash-safe write-ahead journal: framed, checksummed JSON lines,
//! fsynced through a pluggable [`JournalIo`] backend.
//!
//! Record kinds, each carrying its full payload so a restarted server
//! needs nothing but the journal:
//!
//! * `Header{generation, shard_id}` — identity stamp written as the
//!   first record of every new journal. The generation increments on
//!   each compaction; the shard id guards against cross-shard resume.
//! * `Accepted{request}` — written (and fsynced) *before* the request
//!   enters the queue. If the process dies mid-solve, the restarted
//!   server re-enqueues it. The server journals the request line as it
//!   was received ([`Journal::append_accepted`]), so replay decodes the
//!   very bytes the live server decoded; a line in the server's own
//!   encoding frames byte-identically to appending the decoded record.
//! * `Completed{response}` — written (and fsynced) when the solve
//!   finishes, whatever the outcome. A completed id is never re-solved:
//!   a duplicate submission is answered from this record.
//! * `ShardMeta{shard_id}` — the pre-frame identity stamp, kept so
//!   journals written before the framed format replay unchanged.
//! * `DeltaOpen` / `DeltaMutate` / `DeltaClose` — the delta-session
//!   stream: an opened session's instance, its accepted mutations
//!   (fsynced *before* the engine applies them, deduplicated on the
//!   client's mutation id), and its close. A resumed server rebuilds
//!   each open session's warm state by re-running the cold solve and
//!   re-applying the journaled mutations in order. `DeltaOpen` names
//!   the session's cold solve in its `cold` field; a record without
//!   one was written before opens named it, when every session
//!   cold-solved with RatioGreedy, and replays with RatioGreedy. The
//!   server journals an open's instance as the mutate line's `open`
//!   bytes as received ([`Journal::append_delta_open`]), framed
//!   byte-identically to the decoded record when the line is in the
//!   server's own encoding.
//!
//! **Frame format.** Each line is
//! `{"len":N,"crc":"xxxxxxxx","rec":<record>}` where `N` is the byte
//! length of the serialized record and the CRC32 (IEEE) covers those
//! exact bytes. The frame is parsed positionally — never re-serialized
//! — so the checksum verifies the bytes that were actually written.
//! The CRC values are the standard ones; [`crc32`] computes them
//! slice-by-8. Bare (unframed) record lines are accepted as the legacy
//! format.
//!
//! **Quarantine.** [`JournalState::replay`] is a pure function of the
//! journal bytes. A torn *final* line (crash mid-append) sets
//! [`JournalState::torn_tail`]; a corrupt line anywhere else — CRC
//! mismatch, mangled frame, bit rot from a lying disk — is counted in
//! [`JournalState::quarantined`] and skipped, so one rotted record
//! costs one record, not the whole journal. Callers surface the count
//! through the `journal_quarantined` trace counter.
//!
//! **Compaction.** [`Journal::compact`] snapshots the replayed state
//! (one header with a bumped generation, one `Accepted` per pending
//! request, one `Completed` per cached response) and atomically
//! replaces the file via tmp-file + rename, so per-shard journals stop
//! growing without bound across `--resume` cycles. Quarantined lines
//! are dropped — they were already unrecoverable.

use crate::io::{crc32, crc32_extend, JournalIo, StdIo};
use crate::protocol::{SolveRequest, SolveResponse};
use serde::{Content, DeError, Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::Arc;
use usep_algos::Algorithm;
use usep_core::Instance;
use usep_delta::Mutation;

/// The cold solve a [`JournalRecord::DeltaOpen`] names, journaled as
/// the algorithm's display name. Records written before opens named
/// their cold solve have none and default to RatioGreedy, the cold
/// solve every such session ran; a name [`Algorithm::parse`] rejects
/// makes the record unreadable, so replay quarantines it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColdSolve(pub Algorithm);

impl Default for ColdSolve {
    fn default() -> ColdSolve {
        ColdSolve(Algorithm::RatioGreedy)
    }
}

impl Serialize for ColdSolve {
    fn to_content(&self) -> Content {
        Content::Str(self.0.name().to_string())
    }
}

impl Deserialize for ColdSolve {
    fn from_content(c: Content) -> Result<ColdSolve, DeError> {
        let name = String::from_content(c)?;
        Algorithm::parse(&name)
            .map(ColdSolve)
            .ok_or_else(|| DeError::new(format!("unknown cold solve '{name}'")))
    }
}

/// One journal line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum JournalRecord {
    /// Identity stamp written as the first record of every new journal
    /// (and rewritten, with a bumped generation, by each compaction).
    /// A fleet shard refuses to resume from a journal stamped with a
    /// different shard id — per-shard journals must never be silently
    /// merged across shards, because each shard's completed cache is
    /// only authoritative for the ids the router sent *it*.
    Header {
        /// Compaction generation: 1 for a fresh journal, +1 per
        /// [`Journal::compact`].
        generation: u64,
        /// Owning shard's stable name, when the journal belongs to a
        /// fleet worker.
        shard_id: Option<String>,
    },
    /// Legacy identity stamp from the pre-frame format; replays like a
    /// [`JournalRecord::Header`] without a generation.
    ShardMeta {
        /// Owning shard's stable name (e.g. `shard-0`).
        shard_id: String,
    },
    /// Request admitted; solve owed.
    Accepted {
        /// The full request, so resume needs no other source.
        request: SolveRequest,
    },
    /// Request finished with this response.
    Completed {
        /// The full response, so duplicate ids replay without solving.
        response: SolveResponse,
    },
    /// A delta session opened over this instance. Written (and
    /// fsynced) *before* the warm state is built, so a resumed server
    /// can rebuild the session by re-running the cold solve.
    DeltaOpen {
        /// Client-chosen session name.
        session: String,
        /// The full instance the session cold-solved.
        instance: Arc<Instance>,
        /// Drift fraction the session falls back to a full resolve at.
        fallback_threshold: f64,
        /// The session's cold solve, at open and at every fallback.
        #[serde(default)]
        cold: ColdSolve,
    },
    /// One mutation accepted into a delta session. Written (and
    /// fsynced) *before* the engine applies it — the mutation id is
    /// the exactly-once key: replay deduplicates on it, and a resumed
    /// server re-applies the survivors in order to rebuild the warm
    /// state deterministically.
    DeltaMutate {
        /// Owning session.
        session: String,
        /// Client-chosen exactly-once key.
        mutation_id: String,
        /// The typed mutation.
        mutation: Mutation,
    },
    /// A delta session closed; its records stop replaying.
    DeltaClose {
        /// The closed session.
        session: String,
    },
}

/// Every framed line starts with this; anything else is parsed as a
/// legacy bare-record line.
const FRAME_PREFIX: &str = "{\"len\":";

/// What `JournalRecord::Accepted { request }` serializes to around the
/// request's own JSON.
const ACCEPTED_OPEN: &[u8] = b"{\"Accepted\":{\"request\":";
const RECORD_CLOSE: &[u8] = b"}}";

/// What `JournalRecord::DeltaOpen { .. }` serializes to around the JSON
/// of its four fields.
const DELTA_OPEN_SESSION: &[u8] = b"{\"DeltaOpen\":{\"session\":";
const DELTA_OPEN_INSTANCE: &[u8] = b",\"instance\":";
const DELTA_OPEN_THRESHOLD: &[u8] = b",\"fallback_threshold\":";
const DELTA_OPEN_COLD: &[u8] = b",\"cold\":";

/// Wraps one serialized record, given as byte pieces in order, in the
/// length+CRC frame (newline included — one frame is one line). The
/// pieces are checksummed where they lie and copied once, into a buffer
/// of the frame's exact size.
fn frame_line(rec: &[&[u8]]) -> Vec<u8> {
    let len: usize = rec.iter().map(|piece| piece.len()).sum();
    let crc = rec.iter().fold(0, |crc, piece| crc32_extend(crc, piece));
    let head = format!("{FRAME_PREFIX}{len},\"crc\":\"{crc:08x}\",\"rec\":");
    let mut line = Vec::with_capacity(head.len() + len + 2);
    line.extend_from_slice(head.as_bytes());
    for piece in rec {
        line.extend_from_slice(piece);
    }
    line.extend_from_slice(b"}\n");
    line
}

/// One value's JSON.
fn json<T: Serialize + ?Sized>(value: &T) -> io::Result<String> {
    serde_json::to_string(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Strict positional frame parser. Returns `None` for *any* deviation —
/// wrong length, CRC mismatch, non-canonical hex, trailing bytes — so
/// a corrupt frame can never be silently accepted. The CRC is checked
/// against the exact payload bytes between `"rec":` and the closing
/// brace; nothing is re-serialized.
fn parse_frame(line: &str) -> Option<JournalRecord> {
    let rest = line.strip_prefix(FRAME_PREFIX)?;
    let comma = rest.find(',')?;
    let digits = &rest[..comma];
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let len: usize = digits.parse().ok()?;
    let rest = rest[comma..].strip_prefix(",\"crc\":\"")?;
    if rest.len() < 8 || !rest.as_bytes()[..8].iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    // canonical lowercase only: a case-flipped hex digit must read as
    // corruption, not as the same checksum spelled differently
    if rest.as_bytes()[..8].iter().any(u8::is_ascii_uppercase) {
        return None;
    }
    let crc = u32::from_str_radix(&rest[..8], 16).ok()?;
    let payload = rest[8..].strip_prefix("\",\"rec\":")?.strip_suffix('}')?;
    if payload.len() != len || crc32(payload.as_bytes()) != crc {
        return None;
    }
    serde_json::from_str(payload).ok()
}

/// Append handle. One framed line per [`Journal::append`], fsynced
/// before it returns — the caller may treat a returned `Ok` as durable
/// (modulo a lying backend, which is the quarantine's job to survive).
#[derive(Debug)]
pub struct Journal {
    io: Arc<dyn JournalIo>,
}

impl Journal {
    /// Opens (creating if missing) `path` for appending, stamping a
    /// [`JournalRecord::Header`] when the file is new or empty.
    pub fn open(path: &Path) -> io::Result<Journal> {
        Journal::from_io(Arc::new(StdIo::open(path)?), None)
    }

    /// Opens `path` for appending as `shard_id`'s journal. Existing
    /// non-empty journals are left as-is — the caller is expected to
    /// have vetted ownership via [`JournalState::replay_expecting`]
    /// before appending.
    pub fn open_labeled(path: &Path, shard_id: &str) -> io::Result<Journal> {
        Journal::from_io(Arc::new(StdIo::open(path)?), Some(shard_id))
    }

    /// Wraps an arbitrary [`JournalIo`] backend (the production
    /// [`StdIo`], or a fault-injecting stand-in), stamping a header
    /// when the backing store is empty.
    pub fn from_io(io: Arc<dyn JournalIo>, shard_id: Option<&str>) -> io::Result<Journal> {
        let journal = Journal { io };
        if journal.io.is_empty()? {
            journal.append(&JournalRecord::Header {
                generation: 1,
                shard_id: shard_id.map(str::to_string),
            })?;
        }
        Ok(journal)
    }

    /// Appends one framed record and fsyncs.
    pub fn append(&self, record: &JournalRecord) -> io::Result<()> {
        self.append_frame(&frame_line(&[json(record)?.as_bytes()]))
    }

    /// Appends the `Accepted` record of a request line exactly as it
    /// was received, trimmed of its line ending, and fsyncs. The caller
    /// must have decoded `received_line` to the [`SolveRequest`] it
    /// admits; replay decodes the same bytes to the same request. A
    /// line in the server's own encoding (what [`crate::send_request`]
    /// sends) frames byte-identically to
    /// `append(&JournalRecord::Accepted { request })`.
    pub fn append_accepted(&self, received_line: &str) -> io::Result<()> {
        let line = received_line.strip_suffix('\n').unwrap_or(received_line);
        let line = line.strip_suffix('\r').unwrap_or(line);
        self.append_frame(&frame_line(&[ACCEPTED_OPEN, line.as_bytes(), RECORD_CLOSE]))
    }

    /// Appends the `DeltaOpen` record of a session whose instance is
    /// `received_instance`, the bytes of a mutate line's `open` value as
    /// received, and whose engine cold-solves with `cold`, and fsyncs.
    /// The caller must have decoded those bytes to the instance it
    /// opens; replay decodes the same bytes to the same instance. An
    /// instance in the server's own encoding frames byte-identically to
    /// `append(&JournalRecord::DeltaOpen { .. })`.
    pub fn append_delta_open(
        &self,
        session: &str,
        received_instance: &str,
        fallback_threshold: f64,
        cold: Algorithm,
    ) -> io::Result<()> {
        let session = json(session)?;
        let threshold = json(&fallback_threshold)?;
        let cold = json(&ColdSolve(cold))?;
        self.append_frame(&frame_line(&[
            DELTA_OPEN_SESSION,
            session.as_bytes(),
            DELTA_OPEN_INSTANCE,
            received_instance.as_bytes(),
            DELTA_OPEN_THRESHOLD,
            threshold.as_bytes(),
            DELTA_OPEN_COLD,
            cold.as_bytes(),
            RECORD_CLOSE,
        ]))
    }

    fn append_frame(&self, frame: &[u8]) -> io::Result<()> {
        self.io.append(frame)?;
        self.io.sync()
    }

    /// Snapshots `state` over the journal: a header with the next
    /// generation, one `Accepted` per pending request, one `Completed`
    /// per cached response — atomically, via the backend's tmp-file +
    /// rename `replace`. A crash at any point leaves either the old or
    /// the new journal fully intact. Quarantined lines do not survive
    /// compaction (they were unrecoverable), and the torn tail, if any,
    /// is healed.
    pub fn compact(&self, state: &JournalState) -> io::Result<()> {
        let mut buf = Vec::new();
        let mut push = |record: &JournalRecord| -> io::Result<()> {
            buf.extend_from_slice(&frame_line(&[json(record)?.as_bytes()]));
            Ok(())
        };
        push(&JournalRecord::Header {
            generation: state.generation + 1,
            shard_id: state.shard_id.clone(),
        })?;
        for request in &state.pending {
            push(&JournalRecord::Accepted { request: request.clone() })?;
        }
        for response in state.completed.values() {
            push(&JournalRecord::Completed { response: response.clone() })?;
        }
        for (name, session) in &state.delta_sessions {
            push(&JournalRecord::DeltaOpen {
                session: name.clone(),
                instance: Arc::clone(&session.instance),
                fallback_threshold: session.fallback_threshold,
                cold: ColdSolve(session.cold),
            })?;
            for (mutation_id, mutation) in &session.mutations {
                push(&JournalRecord::DeltaMutate {
                    session: name.clone(),
                    mutation_id: mutation_id.clone(),
                    mutation: mutation.clone(),
                })?;
            }
        }
        self.io.replace(&buf)
    }

    /// Current journal size in bytes (what compaction shrinks).
    #[allow(clippy::len_without_is_empty)] // fallible, byte-size len: an is_empty would also be fallible and misleading
    pub fn len(&self) -> io::Result<u64> {
        self.io.len()
    }
}

/// One delta session as the journal remembers it: the opening
/// instance plus the ordered, deduplicated mutation stream. Replaying
/// the mutations through a fresh [`usep_delta::DeltaEngine`] rebuilds
/// the dead server's warm state exactly (the engine is deterministic).
#[derive(Clone, Debug)]
pub struct DeltaSessionState {
    /// The instance the session opened with.
    pub instance: Arc<Instance>,
    /// The session's fallback threshold at open.
    pub fallback_threshold: f64,
    /// The session's cold solve: the one its `DeltaOpen` names, or
    /// RatioGreedy for a record written before opens named it.
    pub cold: Algorithm,
    /// `(mutation_id, mutation)` in acceptance order; duplicate ids
    /// keep the first record, like every other journal family.
    pub mutations: Vec<(String, Mutation)>,
}

/// The state a journal replays to.
#[derive(Debug, Default)]
pub struct JournalState {
    /// Accepted ids with no completion, in acceptance order (the order
    /// the dead server would have solved them). Duplicate accepts of
    /// one id keep the first request.
    pub pending: Vec<SolveRequest>,
    /// Completed responses by id. Duplicate completions of one id keep
    /// the first response, so replaying cannot change an answer.
    pub completed: BTreeMap<String, SolveResponse>,
    /// Whether a torn (unparseable) final line was skipped — the
    /// fingerprint of a crash mid-append.
    pub torn_tail: bool,
    /// Corrupt interior lines skipped during replay: CRC mismatches,
    /// mangled frames, unparseable legacy lines. Each cost exactly one
    /// record; callers surface the count as `journal_quarantined`.
    pub quarantined: u64,
    /// Shard id from the journal's header (or legacy `ShardMeta`)
    /// stamp, when present. The first stamp wins, like every record.
    pub shard_id: Option<String>,
    /// Compaction generation from the journal's header; 0 for legacy
    /// journals written before headers existed.
    pub generation: u64,
    /// Open delta sessions by name: opening instance plus the ordered
    /// mutation stream. Closed sessions do not replay.
    pub delta_sessions: BTreeMap<String, DeltaSessionState>,
}

impl JournalState {
    /// Replays raw journal bytes. Infallible by design: corruption is
    /// quarantined, a torn tail is flagged, invalid UTF-8 (bit rot can
    /// produce it) corrupts only the lines it lands on.
    pub fn replay_bytes(bytes: &[u8]) -> JournalState {
        let mut state = JournalState::default();
        let mut accepted: HashSet<String> = HashSet::new();
        // the mutation ids each open session has kept, so deduplication
        // costs a lookup per record, not a scan of the session's stream
        let mut kept: HashMap<String, HashSet<String>> = HashMap::new();
        let text = String::from_utf8_lossy(bytes);
        let lines: Vec<&str> = text.split('\n').collect();
        // a trailing newline yields one empty final fragment; real
        // content in the final fragment means the newline never landed
        let last_content = lines.iter().rposition(|l| !l.trim().is_empty()).unwrap_or(0);
        let file_ends_in_newline = text.ends_with('\n');
        for (lineno, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let parsed = if line.starts_with(FRAME_PREFIX) {
                parse_frame(line)
            } else {
                // legacy bare-record line from the pre-frame format
                serde_json::from_str::<JournalRecord>(line).ok()
            };
            let Some(record) = parsed else {
                if lineno == last_content && !file_ends_in_newline {
                    state.torn_tail = true;
                } else if lineno == last_content {
                    // a whole final line that fails to parse is still
                    // the torn-tail shape (crash between write and
                    // sync can tear mid-line yet keep the newline)
                    state.torn_tail = true;
                } else {
                    state.quarantined += 1;
                }
                continue;
            };
            match record {
                JournalRecord::Header { generation, shard_id } => {
                    if state.generation == 0 {
                        state.generation = generation;
                    }
                    if state.shard_id.is_none() {
                        state.shard_id = shard_id;
                    }
                }
                JournalRecord::ShardMeta { shard_id } => {
                    if state.shard_id.is_none() {
                        state.shard_id = Some(shard_id);
                    }
                }
                JournalRecord::Accepted { request } => {
                    if accepted.insert(request.id.clone()) {
                        state.pending.push(request);
                    }
                }
                JournalRecord::Completed { response } => {
                    state.completed.entry(response.id.clone()).or_insert(response);
                }
                JournalRecord::DeltaOpen { session, instance, fallback_threshold, cold } => {
                    // duplicate opens keep the first (re-opening is the
                    // client's idempotent retry, not a new session)
                    state.delta_sessions.entry(session).or_insert(DeltaSessionState {
                        instance,
                        fallback_threshold,
                        cold: cold.0,
                        mutations: Vec::new(),
                    });
                }
                JournalRecord::DeltaMutate { session, mutation_id, mutation } => {
                    // a mutation for a session this journal never
                    // opened (or already closed) has no state to act
                    // on; dropping it is the only consistent replay
                    if let Some(s) = state.delta_sessions.get_mut(&session) {
                        if kept.entry(session).or_default().insert(mutation_id.clone()) {
                            s.mutations.push((mutation_id, mutation));
                        }
                    }
                }
                JournalRecord::DeltaClose { session } => {
                    // a session re-opened under this name starts clean
                    state.delta_sessions.remove(&session);
                    kept.remove(&session);
                }
            }
        }
        state.pending.retain(|r| !state.completed.contains_key(&r.id));
        state
    }

    /// Replays the journal at `path`. Missing file replays to the
    /// empty state (a fresh server with a journal configured but never
    /// written).
    pub fn replay(path: &Path) -> io::Result<JournalState> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(JournalState::default()),
            Err(e) => return Err(e),
        };
        Ok(JournalState::replay_bytes(&bytes))
    }

    /// Replays a journal through its [`JournalIo`] backend.
    pub fn replay_io(io: &dyn JournalIo) -> io::Result<JournalState> {
        Ok(JournalState::replay_bytes(&io.read()?))
    }

    /// Replays the journal at `path` and verifies it belongs to
    /// `expected` shard. A journal stamped with a *different* shard id
    /// is rejected loudly — resuming shard B from shard A's journal
    /// would merge two shards' completed caches and silently serve
    /// another shard's answers. Unstamped journals (pre-fleet servers)
    /// replay fine: the stamp is only checked when both sides name a
    /// shard.
    pub fn replay_expecting(path: &Path, expected: &str) -> io::Result<JournalState> {
        JournalState::replay(path)?.expect_shard(expected, &path.display().to_string())
    }

    /// [`Self::replay_io`] with the same cross-shard guard as
    /// [`Self::replay_expecting`].
    pub fn replay_io_expecting(io: &dyn JournalIo, expected: &str) -> io::Result<JournalState> {
        JournalState::replay_io(io)?.expect_shard(expected, "journal")
    }

    fn expect_shard(self, expected: &str, label: &str) -> io::Result<JournalState> {
        if let Some(found) = &self.shard_id {
            if found != expected {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "journal {label} belongs to shard '{found}', refusing to resume it as \
                         shard '{expected}' — per-shard journals must not be merged"
                    ),
                ));
            }
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{MutateRequest, Status};
    use crate::server::{parse_line, Line};
    use usep_core::{Cost, EventId, InstanceBuilder, Point, TimeInterval, UserId};
    use usep_delta::DeltaConfig;

    fn request(id: &str) -> SolveRequest {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::new(0, 0), TimeInterval::new(0, 5).unwrap());
        b.user(Point::new(0, 1), Cost::new(10));
        b.utility(EventId(0), UserId(0), 0.9);
        SolveRequest {
            id: id.to_string(),
            instance: std::sync::Arc::new(b.build().unwrap()),
            algorithm: None,
            timeout_ms: None,
            mem_budget_mb: None,
            city: None,
        }
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("usep_journal_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_then_replay_partitions_pending_and_completed() {
        let dir = tempdir("basic");
        let path = dir.join("wal.jsonl");
        let journal = Journal::open(&path).unwrap();
        journal.append(&JournalRecord::Accepted { request: request("a") }).unwrap();
        journal.append(&JournalRecord::Accepted { request: request("b") }).unwrap();
        journal
            .append(&JournalRecord::Completed {
                response: SolveResponse::bare("a", Status::Complete),
            })
            .unwrap();
        let state = JournalState::replay(&path).unwrap();
        assert_eq!(state.pending.len(), 1);
        assert_eq!(state.pending[0].id, "b");
        assert_eq!(state.completed.len(), 1);
        assert_eq!(state.completed["a"].status, Status::Complete);
        assert!(!state.torn_tail);
        assert_eq!(state.quarantined, 0);
        assert_eq!(state.generation, 1, "fresh journal carries a generation-1 header");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_replays_empty() {
        let state = JournalState::replay(Path::new("/nonexistent/usep/wal.jsonl")).unwrap();
        assert!(state.pending.is_empty());
        assert!(state.completed.is_empty());
        assert_eq!(state.generation, 0);
    }

    #[test]
    fn torn_final_line_is_tolerated_and_interior_corruption_is_quarantined() {
        let dir = tempdir("torn");
        let path = dir.join("wal.jsonl");
        let journal = Journal::open(&path).unwrap();
        journal.append(&JournalRecord::Accepted { request: request("a") }).unwrap();
        drop(journal);
        // simulate a crash mid-append: a half-written frame at the tail
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(b"{\"len\":431,\"crc\":\"00ab");
        std::fs::write(&path, &raw).unwrap();
        let state = JournalState::replay(&path).unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.quarantined, 0, "a torn tail is not corruption");
        assert_eq!(state.pending.len(), 1);

        // the same garbage *followed by* a valid line is interior
        // corruption: quarantined (counted + skipped), never fatal
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(b"\n");
        std::fs::write(&path, &raw).unwrap();
        let journal = Journal::open(&path).unwrap();
        journal.append(&JournalRecord::Accepted { request: request("b") }).unwrap();
        let state = JournalState::replay(&path).unwrap();
        assert!(!state.torn_tail);
        assert_eq!(state.quarantined, 1);
        assert_eq!(state.pending.len(), 2, "records around the rot must survive");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_flipped_byte_in_a_frame_is_quarantined() {
        let dir = tempdir("rot");
        let path = dir.join("wal.jsonl");
        let journal = Journal::open(&path).unwrap();
        journal.append(&JournalRecord::Accepted { request: request("a") }).unwrap();
        journal.append(&JournalRecord::Accepted { request: request("b") }).unwrap();
        drop(journal);
        let mut raw = std::fs::read(&path).unwrap();
        // flip one payload bit inside the *first* accept frame (an
        // interior line), leaving the length intact
        let needle = b"\"id\":\"a\"";
        let pos = raw.windows(needle.len()).position(|w| w == needle).expect("id bytes")
            + needle.len()
            - 2;
        raw[pos] ^= 0x04; // 'a' -> 'e' inside the first accept frame
        std::fs::write(&path, &raw).unwrap();
        let state = JournalState::replay(&path).unwrap();
        assert_eq!(state.quarantined, 1);
        assert_eq!(state.pending.len(), 1, "only the rotted record is lost");
        assert_eq!(state.pending[0].id, "b");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A request line in the server's own encoding, as `send_request`
    /// writes it: the received-bytes record must equal, byte for byte,
    /// the record of the request decoded from that line.
    #[test]
    fn a_canonical_request_line_frames_like_its_decoded_record() {
        let dir = tempdir("canonical");
        let request = SolveRequest {
            id: "auckland-7".to_string(),
            instance: Arc::new(usep_gen::generate_city(&usep_gen::CityConfig::auckland(), 7)),
            algorithm: Some("dedpo".to_string()),
            timeout_ms: Some(5000),
            mem_budget_mb: None,
            city: Some("auckland".to_string()),
        };
        let line = format!("{}\n", serde_json::to_string(&request).unwrap());
        let decoded: SolveRequest = serde_json::from_str(line.trim_end()).unwrap();
        let (re_encoded, received) = (dir.join("re-encoded.jsonl"), dir.join("received.jsonl"));
        Journal::open(&re_encoded)
            .unwrap()
            .append(&JournalRecord::Accepted { request: decoded })
            .unwrap();
        Journal::open(&received).unwrap().append_accepted(&line).unwrap();
        let bytes = std::fs::read(&received).unwrap();
        assert!(bytes.len() > 100_000, "an Auckland request is hundreds of KB");
        assert!(bytes == std::fs::read(&re_encoded).unwrap(), "frames differ");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A request line whose bytes a re-encode would change: reordered
    /// keys, spaces, an unknown field, escapes and a CRLF ending.
    fn non_canonical_line(id_json: &str) -> String {
        let instance = serde_json::to_string(&*request("x").instance).unwrap();
        format!(
            "{{ \"timeout_ms\" : 250, \"priority\": 3 ,\"instance\":  {instance} , \
             \"id\" : {id_json} }}\r\n"
        )
    }

    #[test]
    fn a_non_canonical_request_line_replays_to_the_request_it_decodes_to() {
        let dir = tempdir("received");
        let path = dir.join("wal.jsonl");
        let line = non_canonical_line(r#""r\"\u00e9-1""#);
        // what the server decodes the line to
        let decoded: SolveRequest = serde_json::from_str(&line).unwrap();
        assert_eq!(decoded.id, "r\"\u{e9}-1");
        let journal = Journal::open(&path).unwrap();
        journal.append_accepted(&line).unwrap();

        let raw = std::fs::read_to_string(&path).unwrap();
        let received = line.trim_end();
        assert!(raw.contains(received), "the record holds the line as received");
        assert!(!raw.contains('\r'), "the line ending is not journaled");
        let state = JournalState::replay(&path).unwrap();
        assert_eq!((state.quarantined, state.torn_tail), (0, false));
        assert_eq!(state.pending.len(), 1);
        assert_eq!(
            serde_json::to_string(&state.pending[0]).unwrap(),
            serde_json::to_string(&decoded).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_bit_in_received_bytes_is_quarantined() {
        let dir = tempdir("received_rot");
        let path = dir.join("wal.jsonl");
        let journal = Journal::open(&path).unwrap();
        journal.append_accepted(&non_canonical_line(r#""a""#)).unwrap();
        journal.append_accepted(&non_canonical_line(r#""b""#)).unwrap();
        let raw = std::fs::read(&path).unwrap();
        let first = non_canonical_line(r#""a""#);
        let first = first.trim_end().as_bytes();
        let start = raw.windows(first.len()).position(|w| w == first).expect("received bytes");
        // many of these flips leave valid JSON (`3` -> `2`, `priority`
        // -> `qriority`): only the CRC can catch those
        for pos in start..start + first.len() {
            let mut rotted = raw.clone();
            rotted[pos] ^= 0x01;
            let state = JournalState::replay_bytes(&rotted);
            assert_eq!(state.quarantined, 1, "flip at byte {pos} undetected");
            assert_eq!(state.pending.len(), 1, "only the rotted record is lost");
            assert_eq!(state.pending[0].id, "b");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A mutate line opening `instance` under `session`, in the
    /// server's own encoding.
    fn open_line(session: &str, instance: Arc<Instance>) -> String {
        let request = MutateRequest {
            verb: "mutate".to_string(),
            session: session.to_string(),
            open: Some(instance),
            fallback_threshold: Some(0.3),
            mutation_id: None,
            mutation: None,
            query: false,
            close: false,
        };
        format!("{}\n", serde_json::to_string(&request).unwrap())
    }

    /// What the server decodes an open line to: the request and the
    /// received bytes of its `open` member.
    fn parse_open(line: &str) -> (MutateRequest, &str) {
        match parse_line(line) {
            Line::Mutate(Ok(request), Some(received)) => (request, received),
            _ => panic!("not an open line: {line}"),
        }
    }

    /// A new session open in the server's own encoding: the
    /// received-bytes record, which names the default cold solve, must
    /// equal, byte for byte, the record of the instance decoded from
    /// that line.
    #[test]
    fn a_canonical_open_line_frames_like_its_decoded_record() {
        let dir = tempdir("canonical_open");
        let instance = usep_gen::generate_city(&usep_gen::CityConfig::auckland(), 7);
        let line = open_line("auckland-7", Arc::new(instance));
        let (request, received) = parse_open(&line);
        let cold = DeltaConfig::default().cold;
        let (re_encoded, spliced) = (dir.join("re-encoded.jsonl"), dir.join("spliced.jsonl"));
        Journal::open(&re_encoded)
            .unwrap()
            .append(&JournalRecord::DeltaOpen {
                session: request.session.clone(),
                instance: request.open.clone().unwrap(),
                fallback_threshold: 0.3,
                cold: ColdSolve(cold),
            })
            .unwrap();
        Journal::open(&spliced)
            .unwrap()
            .append_delta_open(&request.session, received, 0.3, cold)
            .unwrap();
        let bytes = std::fs::read(&spliced).unwrap();
        assert!(bytes.len() > 100_000, "an Auckland instance is hundreds of KB");
        assert!(bytes == std::fs::read(&re_encoded).unwrap(), "frames differ");
        assert!(bytes.ends_with(b",\"cold\":\"DeGreedy+RG\"}}}\n"), "a new open names its solve");
        let state = JournalState::replay(&spliced).unwrap();
        assert_eq!(state.delta_sessions["auckland-7"].cold, Algorithm::DeGreedyRG);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A framed `DeltaOpen` record of `instance` at threshold 0.3 whose
    /// last member is `cold`, or which has none, as in journals written
    /// before opens named their cold solve.
    fn open_frame(session: &str, instance: &Instance, cold: Option<&str>) -> Vec<u8> {
        let cold = cold.map_or(String::new(), |name| format!(",\"cold\":{name}"));
        let record = format!(
            "{{\"DeltaOpen\":{{\"session\":\"{session}\",\"instance\":{},\
             \"fallback_threshold\":0.3{cold}}}}}",
            serde_json::to_string(instance).unwrap()
        );
        frame_line(&[record.as_bytes()])
    }

    #[test]
    fn a_legacy_open_resumes_with_ratio_greedy_and_compacts_naming_it() {
        let dir = tempdir("legacy_open");
        let path = dir.join("wal.jsonl");
        let instance = request("x").instance;
        let journal = Journal::open(&path).unwrap();
        journal.append_frame(&open_frame("old", &instance, None)).unwrap();
        let canonical = serde_json::to_string(&*instance).unwrap();
        journal.append_delta_open("new", &canonical, 0.3, DeltaConfig::default().cold).unwrap();

        let state = JournalState::replay(&path).unwrap();
        assert_eq!((state.quarantined, state.torn_tail), (0, false));
        assert_eq!(state.delta_sessions["old"].cold, Algorithm::RatioGreedy);
        assert_eq!(state.delta_sessions["old"].instance, instance);
        assert_eq!(state.delta_sessions["new"].cold, Algorithm::DeGreedyRG);

        journal.compact(&state).unwrap();
        let compacted = std::fs::read(&path).unwrap();
        let ratio_greedy = "\"RatioGreedy\"";
        for (session, cold) in [("old", ratio_greedy), ("new", "\"DeGreedy+RG\"")] {
            let frame = open_frame(session, &instance, Some(cold));
            assert!(
                compacted.windows(frame.len()).any(|w| w == frame),
                "compaction names {session}'s cold solve {cold}"
            );
        }
        let after = JournalState::replay(&path).unwrap();
        assert_eq!(after.quarantined, 0);
        assert_eq!(after.delta_sessions["old"].cold, Algorithm::RatioGreedy);
        assert_eq!(after.delta_sessions["new"].cold, Algorithm::DeGreedyRG);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_open_naming_an_unknown_cold_solve_is_quarantined() {
        let instance = request("x").instance;
        let mut raw = Vec::new();
        for (session, cold) in [("bad", "\"Quantum\""), ("number", "7"), ("good", "\"dedpo+rg\"")] {
            raw.extend(open_frame(session, &instance, Some(cold)));
        }
        let state = JournalState::replay_bytes(&raw);
        assert_eq!((state.quarantined, state.torn_tail), (2, false));
        let sessions: Vec<&str> = state.delta_sessions.keys().map(String::as_str).collect();
        assert_eq!(sessions, ["good"]);
        assert_eq!(state.delta_sessions["good"].cold, Algorithm::DeDPORG);
    }

    /// An open line whose bytes a re-encode would change: members out of
    /// order, spaces inside and around the instance, escapes in the
    /// session name, and a second `open` member that a decode ignores.
    fn non_canonical_open_line(session_json: &str) -> String {
        let instance = serde_json::to_string_pretty(&*request("x").instance).unwrap();
        let ignored = serde_json::to_string(&*awkward_instance()).unwrap();
        format!(
            "{{ \"open\" : {} , \"fallback_threshold\": 0.25,\"session\" : {session_json}, \
             \"verb\":\"mutate\", \"open\":{ignored} }}\r\n",
            instance.replace('\n', " ")
        )
    }

    #[test]
    fn a_non_canonical_open_line_replays_to_the_instance_the_server_opened() {
        let dir = tempdir("received_open");
        let path = dir.join("wal.jsonl");
        let line = non_canonical_open_line(r#""s\"\u00e9-1""#);
        let (decoded, received) = parse_open(&line);
        assert_eq!(decoded.session, "s\"\u{e9}-1");
        let opened = decoded.open.unwrap();
        assert_eq!(opened, request("x").instance, "the first `open` member decodes");
        Journal::open(&path)
            .unwrap()
            .append_delta_open(&decoded.session, received, 0.25, Algorithm::DeGreedyRG)
            .unwrap();

        let raw = std::fs::read_to_string(&path).unwrap();
        assert_ne!(received, serde_json::to_string(&*opened).unwrap(), "spaced out");
        assert!(raw.contains(received), "the record holds the bytes received");
        let state = JournalState::replay(&path).unwrap();
        assert_eq!((state.quarantined, state.torn_tail), (0, false));
        let session = &state.delta_sessions["s\"\u{e9}-1"];
        assert_eq!(session.instance, opened);
        assert_eq!(session.fallback_threshold, 0.25);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_bit_in_a_spliced_open_is_quarantined() {
        let dir = tempdir("open_rot");
        let path = dir.join("wal.jsonl");
        let journal = Journal::open(&path).unwrap();
        for name in ["a", "b"] {
            let line = non_canonical_open_line(&format!("\"{name}\""));
            let (request, received) = parse_open(&line);
            journal
                .append_delta_open(&request.session, received, 0.25, Algorithm::DeGreedyRG)
                .unwrap();
        }
        let raw = std::fs::read(&path).unwrap();
        // the first open's record: every piece `append_delta_open` spliced
        let start = raw.windows(12).position(|w| w == b"{\"DeltaOpen\"").expect("a record");
        let end = start + raw[start..].iter().position(|&b| b == b'\n').expect("a frame") - 1;
        for pos in start..end {
            let mut rotted = raw.clone();
            rotted[pos] ^= 0x01;
            let state = JournalState::replay_bytes(&rotted);
            assert_eq!(state.quarantined, 1, "flip at byte {pos} undetected");
            let sessions: Vec<&str> = state.delta_sessions.keys().map(String::as_str).collect();
            assert_eq!(sessions, ["b"], "only the rotted record is lost");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A solve line and an open line nested `levels` deep: the line is
    /// level 1, its instance level 2, and an unknown member of the
    /// instance holds the rest.
    fn nested_lines(levels: usize) -> (String, String) {
        let junk = format!("{}0{}", "[".repeat(levels - 2), "]".repeat(levels - 2));
        let instance = serde_json::to_string(&*request("x").instance).unwrap();
        let open = format!("{{\"junk\":{junk},{}", &instance[1..]);
        (
            format!("{{\"id\":\"deep\",\"instance\":{open}}}"),
            format!("{{\"verb\":\"mutate\",\"session\":\"deep\",\"open\":{open}}}"),
        )
    }

    /// The journal nests a line one or two levels deeper than it was
    /// received, so the server answers lines only to a depth whose
    /// records replay can still parse.
    #[test]
    fn a_line_nested_to_the_limit_leaves_records_replay_parses() {
        let dir = tempdir("deep");
        let path = dir.join("wal.jsonl");
        let journal = Journal::open(&path).unwrap();
        let (solve, open) = nested_lines(crate::server::LINE_DEPTH_LIMIT);
        assert!(matches!(parse_line(&solve), Line::Solve(Ok(_))));
        journal.append_accepted(&solve).unwrap();
        let (request, received) = parse_open(&open);
        journal.append_delta_open(&request.session, received, 0.3, Algorithm::DeGreedyRG).unwrap();
        let state = JournalState::replay(&path).unwrap();
        assert_eq!((state.quarantined, state.torn_tail), (0, false));
        assert_eq!((state.pending.len(), state.delta_sessions.len()), (1, 1));

        let (solve, open) = nested_lines(crate::server::LINE_DEPTH_LIMIT + 1);
        for line in [solve, open] {
            match parse_line(&line) {
                Line::Solve(Err(e)) => assert!(e.contains("recursion limit exceeded"), "{e}"),
                _ => panic!("a line past the limit must be a parse error"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An instance whose μ holds the values hardest to print in f32
    /// digits: one whose short digits double-round, the smallest
    /// subnormal, and ordinary fractions.
    fn awkward_instance() -> Arc<Instance> {
        let mut b = InstanceBuilder::new();
        let events: Vec<EventId> = (0..3i64)
            .map(|k| {
                b.event(2, Point::new(k as i32, 0), TimeInterval::new(10 * k, 10 * k + 5).unwrap())
            })
            .collect();
        let users: Vec<UserId> = (0..2).map(|_| b.user(Point::new(0, 1), Cost::new(100))).collect();
        let mu = [0.9, f32::from_bits(0x15ae_43fd), f32::from_bits(1), 0.188_982_23, 1.0, 0.0];
        for (k, &x) in mu.iter().enumerate() {
            b.utility(events[k % 3], users[k / 3], f64::from(x));
        }
        Arc::new(b.build().unwrap())
    }

    /// `record` as journals written before f32 digits hold it: every f32
    /// in the digits of its `f64` widening.
    fn f64_digits(record: &JournalRecord) -> String {
        fn widen(c: Content) -> Content {
            match c {
                Content::F32(x) => Content::F64(f64::from(x)),
                Content::Seq(items) => Content::Seq(items.into_iter().map(widen).collect()),
                Content::Map(entries) => {
                    Content::Map(entries.into_iter().map(|(k, v)| (k, widen(v))).collect())
                }
                other => other,
            }
        }
        serde_json::to_string(&widen(record.to_content())).unwrap()
    }

    fn mu_bits(instance: &Instance) -> Vec<u32> {
        instance.user_ids().flat_map(|u| instance.mu_row(u).iter().map(|x| x.to_bits())).collect()
    }

    #[test]
    fn a_journal_in_f64_digits_replays_to_the_same_state_bit_for_bit() {
        let city = Arc::new(usep_gen::generate_city(&usep_gen::CityConfig::auckland(), 7));
        let awkward = awkward_instance();
        let records = [
            JournalRecord::Header { generation: 1, shard_id: None },
            JournalRecord::Accepted {
                request: SolveRequest { instance: Arc::clone(&city), ..request("a") },
            },
            JournalRecord::DeltaOpen {
                session: "s".to_string(),
                instance: Arc::clone(&awkward),
                fallback_threshold: 0.3,
                cold: ColdSolve(Algorithm::DeGreedyRG),
            },
            JournalRecord::DeltaMutate {
                session: "s".to_string(),
                mutation_id: "m1".to_string(),
                mutation: Mutation::MuUpdate { event: 1, user: 0, mu: f32::from_bits(0x15ae_43fd) },
            },
            JournalRecord::DeltaMutate {
                session: "s".to_string(),
                mutation_id: "m2".to_string(),
                mutation: Mutation::UserArrive {
                    location: usep_core::Point::new(1, 1),
                    budget: 50,
                    mu: [0.9, f32::from_bits(1), 0.188_982_23]
                        .iter()
                        .enumerate()
                        .map(|(id, &mu)| usep_delta::MuEntry { id: id as u32, mu })
                        .collect(),
                },
            },
        ];
        let mut legacy = Vec::new();
        let mut current = Vec::new();
        for record in &records {
            legacy.extend(frame_line(&[f64_digits(record).as_bytes()]));
            current.extend(frame_line(&[json(record).unwrap().as_bytes()]));
        }
        assert!(legacy.len() > current.len() * 3 / 2, "f64 digits are longer");
        let (old, new) =
            (JournalState::replay_bytes(&legacy), JournalState::replay_bytes(&current));
        assert_eq!((old.quarantined, old.torn_tail), (0, false));
        assert_eq!(old.pending.len(), 1);
        assert_eq!(mu_bits(&old.pending[0].instance), mu_bits(&city));
        assert_eq!(mu_bits(&new.pending[0].instance), mu_bits(&city));
        let (old, new) = (&old.delta_sessions["s"], &new.delta_sessions["s"]);
        assert_eq!(mu_bits(&old.instance), mu_bits(&awkward));
        assert_eq!(mu_bits(&new.instance), mu_bits(&awkward));
        assert!(old.instance == awkward && new.instance == awkward);
        let entry_bits = |mutations: &[(String, Mutation)]| -> Vec<u32> {
            mutations
                .iter()
                .flat_map(|(_, m)| match m {
                    Mutation::MuUpdate { mu, .. } => vec![mu.to_bits()],
                    Mutation::UserArrive { mu, .. } => mu.iter().map(|e| e.mu.to_bits()).collect(),
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        assert_eq!(
            entry_bits(&old.mutations),
            [0x15ae_43fd, 0.9f32.to_bits(), 1, 0.188_982_23f32.to_bits()]
        );
        assert_eq!(entry_bits(&old.mutations), entry_bits(&new.mutations));
        assert_eq!(old.mutations, new.mutations);
    }

    #[test]
    fn legacy_bare_record_lines_replay_alongside_frames() {
        let dir = tempdir("legacy");
        let path = dir.join("wal.jsonl");
        // a pre-frame journal: bare records, ShardMeta stamp, no header
        let legacy_meta = serde_json::to_string(&JournalRecord::ShardMeta {
            shard_id: "shard-7".to_string(),
        })
        .unwrap();
        let legacy_accept =
            serde_json::to_string(&JournalRecord::Accepted { request: request("old") }).unwrap();
        std::fs::write(&path, format!("{legacy_meta}\n{legacy_accept}\n")).unwrap();
        // a post-upgrade server appends framed records to the same file
        let journal = Journal::open(&path).unwrap();
        journal.append(&JournalRecord::Accepted { request: request("new") }).unwrap();
        let state = JournalState::replay(&path).unwrap();
        assert_eq!(state.shard_id.as_deref(), Some("shard-7"));
        assert_eq!(state.generation, 0, "legacy journals predate generations");
        assert_eq!(state.pending.len(), 2);
        assert_eq!(state.quarantined, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_snapshots_state_bumps_generation_and_shrinks_the_file() {
        let dir = tempdir("compact");
        let path = dir.join("wal.jsonl");
        let journal = Journal::open_labeled(&path, "shard-3").unwrap();
        for i in 0..8 {
            journal.append(&JournalRecord::Accepted { request: request(&format!("r{i}")) }).unwrap();
        }
        for i in 0..6 {
            journal
                .append(&JournalRecord::Completed {
                    response: SolveResponse::bare(format!("r{i}"), Status::Complete),
                })
                .unwrap();
        }
        // plus some interior rot that compaction must not resurrect
        let mut raw = std::fs::read(&path).unwrap();
        let insert_at = raw.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut rotted = raw[..insert_at].to_vec();
        rotted.extend_from_slice(b"{\"len\":3,\"crc\":\"deadbeef\",\"rec\":{}}\n");
        rotted.extend_from_slice(&raw[insert_at..]);
        raw = rotted;
        std::fs::write(&path, &raw).unwrap();

        let before = JournalState::replay(&path).unwrap();
        assert_eq!(before.quarantined, 1);
        let grown = journal.len().unwrap();
        journal.compact(&before).unwrap();
        let after = JournalState::replay(&path).unwrap();

        assert!(journal.len().unwrap() < grown, "compaction must shrink the journal");
        assert_eq!(after.generation, before.generation + 1);
        assert_eq!(after.quarantined, 0, "rot does not survive compaction");
        assert_eq!(after.shard_id.as_deref(), Some("shard-3"));
        assert_eq!(after.pending.len(), before.pending.len());
        assert_eq!(
            after.pending.iter().map(|r| r.id.clone()).collect::<Vec<_>>(),
            before.pending.iter().map(|r| r.id.clone()).collect::<Vec<_>>(),
            "pending order is the dead server's acceptance order"
        );
        assert_eq!(after.completed.len(), before.completed.len());
        // compacting again is idempotent on the logical state
        journal.compact(&after).unwrap();
        let again = JournalState::replay(&path).unwrap();
        assert_eq!(again.generation, after.generation + 1);
        assert_eq!(again.completed.len(), after.completed.len());
        assert_eq!(again.pending.len(), after.pending.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_is_idempotent_and_duplicate_records_keep_first() {
        let dir = tempdir("idem");
        let path = dir.join("wal.jsonl");
        let journal = Journal::open(&path).unwrap();
        journal.append(&JournalRecord::Accepted { request: request("a") }).unwrap();
        // duplicate accept (a resumed server re-journaling would be a
        // bug, but the replay must still converge)
        journal.append(&JournalRecord::Accepted { request: request("a") }).unwrap();
        journal
            .append(&JournalRecord::Completed {
                response: SolveResponse::bare("a", Status::Complete),
            })
            .unwrap();
        journal
            .append(&JournalRecord::Completed {
                response: SolveResponse::bare(
                    "a",
                    Status::Failed { panic: "late duplicate must not win".into() },
                ),
            })
            .unwrap();
        let once = JournalState::replay(&path).unwrap();
        let twice = JournalState::replay(&path).unwrap();
        assert_eq!(once.completed["a"].status, Status::Complete);
        assert_eq!(twice.completed["a"].status, Status::Complete);
        assert!(once.pending.is_empty() && twice.pending.is_empty());
        assert_eq!(once.completed.len(), twice.completed.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: completion records landing *before* their accept
    /// record (a journal assembled from a merge, or a resumed server
    /// finishing an owed solve before any new accept lines). The accept
    /// must not resurrect the id into `pending`, and among duplicate
    /// completions the first record still wins regardless of where the
    /// accept sits between them.
    #[test]
    fn completions_out_of_order_with_accepts_keep_first_and_stay_completed() {
        let dir = tempdir("ooo");
        let path = dir.join("wal.jsonl");
        let journal = Journal::open(&path).unwrap();
        // id "a": Completed → Accepted → Completed (conflicting)
        journal
            .append(&JournalRecord::Completed {
                response: SolveResponse::bare("a", Status::Complete),
            })
            .unwrap();
        journal.append(&JournalRecord::Accepted { request: request("a") }).unwrap();
        journal
            .append(&JournalRecord::Completed {
                response: SolveResponse::bare(
                    "a",
                    Status::Failed { panic: "late duplicate must not win".into() },
                ),
            })
            .unwrap();
        // id "b": Completed with no accept record at all
        journal
            .append(&JournalRecord::Completed {
                response: SolveResponse::bare(
                    "b",
                    Status::Truncated { reason: "deadline".into() },
                ),
            })
            .unwrap();
        // id "c": a genuinely pending accept, to prove retain() is
        // surgical rather than clearing everything
        journal.append(&JournalRecord::Accepted { request: request("c") }).unwrap();

        let state = JournalState::replay(&path).unwrap();
        assert_eq!(state.completed["a"].status, Status::Complete, "first record must win");
        assert!(state.shard_id.is_none(), "unlabeled journal has no shard id");
        assert!(
            matches!(state.completed["b"].status, Status::Truncated { .. }),
            "acceptless completion is still an answer"
        );
        assert_eq!(state.pending.len(), 1, "completed ids must not be pending");
        assert_eq!(state.pending[0].id, "c");
        // and replaying again converges to the same verdicts
        let again = JournalState::replay(&path).unwrap();
        assert_eq!(again.completed["a"].status, Status::Complete);
        assert_eq!(again.pending.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_sessions_replay_ordered_deduplicated_and_closed_sessions_vanish() {
        let dir = tempdir("delta");
        let path = dir.join("wal.jsonl");
        let journal = Journal::open(&path).unwrap();
        let instance = request("x").instance;
        let open = |session: &str| JournalRecord::DeltaOpen {
            session: session.to_string(),
            instance: Arc::clone(&instance),
            fallback_threshold: 0.3,
            cold: ColdSolve(Algorithm::DeGreedyRG),
        };
        let mutate = |session: &str, id: &str, cap: u32| JournalRecord::DeltaMutate {
            session: session.to_string(),
            mutation_id: id.to_string(),
            mutation: Mutation::CapacityChange { event: 0, capacity: cap },
        };
        journal.append(&open("live")).unwrap();
        journal.append(&mutate("live", "m1", 2)).unwrap();
        journal.append(&mutate("live", "m2", 5)).unwrap();
        // duplicate id must keep the FIRST record (exactly-once)
        journal.append(&mutate("live", "m1", 9)).unwrap();
        // re-open of an existing session must not reset its stream
        journal.append(&open("live")).unwrap();
        // a whole second session, opened and closed
        journal.append(&open("dead")).unwrap();
        journal.append(&mutate("dead", "d1", 4)).unwrap();
        journal.append(&JournalRecord::DeltaClose { session: "dead".to_string() }).unwrap();
        // a mutation for a closed (or never-opened) session is inert
        journal.append(&mutate("dead", "d2", 7)).unwrap();
        journal.append(&mutate("ghost", "g1", 1)).unwrap();
        // closed then re-opened under the same name: the new session
        // starts clean, so a mutation id the old one used is new again
        journal.append(&open("again")).unwrap();
        journal.append(&mutate("again", "a1", 4)).unwrap();
        journal.append(&JournalRecord::DeltaClose { session: "again".to_string() }).unwrap();
        journal.append(&open("again")).unwrap();
        journal.append(&mutate("again", "a1", 6)).unwrap();
        journal.append(&mutate("again", "a1", 8)).unwrap();

        let state = JournalState::replay(&path).unwrap();
        assert_eq!(state.delta_sessions.len(), 2);
        assert!(!state.delta_sessions.contains_key("dead"));
        let again = &state.delta_sessions["again"].mutations;
        assert!(
            matches!(
                again[..],
                [(ref id, Mutation::CapacityChange { capacity: 6, .. })] if id == "a1"
            ),
            "the re-opened session keeps only its own first a1: {again:?}"
        );
        let live = &state.delta_sessions["live"];
        assert_eq!(live.fallback_threshold, 0.3);
        assert_eq!(
            live.mutations
                .iter()
                .map(|(id, m)| match m {
                    Mutation::CapacityChange { capacity, .. } => (id.as_str(), *capacity),
                    other => panic!("unexpected {other:?}"),
                })
                .collect::<Vec<_>>(),
            vec![("m1", 2), ("m2", 5)],
            "acceptance order, first record wins per id"
        );

        // compaction carries the session snapshot across generations
        journal.compact(&state).unwrap();
        let after = JournalState::replay(&path).unwrap();
        assert_eq!(after.generation, state.generation + 1);
        assert_eq!(after.delta_sessions.len(), 2);
        assert_eq!(after.delta_sessions["live"].mutations.len(), 2);
        assert_eq!(after.delta_sessions["live"].instance, instance);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression (fleet): shard A's journal replayed as shard B must
    /// be rejected loudly, never silently merged. The same file replays
    /// fine as shard A, or on an unsharded server that does not pass an
    /// expectation at all.
    #[test]
    fn cross_shard_journal_replay_is_rejected_loudly() {
        let dir = tempdir("xshard");
        let path = dir.join("shard-a.wal.jsonl");
        let journal = Journal::open_labeled(&path, "shard-a").unwrap();
        journal.append(&JournalRecord::Accepted { request: request("r1") }).unwrap();
        journal
            .append(&JournalRecord::Completed {
                response: SolveResponse::bare("r1", Status::Complete),
            })
            .unwrap();
        drop(journal);

        // right shard: replays cleanly and sees its own stamp
        let own = JournalState::replay_expecting(&path, "shard-a").unwrap();
        assert_eq!(own.shard_id.as_deref(), Some("shard-a"));
        assert_eq!(own.completed.len(), 1);

        // wrong shard: loud typed error naming both shards
        let err = JournalState::replay_expecting(&path, "shard-b").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("shard-a") && msg.contains("shard-b"), "{msg}");

        // unsharded replay (no expectation) still works — the stamp is
        // data, not a barrier, for pre-fleet tooling reading the file
        let plain = JournalState::replay(&path).unwrap();
        assert_eq!(plain.completed.len(), 1);

        // reopening with the same label must not double-stamp
        let journal = Journal::open_labeled(&path, "shard-a").unwrap();
        journal.append(&JournalRecord::Accepted { request: request("r2") }).unwrap();
        drop(journal);
        let stamps = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .filter(|l| l.contains("Header"))
            .count();
        assert_eq!(stamps, 1, "reopen must not re-stamp a labeled journal");

        // an unlabeled journal replays under any expectation
        let legacy = dir.join("legacy.wal.jsonl");
        let journal = Journal::open(&legacy).unwrap();
        journal.append(&JournalRecord::Accepted { request: request("r3") }).unwrap();
        drop(journal);
        let state = JournalState::replay_expecting(&legacy, "shard-b").unwrap();
        assert_eq!(state.pending.len(), 1);
        assert!(state.shard_id.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
