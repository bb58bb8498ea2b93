//! The HPBD wire protocol.
//!
//! Two message types travel over the send/recv channel (paper §4.2.1):
//! *control messages* — page requests from client to server — and
//! *acknowledgements* from server to client. Page data itself never rides
//! in a message; it moves by server-initiated RDMA between the client's
//! registered pool and the server's staging buffers.
//!
//! Every message carries a signature (magic + a `sum * 31 + word` checksum
//! over the fields), validated on receipt: "message signature is used to
//! validate requests and responses" (paper §4.1). One private
//! `Encoder`/`Decoder` pair writes and reads every message: each field is
//! named once per direction and folded into the checksum as it passes.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;

/// Magic tag on every HPBD message.
pub const HPBD_MAGIC: u32 = 0x4850_4244; // "HPBD"

/// Magic tag on server-initiated notices (dynamic-memory protocol).
pub const NOTICE_MAGIC: u32 = 0x4850_4E54; // "HPNT"

/// Magic tag on merged (multi-extent) page requests.
pub const MERGED_MAGIC: u32 = 0x4850_424D; // "HPBM"

/// Encoded size of a [`PageRequest`].
pub const REQUEST_WIRE_SIZE: usize = 52;
/// Encoded size of a [`PageReply`].
pub const REPLY_WIRE_SIZE: usize = 36;
/// Encoded size of a [`RevokeNotice`] (including its checksum).
pub const NOTICE_WIRE_SIZE: usize = 24;

/// Most extents one [`MergedRequest`] may carry. Bounds the control-message
/// size (and the server's per-message work) the way a real adapter's
/// max_send_sge / inline-data limit would.
pub const MAX_MERGE_SEGMENTS: usize = 32;

/// Encoded size of a [`MergedRequest`] carrying `n` segments, checksum
/// included: a 32-byte header plus 24 bytes (server offset + length +
/// version) per segment and the trailing 4-byte checksum.
pub const fn merged_wire_size(n: usize) -> usize {
    36 + 24 * n
}

/// Largest control message either direction can produce: a full
/// [`MAX_MERGE_SEGMENTS`]-segment merged request. Receive buffers sized to
/// this accept every client-side control message.
pub const MERGED_MAX_WIRE_SIZE: usize = merged_wire_size(MAX_MERGE_SEGMENTS);

/// Operation requested of the memory server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageOp {
    /// Swap-out: server pulls page data from the client with RDMA READ and
    /// stores it.
    Write,
    /// Swap-in: server pushes stored data into the client with RDMA WRITE.
    Read,
}

impl PageOp {
    fn code(self) -> u32 {
        match self {
            PageOp::Write => 1,
            PageOp::Read => 2,
        }
    }

    fn from_code(c: u32) -> Result<PageOp, ProtoError> {
        match c {
            1 => Ok(PageOp::Write),
            2 => Ok(PageOp::Read),
            _ => Err(ProtoError::BadField("op")),
        }
    }
}

/// Decoding failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Message shorter than its fixed layout.
    Truncated,
    /// Magic mismatch.
    BadMagic,
    /// Checksum mismatch (corruption).
    BadChecksum,
    /// Field out of range.
    BadField(&'static str),
}

/// The magic a message starts with; `Truncated` if it is shorter than one.
fn magic(b: &[u8]) -> Result<u32, ProtoError> {
    let w = b.first_chunk().ok_or(ProtoError::Truncated)?;
    Ok(u32::from_le_bytes(*w))
}

/// The signature's step: every 32-bit word after the magic is folded in
/// as `sum * 31 + word`.
fn fold(sum: u32, word: u32) -> u32 {
    sum.wrapping_mul(31).wrapping_add(word)
}

/// Writes one message: the magic, then each field little-endian, folding
/// it into the signature as it goes (a `u64` folds its low word, then its
/// high word), then the signature.
struct Encoder {
    b: Vec<u8>,
    sum: u32,
}

impl Encoder {
    fn new(magic: u32, size: usize) -> Encoder {
        let mut b = Vec::with_capacity(size);
        b.extend_from_slice(&magic.to_le_bytes());
        Encoder { b, sum: 0 }
    }

    fn u32(&mut self, w: u32) {
        self.b.extend_from_slice(&w.to_le_bytes());
        self.sum = fold(self.sum, w);
    }

    fn u64(&mut self, v: u64) {
        self.b.extend_from_slice(&v.to_le_bytes());
        self.sum = fold(fold(self.sum, v as u32), (v >> 32) as u32);
    }

    fn finish(mut self) -> Bytes {
        self.b.extend_from_slice(&self.sum.to_le_bytes());
        Bytes::from(self.b)
    }
}

/// Reads what an [`Encoder`] wrote, field by field in the same order,
/// folding the same signature; [`Decoder::close`] checks it.
struct Decoder<'a> {
    rest: &'a [u8],
    sum: u32,
}

impl<'a> Decoder<'a> {
    /// `Truncated` when `b` is shorter than `size`, then `BadMagic`.
    fn open(b: &'a [u8], want: u32, size: usize) -> Result<Decoder<'a>, ProtoError> {
        if b.len() < size {
            return Err(ProtoError::Truncated);
        }
        if magic(b)? != want {
            return Err(ProtoError::BadMagic);
        }
        Ok(Decoder {
            rest: &b[4..],
            sum: 0,
        })
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        let (head, rest) = self.rest.split_first_chunk().ok_or(ProtoError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let w = u32::from_le_bytes(self.take()?);
        self.sum = fold(self.sum, w);
        Ok(w)
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let v = u64::from_le_bytes(self.take()?);
        self.sum = fold(fold(self.sum, v as u32), (v >> 32) as u32);
        Ok(v)
    }

    /// `BadChecksum` unless the signature that follows the fields matches.
    fn close(mut self) -> Result<(), ProtoError> {
        if u32::from_le_bytes(self.take()?) != self.sum {
            return Err(ProtoError::BadChecksum);
        }
        Ok(())
    }
}

/// A page request: client → server control message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageRequest {
    req_id: u64,
    op: PageOp,
    server_offset: u64,
    len: u64,
    client_rkey: u32,
    client_offset: u64,
    version: u64,
}

impl PageRequest {
    /// Build a request. Fields are sealed so every instance that reaches
    /// the wire went through this constructor or a checksum-validated
    /// decode.
    pub fn new(
        req_id: u64,
        op: PageOp,
        server_offset: u64,
        len: u64,
        client_rkey: u32,
        client_offset: u64,
        version: u64,
    ) -> PageRequest {
        PageRequest {
            req_id,
            op,
            server_offset,
            len,
            client_rkey,
            client_offset,
            version,
        }
    }

    /// Client-chosen request id, echoed in the reply.
    pub fn req_id(&self) -> u64 {
        self.req_id
    }

    /// Operation.
    pub fn op(&self) -> PageOp {
        self.op
    }

    /// Byte offset inside the server's swap area.
    pub fn server_offset(&self) -> u64 {
        self.server_offset
    }

    /// Transfer length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the request transfers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// rkey of the client's registered pool region.
    pub fn client_rkey(&self) -> u32 {
        self.client_rkey
    }

    /// Offset of the staged data inside the client pool region.
    pub fn client_offset(&self) -> u64 {
        self.client_offset
    }

    /// Write-fencing version. Monotonically increasing per client write;
    /// retries, failover reissues, and mirror replicas of the same logical
    /// write all carry the same stamp, so a server can drop any copy that
    /// would undo a newer write to the same block. Reads carry 0.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Serialise with magic and checksum.
    pub fn encode(&self) -> Bytes {
        let mut e = Encoder::new(HPBD_MAGIC, REQUEST_WIRE_SIZE + 4);
        e.u64(self.req_id);
        e.u32(self.op.code());
        e.u64(self.server_offset);
        e.u64(self.len);
        e.u32(self.client_rkey);
        e.u64(self.client_offset);
        e.u64(self.version);
        e.finish()
    }

    /// Parse and validate from a borrowed buffer (no `Bytes` needed).
    pub fn decode_slice(b: &[u8]) -> Result<PageRequest, ProtoError> {
        let mut d = Decoder::open(b, HPBD_MAGIC, REQUEST_WIRE_SIZE + 4)?;
        let req_id = d.u64()?;
        let op = d.u32()?;
        let server_offset = d.u64()?;
        let len = d.u64()?;
        let client_rkey = d.u32()?;
        let client_offset = d.u64()?;
        let version = d.u64()?;
        d.close()?;
        Ok(PageRequest {
            req_id,
            op: PageOp::from_code(op)?,
            server_offset,
            len,
            client_rkey,
            client_offset,
            version,
        })
    }
}

/// Completion status carried by a reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyStatus {
    /// Request served.
    Ok,
    /// Request referenced storage outside the server's swap area.
    OutOfRange,
    /// RDMA transfer failed.
    TransferError,
    /// Write fenced off: every page it covers already holds data from an
    /// equal-or-newer version, so the server dropped it without applying.
    /// The client treats this as success — the superseding write is the
    /// state the block device must converge to.
    StaleWrite,
}

impl ReplyStatus {
    fn code(self) -> u32 {
        match self {
            ReplyStatus::Ok => 0,
            ReplyStatus::OutOfRange => 1,
            ReplyStatus::TransferError => 2,
            ReplyStatus::StaleWrite => 3,
        }
    }

    fn from_code(c: u32) -> Result<ReplyStatus, ProtoError> {
        match c {
            0 => Ok(ReplyStatus::Ok),
            1 => Ok(ReplyStatus::OutOfRange),
            2 => Ok(ReplyStatus::TransferError),
            3 => Ok(ReplyStatus::StaleWrite),
            _ => Err(ProtoError::BadField("status")),
        }
    }
}

/// Acknowledgement: server → client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageReply {
    req_id: u64,
    status: ReplyStatus,
    version: u64,
    generation: u64,
}

impl PageReply {
    /// Build a reply.
    pub fn new(req_id: u64, status: ReplyStatus, version: u64, generation: u64) -> PageReply {
        PageReply {
            req_id,
            status,
            version,
            generation,
        }
    }

    /// Echoed request id.
    pub fn req_id(&self) -> u64 {
        self.req_id
    }

    /// Outcome.
    pub fn status(&self) -> ReplyStatus {
        self.status
    }

    /// Echoed write-fencing version (0 for reads), so the client can
    /// cross-check that the completion belongs to the stamp it issued.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The server's storage generation (DESIGN.md §13): starts at 1 and is
    /// bumped on every restart, which wipes the in-memory store. A client
    /// that learned generation G at connect time and sees G' != G in a
    /// reply is talking to an amnesiac — the server restarted inside the
    /// client's timeout window and every page it held is gone, so the
    /// reply data must not be trusted even though the QP-level connection
    /// looks healthy.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Serialise with magic and checksum.
    pub fn encode(&self) -> Bytes {
        let mut e = Encoder::new(HPBD_MAGIC, REPLY_WIRE_SIZE);
        e.u64(self.req_id);
        e.u32(self.status.code());
        e.u64(self.version);
        e.u64(self.generation);
        e.finish()
    }

    /// Parse and validate from a borrowed buffer (no `Bytes` needed).
    pub fn decode_slice(b: &[u8]) -> Result<PageReply, ProtoError> {
        let mut d = Decoder::open(b, HPBD_MAGIC, REPLY_WIRE_SIZE)?;
        let req_id = d.u64()?;
        let status = d.u32()?;
        let version = d.u64()?;
        let generation = d.u64()?;
        d.close()?;
        Ok(PageReply {
            req_id,
            status: ReplyStatus::from_code(status)?,
            version,
            generation,
        })
    }
}

/// Server-initiated notice: the server is reclaiming part of its exported
/// memory (the paper's future work: "utilize cluster wise idle memory in a
/// dynamic and cooperative manner"). The client must migrate every page
/// stored in `[offset, offset + len)` elsewhere and stop using the range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RevokeNotice {
    offset: u64,
    len: u64,
}

impl RevokeNotice {
    /// Build a notice for the reclaimed range `[offset, offset + len)`.
    pub fn new(offset: u64, len: u64) -> RevokeNotice {
        RevokeNotice { offset, len }
    }

    /// Start of the reclaimed range, server-relative.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Length of the reclaimed range.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the reclaimed range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Serialise: 24 bytes, smaller than a [`PageReply`]'s wire size, so
    /// notices fit the client's pre-posted reply buffers.
    pub fn encode(&self) -> Bytes {
        let mut e = Encoder::new(NOTICE_MAGIC, NOTICE_WIRE_SIZE);
        e.u64(self.offset);
        e.u64(self.len);
        e.finish()
    }

    /// Parse a full 24-byte notice (magic, range, checksum). The reply
    /// channel dispatches here from [`ServerMessage::decode_slice`]; kept
    /// public and symmetric with [`PageReply::decode_slice`] so the notice
    /// wire form can be roundtrip-tested on its own.
    pub fn decode_slice(b: &[u8]) -> Result<RevokeNotice, ProtoError> {
        let mut d = Decoder::open(b, NOTICE_MAGIC, NOTICE_WIRE_SIZE)?;
        let offset = d.u64()?;
        let len = d.u64()?;
        d.close()?;
        Ok(RevokeNotice { offset, len })
    }
}

/// Anything a server can send on the reply channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerMessage {
    /// Acknowledgement of a page request.
    Reply(PageReply),
    /// Dynamic-memory revocation.
    Revoke(RevokeNotice),
}

impl ServerMessage {
    /// Parse either message kind by its magic, from a borrowed buffer —
    /// the hot receive path reuses one scratch buffer per connection
    /// instead of allocating a `Bytes` per message.
    pub fn decode_slice(b: &[u8]) -> Result<ServerMessage, ProtoError> {
        match magic(b)? {
            HPBD_MAGIC => Ok(ServerMessage::Reply(PageReply::decode_slice(b)?)),
            NOTICE_MAGIC => Ok(ServerMessage::Revoke(RevokeNotice::decode_slice(b)?)),
            _ => Err(ProtoError::BadMagic),
        }
    }
}

/// One extent inside a [`MergedRequest`]: where it lives in the server's
/// swap area, its transfer length, and the write-fencing version of the
/// logical write it belongs to (0 for reads). In the *client pool* the
/// extents are laid out back to back — segment `k` starts at the sum of
/// the lengths before it — while the server offsets may leave gaps: the
/// block layer has already swallowed exact adjacency, so what merging
/// coalesces is same-server bursts of scattered extents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergedSeg {
    server_offset: u64,
    len: u64,
    version: u64,
}

impl MergedSeg {
    /// Build a segment descriptor.
    pub fn new(server_offset: u64, len: u64, version: u64) -> MergedSeg {
        MergedSeg {
            server_offset,
            len,
            version,
        }
    }

    /// Byte offset of the extent inside the server's swap area.
    pub fn server_offset(&self) -> u64 {
        self.server_offset
    }

    /// Transfer length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the segment transfers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write-fencing version (0 for reads).
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// A merged page request: one control message carrying several extents of
/// the same operation, RDMA-transferred as a single contiguous span of
/// client pool bytes. The client coalesces same-window requests per server
/// into these (RDMAbox-style request merging); the server serves the whole
/// batch with ONE staging allocation, ONE RDMA operation, and ONE reply,
/// scatter/gathering each segment at its own store offset and fencing each
/// segment's version independently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergedRequest {
    req_id: u64,
    op: PageOp,
    client_rkey: u32,
    client_offset: u64,
    segs: Vec<MergedSeg>,
}

impl MergedRequest {
    /// Build a merged request. Panics when the segment count is outside
    /// `1..=MAX_MERGE_SEGMENTS` — the merge planner owns that bound.
    pub fn new(
        req_id: u64,
        op: PageOp,
        client_rkey: u32,
        client_offset: u64,
        segs: Vec<MergedSeg>,
    ) -> MergedRequest {
        assert!(
            (1..=MAX_MERGE_SEGMENTS).contains(&segs.len()),
            "merged request with {} segments",
            segs.len()
        );
        MergedRequest {
            req_id,
            op,
            client_rkey,
            client_offset,
            segs,
        }
    }

    /// Client-chosen request id, echoed in the reply.
    pub fn req_id(&self) -> u64 {
        self.req_id
    }

    /// Operation, shared by every segment.
    pub fn op(&self) -> PageOp {
        self.op
    }

    /// Byte offset of the first segment inside the server's swap area.
    pub fn server_offset(&self) -> u64 {
        self.segs[0].server_offset
    }

    /// rkey of the client's registered pool region.
    pub fn client_rkey(&self) -> u32 {
        self.client_rkey
    }

    /// Offset of the first segment's staging inside the client pool.
    pub fn client_offset(&self) -> u64 {
        self.client_offset
    }

    /// The merged extents, in server-offset order.
    pub fn segs(&self) -> &[MergedSeg] {
        &self.segs
    }

    /// Total bytes moved by the single RDMA span.
    pub fn total_len(&self) -> u64 {
        self.segs.iter().map(|s| s.len).sum()
    }

    /// Highest fencing version across segments — what the reply echoes.
    pub fn max_version(&self) -> u64 {
        self.segs.iter().map(|s| s.version).max().unwrap_or(0)
    }

    /// Serialise with magic and checksum.
    pub fn encode(&self) -> Bytes {
        let mut e = Encoder::new(MERGED_MAGIC, merged_wire_size(self.segs.len()));
        e.u64(self.req_id);
        e.u32(self.op.code());
        e.u32(self.client_rkey);
        e.u64(self.client_offset);
        e.u32(self.segs.len() as u32);
        for s in &self.segs {
            e.u64(s.server_offset);
            e.u64(s.len);
            e.u64(s.version);
        }
        e.finish()
    }

    /// Parse and validate from a borrowed buffer. The segment count and
    /// the length it implies are checked before any segment is read.
    pub fn decode_slice(b: &[u8]) -> Result<MergedRequest, ProtoError> {
        let mut d = Decoder::open(b, MERGED_MAGIC, merged_wire_size(1))?;
        let req_id = d.u64()?;
        let op = d.u32()?;
        let client_rkey = d.u32()?;
        let client_offset = d.u64()?;
        let count = d.u32()? as usize;
        if !(1..=MAX_MERGE_SEGMENTS).contains(&count) {
            return Err(ProtoError::BadField("seg_count"));
        }
        if b.len() < merged_wire_size(count) {
            return Err(ProtoError::Truncated);
        }
        let mut segs = Vec::with_capacity(count);
        for _ in 0..count {
            segs.push(MergedSeg {
                server_offset: d.u64()?,
                len: d.u64()?,
                version: d.u64()?,
            });
        }
        d.close()?;
        Ok(MergedRequest {
            req_id,
            op: PageOp::from_code(op)?,
            client_rkey,
            client_offset,
            segs,
        })
    }
}

/// Anything a client can send on the request channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientMessage {
    /// A single-extent page request.
    Request(PageRequest),
    /// A merged multi-extent request.
    Merged(MergedRequest),
}

impl ClientMessage {
    /// Parse either request kind by its magic.
    pub fn decode_slice(b: &[u8]) -> Result<ClientMessage, ProtoError> {
        match magic(b)? {
            HPBD_MAGIC => Ok(ClientMessage::Request(PageRequest::decode_slice(b)?)),
            MERGED_MAGIC => Ok(ClientMessage::Merged(MergedRequest::decode_slice(b)?)),
            _ => Err(ProtoError::BadMagic),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> PageRequest {
        PageRequest {
            req_id: 0x0123_4567_89AB_CDEF,
            op: PageOp::Write,
            server_offset: 7 << 20,
            len: 128 * 1024,
            client_rkey: 42,
            client_offset: 4096,
            version: 0x0102_0304_0506_0708,
        }
    }

    #[test]
    fn request_roundtrip() {
        let r = request();
        assert_eq!(PageRequest::decode_slice(&r.encode()).unwrap(), r);
    }

    #[test]
    fn reply_roundtrip() {
        for status in [
            ReplyStatus::Ok,
            ReplyStatus::OutOfRange,
            ReplyStatus::TransferError,
            ReplyStatus::StaleWrite,
        ] {
            let r = PageReply {
                req_id: 99,
                status,
                version: 17,
                generation: 3,
            };
            assert_eq!(PageReply::decode_slice(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut raw = request().encode().to_vec();
        // Flip a byte in the middle of the header (not the magic).
        raw[10] ^= 0xFF;
        assert_eq!(
            PageRequest::decode_slice(&raw),
            Err(ProtoError::BadChecksum)
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = request().encode().to_vec();
        raw[0] ^= 0xFF;
        assert_eq!(PageRequest::decode_slice(&raw), Err(ProtoError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let raw = request().encode().slice(0..10);
        assert_eq!(PageRequest::decode_slice(&raw), Err(ProtoError::Truncated));
    }

    #[test]
    fn reply_checksum_catches_status_tamper() {
        let mut raw = PageReply {
            req_id: 1,
            status: ReplyStatus::Ok,
            version: 5,
            generation: 1,
        }
        .encode()
        .to_vec();
        raw[12] = 1; // status byte: Ok -> OutOfRange
        assert_eq!(PageReply::decode_slice(&raw), Err(ProtoError::BadChecksum));
    }

    #[test]
    fn reply_checksum_catches_version_tamper() {
        let mut raw = PageReply {
            req_id: 1,
            status: ReplyStatus::Ok,
            version: 5,
            generation: 1,
        }
        .encode()
        .to_vec();
        raw[16] = 9; // version low byte: 5 -> 9
        assert_eq!(PageReply::decode_slice(&raw), Err(ProtoError::BadChecksum));
    }

    #[test]
    fn reply_checksum_catches_generation_tamper() {
        let mut raw = PageReply {
            req_id: 1,
            status: ReplyStatus::Ok,
            version: 5,
            generation: 2,
        }
        .encode()
        .to_vec();
        raw[24] = 7; // generation low byte: 2 -> 7
        assert_eq!(PageReply::decode_slice(&raw), Err(ProtoError::BadChecksum));
    }

    // ---- the wire format, pinned byte for byte ----

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// One message of each type with a distinct non-zero value in every
    /// field, against the bytes the encoder produced before it was last
    /// rewritten. A layout or signature change fails here first.
    #[test]
    fn wire_bytes_are_pinned() {
        let req = PageRequest::new(
            0x1122_3344_5566_7788,
            PageOp::Read,
            0x0000_0012_3450_0000,
            0x0002_0000,
            0xA1B2_C3D4,
            0x0000_0003_0000_1000,
            0x0102_0304_0506_0708,
        );
        const REQ: &str = "4442504888776655443322110200000000005034120000000000020000000000d4c3b2a100100000030000000807060504030201bb8d9839";
        assert_eq!(hex(&req.encode()), REQ);
        assert_eq!(PageRequest::decode_slice(&unhex(REQ)), Ok(req));

        let rep = PageReply::new(
            0x8877_6655_4433_2211,
            ReplyStatus::StaleWrite,
            0x0F0E_0D0C_0B0A_0908,
            0x0000_0000_0000_0007,
        );
        const REP: &str =
            "4442504811223344556677880300000008090a0b0c0d0e0f07000000000000007c131a1b";
        assert_eq!(hex(&rep.encode()), REP);
        assert_eq!(PageReply::decode_slice(&unhex(REP)), Ok(rep));

        let notice = RevokeNotice::new(0x0000_0040_0000_0000, 0x0000_0000_0020_0000);
        const NOTICE: &str = "544e50480000000040000000000020000000000040f0e003";
        assert_eq!(hex(&notice.encode()), NOTICE);
        assert_eq!(RevokeNotice::decode_slice(&unhex(NOTICE)), Ok(notice));

        let merged = MergedRequest::new(
            0x0A0B_0C0D_0E0F_1011,
            PageOp::Write,
            0x5566_7788,
            0x0000_0001_0000_2000,
            vec![
                MergedSeg::new(0x1000, 0x2000, 11),
                MergedSeg::new(0x0000_0005_0000_8000, 0x1000, 12),
                MergedSeg::new(0x20000, 0x3000, 13),
            ],
        );
        const MERGED: &str = "4d42504811100f0e0d0c0b0a0100000088776655002000000100000003000000001000000000000000200000000000000b00000000000000008000000500000000100000000000000c00000000000000000002000000000000300000000000000d0000000000000060f8539c";
        assert_eq!(hex(&merged.encode()), MERGED);
        assert_eq!(MergedRequest::decode_slice(&unhex(MERGED)), Ok(merged));
    }

    // ---- deterministic property loops over the versioned wire format ----

    use simcore::SimRng;

    fn for_cases(cases: u64, mut f: impl FnMut(&mut SimRng)) {
        for case in 0..cases {
            let mut rng = SimRng::new(0xC0FF_EE00_5EED ^ (case * 0x100_0000_01B3));
            f(&mut rng);
        }
    }

    fn random_request(rng: &mut SimRng) -> PageRequest {
        PageRequest {
            req_id: rng.next_u64(),
            op: if rng.below(2) == 0 {
                PageOp::Write
            } else {
                PageOp::Read
            },
            server_offset: rng.next_u64(),
            len: rng.next_u64(),
            client_rkey: rng.next_u32(),
            client_offset: rng.next_u64(),
            version: rng.next_u64(),
        }
    }

    fn random_reply(rng: &mut SimRng) -> PageReply {
        let status = match rng.below(4) {
            0 => ReplyStatus::Ok,
            1 => ReplyStatus::OutOfRange,
            2 => ReplyStatus::TransferError,
            _ => ReplyStatus::StaleWrite,
        };
        PageReply {
            req_id: rng.next_u64(),
            status,
            version: rng.next_u64(),
            generation: rng.next_u64(),
        }
    }

    #[test]
    fn prop_request_roundtrip_preserves_version() {
        for_cases(512, |rng| {
            let r = random_request(rng);
            let back = PageRequest::decode_slice(&r.encode()).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.version(), r.version);
        });
    }

    #[test]
    fn prop_reply_roundtrip_preserves_version() {
        for_cases(512, |rng| {
            let r = random_reply(rng);
            let back = PageReply::decode_slice(&r.encode()).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.version(), r.version);
            assert_eq!(back.generation(), r.generation);
        });
    }

    #[test]
    fn prop_revoke_notice_roundtrip() {
        for_cases(256, |rng| {
            let notice = RevokeNotice::new(rng.next_u64(), rng.next_u64());
            let back = RevokeNotice::decode_slice(&notice.encode()).unwrap();
            assert_eq!(back, notice);
            // The reply channel dispatches notices by magic: the enum
            // decode must agree with the standalone decode.
            assert_eq!(
                ServerMessage::decode_slice(&notice.encode()).unwrap(),
                ServerMessage::Revoke(notice)
            );
        });
    }

    #[test]
    fn prop_truncated_inputs_error_and_never_panic() {
        for_cases(256, |rng| {
            let req = random_request(rng).encode();
            let rep = random_reply(rng).encode();
            let notice = RevokeNotice::new(rng.next_u64(), rng.next_u64()).encode();
            for cut in 0..req.len() {
                assert_eq!(
                    PageRequest::decode_slice(&req[..cut]),
                    Err(ProtoError::Truncated)
                );
            }
            for cut in 0..rep.len() {
                assert_eq!(
                    PageReply::decode_slice(&rep[..cut]),
                    Err(ProtoError::Truncated)
                );
            }
            for cut in 0..notice.len() {
                // Truncated notices must error; a cut below the 4-byte magic
                // cannot even be classified, which is still `Truncated`.
                assert_eq!(
                    ServerMessage::decode_slice(&notice[..cut]),
                    Err(ProtoError::Truncated)
                );
            }
        });
    }

    #[test]
    fn prop_single_byte_corruption_is_rejected_not_applied() {
        for_cases(128, |rng| {
            let r = random_request(rng);
            let mut raw = r.encode().to_vec();
            let at = rng.below(raw.len() as u64) as usize;
            let bit = 1u8 << rng.below(8);
            raw[at] ^= bit;
            // A flipped bit may hit the magic, a field, or the checksum;
            // in every case decode must fail rather than yield `r`.
            match PageRequest::decode_slice(&raw) {
                Err(_) => {}
                Ok(decoded) => assert_ne!(decoded, r, "corruption accepted"),
            }
        });
    }

    #[test]
    fn prop_random_garbage_never_panics() {
        for_cases(256, |rng| {
            let len = rng.below(2 * (REQUEST_WIRE_SIZE as u64 + 4)) as usize;
            let raw: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            let _ = PageRequest::decode_slice(&raw);
            let _ = PageReply::decode_slice(&raw);
            let _ = ServerMessage::decode_slice(&raw);
        });
    }

    // ---- merged multi-extent requests ----

    fn random_merged(rng: &mut SimRng) -> MergedRequest {
        let count = 1 + rng.below(MAX_MERGE_SEGMENTS as u64) as usize;
        let op = if rng.below(2) == 0 {
            PageOp::Write
        } else {
            PageOp::Read
        };
        let segs = (0..count)
            .map(|_| {
                MergedSeg::new(
                    4096 * rng.below(1 << 20),
                    4096 * (1 + rng.below(32)),
                    if op == PageOp::Write {
                        rng.next_u64()
                    } else {
                        0
                    },
                )
            })
            .collect();
        MergedRequest::new(rng.next_u64(), op, rng.next_u32(), rng.next_u64(), segs)
    }

    #[test]
    fn merged_roundtrip_all_counts() {
        for count in 1..=MAX_MERGE_SEGMENTS {
            let segs: Vec<MergedSeg> = (0..count)
                .map(|k| MergedSeg::new(1 << 20, 4096 * (k as u64 + 1), k as u64 * 7))
                .collect();
            let m = MergedRequest::new(5, PageOp::Write, 42, 8192, segs);
            let raw = m.encode();
            assert_eq!(raw.len(), merged_wire_size(count));
            assert_eq!(MergedRequest::decode_slice(&raw).unwrap(), m);
        }
    }

    #[test]
    fn merged_totals_and_max_version() {
        let m = MergedRequest::new(
            1,
            PageOp::Write,
            1,
            0,
            vec![
                MergedSeg::new(0, 4096, 3),
                MergedSeg::new(8192, 8192, 9),
                MergedSeg::new(65536, 4096, 5),
            ],
        );
        assert_eq!(m.total_len(), 16384);
        assert_eq!(m.max_version(), 9);
        assert_eq!(m.server_offset(), 0);
    }

    #[test]
    #[should_panic(expected = "merged request with 0 segments")]
    fn merged_zero_segments_panics_at_build() {
        MergedRequest::new(1, PageOp::Read, 1, 0, vec![]);
    }

    #[test]
    fn merged_bad_seg_count_on_wire_rejected() {
        let m = MergedRequest::new(1, PageOp::Read, 1, 0, vec![MergedSeg::new(0, 4096, 0)]);
        let mut raw = m.encode().to_vec();
        // Forge seg_count = 0 and = MAX+1; both must be rejected before any
        // segment is trusted (the checksum would also fail, but the field
        // check fires first and bounds the read loop).
        raw[28..32].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            MergedRequest::decode_slice(&raw),
            Err(ProtoError::BadField("seg_count"))
        );
        raw[28..32].copy_from_slice(&((MAX_MERGE_SEGMENTS as u32 + 1).to_le_bytes()));
        assert_eq!(
            MergedRequest::decode_slice(&raw),
            Err(ProtoError::BadField("seg_count"))
        );
    }

    #[test]
    fn client_message_dispatches_by_magic() {
        let single = request().encode();
        let merged = MergedRequest::new(
            9,
            PageOp::Read,
            7,
            0,
            vec![
                MergedSeg::new(4096, 4096, 0),
                MergedSeg::new(16384, 4096, 0),
            ],
        );
        match ClientMessage::decode_slice(&single).unwrap() {
            ClientMessage::Request(r) => assert_eq!(r, request()),
            other => panic!("expected single request, got {other:?}"),
        }
        match ClientMessage::decode_slice(&merged.encode()).unwrap() {
            ClientMessage::Merged(m) => assert_eq!(m, merged),
            other => panic!("expected merged request, got {other:?}"),
        }
    }

    #[test]
    fn prop_merged_roundtrip() {
        for_cases(256, |rng| {
            let m = random_merged(rng);
            let back = MergedRequest::decode_slice(&m.encode()).unwrap();
            assert_eq!(back, m);
            assert_eq!(back.total_len(), m.total_len());
            assert_eq!(back.max_version(), m.max_version());
        });
    }

    #[test]
    fn prop_merged_truncation_every_cut_errors() {
        for_cases(64, |rng| {
            let raw = random_merged(rng).encode();
            for cut in 0..raw.len() {
                match MergedRequest::decode_slice(&raw[..cut]) {
                    Err(ProtoError::Truncated) | Err(ProtoError::BadField("seg_count")) => {}
                    other => panic!("cut {cut}: {other:?}"),
                }
            }
        });
    }

    #[test]
    fn prop_merged_single_bit_corruption_rejected() {
        for_cases(128, |rng| {
            let m = random_merged(rng);
            let mut raw = m.encode().to_vec();
            let at = rng.below(raw.len() as u64) as usize;
            raw[at] ^= 1u8 << rng.below(8);
            match MergedRequest::decode_slice(&raw) {
                Err(_) => {}
                Ok(decoded) => assert_ne!(decoded, m, "corruption accepted"),
            }
        });
    }

    #[test]
    fn prop_merged_garbage_never_panics() {
        for_cases(256, |rng| {
            let len = rng.below(2 * MERGED_MAX_WIRE_SIZE as u64) as usize;
            let raw: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            let _ = MergedRequest::decode_slice(&raw);
            let _ = ClientMessage::decode_slice(&raw);
        });
    }
}
