//! Wire protocol for the coordinator control plane and the SQL→ML data
//! plane.
//!
//! Every message is a frame: `u32` little-endian payload length, then the
//! payload (first payload byte is the message tag). Strings are `u32`
//! length + UTF-8. Rows travel as compact batches
//! ([`sqlml_common::codec`]): varints plus a per-frame string dictionary.

use std::io::{Read, Write};
use std::ops::DerefMut;

use bytes::{Buf, BufMut};
use sqlml_common::codec::{CompactBatchEncoder, DictStats};
use sqlml_common::{codec, Result, Row, SqlmlError};

/// Maximum accepted frame size (guards against corrupt length prefixes).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Version of the data-plane wire format, carried as the trailing byte of
/// both handshake frames and checked on decode. Any change to the bytes of
/// a `RowBatch` frame or of the handshake must bump it (the golden-bytes
/// tests below fail until it is).
pub const WIRE_VERSION: u8 = 1;

/// Control- and data-plane messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// SQL worker → coordinator (step 1).
    RegisterSql {
        transfer_id: u64,
        worker: u32,
        total_workers: u32,
        data_addr: String,
        node: String,
        command: String,
        splits_per_worker: u32,
    },
    /// Coordinator → SQL worker: registration accepted; stream to
    /// `splits_per_worker` readers.
    SqlAck { splits_per_worker: u32 },
    /// ML InputFormat → coordinator (step 3).
    GetSplits { transfer_id: u64 },
    /// Coordinator → ML InputFormat: the split table.
    Splits { entries: Vec<SplitEntry> },
    /// ML worker → coordinator (step 4).
    RegisterMl {
        transfer_id: u64,
        ml_worker: u32,
        node: String,
    },
    /// Coordinator → ML worker.
    MlAck,
    /// Reader → SQL worker data listener (step 7). Carries
    /// [`WIRE_VERSION`] on the wire.
    DataHello {
        transfer_id: u64,
        split_index: u32,
        attempt: u32,
    },
    /// SQL worker → reader: stream (re)starting. Carries [`WIRE_VERSION`]
    /// on the wire.
    DataStart { attempt: u32 },
    /// SQL worker → reader: a batch of rows (one compact batch).
    RowBatch { rows: Vec<Row> },
    /// SQL worker → reader: end of stream with the expected row count.
    DataEnd { total_rows: u64 },
    /// Either side → peer: abort current attempt (used by the restart
    /// protocol and fault injection).
    Abort { reason: String },
}

/// One entry of the split table (steps 3+5 combined: the split already
/// names its SQL worker's address, which is how readers get matched).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitEntry {
    pub sql_worker: u32,
    /// Index of this split within its SQL worker's group (0..k).
    pub index_in_group: u32,
    pub data_addr: String,
    /// Preferred location: the SQL worker's node.
    pub location: String,
}

const T_REGISTER_SQL: u8 = 0x01;
const T_SQL_ACK: u8 = 0x02;
const T_GET_SPLITS: u8 = 0x03;
const T_SPLITS: u8 = 0x04;
const T_REGISTER_ML: u8 = 0x05;
const T_ML_ACK: u8 = 0x06;
const T_DATA_HELLO: u8 = 0x10;
const T_DATA_START: u8 = 0x11;
const T_DATA_END: u8 = 0x13;
const T_ROW_BATCH: u8 = 0x14;
const T_ABORT: u8 = 0x1F;

/// Byte sinks a frame can be encoded into: append via [`BufMut`], then
/// patch the length prefix in place via `DerefMut<[u8]>`. Covers both
/// `Vec<u8>` and a reusable [`bytes::BytesMut`] scratch buffer.
pub trait FrameSink: BufMut + DerefMut<Target = [u8]> {}
impl<B: BufMut + DerefMut<Target = [u8]>> FrameSink for B {}

fn put_string<B: BufMut>(buf: &mut B, s: &str) -> Result<()> {
    buf.put_u32_le(sqlml_common::wire_u32(s.len(), "string byte length")?);
    buf.put_slice(s.as_bytes());
    Ok(())
}

fn get_string(buf: &mut &[u8]) -> Result<String> {
    if buf.len() < 4 {
        return Err(corrupt("string length"));
    }
    let len = buf.get_u32_le() as usize;
    if buf.len() < len {
        return Err(corrupt("string body"));
    }
    let s = String::from_utf8(buf[..len].to_vec())
        .map_err(|e| SqlmlError::Transfer(format!("invalid utf8 on wire: {e}")))?;
    buf.advance(len);
    Ok(s)
}

fn corrupt(what: &str) -> SqlmlError {
    SqlmlError::Transfer(format!("corrupt frame: truncated {what}"))
}

impl Message {
    /// Serialize into a frame (length prefix included). Fails when a
    /// string, batch, or the whole frame exceeds its wire-length prefix.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(64);
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Append the frame encoding of `self` to a reusable sink without
    /// allocating: the hot path clears and reuses one scratch buffer per
    /// connection. On error the sink's contents past its original length
    /// are unspecified; callers must discard (or truncate) the buffer.
    pub fn encode_into<B: FrameSink>(&self, buf: &mut B) -> Result<()> {
        let frame_start = buf.len();
        buf.put_u32_le(0); // length placeholder
        match self {
            Message::RegisterSql {
                transfer_id,
                worker,
                total_workers,
                data_addr,
                node,
                command,
                splits_per_worker,
            } => {
                buf.put_u8(T_REGISTER_SQL);
                buf.put_u64_le(*transfer_id);
                buf.put_u32_le(*worker);
                buf.put_u32_le(*total_workers);
                put_string(buf, data_addr)?;
                put_string(buf, node)?;
                put_string(buf, command)?;
                buf.put_u32_le(*splits_per_worker);
            }
            Message::SqlAck { splits_per_worker } => {
                buf.put_u8(T_SQL_ACK);
                buf.put_u32_le(*splits_per_worker);
            }
            Message::GetSplits { transfer_id } => {
                buf.put_u8(T_GET_SPLITS);
                buf.put_u64_le(*transfer_id);
            }
            Message::Splits { entries } => {
                buf.put_u8(T_SPLITS);
                buf.put_u32_le(sqlml_common::wire_u32(entries.len(), "split count")?);
                for e in entries {
                    buf.put_u32_le(e.sql_worker);
                    buf.put_u32_le(e.index_in_group);
                    put_string(buf, &e.data_addr)?;
                    put_string(buf, &e.location)?;
                }
            }
            Message::RegisterMl {
                transfer_id,
                ml_worker,
                node,
            } => {
                buf.put_u8(T_REGISTER_ML);
                buf.put_u64_le(*transfer_id);
                buf.put_u32_le(*ml_worker);
                put_string(buf, node)?;
            }
            Message::MlAck => {
                buf.put_u8(T_ML_ACK);
            }
            Message::DataHello {
                transfer_id,
                split_index,
                attempt,
            } => {
                buf.put_u8(T_DATA_HELLO);
                buf.put_u64_le(*transfer_id);
                buf.put_u32_le(*split_index);
                buf.put_u32_le(*attempt);
                buf.put_u8(WIRE_VERSION);
            }
            Message::DataStart { attempt } => {
                buf.put_u8(T_DATA_START);
                buf.put_u32_le(*attempt);
                buf.put_u8(WIRE_VERSION);
            }
            Message::RowBatch { rows } => {
                buf.put_u8(T_ROW_BATCH);
                codec::encode_compact_batch(rows, buf)?;
            }
            Message::DataEnd { total_rows } => {
                buf.put_u8(T_DATA_END);
                buf.put_u64_le(*total_rows);
            }
            Message::Abort { reason } => {
                buf.put_u8(T_ABORT);
                put_string(buf, reason)?;
            }
        }
        patch_frame_len(buf, frame_start)
    }

    /// Decode a frame payload (without the length prefix).
    pub fn decode(mut payload: &[u8]) -> Result<Message> {
        if payload.is_empty() {
            return Err(corrupt("tag"));
        }
        let tag = payload.get_u8();
        let need = |p: &[u8], n: usize, what: &str| -> Result<()> {
            if p.len() < n {
                Err(corrupt(what))
            } else {
                Ok(())
            }
        };
        match tag {
            T_REGISTER_SQL => {
                need(payload, 16, "register header")?;
                let transfer_id = payload.get_u64_le();
                let worker = payload.get_u32_le();
                let total_workers = payload.get_u32_le();
                let data_addr = get_string(&mut payload)?;
                let node = get_string(&mut payload)?;
                let command = get_string(&mut payload)?;
                need(payload, 4, "k")?;
                let splits_per_worker = payload.get_u32_le();
                Ok(Message::RegisterSql {
                    transfer_id,
                    worker,
                    total_workers,
                    data_addr,
                    node,
                    command,
                    splits_per_worker,
                })
            }
            T_SQL_ACK => {
                need(payload, 4, "ack")?;
                Ok(Message::SqlAck {
                    splits_per_worker: payload.get_u32_le(),
                })
            }
            T_GET_SPLITS => {
                need(payload, 8, "transfer id")?;
                Ok(Message::GetSplits {
                    transfer_id: payload.get_u64_le(),
                })
            }
            T_SPLITS => {
                need(payload, 4, "split count")?;
                let n = payload.get_u32_le() as usize;
                // A corrupt count must not size the allocation: every
                // entry occupies at least its four u32 fields.
                let mut entries = Vec::with_capacity(n.min(payload.len() / 16));
                for _ in 0..n {
                    need(payload, 8, "split header")?;
                    let sql_worker = payload.get_u32_le();
                    let index_in_group = payload.get_u32_le();
                    let data_addr = get_string(&mut payload)?;
                    let location = get_string(&mut payload)?;
                    entries.push(SplitEntry {
                        sql_worker,
                        index_in_group,
                        data_addr,
                        location,
                    });
                }
                Ok(Message::Splits { entries })
            }
            T_REGISTER_ML => {
                need(payload, 12, "ml header")?;
                let transfer_id = payload.get_u64_le();
                let ml_worker = payload.get_u32_le();
                let node = get_string(&mut payload)?;
                Ok(Message::RegisterMl {
                    transfer_id,
                    ml_worker,
                    node,
                })
            }
            T_ML_ACK => Ok(Message::MlAck),
            T_DATA_HELLO => {
                need(payload, 16, "hello")?;
                let transfer_id = payload.get_u64_le();
                let split_index = payload.get_u32_le();
                let attempt = payload.get_u32_le();
                check_wire_version(payload)?;
                Ok(Message::DataHello {
                    transfer_id,
                    split_index,
                    attempt,
                })
            }
            T_DATA_START => {
                need(payload, 4, "start")?;
                let attempt = payload.get_u32_le();
                check_wire_version(payload)?;
                Ok(Message::DataStart { attempt })
            }
            T_ROW_BATCH => Ok(Message::RowBatch {
                rows: codec::decode_compact_batch(payload)?,
            }),
            T_DATA_END => {
                need(payload, 8, "end")?;
                Ok(Message::DataEnd {
                    total_rows: payload.get_u64_le(),
                })
            }
            T_ABORT => Ok(Message::Abort {
                reason: get_string(&mut payload)?,
            }),
            other => Err(SqlmlError::Transfer(format!(
                "unknown frame tag {other:#x}"
            ))),
        }
    }
}

/// Check the trailing version byte of a handshake frame. A missing or
/// unknown version is an error, never a guess at what the peer speaks.
fn check_wire_version(rest: &[u8]) -> Result<()> {
    match rest.first() {
        Some(&WIRE_VERSION) => Ok(()),
        Some(other) => Err(SqlmlError::Transfer(format!(
            "unsupported wire version {other} (this build speaks {WIRE_VERSION})"
        ))),
        None => Err(corrupt("wire version")),
    }
}

/// Patch the `u32` length prefix of the frame starting at `frame_start`.
/// Fails when the payload exceeds [`MAX_FRAME`] — a frame the receive
/// side would reject anyway must not be put on the wire.
fn patch_frame_len<B: FrameSink>(buf: &mut B, frame_start: usize) -> Result<()> {
    let payload = buf.len() - frame_start - 4;
    if payload > MAX_FRAME {
        return Err(SqlmlError::FrameTooLarge(format!(
            "frame payload of {payload} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )));
    }
    let len = sqlml_common::wire_u32(payload, "frame payload length")?;
    buf[frame_start..frame_start + 4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Builds `RowBatch` frames row by row — the sender hot path — so the
/// sender can cut a frame when it reaches its byte-size target
/// ([`Self::frame_len`]) without cloning rows or re-encoding. A thin frame header around a
/// [`CompactBatchEncoder`]: the produced bytes are identical to
/// `Message::RowBatch { rows }.encode()` over the same rows.
#[derive(Debug, Default)]
pub struct RowBatchFrameBuilder {
    encoder: CompactBatchEncoder,
}

/// Length prefix + tag byte in front of a `RowBatch`'s compact batch.
pub(crate) const FRAME_HEADER_BYTES: usize = 5;

impl RowBatchFrameBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one row to the frame under construction. On error the row
    /// is rolled back out of the frame and the error is returned for the
    /// caller to surface.
    pub fn push_row(&mut self, row: &Row) -> Result<()> {
        self.encoder.push_row(row)
    }

    /// Append one row written cell by cell into the frame's encoder
    /// (a column batch's `encode_row`): the bytes [`Self::push_row`]
    /// appends for the same row, rolled back the same way on error.
    pub fn push_with(
        &mut self,
        row: impl FnOnce(&mut CompactBatchEncoder) -> Result<()>,
    ) -> Result<()> {
        row(&mut self.encoder)
    }

    /// Rows in the frame under construction.
    pub fn rows(&self) -> usize {
        self.encoder.row_count()
    }

    /// Wire size (including the length prefix) of the frame so far.
    pub fn frame_len(&self) -> usize {
        FRAME_HEADER_BYTES + self.encoder.wire_len()
    }

    pub fn is_empty(&self) -> bool {
        self.encoder.is_empty()
    }

    /// Lifetime dictionary-compression counters.
    pub fn dict_stats(&self) -> DictStats {
        self.encoder.stats()
    }

    /// Return the finished frame as an owned chunk and reset for the next
    /// frame. Fails (the builder is reset either way) when the accumulated
    /// frame exceeds the wire limits.
    pub fn take_frame(&mut self) -> Result<Vec<u8>> {
        let mut frame = Vec::with_capacity(self.frame_len());
        frame.put_u32_le(0); // length placeholder
        frame.put_u8(T_ROW_BATCH);
        self.encoder.finish_into(&mut frame);
        patch_frame_len(&mut frame, 0)?;
        Ok(frame)
    }
}

/// Write one message as a frame to any byte sink (a raw `TcpStream` or a
/// `BufWriter` around one).
pub fn write_message<W: Write>(stream: &mut W, msg: &Message) -> Result<()> {
    stream
        .write_all(&msg.encode()?)
        .map_err(|e| SqlmlError::Transfer(format!("write failed: {e}")))
}

/// Read one message frame from any byte source.
pub fn read_message<R: Read>(stream: &mut R) -> Result<Message> {
    let mut scratch = Vec::new();
    read_message_with(stream, &mut scratch)
}

/// Read one message frame, reusing `scratch` for the payload so a long
/// stream of frames performs no per-frame buffer allocation.
pub fn read_message_with<R: Read>(stream: &mut R, scratch: &mut Vec<u8>) -> Result<Message> {
    read_payload(stream, scratch)?;
    Message::decode(scratch)
}

/// One frame as a data-plane reader takes it: a `RowBatch` stays the
/// undecoded compact batch it carries (borrowed from the scratch buffer),
/// so the reader chooses what the rows decode into; every other frame is
/// decoded as usual.
#[derive(Debug)]
pub enum DataFrame<'a> {
    RowBatch(&'a [u8]),
    Other(Message),
}

/// [`read_message_with`] that leaves a `RowBatch` payload undecoded.
pub fn read_data_frame<'a, R: Read>(
    stream: &mut R,
    scratch: &'a mut Vec<u8>,
) -> Result<DataFrame<'a>> {
    read_payload(stream, scratch)?;
    match scratch.split_first() {
        Some((&T_ROW_BATCH, batch)) => Ok(DataFrame::RowBatch(batch)),
        _ => Message::decode(scratch).map(DataFrame::Other),
    }
}

/// Read one frame's payload (tag byte first) into `scratch`.
fn read_payload<R: Read>(stream: &mut R, scratch: &mut Vec<u8>) -> Result<()> {
    let mut len_buf = [0u8; 4];
    stream
        .read_exact(&mut len_buf)
        .map_err(|e| SqlmlError::Transfer(format!("read failed: {e}")))?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(SqlmlError::Transfer(format!("bad frame length {len}")));
    }
    scratch.clear();
    scratch.resize(len, 0);
    stream
        .read_exact(scratch)
        .map_err(|e| SqlmlError::Transfer(format!("read failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::row;
    use sqlml_common::{SplitMix64, Value};

    /// One valid instance of every message kind.
    fn sample_messages() -> Vec<Message> {
        vec![
            Message::RegisterSql {
                transfer_id: 42,
                worker: 3,
                total_workers: 4,
                data_addr: "127.0.0.1:5555".into(),
                node: "node-3".into(),
                command: "svm label=3 iterations=10".into(),
                splits_per_worker: 2,
            },
            Message::SqlAck {
                splits_per_worker: 2,
            },
            Message::GetSplits { transfer_id: 42 },
            Message::Splits {
                entries: vec![
                    SplitEntry {
                        sql_worker: 0,
                        index_in_group: 0,
                        data_addr: "127.0.0.1:1".into(),
                        location: "node-0".into(),
                    },
                    SplitEntry {
                        sql_worker: 1,
                        index_in_group: 1,
                        data_addr: "127.0.0.1:2".into(),
                        location: "node-1".into(),
                    },
                ],
            },
            Message::RegisterMl {
                transfer_id: 42,
                ml_worker: 5,
                node: "node-1".into(),
            },
            Message::MlAck,
            Message::DataHello {
                transfer_id: 42,
                split_index: 1,
                attempt: 2,
            },
            Message::DataStart { attempt: 2 },
            Message::RowBatch { rows: mixed_rows() },
            Message::DataEnd {
                total_rows: 1_000_000,
            },
            Message::Abort {
                reason: "injected".into(),
            },
        ]
    }

    /// The fixed batch the golden-bytes test pins: every value type, a
    /// repeated string (dictionary hit) and a two-byte varint.
    fn mixed_rows() -> Vec<Row> {
        vec![
            row![57i64, "F", 103.25, "Yes"],
            Row::new(vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-2),
                Value::Str("F".into()),
            ]),
            row![300i64, "M", -0.5, "Yes"],
        ]
    }

    #[test]
    fn all_message_kinds_round_trip() {
        for msg in sample_messages() {
            let frame = msg.encode().unwrap();
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(len, frame.len() - 4);
            assert_eq!(Message::decode(&frame[4..]).unwrap(), msg);
        }
    }

    /// The wire format, byte for byte. If this test fails the format
    /// changed: bump [`WIRE_VERSION`] and re-pin.
    #[test]
    fn golden_bytes_pin_the_wire_format() {
        assert_eq!(WIRE_VERSION, 1);
        #[rustfmt::skip]
        let batch: &[u8] = &[
            52, 0, 0, 0, 0x14,                       // frame length, RowBatch tag
            3,                                       // dictionary: 3 entries
            1, b'F', 3, b'Y', b'e', b's', 1, b'M',
            3,                                       // 3 rows
            4, 2, 114, 4, 0,                         // 57 (zigzag 114), "F"
            3, 0, 0, 0, 0, 0, 0xD0, 0x59, 0x40,      // 103.25
            4, 1,                                    // "Yes"
            4, 0, 1, 1, 2, 3, 4, 0,                  // NULL, true, -2, "F"
            4, 2, 0xD8, 0x04, 4, 2,                  // 300 (zigzag 600), "M"
            3, 0, 0, 0, 0, 0, 0, 0xE0, 0xBF,         // -0.5
            4, 1,                                    // "Yes"
        ];
        let frame = Message::RowBatch { rows: mixed_rows() }.encode().unwrap();
        assert_eq!(frame, batch);

        #[rustfmt::skip]
        let hello: &[u8] = &[
            18, 0, 0, 0, 0x10,
            42, 0, 0, 0, 0, 0, 0, 0,                 // transfer id
            1, 0, 0, 0,                              // split index
            2, 0, 0, 0,                              // attempt
            1,                                       // WIRE_VERSION
        ];
        let frame = Message::DataHello {
            transfer_id: 42,
            split_index: 1,
            attempt: 2,
        }
        .encode()
        .unwrap();
        assert_eq!(frame, hello);

        let start: &[u8] = &[6, 0, 0, 0, 0x11, 2, 0, 0, 0, 1];
        assert_eq!(Message::DataStart { attempt: 2 }.encode().unwrap(), start);
    }

    #[test]
    fn frame_builder_matches_message_encoding_and_is_reusable() {
        let rows = mixed_rows();
        let expect = Message::RowBatch { rows: rows.clone() }.encode().unwrap();
        let mut builder = RowBatchFrameBuilder::new();
        assert!(builder.is_empty());
        for r in &rows {
            builder.push_row(r).unwrap();
        }
        assert_eq!(builder.rows(), 3);
        assert_eq!(builder.frame_len(), expect.len());
        assert_eq!(builder.take_frame().unwrap(), expect);
        // "F" and "Yes" each repeat once: three misses, two hits.
        assert_eq!(builder.dict_stats().misses, 3);
        assert_eq!(builder.dict_stats().hits, 2);
        // Builder resets after take_frame and produces a fresh frame.
        assert!(builder.is_empty());
        builder.push_row(&rows[0]).unwrap();
        let single = builder.take_frame().unwrap();
        match Message::decode(&single[4..]).unwrap() {
            Message::RowBatch { rows: got } => assert_eq!(got, vec![rows[0].clone()]),
            other => panic!("expected RowBatch, got {other:?}"),
        }
    }

    #[test]
    fn handshake_without_a_known_wire_version_is_rejected() {
        let hello = Message::DataHello {
            transfer_id: 42,
            split_index: 1,
            attempt: 2,
        }
        .encode()
        .unwrap();
        let start = Message::DataStart { attempt: 3 }.encode().unwrap();
        for frame in [hello, start] {
            let payload = &frame[4..];
            // Version byte missing altogether.
            let err = Message::decode(&payload[..payload.len() - 1]).unwrap_err();
            assert!(matches!(err, SqlmlError::Transfer(_)), "{err}");
            // Unknown versions, including the one below ours.
            for version in [0u8, WIRE_VERSION + 1, 0xEE] {
                let mut bad = payload.to_vec();
                *bad.last_mut().unwrap() = version;
                let err = Message::decode(&bad).unwrap_err();
                assert!(matches!(err, SqlmlError::Transfer(_)), "{err}");
                assert!(err.to_string().contains("wire version"), "{err}");
            }
        }
    }

    /// Bytes off a socket must never panic the decoder: random strings,
    /// every truncation and every single-byte mutation of every message
    /// kind decode to `Ok` or a typed error.
    #[test]
    fn decoders_never_panic_on_corrupt_input() {
        // A panic in here fails the test; either outcome is acceptable.
        let check = |bytes: &[u8]| {
            let _ = Message::decode(bytes);
            let _ = codec::decode_compact_batch(bytes);
            let _ = codec::decode_compact_batch_f64(bytes, 0, |_| Ok(()));
        };
        let mut rng = SplitMix64::new(0xDEC0DE);
        for _ in 0..2_000 {
            let len = rng.next_below(64);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64().to_le_bytes()[0]).collect();
            check(&bytes);
        }
        for msg in sample_messages() {
            let frame = msg.encode().unwrap();
            // With the tag byte (a message) and without it (for RowBatch,
            // the bare compact batch).
            for payload in [&frame[4..], &frame[5..]] {
                for cut in 0..payload.len() {
                    check(&payload[..cut]);
                }
                let mut mutated = payload.to_vec();
                for pos in 0..payload.len() {
                    for value in 0..=u8::MAX {
                        mutated[pos] = value;
                        check(&mutated);
                    }
                    mutated[pos] = payload[pos];
                }
            }
        }
    }

    #[test]
    fn read_message_with_reuses_scratch_across_frames() {
        let mut wire = Vec::new();
        let msgs = [
            Message::DataStart { attempt: 1 },
            Message::RowBatch {
                rows: vec![row![9i64, "z"]],
            },
            Message::DataEnd { total_rows: 1 },
        ];
        for m in &msgs {
            m.encode_into(&mut wire).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire.clone());
        let mut scratch = Vec::new();
        for m in &msgs {
            let got = read_message_with(&mut cursor, &mut scratch).unwrap();
            assert_eq!(&got, m);
        }
        // The data-plane read hands the same frames over with the batch
        // left as bytes.
        let mut cursor = std::io::Cursor::new(wire);
        for m in &msgs {
            match (read_data_frame(&mut cursor, &mut scratch).unwrap(), m) {
                (DataFrame::RowBatch(batch), Message::RowBatch { rows }) => {
                    assert_eq!(&codec::decode_compact_batch(batch).unwrap(), rows);
                    let frame = m.encode().unwrap();
                    assert_eq!(FRAME_HEADER_BYTES + batch.len(), frame.len());
                }
                (DataFrame::Other(got), m) => assert_eq!(&got, m),
                (got, m) => panic!("{got:?} for {m:?}"),
            }
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let frame = Message::GetSplits { transfer_id: 9 }.encode().unwrap();
        for cut in 1..frame.len() - 4 {
            assert!(Message::decode(&frame[4..4 + cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(Message::decode(&[0xEE]).is_err());
        assert!(Message::decode(&[]).is_err());
    }
}
