//! Wire protocol for the coordinator control plane and the SQL→ML data
//! plane.
//!
//! Every message is a frame: `u32` little-endian payload length, then the
//! payload (first payload byte is the message tag). Strings are `u32`
//! length + UTF-8. Rows travel as numeric frames
//! ([`sqlml_common::codec::encode_numeric_frame`]): one typed,
//! fixed-width run per column.

use std::io::{Read, Write};
use std::ops::{DerefMut, Range};

use bytes::{Buf, BufMut};
use sqlml_common::codec::{self, NumericColumn};
use sqlml_common::{Result, SqlmlError};

/// Maximum accepted frame size (guards against corrupt length prefixes).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Version of the data-plane wire format, carried as the trailing byte of
/// both handshake frames and checked on decode. Any change to the bytes of
/// a data frame or of the handshake must bump it (the golden-bytes tests
/// here and in `sqlml_common::codec` fail until it is).
pub const WIRE_VERSION: u8 = 2;

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
const T_NUMERIC_BATCH: u8 = 0x15;
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
            T_NUMERIC_BATCH => Err(SqlmlError::Transfer(
                "a numeric batch is read with read_data_frame, not as a message".into(),
            )),
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

/// Length prefix + tag byte in front of a data frame's numeric batch.
pub(crate) const FRAME_HEADER_BYTES: usize = 5;

/// Rows `rows` of a partition's `columns` as one data frame (length
/// prefix included) — what the sender queues and a reader takes back as
/// [`DataFrame::Numeric`]. Fails when the frame exceeds the wire limits.
pub fn numeric_frame(columns: &[NumericColumn<'_>], rows: Range<usize>) -> Result<Vec<u8>> {
    let stride: usize = columns.iter().map(NumericColumn::stride).sum();
    let mut frame =
        Vec::with_capacity(FRAME_HEADER_BYTES + 8 + columns.len() + rows.len() * stride);
    frame.put_u32_le(0); // length placeholder
    frame.put_u8(T_NUMERIC_BATCH);
    codec::encode_numeric_frame(columns, rows, &mut frame)?;
    patch_frame_len(&mut frame, 0)?;
    Ok(frame)
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

/// One frame as a data-plane reader takes it: a numeric batch stays the
/// undecoded payload it carries (borrowed from the scratch buffer, for
/// [`codec::NumericFrame::parse`]), so the rows decode straight into the
/// reader's block; every other frame is decoded as usual.
#[derive(Debug)]
pub enum DataFrame<'a> {
    Numeric(&'a [u8]),
    Other(Message),
}

/// [`read_message_with`] that hands a numeric batch over undecoded.
pub fn read_data_frame<'a, R: Read>(
    stream: &mut R,
    scratch: &'a mut Vec<u8>,
) -> Result<DataFrame<'a>> {
    read_payload(stream, scratch)?;
    match scratch.split_first() {
        Some((&T_NUMERIC_BATCH, batch)) => Ok(DataFrame::Numeric(batch)),
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
    use sqlml_common::codec::NumericFrame;
    use sqlml_common::SplitMix64;

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
            Message::DataEnd {
                total_rows: 1_000_000,
            },
            Message::Abort {
                reason: "injected".into(),
            },
        ]
    }

    /// The fixed batch the golden-bytes test pins: the transformed carts
    /// shape (age, an indicator with a NULL, amount), three rows.
    fn golden_frame() -> Vec<u8> {
        let columns = [
            NumericColumn::int(&[57, 300, -2], None),
            NumericColumn::int(&[1, 0, 0], Some(&[true, true, false])),
            NumericColumn::double(&[103.25, -0.5, 0.0][..], None),
        ];
        numeric_frame(&columns, 0..3).unwrap()
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
        assert_eq!(WIRE_VERSION, 2);
        #[rustfmt::skip]
        let batch: &[u8] = &[
            48, 0, 0, 0, 0x15,                       // frame length, batch tag
            3, 0, 0, 0, 3, 0, 0, 0,                  // 3 rows, 3 columns
            0x02, 57, 0, 0x2C, 0x01, 0xFE, 0xFF,     // i16 run: 57, 300, -2
            0x81, 1, 1, 0, 1, 0, 0,                  // i8 run, validity first
            0x10,                                    // f64 run
            0, 0, 0, 0, 0, 0xD0, 0x59, 0x40,         // 103.25
            0, 0, 0, 0, 0, 0, 0xE0, 0xBF,            // -0.5
            0, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(golden_frame(), batch);

        #[rustfmt::skip]
        let hello: &[u8] = &[
            18, 0, 0, 0, 0x10,
            42, 0, 0, 0, 0, 0, 0, 0,                 // transfer id
            1, 0, 0, 0,                              // split index
            2, 0, 0, 0,                              // attempt
            2,                                       // WIRE_VERSION
        ];
        let frame = Message::DataHello {
            transfer_id: 42,
            split_index: 1,
            attempt: 2,
        }
        .encode()
        .unwrap();
        assert_eq!(frame, hello);

        let start: &[u8] = &[6, 0, 0, 0, 0x11, 2, 0, 0, 0, 2];
        assert_eq!(Message::DataStart { attempt: 2 }.encode().unwrap(), start);
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
            for version in [0u8, WIRE_VERSION - 1, WIRE_VERSION + 1, 0xEE] {
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
    /// kind and of the golden numeric batch decode to `Ok` or a typed
    /// error. On the batch the mutations know its structure — every cut,
    /// every value of every header and run-code byte, counts whose
    /// product overflows, a trailing byte — and each is an error (or a
    /// frame of the golden's exact size), never a write to a block.
    #[test]
    fn decoders_never_panic_on_corrupt_input() {
        // A panic in here fails the test; either outcome is acceptable.
        let check = |bytes: &[u8]| {
            let _ = Message::decode(bytes);
            let _ = codec::decode_compact_batch(bytes);
            NumericFrame::parse(bytes)
                .map(|f| (f.rows(), f.cols()))
                .ok()
        };
        let mut rng = SplitMix64::new(0xDEC0DE);
        for _ in 0..2_000 {
            let len = rng.next_below(64);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64().to_le_bytes()[0]).collect();
            check(&bytes);
        }
        let frames = sample_messages().into_iter().map(|m| m.encode().unwrap());
        for frame in frames.chain([golden_frame()]) {
            // With the tag byte (a message) and without it (for the
            // numeric batch, its bare payload).
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

        let golden = golden_frame();
        let batch = &golden[FRAME_HEADER_BYTES..];
        assert_eq!(check(batch), Some((3, 3)));
        for cut in 0..batch.len() {
            assert_eq!(check(&batch[..cut]), None, "cut at {cut}");
        }
        let mut longer = batch.to_vec();
        longer.push(0);
        assert_eq!(check(&longer), None, "one trailing byte");
        // The header (two counts): any other value is an error. A run
        // code (bytes 8, 15, 22): an error unless the new code gives its
        // run the same byte length — 0x02 for 0x81 and back, say; types
        // are not checksummed — and then a frame of the same shape.
        let run_len = |code: u8| {
            let width = match code & 0x7F {
                w @ (1 | 2 | 4 | 8) => w,
                0x10 => 8,
                0x20 => 1,
                _ => return None,
            };
            Some(3 * usize::from(width) + if code & 0x80 == 0 { 0 } else { 3 })
        };
        let mut mutated = batch.to_vec();
        for pos in [0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 22] {
            for value in (0..=u8::MAX).filter(|v| *v != batch[pos]) {
                mutated[pos] = value;
                let same_len = pos >= 8 && run_len(value) == run_len(batch[pos]);
                let expect = same_len.then_some((3, 3));
                assert_eq!(check(&mutated), expect, "byte {pos} = {value:#04x}");
            }
            mutated[pos] = batch[pos];
        }
        // rows × width and rows × cols past usize / past the payload.
        for (rows, cols) in [
            (u32::MAX, u32::MAX),
            (u32::MAX, 1),
            (1 << 31, 3),
            (0, u32::MAX),
        ] {
            mutated[..4].copy_from_slice(&rows.to_le_bytes());
            mutated[4..8].copy_from_slice(&cols.to_le_bytes());
            assert_eq!(check(&mutated), None, "{rows} rows × {cols} columns");
        }
    }

    #[test]
    fn read_data_frame_leaves_the_batch_undecoded_and_reuses_scratch() {
        let mut wire = Vec::new();
        Message::DataStart { attempt: 1 }
            .encode_into(&mut wire)
            .unwrap();
        wire.extend(golden_frame());
        Message::DataEnd { total_rows: 3 }
            .encode_into(&mut wire)
            .unwrap();
        let mut cursor = std::io::Cursor::new(wire.clone());
        let mut scratch = Vec::new();
        let start = read_data_frame(&mut cursor, &mut scratch).unwrap();
        assert!(matches!(
            start,
            DataFrame::Other(Message::DataStart { attempt: 1 })
        ));
        match read_data_frame(&mut cursor, &mut scratch).unwrap() {
            DataFrame::Numeric(batch) => {
                assert_eq!(FRAME_HEADER_BYTES + batch.len(), golden_frame().len());
                let frame = NumericFrame::parse(batch).unwrap();
                assert_eq!((frame.rows(), frame.cols()), (3, 3));
            }
            other => panic!("{other:?}"),
        }
        let end = read_data_frame(&mut cursor, &mut scratch).unwrap();
        assert!(matches!(
            end,
            DataFrame::Other(Message::DataEnd { total_rows: 3 })
        ));
        // The control plane has no use for a batch: it is an error there,
        // not a guess.
        let mut cursor = std::io::Cursor::new(wire);
        assert!(read_message_with(&mut cursor, &mut scratch).is_ok());
        let err = read_message_with(&mut cursor, &mut scratch).unwrap_err();
        assert!(err.to_string().contains("read_data_frame"), "{err}");
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
