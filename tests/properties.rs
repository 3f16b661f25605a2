//! Randomized tests of the invariants DESIGN.md calls out.
//!
//! These were property-based (proptest) in the seed; the offline build
//! environment has no crate registry, so they now drive the same
//! invariants from the workspace's own deterministic [`SplitMix64`]
//! generator. Every case is seeded, so failures reproduce exactly.

use sqlml_common::codec;
use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{Row, SplitMix64, Value};
use sqlml_sqlengine::ast::CmpOp;
use sqlml_sqlengine::{Batch, Engine, EngineConfig};
use sqlml_transform::{InSqlTransformer, RecodeMap, TransformSpec};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn random_string(rng: &mut SplitMix64, max_len: usize) -> String {
    let len = rng.next_below(max_len as u64 + 1) as usize;
    (0..len)
        .map(|_| {
            // Bias toward the codec's and the lexer's troublemakers:
            // delimiter, escapes, newlines and carriage returns, NUL,
            // some non-ASCII, and the SQL string quote.
            match rng.next_below(9) {
                0 => '|',
                1 => '\\',
                2 => '\n',
                3 => 'ü',
                4 => '\0',
                5 => '\'',
                6 => '\r',
                _ => (b'a' + rng.next_below(26) as u8) as char,
            }
        })
        .collect()
}

fn random_value(rng: &mut SplitMix64) -> Value {
    match rng.next_below(5) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Int(rng.next_u64() as i64),
        // Finite doubles only: NaN equality is bit-exact by design but a
        // NaN literal can't round-trip through the text grammar.
        3 => Value::Double((rng.next_f64() - 0.5) * 2e12),
        _ => Value::Str(random_string(rng, 12).into()),
    }
}

fn random_row(rng: &mut SplitMix64) -> Row {
    let n = rng.next_below(6) as usize;
    Row::new((0..n).map(|_| random_value(rng)).collect())
}

/// Categorical-only rows drawn from a bounded vocabulary.
fn random_categorical_rows(rng: &mut SplitMix64) -> Vec<Vec<String>> {
    const VOCAB: [&str; 8] = ["a", "b", "c", "delta", "Echo", "f-f", "", "ünïcode"];
    let n = 1 + rng.next_below(119) as usize;
    (0..n)
        .map(|_| (0..2).map(|_| rng.choose(&VOCAB).to_string()).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// Codec invariants
// ---------------------------------------------------------------------------

#[test]
fn compact_codec_round_trips_any_single_row() {
    let mut rng = SplitMix64::new(0xC0DEC);
    for _ in 0..256 {
        let row = random_row(&mut rng);
        let mut buf = Vec::new();
        codec::encode_compact_batch(std::slice::from_ref(&row), &mut buf).unwrap();
        assert_eq!(codec::decode_compact_batch(&buf).unwrap(), vec![row]);
    }
}

#[test]
fn compact_batch_codec_round_trips_any_rows() {
    let mut rng = SplitMix64::new(0xBA7C4);
    for _ in 0..64 {
        let n = rng.next_below(40) as usize;
        let rows: Vec<Row> = (0..n).map(|_| random_row(&mut rng)).collect();
        let mut buf = Vec::new();
        codec::encode_compact_batch(&rows, &mut buf).unwrap();
        let back = codec::decode_compact_batch(&buf).unwrap();
        assert_eq!(back, rows);
    }
}

/// A numeric cell, biased toward the values a cast or a bit copy could
/// get wrong.
fn random_numeric_value(rng: &mut SplitMix64) -> Value {
    const INTS: [i64; 6] = [i64::MIN, i64::MAX, 0, -1, (1 << 53) + 1, -(1 << 53) - 1];
    const DOUBLES: [f64; 7] = [
        f64::NAN,
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MAX,
    ];
    match rng.next_below(8) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Int(*rng.choose(&INTS)),
        3 => Value::Int(rng.next_u64() as i64),
        4 => Value::Int(rng.range_i64(-200, 200)),
        5 => Value::Double(*rng.choose(&DOUBLES)),
        // Any bit pattern, NaN payloads and subnormals included.
        6 => Value::Double(f64::from_bits(rng.next_u64())),
        _ => Value::Double((rng.next_f64() - 0.5) * 2e6),
    }
}

/// One numeric column of `n` cells. Integers sit at a width boundary
/// (every value of a column within one of the four ranges, the range's
/// own ends included), doubles are any bit pattern, and one kind in five
/// mixes numeric types in one column (a `Column::Mixed`). `nulls` is the
/// chance of a NULL per cell.
fn random_numeric_column(rng: &mut SplitMix64, n: usize, nulls: f64) -> (DataType, Vec<Value>) {
    const RANGES: [(i64, i64); 4] = [
        (i8::MIN as i64, i8::MAX as i64),
        (i16::MIN as i64, i16::MAX as i64),
        (i32::MIN as i64, i32::MAX as i64),
        (i64::MIN, i64::MAX),
    ];
    let kind = rng.next_below(5);
    let (lo, hi) = *rng.choose(&RANGES);
    let cell = |rng: &mut SplitMix64| match kind {
        0 | 1 => Value::Int(match rng.next_below(4) {
            0 => lo,
            1 => hi,
            // One past the next narrower range, where there is one.
            2 => (hi / 256 + 1).min(hi),
            _ if lo == i64::MIN => rng.next_u64() as i64,
            _ => rng.range_i64(lo, hi),
        }),
        2 => match random_numeric_value(rng) {
            Value::Double(d) => Value::Double(d),
            _ => Value::Double(f64::from_bits(rng.next_u64())),
        },
        3 => Value::Bool(rng.chance(0.5)),
        _ => random_numeric_value(rng),
    };
    let ty = [
        DataType::Int,
        DataType::Int,
        DataType::Double,
        DataType::Bool,
        DataType::Int,
    ];
    let cells = (0..n).map(|_| match rng.chance(nulls) {
        true => Value::Null,
        false => cell(rng),
    });
    (ty[kind as usize], cells.collect())
}

/// Every row of a block, bit for bit: (label, features).
fn block_bits(block: sqlml_mlengine::PartitionBlock) -> Vec<(u64, Vec<u64>)> {
    let data = sqlml_mlengine::Dataset::from_blocks(vec![block]).unwrap();
    let bits = |p: sqlml_mlengine::PointRef| {
        let features = p.features.iter().map(|v| v.to_bits()).collect();
        (p.label.to_bits(), features)
    };
    data.iter().map(bits).collect()
}

/// The SQL→ML hand-off as a property: a partition's columns, shipped as
/// numeric frames and decoded the way a stream reader decodes them, fill
/// a block with exactly what its rows would — each pushed through
/// `Row::to_f64_vec` and `push_row` — bit for bit, whatever the frame
/// cut, the label column, and the rows a restarted reader skips.
#[test]
fn numeric_frames_decode_to_the_rows_converted_one_by_one() {
    use sqlml_mlengine::PartitionBlock;
    use sqlml_sqlengine::{Batch, Column};
    use sqlml_transfer::input_format::decode_frame;
    use sqlml_transfer::protocol::numeric_frame;

    let mut rng = SplitMix64::new(0x0F64_B175);
    let mut mixed_columns = 0;
    for case in 0..400 {
        let width = 1 + rng.next_below(6) as usize;
        let n = match rng.next_below(6) {
            0 => 0,
            1 => 1,
            _ => rng.next_below(70) as usize,
        };
        let nulls = *rng.choose(&[0.0, 0.0, 0.1, 0.5]);
        let (types, cells): (Vec<DataType>, Vec<Vec<Value>>) = (0..width)
            .map(|_| random_numeric_column(&mut rng, n, nulls))
            .unzip();
        let fields = (types.iter().enumerate()).map(|(c, ty)| Field::new(format!("c{c}"), *ty));
        let schema = Schema::new(fields.collect());
        let rows: Vec<Row> = (0..n)
            .map(|r| Row::new(cells.iter().map(|col| col[r].clone()).collect()))
            .collect();
        let batch = Batch::from_rows(&schema, &rows);
        assert_eq!(batch.rows(), rows, "case {case}: cursor");
        let is_mixed = |c: &&std::sync::Arc<Column>| matches!(***c, Column::Mixed(_));
        mixed_columns += batch.columns().iter().filter(is_mixed).count();
        let columns: Vec<_> = (batch.columns().iter())
            .map(|c| c.numeric().unwrap())
            .collect();
        let stride: usize = columns.iter().map(|c| c.stride()).sum();

        let label = (rng.chance(0.7)).then(|| rng.next_below(width as u64) as usize);
        let frame_rows = (rng.next_below(600) as usize / stride).max(1);
        let mut shipped = PartitionBlock::new(label);
        let mut expect = PartitionBlock::new(label);
        for start in (0..n.max(1)).step_by(frame_rows) {
            let end = (start + frame_rows).min(n);
            let frame = numeric_frame(&columns, start..end).unwrap();
            assert_eq!(frame.len(), 5 + 8 + width + (end - start) * stride);
            // A restarted reader skips nothing, part of a frame, all of
            // it, or more than it holds.
            let skip = match rng.next_below(4) {
                0 => rng.next_below((end - start) as u64 + 3) as usize,
                _ => 0,
            };
            let held = decode_frame(&frame[5..], skip, &mut shipped).unwrap();
            assert_eq!(held, end - start, "case {case}");
            for row in rows[start..end].iter().skip(skip) {
                expect.push_row(&row.to_f64_vec().unwrap()).unwrap();
            }
            assert_eq!(shipped.len(), expect.len(), "case {case}, skip {skip}");
        }
        assert_eq!(block_bits(shipped), block_bits(expect), "case {case}");

        // One string cell and the partition has no wire layout: the
        // column says so, naming the row.
        if n > 0 {
            let (victim, c) = (
                rng.next_below(n as u64) as usize,
                rng.next_below(width as u64),
            );
            let mut stringy = rows.clone();
            stringy[victim].set(c as usize, Value::Str("F".into()));
            let batch = Batch::from_rows(&schema, &stringy);
            let err = batch.column(c as usize).numeric().unwrap_err();
            assert!(matches!(err, sqlml_common::SqlmlError::Type(_)), "{err}");
            assert!(err.to_string().contains(&format!("row {victim} ")), "{err}");
        }
    }
    assert!(mixed_columns > 100, "only {mixed_columns} mixed columns");
}

#[test]
fn text_codec_round_trips_arbitrary_strings() {
    let mut rng = SplitMix64::new(0x7E47);
    for _ in 0..256 {
        let n = 1 + rng.next_below(4) as usize;
        let schema = Schema::new(
            (0..n)
                .map(|i| Field::categorical(format!("c{i}")))
                .collect(),
        );
        let mut rows: Vec<Row> = (0..1 + rng.next_below(6))
            .map(|_| {
                (0..n)
                    .map(|_| Value::from(random_string(&mut rng, 10)))
                    .collect()
            })
            .collect();
        for row in &rows {
            let mut line = String::new();
            codec::encode_text_row(row, &mut line);
            assert!(!line.contains('\n'), "encoded line must be single-line");
            assert_eq!(&codec::decode_text_row(&line, &schema).unwrap(), row);
        }
        // Whole blobs, as the warehouse and the Naive job read them. A
        // blob skips blank lines, so it cannot hold a one-column row of
        // the empty string.
        rows.retain(|r| r.values() != [Value::from("")]);
        let blob = codec::encode_text_batch(&rows);
        assert_eq!(
            codec::decode_text_batch(&blob, &schema).unwrap(),
            rows,
            "{blob:?}"
        );
        let batch = Batch::decode_text(&blob, &schema).unwrap();
        assert_eq!(batch.rows(), rows, "{blob:?}");
    }
}

// ---------------------------------------------------------------------------
// Recoding invariants (§2.1)
// ---------------------------------------------------------------------------

/// Distributed two-phase recoding equals the centralized scan, and is
/// invariant under the number of SQL workers.
#[test]
fn recode_map_is_partitioning_invariant() {
    let mut rng = SplitMix64::new(0x2ECD);
    for case in 0..24 {
        let rows = random_categorical_rows(&mut rng);
        let workers = 1 + (case % 6);
        let schema = Schema::new(vec![Field::categorical("u"), Field::categorical("v")]);
        let data: Vec<Row> = rows
            .iter()
            .map(|r| Row::new(r.iter().map(|s| Value::from(s.as_str())).collect()))
            .collect();

        let reference = RecodeMap::from_pairs(rows.iter().flat_map(|r| {
            [
                ("u".to_string(), r[0].clone()),
                ("v".to_string(), r[1].clone()),
            ]
        }));

        let engine = Engine::new(EngineConfig::with_workers(workers));
        engine.register_rows("t", schema, data);
        let transformer = InSqlTransformer::new(engine);
        let distributed = transformer
            .build_recode_map("t", &["u".to_string(), "v".to_string()])
            .unwrap();
        assert_eq!(distributed, reference);
        assert_eq!(
            RecodeMap::from_rows(&distributed.to_rows()).unwrap(),
            reference
        );
    }
}

/// Recoding is a bijection onto 1..=K per column.
#[test]
fn recode_codes_are_consecutive_from_one() {
    let mut rng = SplitMix64::new(0x813);
    for _ in 0..24 {
        let rows = random_categorical_rows(&mut rng);
        let map = RecodeMap::from_pairs(rows.iter().map(|r| ("c".to_string(), r[0].clone())));
        assert_eq!(RecodeMap::from_rows(&map.to_rows()).unwrap(), map);
        let k = map.cardinality("c");
        let mut seen = std::collections::BTreeSet::new();
        for r in &rows {
            let code = map.code("c", &r[0]).unwrap();
            assert!((1..=k as i64).contains(&code));
            seen.insert(code);
        }
        assert_eq!(seen.len(), k);
    }
}

/// Recode → dummy-code yields exactly one hot indicator per row, and the
/// hot position identifies the original value.
#[test]
fn dummy_coding_is_invertible() {
    let mut rng = SplitMix64::new(0xD00D);
    for case in 0..16 {
        let rows = random_categorical_rows(&mut rng);
        let workers = 1 + (case % 4);
        let schema = Schema::new(vec![Field::categorical("u"), Field::categorical("v")]);
        let data: Vec<Row> = rows
            .iter()
            .map(|r| Row::new(r.iter().map(|s| Value::from(s.as_str())).collect()))
            .collect();
        let engine = Engine::new(EngineConfig::with_workers(workers));
        engine.register_rows("t", schema, data);
        let transformer = InSqlTransformer::new(engine);
        let out = transformer
            .transform("t", &TransformSpec::new(&["u"]))
            .unwrap();
        let k = out.recode_map.cardinality("u");
        let values = out.recode_map.values_in_code_order("u");

        // Output layout: u_<v1>..u_<vK>, v.
        let mut decoded: Vec<(String, i64)> = Vec::new();
        for row in out.table.collect_rows() {
            let hot: Vec<usize> = (0..k).filter(|i| row.get(*i) == &Value::Int(1)).collect();
            assert_eq!(hot.len(), 1, "exactly one hot indicator");
            decoded.push((values[hot[0]].clone(), row.get(k).as_i64().unwrap()));
        }
        // Multiset of decoded (u, recoded v) equals the input multiset.
        let mut expect: Vec<(String, i64)> = rows
            .iter()
            .map(|r| (r[0].clone(), out.recode_map.code("v", &r[1]).unwrap()))
            .collect();
        decoded.sort();
        expect.sort();
        assert_eq!(decoded, expect);
    }
}

// ---------------------------------------------------------------------------
// Predicate-implication soundness (§5.2)
// ---------------------------------------------------------------------------

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::NotEq,
    CmpOp::Lt,
    CmpOp::LtEq,
    CmpOp::Gt,
    CmpOp::GtEq,
];

fn satisfies(op: CmpOp, v: i64, bound: i64) -> bool {
    match op {
        CmpOp::Eq => v == bound,
        CmpOp::NotEq => v != bound,
        CmpOp::Lt => v < bound,
        CmpOp::LtEq => v <= bound,
        CmpOp::Gt => v > bound,
        CmpOp::GtEq => v >= bound,
    }
}

/// Soundness: whenever the checker says "q implies c", every value
/// satisfying q must satisfy c. (Completeness is not required — a false
/// negative only costs a cache miss.) Exhaustive over both operator
/// grids and a bounded value cube.
#[test]
fn predicate_implication_is_sound() {
    use sqlml_cache::{predicate_implies, ColRef, SimplePredicate};
    for q_op in CMP_OPS {
        for c_op in CMP_OPS {
            for q_bound in -6i64..=6 {
                for c_bound in -6i64..=6 {
                    let q = SimplePredicate {
                        col: ColRef::new("t", "x"),
                        op: q_op,
                        value: Value::Int(q_bound),
                    };
                    let c = SimplePredicate {
                        col: ColRef::new("t", "x"),
                        op: c_op,
                        value: Value::Int(c_bound),
                    };
                    if !predicate_implies(&q, &c) {
                        continue;
                    }
                    for probe in -8i64..=8 {
                        if satisfies(q_op, probe, q_bound) {
                            assert!(
                                satisfies(c_op, probe, c_bound),
                                "{probe} satisfies q ({q_op:?} {q_bound}) but not c ({c_op:?} {c_bound})"
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hadoop block-split line protocol
// ---------------------------------------------------------------------------

/// Splitting a text file at block boundaries and reading every split
/// yields every line exactly once, for any block size and any line
/// lengths (the classic discard-first / read-past-end protocol).
#[test]
fn block_splits_partition_lines_exactly() {
    use sqlml_dfs::{Dfs, DfsConfig};
    use sqlml_mlengine::dataset::PartitionBlock;
    use sqlml_mlengine::input::{InputFormat, TextInputFormat};
    use sqlml_mlengine::Dataset;
    let mut rng = SplitMix64::new(0xB10C);
    for _ in 0..24 {
        let block_size = 8 + rng.next_below(120) as usize;
        let n_lines = 1 + rng.next_below(79) as usize;
        let dfs = Dfs::new(DfsConfig {
            num_datanodes: 3,
            block_size,
            replication: 1,
            bytes_per_sec: None,
            remote_bytes_per_sec: None,
        });
        // Zero-padded to a random width: the line number still identifies
        // every line once it is read back as an integer.
        let mut text = String::new();
        for i in 0..n_lines {
            let w = 1 + rng.next_below(39) as usize;
            text.push_str(&format!("{:0w$}\n", i, w = w.max(digits(i))));
        }
        dfs.write_string("/p/part-00000", &text).unwrap();
        let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let fmt = TextInputFormat::new(dfs, "/p", schema).with_block_splits();
        let mut block = PartitionBlock::new(None);
        for s in fmt.get_splits().unwrap() {
            let mut r = fmt.create_reader(s.as_ref(), "node-0").unwrap();
            while r.next_batch(&mut block).unwrap() > 0 {}
        }
        let data = Dataset::from_blocks(vec![block]).unwrap();
        let mut got: Vec<f64> = data.iter().map(|p| p.features[0]).collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..n_lines).map(|i| i as f64).collect();
        assert_eq!(got, expect);
    }
}

fn digits(i: usize) -> usize {
    i.to_string().len()
}

// ---------------------------------------------------------------------------
// Message-queue log invariants
// ---------------------------------------------------------------------------

/// Whatever is appended to a topic partition is read back in order,
/// exactly once per pass, for any record sizes — and replaying from
/// offset 0 reproduces it bit-for-bit.
#[test]
fn broker_log_round_trips_and_replays() {
    use sqlml_mq::{broker::BrokerConfig, Broker};
    use std::time::Duration;
    let mut rng = SplitMix64::new(0xB20CE2);
    for _ in 0..16 {
        let n = 1 + rng.next_below(39) as usize;
        let records: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = rng.next_below(64) as usize;
                (0..len).map(|_| rng.next_u64() as u8).collect()
            })
            .collect();
        let broker = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        for r in &records {
            broker.append("t", 0, r.clone()).unwrap();
        }
        broker.seal("t", 0).unwrap();
        for _pass in 0..2 {
            let mut got = Vec::new();
            let mut offset = 0;
            while let Some(rec) = broker
                .read("t", 0, offset, Duration::from_millis(100))
                .unwrap()
            {
                got.push((*rec).clone());
                offset += 1;
            }
            assert_eq!(got, records);
        }
    }
}

/// The spillable send buffer is an exact FIFO under any chunk-size
/// pattern and any capacity (including capacities that force every chunk
/// through the spill file).
#[test]
fn spillable_buffer_is_exact_fifo() {
    use sqlml_transfer::SpillableBuffer;
    let mut rng = SplitMix64::new(0xF1F0);
    for _ in 0..24 {
        let capacity = 1 + rng.next_below(255) as usize;
        let n = 1 + rng.next_below(59) as usize;
        let chunks: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = 1 + rng.next_below(49) as usize;
                (0..len).map(|_| rng.next_u64() as u8).collect()
            })
            .collect();
        let buf = SpillableBuffer::new(
            capacity,
            std::env::temp_dir().join("sqlml-prop-buffer"),
            "prop",
        );
        for c in &chunks {
            buf.push(c.clone()).unwrap();
        }
        buf.close();
        let mut got = Vec::new();
        while let Some(c) = buf.pop().unwrap() {
            got.push(c);
        }
        assert_eq!(got, chunks);
    }
}

// ---------------------------------------------------------------------------
// Parser robustness
// ---------------------------------------------------------------------------

/// The parser returns a clean error (never panics) on arbitrary input.
#[test]
fn parser_never_panics() {
    let mut rng = SplitMix64::new(0xAA51);
    for _ in 0..512 {
        let input = random_string(&mut rng, 200);
        let _ = sqlml_sqlengine::parser::parse_statement(&input);
    }
}

/// SQL-ish token soup is also panic-free.
#[test]
fn parser_never_panics_on_token_soup() {
    const TOKENS: [&str; 28] = [
        "SELECT", "FROM", "WHERE", "AND", "OR", "(", ")", ",", "*", "=", "<", ">=", "t", "x",
        "'s'", "1", "2.5", "JOIN", "ON", "GROUP", "BY", "LIKE", "CAST", "AS", "NULL", "NOT", "IN",
        ";",
    ];
    let mut rng = SplitMix64::new(0x50FA);
    for _ in 0..512 {
        let n = rng.next_below(25) as usize;
        let sql = (0..n)
            .map(|_| *rng.choose(&TOKENS))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = sqlml_sqlengine::parser::parse_statement(&sql);
    }
}

/// `stream_transfer`'s argument list survives the trip through SQL text
/// whatever its strings hold: `to_sql` → lexer → `from_values` is the
/// identity, so a quote in a command or an address can neither break the
/// statement nor turn into extra arguments.
#[test]
fn transfer_args_round_trip_through_sql_text() {
    use sqlml_sqlengine::lexer::{lex, TokenKind};
    use sqlml_transfer::{TransferArgs, TransferConfig};
    let mut rng = SplitMix64::new(0x0051_1171);
    for _ in 0..512 {
        let args = TransferArgs {
            coord_addr: random_string(&mut rng, 24),
            transfer_id: rng.next_below(1 << 40),
            command: random_string(&mut rng, 60),
            config: TransferConfig {
                splits_per_worker: 1 + rng.next_below(8) as u32,
                send_buffer_bytes: 1 + rng.next_below(1 << 20) as usize,
                frame_bytes: 1 + rng.next_below(1 << 20) as usize,
            },
        };
        let sql = args.to_sql();
        let values: Vec<Value> = lex(&sql)
            .unwrap_or_else(|e| panic!("{sql:?} does not lex: {e}"))
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::StrLit(s) => Some(Value::from(s)),
                TokenKind::IntLit(i) => Some(Value::Int(i)),
                TokenKind::Comma | TokenKind::Eof => None,
                other => panic!("{sql:?} lexes to a stray {other:?}"),
            })
            .collect();
        assert_eq!(TransferArgs::from_values(&values).unwrap(), args, "{sql:?}");
    }
}

// ---------------------------------------------------------------------------
// LIKE laws
// ---------------------------------------------------------------------------

/// Literal-prefix/suffix/containment laws of SQL LIKE over wildcard-free
/// fragments.
#[test]
fn like_agrees_with_string_predicates() {
    use sqlml_sqlengine::expr::like_match;
    let mut rng = SplitMix64::new(0x11CE);
    for _ in 0..256 {
        let text: String = (0..rng.next_below(13))
            .map(|_| (b'a' + rng.next_below(4) as u8) as char)
            .collect();
        let frag: String = (0..rng.next_below(5))
            .map(|_| (b'a' + rng.next_below(4) as u8) as char)
            .collect();
        assert_eq!(
            like_match(&text, &format!("{frag}%")),
            text.starts_with(&frag)
        );
        assert_eq!(
            like_match(&text, &format!("%{frag}")),
            text.ends_with(&frag)
        );
        assert_eq!(
            like_match(&text, &format!("%{frag}%")),
            text.contains(&frag)
        );
        assert_eq!(like_match(&text, &frag), text == frag);
        // `_` consumes exactly one character.
        let underscores: String = "_".repeat(text.chars().count());
        assert!(like_match(&text, &underscores));
    }
}

// ---------------------------------------------------------------------------
// SQL engine vs reference evaluation
// ---------------------------------------------------------------------------

/// Filter + projection results match a direct Rust evaluation over the
/// same rows, for any partitioning.
#[test]
fn filters_match_reference_semantics() {
    let mut rng = SplitMix64::new(0xF117E2);
    for case in 0..16 {
        let xs: Vec<i64> = (0..1 + rng.next_below(199))
            .map(|_| rng.range_i64(-100, 100))
            .collect();
        let bound = rng.range_i64(-100, 100);
        let workers = 1 + (case % 5);
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let rows: Vec<Row> = xs.iter().map(|x| Row::new(vec![Value::Int(*x)])).collect();
        let engine = Engine::new(EngineConfig::with_workers(workers));
        engine.register_rows("t", schema, rows);
        let got: Vec<i64> = engine
            .query(&format!(
                "SELECT x FROM t WHERE x > {bound} AND x <= {} ",
                bound.saturating_add(40)
            ))
            .unwrap()
            .collect_sorted()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        let mut expect: Vec<i64> = xs
            .iter()
            .copied()
            .filter(|x| *x > bound && *x <= bound.saturating_add(40))
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }
}

/// Aggregates match reference computation.
#[test]
fn aggregates_match_reference() {
    let mut rng = SplitMix64::new(0xA99);
    for case in 0..16 {
        let xs: Vec<i64> = (0..1 + rng.next_below(149))
            .map(|_| rng.range_i64(-1000, 1000))
            .collect();
        let workers = 1 + (case % 5);
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let rows: Vec<Row> = xs.iter().map(|x| Row::new(vec![Value::Int(*x)])).collect();
        let engine = Engine::new(EngineConfig::with_workers(workers));
        engine.register_rows("t", schema, rows);
        let out = engine
            .query("SELECT COUNT(*), SUM(x), MIN(x), MAX(x) FROM t")
            .unwrap()
            .collect_rows();
        assert_eq!(out[0].get(0), &Value::Int(xs.len() as i64));
        let sum: i64 = xs.iter().sum();
        assert!((out[0].get(1).as_f64().unwrap() - sum as f64).abs() < 1e-6);
        assert_eq!(out[0].get(2), &Value::Int(*xs.iter().min().unwrap()));
        assert_eq!(out[0].get(3), &Value::Int(*xs.iter().max().unwrap()));
    }
}

/// Hash joins match a reference nested-loop join, including the LEFT
/// OUTER null-extension, for any partitioning and build side.
#[test]
fn joins_match_nested_loop_reference() {
    let mut rng = SplitMix64::new(0x10113);
    for case in 0..16 {
        let left_keys: Vec<i64> = (0..1 + rng.next_below(39))
            .map(|_| rng.range_i64(0, 8))
            .collect();
        let right_keys: Vec<i64> = (0..rng.next_below(40))
            .map(|_| rng.range_i64(0, 8))
            .collect();
        let workers = 1 + (case % 4);
        let outer = rng.chance(0.5);
        let schema_l = Schema::new(vec![
            Field::new("lid", DataType::Int),
            Field::new("k", DataType::Int),
        ]);
        let schema_r = Schema::new(vec![
            Field::new("rid", DataType::Int),
            Field::new("k", DataType::Int),
        ]);
        let lrows: Vec<Row> = left_keys
            .iter()
            .enumerate()
            .map(|(i, k)| Row::new(vec![Value::Int(i as i64), Value::Int(*k)]))
            .collect();
        let rrows: Vec<Row> = right_keys
            .iter()
            .enumerate()
            .map(|(i, k)| Row::new(vec![Value::Int(i as i64), Value::Int(*k)]))
            .collect();
        let engine = Engine::new(EngineConfig::with_workers(workers));
        engine.register_rows("l", schema_l, lrows);
        engine.register_rows("r", schema_r, rrows);

        let sql = if outer {
            "SELECT l.lid, r.rid FROM l LEFT JOIN r ON l.k = r.k"
        } else {
            "SELECT l.lid, r.rid FROM l, r WHERE l.k = r.k"
        };
        let mut got: Vec<(i64, Option<i64>)> = engine
            .query(sql)
            .unwrap()
            .collect_rows()
            .iter()
            .map(|row| {
                (
                    row.get(0).as_i64().unwrap(),
                    match row.get(1) {
                        Value::Null => None,
                        v => Some(v.as_i64().unwrap()),
                    },
                )
            })
            .collect();

        // Reference nested loops.
        let mut expect: Vec<(i64, Option<i64>)> = Vec::new();
        for (li, lk) in left_keys.iter().enumerate() {
            let mut matched = false;
            for (ri, rk) in right_keys.iter().enumerate() {
                if lk == rk {
                    expect.push((li as i64, Some(ri as i64)));
                    matched = true;
                }
            }
            if outer && !matched {
                expect.push((li as i64, None));
            }
        }
        got.sort();
        expect.sort();
        assert_eq!(got, expect);
    }
}

/// DISTINCT matches reference dedup for any partitioning.
#[test]
fn distinct_matches_reference() {
    let mut rng = SplitMix64::new(0xD157);
    for case in 0..16 {
        let xs: Vec<i64> = (0..1 + rng.next_below(299))
            .map(|_| rng.range_i64(0, 20))
            .collect();
        let workers = 1 + (case % 5);
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let rows: Vec<Row> = xs.iter().map(|x| Row::new(vec![Value::Int(*x)])).collect();
        let engine = Engine::new(EngineConfig::with_workers(workers));
        engine.register_rows("t", schema, rows);
        let got: Vec<i64> = engine
            .query("SELECT DISTINCT x FROM t")
            .unwrap()
            .collect_sorted()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        let mut expect: Vec<i64> = xs.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(got, expect);
    }
}
