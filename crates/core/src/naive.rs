//! The external transformation tool of the naive baseline.
//!
//! The paper's naive pipeline used **Jaql** as "a third tool" between the
//! SQL system and the ML system: it read the materialized SQL result from
//! HDFS, performed recoding + dummy coding with its built-in functions,
//! and wrote the transformed data back to HDFS. This module is that tool,
//! built as a two-job MapReduce-style program over DFS text files:
//!
//! * job 1 (map per part-file, reduce at the driver): collect distinct
//!   values per categorical column and build the recode map;
//! * job 2 (map per part-file): rewrite each row using the map, apply
//!   dummy coding, and write an output part-file.
//!
//! Both jobs run their map tasks in parallel, one thread per part-file —
//! but every byte still crosses the file system twice more than the
//! In-SQL approach, which is exactly the overhead Figure 3 charges the
//! naive bar with.

use sqlml_common::schema::Schema;
use sqlml_common::{Result, SqlmlError};
use sqlml_dfs::Dfs;
use sqlml_sqlengine::executor::run_on_workers;
use sqlml_sqlengine::{Batch, Column};
use sqlml_transform::{FlatRecodeApplier, RecodeMap, TransformSpec};

/// Output of the external transform job.
#[derive(Debug)]
pub struct ExternalTransformOutput {
    /// DFS directory holding the transformed part-files.
    pub output_dir: String,
    /// The transformed data's schema.
    pub schema: Schema,
    pub recode_map: RecodeMap,
    pub rows: usize,
}

/// Run the external transformation: `input_dir` (text part-files with
/// `input_schema`) → `output_dir` on the same DFS.
pub fn run_external_transform(
    dfs: &Dfs,
    input_dir: &str,
    input_schema: &Schema,
    spec: &TransformSpec,
    output_dir: &str,
) -> Result<ExternalTransformOutput> {
    let recode_columns = spec.effective_recode_columns(input_schema);
    let files: Vec<String> = dfs
        .list(&format!("{input_dir}/"))
        .into_iter()
        .map(|f| f.path)
        .collect();
    if files.is_empty() {
        return Err(SqlmlError::Dfs(format!("no input under {input_dir}")));
    }
    let col_indices: Vec<(String, usize)> = recode_columns
        .iter()
        .map(|c| Ok((c.clone(), input_schema.index_of(c)?)))
        .collect::<Result<_>>()?;

    // ---- Job 1: distinct values per column (map side: the entries the
    // part-file's rows reference, as `distinct_values` reads them),
    // merged at the driver (reduce side).
    let partials: Vec<Vec<(String, String)>> = run_on_workers(files.len(), files.len(), |i| {
        let batch = Batch::decode_text(&dfs.read_string(&files[i])?, input_schema)?;
        let mut pairs = Vec::new();
        for (name, idx) in &col_indices {
            // Any other column holds no strings to recode; job 2's
            // applier rejects a non-NULL cell in it.
            if let Column::Str(d) = &**batch.column(*idx) {
                let entries = d.referenced_entries().into_iter();
                pairs.extend(entries.map(|v| (name.clone(), v.to_string())));
            }
        }
        Ok(pairs)
    })?;
    let recode_map = RecodeMap::from_pairs(partials.into_iter().flatten());

    // ---- Job 2: transform each part-file and write the output. All
    // per-column resolution (which action, the column's sorted values,
    // block width, transformed schema) happens once here; each part-file
    // is one column batch through the applier.
    let applier = FlatRecodeApplier::new(&recode_map, input_schema, spec)?;
    let row_counts: Vec<usize> = run_on_workers(files.len(), files.len(), |i| {
        let path = &files[i];
        let batch = Batch::decode_text(&dfs.read_string(path)?, input_schema)?;
        let out = applier.apply_batch(&batch)?;
        let part_name = path.rsplit('/').next().unwrap_or("part-00000");
        dfs.write_string(&format!("{output_dir}/{part_name}"), &out.encode_text())?;
        Ok(out.len())
    })?;

    Ok(ExternalTransformOutput {
        output_dir: output_dir.to_string(),
        schema: applier.output_schema().clone(),
        recode_map,
        rows: row_counts.iter().sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::schema::{DataType, Field};
    use sqlml_common::{codec, row};
    use sqlml_dfs::DfsConfig;

    fn input_schema() -> Schema {
        Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
            Field::new("amount", DataType::Double),
            Field::categorical("abandoned"),
        ])
    }

    fn dfs_with_input() -> Dfs {
        let dfs = Dfs::new(DfsConfig::for_tests());
        let part0 = vec![
            row![57i64, "F", 103.25, "Yes"],
            row![40i64, "M", 35.8, "Yes"],
        ];
        let part1 = vec![row![35i64, "F", 48.9, "No"]];
        dfs.write_string("/in/part-00000", &codec::encode_text_batch(&part0))
            .unwrap();
        dfs.write_string("/in/part-00001", &codec::encode_text_batch(&part1))
            .unwrap();
        dfs
    }

    #[test]
    fn external_transform_reproduces_figure_1() {
        let dfs = dfs_with_input();
        let out = run_external_transform(
            &dfs,
            "/in",
            &input_schema(),
            &TransformSpec::new(&["gender"]),
            "/out",
        )
        .unwrap();
        assert_eq!(out.rows, 3);
        assert_eq!(
            out.schema.names(),
            vec!["age", "gender_F", "gender_M", "amount", "abandoned"]
        );
        // Read back and verify Figure 1(c) content.
        let mut rows = Vec::new();
        for f in dfs.list("/out/") {
            let text = dfs.read_string(&f.path).unwrap();
            rows.extend(codec::decode_text_batch(&text, &out.schema).unwrap());
        }
        rows.sort();
        assert_eq!(
            rows,
            vec![
                row![35i64, 1i64, 0i64, 48.9, 1i64],
                row![40i64, 0i64, 1i64, 35.8, 2i64],
                row![57i64, 1i64, 0i64, 103.25, 2i64],
            ]
        );
    }

    #[test]
    fn matches_the_insql_transformer_exactly() {
        use sqlml_sqlengine::{Engine, EngineConfig};
        use sqlml_transform::InSqlTransformer;
        let dfs = dfs_with_input();
        let spec = TransformSpec::new(&["gender"]);
        let external =
            run_external_transform(&dfs, "/in", &input_schema(), &spec, "/out2").unwrap();

        let engine = Engine::new(EngineConfig::with_workers(2));
        engine
            .load_text_table("t", input_schema(), &dfs, "/in")
            .unwrap();
        let insql = InSqlTransformer::new(engine.clone())
            .transform("t", &spec)
            .unwrap();

        let mut ext_rows = Vec::new();
        for f in dfs.list("/out2/") {
            let text = dfs.read_string(&f.path).unwrap();
            ext_rows.extend(codec::decode_text_batch(&text, &external.schema).unwrap());
        }
        ext_rows.sort();
        assert_eq!(ext_rows, insql.table.collect_sorted());
        assert_eq!(external.recode_map, insql.recode_map);
    }

    #[test]
    fn missing_input_dir_fails() {
        let dfs = Dfs::new(DfsConfig::for_tests());
        assert!(run_external_transform(
            &dfs,
            "/nothing",
            &input_schema(),
            &TransformSpec::default(),
            "/out"
        )
        .is_err());
    }

    #[test]
    fn every_map_task_panicking_is_an_error_in_the_caller_not_a_panic() {
        let files = ["/in/part-00000", "/in/part-00001"];
        let result: Result<Vec<()>> =
            run_on_workers(files.len(), files.len(), |i| panic!("boom in {}", files[i]));
        assert!(
            matches!(&result, Err(SqlmlError::Execution(msg)) if msg == "worker thread panicked"),
            "{result:?}"
        );
    }
}
