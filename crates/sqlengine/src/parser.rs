//! Recursive-descent parser for the supported SQL subset.

use sqlml_common::schema::DataType;
use sqlml_common::{Result, SqlmlError, Value};

use crate::ast::*;
use crate::lexer::{lex, Token, TokenKind};

/// Parse one statement (a trailing `;` is permitted).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.statement()?;
    p.accept(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a bare SELECT query.
pub fn parse_select(sql: &str) -> Result<SelectStmt> {
    match parse_statement(sql)? {
        Statement::Select(s) => Ok(s),
        other => Err(SqlmlError::Parse(format!(
            "expected a SELECT statement, found {other:?}"
        ))),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Self> {
        Ok(Parser {
            tokens: lex(sql)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn accept(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn accept_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(k) if k == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, kind: &TokenKind) -> Result<()> {
        if self.accept(kind) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {kind:?}")))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.accept_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(&format!("expected keyword {kw}")))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error("expected end of statement"))
        }
    }

    fn error(&self, msg: &str) -> SqlmlError {
        SqlmlError::Parse(format!(
            "{msg}, found {:?} at byte {}",
            self.tokens[self.pos].kind, self.tokens[self.pos].pos
        ))
    }

    /// Any identifier; keywords are rejected so errors stay clear.
    fn ident(&mut self) -> Result<String> {
        match self.advance() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(SqlmlError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.accept_keyword("CREATE") {
            self.expect_keyword("TABLE")?;
            let name = self.ident()?;
            if self.accept_keyword("AS") {
                let query = self.select()?;
                return Ok(Statement::CreateTableAs { name, query });
            }
            self.expect_token(&TokenKind::LParen)?;
            let mut columns = Vec::new();
            loop {
                let col_name = self.ident()?;
                let type_name = match self.advance() {
                    TokenKind::Ident(s) => s,
                    TokenKind::Keyword(s) => s,
                    other => {
                        return Err(SqlmlError::Parse(format!(
                            "expected a type name, found {other:?}"
                        )))
                    }
                };
                let data_type = DataType::parse_sql_name(&type_name)?;
                let categorical = self.accept_keyword("CATEGORICAL");
                columns.push(ColumnDef {
                    name: col_name,
                    data_type,
                    categorical,
                });
                if !self.accept(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_token(&TokenKind::RParen)?;
            return Ok(Statement::CreateTable { name, columns });
        }
        if self.accept_keyword("DROP") {
            self.expect_keyword("TABLE")?;
            let name = self.ident()?;
            return Ok(Statement::DropTable { name });
        }
        if self.accept_keyword("EXPLAIN") {
            return Ok(Statement::Explain(self.select()?));
        }
        Ok(Statement::Select(self.select()?))
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let distinct = self.accept_keyword("DISTINCT");
        let projection = self.select_list()?;

        self.expect_keyword("FROM")?;
        let mut from = vec![self.table_ref()?];
        let mut joins = Vec::new();
        loop {
            if self.accept(&TokenKind::Comma) {
                from.push(self.table_ref()?);
                continue;
            }
            let kind = if self.accept_keyword("JOIN") {
                Some(JoinKind::Inner)
            } else if self.accept_keyword("INNER") {
                self.expect_keyword("JOIN")?;
                Some(JoinKind::Inner)
            } else if self.accept_keyword("LEFT") {
                self.accept_keyword("OUTER");
                self.expect_keyword("JOIN")?;
                Some(JoinKind::LeftOuter)
            } else {
                None
            };
            match kind {
                Some(kind) => {
                    let table = self.table_ref()?;
                    self.expect_keyword("ON")?;
                    let on = self.expr()?;
                    joins.push(JoinClause { kind, table, on });
                }
                None => break,
            }
        }

        let selection = if self.accept_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.accept_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.accept(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let having = if self.accept_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.accept_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.accept_keyword("DESC") {
                    true
                } else {
                    self.accept_keyword("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.accept(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let limit = if self.accept_keyword("LIMIT") {
            match self.advance() {
                // Guarded non-negative; a LIMIT larger than usize::MAX
                // is indistinguishable from no limit anyway.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                TokenKind::IntLit(n) if n >= 0 => Some(n as usize),
                other => {
                    return Err(SqlmlError::Parse(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };

        Ok(SelectStmt {
            distinct,
            projection,
            from,
            joins,
            selection,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            if self.accept(&TokenKind::Star) {
                items.push(SelectItem::Wildcard);
            } else if let TokenKind::Ident(name) = self.peek().clone() {
                // Lookahead for `alias.*`.
                if self.tokens[self.pos + 1].kind == TokenKind::Dot
                    && self.tokens[self.pos + 2].kind == TokenKind::Star
                {
                    self.advance();
                    self.advance();
                    self.advance();
                    items.push(SelectItem::QualifiedWildcard(name));
                } else {
                    items.push(self.select_expr_item()?);
                }
            } else {
                items.push(self.select_expr_item()?);
            }
            if !self.accept(&TokenKind::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn select_expr_item(&mut self) -> Result<SelectItem> {
        let expr = self.expr()?;
        let alias = if self.accept_keyword("AS") {
            Some(self.ident()?)
        } else if let TokenKind::Ident(_) = self.peek() {
            // Bare alias (`SELECT a b`): allowed, SQL style.
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        if self.accept_keyword("TABLE") {
            // `TABLE(udf(arg, ...))` — parallel table UDF invocation.
            self.expect_token(&TokenKind::LParen)?;
            let udf = self.ident()?;
            self.expect_token(&TokenKind::LParen)?;
            let mut args = Vec::new();
            if !matches!(self.peek(), TokenKind::RParen) {
                loop {
                    let arg = match self.advance() {
                        TokenKind::Ident(t) => TableFuncArg::Table(t),
                        TokenKind::IntLit(v) => TableFuncArg::Literal(Value::Int(v)),
                        TokenKind::DoubleLit(v) => TableFuncArg::Literal(Value::Double(v)),
                        TokenKind::StrLit(v) => TableFuncArg::Literal(Value::Str(v.into())),
                        TokenKind::Keyword(k) if k == "TRUE" => {
                            TableFuncArg::Literal(Value::Bool(true))
                        }
                        TokenKind::Keyword(k) if k == "FALSE" => {
                            TableFuncArg::Literal(Value::Bool(false))
                        }
                        TokenKind::Keyword(k) if k == "NULL" => TableFuncArg::Literal(Value::Null),
                        other => {
                            return Err(SqlmlError::Parse(format!(
                                "bad table-UDF argument {other:?}"
                            )))
                        }
                    };
                    args.push(arg);
                    if !self.accept(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect_token(&TokenKind::RParen)?;
            self.expect_token(&TokenKind::RParen)?;
            let alias = self.optional_alias()?;
            return Ok(TableRef::TableFunction { udf, args, alias });
        }
        let name = self.ident()?;
        let alias = self.optional_alias()?;
        Ok(TableRef::Named { name, alias })
    }

    fn optional_alias(&mut self) -> Result<Option<String>> {
        if self.accept_keyword("AS") {
            return Ok(Some(self.ident()?));
        }
        if let TokenKind::Ident(_) = self.peek() {
            return Ok(Some(self.ident()?));
        }
        Ok(None)
    }

    // Expression grammar, loosest to tightest: OR, AND, NOT, comparison /
    // IS NULL / IN / BETWEEN, additive, multiplicative, unary, primary.
    fn expr(&mut self) -> Result<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.and_expr()?;
        while self.accept_keyword("OR") {
            let right = self.and_expr()?;
            left = AstExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.not_expr()?;
        while self.accept_keyword("AND") {
            let right = self.not_expr()?;
            left = AstExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.accept_keyword("NOT") {
            return Ok(AstExpr::Not(Box::new(self.not_expr()?)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<AstExpr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.accept_keyword("IS") {
            let negated = self.accept_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(AstExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN (...) / BETWEEN
        let negated_prefix = self.accept_keyword("NOT");
        if self.accept_keyword("LIKE") {
            let pattern = self.additive()?;
            return Ok(AstExpr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated: negated_prefix,
            });
        }
        if self.accept_keyword("IN") {
            self.expect_token(&TokenKind::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.additive()?);
                if !self.accept(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_token(&TokenKind::RParen)?;
            return Ok(AstExpr::InList {
                expr: Box::new(left),
                list,
                negated: negated_prefix,
            });
        }
        if self.accept_keyword("BETWEEN") {
            let lo = self.additive()?;
            self.expect_keyword("AND")?;
            let hi = self.additive()?;
            let between = AstExpr::Between {
                expr: Box::new(left),
                lo: Box::new(lo),
                hi: Box::new(hi),
            };
            return Ok(if negated_prefix {
                AstExpr::Not(Box::new(between))
            } else {
                between
            });
        }
        if negated_prefix {
            return Err(self.error("expected IN, LIKE or BETWEEN after NOT"));
        }
        let op = match self.peek() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::NotEq => CmpOp::NotEq,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::LtEq => CmpOp::LtEq,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::GtEq => CmpOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive()?;
        Ok(AstExpr::Cmp {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn additive(&mut self) -> Result<AstExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => ArithOp::Add,
                TokenKind::Minus => ArithOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.multiplicative()?;
            left = AstExpr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<AstExpr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => ArithOp::Mul,
                TokenKind::Slash => ArithOp::Div,
                _ => break,
            };
            self.advance();
            let right = self.unary()?;
            left = AstExpr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<AstExpr> {
        if self.accept(&TokenKind::Minus) {
            return Ok(AstExpr::Neg(Box::new(self.unary()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.advance() {
            TokenKind::IntLit(v) => Ok(AstExpr::Literal(Value::Int(v))),
            TokenKind::DoubleLit(v) => Ok(AstExpr::Literal(Value::Double(v))),
            TokenKind::StrLit(v) => Ok(AstExpr::Literal(Value::Str(v.into()))),
            TokenKind::Keyword(k) if k == "CAST" => {
                self.expect_token(&TokenKind::LParen)?;
                let e = self.expr()?;
                self.expect_keyword("AS")?;
                let type_name = match self.advance() {
                    TokenKind::Ident(s) => s,
                    TokenKind::Keyword(s) => s,
                    other => {
                        return Err(SqlmlError::Parse(format!(
                            "expected a type name in CAST, found {other:?}"
                        )))
                    }
                };
                let to = DataType::parse_sql_name(&type_name)?;
                self.expect_token(&TokenKind::RParen)?;
                Ok(AstExpr::Cast {
                    expr: Box::new(e),
                    to,
                })
            }
            TokenKind::Keyword(k) if k == "TRUE" => Ok(AstExpr::Literal(Value::Bool(true))),
            TokenKind::Keyword(k) if k == "FALSE" => Ok(AstExpr::Literal(Value::Bool(false))),
            TokenKind::Keyword(k) if k == "NULL" => Ok(AstExpr::Literal(Value::Null)),
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect_token(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Keyword(k)
                if matches!(k.as_str(), "COUNT" | "SUM" | "AVG" | "MIN" | "MAX") =>
            {
                let func = match k.as_str() {
                    "COUNT" => AggFunc::Count,
                    "SUM" => AggFunc::Sum,
                    "AVG" => AggFunc::Avg,
                    "MIN" => AggFunc::Min,
                    _ => AggFunc::Max,
                };
                self.expect_token(&TokenKind::LParen)?;
                if func == AggFunc::Count && self.accept(&TokenKind::Star) {
                    self.expect_token(&TokenKind::RParen)?;
                    return Ok(AstExpr::Agg {
                        func,
                        arg: None,
                        distinct: false,
                    });
                }
                let distinct = self.accept_keyword("DISTINCT");
                let arg = self.expr()?;
                self.expect_token(&TokenKind::RParen)?;
                Ok(AstExpr::Agg {
                    func,
                    arg: Some(Box::new(arg)),
                    distinct,
                })
            }
            TokenKind::Ident(name) => {
                // Qualified column, scalar function call, or bare column.
                if self.accept(&TokenKind::Dot) {
                    let col = self.ident()?;
                    return Ok(AstExpr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                if self.accept(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    if !matches!(self.peek(), TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.accept(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_token(&TokenKind::RParen)?;
                    return Ok(AstExpr::FuncCall { name, args });
                }
                Ok(AstExpr::Column {
                    qualifier: None,
                    name,
                })
            }
            other => Err(SqlmlError::Parse(format!(
                "expected an expression, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_example_query() {
        let q = parse_select(
            "SELECT U.age, U.gender, C.amount, C.abandoned \
             FROM carts C, users U \
             WHERE C.userid=U.userid AND U.country='USA'",
        )
        .unwrap();
        assert_eq!(q.projection.len(), 4);
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[0].binding(), Some("C"));
        assert_eq!(q.from[1].binding(), Some("U"));
        let sel = q.selection.unwrap();
        assert_eq!(sel.conjuncts().len(), 2);
    }

    #[test]
    fn parses_the_paper_recode_join() {
        let q = parse_select(
            "SELECT T.age, Mg.recodeVal AS gender, T.amount, Ma.recodeVal AS abandoned \
             FROM T, M AS Mg, M AS Ma \
             WHERE Mg.colName='gender' AND T.gender=Mg.colVal \
               AND Ma.colName='abandoned' AND T.abandoned=Ma.colVal",
        )
        .unwrap();
        assert_eq!(q.from.len(), 3);
        assert_eq!(q.selection.unwrap().conjuncts().len(), 4);
        match &q.projection[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("gender")),
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn parses_table_udf_in_from() {
        let q = parse_select(
            "SELECT DISTINCT colName, colVal FROM TABLE(distinct_values('result', 'gender', 'abandoned')) AS d",
        )
        .unwrap();
        assert!(q.distinct);
        match &q.from[0] {
            TableRef::TableFunction { udf, args, alias } => {
                assert_eq!(udf, "distinct_values");
                assert_eq!(args.len(), 3);
                assert_eq!(args[0], TableFuncArg::Literal(Value::Str("result".into())));
                assert_eq!(alias.as_deref(), Some("d"));
            }
            other => panic!("unexpected from {other:?}"),
        }
    }

    #[test]
    fn parses_table_udf_with_table_name_arg() {
        let q = parse_select("SELECT * FROM TABLE(recode_dummy(result, 'gender')) AS x").unwrap();
        match &q.from[0] {
            TableRef::TableFunction { args, .. } => {
                assert_eq!(args[0], TableFuncArg::Table("result".into()));
            }
            other => panic!("unexpected from {other:?}"),
        }
    }

    #[test]
    fn parses_explicit_joins() {
        let q = parse_select(
            "SELECT c.amount FROM carts c JOIN users u ON c.userid = u.userid \
             LEFT JOIN extras e ON e.id = c.id WHERE u.age > 18",
        )
        .unwrap();
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.joins[0].kind, JoinKind::Inner);
        assert_eq!(q.joins[1].kind, JoinKind::LeftOuter);
    }

    #[test]
    fn parses_group_by_having_order_limit() {
        let q = parse_select(
            "SELECT gender, COUNT(*), AVG(amount) AS avg_amt FROM carts \
             GROUP BY gender HAVING COUNT(*) > 10 ORDER BY avg_amt DESC, gender LIMIT 5",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].desc);
        assert!(!q.order_by[1].desc);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn parses_in_between_is_null() {
        let q = parse_select(
            "SELECT * FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 0 AND 10 \
             AND c IS NOT NULL AND d NOT IN ('x')",
        )
        .unwrap();
        let conj = q.selection.unwrap();
        assert_eq!(conj.conjuncts().len(), 4);
    }

    #[test]
    fn parses_arithmetic_with_precedence() {
        let q = parse_select("SELECT a + b * 2 - c / 4 FROM t").unwrap();
        match &q.projection[0] {
            SelectItem::Expr { expr, .. } => {
                // Top node must be the subtraction.
                match expr {
                    AstExpr::Arith {
                        op: ArithOp::Sub, ..
                    } => {}
                    other => panic!("precedence wrong: {other:?}"),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_create_table() {
        let s = parse_statement(
            "CREATE TABLE users (userid BIGINT, gender VARCHAR CATEGORICAL, age INT)",
        )
        .unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "users");
                assert_eq!(columns.len(), 3);
                assert!(columns[1].categorical);
                assert!(!columns[0].categorical);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_create_table_as() {
        let s = parse_statement("CREATE TABLE snapshot AS SELECT * FROM carts WHERE year = 2014")
            .unwrap();
        assert!(matches!(s, Statement::CreateTableAs { .. }));
    }

    #[test]
    fn parses_drop_table() {
        assert_eq!(
            parse_statement("DROP TABLE tmp;").unwrap(),
            Statement::DropTable { name: "tmp".into() }
        );
    }

    #[test]
    fn wildcard_variants() {
        let q = parse_select("SELECT *, u.*, age FROM users u").unwrap();
        assert_eq!(q.projection.len(), 3);
        assert!(matches!(q.projection[0], SelectItem::Wildcard));
        assert!(matches!(
            q.projection[1],
            SelectItem::QualifiedWildcard(ref a) if a == "u"
        ));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_statement("SELECT 1 FROM t WHERE").is_err());
        assert!(parse_statement("SELECT 1 FROM t 42").is_err());
    }

    #[test]
    fn not_precedence_binds_tighter_than_and() {
        let q = parse_select("SELECT * FROM t WHERE NOT a = 1 AND b = 2").unwrap();
        match q.selection.unwrap() {
            AstExpr::And(l, _) => assert!(matches!(*l, AstExpr::Not(_))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_star_and_count_distinct() {
        let q = parse_select("SELECT COUNT(*), COUNT(DISTINCT gender) FROM t").unwrap();
        match (&q.projection[0], &q.projection[1]) {
            (
                SelectItem::Expr {
                    expr: AstExpr::Agg { arg: None, .. },
                    ..
                },
                SelectItem::Expr {
                    expr:
                        AstExpr::Agg {
                            arg: Some(_),
                            distinct: true,
                            ..
                        },
                    ..
                },
            ) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
