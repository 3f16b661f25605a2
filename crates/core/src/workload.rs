//! Synthetic workload matching the paper's evaluation scenario (§1, §7):
//! an online retailer's `carts` and `users` tables, a preparation query
//! joining them for USA customers, and an SVM on cart abandonment.
//!
//! The paper generated 1B carts (56 GB) and 10M users (361 MB) as text on
//! HDFS; we generate the same schema and value distributions at
//! configurable scale, seeded for reproducibility.
//!
//! [`Warehouse::generate`] is the one generator. It writes both tables
//! straight into typed column vectors, with no `Row` or `Value` per cell,
//! dealt round-robin (row `i` into partition `i % n`): the layout
//! `SimCluster::load_workload` saves as the warehouse's text part-files.
//!
//! * The users come first, on one thread, because a cart reads its
//!   user's age.
//! * The carts are cut into contiguous chunks whose boundaries are
//!   multiples of `n`, so each chunk fills its own slice of every
//!   partition's vectors, and the chunks run in parallel.
//! * A cart draws [`CART_DRAWS`] values from the cart stream, so chunk
//!   `c` starts from that stream advanced by 6 × its first cart id
//!   ([`SplitMix64::advance`]).
//! * The count is exact unless `next_below` rejects or a Gaussian draws
//!   `u1 = 0`, which are vanishingly rare but possible. So each chunk
//!   hands back its end state, and a chunk whose assumed start is not
//!   the state its predecessor ended in is generated again, from that
//!   state, by the same function. The state grows by an odd constant
//!   per draw, so equal states mean equal draw counts, and the output
//!   equals the one-thread loop for every seed.
//!
//! [`Workload::generate`] is the same generator read back as rows, one
//! partition in cart order, for oracles and tests.

use std::sync::{Arc, Mutex};

use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{counter_u32, Result, Row, SplitMix64, SqlmlError};
use sqlml_sqlengine::column::{dealt_len, Batch, Column, DictionaryColumn, Prim};
use sqlml_sqlengine::executor::run_on_workers;
use sqlml_sqlengine::PartitionedTable;

/// How big to make the synthetic warehouse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadScale {
    pub carts: usize,
    pub users: usize,
}

impl WorkloadScale {
    /// Unit-test scale.
    pub const TINY: WorkloadScale = WorkloadScale {
        carts: 2_000,
        users: 200,
    };
    /// Default benchmark scale (keeps Figure 3/4 runs in seconds).
    pub const SMALL: WorkloadScale = WorkloadScale {
        carts: 200_000,
        users: 20_000,
    };
    /// Larger benchmark scale (minutes).
    pub const MEDIUM: WorkloadScale = WorkloadScale {
        carts: 2_000_000,
        users: 100_000,
    };

    /// The paper's ratio (100 carts per user) at an arbitrary cart count.
    pub fn with_carts(carts: usize) -> WorkloadScale {
        WorkloadScale {
            carts,
            users: (carts / 100).max(10),
        }
    }
}

/// The generated tables as rows, plus their schemas.
#[derive(Debug, Clone)]
pub struct Workload {
    pub carts_schema: Schema,
    pub users_schema: Schema,
    pub carts: Vec<Row>,
    pub users: Vec<Row>,
}

/// Schema of the `carts` fact table.
pub fn carts_schema() -> Schema {
    Schema::new(vec![
        Field::new("cartid", DataType::Int),
        Field::new("userid", DataType::Int),
        Field::new("amount", DataType::Double),
        Field::categorical("abandoned"),
        Field::new("year", DataType::Int),
        Field::new("nitems", DataType::Int),
    ])
}

/// Schema of the `users` dimension table.
pub fn users_schema() -> Schema {
    Schema::new(vec![
        Field::new("userid", DataType::Int),
        Field::new("age", DataType::Int),
        Field::categorical("gender"),
        Field::categorical("country"),
    ])
}

/// The preparation query of the paper's running example.
pub const PREP_QUERY: &str = "SELECT U.age, U.gender, C.amount, C.abandoned \
                              FROM carts C, users U \
                              WHERE C.userid = U.userid AND U.country = 'USA'";

/// The ML command of the evaluation: SVM with SGD on the `abandoned`
/// label (column 3 of the prepared result).
pub const SVM_COMMAND: &str = "svm label=3 iterations=10 step=1.0 reg=0.01";

const COUNTRIES: [&str; 6] = ["USA", "CA", "UK", "DE", "FR", "JP"];
const COUNTRY_WEIGHTS: [f64; 6] = [0.55, 0.12, 0.11, 0.09, 0.07, 0.06];
const GENDERS: [&str; 2] = ["F", "M"];
const ABANDONED: [&str; 2] = ["Yes", "No"];

/// Values a cart draws from the cart stream: its user, two for the
/// Gaussian amount, abandonment, year and item count. `next_below`
/// drawing again after a rejection, or the Gaussian after `u1 = 0`, is
/// the rare exception the chunk check catches.
pub const CART_DRAWS: u64 = 6;

impl Workload {
    /// Generate the workload deterministically from a seed.
    ///
    /// Abandonment correlates with the features (younger users and large
    /// cart amounts abandon more) so the downstream SVM has signal to
    /// find — the evaluation measures pipeline time, but the model should
    /// still be learnable.
    pub fn generate(scale: WorkloadScale, seed: u64) -> Workload {
        // lint:allow(panic) one chunk fails only where the row loop did: carts without users
        let w = Warehouse::generate(scale, seed, 1).expect("workload generation");
        Workload {
            carts_schema: carts_schema(),
            users_schema: users_schema(),
            carts: w.carts.collect_rows(),
            users: w.users.collect_rows(),
        }
    }
}

/// The warehouse as the generator emits it: each table as column
/// batches, row `i` in partition `i % n`.
#[derive(Debug, Clone)]
pub struct Warehouse {
    pub carts: PartitionedTable,
    pub users: PartitionedTable,
}

impl Warehouse {
    /// Generate `carts` and `users` for `scale` and `seed`, each dealt
    /// into `partitions` batches (partition `i` homed on `node-i`). The
    /// carts are generated in `partitions` chunks, one worker each.
    pub fn generate(scale: WorkloadScale, seed: u64, partitions: usize) -> Result<Warehouse> {
        let (w, _) = generate(scale, seed, partitions, partitions, &draw_cart)?;
        Ok(w)
    }
}

/// One cart's drawn cells.
#[derive(Debug, Clone, Copy)]
struct Cart {
    user: usize,
    amount: f64,
    abandoned: bool,
    year: i64,
    nitems: i64,
}

/// Draw one cart from the cart stream: [`CART_DRAWS`] values, but for
/// the rare rejection.
fn draw_cart(rng: &mut SplitMix64, ages: &[i64]) -> Cart {
    let user = rng.next_below(ages.len() as u64) as usize;
    let amount = (rng.next_gaussian() * 40.0 + 90.0).abs() + 1.0;
    let age = ages[user] as f64;
    // Abandonment probability: strongly feature-dependent so the
    // downstream classifier has real signal — younger users and
    // pricier carts abandon far more often.
    let p = (0.5 + 0.012 * (45.0 - age) + 0.005 * (amount - 90.0)).clamp(0.02, 0.98);
    Cart {
        user,
        amount: (amount * 100.0).round() / 100.0,
        abandoned: rng.chance(p),
        year: if rng.chance(0.7) { 2014 } else { 2013 },
        nitems: rng.range_i64(1, 20),
    }
}

/// The generator behind [`Warehouse::generate`], with the cart count
/// split into `chunks` and the cart draw a parameter, so a test can
/// make carts draw more than [`CART_DRAWS`] values. Also returns how
/// many chunks were generated a second time.
fn generate<D>(
    scale: WorkloadScale,
    seed: u64,
    partitions: usize,
    chunks: usize,
    draw: &D,
) -> Result<(Warehouse, usize)>
where
    D: Fn(&mut SplitMix64, &[i64]) -> Cart + Sync,
{
    if partitions == 0 || chunks == 0 {
        return Err(SqlmlError::Execution(
            "the warehouse needs a partition and a chunk".into(),
        ));
    }
    if scale.users == 0 && scale.carts > 0 {
        return Err(SqlmlError::Execution("carts need at least one user".into()));
    }
    let mut rng = SplitMix64::new(seed);
    let mut user_rng = rng.fork(1);
    let cart_rng = rng.fork(2);
    let (users, ages) = generate_users(scale.users, &mut user_rng, partitions)?;
    let (carts, regenerated) =
        generate_carts(scale.carts, cart_rng, partitions, chunks, &ages, draw)?;
    let homes: Vec<String> = (0..partitions).map(sqlml_dfs::node_name).collect();
    Ok((
        Warehouse {
            carts: PartitionedTable::from_batches(carts_schema(), carts, homes.clone()),
            users: PartitionedTable::from_batches(users_schema(), users, homes),
        },
        regenerated,
    ))
}

fn dictionary(values: &[&str]) -> Arc<Vec<Arc<str>>> {
    Arc::new(values.iter().map(|&v| Arc::from(v)).collect())
}

/// The `users` batches, and every user's age in user id order.
fn generate_users(users: usize, rng: &mut SplitMix64, n: usize) -> Result<(Vec<Batch>, Vec<i64>)> {
    let mut parts: Vec<UserColumns> = (0..n)
        .map(|p| UserColumns::with_capacity(dealt_len(users, n, p)))
        .collect();
    let mut ages = Vec::with_capacity(users);
    for uid in 0..users {
        let age = rng.range_i64(18, 80);
        ages.push(age);
        let gender = u32::from(!rng.chance(0.5));
        let country = rng.choose_weighted(&COUNTRY_WEIGHTS);
        let part = &mut parts[uid % n];
        part.userid.push(uid as i64);
        part.age.push(age);
        part.gender.push(gender);
        part.country.push(counter_u32(country, "country code")?);
    }
    let (genders, countries) = (dictionary(&GENDERS), dictionary(&COUNTRIES));
    let batches = (parts.into_iter())
        .map(|u| u.finish(&genders, &countries))
        .collect();
    Ok((batches, ages))
}

/// The `carts` batches, generated in `chunks` chunks on as many
/// workers, and how many chunks had to be generated again.
fn generate_carts<D>(
    carts: usize,
    rng: SplitMix64,
    n: usize,
    chunks: usize,
    ages: &[i64],
    draw: &D,
) -> Result<(Vec<Batch>, usize)>
where
    D: Fn(&mut SplitMix64, &[i64]) -> Cart + Sync,
{
    // Chunk `c` holds carts `c·per .. (c+1)·per`: `per` is a multiple of
    // `n`, so the chunk's carts fill one run of each partition's slots.
    let per = carts.div_ceil(chunks).div_ceil(n) * n;
    let bounds: Vec<usize> = (0..=chunks).map(|c| (c * per).min(carts)).collect();
    let mut parts: Vec<CartColumns> = (0..n)
        .map(|p| CartColumns::zeroed(dealt_len(carts, n, p)))
        .collect();
    let mut slices: Vec<Vec<CartSlice>> = (0..chunks).map(|_| Vec::with_capacity(n)).collect();
    for (p, part) in parts.iter_mut().enumerate() {
        let lens = bounds.windows(2).map(|b| dealt_len(b[1] - b[0], n, p));
        for (chunk, slice) in slices.iter_mut().zip(part.cut(lens)) {
            chunk.push(slice);
        }
    }
    let work: Vec<Mutex<Option<Vec<CartSlice>>>> =
        slices.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let mut done = run_on_workers(chunks, chunks, |c| {
        let taken = work[c].lock().ok().and_then(|mut w| w.take());
        let mut slice = taken
            .ok_or_else(|| SqlmlError::Execution(format!("cart chunk {c} was generated twice")))?;
        let mut start = rng.clone();
        start.advance(CART_DRAWS * bounds[c] as u64);
        let end = fill_chunk(&mut slice, bounds[c], start.clone(), ages, draw);
        Ok((slice, start, end))
    })?;
    // Chunk 0 started from the true state; each later one did if its
    // predecessor ended where it assumed.
    let mut truth = rng;
    let mut regenerated = 0;
    for (c, (slice, start, end)) in done.iter_mut().enumerate() {
        if *start != truth {
            *end = fill_chunk(slice, bounds[c], truth, ages, draw);
            regenerated += 1;
        }
        truth = end.clone();
    }
    drop(done);
    let abandoned = dictionary(&ABANDONED);
    let batches = (parts.into_iter()).map(|c| c.finish(&abandoned)).collect();
    Ok((batches, regenerated))
}

/// Generate carts `first ..` into `slice` (one run per partition; cart
/// `first + k` lands in partition `k % n`, slot `k / n`) from `rng`, and
/// return the state the stream ends in.
fn fill_chunk<D>(
    slice: &mut [CartSlice],
    first: usize,
    mut rng: SplitMix64,
    ages: &[i64],
    draw: &D,
) -> SplitMix64
where
    D: Fn(&mut SplitMix64, &[i64]) -> Cart,
{
    let len: usize = slice.iter().map(CartSlice::len).sum();
    let n = slice.len();
    let (mut part, mut slot) = (0, 0);
    for cartid in first..first + len {
        slice[part].set(slot, cartid, draw(&mut rng, ages));
        part += 1;
        if part == n {
            (part, slot) = (0, slot + 1);
        }
    }
    rng
}

fn int(values: Vec<i64>) -> Arc<Column> {
    Arc::new(Column::Int(Prim::new(values, None)))
}

fn codes(codes: Vec<u32>, dict: &Arc<Vec<Arc<str>>>) -> Arc<Column> {
    Arc::new(Column::Str(DictionaryColumn::new(codes, Arc::clone(dict))))
}

/// The `users` columns of one partition; string cells are codes into
/// [`GENDERS`] and [`COUNTRIES`].
struct UserColumns {
    userid: Vec<i64>,
    age: Vec<i64>,
    gender: Vec<u32>,
    country: Vec<u32>,
}

impl UserColumns {
    fn with_capacity(len: usize) -> Self {
        UserColumns {
            userid: Vec::with_capacity(len),
            age: Vec::with_capacity(len),
            gender: Vec::with_capacity(len),
            country: Vec::with_capacity(len),
        }
    }

    fn finish(self, genders: &Arc<Vec<Arc<str>>>, countries: &Arc<Vec<Arc<str>>>) -> Batch {
        let len = self.userid.len();
        let columns = vec![
            int(self.userid),
            int(self.age),
            codes(self.gender, genders),
            codes(self.country, countries),
        ];
        Batch::new(columns, len)
    }
}

/// The `carts` columns of one partition, allocated zeroed at full
/// length and filled chunk by chunk through [`CartSlice`]s; `abandoned`
/// holds codes into [`ABANDONED`].
struct CartColumns {
    cartid: Vec<i64>,
    userid: Vec<i64>,
    amount: Vec<f64>,
    abandoned: Vec<u32>,
    year: Vec<i64>,
    nitems: Vec<i64>,
}

impl CartColumns {
    fn zeroed(len: usize) -> Self {
        CartColumns {
            cartid: vec![0; len],
            userid: vec![0; len],
            amount: vec![0.0; len],
            abandoned: vec![0; len],
            year: vec![0; len],
            nitems: vec![0; len],
        }
    }

    /// Consecutive slices of the columns, `lens` rows each.
    fn cut(&mut self, lens: impl Iterator<Item = usize>) -> Vec<CartSlice<'_>> {
        let mut rest = CartSlice {
            cartid: &mut self.cartid,
            userid: &mut self.userid,
            amount: &mut self.amount,
            abandoned: &mut self.abandoned,
            year: &mut self.year,
            nitems: &mut self.nitems,
        };
        lens.map(|len| rest.split_off(len)).collect()
    }

    fn finish(self, abandoned: &Arc<Vec<Arc<str>>>) -> Batch {
        let len = self.cartid.len();
        let columns = vec![
            int(self.cartid),
            int(self.userid),
            Arc::new(Column::Double(Prim::new(self.amount, None))),
            codes(self.abandoned, abandoned),
            int(self.year),
            int(self.nitems),
        ];
        Batch::new(columns, len)
    }
}

/// One chunk's run of slots in a partition's [`CartColumns`].
struct CartSlice<'a> {
    cartid: &'a mut [i64],
    userid: &'a mut [i64],
    amount: &'a mut [f64],
    abandoned: &'a mut [u32],
    year: &'a mut [i64],
    nitems: &'a mut [i64],
}

impl<'a> CartSlice<'a> {
    fn len(&self) -> usize {
        self.cartid.len()
    }

    /// The first `len` slots, leaving the rest in `self`.
    fn split_off(&mut self, len: usize) -> CartSlice<'a> {
        fn head<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
            let (head, tail) = std::mem::take(rest).split_at_mut(len);
            *rest = tail;
            head
        }
        CartSlice {
            cartid: head(&mut self.cartid, len),
            userid: head(&mut self.userid, len),
            amount: head(&mut self.amount, len),
            abandoned: head(&mut self.abandoned, len),
            year: head(&mut self.year, len),
            nitems: head(&mut self.nitems, len),
        }
    }

    fn set(&mut self, slot: usize, cartid: usize, cart: Cart) {
        self.cartid[slot] = cartid as i64;
        self.userid[slot] = cart.user as i64;
        self.amount[slot] = cart.amount;
        self.abandoned[slot] = u32::from(!cart.abandoned);
        self.year[slot] = cart.year;
        self.nitems[slot] = cart.nitems;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_common::Value;

    /// FNV-1a over the text encoding of `rows`.
    fn fingerprint(rows: &[Row]) -> u64 {
        let text = sqlml_common::codec::encode_text_batch(rows);
        (text.bytes()).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn the_generator_draws_the_rows_it_always_drew() {
        // Fingerprints of the row-at-a-time generator this one replaced.
        let golden = [
            (
                WorkloadScale::TINY,
                1,
                0xd825_760c_53c4_9d84,
                0x48fd_9410_afdd_7cc3,
            ),
            (
                WorkloadScale::TINY,
                7,
                0x6c92_0078_fd9e_a1b4,
                0xd318_c2eb_c2ee_eea4,
            ),
            (
                WorkloadScale {
                    carts: 2_001,
                    users: 37,
                },
                42,
                0x2022_2622_8585_37f6,
                0xedcc_9044_af12_1428,
            ),
            (
                WorkloadScale::with_carts(40_000),
                42,
                0xdffb_2bc1_f340_e2b2,
                0x5571_2a2a_fca4_c30b,
            ),
        ];
        for (scale, seed, carts, users) in golden {
            let w = Workload::generate(scale, seed);
            assert_eq!(fingerprint(&w.carts), carts, "{scale:?} seed {seed}");
            assert_eq!(fingerprint(&w.users), users, "{scale:?} seed {seed}");
        }
    }

    /// Both tables' batches, printed: columns, validity, dictionaries
    /// and codes.
    fn dump(w: &Warehouse) -> String {
        format!("{:?}\n{:?}", w.carts.partitions(), w.users.partitions())
    }

    /// A cart draw that takes one value more for every cart with 20
    /// items (one in twenty): the chunks' assumed starts go wrong from
    /// the first such cart on.
    fn draw_extra(rng: &mut SplitMix64, ages: &[i64]) -> Cart {
        let cart = draw_cart(rng, ages);
        if cart.nitems == 20 {
            rng.next_u64();
        }
        cart
    }

    const CHUNK_SCALES: [WorkloadScale; 4] = [
        WorkloadScale { carts: 0, users: 0 },
        // Fewer carts than chunks.
        WorkloadScale { carts: 5, users: 3 },
        // A cart count no partition count divides.
        WorkloadScale {
            carts: 1_001,
            users: 13,
        },
        WorkloadScale::TINY,
    ];

    #[test]
    fn chunked_generation_equals_one_chunk() {
        for scale in CHUNK_SCALES {
            for partitions in 1..=4 {
                let (one, again) = generate(scale, 9, partitions, 1, &draw_cart).unwrap();
                assert_eq!(again, 0);
                assert_eq!(one.carts.num_rows(), scale.carts);
                assert_eq!(one.users.num_rows(), scale.users);
                for chunks in 1..=7 {
                    let (w, again) = generate(scale, 9, partitions, chunks, &draw_cart).unwrap();
                    let case = format!("{scale:?}, {partitions} partitions, {chunks} chunks");
                    assert_eq!(dump(&w), dump(&one), "{case}");
                    assert_eq!(again, 0, "{case}: regenerated");
                }
            }
        }
    }

    #[test]
    fn a_chunk_that_started_from_the_wrong_state_is_generated_again() {
        for scale in CHUNK_SCALES {
            for partitions in 1..=4 {
                let (one, _) = generate(scale, 9, partitions, 1, &draw_extra).unwrap();
                for chunks in 1..=7 {
                    let (w, again) = generate(scale, 9, partitions, chunks, &draw_extra).unwrap();
                    let case = format!("{scale:?}, {partitions} partitions, {chunks} chunks");
                    assert_eq!(dump(&w), dump(&one), "{case}");
                    if scale == WorkloadScale::TINY {
                        // Every chunk after the first starts wrong.
                        assert_eq!(again, chunks - 1, "{case}");
                    }
                }
            }
        }
        // The extra draws change the data: the check above compared
        // something other than the plain generator's output.
        let plain = generate(WorkloadScale::TINY, 9, 2, 1, &draw_cart)
            .unwrap()
            .0;
        let extra = generate(WorkloadScale::TINY, 9, 2, 1, &draw_extra)
            .unwrap()
            .0;
        assert_ne!(dump(&plain), dump(&extra));
    }

    #[test]
    fn the_benchmark_seeds_generate_every_chunk_once() {
        // Seeds 100–109 at 400 000 carts, as the benchmark loads them:
        // no cart draws a seventh value, so no chunk runs twice. A cart
        // that starts to draw more fails here instead of quietly falling
        // back to one thread.
        for seed in 100..110 {
            let scale = WorkloadScale::with_carts(400_000);
            let (_, again) = generate(scale, seed, 4, 4, &draw_cart).unwrap();
            assert_eq!(again, 0, "seed {seed}");
        }
    }

    #[test]
    fn a_warehouse_needs_a_user_for_its_carts() {
        let scale = WorkloadScale { carts: 1, users: 0 };
        assert!(Warehouse::generate(scale, 1, 2).is_err());
        assert!(Warehouse::generate(WorkloadScale::TINY, 1, 0).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Workload::generate(
            WorkloadScale {
                carts: 100,
                users: 20,
            },
            5,
        );
        let b = Workload::generate(
            WorkloadScale {
                carts: 100,
                users: 20,
            },
            5,
        );
        let c = Workload::generate(
            WorkloadScale {
                carts: 100,
                users: 20,
            },
            6,
        );
        assert_eq!(a.carts, b.carts);
        assert_eq!(a.users, b.users);
        assert_ne!(a.carts, c.carts);
    }

    #[test]
    fn row_shapes_match_schemas() {
        let w = Workload::generate(WorkloadScale::TINY, 1);
        assert_eq!(w.carts.len(), WorkloadScale::TINY.carts);
        assert_eq!(w.users.len(), WorkloadScale::TINY.users);
        for r in w.carts.iter().take(50) {
            assert_eq!(r.len(), w.carts_schema.len());
        }
        for r in w.users.iter().take(50) {
            assert_eq!(r.len(), w.users_schema.len());
        }
    }

    #[test]
    fn value_distributions_are_plausible() {
        let w = Workload::generate(WorkloadScale::TINY, 2);
        let usa = w
            .users
            .iter()
            .filter(|r| r.get(3) == &Value::Str("USA".into()))
            .count() as f64
            / w.users.len() as f64;
        assert!((0.4..0.7).contains(&usa), "USA fraction {usa}");
        let abandoned = w
            .carts
            .iter()
            .filter(|r| r.get(3) == &Value::Str("Yes".into()))
            .count() as f64
            / w.carts.len() as f64;
        assert!((0.1..0.6).contains(&abandoned), "abandon rate {abandoned}");
        // Every cart references a valid user.
        for r in w.carts.iter().take(200) {
            let uid = r.get(1).as_i64().unwrap();
            assert!((uid as usize) < w.users.len());
        }
    }

    #[test]
    fn abandonment_correlates_with_age() {
        // Young users must abandon more than old ones — the learnable
        // signal the SVM needs.
        let w = Workload::generate(
            WorkloadScale {
                carts: 20_000,
                users: 1_000,
            },
            3,
        );
        let age_of: Vec<i64> = w.users.iter().map(|r| r.get(1).as_i64().unwrap()).collect();
        let (mut young_yes, mut young_all, mut old_yes, mut old_all) = (0, 0, 0, 0);
        for r in &w.carts {
            let uid = r.get(1).as_i64().unwrap() as usize;
            let yes = r.get(3) == &Value::Str("Yes".into());
            if age_of[uid] < 35 {
                young_all += 1;
                young_yes += yes as i64;
            } else if age_of[uid] > 60 {
                old_all += 1;
                old_yes += yes as i64;
            }
        }
        let young_rate = young_yes as f64 / young_all as f64;
        let old_rate = old_yes as f64 / old_all as f64;
        assert!(
            young_rate > old_rate + 0.05,
            "young {young_rate} vs old {old_rate}"
        );
    }

    #[test]
    fn scale_presets() {
        let s = WorkloadScale::with_carts(50_000);
        assert_eq!(s.users, 500);
    }
}
