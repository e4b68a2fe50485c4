//! Deterministic TPC-H-style data generator.
//!
//! A seeded reimplementation of `dbgen`'s distributions for the columns
//! the paper's queries touch. Row counts scale with the TPC-H scale
//! factor exactly as the spec prescribes (customer 150k·SF, orders
//! 1.5M·SF, lineitem ≈ 4 lines/order, part 200k·SF, …), and column
//! domains mirror the spec (acctbal in [-999.99, 9999.99], order dates in
//! 1992-01-01‥1998-08-02, ship dates 1–121 days after the order, Brand#XY
//! from MFGR 1–5, and so on).
//!
//! Simplifications vs. `dbgen`, none of which the paper's queries are
//! sensitive to: order keys are dense (the spec leaves gaps), text pools
//! are word lists rather than the spec's grammar, and comments are short
//! (keeps small-scale CSVs from being dominated by filler text).

use crate::schema;
use pushdown_common::date::ymd;
use pushdown_common::{Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nations (nationkey, name, regionkey) — the spec's fixed 25.
pub const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const INSTRUCTIONS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const TYPE_SYLL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_SYLL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SYLL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const CONTAINER_SYLL1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
const CONTAINER_SYLL2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];
const COLORS: [&str; 16] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
];
const WORDS: [&str; 12] = [
    "carefully",
    "quickly",
    "furiously",
    "slyly",
    "blithely",
    "ironic",
    "final",
    "pending",
    "regular",
    "express",
    "special",
    "unusual",
];

/// Scale-factor-driven generator. All output is a pure function of
/// `(scale_factor, seed)`.
#[derive(Debug, Clone, Copy)]
pub struct TpchGen {
    pub scale_factor: f64,
    pub seed: u64,
}

impl TpchGen {
    pub fn new(scale_factor: f64) -> Self {
        TpchGen {
            scale_factor,
            seed: 0x7bc8_2026,
        }
    }

    fn rng(&self, table: &str) -> StdRng {
        let mut h: u64 = self.seed;
        for b in table.bytes() {
            h = h.wrapping_mul(0x100000001b3).wrapping_add(b as u64);
        }
        StdRng::seed_from_u64(h)
    }

    fn count(&self, base: u64) -> u64 {
        ((base as f64 * self.scale_factor).round() as u64).max(1)
    }

    pub fn num_customers(&self) -> u64 {
        self.count(150_000)
    }
    pub fn num_orders(&self) -> u64 {
        self.count(1_500_000)
    }
    pub fn num_parts(&self) -> u64 {
        self.count(200_000)
    }
    pub fn num_suppliers(&self) -> u64 {
        self.count(10_000)
    }

    fn comment(rng: &mut StdRng) -> String {
        let n = rng.random_range(2..5);
        let mut s = String::new();
        for i in 0..n {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(WORDS[rng.random_range(0..WORDS.len())]);
        }
        s
    }

    fn phone(rng: &mut StdRng, nation: i64) -> String {
        format!(
            "{}-{:03}-{:03}-{:04}",
            10 + nation,
            rng.random_range(100..1000),
            rng.random_range(100..1000),
            rng.random_range(1000..10000)
        )
    }

    /// Money with two decimals in `[lo, hi]`.
    fn money(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
        let cents = rng.random_range((lo * 100.0) as i64..=(hi * 100.0) as i64);
        cents as f64 / 100.0
    }

    pub fn customers(&self) -> (Schema, Vec<Row>) {
        let mut rng = self.rng("customer");
        let n = self.num_customers();
        let rows = (1..=n as i64)
            .map(|k| {
                let nation = rng.random_range(0..25i64);
                Row::new(vec![
                    Value::Int(k),
                    Value::Str(format!("Customer#{k:09}")),
                    Value::Str(format!("addr {}", Self::comment(&mut rng))),
                    Value::Int(nation),
                    Value::Str(Self::phone(&mut rng, nation)),
                    Value::Float(Self::money(&mut rng, -999.99, 9999.99)),
                    Value::Str(SEGMENTS[rng.random_range(0..SEGMENTS.len())].to_string()),
                    Value::Str(Self::comment(&mut rng)),
                ])
            })
            .collect();
        (schema::customer(), rows)
    }

    pub fn orders(&self) -> (Schema, Vec<Row>) {
        let mut rng = self.rng("orders");
        let n = self.num_orders();
        let n_cust = self.num_customers() as i64;
        let start = ymd(1992, 1, 1);
        let end = ymd(1998, 8, 2);
        let rows = (1..=n as i64)
            .map(|k| {
                let date = rng.random_range(start..=end);
                let status = ["F", "O", "P"][rng.random_range(0..3usize)];
                Row::new(vec![
                    Value::Int(k),
                    // Spec: only 2/3 of customers have orders; we draw
                    // uniformly which preserves the join selectivities the
                    // paper's queries exercise.
                    Value::Int(rng.random_range(1..=n_cust)),
                    Value::Str(status.to_string()),
                    Value::Float(Self::money(&mut rng, 857.71, 555285.16)),
                    Value::Date(date),
                    Value::Str(PRIORITIES[rng.random_range(0..PRIORITIES.len())].to_string()),
                    Value::Str(format!("Clerk#{:09}", rng.random_range(1..=1000))),
                    Value::Int(0),
                    Value::Str(Self::comment(&mut rng)),
                ])
            })
            .collect();
        (schema::orders(), rows)
    }

    /// Lineitems reference their order's date, so generation takes the
    /// orders rows (dates are read from column 4).
    pub fn lineitems(&self, orders: &[Row]) -> (Schema, Vec<Row>) {
        let mut rng = self.rng("lineitem");
        let n_part = self.num_parts() as i64;
        let n_supp = self.num_suppliers() as i64;
        let mut rows = Vec::with_capacity(orders.len() * 4);
        for o in orders {
            let okey = o[0].as_i64().expect("orderkey");
            let odate = match o[4] {
                Value::Date(d) => d,
                _ => unreachable!("orderdate is a date"),
            };
            let lines = rng.random_range(1..=7);
            for ln in 1..=lines {
                let quantity = rng.random_range(1..=50) as f64;
                let partkey = rng.random_range(1..=n_part);
                // Spec: extendedprice = quantity * part price where part
                // price ≈ 90000+ partkey/10 pattern; keep the dependence.
                let unit_price = 900.0 + (partkey % 1000) as f64 + (partkey % 100) as f64 / 100.0;
                let extended = (quantity * unit_price * 100.0).round() / 100.0;
                let discount = rng.random_range(0..=10) as f64 / 100.0;
                let tax = rng.random_range(0..=8) as f64 / 100.0;
                let shipdate = odate + rng.random_range(1..=121);
                let commitdate = odate + rng.random_range(30..=90);
                let receiptdate = shipdate + rng.random_range(1..=30);
                // Spec: returnflag R/A if receipt <= 1995-06-17 else N.
                let returnflag = if receiptdate <= ymd(1995, 6, 17) {
                    if rng.random_bool(0.5) {
                        "R"
                    } else {
                        "A"
                    }
                } else {
                    "N"
                };
                let linestatus = if shipdate > ymd(1995, 6, 17) {
                    "O"
                } else {
                    "F"
                };
                rows.push(Row::new(vec![
                    Value::Int(okey),
                    Value::Int(partkey),
                    Value::Int(rng.random_range(1..=n_supp)),
                    Value::Int(ln),
                    Value::Float(quantity),
                    Value::Float(extended),
                    Value::Float(discount),
                    Value::Float(tax),
                    Value::Str(returnflag.to_string()),
                    Value::Str(linestatus.to_string()),
                    Value::Date(shipdate),
                    Value::Date(commitdate),
                    Value::Date(receiptdate),
                    Value::Str(INSTRUCTIONS[rng.random_range(0..INSTRUCTIONS.len())].to_string()),
                    Value::Str(MODES[rng.random_range(0..MODES.len())].to_string()),
                    Value::Str(Self::comment(&mut rng)),
                ]));
            }
        }
        (schema::lineitem(), rows)
    }

    pub fn parts(&self) -> (Schema, Vec<Row>) {
        let mut rng = self.rng("part");
        let n = self.num_parts();
        let rows = (1..=n as i64)
            .map(|k| {
                let mfgr = rng.random_range(1..=5);
                let brand = mfgr * 10 + rng.random_range(1..=5);
                let ptype = format!(
                    "{} {} {}",
                    TYPE_SYLL1[rng.random_range(0..TYPE_SYLL1.len())],
                    TYPE_SYLL2[rng.random_range(0..TYPE_SYLL2.len())],
                    TYPE_SYLL3[rng.random_range(0..TYPE_SYLL3.len())],
                );
                let container = format!(
                    "{} {}",
                    CONTAINER_SYLL1[rng.random_range(0..CONTAINER_SYLL1.len())],
                    CONTAINER_SYLL2[rng.random_range(0..CONTAINER_SYLL2.len())],
                );
                let name = format!(
                    "{} {}",
                    COLORS[rng.random_range(0..COLORS.len())],
                    COLORS[rng.random_range(0..COLORS.len())],
                );
                // Spec formula: (90000 + ((partkey/10) % 20001) + 100*(partkey % 1000))/100.
                let retail = (90000 + ((k / 10) % 20001) + 100 * (k % 1000)) as f64 / 100.0;
                Row::new(vec![
                    Value::Int(k),
                    Value::Str(name),
                    Value::Str(format!("Manufacturer#{mfgr}")),
                    Value::Str(format!("Brand#{brand}")),
                    Value::Str(ptype),
                    Value::Int(rng.random_range(1..=50)),
                    Value::Str(container),
                    Value::Float(retail),
                    Value::Str(Self::comment(&mut rng)),
                ])
            })
            .collect();
        (schema::part(), rows)
    }

    pub fn suppliers(&self) -> (Schema, Vec<Row>) {
        let mut rng = self.rng("supplier");
        let n = self.num_suppliers();
        let rows = (1..=n as i64)
            .map(|k| {
                let nation = rng.random_range(0..25i64);
                Row::new(vec![
                    Value::Int(k),
                    Value::Str(format!("Supplier#{k:09}")),
                    Value::Str(format!("addr {}", Self::comment(&mut rng))),
                    Value::Int(nation),
                    Value::Str(Self::phone(&mut rng, nation)),
                    Value::Float(Self::money(&mut rng, -999.99, 9999.99)),
                    Value::Str(Self::comment(&mut rng)),
                ])
            })
            .collect();
        (schema::supplier(), rows)
    }

    pub fn partsupps(&self) -> (Schema, Vec<Row>) {
        let mut rng = self.rng("partsupp");
        let n_part = self.num_parts() as i64;
        let n_supp = self.num_suppliers() as i64;
        let mut rows = Vec::with_capacity((n_part * 4) as usize);
        for p in 1..=n_part {
            for s in 0..4 {
                // Spec's supplier spread.
                let suppkey = (p + s * (n_supp / 4 + (p - 1) / n_supp)) % n_supp + 1;
                rows.push(Row::new(vec![
                    Value::Int(p),
                    Value::Int(suppkey),
                    Value::Int(rng.random_range(1..=9999)),
                    Value::Float(Self::money(&mut rng, 1.0, 1000.0)),
                    Value::Str(Self::comment(&mut rng)),
                ]));
            }
        }
        (schema::partsupp(), rows)
    }

    pub fn nations(&self) -> (Schema, Vec<Row>) {
        let rows = NATIONS
            .iter()
            .enumerate()
            .map(|(i, (name, region))| {
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::Str(name.to_string()),
                    Value::Int(*region),
                    Value::Str("fixed nation".into()),
                ])
            })
            .collect();
        (schema::nation(), rows)
    }

    pub fn regions(&self) -> (Schema, Vec<Row>) {
        let rows = REGIONS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::Str(name.to_string()),
                    Value::Str("fixed region".into()),
                ])
            })
            .collect();
        (schema::region(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let a = TpchGen::new(0.001).customers().1;
        let b = TpchGen::new(0.001).customers().1;
        assert_eq!(a, b);
        let c = TpchGen {
            scale_factor: 0.001,
            seed: 99,
        }
        .customers()
        .1;
        assert_ne!(a, c);
    }

    #[test]
    fn row_counts_scale() {
        let g = TpchGen::new(0.001);
        assert_eq!(g.num_customers(), 150);
        assert_eq!(g.num_orders(), 1500);
        assert_eq!(g.num_parts(), 200);
        let (_, orders) = g.orders();
        assert_eq!(orders.len(), 1500);
        let (_, li) = g.lineitems(&orders);
        // 1..=7 lines per order, expectation 4.
        assert!((3000..9000).contains(&li.len()), "{}", li.len());
    }

    #[test]
    fn value_domains_match_spec() {
        let g = TpchGen::new(0.001);
        let (_, customers) = g.customers();
        for c in &customers {
            let bal = c[5].as_f64().unwrap();
            assert!((-999.99..=9999.99).contains(&bal));
            let nk = c[3].as_i64().unwrap();
            assert!((0..25).contains(&nk));
            assert!(SEGMENTS.contains(&c[6].as_str().unwrap()));
        }
        let (_, orders) = g.orders();
        for o in &orders {
            match o[4] {
                Value::Date(d) => {
                    assert!(d >= ymd(1992, 1, 1) && d <= ymd(1998, 8, 2));
                }
                _ => panic!("orderdate type"),
            }
        }
    }

    #[test]
    fn lineitem_dates_follow_orders() {
        let g = TpchGen::new(0.001);
        let (_, orders) = g.orders();
        let (_, lis) = g.lineitems(&orders);
        let order_dates: std::collections::HashMap<i64, i32> = orders
            .iter()
            .map(|o| {
                (
                    o[0].as_i64().unwrap(),
                    match o[4] {
                        Value::Date(d) => d,
                        _ => unreachable!(),
                    },
                )
            })
            .collect();
        for l in lis.iter().step_by(97) {
            let od = order_dates[&l[0].as_i64().unwrap()];
            let ship = match l[10] {
                Value::Date(d) => d,
                _ => unreachable!(),
            };
            let receipt = match l[12] {
                Value::Date(d) => d,
                _ => unreachable!(),
            };
            assert!(ship > od && ship <= od + 121);
            assert!(receipt > ship && receipt <= ship + 30);
            // Returnflag rule.
            let rf = l[8].as_str().unwrap();
            if receipt <= ymd(1995, 6, 17) {
                assert!(rf == "R" || rf == "A");
            } else {
                assert_eq!(rf, "N");
            }
        }
    }

    #[test]
    fn part_brand_consistent_with_mfgr() {
        let g = TpchGen::new(0.001);
        let (_, parts) = g.parts();
        for p in &parts {
            let mfgr: i64 = p[2].as_str().unwrap()["Manufacturer#".len()..]
                .parse()
                .unwrap();
            let brand: i64 = p[3].as_str().unwrap()["Brand#".len()..].parse().unwrap();
            assert_eq!(brand / 10, mfgr);
            assert!((1..=5).contains(&(brand % 10)));
            let size = p[5].as_i64().unwrap();
            assert!((1..=50).contains(&size));
        }
        // PROMO types exist (Q14 depends on them).
        assert!(parts
            .iter()
            .any(|p| p[4].as_str().unwrap().starts_with("PROMO")));
    }

    #[test]
    fn fixed_tables() {
        let g = TpchGen::new(1.0);
        assert_eq!(g.nations().1.len(), 25);
        assert_eq!(g.regions().1.len(), 5);
    }

    #[test]
    fn partsupp_has_four_suppliers_per_part() {
        let g = TpchGen::new(0.001);
        let (_, ps) = g.partsupps();
        assert_eq!(ps.len(), 4 * g.num_parts() as usize);
    }
}
