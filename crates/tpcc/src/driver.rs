//! The TPC-C driver: database load, the five-transaction mix, and page-write trace
//! collection.

use crate::schema::{cardinality, embedded_value, key, row, Table};
use lss_btree::{BTree, BufferPool, MemPageStore, TracingPageStore};
use lss_core::Result;
use lss_workload::WriteTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Configuration of a TPC-C run. The defaults in [`TpccConfig::scaled_experiment`] are a
/// deliberately scaled-down version of the paper's setup (scale factor 350–560 with a
/// 4 GiB buffer cache, §6.3); the crate docs say why the substitution is sound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpccConfig {
    /// Number of warehouses (TPC-C scale factor).
    pub warehouses: u32,
    /// Districts per warehouse (spec: 10).
    pub districts_per_warehouse: u32,
    /// Customers per district (spec: 3000; scaled down by default).
    pub customers_per_district: u32,
    /// Items in the catalogue (spec: 100 000; scaled down by default).
    pub items: u32,
    /// Initial orders per district (spec: 3000; scaled down by default).
    pub initial_orders_per_district: u32,
    /// B+-tree page size in bytes.
    pub page_size: usize,
    /// Buffer pool capacity in pages.
    pub buffer_pool_pages: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl TpccConfig {
    /// A tiny configuration for unit tests.
    pub fn tiny_for_tests() -> Self {
        Self {
            warehouses: 1,
            districts_per_warehouse: 2,
            customers_per_district: 60,
            items: 200,
            initial_orders_per_district: 30,
            page_size: 4096,
            buffer_pool_pages: 64,
            seed: 7,
        }
    }

    /// The scaled-down experiment configuration used by the Figure 6 harness.
    pub fn scaled_experiment(warehouses: u32) -> Self {
        Self {
            warehouses,
            districts_per_warehouse: cardinality::DISTRICTS_PER_WAREHOUSE,
            customers_per_district: 600,
            items: 10_000,
            initial_orders_per_district: 300,
            page_size: 4096,
            buffer_pool_pages: 2048, // 8 MiB cache, scaled down with the data set
            seed: 42,
        }
    }
}

/// Transaction counts executed by a driver.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TpccStats {
    /// New-Order transactions.
    pub new_orders: u64,
    /// Payment transactions.
    pub payments: u64,
    /// Order-Status transactions.
    pub order_status: u64,
    /// Delivery transactions.
    pub deliveries: u64,
    /// Stock-Level transactions.
    pub stock_levels: u64,
}

impl TpccStats {
    /// Total transactions executed.
    pub fn total(&self) -> u64 {
        self.new_orders + self.payments + self.order_status + self.deliveries + self.stock_levels
    }
}

/// Runs TPC-C against a B+-tree on a traced in-memory page store.
pub struct TpccDriver {
    config: TpccConfig,
    tree: BTree<TracingPageStore<MemPageStore>>,
    rng: StdRng,
    /// Next order id per (warehouse, district).
    next_o_id: HashMap<(u32, u32), u32>,
    /// Oldest undelivered order id per (warehouse, district).
    next_delivery: HashMap<(u32, u32), u32>,
    history_seq: u32,
    stats: TpccStats,
    /// Page writes recorded during the load phase (excluded from the run trace).
    load_writes: usize,
}

impl TpccDriver {
    /// Create a driver and load the initial database.
    pub fn new(config: TpccConfig) -> Result<Self> {
        let store = TracingPageStore::new(MemPageStore::new(config.page_size));
        let pool = BufferPool::new(store, config.buffer_pool_pages);
        let tree = BTree::open(pool)?;
        let mut driver = Self {
            rng: StdRng::seed_from_u64(config.seed),
            tree,
            next_o_id: HashMap::new(),
            next_delivery: HashMap::new(),
            history_seq: 0,
            stats: TpccStats::default(),
            load_writes: 0,
            config,
        };
        driver.load()?;
        Ok(driver)
    }

    /// Transaction counts so far.
    pub fn stats(&self) -> TpccStats {
        self.stats
    }

    /// Number of rows currently in the tree.
    pub fn rows(&self) -> u64 {
        self.tree.len()
    }

    /// Execute `n` transactions with the standard TPC-C mix
    /// (45/43/4/4/4 New-Order/Payment/Order-Status/Delivery/Stock-Level).
    pub fn run(&mut self, n: u64) -> Result<()> {
        for _ in 0..n {
            let dice = self.rng.gen_range(0..100u32);
            if dice < 45 {
                self.new_order()?;
            } else if dice < 88 {
                self.payment()?;
            } else if dice < 92 {
                self.order_status()?;
            } else if dice < 96 {
                self.delivery()?;
            } else {
                self.stock_level()?;
            }
        }
        Ok(())
    }

    /// Flush the buffer pool and return the page-write trace of the *run* phase only
    /// (the load phase writes are excluded, as in the paper's methodology), together with
    /// the number of distinct pages the whole database occupies.
    pub fn finish(self) -> Result<(WriteTrace, u64)> {
        self.tree.flush()?;
        let load_writes = self.load_writes;
        let store = self.tree.into_store()?;
        let (trace, inner) = store.into_parts();
        let run_trace = WriteTrace {
            writes: trace.writes[load_writes..].to_vec(),
        };
        Ok((run_trace, inner.distinct_pages() as u64))
    }

    // ------------------------------------------------------------------
    // Load phase
    // ------------------------------------------------------------------

    fn load(&mut self) -> Result<()> {
        let c = self.config.clone();
        for i in 0..c.items {
            self.tree
                .insert(&key(Table::Item, &[i]), &row(Table::Item, i as u64))?;
        }
        for w in 0..c.warehouses {
            self.tree
                .insert(&key(Table::Warehouse, &[w]), &row(Table::Warehouse, 0))?;
            for i in 0..c.items {
                self.tree
                    .insert(&key(Table::Stock, &[w, i]), &row(Table::Stock, 100))?;
            }
            for d in 0..c.districts_per_warehouse {
                self.tree
                    .insert(&key(Table::District, &[w, d]), &row(Table::District, 0))?;
                for cu in 0..c.customers_per_district {
                    self.tree
                        .insert(&key(Table::Customer, &[w, d, cu]), &row(Table::Customer, 0))?;
                }
                for o in 0..c.initial_orders_per_district {
                    let customer = o % c.customers_per_district;
                    self.insert_order(w, d, o, customer, 5)?;
                }
                self.next_o_id.insert((w, d), c.initial_orders_per_district);
                // The last 30% of the initial orders are undelivered, per the spec.
                let undelivered_from =
                    c.initial_orders_per_district - (c.initial_orders_per_district * 3 / 10).max(1);
                self.next_delivery.insert((w, d), undelivered_from);
                for o in undelivered_from..c.initial_orders_per_district {
                    self.tree
                        .insert(&key(Table::NewOrder, &[w, d, o]), &row(Table::NewOrder, 0))?;
                }
            }
        }
        self.tree.flush()?;
        self.load_writes = self.tree.store().trace_len();
        Ok(())
    }

    fn insert_order(&mut self, w: u32, d: u32, o: u32, customer: u32, lines: u32) -> Result<()> {
        self.tree.insert(
            &key(Table::Order, &[w, d, o]),
            &row(Table::Order, customer as u64),
        )?;
        for l in 0..lines {
            let item = (o.wrapping_mul(31).wrapping_add(l * 7)) % self.config.items;
            self.tree.insert(
                &key(Table::OrderLine, &[w, d, o, l]),
                &row(Table::OrderLine, item as u64),
            )?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    fn pick_warehouse(&mut self) -> u32 {
        self.rng.gen_range(0..self.config.warehouses)
    }

    fn pick_district(&mut self) -> u32 {
        self.rng.gen_range(0..self.config.districts_per_warehouse)
    }

    /// NURand-style skewed customer choice: a third of accesses hit a "favourite" subset.
    fn pick_customer(&mut self) -> u32 {
        let n = self.config.customers_per_district;
        if self.rng.gen_bool(0.35) {
            self.rng.gen_range(0..(n / 10).max(1))
        } else {
            self.rng.gen_range(0..n)
        }
    }

    fn pick_item(&mut self) -> u32 {
        let n = self.config.items;
        if self.rng.gen_bool(0.3) {
            self.rng.gen_range(0..(n / 20).max(1))
        } else {
            self.rng.gen_range(0..n)
        }
    }

    fn bump(&mut self, k: &[u8], delta: u64) -> Result<()> {
        if let Some(cur) = self.tree.get(k)? {
            let v = embedded_value(&cur).wrapping_add(delta);
            let table_len = cur.len();
            let mut new = cur;
            let n = table_len.min(8);
            new[..n].copy_from_slice(&v.to_le_bytes()[..n]);
            self.tree.insert(k, &new)?;
        }
        Ok(())
    }

    fn new_order(&mut self) -> Result<()> {
        let w = self.pick_warehouse();
        let d = self.pick_district();
        let c = self.pick_customer();
        let o = *self.next_o_id.entry((w, d)).or_insert(0);
        self.next_o_id.insert((w, d), o + 1);

        // Read warehouse + customer, update the district's next order id.
        let _ = self.tree.get(&key(Table::Warehouse, &[w]))?;
        let _ = self.tree.get(&key(Table::Customer, &[w, d, c]))?;
        self.bump(&key(Table::District, &[w, d]), 1)?;

        let lines = self.rng.gen_range(5..=15u32);
        self.tree
            .insert(&key(Table::Order, &[w, d, o]), &row(Table::Order, c as u64))?;
        self.tree
            .insert(&key(Table::NewOrder, &[w, d, o]), &row(Table::NewOrder, 0))?;
        for l in 0..lines {
            let item = self.pick_item();
            let _ = self.tree.get(&key(Table::Item, &[item]))?;
            self.bump(&key(Table::Stock, &[w, item]), 1)?;
            self.tree.insert(
                &key(Table::OrderLine, &[w, d, o, l]),
                &row(Table::OrderLine, item as u64),
            )?;
        }
        self.stats.new_orders += 1;
        Ok(())
    }

    fn payment(&mut self) -> Result<()> {
        let w = self.pick_warehouse();
        let d = self.pick_district();
        let c = self.pick_customer();
        self.bump(&key(Table::Warehouse, &[w]), 7)?;
        self.bump(&key(Table::District, &[w, d]), 7)?;
        self.bump(&key(Table::Customer, &[w, d, c]), 7)?;
        let h = self.history_seq;
        self.history_seq += 1;
        self.tree.insert(
            &key(Table::History, &[w, d, c, h]),
            &row(Table::History, h as u64),
        )?;
        self.stats.payments += 1;
        Ok(())
    }

    fn order_status(&mut self) -> Result<()> {
        let w = self.pick_warehouse();
        let d = self.pick_district();
        let c = self.pick_customer();
        let _ = self.tree.get(&key(Table::Customer, &[w, d, c]))?;
        let last_o = self
            .next_o_id
            .get(&(w, d))
            .copied()
            .unwrap_or(0)
            .saturating_sub(1);
        let _ = self.tree.get(&key(Table::Order, &[w, d, last_o]))?;
        let _ = self.tree.range(
            &key(Table::OrderLine, &[w, d, last_o, 0]),
            &key(Table::OrderLine, &[w, d, last_o + 1, 0]),
        )?;
        self.stats.order_status += 1;
        Ok(())
    }

    fn delivery(&mut self) -> Result<()> {
        let w = self.pick_warehouse();
        for d in 0..self.config.districts_per_warehouse {
            let oldest = self.next_delivery.get(&(w, d)).copied().unwrap_or(0);
            let newest = self.next_o_id.get(&(w, d)).copied().unwrap_or(0);
            if oldest >= newest {
                continue;
            }
            self.next_delivery.insert((w, d), oldest + 1);
            self.tree.delete(&key(Table::NewOrder, &[w, d, oldest]))?;
            self.bump(&key(Table::Order, &[w, d, oldest]), 1)?;
            let lines = self.tree.range(
                &key(Table::OrderLine, &[w, d, oldest, 0]),
                &key(Table::OrderLine, &[w, d, oldest + 1, 0]),
            )?;
            let mut customer = 0u32;
            if let Some(order_row) = self.tree.get(&key(Table::Order, &[w, d, oldest]))? {
                customer =
                    (embedded_value(&order_row) % self.config.customers_per_district as u64) as u32;
            }
            for (k, _) in lines {
                self.bump(&k, 1)?;
            }
            self.bump(&key(Table::Customer, &[w, d, customer]), 3)?;
        }
        self.stats.deliveries += 1;
        Ok(())
    }

    fn stock_level(&mut self) -> Result<()> {
        let w = self.pick_warehouse();
        let d = self.pick_district();
        let _ = self.tree.get(&key(Table::District, &[w, d]))?;
        let newest = self.next_o_id.get(&(w, d)).copied().unwrap_or(0);
        let from = newest.saturating_sub(20);
        let lines = self.tree.range(
            &key(Table::OrderLine, &[w, d, from, 0]),
            &key(Table::OrderLine, &[w, d, newest, 0]),
        )?;
        for (_, v) in lines.iter().take(40) {
            let item = (embedded_value(v) % self.config.items as u64) as u32;
            let _ = self.tree.get(&key(Table::Stock, &[w, item]))?;
        }
        self.stats.stock_levels += 1;
        Ok(())
    }
}

impl std::fmt::Debug for TpccDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TpccDriver")
            .field("warehouses", &self.config.warehouses)
            .field("rows", &self.tree.len())
            .field("transactions", &self.stats.total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_populates_all_tables() {
        let cfg = TpccConfig::tiny_for_tests();
        let driver = TpccDriver::new(cfg.clone()).unwrap();
        // items + warehouse + stock + districts + customers + orders + order lines (5 per
        // order) + new orders (30%).
        let per_district = cfg.customers_per_district
            + cfg.initial_orders_per_district * (1 + 5)
            + (cfg.initial_orders_per_district * 3 / 10).max(1)
            + 1;
        let expected = cfg.items
            + cfg.warehouses * (1 + cfg.items)
            + cfg.warehouses * cfg.districts_per_warehouse * per_district;
        assert_eq!(driver.rows(), expected as u64);
    }

    #[test]
    fn transactions_run_and_modify_the_database() {
        let mut driver = TpccDriver::new(TpccConfig::tiny_for_tests()).unwrap();
        let rows_before = driver.rows();
        driver.run(300).unwrap();
        let stats = driver.stats();
        assert_eq!(stats.total(), 300);
        assert!(stats.new_orders > 80, "new orders: {stats:?}");
        assert!(stats.payments > 80, "payments: {stats:?}");
        assert!(stats.order_status + stats.deliveries + stats.stock_levels > 0);
        // New-Order and Payment insert rows, so the database grows.
        assert!(driver.rows() > rows_before);
    }

    #[test]
    fn run_trace_excludes_the_load_phase_and_is_skewed() {
        let mut driver = TpccDriver::new(TpccConfig::tiny_for_tests()).unwrap();
        driver.run(500).unwrap();
        let (trace, distinct_pages) = driver.finish().unwrap();
        assert!(!trace.is_empty(), "running TPC-C must produce page writes");
        assert!(distinct_pages > 0);
        // The trace touches a strict subset of the database's pages far more often than
        // uniformly: compare the most-written page against the mean.
        let (dense, n) = trace.densify();
        let freqs = dense.empirical_frequencies(n);
        let max = freqs.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max > 2.0,
            "TPC-C page-write trace should be skewed (hottest page at {max}x the mean)"
        );
        assert!(
            n <= distinct_pages,
            "trace cannot touch more pages than exist"
        );
    }

    #[test]
    fn driver_is_deterministic_for_a_seed() {
        let run = || {
            let mut d = TpccDriver::new(TpccConfig::tiny_for_tests()).unwrap();
            d.run(200).unwrap();
            let (trace, _) = d.finish().unwrap();
            trace.writes
        };
        assert_eq!(run(), run());
    }
}
