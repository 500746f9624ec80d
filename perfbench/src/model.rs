//! An independent model of what the generated programs print.
//!
//! The benchmark never takes an expected output from the compiler under
//! test. Instead it re-derives each generated unit's constants from the
//! corpus seed (the same SplitMix64 keying the generator documents) and
//! evaluates the program's arithmetic directly in Rust.
//!
//! * Exec corpus: `main` prints `E{uid}:{E{uid}run(iters)}` per unit, then
//!   the total.
//! * Linked corpus: `main` prints one line, the sum of three `drive` calls
//!   and one `entry` call per unit, at the current edit state.

/// SplitMix64 finaliser, as used by the generator to key per-unit
/// constants.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Expected `println` lines of an exec corpus with `units` units.
pub fn exec_output(seed: u64, units: usize, iters: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(units + 1);
    let mut total: i64 = 0;
    for uid in 0..units {
        let part = exec_run(seed, uid, iters as i64);
        lines.push(format!("E{uid}:{part}"));
        total += part;
    }
    lines.push(total.to_string());
    lines
}

/// `E{uid}run(iters)`: the polymorphic loop, the counter loop, the static
/// call chain and the guest recursion, summed.
fn exec_run(seed: u64, uid: usize, iters: i64) -> i64 {
    let k = mix(seed ^ mix(uid as u64 + 0xe8));
    let k1 = (k % 7 + 2) as i64;
    let k2 = ((k >> 8) % 11 + 1) as i64;
    let k3 = ((k >> 16) % 13 + 1) as i64;
    let depth = (160 + (k >> 24) % 80) as i64;

    // poly: Circle.area + Square.area + Tri.area + Circle.tag + Tri.tag.
    let mut poly = 0i64;
    for i in 0..iters {
        poly += (i * k1 + k3) + (i * i + k2) + (i + i + k3) + k2 + (k1 + 1);
    }
    // mono: a counter seeded with k2, bumped by i % 3 + 1.
    let mut count = k2;
    for i in 0..iters {
        count += i % 3 + 1;
    }
    // chain11(n) = n + k1 + sum of (c % 3 + 1) for c in 1..12.
    let chain_add: i64 = (1..12).map(|c| c % 3 + 1).sum();
    let mut chains = 0i64;
    for j in 0..iters {
        chains += j % 31 + k1 + chain_add;
    }
    // deep(n) counts down to k2.
    let deep = depth + k2;
    poly + count + chains + deep
}

/// The edit state of one linked unit: how many body edits it has seen and
/// which arity its exported `spare` helper currently has.
#[derive(Clone, Copy, Default)]
pub struct UnitState {
    /// Body-edit count (perturbs `k3`).
    pub body_salt: u64,
    /// 0: `spare(n)`, 1: `spare(n, m)`.
    pub sig_variant: u8,
}

/// The linked corpus: unit constants and the dependency graph, re-derived
/// from the corpus seed.
pub struct LinkedModel {
    keys: Vec<u64>,
    deps: Vec<Vec<usize>>,
}

impl LinkedModel {
    /// Derives keys and dependencies for `units` units.
    pub fn new(seed: u64, units: usize) -> LinkedModel {
        let keys: Vec<u64> = (0..units)
            .map(|uid| mix(seed ^ mix(uid as u64 + 1)))
            .collect();
        let deps = (0..units)
            .map(|uid| {
                if uid == 0 {
                    return Vec::new();
                }
                let k = keys[uid];
                let mut d = vec![(k % uid as u64) as usize];
                if uid > 1 && !k.is_multiple_of(3) {
                    let second = ((k >> 16) % uid as u64) as usize;
                    if second != d[0] {
                        d.push(second);
                    }
                }
                d
            })
            .collect();
        LinkedModel { keys, deps }
    }

    /// The line `main` prints when every unit is at `states`.
    pub fn main_output(&self, states: &[UnitState]) -> String {
        let n = self.keys.len();
        let mut total = 0i64;
        for uid in [0, n / 2, n - 1] {
            total += self.drive(states, uid, (uid % 4 + 2) as i64);
        }
        for uid in 0..n {
            total += self.entry(states, uid, (uid % 5 + 1) as i64);
        }
        total.to_string()
    }

    fn consts(&self, states: &[UnitState], uid: usize) -> (i64, i64, i64, i64) {
        let k = self.keys[uid];
        let k1 = (k % 7 + 2) as i64;
        let k2 = ((k >> 8) % 11 + 1) as i64;
        let k3 = ((k >> 16) % 13 + 1) as i64 + states[uid].body_salt as i64 * 17;
        let k4 = ((k >> 24) % 5 + 1) as i64;
        (k1, k2, k3, k4)
    }

    fn entry(&self, states: &[UnitState], uid: usize, n: i64) -> i64 {
        let (k1, k2, k3, _) = self.consts(states, uid);
        let seedv = n * k1 + k3;
        // helper: three loop steps add 0, k2 and 2 * k2, then a Collatz step.
        let acc = seedv + 3 * k2;
        let helper = if acc % 2 == 0 { acc / 2 } else { acc * 3 + 1 };
        let mut local = helper;
        for &d in &self.deps[uid] {
            local += self.entry(states, d, seedv % 5 + (d % 3 + 1) as i64);
        }
        let spare = if states[uid].sig_variant.is_multiple_of(2) {
            local + k3
        } else {
            local + 2 + k3
        };
        spare + local
    }

    fn drive(&self, states: &[UnitState], uid: usize, n: i64) -> i64 {
        let (_, _, k3, k4) = self.consts(states, uid);
        // The box starts at n + k3; the closure pokes it by n, then calls
        // entry; the tag match adds k4 to the Int it is given.
        let poked = n + k3 + n;
        poked + self.entry(states, uid, n) + (n * k4 + k4)
    }
}
