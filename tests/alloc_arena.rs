//! Resource-bound guarantees of the locality-first simulation core.
//!
//! Three contracts are pinned here:
//!
//! * **O(1) allocations per simulation pass.**  The struct-of-arrays
//!   [`SignatureArena`] replaces one heap `Vec<u64>` per node with a single
//!   contiguous allocation, so a full [`AigSimulator::run`] performs a
//!   constant number of heap allocations regardless of network size.  A
//!   counting `#[global_allocator]` measures the real number.
//!
//! * **Bounded pattern footprint under compaction.**  With
//!   `compact_every` set, the pattern set never retains more useful columns
//!   than the class structure can distinguish: every compaction event keeps
//!   at most `#AND nodes + 1` columns (partition refinement keeps one
//!   column per prototype split, and there are at most `#ANDs + 1`
//!   prototypes), so the live footprint stays bounded by that plus the
//!   compaction cadence.
//!
//! * **No allocation per propagated literal in the CDCL kernel.**  Watch
//!   lists are compacted in place and conflict analysis reuses its buffer,
//!   so a search allocates per learnt clause (plus amortized growth of the
//!   clause and watch vectors), not per propagation.
//!
//! The tests share a lock: the allocation counter is global, so no test
//! may allocate concurrently with another's measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use stp_sat_sweep::bitsim::{AigSimulator, PatternSet};
use stp_sat_sweep::netlist::{Aig, Lit};
use stp_sat_sweep::satsolver::{SatLit, SolveResult, Solver};
use stp_sat_sweep::workloads::{hwmcc_suite, inject_redundancy, Scale};
use stp_sat_sweep::{Engine, Observer, SweepConfig, Sweeper};

/// Counts every heap allocation made by the process.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the tests so one test's allocations cannot leak into
/// another's measurement window.
static SERIAL: Mutex<()> = Mutex::new(());

/// A wide synthetic network: enough AND nodes that a per-node layout would
/// be forced into thousands of signature allocations.
fn wide_aig(num_ands: usize) -> Aig {
    let mut aig = Aig::new();
    let xs = aig.add_inputs("x", 16);
    let mut layer: Vec<Lit> = xs.clone();
    let mut built = 0usize;
    while built < num_ands {
        let mut next = Vec::new();
        for i in 0..layer.len().min(num_ands - built) {
            let a = layer[i];
            let b = layer[(i * 7 + 3) % layer.len()];
            next.push(aig.and(a, if i % 2 == 0 { b } else { !b }));
            built += 1;
        }
        layer = next;
    }
    for (i, &lit) in layer.iter().take(4).enumerate() {
        aig.add_output(format!("o{i}"), lit);
    }
    aig
}

#[test]
fn simulation_pass_performs_constant_allocations() {
    let _guard = SERIAL.lock().unwrap();
    let aig = wide_aig(3000);
    assert!(aig.num_nodes() >= 3000, "workload must be wide");
    let patterns = PatternSet::random(16, 4096, 0xA110C).unwrap();
    let sim = AigSimulator::new(&aig);

    // Warm up once so lazily initialized runtime structures (test harness
    // buffers, etc.) don't count against the measured pass.
    let warm = sim.run(&patterns);
    drop(warm);

    let before = ALLOCS.load(Ordering::SeqCst);
    let state = sim.run(&patterns);
    let after = ALLOCS.load(Ordering::SeqCst);
    let allocs = after - before;

    // The arena needs two allocations (the word plane and the generation
    // tags).  Allow a little slack for allocator-internal bookkeeping, but
    // stay orders of magnitude below the per-node layout's floor of one
    // allocation per AND node.
    assert!(
        allocs <= 8,
        "expected O(1) allocations for {} nodes, measured {allocs}",
        aig.num_nodes()
    );
    assert_eq!(state.num_patterns(), 4096);
}

/// Records every compaction event a sweep emits.
#[derive(Default)]
struct CompactionLog {
    events: Vec<(usize, usize)>,
}

impl Observer for CompactionLog {
    fn on_compaction(&mut self, kept: usize, dropped: usize) {
        self.events.push((kept, dropped));
    }
}

#[test]
fn compaction_bounds_the_pattern_footprint() {
    let _guard = SERIAL.lock().unwrap();
    let bench = hwmcc_suite(Scale::Tiny)
        .into_iter()
        .find(|b| b.name == "beemfwt5b3")
        .expect("the suite contains beemfwt5b3");
    let aig = inject_redundancy(&bench.aig, 0.3, 11);
    let num_ands = aig.num_nodes() - aig.num_inputs() - 1;

    let mut log = CompactionLog::default();
    let result = Sweeper::new(Engine::Stp)
        .config(
            SweepConfig {
                num_initial_patterns: 16,
                sat_guided_patterns: false,
                ..SweepConfig::default()
            }
            .compact_every(1),
        )
        .observer(&mut log)
        .run(&aig)
        .expect("sweep finishes");
    assert!(
        result.report.sat_calls_sat >= 2,
        "workload must produce counter-examples"
    );

    assert!(!log.events.is_empty(), "compaction never fired");
    assert!(
        log.events.iter().any(|&(_, dropped)| dropped > 0),
        "compaction never dropped a column"
    );
    // Partition refinement keeps at most one column per prototype split;
    // prototypes are the constant row plus one per node, so the kept
    // footprint can never exceed the class structure's resolving power.
    for &(kept, _) in &log.events {
        assert!(
            kept <= num_ands + 1,
            "compaction kept {kept} columns, bound is {} + 1",
            num_ands
        );
    }
    assert_eq!(
        result.report.patterns_dropped,
        log.events.iter().map(|&(_, d)| d as u64).sum::<u64>(),
        "report aggregates the observer's dropped counts"
    );
}

/// The pigeonhole formula PHP(pigeons, holes): every pigeon sits in some
/// hole, no hole holds two pigeons.  Unsatisfiable when pigeons > holes,
/// and hard enough for thousands of conflicts.
fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
    let mut solver = Solver::new();
    let grid: Vec<Vec<_>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| solver.new_var()).collect())
        .collect();
    for row in &grid {
        let clause: Vec<SatLit> = row.iter().map(|&v| SatLit::positive(v)).collect();
        solver.add_clause(&clause);
    }
    for (p, row) in grid.iter().enumerate() {
        for other in &grid[p + 1..] {
            for (&a, &b) in row.iter().zip(other) {
                solver.add_clause(&[SatLit::negative(a), SatLit::negative(b)]);
            }
        }
    }
    solver
}

#[test]
fn cdcl_search_allocates_per_conflict_not_per_propagation() {
    let _guard = SERIAL.lock().unwrap();
    let mut solver = pigeonhole(7, 6);

    let before = ALLOCS.load(Ordering::SeqCst);
    let result = solver.solve();
    let after = ALLOCS.load(Ordering::SeqCst);
    let allocs = (after - before) as u64;

    assert_eq!(result, SolveResult::Unsat);
    let stats = solver.stats();
    assert!(
        stats.conflicts >= 500,
        "the instance must be hard ({} conflicts)",
        stats.conflicts
    );
    // One learnt clause per conflict plus amortized vector growth and the
    // occasional learnt-database reduction.
    let bound = 2 * stats.conflicts + 500;
    assert!(
        allocs <= bound,
        "{allocs} allocations for {} conflicts (bound {bound})",
        stats.conflicts
    );
    // A kernel that allocates per propagated literal needs at least
    // `propagations` allocations.
    assert!(
        allocs * 4 < stats.propagations,
        "{allocs} allocations for {} propagations: the kernel allocates per propagation",
        stats.propagations
    );
}
