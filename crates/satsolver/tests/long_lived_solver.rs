//! Differential test of a long-lived incremental [`CircuitSat`].
//!
//! A sweep proves every candidate on one solver, so that solver sees
//! hundreds of queries: each leaves learnt clauses and a retired selector
//! behind, and propagation runs over watch lists that keep growing.  Here
//! one solver per seeded random AIG (at most 12 inputs) answers at least
//! 500 mixed `prove_equivalent` / `prove_constant` queries, and every answer
//! is checked without trusting the solver: against truth tables computed by
//! exhaustive word-parallel evaluation, and every counter-example by
//! simulating the network on it.

use netlist::{Aig, AigNode, Lit, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use satsolver::{CircuitSat, EquivOutcome};
use truthtable::TruthTable;

/// Queries per solver; the test runs several solvers.
const QUERIES: usize = 600;

/// A random AIG over `num_inputs` inputs with `num_gates` AND gates and
/// planted redundancy: some gates are rebuilt with a different structure
/// (`x ∧ (x ∧ y)` for `x ∧ y`) and some are constant but not folded
/// (`(x ∧ y) ∧ ¬x`), so that UNSAT answers occur alongside SAT ones.
fn random_aig(rng: &mut StdRng, num_inputs: usize, num_gates: usize) -> Aig {
    let mut aig = Aig::new();
    let mut lits: Vec<Lit> = aig.add_inputs("x", num_inputs);
    while aig.num_ands() < num_gates {
        let pick = |rng: &mut StdRng, lits: &[Lit]| {
            let lit = lits[rng.gen_range(0..lits.len())];
            if rng.gen_bool(0.5) {
                !lit
            } else {
                lit
            }
        };
        let x = pick(rng, &lits);
        let y = pick(rng, &lits);
        let gate = match rng.gen_range(0..10) {
            0 | 1 => {
                let inner = aig.and(x, y);
                aig.and(x, inner)
            }
            2 => {
                let inner = aig.and(x, y);
                aig.and(inner, !x)
            }
            3 => aig.xor(x, y),
            _ => aig.and(x, y),
        };
        if !gate.is_constant() {
            lits.push(gate);
        }
    }
    for (k, &lit) in lits.iter().rev().take(4).enumerate() {
        aig.add_output(format!("y{k}"), lit);
    }
    aig
}

/// The truth table of every node, by exhaustive word-parallel evaluation.
fn node_tables(aig: &Aig) -> Vec<TruthTable> {
    let n = aig.num_inputs();
    let mut tables: Vec<TruthTable> = Vec::with_capacity(aig.num_nodes());
    for id in aig.node_ids() {
        let table = match aig.node(id) {
            AigNode::Const0 => TruthTable::zeros(n),
            AigNode::Input { position } => TruthTable::variable(n, *position),
            AigNode::And { fanin0, fanin1 } => {
                let words = |lit: &Lit| {
                    let mask = if lit.is_complemented() { u64::MAX } else { 0 };
                    tables[lit.node()]
                        .words()
                        .iter()
                        .map(move |w| w ^ mask)
                        .collect::<Vec<u64>>()
                };
                let anded: Vec<u64> = words(fanin0)
                    .iter()
                    .zip(words(fanin1))
                    .map(|(a, b)| a & b)
                    .collect();
                TruthTable::from_words(n, &anded)
            }
        };
        tables.push(table);
    }
    tables
}

/// The value of `lit` when the network is simulated on `assignment`.
fn simulate(aig: &Aig, assignment: &[bool], lit: Lit) -> bool {
    let mut values = vec![false; aig.num_nodes()];
    for id in aig.node_ids() {
        values[id] = match aig.node(id) {
            AigNode::Const0 => false,
            AigNode::Input { position } => assignment[*position],
            AigNode::And { fanin0, fanin1 } => {
                (values[fanin0.node()] ^ fanin0.is_complemented())
                    && (values[fanin1.node()] ^ fanin1.is_complemented())
            }
        };
    }
    values[lit.node()] ^ lit.is_complemented()
}

/// Whether two literals compute the same function.
fn same_function(tables: &[TruthTable], a: Lit, b: Lit) -> bool {
    let (ta, tb) = (&tables[a.node()], &tables[b.node()]);
    if a.is_complemented() == b.is_complemented() {
        ta == tb
    } else {
        ta.words()
            .iter()
            .zip(tb.words())
            .all(|(x, y)| x ^ y == u64::MAX >> (64 - ta.num_bits().min(64)))
    }
}

#[test]
fn one_solver_answers_hundreds_of_mixed_queries_correctly() {
    let mut totals = [0usize; 3]; // equivalent, counter-example, constant proofs
    for seed in [3u64, 17, 29] {
        let mut rng = StdRng::seed_from_u64(seed);
        let num_inputs = rng.gen_range(6..=12);
        let aig = random_aig(&mut rng, num_inputs, 160);
        let tables = node_tables(&aig);
        let gates: Vec<NodeId> = aig.and_ids().collect();
        // Pairs with equal functions, found from the truth tables, so that
        // proofs (UNSAT answers) make up a real share of the queries.
        let mut equal_pairs = Vec::new();
        for (i, &a) in gates.iter().enumerate() {
            for &b in &gates[i + 1..] {
                for complemented in [false, true] {
                    let lb = Lit::new(b, complemented);
                    if same_function(&tables, Lit::positive(a), lb) {
                        equal_pairs.push((Lit::positive(a), lb));
                    }
                }
            }
        }
        assert!(
            !equal_pairs.is_empty(),
            "seed {seed}: the planted redundancy must yield equal pairs"
        );

        let mut sat = CircuitSat::new(&aig);
        for query in 0..QUERIES {
            let node = |rng: &mut StdRng| gates[rng.gen_range(0..gates.len())];
            let context = format!("seed {seed}, query {query}");
            if rng.gen_bool(0.3) {
                let lit = Lit::positive(node(&mut rng));
                let value = rng.gen_bool(0.5);
                let table = &tables[lit.node()];
                let constant = if value {
                    table.is_const1()
                } else {
                    table.is_const0()
                };
                match sat.prove_constant(lit, value, 1_000_000) {
                    EquivOutcome::Equivalent => {
                        assert!(constant, "{context}: false constant proof");
                        totals[2] += 1;
                    }
                    EquivOutcome::CounterExample(ce) => {
                        assert!(!constant, "{context}: constant refuted");
                        assert_ne!(
                            simulate(&aig, &ce, lit),
                            value,
                            "{context}: counter-example does not refute the constant"
                        );
                        totals[1] += 1;
                    }
                    EquivOutcome::Undetermined => panic!("{context}: budget exhausted"),
                }
            } else {
                let (a, b) = if rng.gen_bool(0.4) {
                    equal_pairs[rng.gen_range(0..equal_pairs.len())]
                } else {
                    let b = Lit::new(node(&mut rng), rng.gen_bool(0.5));
                    (Lit::positive(node(&mut rng)), b)
                };
                let equal = same_function(&tables, a, b);
                match sat.prove_equivalent(a, b, 1_000_000) {
                    EquivOutcome::Equivalent => {
                        assert!(equal, "{context}: false equivalence proof");
                        totals[0] += 1;
                    }
                    EquivOutcome::CounterExample(ce) => {
                        assert!(!equal, "{context}: equivalence refuted");
                        assert_ne!(
                            simulate(&aig, &ce, a),
                            simulate(&aig, &ce, b),
                            "{context}: counter-example does not distinguish the pair"
                        );
                        totals[1] += 1;
                    }
                    EquivOutcome::Undetermined => panic!("{context}: budget exhausted"),
                }
            }
        }
        assert_eq!(sat.query_stats().total_calls, QUERIES as u64);
    }
    let [equivalent, refuted, constants] = totals;
    assert!(
        equivalent >= 100 && refuted >= 100 && constants > 0,
        "the mix must exercise both answers: {equivalent} proofs, \
         {refuted} counter-examples, {constants} constant proofs"
    );
}
