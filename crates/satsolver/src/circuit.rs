//! Incremental circuit front-end: SAT queries directly on AIG nodes.
//!
//! The SAT sweeper asks two kinds of questions about nodes of an AIG:
//! *is node `a` equivalent to node `b` (possibly complemented)?* and *is node
//! `a` a constant?*  [`CircuitSat`] answers both by lazily Tseitin-encoding
//! the transitive-fanin cones of the queried literals into one incremental
//! [`Solver`] (this mirrors the "circuit-based SAT solver \[with\] direct
//! access to the network" used in the paper), and translates satisfying
//! assignments back into counter-example patterns over the primary inputs.

use crate::cnf::{SatLit, Var};
use crate::solver::{SolveResult, Solver, SolverSnapshot, SolverStats};
use netlist::{Aig, AigNode, Lit, NodeId};

/// A complete snapshot of a [`CircuitSat`] front-end: the underlying
/// [`SolverSnapshot`] plus the lazy node-encoding maps.  Restoring it against
/// the *same* AIG (see [`CircuitSat::from_snapshot`]) yields a front-end
/// whose future query answers are identical to the original's — the building
/// block of the sweeping engine's checkpoint/resume guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitSatSnapshot {
    /// The CDCL solver state.
    pub solver: SolverSnapshot,
    /// SAT variable index of each AIG node, if allocated.
    pub node_var: Vec<Option<u32>>,
    /// Whether each node's AND-gate clauses have been added.
    pub encoded: Vec<bool>,
    /// Query statistics.
    pub stats: QueryStats,
}

/// Outcome of an equivalence or constant-ness query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivOutcome {
    /// The property was proved (the miter is unsatisfiable).
    Equivalent,
    /// The property was disproved; the payload is a counter-example
    /// assignment over the primary inputs (in PI declaration order).
    CounterExample(Vec<bool>),
    /// The conflict budget was exhausted (`unDET` in the paper).
    Undetermined,
}

/// Counters describing the SAT activity of a sweeping run (the "SAT calls"
/// and "Total SAT calls" columns of Table II).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Total number of SAT queries issued.
    pub total_calls: u64,
    /// Queries answered "satisfiable" (a counter-example was produced).
    pub sat_calls: u64,
    /// Queries answered "unsatisfiable" (the property was proved).
    pub unsat_calls: u64,
    /// Queries that exhausted their conflict budget.
    pub undetermined_calls: u64,
}

/// Incremental SAT interface over a fixed AIG.
///
/// ```
/// use netlist::Aig;
/// use satsolver::{CircuitSat, EquivOutcome};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let f = aig.and(a, b);
/// let g = aig.and(b, a);
/// aig.add_output("f", f);
///
/// let mut sat = CircuitSat::new(&aig);
/// assert_eq!(sat.prove_equivalent(f, g, 1_000), EquivOutcome::Equivalent);
/// match sat.prove_equivalent(f, a, 1_000) {
///     EquivOutcome::CounterExample(ce) => assert_eq!(ce.len(), 2),
///     other => panic!("expected counter-example, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct CircuitSat<'a> {
    aig: &'a Aig,
    solver: Solver,
    /// SAT variable of each AIG node, allocated lazily.
    node_var: Vec<Option<Var>>,
    /// Whether the AND-gate clauses of a node have been added.
    encoded: Vec<bool>,
    stats: QueryStats,
    /// Counter-example scratch: `justified[n] == justify_stamp` marks the
    /// nodes justified for the current counter-example (a fresh stamp per
    /// query instead of clearing the vector).
    justified: Vec<u32>,
    justify_stamp: u32,
    justify_stack: Vec<NodeId>,
}

impl<'a> CircuitSat<'a> {
    /// Creates a front-end for the given AIG.
    pub fn new(aig: &'a Aig) -> Self {
        CircuitSat {
            aig,
            solver: Solver::new(),
            node_var: vec![None; aig.num_nodes()],
            encoded: vec![false; aig.num_nodes()],
            stats: QueryStats::default(),
            justified: vec![0; aig.num_nodes()],
            justify_stamp: 0,
            justify_stack: Vec::new(),
        }
    }

    /// Statistics about the queries issued so far.
    pub fn query_stats(&self) -> QueryStats {
        self.stats
    }

    /// Statistics of the underlying CDCL solver.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Captures the complete front-end state (see [`CircuitSatSnapshot`]).
    pub fn snapshot(&self) -> CircuitSatSnapshot {
        CircuitSatSnapshot {
            solver: self.solver.snapshot(),
            node_var: self
                .node_var
                .iter()
                .map(|v| v.map(|v| v.index() as u32))
                .collect(),
            encoded: self.encoded.clone(),
            stats: self.stats,
        }
    }

    /// Rebuilds a front-end over `aig` from a snapshot taken against the
    /// same network.  Returns an error message if the snapshot's arities or
    /// references do not fit the network or the solver state is corrupt.
    pub fn from_snapshot(aig: &'a Aig, snap: &CircuitSatSnapshot) -> Result<Self, &'static str> {
        if snap.node_var.len() != aig.num_nodes() || snap.encoded.len() != aig.num_nodes() {
            return Err("circuit snapshot was taken against a different network");
        }
        let solver = Solver::from_snapshot(&snap.solver)?;
        if snap
            .node_var
            .iter()
            .flatten()
            .any(|&v| v as usize >= solver.num_vars())
        {
            return Err("circuit snapshot references an unallocated SAT variable");
        }
        Ok(CircuitSat {
            aig,
            solver,
            node_var: snap
                .node_var
                .iter()
                .map(|v| v.map(|v| Var::from_index(v as usize)))
                .collect(),
            encoded: snap.encoded.clone(),
            stats: snap.stats,
            justified: vec![0; aig.num_nodes()],
            justify_stamp: 0,
            justify_stack: Vec::new(),
        })
    }

    /// The SAT literal corresponding to an AIG literal, encoding the node's
    /// transitive fanin on demand.
    pub fn lit_to_sat(&mut self, lit: Lit) -> SatLit {
        self.encode_cone(lit.node());
        let var = self.node_var[lit.node()].expect("cone encoding allocates the variable");
        SatLit::new(var, lit.is_complemented())
    }

    fn var_of(&mut self, node: NodeId) -> Var {
        if let Some(v) = self.node_var[node] {
            return v;
        }
        let v = self.solver.new_var();
        self.node_var[node] = Some(v);
        v
    }

    /// Adds the Tseitin clauses of `node`'s transitive fanin (iteratively, to
    /// avoid recursion depth limits on deep circuits).
    fn encode_cone(&mut self, node: NodeId) {
        let mut stack = vec![node];
        while let Some(current) = stack.pop() {
            if self.encoded[current] {
                continue;
            }
            self.encoded[current] = true;
            match self.aig.node(current) {
                AigNode::Const0 => {
                    let v = self.var_of(current);
                    self.solver.add_clause(&[SatLit::negative(v)]);
                }
                AigNode::Input { .. } => {
                    let _ = self.var_of(current);
                }
                AigNode::And { fanin0, fanin1 } => {
                    let (f0, f1) = (*fanin0, *fanin1);
                    let out = self.var_of(current);
                    let a_var = self.var_of(f0.node());
                    let b_var = self.var_of(f1.node());
                    let a = SatLit::new(a_var, f0.is_complemented());
                    let b = SatLit::new(b_var, f1.is_complemented());
                    let out = SatLit::positive(out);
                    self.solver.add_clause(&[!out, a]);
                    self.solver.add_clause(&[!out, b]);
                    self.solver.add_clause(&[out, !a, !b]);
                    stack.push(f0.node());
                    stack.push(f1.node());
                }
            }
        }
    }

    /// Extracts the primary-input assignment of the current model.  Inputs
    /// that were never encoded or left unassigned default to `false`.
    fn extract_assignment(&self) -> Vec<bool> {
        self.aig
            .inputs()
            .iter()
            .map(|&node| {
                self.node_var[node]
                    .and_then(|v| self.solver.model_value(v))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// The value of an encoded node in the current model.
    fn model_node_value(&self, node: NodeId) -> bool {
        self.node_var[node]
            .and_then(|v| self.solver.model_value(v))
            .unwrap_or(false)
    }

    /// Extracts a counter-example for a query on `roots`: the model's
    /// values on the inputs that *justify* the roots' model values, `false`
    /// on every other input.
    ///
    /// Justification walks back from the roots: an AND node at 1 needs both
    /// fanins, an AND node at 0 needs one fanin at 0 (the first, if both
    /// are).  Any assignment that agrees with the model on the justified
    /// inputs gives the roots their model values, so the result is still a
    /// counter-example.  Fixing the rest matters for a solver that lives
    /// for a whole sweep: inputs outside the justification — inside the
    /// cone or not — carry leftovers of earlier, unrelated search, and the
    /// counter-example should depend on the queried cone, not on them.
    fn extract_counterexample(&mut self, roots: &[NodeId]) -> Vec<bool> {
        self.justify_stamp = self.justify_stamp.wrapping_add(1);
        if self.justify_stamp == 0 {
            self.justified.fill(0);
            self.justify_stamp = 1;
        }
        let stamp = self.justify_stamp;
        let mut stack = std::mem::take(&mut self.justify_stack);
        stack.extend_from_slice(roots);
        while let Some(node) = stack.pop() {
            if self.justified[node] == stamp {
                continue;
            }
            self.justified[node] = stamp;
            if let AigNode::And { fanin0, fanin1 } = *self.aig.node(node) {
                if self.model_node_value(node) {
                    stack.push(fanin0.node());
                    stack.push(fanin1.node());
                } else if self.model_node_value(fanin0.node()) == fanin0.is_complemented() {
                    stack.push(fanin0.node());
                } else {
                    stack.push(fanin1.node());
                }
            }
        }
        self.justify_stack = stack;
        self.aig
            .inputs()
            .iter()
            .map(|&node| self.justified[node] == stamp && self.model_node_value(node))
            .collect()
    }

    fn record(&mut self, result: SolveResult) {
        self.stats.total_calls += 1;
        match result {
            SolveResult::Sat => self.stats.sat_calls += 1,
            SolveResult::Unsat => self.stats.unsat_calls += 1,
            SolveResult::Unknown => self.stats.undetermined_calls += 1,
        }
    }

    /// Checks whether two AIG literals are functionally equivalent,
    /// spending at most `conflict_budget` conflicts.
    ///
    /// The query encodes the miter `a ⊕ b` and asks for a satisfying
    /// assignment; UNSAT proves equivalence, SAT yields a counter-example
    /// over the primary inputs.
    pub fn prove_equivalent(&mut self, a: Lit, b: Lit, conflict_budget: u64) -> EquivOutcome {
        let sa = self.lit_to_sat(a);
        let sb = self.lit_to_sat(b);
        // Fresh selector variable d with d → (a ⊕ b); assuming d asks the
        // solver to find a distinguishing assignment.
        let d = self.solver.new_var();
        let d_pos = SatLit::positive(d);
        // d ∧ a → ¬b  and  d ∧ ¬a → b
        self.solver.add_clause(&[!d_pos, !sa, !sb]);
        self.solver.add_clause(&[!d_pos, sa, sb]);
        let result = self.solver.solve_limited(&[d_pos], conflict_budget);
        self.record(result);
        let outcome = match result {
            SolveResult::Unsat => EquivOutcome::Equivalent,
            SolveResult::Sat => {
                EquivOutcome::CounterExample(self.extract_counterexample(&[a.node(), b.node()]))
            }
            SolveResult::Unknown => EquivOutcome::Undetermined,
        };
        // Retire the selector: with ¬d a level-0 unit, both miter clauses
        // stay satisfied for good and `d` is never branched on again, so a
        // solver that lives for a whole sweep does not drag dead miters
        // through its search.
        self.solver.add_clause(&[!d_pos]);
        outcome
    }

    /// Checks whether an AIG literal is the constant `value`.
    ///
    /// UNSAT (no assignment makes the literal differ from `value`) proves
    /// constant-ness; SAT yields a counter-example.
    pub fn prove_constant(&mut self, lit: Lit, value: bool, conflict_budget: u64) -> EquivOutcome {
        let sl = self.lit_to_sat(lit);
        let goal = if value { !sl } else { sl };
        let result = self.solver.solve_limited(&[goal], conflict_budget);
        self.record(result);
        match result {
            SolveResult::Unsat => EquivOutcome::Equivalent,
            SolveResult::Sat => {
                EquivOutcome::CounterExample(self.extract_counterexample(&[lit.node()]))
            }
            SolveResult::Unknown => EquivOutcome::Undetermined,
        }
    }

    /// Finds an assignment satisfying all given AIG literals simultaneously
    /// (used by SAT-guided pattern generation).  Returns `None` if no such
    /// assignment exists or the budget ran out.
    pub fn find_assignment(
        &mut self,
        constraints: &[Lit],
        conflict_budget: u64,
    ) -> Option<Vec<bool>> {
        let assumptions: Vec<SatLit> = constraints.iter().map(|&l| self.lit_to_sat(l)).collect();
        let result = self.solver.solve_limited(&assumptions, conflict_budget);
        self.record(result);
        match result {
            SolveResult::Sat => Some(self.extract_assignment()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn redundant_aig() -> (Aig, Lit, Lit, Lit) {
        // f = a & b built twice with different structure, plus g = a ^ b.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f1 = aig.and(a, b);
        let f2_inner = aig.and(f1, b); // (a & b) & b == a & b
        let g = aig.xor(a, b);
        aig.add_output("f", f2_inner);
        aig.add_output("g", g);
        (aig, f1, f2_inner, g)
    }

    #[test]
    fn proves_true_equivalence() {
        let (aig, f1, f2, _) = redundant_aig();
        let mut sat = CircuitSat::new(&aig);
        assert_eq!(
            sat.prove_equivalent(f1, f2, 10_000),
            EquivOutcome::Equivalent
        );
        assert_eq!(sat.query_stats().unsat_calls, 1);
    }

    #[test]
    fn disproves_with_counterexample() {
        let (aig, f1, _, g) = redundant_aig();
        let mut sat = CircuitSat::new(&aig);
        match sat.prove_equivalent(f1, g, 10_000) {
            EquivOutcome::CounterExample(ce) => {
                // The counter-example must actually distinguish the nodes.
                let values = aig.evaluate(&ce);
                let _ = values;
                let f_val = eval_lit(&aig, f1, &ce);
                let g_val = eval_lit(&aig, g, &ce);
                assert_ne!(f_val, g_val);
            }
            other => panic!("expected a counter-example, got {other:?}"),
        }
        assert_eq!(sat.query_stats().sat_calls, 1);
    }

    fn eval_lit(aig: &Aig, lit: Lit, assignment: &[bool]) -> bool {
        // Evaluate by creating a throwaway network view: reuse Aig::evaluate
        // via a scratch AIG is overkill; walk values directly instead.
        let mut values = vec![false; aig.num_nodes()];
        for id in aig.node_ids() {
            values[id] = match aig.node(id) {
                netlist::AigNode::Const0 => false,
                netlist::AigNode::Input { position } => assignment[*position],
                netlist::AigNode::And { fanin0, fanin1 } => {
                    (values[fanin0.node()] ^ fanin0.is_complemented())
                        && (values[fanin1.node()] ^ fanin1.is_complemented())
                }
            };
        }
        values[lit.node()] ^ lit.is_complemented()
    }

    #[test]
    fn complemented_equivalence() {
        let (aig, f1, f2, _) = redundant_aig();
        let mut sat = CircuitSat::new(&aig);
        // f1 and !f2 differ everywhere: expect a counter-example.
        assert!(matches!(
            sat.prove_equivalent(f1, !f2, 10_000),
            EquivOutcome::CounterExample(_)
        ));
        // The complemented pair is equivalent.
        assert_eq!(
            sat.prove_equivalent(!f1, !f2, 10_000),
            EquivOutcome::Equivalent
        );
    }

    #[test]
    fn constant_detection() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        // h = (a & b) & (!a) is constant false but not folded structurally.
        let t = aig.and(a, b);
        let h = aig.and(t, !a);
        aig.add_output("h", h);
        let mut sat = CircuitSat::new(&aig);
        assert_eq!(
            sat.prove_constant(h, false, 10_000),
            EquivOutcome::Equivalent
        );
        match sat.prove_constant(t, false, 10_000) {
            EquivOutcome::CounterExample(ce) => {
                assert!(eval_lit(&aig, t, &ce));
            }
            other => panic!("expected counter-example, got {other:?}"),
        }
    }

    #[test]
    fn find_assignment_satisfies_constraints() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let g1 = aig.xor(a, b);
        let g2 = aig.or(b, c);
        aig.add_output("g1", g1);
        aig.add_output("g2", g2);
        let mut sat = CircuitSat::new(&aig);
        let assignment = sat.find_assignment(&[g1, !g2], 10_000);
        // g1 = a^b = 1 and g2 = b|c = 0 forces b=0, c=0, a=1.
        assert_eq!(assignment, Some(vec![true, false, false]));
        // Contradictory constraints have no assignment.
        assert_eq!(sat.find_assignment(&[g1, !g1], 10_000), None);
    }

    #[test]
    fn circuit_snapshot_restore_answers_identically() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 6);
        let mut gates = Vec::new();
        for i in 0..5 {
            gates.push(aig.and(xs[i], xs[i + 1]));
        }
        let sum = aig.or_many(&gates);
        aig.add_output("y", sum);

        let mut original = CircuitSat::new(&aig);
        // Build incremental history (encoded cones, selector clauses).
        for i in 0..3 {
            let _ = original.prove_equivalent(gates[i], gates[(i + 1) % 3], 10_000);
        }
        let snap = original.snapshot();
        let mut restored = CircuitSat::from_snapshot(&aig, &snap).expect("valid snapshot");
        assert_eq!(restored.snapshot(), snap);

        // Identical future queries — outcomes, counter-example models and
        // final states all agree.
        for i in 0..5 {
            for j in 0..5 {
                let a = original.prove_equivalent(gates[i], gates[j], 10_000);
                let b = restored.prove_equivalent(gates[i], gates[j], 10_000);
                assert_eq!(a, b, "query ({i}, {j})");
            }
        }
        assert_eq!(original.snapshot(), restored.snapshot());
        assert_eq!(original.query_stats(), restored.query_stats());

        // A snapshot taken against one network is rejected by another.
        let mut other = Aig::new();
        let a = other.add_input("a");
        let b = other.add_input("b");
        let g = other.and(a, b);
        other.add_output("g", g);
        assert!(CircuitSat::from_snapshot(&other, &snap).is_err());
    }

    #[test]
    fn many_incremental_queries_reuse_the_solver() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 6);
        let mut gates = Vec::new();
        for i in 0..5 {
            gates.push(aig.and(xs[i], xs[i + 1]));
        }
        let sum = aig.or_many(&gates);
        aig.add_output("y", sum);
        let mut sat = CircuitSat::new(&aig);
        for i in 0..5 {
            for j in 0..5 {
                let outcome = sat.prove_equivalent(gates[i], gates[j], 10_000);
                if i == j {
                    assert_eq!(outcome, EquivOutcome::Equivalent);
                } else {
                    assert!(matches!(outcome, EquivOutcome::CounterExample(_)));
                }
            }
        }
        assert_eq!(sat.query_stats().total_calls, 25);
    }
}
