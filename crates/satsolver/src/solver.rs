//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The implementation follows the MiniSat architecture: two-literal
//! watching, first-UIP conflict analysis, VSIDS branching with an indexed
//! heap, phase saving, Luby restarts and learnt-clause database reduction.
//! Queries can be budgeted with a conflict limit, in which case the solver
//! answers [`SolveResult::Unknown`] — the `unDET` outcome the SAT-sweeping
//! algorithm reacts to by marking a candidate as *don't touch*.

pub use crate::cnf::SatLit;
use crate::cnf::Var;
use crate::heap::VarOrder;

/// Outcome of a SAT query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveResult {
    /// A satisfying assignment was found (retrieve it with
    /// [`Solver::model_value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before an answer was found.
    Unknown,
}

/// Tunable solver parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Multiplicative decay applied to variable activities at each conflict.
    pub var_decay: f64,
    /// Multiplicative decay applied to clause activities at each conflict.
    pub clause_decay: f64,
    /// Base interval (in conflicts) of the Luby restart sequence.
    pub restart_base: u64,
    /// Initial learnt-clause limit before database reduction triggers.
    pub learnt_limit_base: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_base: 100,
            learnt_limit_base: 4000,
        }
    }
}

/// Aggregate statistics of a solver instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Number of top-level `solve` calls.
    pub solve_calls: u64,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<SatLit>,
    learnt: bool,
    activity: f64,
    deleted: bool,
}

/// One clause of a [`SolverSnapshot`].
///
/// The literal order is part of the state: positions 0 and 1 are the watched
/// literals, and the traversal order during propagation determines which
/// conflict is found first.  A restored clause must be verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseSnapshot {
    /// The literals, watched literals first, in stored order.
    pub lits: Vec<SatLit>,
    /// Whether the clause was learnt (subject to database reduction).
    pub learnt: bool,
    /// VSIDS-style clause activity.
    pub activity: f64,
    /// Whether the clause has been deleted by database reduction (deleted
    /// clauses still occupy their index — reasons reference indices).
    pub deleted: bool,
}

/// A complete, behaviour-exact snapshot of a [`Solver`] at decision level 0.
///
/// A CDCL solver's answers are history-dependent: learnt clauses, VSIDS
/// activities, saved phases and watch-list order all steer the search, so
/// two solvers agree on future queries only if *all* of that state agrees.
/// `SolverSnapshot` captures every field verbatim; restoring it with
/// [`Solver::from_snapshot`] yields a solver whose observable behaviour is
/// indistinguishable from the original.  This is the foundation of the
/// sweeping engine's checkpoint/resume guarantee.
///
/// Snapshots can only be taken between queries (the solver is always at
/// decision level 0 there, with an empty assumption trail limit stack and
/// cleared analysis flags).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverSnapshot {
    /// The tunable parameters.
    pub config: SolverConfig,
    /// All clauses, original and learnt, in allocation order.
    pub clauses: Vec<ClauseSnapshot>,
    /// Per-literal watch lists (`watches[lit.code()]`), verbatim order.
    pub watches: Vec<Vec<usize>>,
    /// Current (level-0) assignments.
    pub assigns: Vec<Option<bool>>,
    /// Saved phases.
    pub phase: Vec<bool>,
    /// Assignment levels (level 0 for all assigned variables).
    pub level: Vec<u32>,
    /// Reason clause indices of propagated literals.
    pub reason: Vec<Option<usize>>,
    /// VSIDS variable activities.
    pub activity: Vec<f64>,
    /// The VSIDS heap array (order matters for tie-breaking).
    pub order_heap: Vec<usize>,
    /// Position of each variable in the heap (`usize::MAX` if absent).
    pub order_position: Vec<usize>,
    /// The level-0 trail.
    pub trail: Vec<SatLit>,
    /// Propagation queue head (equals the trail length between queries).
    pub qhead: usize,
    /// Current variable activity increment.
    pub var_inc: f64,
    /// Current clause activity increment.
    pub cla_inc: f64,
    /// `false` once the formula is unconditionally unsatisfiable.
    pub ok: bool,
    /// The most recent model (empty or stale between queries).
    pub model: Vec<Option<bool>>,
    /// Aggregate statistics.
    pub stats: SolverStats,
    /// Number of live learnt clauses.
    pub num_learnts: usize,
}

/// A CDCL SAT solver.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    config: SolverConfig,
    clauses: Vec<Clause>,
    /// watches[lit.code()] lists clause indices currently watching `lit`.
    watches: Vec<Vec<usize>>,
    assigns: Vec<Option<bool>>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    activity: Vec<f64>,
    order: VarOrder,
    trail: Vec<SatLit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    var_inc: f64,
    cla_inc: f64,
    ok: bool,
    model: Vec<Option<bool>>,
    stats: SolverStats,
    num_learnts: usize,
    seen: Vec<bool>,
    /// Conflict-analysis scratch: the clause most recently learnt.
    learnt: Vec<SatLit>,
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Self {
        Self::with_config(SolverConfig::default())
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            config,
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            ..Default::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(None);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v.index(), &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of original (problem) clauses added so far.
    pub fn num_clauses(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| !c.learnt && !c.deleted)
            .count()
    }

    /// Solver statistics.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnt_clauses = self.num_learnts as u64;
        s
    }

    /// Adds a clause.  Returns `false` if the solver is already in an
    /// unsatisfiable state (an empty clause was derived at the top level).
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable that was not allocated with
    /// [`Solver::new_var`].
    pub fn add_clause(&mut self, lits: &[SatLit]) -> bool {
        assert!(
            lits.iter().all(|l| l.var().index() < self.num_vars()),
            "clause references an unallocated variable"
        );
        if !self.ok {
            return false;
        }
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        // Normalise: sort, dedupe, drop false literals, detect tautologies
        // and satisfied clauses.
        let mut norm: Vec<SatLit> = lits.to_vec();
        norm.sort();
        norm.dedup();
        let mut filtered = Vec::with_capacity(norm.len());
        for &lit in &norm {
            if norm.contains(&!lit) {
                return true; // tautology
            }
            match self.value(lit) {
                Some(true) => return true, // already satisfied at level 0
                Some(false) => {}          // drop falsified literal
                None => filtered.push(lit),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(filtered[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(filtered, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<SatLit>, learnt: bool) -> usize {
        let idx = self.clauses.len();
        self.watches[lits[0].code()].push(idx);
        self.watches[lits[1].code()].push(idx);
        if learnt {
            self.num_learnts += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
            deleted: false,
        });
        idx
    }

    /// Solves the formula without assumptions and without a conflict budget.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_limited(&[], u64::MAX)
    }

    /// Solves under assumptions without a conflict budget.
    pub fn solve_with_assumptions(&mut self, assumptions: &[SatLit]) -> SolveResult {
        self.solve_limited(assumptions, u64::MAX)
    }

    /// Solves under assumptions with a conflict budget; returns
    /// [`SolveResult::Unknown`] when the budget is exhausted.
    pub fn solve_limited(&mut self, assumptions: &[SatLit], conflict_budget: u64) -> SolveResult {
        self.stats.solve_calls += 1;
        if !self.ok {
            return SolveResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let result = self.search(assumptions, conflict_budget);
        self.cancel_until(0);
        result
    }

    /// The value of `var` in the most recent satisfying assignment, or
    /// `None` if the variable was irrelevant (any value satisfies).
    pub fn model_value(&self, var: Var) -> Option<bool> {
        self.model.get(var.index()).copied().flatten()
    }

    /// The value of a literal in the most recent satisfying assignment.
    pub fn model_lit_value(&self, lit: SatLit) -> Option<bool> {
        self.model_value(lit.var()).map(|v| v != lit.is_negative())
    }

    /// Captures the complete solver state (see [`SolverSnapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if called mid-search (the solver is between queries — and
    /// therefore at decision level 0 — whenever it is externally reachable).
    pub fn snapshot(&self) -> SolverSnapshot {
        assert_eq!(
            self.trail_lim.len(),
            0,
            "solver snapshots are taken between queries, at decision level 0"
        );
        debug_assert!(self.seen.iter().all(|&s| !s), "analysis flags are clear");
        let (order_heap, order_position) = self.order.to_parts();
        SolverSnapshot {
            config: self.config,
            clauses: self
                .clauses
                .iter()
                .map(|c| ClauseSnapshot {
                    lits: c.lits.clone(),
                    learnt: c.learnt,
                    activity: c.activity,
                    deleted: c.deleted,
                })
                .collect(),
            watches: self.watches.clone(),
            assigns: self.assigns.clone(),
            phase: self.phase.clone(),
            level: self.level.clone(),
            reason: self.reason.clone(),
            activity: self.activity.clone(),
            order_heap,
            order_position,
            trail: self.trail.clone(),
            qhead: self.qhead,
            var_inc: self.var_inc,
            cla_inc: self.cla_inc,
            ok: self.ok,
            model: self.model.clone(),
            stats: self.stats,
            num_learnts: self.num_learnts,
        }
    }

    /// Rebuilds a solver from a snapshot.  Returns an error message if the
    /// snapshot is internally inconsistent (wrong vector arities, clause or
    /// variable references out of range, corrupt heap), so corrupt data is
    /// rejected instead of producing a solver that panics later.
    pub fn from_snapshot(snap: &SolverSnapshot) -> Result<Self, &'static str> {
        let num_vars = snap.assigns.len();
        let arity_ok = snap.phase.len() == num_vars
            && snap.level.len() == num_vars
            && snap.reason.len() == num_vars
            && snap.activity.len() == num_vars
            && snap.order_position.len() == num_vars
            && snap.watches.len() == 2 * num_vars;
        if !arity_ok {
            return Err("solver snapshot vector arities disagree");
        }
        // Every attached clause has at least two literals (units are
        // enqueued, never attached); a shorter clause would panic inside
        // `propagate` when its missing watch position is accessed.
        if snap.clauses.iter().any(|c| c.lits.len() < 2) {
            return Err("solver snapshot contains a clause with fewer than two literals");
        }
        if snap
            .clauses
            .iter()
            .flat_map(|c| &c.lits)
            .any(|l| l.var().index() >= num_vars)
        {
            return Err("solver snapshot clause references an unallocated variable");
        }
        let num_clauses = snap.clauses.len();
        if snap
            .watches
            .iter()
            .flatten()
            .chain(snap.reason.iter().flatten())
            .any(|&ci| ci >= num_clauses)
        {
            return Err("solver snapshot references an out-of-range clause");
        }
        if snap.trail.iter().any(|l| l.var().index() >= num_vars)
            || snap.qhead > snap.trail.len()
            || snap.model.len() > num_vars
        {
            return Err("solver snapshot trail or model is inconsistent");
        }
        let order = VarOrder::from_parts(snap.order_heap.clone(), snap.order_position.clone())
            .ok_or("solver snapshot heap is corrupt")?;
        let live_learnts = snap
            .clauses
            .iter()
            .filter(|c| c.learnt && !c.deleted)
            .count();
        if snap.num_learnts != live_learnts {
            return Err("solver snapshot learnt-clause count disagrees");
        }
        Ok(Solver {
            config: snap.config,
            clauses: snap
                .clauses
                .iter()
                .map(|c| Clause {
                    lits: c.lits.clone(),
                    learnt: c.learnt,
                    activity: c.activity,
                    deleted: c.deleted,
                })
                .collect(),
            watches: snap.watches.clone(),
            assigns: snap.assigns.clone(),
            phase: snap.phase.clone(),
            level: snap.level.clone(),
            reason: snap.reason.clone(),
            activity: snap.activity.clone(),
            order,
            trail: snap.trail.clone(),
            trail_lim: Vec::new(),
            qhead: snap.qhead,
            var_inc: snap.var_inc,
            cla_inc: snap.cla_inc,
            ok: snap.ok,
            model: snap.model.clone(),
            stats: snap.stats,
            num_learnts: snap.num_learnts,
            seen: vec![false; num_vars],
            learnt: Vec::new(),
        })
    }

    // ------------------------------------------------------------------
    // Internal machinery.
    // ------------------------------------------------------------------

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn value(&self, lit: SatLit) -> Option<bool> {
        lit_value(&self.assigns, lit)
    }

    fn enqueue(&mut self, lit: SatLit, reason: Option<usize>) {
        debug_assert!(self.value(lit).is_none());
        let var = lit.var().index();
        self.assigns[var] = Some(!lit.is_negative());
        self.level[var] = self.decision_level() as u32;
        self.reason[var] = reason;
        self.trail.push(lit);
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level];
        while self.trail.len() > target {
            let lit = self.trail.pop().expect("trail is non-empty");
            let var = lit.var().index();
            self.phase[var] = !lit.is_negative();
            self.assigns[var] = None;
            self.reason[var] = None;
            self.order.insert(var, &self.activity);
        }
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    /// Unit propagation over the two-literal watches.
    ///
    /// Each watch list is compacted in place (read index `i`, write index
    /// `j`, as in MiniSat): the list is moved out of `watches` for the scan
    /// and moved back afterwards, so propagating a literal allocates
    /// nothing.  Clauses are visited in list order and kept watchers keep
    /// their relative order, which fixes which conflict is found first.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut conflict = None;
            let (mut i, mut j) = (0usize, 0usize);
            while i < ws.len() {
                let ci = ws[i];
                i += 1;
                let clause = &mut self.clauses[ci];
                if clause.deleted {
                    // Deleted clauses leave the list lazily, here.
                    continue;
                }
                // Make sure the false literal is at position 1.
                if clause.lits[0] == false_lit {
                    clause.lits.swap(0, 1);
                }
                let first = clause.lits[0];
                let first_value = lit_value(&self.assigns, first);
                if first_value == Some(true) {
                    ws[j] = ci;
                    j += 1;
                    continue;
                }
                // Look for a replacement watch.  It is never `false_lit`
                // (which is false), so `ws` is not pushed to meanwhile.
                let replacement = (2..clause.lits.len())
                    .find(|&k| lit_value(&self.assigns, clause.lits[k]) != Some(false));
                if let Some(k) = replacement {
                    clause.lits.swap(1, k);
                    let watch = clause.lits[1];
                    self.watches[watch.code()].push(ci);
                    continue;
                }
                // No replacement: the clause is unit or conflicting.
                ws[j] = ci;
                j += 1;
                if first_value == Some(false) {
                    conflict = Some(ci);
                    // Keep the unvisited watchers and stop.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        i += 1;
                        j += 1;
                    }
                    break;
                }
                self.enqueue(first, Some(ci));
            }
            ws.truncate(j);
            debug_assert!(self.watches[false_lit.code()].is_empty());
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, var: usize) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(var, &self.activity);
    }

    fn bump_clause(&mut self, ci: usize) {
        self.clauses[ci].activity += self.cla_inc;
        if self.clauses[ci].activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis.  The learnt clause is left in
    /// `self.learnt` (asserting literal first, a literal of the backtrack
    /// level second); the return value is the backtrack level.  The buffer
    /// is reused across conflicts, so analysis allocates nothing.
    fn analyze(&mut self, conflict: usize) -> usize {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(SatLit::positive(Var::from_index(0))); // placeholder slot 0
        let mut counter = 0usize;
        let mut p: Option<SatLit> = None;
        let mut index = self.trail.len();
        let mut confl = conflict;
        let current_level = self.decision_level() as u32;

        loop {
            self.bump_clause(confl);
            let start = if p.is_none() { 0 } else { 1 };
            for k in start..self.clauses[confl].lits.len() {
                let q = self.clauses[confl].lits[k];
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            let v = lit.var().index();
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            confl = self.reason[v].expect("non-decision literal has a reason");
            p = Some(lit);
        }
        learnt[0] = !p.expect("first UIP literal exists");

        // Compute the backtrack level (second-highest level in the clause).
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };

        // Clear the seen flags of the literals kept in the learnt clause.
        for lit in &learnt {
            self.seen[lit.var().index()] = false;
        }
        self.learnt = learnt;
        backtrack_level
    }

    fn reduce_db(&mut self) {
        // Collect learnt clause indices sorted by activity (ascending).
        let mut learnt_indices: Vec<usize> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && !c.deleted && c.lits.len() > 2)
            .map(|(i, _)| i)
            .collect();
        learnt_indices.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let locked: std::collections::HashSet<usize> =
            self.reason.iter().flatten().copied().collect();
        let to_remove = learnt_indices.len() / 2;
        let mut removed = 0usize;
        for &ci in &learnt_indices {
            if removed >= to_remove {
                break;
            }
            if locked.contains(&ci) {
                continue;
            }
            self.clauses[ci].deleted = true;
            self.num_learnts -= 1;
            removed += 1;
        }
        // Deleted clauses are skipped lazily during propagation; the watch
        // lists clean themselves up as they are visited.
    }

    fn luby(mut x: u64) -> u64 {
        // Luby sequence: 1 1 2 1 1 2 4 ...
        let mut size = 1u64;
        let mut seq = 0u32;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) / 2;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    fn search(&mut self, assumptions: &[SatLit], conflict_budget: u64) -> SolveResult {
        let mut conflicts_this_call = 0u64;
        let mut restarts = 0u64;
        let mut next_restart = Self::luby(restarts) * self.config.restart_base;
        let mut learnt_limit = self.config.learnt_limit_base + self.clauses.len() / 3;

        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_call += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                if self.decision_level() <= assumptions.len() {
                    // The conflict depends only on assumptions: the query is
                    // UNSAT under the given assumptions.
                    return SolveResult::Unsat;
                }
                let backtrack_level = self.analyze(conflict);
                self.cancel_until(backtrack_level);
                let asserting = self.learnt[0];
                if self.learnt.len() == 1 {
                    self.enqueue(asserting, None);
                } else {
                    let ci = self.attach_clause(self.learnt.clone(), true);
                    self.bump_clause(ci);
                    self.enqueue(asserting, Some(ci));
                }
                self.var_inc /= self.config.var_decay;
                self.cla_inc /= self.config.clause_decay;
                if conflicts_this_call >= conflict_budget {
                    return SolveResult::Unknown;
                }
                if conflicts_this_call >= next_restart {
                    restarts += 1;
                    self.stats.restarts += 1;
                    next_restart =
                        conflicts_this_call + Self::luby(restarts) * self.config.restart_base;
                    self.cancel_until(0);
                }
                if self.num_learnts > learnt_limit {
                    learnt_limit += learnt_limit / 2;
                    self.reduce_db();
                }
            } else {
                // No conflict: extend the assignment.
                if self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.value(p) {
                        Some(true) => {
                            self.new_decision_level();
                        }
                        Some(false) => return SolveResult::Unsat,
                        None => {
                            self.new_decision_level();
                            self.enqueue(p, None);
                        }
                    }
                    continue;
                }
                // Pick a branching variable.
                let mut decision = None;
                while let Some(var) = self.order.pop_max(&self.activity) {
                    if self.assigns[var].is_none() {
                        decision = Some(var);
                        break;
                    }
                }
                match decision {
                    None => {
                        // All variables assigned: a model has been found.
                        self.model.clone_from(&self.assigns);
                        return SolveResult::Sat;
                    }
                    Some(var) => {
                        self.stats.decisions += 1;
                        self.new_decision_level();
                        let lit = SatLit::new(Var::from_index(var), !self.phase[var]);
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }
}

/// The value of `lit` under `assigns`.
fn lit_value(assigns: &[Option<bool>], lit: SatLit) -> Option<bool> {
    assigns[lit.var().index()].map(|v| v != lit.is_negative())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver_vars: &[Var], i: isize) -> SatLit {
        let var = solver_vars[(i.unsigned_abs()) - 1];
        if i < 0 {
            SatLit::negative(var)
        } else {
            SatLit::positive(var)
        }
    }

    fn make_vars(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = Solver::new();
        let vars = make_vars(&mut s, 1);
        s.add_clause(&[lit(&vars, 1)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(vars[0]), Some(true));
        assert!(!s.add_clause(&[lit(&vars, -1)]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simple_propagation_chain() {
        let mut s = Solver::new();
        let vars = make_vars(&mut s, 4);
        s.add_clause(&[lit(&vars, 1)]);
        s.add_clause(&[lit(&vars, -1), lit(&vars, 2)]);
        s.add_clause(&[lit(&vars, -2), lit(&vars, 3)]);
        s.add_clause(&[lit(&vars, -3), lit(&vars, 4)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in &vars {
            assert_eq!(s.model_value(*v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole_is_unsat() {
        // x1: pigeon1 in hole, x2: pigeon2 in hole; both must be placed and
        // cannot share.
        let mut s = Solver::new();
        let vars = make_vars(&mut s, 2);
        s.add_clause(&[lit(&vars, 1)]);
        s.add_clause(&[lit(&vars, 2)]);
        s.add_clause(&[lit(&vars, -1), lit(&vars, -2)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_are_respected() {
        let mut s = Solver::new();
        let vars = make_vars(&mut s, 2);
        s.add_clause(&[lit(&vars, 1), lit(&vars, 2)]);
        assert_eq!(
            s.solve_with_assumptions(&[lit(&vars, -1)]),
            SolveResult::Sat
        );
        assert_eq!(s.model_value(vars[1]), Some(true));
        assert_eq!(
            s.solve_with_assumptions(&[lit(&vars, -1), lit(&vars, -2)]),
            SolveResult::Unsat
        );
        // The solver remains usable after an UNSAT-under-assumptions call.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn conflict_budget_yields_unknown() {
        // A hard pigeonhole instance with a tiny budget should time out.
        let (mut s, _) = pigeonhole(6, 5);
        assert_eq!(s.solve_limited(&[], 3), SolveResult::Unknown);
    }

    /// Builds the pigeonhole principle PHP(pigeons, holes).
    fn pigeonhole(pigeons: usize, holes: usize) -> (Solver, Vec<Vec<Var>>) {
        let mut s = Solver::new();
        let grid: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &grid {
            let clause: Vec<SatLit> = row.iter().map(|&v| SatLit::positive(v)).collect();
            s.add_clause(&clause);
        }
        for (p1, row1) in grid.iter().enumerate() {
            for row2 in &grid[p1 + 1..] {
                for (&v1, &v2) in row1.iter().zip(row2.iter()) {
                    s.add_clause(&[SatLit::negative(v1), SatLit::negative(v2)]);
                }
            }
        }
        (s, grid)
    }

    #[test]
    fn pigeonhole_unsat() {
        let (mut s, _) = pigeonhole(5, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        let (mut s, grid) = pigeonhole(4, 4);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Each pigeon sits in exactly one hole of the model, no sharing.
        let mut used = [false; 4];
        for row in &grid {
            let holes: Vec<usize> = row
                .iter()
                .enumerate()
                .filter(|(_, &v)| s.model_value(v) == Some(true))
                .map(|(h, _)| h)
                .collect();
            let h = *holes.first().expect("a satisfied pigeon clause");
            assert!(!used[h], "two pigeons share hole {h}");
            used[h] = true;
        }
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..40 {
            let num_vars = 6;
            let num_clauses = 3 + (round % 20);
            let clauses: Vec<Vec<isize>> = (0..num_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = rng.gen_range(1..=num_vars as isize);
                            if rng.gen_bool(0.5) {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            // Brute force.
            let mut brute_sat = false;
            'outer: for bits in 0..(1usize << num_vars) {
                for clause in &clauses {
                    let ok = clause.iter().any(|&l| {
                        let value = (bits >> (l.unsigned_abs() - 1)) & 1 == 1;
                        if l > 0 {
                            value
                        } else {
                            !value
                        }
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = Solver::new();
            let vars = make_vars(&mut s, num_vars);
            for clause in &clauses {
                let lits: Vec<SatLit> = clause.iter().map(|&l| lit(&vars, l)).collect();
                s.add_clause(&lits);
            }
            let result = s.solve();
            if brute_sat {
                assert_eq!(result, SolveResult::Sat, "round {round}");
                // Verify the model satisfies every clause.
                for clause in &clauses {
                    assert!(clause.iter().any(|&l| {
                        let value = s.model_value(vars[l.unsigned_abs() - 1]).unwrap_or(false);
                        if l > 0 {
                            value
                        } else {
                            !value
                        }
                    }));
                }
            } else {
                assert_eq!(result, SolveResult::Unsat, "round {round}");
            }
        }
    }

    #[test]
    fn tautology_and_duplicate_literals() {
        let mut s = Solver::new();
        let vars = make_vars(&mut s, 2);
        assert!(s.add_clause(&[lit(&vars, 1), lit(&vars, -1)]));
        assert!(s.add_clause(&[lit(&vars, 2), lit(&vars, 2)]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(vars[1]), Some(true));
    }

    #[test]
    fn snapshot_restore_is_behaviour_exact() {
        // Build nontrivial history: an interrupted hard query leaves learnt
        // clauses, bumped activities and saved phases behind.
        let (mut original, grid) = pigeonhole(6, 5);
        assert_eq!(original.solve_limited(&[], 8), SolveResult::Unknown);
        let snap = original.snapshot();
        let mut restored = Solver::from_snapshot(&snap).expect("valid snapshot");
        // Restoring is lossless: a fresh snapshot of the restored solver is
        // identical to the one it came from.
        assert_eq!(restored.snapshot(), snap);

        // The same future query sequence must produce identical results,
        // identical models and identical final states.
        let queries: Vec<Vec<SatLit>> = vec![
            vec![],
            vec![SatLit::positive(grid[0][0])],
            vec![SatLit::negative(grid[0][0]), SatLit::negative(grid[0][1])],
        ];
        for assumptions in &queries {
            let a = original.solve_limited(assumptions, 50);
            let b = restored.solve_limited(assumptions, 50);
            assert_eq!(a, b);
            for row in &grid {
                for &v in row {
                    assert_eq!(original.model_value(v), restored.model_value(v));
                }
            }
        }
        assert_eq!(original.snapshot(), restored.snapshot());
    }

    #[test]
    fn snapshot_rejects_corrupt_state() {
        let (mut s, _) = pigeonhole(4, 3);
        let _ = s.solve_limited(&[], 5);
        let good = s.snapshot();
        assert!(Solver::from_snapshot(&good).is_ok());

        let mut wrong_arity = good.clone();
        wrong_arity.phase.pop();
        assert!(Solver::from_snapshot(&wrong_arity).is_err());

        let mut bad_clause_ref = good.clone();
        bad_clause_ref.watches[0].push(usize::MAX / 2);
        assert!(Solver::from_snapshot(&bad_clause_ref).is_err());

        let mut bad_heap = good.clone();
        if bad_heap.order_heap.len() >= 2 {
            bad_heap.order_heap.swap(0, 1); // positions no longer match
            assert!(Solver::from_snapshot(&bad_heap).is_err());
        }

        let mut bad_learnts = good.clone();
        bad_learnts.num_learnts += 1;
        assert!(Solver::from_snapshot(&bad_learnts).is_err());

        let mut short_clause = good.clone();
        if let Some(clause) = short_clause.clauses.first_mut() {
            clause.lits.truncate(1);
            assert!(Solver::from_snapshot(&short_clause).is_err());
        }
    }

    #[test]
    fn stats_accumulate() {
        let (mut s, _) = pigeonhole(5, 4);
        let _ = s.solve();
        let stats = s.stats();
        assert!(stats.decisions > 0);
        assert!(stats.propagations > 0);
        assert_eq!(stats.solve_calls, 1);
    }
}
