//! Procedure call graph.
//!
//! The interprocedural phase of the paper's compiler analyzes procedures
//! bottom-up over the call graph, propagating each procedure's side effects
//! to its callers. The IR forbids recursion (as Fortran 77 does), so the
//! graph is a DAG and the builder's define-callees-first discipline makes
//! definition order a valid bottom-up order.

use crate::stmt::{ProcIdx, Program, Stmt};

/// Immutable call-graph facts for a program.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// `callees[p]` = procedures called (directly) by `p`, deduplicated.
    callees: Vec<Vec<ProcIdx>>,
    /// Procedures reachable from the entry, in definition order.
    reachable: Vec<ProcIdx>,
}

impl CallGraph {
    /// Builds the call graph of `program`.
    #[must_use]
    pub fn of(program: &Program) -> Self {
        let n = program.procs.len();
        let mut callees: Vec<Vec<ProcIdx>> = vec![Vec::new(); n];
        for (i, p) in program.procs.iter().enumerate() {
            let mut cs = Vec::new();
            collect_calls(&p.body, &mut cs);
            cs.sort_unstable();
            cs.dedup();
            callees[i] = cs;
        }
        // Reachability from entry.
        let mut seen = vec![false; n];
        let mut stack = vec![program.entry];
        while let Some(p) = stack.pop() {
            if std::mem::replace(&mut seen[p.0 as usize], true) {
                continue;
            }
            stack.extend(callees[p.0 as usize].iter().copied());
        }
        let reachable = (0..n as u32)
            .map(ProcIdx)
            .filter(|p| seen[p.0 as usize])
            .collect();
        CallGraph { callees, reachable }
    }

    /// Direct callees of `p`.
    #[must_use]
    pub fn callees(&self, p: ProcIdx) -> &[ProcIdx] {
        &self.callees[p.0 as usize]
    }

    /// Procedures reachable from the entry, in bottom-up (definition) order:
    /// every procedure appears after all of its callees.
    #[must_use]
    pub fn bottom_up(&self) -> &[ProcIdx] {
        &self.reachable
    }
}

fn collect_calls(stmts: &[Stmt], out: &mut Vec<ProcIdx>) {
    for s in stmts {
        match s {
            Stmt::Call(p) => out.push(*p),
            Stmt::Loop(l) | Stmt::Doall(l) => collect_calls(&l.body, out),
            Stmt::If(i) => {
                collect_calls(&i.then_body, out);
                collect_calls(&i.else_body, out);
            }
            Stmt::Critical(c) => collect_calls(&c.body, out),
            Stmt::Assign(_) | Stmt::Post { .. } | Stmt::Wait { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::subs;

    #[test]
    fn bottom_up_order_and_reachability() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [8]);
        let leaf = p.proc("leaf", |f| {
            f.doall(0, 7, |i, f| f.store(a.at(subs![i]), vec![], 1));
        });
        let _orphan = p.proc("orphan", |f| f.compute(1));
        let mid = p.proc("mid", |f| {
            f.call(leaf);
            f.call(leaf);
        });
        let main = p.proc("main", |f| {
            f.call(mid);
            f.call(leaf);
        });
        let prog = p.finish(main).unwrap();
        let cg = CallGraph::of(&prog);
        assert_eq!(cg.callees(mid), &[leaf]);
        let mut main_callees = cg.callees(main).to_vec();
        main_callees.sort_unstable();
        assert_eq!(main_callees, vec![leaf, mid]);
        // orphan is unreachable.
        assert_eq!(cg.bottom_up(), &[leaf, mid, main]);
    }
}
