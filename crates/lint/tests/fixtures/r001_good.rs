//! R001 good fixture: the reduced request runs through the registry's
//! one entry point, and evaluation ids map through the same reduction.

pub fn solve_kept(r: &Reduction, spec: &SolverSpec, m: &dyn ScoreSource) -> Result<SolveOutput> {
    // The registry, not this caller, maps the seed and the answer and
    // adds the "reduced_from" note (prose never fires).
    Registry::global().solve_reduced(spec, m, None, r)
}

pub fn evaluate(r: &Reduction, m: &dyn ScoreSource, ids: &[usize]) -> Result<RegretReport> {
    let note = out.note("reduced_to");
    regret::report(m, &r.columns(ids, "selection")?)
}

#[cfg(test)]
mod tests {
    #[test]
    fn reference() {
        let _ = reduction.to_reduced(&[3]);
        assert_eq!(out.note("reduced_from"), Some(30.0));
    }
}
