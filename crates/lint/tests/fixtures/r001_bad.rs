//! R001 bad fixture: a front end that gates and remaps a reduced answer
//! itself.

pub fn solve_kept(r: &Reduction, spec: &SolverSpec, m: &dyn ScoreSource) -> Result<SolveOutput> {
    let mut inner = spec.clone();
    inner.params.seed = r.to_reduced(&spec.params.seed)?;
    let mut out = Registry::global().solve(&inner, m, None)?;
    r.remap_output(&mut out)?;
    out.notes.push(("reduced_from", r.source_len() as f64));
    Ok(out)
}
