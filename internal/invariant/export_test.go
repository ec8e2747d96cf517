package invariant

// FullSweep runs CheckAll's sweep over every disk, lock and gate, as
// the "final" sweep does, with the checks of the given boundary.
func (a *Auditor) FullSweep(boundary string) { a.sweep(boundary, true) }
