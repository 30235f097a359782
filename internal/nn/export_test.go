package nn

// TailFused reports whether r runs its tail inside its nodes' passes.
func TailFused(r *Residual) bool { return r.nodes != nil }
