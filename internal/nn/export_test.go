package nn

// TailFused reports whether r runs its tail inside its nodes' passes.
func TailFused(r *Residual) bool { return r.nodes != nil }

// DxArenaFloats is the capacity of c's input-gradient arena.
func DxArenaFloats(c *Conv2D) int { return cap(c.dx.buf) }

// EachDispatch is eachDispatch for the external suites.
var EachDispatch = eachDispatch
