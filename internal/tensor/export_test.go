package tensor

// StripRoutes reports the routes of the plan NewConvPlanF32 builds for a
// geometry and channel count, for suites outside the package: whether its
// forward reads the staged strip and whether its dx reads a staged dout
// strip.
func StripRoutes(g ConvGeom, outC int) (fwd, dx bool, err error) {
	p, err := NewConvPlanF32(g, outC)
	if err != nil {
		return false, false, err
	}
	return p.runs != nil, p.dxOfs != nil, nil
}
