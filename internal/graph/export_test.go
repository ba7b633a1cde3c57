package graph

// The references, for the differential tests in package graph_test, which
// also import the search.
var (
	RefComponents     = refComponents
	RefBridges        = refBridges
	RefEccentricities = refEccentricities
)
