package composite

// SameAsOracle is sameAsOracle for the external tests, which may import
// the warehouse: it imports this package.
var SameAsOracle = sameAsOracle
