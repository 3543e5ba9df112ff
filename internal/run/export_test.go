package run

// The reference implementation, for the tests of package run_test.
type Oracle = oracleRun

var NewOracle = newOracle
