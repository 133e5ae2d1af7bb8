package refine

// Test helpers shared with the external refine_test package, whose tests
// need multilevel (which imports refine) to build projected partitions.
var (
	VerifyKWay   = verifyKWay
	RandomKWhere = randomKWhere
)
